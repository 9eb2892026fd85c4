"""The traced run: a per-layer waterfall measured from outside the program.

Nothing inside the program is traced.  The rig is built in this process
and the runner calls the *nested public entry points* on the same
arguments, one after the other, recording a span around each::

    AsyncSocketTransport.call            (client socket to reply)
      codec encode/decode, frame encode/decode      (on the same payloads)
      ClarensHost.dispatch               (middleware pipeline + method)
        ReadCache.lookup                 (cached rigs)
        the service method               (only when dispatch executed it)
          JobInformationCollector.collect / collect_running
            CondorPool.has_task / status / queue_position

A span is ``(name, operation id, repetition, parent, start, end)``; all
are kept in memory and written to ``out/trace.<workload>.jsonl`` at the
end.  A layer's self time is its span minus its children, each reduced
over the repetitions with the estimator the end-to-end run uses (the
second-smallest sample).  Steering verbs change state, so they are
traced as do/undo pairs (the even- and odd-cycle form of one position)
at every layer, which leaves the rig as it was.

Counts come from the program's public snapshots over exactly
``COUNT_CYCLES`` replayed cycles, so they repeat exactly between runs.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import estimate
import workloads as wl
from client import drive
from rig import SITES, Lap, Rig, build_rig

OUT = Path(__file__).resolve().parent / "out"
#: Timed cycles replayed for the counters.  Odd, so with the warm-up the
#: total is even and every priority and mover is back where it started.
COUNT_CYCLES = 3
QUICK_COUNT_CYCLES = 1
#: Read positions whose nested layers are traced (the scan comes on top).
SAMPLED_READS = 40
MIN_REPS = 3
VERB_PAIRS_PER_KIND = 4
VERB_REPS = 4
FRAME_HEADER_BYTES = 13
POINT_LOOKUPS = (
    "jobmon.job_status", "jobmon.progress", "jobmon.queue_position", "jobmon.job_info",
)
SCAN = "jobmon.running_tasks"
SERVICE_LAYER = {
    "jobmon": "monitoring", "steering": "steering", "monalisa": "monalisa",
    "estimator": "estimators",
}
#: Steering verbs that are one ``CondorPool`` method of the same name.
POOL_VERBS = ("steering.set_priority", "steering.pause", "steering.resume")

#: Every per-layer metric the traced run prints: name -> (unit, better).
#: A metric whose layer a workload never enters reads 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "traced.calls_per_s": ("calls/s", "higher"),
    "traced.p50_ms": ("ms", "lower"),
    "traced.p99_ms": ("ms", "lower"),
    "traced.host_share": ("ratio", "lower"),
    "transport.call_us": ("us", "lower"),
    "transport.self_us": ("us", "lower"),
    "codecs.encode_request_us": ("us", "lower"),
    "codecs.decode_request_us": ("us", "lower"),
    "codecs.encode_response_us": ("us", "lower"),
    "codecs.decode_response_us": ("us", "lower"),
    "codecs.request_bytes": ("B", "lower"),
    "codecs.response_bytes": ("B", "lower"),
    "framing.encode_frame_us": ("us", "lower"),
    "framing.decode_header_us": ("us", "lower"),
    "aio.queue_wait_us": ("us", "lower"),
    "aio.dispatch_us": ("us", "lower"),
    "aio.reply_flush_us": ("us", "lower"),
    "aio.queue_depth_max": ("count", "lower"),
    "aio.batch_size_mean": ("count", "higher"),
    "server.dispatch_us": ("us", "lower"),
    "server.middleware_self_us": ("us", "lower"),
    "readcache.hits": ("count", "higher"),
    "readcache.misses": ("count", "lower"),
    "readcache.invalidations": ("count", "lower"),
    "readcache.coalesced": ("count", "higher"),
    "readcache.hit_ratio": ("ratio", "higher"),
    "readcache.lookup_us": ("us", "lower"),
    "monitoring.job_status_us": ("us", "lower"),
    "monitoring.running_tasks_ms": ("ms", "lower"),
    "monitoring.self_us": ("us", "lower"),
    "collector.collect_us": ("us", "lower"),
    "collector.collect_running_ms": ("ms", "lower"),
    "collector.self_us": ("us", "lower"),
    "condor.queue_position_us": ("us", "lower"),
    "condor.has_task_us": ("us", "lower"),
    "condor.status_us": ("us", "lower"),
    "condor.set_priority_us": ("us", "lower"),
    "condor.idle_len": ("count", "lower"),
    "steering.set_priority_us": ("us", "lower"),
    "steering.move_us": ("us", "lower"),
    "steering.pause_us": ("us", "lower"),
    "steering.evaluate_move_us": ("us", "lower"),
    "eventcore.events_per_verb": ("count", "lower"),
    "eventcore.write_path_us": ("us", "lower"),
    "eventcore.consumer_lag_max": ("count", "lower"),
    "store.put_us": ("us", "lower"),
    "setup.build_gae_s": ("s", "lower"),
    "setup.submit_s": ("s", "lower"),
    "setup.settle_s": ("s", "lower"),
    "setup.server_start_s": ("s", "lower"),
    "scheduler.submit_us_first500": ("us", "lower"),
    "scheduler.submit_us_last500": ("us", "lower"),
}

Span = Tuple[str, int, int, Optional[int], float, float]


class Recorder:
    """Spans in memory: ``(name, op, rep, parent, start, end)``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def call(
        self, name: str, op: int, rep: int, parent: Optional[int],
        fn: Callable[..., Any], *args: Any, **kwargs: Any,
    ) -> Tuple[int, Any]:
        """Run ``fn`` inside a span; returns ``(span id, fn's result)``."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.spans.append((name, op, rep, parent, start, end))
        return len(self.spans) - 1, result

    def write(self, path: Path, ops: Dict[int, wl.Call]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, (name, op, rep, parent, start, end) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": span_id, "name": name, "op": op, "method": ops[op][0],
                    "rep": rep, "parent": parent, "start": start, "end": end,
                }) + "\n")

    def reduce(self) -> Tuple[Dict[int, Dict[str, float]], Dict[int, Dict[str, Optional[str]]]]:
        """``q[op][name]`` (second-smallest over reps, same-name spans of
        one rep summed) and ``parent_name[op][name]`` as of the last rep."""
        per_rep: Dict[int, Dict[str, Dict[int, float]]] = {}
        parents: Dict[int, Dict[str, Optional[str]]] = {}
        for name, op, rep, parent, start, end in self.spans:
            reps = per_rep.setdefault(op, {}).setdefault(name, {})
            reps[rep] = reps.get(rep, 0.0) + (end - start)
            parents.setdefault(op, {})[name] = (
                None if parent is None else self.spans[parent][0]
            )
        q = {
            op: {name: estimate.second_smallest(list(reps.values()))
                 for name, reps in names.items()}
            for op, names in per_rep.items()
        }
        return q, parents


@dataclass
class Env:
    """One in-process rig with its server, client and handles."""

    rig: Rig
    handle: Any
    transport: Any
    token: str
    units: Dict[str, float]
    failed: int = 0
    attempted: int = 0
    #: op -> (request payload bytes, response payload bytes)
    sizes: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    @property
    def host(self) -> Any:
        return self.rig.gae.host

    def pool(self, site: str) -> Any:
        return self.rig.gae.grid.sites[site].pool

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()
        if self.handle is not None:
            self.handle.shutdown()
        self.rig.gae.stop()


def _open(inputs: Dict[str, Any], serve: bool) -> Env:
    from repro.clarens.aio import AsyncSocketServerHandle
    from repro.clarens.transport import AsyncSocketTransport

    units: Dict[str, float] = {}
    rig = build_rig(inputs, units)
    handle = transport = None
    if serve:
        watch = Lap()
        handle = AsyncSocketServerHandle(rig.gae.host).start()
        units["server_start"] = watch.take()
        transport = AsyncSocketTransport(handle.address, codec="json")
    token = rig.gae.host.dispatch("system.login", [inputs["owner"], inputs["password"]])
    return Env(rig, handle, transport, token, units)


# ----------------------------------------------------------------------
# what gets traced
# ----------------------------------------------------------------------
def _sample_reads(workload: wl.Workload, seed: int) -> List[wl.Call]:
    """Distinct read calls of the cycle, sampled in proportion to the mix."""
    rng = random.Random(f"trace:{seed}")
    by_method: Dict[str, Dict[str, wl.Call]] = {}
    total = 0
    for op in workload.cycles[0]:
        for call in op:
            if call[0] in wl.READ_METHODS or call[0] == "system.multicall":
                by_method.setdefault(call[0], {})[json.dumps(call)] = call
                total += 1
    counts = workload.method_counts()
    sample: List[wl.Call] = []
    for method in sorted(by_method):
        distinct = list(by_method[method].values())
        share = 1 if method == SCAN else round(SAMPLED_READS * counts[method] / total)
        sample += rng.sample(distinct, min(max(1, share), len(distinct)))
    return sample


def _sample_verbs(workload: wl.Workload, seed: int) -> List[Tuple[wl.Call, wl.Call]]:
    """``(do, undo)`` call pairs: the two parities of a verb position, and
    each pause with its resume."""
    rng = random.Random(f"trace-verbs:{seed}")
    by_method: Dict[str, List[Tuple[wl.Call, wl.Call]]] = {}
    for even, odd in zip(*workload.cycles):
        method = even[0][0]
        if method == "steering.pause":
            by_method.setdefault(method, []).append(
                (even[0], ("steering.resume", even[0][1]))
            )
        elif method in wl.VERBS and method != "steering.resume":
            by_method.setdefault(method, []).append((even[0], odd[0]))
    pairs: List[Tuple[wl.Call, wl.Call]] = []
    for method in sorted(by_method):
        pairs += rng.sample(
            by_method[method], min(VERB_PAIRS_PER_KIND, len(by_method[method]))
        )
    return pairs


# ----------------------------------------------------------------------
# the nested calls
# ----------------------------------------------------------------------
def _service_span(method: str) -> str:
    service, name = method.split(".", 1)
    return f"{SERVICE_LAYER.get(service, service)}.{name}"


def _trace_wire(rec: Recorder, env: Env, op: int, rep: int, root: int,
                call: wl.Call) -> Tuple[int, Dict[str, Any]]:
    """Codec, framing and dispatch spans under one ``transport.call``."""
    from repro.clarens.framing import CALL, REPLY, decode_header, encode_frame
    from repro.clarens.serialization import to_wire

    method, params = call
    codec = env.transport.codec
    wire = [to_wire(p) for p in params]
    _, payload = rec.call("codecs.encode_request", op, rep, root,
                          codec.encode_request, method, env.token, wire)
    rec.call("framing.encode_frame", op, rep, root, encode_frame, CALL, 1, payload)
    rec.call("codecs.decode_request", op, rep, root, codec.decode_request, payload)
    collect: Dict[str, Any] = {}
    dispatch, result = rec.call("server.dispatch", op, rep, root, env.host.dispatch,
                                method, params, env.token, collect=collect)
    _, body = rec.call("codecs.encode_response", op, rep, root,
                       codec.encode_response, result)
    header = encode_frame(REPLY, 1, body)[:FRAME_HEADER_BYTES]
    rec.call("framing.decode_header", op, rep, root, decode_header, header)
    rec.call("codecs.decode_response", op, rep, root, codec.decode_response, body)
    env.sizes[op] = (len(payload), len(body))
    return dispatch, collect


def _trace_read(rec: Recorder, env: Env, op: int, rep: int, call: wl.Call) -> None:
    from repro.clarens.readcache import canonical_args

    method, params = call
    host = env.host
    root, _ = rec.call("transport.call", op, rep, None,
                       env.transport.call, method, params, env.token)
    env.attempted += 1
    dispatch, collect = _trace_wire(rec, env, op, rep, root, call)
    entry = host.registry.resolve(method)
    principal = host.principal_of(env.token)
    policy = getattr(entry, "cache", None)
    if host.read_cache.enabled and policy is not None and not entry.pass_context:
        key = canonical_args(list(params))
        if entry.pass_principal:
            key = (principal.user, key)
        vector = host.epochs.vector(policy.depends_on)
        rec.call("readcache.lookup", op, rep, dispatch,
                 host.read_cache.lookup, method, key, vector)
    if entry.pass_context:
        return  # system.multicall: no service object to call directly
    # The service subtree hangs under dispatch only when dispatch ran it.
    on_path = dispatch if collect["served_from"] == "execute" else None
    args = [principal, *params] if entry.pass_principal else params
    service, _ = rec.call(_service_span(method), op, rep, on_path, entry.func, *args)
    collector = env.rig.gae.monitoring.collector
    if method in POINT_LOOKUPS:
        task_id = params[0]
        collect_span, _ = rec.call("collector.collect", op, rep, service,
                                   collector.collect, task_id)
        for site in sorted(SITES):  # the collector's own probe order
            pool = env.pool(site)
            _, found = rec.call("condor.has_task", op, rep, collect_span,
                                pool.has_task, task_id)
            if found:
                rec.call("condor.status", op, rep, collect_span, pool.status, task_id)
                rec.call("condor.queue_position", op, rep, collect_span,
                         pool.queue_position, task_id)
                break
    elif method == SCAN:
        rec.call("collector.collect_running", op, rep, service, collector.collect_running)


def _trace_verb_pair(
    rec: Recorder, env: Env, twin: Optional[Env], ops: Tuple[int, int], rep: int,
    pair: Tuple[wl.Call, wl.Call], home: Dict[str, str],
) -> None:
    """Do then undo, at every layer in turn; the rig ends as it began."""
    host = env.host
    principal = host.principal_of(env.token)
    parents: List[Optional[int]] = [None, None]

    def both(name: str, run: Callable[[wl.Call], Any], nested: bool = True) -> None:
        for side, call in enumerate(pair):
            span, reply = rec.call(name.format(verb=call[0].split(".", 1)[1]), ops[side],
                                   rep, parents[side] if nested else None, run, call)
            if nested:
                parents[side] = span
            env.attempted += 1
            env.failed += not (reply is None or reply["ok"])

    both("transport.call", lambda c: env.transport.call(c[0], c[1], env.token))
    both("server.dispatch", lambda c: host.dispatch(c[0], c[1], env.token))
    both("steering.{verb}", lambda c: host.registry.resolve(c[0]).func(principal, *c[1]))
    if pair[0][0] in POOL_VERBS:
        pool = env.pool(home[pair[0][1][0]])
        both("condor.{verb}", lambda c: getattr(pool, c[0].split(".", 1)[1])(*c[1]))
    if twin is not None:
        # The main rig's dispatch ran on a heap its transport call had
        # just warmed; the twin gets the same: one untimed pair first.
        for call in pair:
            twin.host.dispatch(call[0], call[1], twin.token)
        both("twin.server.dispatch",
             lambda c: twin.host.dispatch(c[0], c[1], twin.token), nested=False)


# ----------------------------------------------------------------------
# counters over replayed cycles
# ----------------------------------------------------------------------
def _cache_counts(host: Any) -> Dict[str, int]:
    totals = {"hits": 0, "misses": 0, "invalidations": 0, "coalesced": 0}
    for counters in host.read_cache.snapshot()["per_method"].values():
        for kind in totals:
            totals[kind] += counters[kind]
    return totals


def _replay(env: Env, workload: wl.Workload, cycles: int) -> Dict[str, float]:
    """Replay the cycle over the in-process socket; counters as metrics."""
    host = env.host
    obs = env.rig.gae.observability
    marks: Dict[str, Any] = {"lag": 0}

    def on_cycle_end(cycle: int) -> None:
        if cycle == 0:
            marks["cache"] = _cache_counts(host)
            marks["seq"] = obs.journal.head_seq if obs is not None else 0
        if obs is not None:
            head = obs.journal.head_seq
            lag = max(head - cursor for cursor in obs.eventcore.cursors().values())
            marks["lag"] = max(marks["lag"], lag)

    samples, attempted, failed, _ = drive(
        env.transport, env.token, workload, None, cycles, on_cycle_end
    )
    env.attempted += attempted
    env.failed += failed
    cache = {k: v - marks["cache"][k] for k, v in _cache_counts(host).items()}
    lookups = cache["hits"] + cache["misses"] + cache["invalidations"]
    verbs = cycles * sum(
        n for method, n in workload.method_counts().items() if method in wl.VERBS
    )
    events = (obs.journal.head_seq - marks["seq"]) if obs is not None else 0
    pool = env.handle.pool_stats.snapshot()
    stages = pool["stages"]
    filtered = estimate.filtered_metrics(samples, workload.calls_per_op)
    return {
        "traced.calls_per_s": filtered["calls_per_s"],
        "traced.p50_ms": filtered["p50_ms"],
        "traced.p99_ms": filtered["p99_ms"],
        "readcache.hits": cache["hits"],
        "readcache.misses": cache["misses"],
        "readcache.invalidations": cache["invalidations"],
        "readcache.coalesced": cache["coalesced"],
        "readcache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "aio.queue_wait_us": stages["queue_wait"]["p50_ms"] * 1e3,
        "aio.dispatch_us": stages["dispatch"]["p50_ms"] * 1e3,
        "aio.reply_flush_us": stages["reply_flush"]["p50_ms"] * 1e3,
        "aio.queue_depth_max": pool["max_queue_depth"],
        "aio.batch_size_mean": pool["completed"] / pool["batches"],
        "eventcore.events_per_verb": events / verbs if verbs else 0.0,
        "eventcore.consumer_lag_max": marks["lag"],
    }


def _store_put_us(gae: Any) -> float:
    """One ``StateStore.put`` of a monitoring-record-sized value."""
    from repro.store.base import Namespace

    store = gae.store
    store.register_namespace(Namespace("bench.e2e", description="benchmark probe"))
    value = {f"field_{i}": float(i) for i in range(16)}
    durations = []
    for i in range(64):
        t0 = time.perf_counter()
        store.put("bench.e2e", f"probe-{i % 8}", value)
        durations.append(time.perf_counter() - t0)
    store.clear("bench.e2e")
    return estimate.second_smallest(durations) * 1e6


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
#: Self times along a point lookup, outermost first; the last five are
#: only on the path when dispatch executed the method.
LOOKUP_PATH = (
    "transport.self_us", "codecs.encode_request_us", "codecs.decode_request_us",
    "codecs.encode_response_us", "codecs.decode_response_us", "framing.encode_frame_us",
    "framing.decode_header_us", "server.middleware_self_us", "readcache.lookup_us",
    "monitoring.self_us", "collector.self_us", "condor.has_task_us", "condor.status_us",
    "condor.queue_position_us",
)


def _trace(env: Env, twin: Optional[Env], workload: wl.Workload, seed: int,
           seconds: float, layout: Dict[str, Any]) -> Tuple[Recorder, Dict[int, wl.Call], str]:
    """Record the nested calls of the sampled reads, then the verb pairs."""
    reads = _sample_reads(workload, seed)
    pairs = _sample_verbs(workload, seed)
    ops: Dict[int, wl.Call] = dict(enumerate(reads))
    rec = Recorder()
    started = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - started < seconds:
        for op, call in enumerate(reads):
            if call[0] != SCAN:
                _trace_read(rec, env, op, rep, call)
        rep += 1
    for scan_rep in range(MIN_REPS):  # a scan chain costs seconds: a fixed few
        for op, call in enumerate(reads):
            if call[0] == SCAN:
                _trace_read(rec, env, op, scan_rep, call)
    home = {tid: site for site in SITES
            for tid in layout["queued"][site] + layout["running"][site]}
    verb_ops: List[Tuple[int, int]] = []
    for pair in pairs:
        do = len(ops)
        ops[do], ops[do + 1] = pair
        verb_ops.append((do, do + 1))
    for verb_rep in range(VERB_REPS):
        for pair_ops, pair in zip(verb_ops, pairs):
            _trace_verb_pair(rec, env, twin, pair_ops, verb_rep, pair, home)
    summary = (f"{len(reads)} read positions x {rep} reps, "
               f"{len(pairs)} verb pairs x {VERB_REPS} reps, {len(rec.spans)} spans")
    return rec, ops, summary


def run_traced(name: str, seed: int, seconds: float, quick: bool = False) -> Dict[str, Any]:
    """One traced run of workload *name*; the contract's result object.

    The counter cycles are a fixed number; *seconds* bounds the tracing
    of the sampled reads (half of it: a traced run also builds in-process).
    """
    # Client and server threads share this process and its GIL; on one
    # core they at least do not migrate.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    _, spec = wl.WORKLOADS[name]
    if quick:
        spec = dict(spec, jobs=min(spec["jobs"], wl.QUICK_JOBS))
    inputs = wl.rig_inputs(seed, spec)
    env = _open(inputs, serve=True)
    twin: Optional[Env] = None
    try:
        settled = env.rig.population()
        layout = env.rig.layout()
        priorities = dict(zip(layout["task_ids"], inputs["priorities"]))
        workload = wl.build_workload(name, seed, layout, priorities)
        metrics = _replay(env, workload, QUICK_COUNT_CYCLES if quick else COUNT_CYCLES)
        if inputs["observability"]:
            # The write path is what the journal adds: the same verbs on
            # a twin that differs only in ``observability=False``.
            twin = _open(dict(inputs, observability=False), serve=False)
            if twin.rig.layout() != layout:
                raise RuntimeError("the observability twin settled differently")
        rec, ops, summary = _trace(env, twin, workload, seed, seconds / 2, layout)
        env.attempted += 1
        env.failed += env.rig.population() != settled  # every do has had its undo
        metrics.update(_layer_metrics(rec, env, ops, workload, twin is not None))
        metrics["store.put_us"] = _store_put_us(env.rig.gae)
        metrics["condor.idle_len"] = statistics.mean(
            len(env.pool(site).queue_snapshot()) for site in SITES
        )
        metrics.update(_setup_metrics(env.units, inputs))
        path = OUT / f"trace.{name}.jsonl"
        rec.write(path, ops)
    finally:
        env.close()
        if twin is not None:
            twin.close()
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError(f"per-layer table out of step: {set(metrics) ^ set(PER_LAYER)}")

    print(f"traced {name}  seed {seed}  jobs {inputs['jobs']}  {summary} -> {path}")
    if quick:
        print("  --quick: small rig, few cycles; numbers are NOT comparable")
    for key in PER_LAYER:
        print(f"  {key:<32}{metrics[key]:>14.4f} {PER_LAYER[key][0]}")
    executed = metrics["traced.host_share"] > 0
    path_sum = sum(metrics[k] for k in (LOOKUP_PATH if executed else LOOKUP_PATH[:9]))
    print(f"  point lookup: self times along the path sum to {path_sum:.1f} us; "
          f"transport.call {metrics['transport.call_us']:.1f} us, replayed p50 "
          f"{metrics['traced.p50_ms'] * 1e3:.1f} us; collector+condor are "
          f"{metrics['traced.host_share']:.1%} of the call")
    return {
        "correct": env.failed == 0,
        "attempted": env.attempted,
        "failed": env.failed,
        "metrics": metrics,
    }


def _layer_metrics(
    rec: Recorder, env: Env, ops: Dict[int, wl.Call], workload: wl.Workload, has_twin: bool
) -> Dict[str, float]:
    q, parents = rec.reduce()

    def self_time(op: int, name: str) -> float:
        children = sum(q[op][c] for c, p in parents[op].items() if p == name)
        return q[op][name] - children

    def med(selected: Sequence[int], value: Callable[[int], Optional[float]],
            scale: float = 1e6) -> float:
        values = [v for v in (value(op) for op in selected) if v is not None]
        return statistics.median(values) * scale if values else 0.0

    def span(name: str) -> Callable[[int], Optional[float]]:
        return lambda op: q[op].get(name)

    def own(name: str) -> Callable[[int], Optional[float]]:
        return lambda op: self_time(op, name) if name in q[op] else None

    def service(op: int) -> str:
        return _service_span(ops[op][0])

    by_method: Dict[str, List[int]] = {}
    for op, (method, _) in ops.items():
        by_method.setdefault(method, []).append(op)
    lookups = [op for m in POINT_LOOKUPS for op in by_method.get(m, [])]
    scans = by_method.get(SCAN, [])
    verbs = [op for m in wl.VERBS for op in by_method.get(m, [])]

    # Payload sizes weighted back to the cycle's mix.
    counts = workload.method_counts()
    weight = {op: counts.get(m, 0) / len(by_method[m]) for op, (m, _) in ops.items()}
    total = sum(weight[op] for op in env.sizes)
    out = {
        "codecs.request_bytes": sum(env.sizes[op][0] * weight[op] for op in env.sizes) / total,
        "codecs.response_bytes": sum(env.sizes[op][1] * weight[op] for op in env.sizes) / total,
        "transport.call_us": med(lookups, span("transport.call")),
        "transport.self_us": med(lookups, own("transport.call")),
        "server.dispatch_us": med(lookups, span("server.dispatch")),
        "server.middleware_self_us": med(lookups, own("server.dispatch")),
        "readcache.lookup_us": med(lookups, span("readcache.lookup")),
        "monitoring.job_status_us": med(
            by_method.get("jobmon.job_status", []), span("monitoring.job_status")),
        "monitoring.running_tasks_ms": med(scans, span("monitoring.running_tasks"), 1e3),
        "monitoring.self_us": med(lookups, lambda op: self_time(op, service(op))),
        "collector.collect_us": med(lookups, span("collector.collect")),
        "collector.collect_running_ms": med(scans, span("collector.collect_running"), 1e3),
        "collector.self_us": med(lookups, own("collector.collect")),
        "condor.set_priority_us": med(verbs, span("condor.set_priority")),
        "steering.evaluate_move_us": med(
            by_method.get("steering.evaluate_move", []), span("steering.evaluate_move")),
        # What the journal adds to a verb: each kind's median, averaged
        # over the kinds (the cycle holds equally many of each).
        "eventcore.write_path_us": statistics.mean(
            med(by_method[m],
                lambda op: q[op]["server.dispatch"] - q[op]["twin.server.dispatch"])
            for m in sorted(wl.VERBS) if m in by_method
        ) if has_twin else 0.0,
    }
    for name in ("codecs.encode_request", "codecs.decode_request", "codecs.encode_response",
                 "codecs.decode_response", "framing.encode_frame", "framing.decode_header",
                 "condor.has_task", "condor.status", "condor.queue_position"):
        out[f"{name}_us"] = med(lookups, span(name))

    def host_share(op: int) -> float:
        """collector + condor self time over the whole call; zero when the
        cache answered and the collector was never reached."""
        if parents[op][service(op)] is None:
            return 0.0
        below = q[op]["collector.collect"]
        return below / q[op]["transport.call"]

    out["traced.host_share"] = med(lookups, host_share, 1.0)
    for verb in ("set_priority", "move", "pause"):
        out[f"steering.{verb}_us"] = med(
            by_method.get(f"steering.{verb}", []), span(f"steering.{verb}"))
    return out


def _setup_metrics(units: Dict[str, float], inputs: Dict[str, Any]) -> Dict[str, float]:
    chunks = [units[u] for u in sorted(units) if u.startswith("submit_")]
    per_chunk = min(int(inputs["submit_chunk"]), int(inputs["jobs"]))
    return {
        "setup.build_gae_s": units["build_gae"],
        "setup.submit_s": sum(chunks),
        "setup.settle_s": units["settle"],
        "setup.server_start_s": units["server_start"],
        "scheduler.submit_us_first500": chunks[0] / per_chunk * 1e6,
        "scheduler.submit_us_last500": chunks[-1] / per_chunk * 1e6,
    }
