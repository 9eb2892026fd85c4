"""End-to-end benchmark runner: client socket to reply, four workloads.

One process, one thread, one framed connection (``AsyncSocketTransport``,
codec ``json``) to a server child that owns the rig, so client and
program never share a GIL.  See ``README.md`` beside this file for the
workloads, the metrics and the estimator.

The driver's contract (``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload poll_uncached --seed 7 --seconds 15 --trace 0

prints human-readable lines, then one JSON object as the last line.
``--trace 1`` prints the per-layer metrics instead (see ``traced.py``).
``--repeat N`` is the repeatability report (one seed, N runs); ``--quick``
a smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import estimate  # noqa: E402
import workloads as wl  # noqa: E402
from client import BenchError, drive  # noqa: E402

#: The end-to-end metrics BENCHMARK.json gates, on every workload.
E2E_METRICS = ("setup_s", "peak_rss_mb")
#: The end-to-end timings of the load itself.  Two runs of identical code
#: and inputs differ by more than ``TIMING_BOUND`` in them on the VM the
#: baseline was taken on (README, *Baseline*), so they are reported with
#: every run, unresolved, and BENCHMARK.json does not gate them.
TIMINGS = {"calls_per_s": "calls/s", "p50_ms": "ms", "p99_ms": "ms"}
TIMING_BOUND = 0.10
#: Rig builds per run; they run side by side, one per core, and each
#: set-up unit counts its minimum over the builds.  The last one serves.
BUILDS = 2
#: Timed cycles a run must complete even if ``--seconds`` is over: the
#: second-smallest of fewer samples is not a low order statistic.
MIN_CYCLES = 10
#: Read positions replayed by the output check (plus one scan).
CHECK_READS = 200
QUICK_CYCLES = 3
CHILD_TIMEOUT_S = 120.0
#: The cores this process may use, read before anything is pinned.
CORES = sorted(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------
class Child:
    """A server child process and its JSON-lines control channel."""

    def __init__(self, inputs: Dict[str, Any], cpu: int) -> None:
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=str(ROOT),
            text=True,
        )
        self._send(dict(inputs, src=str(SRC), cpu=cpu, spawned_at=time.time()))
        self.ready: Dict[str, Any] = {}

    def _send(self, message: Dict[str, Any]) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def _receive(self) -> Dict[str, Any]:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"server child exited with code {self.proc.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise BenchError(f"server child: {reply['error']}")
        return reply

    def wait_ready(self) -> Dict[str, Any]:
        self.ready = self._receive()
        return self.ready

    def ask(self, cmd: str, **fields: Any) -> Dict[str, Any]:
        self._send(dict(fields, cmd=cmd))
        return self._receive()

    def shutdown(self) -> Dict[str, Any]:
        """Ask for the closing report, then wait until the process has ended."""
        try:
            report = self.ask("shutdown")
        finally:
            self.close()
        return report

    def close(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _set_up(
    inputs: Dict[str, Any], builds: int
) -> Tuple[Child, float, Dict[str, float], float]:
    """Build the rig *builds* times side by side; the last child serves.

    Each child is pinned to a core of its own, the serving one to the
    last core.  Once the spare builds have exited the runner pins itself
    to the first core, so client and server each keep a core and neither
    migrates (with one core only, nothing is pinned apart).

    Returns ``(server, setup_s, units, wall_s)`` where *units* holds each
    unit's minimum over the builds, ``setup_s`` is their sum and
    *wall_s* is what the clock read for the serving child.
    """
    children = [Child(inputs, CORES[(i - builds) % len(CORES)]) for i in range(builds)]
    try:
        readies = [child.wait_ready() for child in children]
        for spare in children[:-1]:
            spare.shutdown()
    except BaseException:
        for child in children:
            child.close()
        raise
    if len(CORES) > 1:
        os.sched_setaffinity(0, {CORES[0]})
    units = estimate.unit_minima([ready["units"] for ready in readies])
    return children[-1], sum(units.values()), units, readies[-1]["wall_s"]


# ----------------------------------------------------------------------
# the output check
# ----------------------------------------------------------------------
def _normalize(value: Any) -> Any:
    """Strip per-call ``trace_id``s; every other byte must compare equal."""
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items() if k != "trace_id"}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    return value


def _output_check(
    transport: Any, token: str, server: Child, workload: wl.Workload, seed: int
) -> Tuple[int, int]:
    """Replay read positions over the socket and compare with direct calls.

    Returns ``(checked, mismatched)``.
    """
    reads = [
        call
        for op in workload.cycles[0]
        for call in op
        if call[0] in wl.READ_METHODS and call[0] != "jobmon.running_tasks"
    ]
    rng = random.Random(f"check:{seed}")
    calls = rng.sample(reads, min(CHECK_READS, len(reads)))
    calls.append(("jobmon.running_tasks", []))
    over_socket = transport.call_pipelined(calls, token=token, window=1)
    direct = server.ask("direct", calls=[list(call) for call in calls])["answers"]
    mismatched = 0
    for call, (ok, value), expected in zip(calls, over_socket, direct):
        # Through JSON on both sides: the control channel is JSON too.
        got = json.loads(json.dumps(_normalize(value))) if ok else repr(value)
        if not ok or got != _normalize(expected):
            mismatched += 1
            print(f"output check MISMATCH on {call!r}", file=sys.stderr)
    return len(calls), mismatched


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, quick: bool = False) -> Dict[str, Any]:
    """One end-to-end run of workload *name*; the contract's result object."""
    from repro.clarens.transport import AsyncSocketTransport

    _, spec = wl.WORKLOADS[name]
    if quick:
        spec = dict(spec, jobs=min(spec["jobs"], wl.QUICK_JOBS))
    inputs = wl.rig_inputs(seed, spec)
    server, setup_s, units, setup_wall = _set_up(inputs, 1 if quick else BUILDS)
    transport = None
    kernel: List[float] = []
    try:
        ready = server.ready
        priorities = dict(zip(ready["layout"]["task_ids"], inputs["priorities"]))
        workload = wl.build_workload(name, seed, ready["layout"], priorities)
        transport = AsyncSocketTransport(("127.0.0.1", ready["port"]), codec="json")
        samples, attempted, failed, wall = drive(
            transport,
            ready["token"],
            workload,
            None if quick else seconds,
            QUICK_CYCLES if quick else MIN_CYCLES,
            # Between cycles, nothing in flight: how fast is the server's core?
            lambda cycle: kernel.extend(server.ask("kernel")["kernel_us"]),
        )
        checked, mismatched = _output_check(transport, ready["token"], server, workload, seed)
        stats = server.ask("stats")
    finally:
        if transport is not None:
            transport.close()
        closing = server.shutdown()
    attempted += checked + 1
    failed += mismatched + (0 if closing["conserved"] else 1)

    metrics = {"setup_s": setup_s, "peak_rss_mb": closing["peak_rss_mb"]}
    ungated = estimate.filtered_metrics(samples, workload.calls_per_op)
    ungated.update(estimate.raw_metrics(samples, workload.calls_per_op))
    ungated["raw.setup_s"] = setup_wall
    ungated["vm.kernel_us"] = statistics.median(kernel)
    cycles = len(samples[0])

    print(f"workload {name}  seed {seed}  jobs {inputs['jobs']}  K {len(samples)} "
          f"x {workload.calls_per_op} call(s)  timed cycles {cycles}  wall {wall:.2f} s")
    print(f"  env: nproc {os.cpu_count()}  python {platform.python_version()}  "
          f"child PYTHONHASHSEED={ready['hashseed']}  gc.collect before ready: "
          f"{ready['gc_collected']}  builds {1 if quick else BUILDS}  "
          f"cores client {CORES[0]} server {CORES[-1]}")
    if quick:
        print("  --quick: small rig, few cycles, one build; numbers are NOT comparable")
    for key, unit in TIMINGS.items():
        print(f"  {key:<12} {ungated[key]:>12.4f} {unit:<8} raw.{key} {ungated['raw.' + key]:.4f}"
              f"   (n = {len(samples)} positions x {cycles} cycles; not gated)")
    for line in _by_method(workload, samples):
        print(line)
    print(f"  setup_s      {setup_s:>12.4f} s        raw.setup_s {setup_wall:.4f}   "
          + "  ".join(f"{u} {v:.3f}" for u, v in _fold_units(units).items()))
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:>12.2f} MB")
    print(f"  vm.kernel_us  min {min(kernel):.0f}  median {ungated['vm.kernel_us']:.0f}  "
          f"median/min {ungated['vm.kernel_us'] / min(kernel):.2f}  "
          f"(a fixed loop on the server's core between cycles, n = {len(kernel)}; not gated)")
    print(f"  output check: {checked} replies compared, {mismatched} mismatched; "
          f"population {closing['population']} conserved: {closing['conserved']}")
    print(f"  server: {json.dumps(_brief(stats))}")
    print(f"  ungated: {json.dumps(ungated)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "ungated": ungated,
    }


def _by_method(workload: wl.Workload, samples: Sequence[Sequence[float]]) -> List[str]:
    """Where a cycle's filtered time goes, by the method of each position."""
    q = estimate.position_estimates(samples)
    groups: Dict[str, List[float]] = {}
    for op, value in zip(workload.cycles[0], q):
        methods = {method for method, _ in op}
        label = "batch+scan" if "jobmon.running_tasks" in methods and len(op) > 1 else (
            "batch" if len(op) > 1 else op[0][0])
        groups.setdefault(label, []).append(value)
    total = sum(q)
    lines = ["  filtered time by operation kind (n, median ms, share of cycle):"]
    for label, values in sorted(groups.items(), key=lambda kv: -sum(kv[1])):
        lines.append(f"    {label:<26}{len(values):>5}{statistics.median(values) * 1e3:>11.3f}"
                     f"{sum(values) / total:>8.1%}")
    return lines


def _fold_units(units: Dict[str, float]) -> Dict[str, float]:
    """Set-up units with the submit chunks folded into one line item."""
    folded: Dict[str, float] = {}
    for unit, value in units.items():
        key = "submit" if unit.startswith("submit_") else unit
        folded[key] = folded.get(key, 0.0) + value
    return folded


def _brief(stats: Dict[str, Any]) -> Dict[str, Any]:
    cache = stats["read_cache"].values()
    pool = stats["worker_pool"]
    return {
        "cache_hits": sum(c["hits"] for c in cache),
        "cache_misses": sum(c["misses"] + c["invalidations"] for c in cache),
        "aio_submitted": pool["submitted"],
        "aio_max_queue_depth": pool["max_queue_depth"],
        "journal_head_seq": stats.get("journal_head_seq"),
    }


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def _declared() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _units_of(declared: Dict[str, Any]) -> Dict[str, str]:
    return {
        m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]
    }


def _emit(result: Dict[str, Any], units: Dict[str, str]) -> None:
    """The contract's last line: exactly the declared metrics, with units."""
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }), flush=True)


def _repeat(
    names: Sequence[str], seed: int, seconds: float, n: int, quick: bool, vary_seed: bool
) -> int:
    """Run every workload *n* times and report min / median / max per
    metric and whether max - min is inside the declared bound.

    All *n* runs use the same seed, so the spread is the machine's and
    the program's, not the inputs'.  With *vary_seed* the seeds are
    ``seed .. seed+n-1`` instead: the driver's procedure, which mixes
    seed-to-seed variation in; the report is labelled as such.
    """
    bounds = {m["name"]: m["bound"] for m in _declared()["end_to_end"]}
    worst = 0
    for name in names:
        seeds = [seed + i if vary_seed else seed for i in range(n)]
        runs = [run_workload(name, s, seconds, quick) for s in seeds]
        worst = max(worst, *(r["failed"] for r in runs))
        label = (f"seeds {seeds[0]}..{seeds[-1]} (seed-to-seed variation included)"
                 if vary_seed else f"seed {seed} each (identical inputs)")
        print(f"\n== {name}: {n} runs, {label} ==")
        print(f"{'metric':<18}{'min':>12}{'median':>12}{'max':>12}{'max-min':>10}"
              f"{'IQR':>8}{'bound':>8}  verdict")
        for metric in [*bounds, *runs[0]["ungated"]]:
            values = [{**r["metrics"], **r["ungated"]}[metric] for r in runs]
            median = statistics.median(values)
            width = (max(values) - min(values)) / median
            iqr = estimate.spread(values) if n >= 2 else 0.0
            if metric in bounds:
                bound, verdict = bounds[metric], "gated: "
            elif metric in TIMINGS:
                bound, verdict = TIMING_BOUND, "not gated: "
            else:
                bound, verdict = None, "for the record"
            if bound is not None:
                verdict += "inside" if width <= bound else "OUTSIDE (unresolved)"
            print(f"{metric:<18}{min(values):>12.4f}{median:>12.4f}{max(values):>12.4f}"
                  f"{width:>9.1%}{iqr:>8.1%}{'' if bound is None else format(bound, '.0%'):>8}"
                  f"  {verdict}")
    if quick:
        print("\n--quick: numbers are NOT comparable with a full run")
    return 1 if worst else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", metavar="WORKLOAD", choices=sorted(wl.WORKLOADS),
                        help="same as --workload WORKLOAD --trace 1")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run every workload (or --workload) N times on one seed "
                             "and report spreads")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --repeat: seeds SEED..SEED+N-1, the driver's procedure")
    parser.add_argument("--quick", action="store_true",
                        help="smoke test: small rig, 3 cycles, one build; not comparable")
    args = parser.parse_args(argv)
    if args.traced:
        args.workload, args.trace = args.traced, 1
    if not SRC.is_dir():
        print(f"program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.repeat:
        names = [args.workload] if args.workload else list(wl.WORKLOADS)
        return _repeat(names, args.seed, args.seconds, args.repeat, args.quick, args.vary_seed)
    if not args.workload:
        parser.error("give --workload, --traced or --repeat")
    if args.trace:
        import traced

        result = traced.run_traced(args.workload, args.seed, args.seconds, args.quick)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.quick)
    _emit(result, _units_of(_declared()))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
