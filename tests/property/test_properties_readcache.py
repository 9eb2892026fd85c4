"""Property-based tests: cached reads are bit-identical to an uncached host.

The read cache's whole contract is that it is invisible: for ANY
interleaving of mutations (submissions, steering verbs, clock advances,
injected site faults) and reads, a host with the epoch-keyed cache enabled
must answer every read exactly as a cache-disabled host would — including
the faults — and every mutation must bump an epoch so stale entries can
never be served.

The same operation script is replayed against two independently built,
identically seeded GAEs (one ``read_cache=True``, one ``False``) and the
full read battery is compared step by step.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

from repro.clarens.errors import ClarensFault
from repro.core.steering.optimizer import SteeringPolicy
from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job, Task, TaskSpec
from repro.gridsim.faults import FaultInjector
from repro.gridsim.job import reset_id_counters
from repro.gridsim.scheduler import SchedulingError

SITES = ("siteA", "siteB")


def _op_strategy():
    submit = st.tuples(
        st.just("submit"),
        st.integers(min_value=50, max_value=2_000),   # work_seconds
        st.integers(min_value=0, max_value=4),        # priority
    )
    advance = st.tuples(
        st.just("advance"), st.integers(min_value=1, max_value=400)
    )
    kill = st.tuples(st.just("kill"), st.integers(min_value=0, max_value=63))
    priority = st.tuples(
        st.just("priority"),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=4),
    )
    move = st.tuples(st.just("move"), st.integers(min_value=0, max_value=63))
    return st.one_of(submit, advance, kill, priority, move)


class _Rig:
    """One GAE plus the per-step read battery the property compares."""

    def __init__(self, seed: int, read_cache: bool):
        reset_id_counters()
        grid = (
            GridBuilder(seed=seed)
            .site("siteA", nodes=2)
            .site("siteB", nodes=2)
            .link("siteA", "siteB", capacity_mbps=155.0, latency_s=0.05)
            .probe_noise(0.0)
            .build()
        )
        self.gae = build_gae(
            grid,
            read_cache=read_cache,
            observability=False,
            policy=SteeringPolicy(auto_move=False, poll_interval_s=3_600.0),
        )
        self.gae.add_user("prop", "pw")
        self.gae.start()
        # Deterministic fault process: same seed on both rigs, and both
        # rigs execute the same event sequence, so outages land at the
        # same instants with the same repair times.
        self.injector = FaultInjector(
            self.gae.sim, rng=np.random.default_rng(seed + 7)
        )
        for site in SITES:
            self.injector.add_site(
                self.gae.grid.execution_services[site], mtbf_s=900.0, mttr_s=120.0
            )
        self.injector.start()
        self.client = self.gae.client("prop", "pw")
        self.steering = self.client.service("steering")
        self.jobmon = self.client.service("jobmon")
        self.estimator = self.client.service("estimator")
        self.monalisa = self.client.service("monalisa")
        self.accounting = self.client.service("accounting")
        self.task_ids = []

    def _try(self, fn, *args):
        try:
            return fn(*args)
        except ClarensFault as exc:
            return ("fault", exc.code, exc.message)

    def apply(self, op):
        kind = op[0]
        if kind == "submit":
            # Explicit ids: the module-level allocators are global, so two
            # rigs drawing from them would disagree on every id.
            n = len(self.task_ids) + 1
            task = Task(
                spec=TaskSpec(owner="prop", priority=op[2]),
                work_seconds=float(op[1]),
                task_id=f"ptask-{n:04d}",
            )
            try:
                self.gae.scheduler.submit_job(
                    Job(tasks=[task], owner="prop", job_id=f"pjob-{n:04d}")
                )
            except SchedulingError as exc:
                # Every site is down at this instant: nothing was planned,
                # nothing mutated, and both rigs refuse identically.
                return ("fault", "unschedulable", str(exc))
            self.task_ids.append(task.task_id)
            return ("submitted", task.task_id)
        if kind == "advance":
            self.gae.grid.run_until(self.gae.sim.now + float(op[1]))
            return ("advanced", self.gae.sim.now)
        if not self.task_ids:
            return ("noop",)
        task_id = self.task_ids[op[1] % len(self.task_ids)]
        if kind == "kill":
            return self._try(self.steering.kill, task_id)
        if kind == "priority":
            return self._try(self.steering.set_priority, task_id, op[2])
        if kind == "move":
            return self._try(self.steering.move, task_id)
        raise AssertionError(f"unknown op {op!r}")

    def read_battery(self):
        out = {
            "running": self._try(self.jobmon.running_tasks),
            "owner": self._try(self.jobmon.owner_tasks, "prop"),
            "history_size": self._try(self.estimator.history_size),
            "weather": self._try(self.monalisa.grid_weather),
            "quota": self._try(self.accounting.quota_available, "prop"),
        }
        for site in SITES:
            out[f"load:{site}"] = self._try(self.monalisa.site_load, site)
        for task_id in self.task_ids:
            out[f"status:{task_id}"] = self._try(self.jobmon.job_status, task_id)
            out[f"queuepos:{task_id}"] = self._try(
                self.jobmon.queue_position, task_id
            )
            out[f"progress:{task_id}"] = self._try(self.jobmon.progress, task_id)
        return out

    def close(self):
        self.gae.stop()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    ops=st.lists(_op_strategy(), min_size=1, max_size=10),
)
def test_cached_reads_bit_identical_under_random_interleavings(seed, ops):
    cached = _Rig(seed, read_cache=True)
    plain = _Rig(seed, read_cache=False)
    try:
        assert cached.read_battery() == plain.read_battery()
        for step, op in enumerate(ops):
            epochs_before = cached.gae.host.epochs.snapshot()
            outcome_cached = cached.apply(op)
            outcome_plain = plain.apply(op)
            assert outcome_cached == outcome_plain, f"step {step}: {op}"

            # Every effective mutation must bump at least one epoch —
            # otherwise the cache could serve a stale answer.
            epochs_after = cached.gae.host.epochs.snapshot()
            mutated = not (
                outcome_cached == ("noop",)
                or (isinstance(outcome_cached, tuple)
                    and outcome_cached[0] == "fault")
                or (isinstance(outcome_cached, dict)
                    and not outcome_cached.get("ok", True))
            )
            if mutated:
                assert epochs_after != epochs_before, (
                    f"step {step}: {op} mutated state without an epoch bump"
                )
            if op[0] == "submit" and outcome_cached[0] == "submitted":
                assert epochs_after["scheduler"] > epochs_before["scheduler"]
            if op[0] == "advance":
                assert epochs_after["clock"] > epochs_before["clock"]

            # Reads answer identically on both rigs — and reading must
            # not itself bump any epoch.
            battery_cached = cached.read_battery()
            battery_plain = plain.read_battery()
            assert battery_cached == battery_plain, f"step {step}: {op}"
            assert cached.gae.host.epochs.snapshot() == epochs_after
        # The cache actually participated: repeat batteries produce hits.
        snap = cached.gae.host.read_cache.snapshot()
        total_hits = sum(c["hits"] for c in snap["per_method"].values())
        assert snap["enabled"] and total_hits > 0
    finally:
        cached.close()
        plain.close()
