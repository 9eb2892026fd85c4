"""Property-based tests: streaming telemetry equals offline recomputation.

The pipeline's determinism contract: every windowed aggregate it streams
is a pure function of the raw samples, so recomputing the same windows
offline — ``windows_from_events`` over the raw journal, and
``derive_window_series`` over the raw metric boundary samples, the two
reference implementations kept here — must be **bit-identical** to the
streamed series, whatever the workload or fault schedule did.
"""

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.steering.optimizer import SteeringPolicy
from repro.events.journal import JournalEvent
from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job, Task, TaskSpec
from repro.gridsim.faults import FaultInjector

HORIZON_S = 6000.0


def derive_window_series(
    raw: Sequence[Tuple[float, float]], kind: str, window_s: float
) -> List[Tuple[float, float]]:
    """Derived per-window samples from raw boundary samples.

    ``kind`` is ``"counter"`` (rate: successive deltas divided by the
    window width, the series implicitly starting at 0 before its first
    sample) or ``"gauge"`` (delta between successive samples).  The
    first raw sample only seeds the previous value — the derived series
    starts one window later, exactly like the streaming pipeline.
    """
    if kind not in ("counter", "gauge"):
        raise ValueError(f"unknown derivation kind {kind!r}")
    out: List[Tuple[float, float]] = []
    prev: Optional[float] = None
    for t, v in raw:
        if prev is not None:
            if kind == "counter":
                out.append((t, (v - prev) / window_s))
            else:
                out.append((t, v - prev))
        prev = v
    return out


def windows_from_events(
    events: Iterable[JournalEvent],
    boundaries: Sequence[float],
    origin: float,
) -> Dict[str, List[Tuple[float, int]]]:
    """Recompute per-window event counts from raw journal events.

    ``boundaries`` are the closed windows' end times (the pipeline's
    series times); window ``i`` spans ``[boundaries[i-1], boundaries[i])``
    with ``origin`` before the first.  Returns, per event-type value, the
    count series starting at the first window in which that type appears
    (later zero windows included) — exactly the streaming
    ``journal.<type>.count`` series shape.
    """
    starts = [origin] + list(boundaries[:-1])
    counts: Dict[str, List[int]] = {}
    for event in events:
        if event.time < origin:
            continue
        for i, (lo, hi) in enumerate(zip(starts, boundaries)):
            if lo <= event.time < hi:
                key = event.type.value
                series = counts.setdefault(key, [0] * len(boundaries))
                series[i] += 1
                break
    out: Dict[str, List[Tuple[float, int]]] = {}
    for key, values in sorted(counts.items()):
        first = next(i for i, v in enumerate(values) if v)
        out[key] = list(zip(boundaries[first:], values[first:]))
    return out


def run_telemetry_gae(seed, window_s, n_tasks, with_faults):
    grid = (
        GridBuilder(seed=seed)
        .site("siteA", nodes=2, background_load=0.0)
        .site("siteB", nodes=2, background_load=0.0)
        .link("siteA", "siteB", capacity_mbps=100.0, latency_s=0.05)
        .probe_noise(0.0)
        .build()
    )
    gae = build_gae(
        grid,
        policy=SteeringPolicy(auto_move=False),
        telemetry_window_s=window_s,  # ≤100 windows: the ring keeps them all
    )
    for i in range(n_tasks):
        task = Task(spec=TaskSpec(owner="prop"), work_seconds=50.0 + 35.0 * i)
        gae.scheduler.submit_job(Job(tasks=[task], owner="prop"))
    if with_faults:
        injector = FaultInjector(gae.sim, rng=np.random.default_rng(seed))
        for site in ("siteA", "siteB"):
            injector.add_site(
                gae.grid.execution_services[site], mtbf_s=900.0, mttr_s=200.0
            )
        injector.start()
    gae.start()
    gae.grid.run_until(HORIZON_S)
    gae.stop()
    return gae


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    window_s=st.sampled_from([60.0, 125.0, 250.0]),
    n_tasks=st.integers(min_value=1, max_value=4),
    with_faults=st.booleans(),
)
def test_streamed_windows_equal_offline_recomputation(
    seed, window_s, n_tasks, with_faults
):
    gae = run_telemetry_gae(seed, window_s, n_tasks, with_faults)
    telemetry = gae.observability.telemetry
    boundaries = telemetry.boundaries()
    assert telemetry.windows_closed == len(boundaries)

    # -- journal series: counts, rates, cumulative totals --------------
    recomputed = windows_from_events(
        gae.observability.journal.events(), boundaries, telemetry.origin
    )
    streamed_types = {
        name.split(".")[1]
        for name in telemetry.names()
        if name.startswith("journal.") and name.endswith(".count")
    }
    assert streamed_types == set(recomputed)
    for event_type, expected in recomputed.items():
        count = telemetry.series(f"journal.{event_type}.count").samples()
        assert count == [(t, float(v)) for t, v in expected]
        rate = telemetry.series(f"journal.{event_type}.rate").samples()
        assert rate == [(t, v / window_s) for t, v in expected]
        total = telemetry.series(f"journal.{event_type}.total").samples()
        running = 0
        expected_total = []
        for t, v in expected:
            running += v
            expected_total.append((t, float(running)))
        assert total == expected_total

    # -- metric series: derived rates/deltas from raw boundary samples -
    for name in telemetry.names():
        if name.endswith(".total"):
            raw, derived, kind = name, name[: -len(".total")] + ".rate", "counter"
        elif name.endswith(".value"):
            raw, derived, kind = name, name[: -len(".value")] + ".delta", "gauge"
        else:
            continue
        if not name.startswith("metric."):
            continue
        derived_series = telemetry.series(derived)
        if derived_series is None:
            continue
        expected = derive_window_series(
            telemetry.series(raw).samples(), kind, window_s
        )
        assert derived_series.samples() == expected, name
