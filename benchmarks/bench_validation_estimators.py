"""Validation — queue-time and transfer-time estimator accuracy.

The paper evaluates the Runtime Estimator quantitatively (Figure 5) but
only describes the Queue Time (§6.2) and Transfer Time (§6.3) estimators.
``repro.analysis.ablations`` closes the gap — for each, *predicted* against
*actual* over a workload the simulator then executes — and this bench
asserts how accurate the paper's algorithms have to be:

- Queue time (``run_queue_time_validation``): a Paragon-trace batch on a
  small pool, §6.2 predictions recorded at enqueue time against the true
  wait of every task; the per-slot extension on a multi-slot pool.
- Transfer time (``run_transfer_time_validation``): transfers over a
  noisy-probed link against the network model's ground truth across sizes
  and noise levels.
"""

from dataclasses import replace

import pytest

from repro.analysis.ablations import run_queue_time_validation, run_transfer_time_validation
from repro.core.estimators.queue_time import QueueTimeEstimator, RuntimeEstimateDB
from repro.gridsim.clock import Simulator
from repro.gridsim.execution import ExecutionService
from repro.gridsim.site import Site
from repro.workloads.downey import DowneyWorkloadGenerator


class TestQueueTimeValidation:
    def test_predictions_track_actual_waits(self):
        result = run_queue_time_validation()
        print("\n" + result.to_markdown())
        assert result.values["n_queued"] >= 20
        # §6.2's sum-of-remaining is unbiased when runtime estimates are
        # good; demand strong tracking.
        assert result.values["correlation"] > 0.95
        assert result.values["mean_abs_pct"] < 30.0

    def test_prediction_monotone_in_queue_depth(self):
        predicted = run_queue_time_validation().values["predicted_20_jobs"]
        # Later submissions see (weakly) deeper queues.
        assert predicted[0] == 0.0
        assert predicted[-1] > predicted[1]


class TestTransferTimeValidation:
    def test_accuracy_degrades_gracefully_with_probe_noise(self):
        result = run_transfer_time_validation()
        print("\n" + result.to_markdown())
        errors = result.values["by_noise"]
        assert errors[0.0] < 1.0          # perfect probe ~ exact (latency only)
        assert errors[0.0] <= errors[0.05] <= errors[0.2]

    def test_smoothing_window_improves_noisy_probe(self):
        by_window = run_transfer_time_validation().values["by_window"]
        assert by_window[10] < by_window[1]


@pytest.mark.benchmark(group="validation")
def test_queue_time_estimate_cost(benchmark):
    """Cost of one §6.2 estimate against a 40-deep queue."""
    sim = Simulator()
    site = Site.simple(sim, "pool", n_nodes=1)
    service = ExecutionService(site)
    db = RuntimeEstimateDB()
    tasks = []
    for r in DowneyWorkloadGenerator(seed=1).generate(40):
        t = r.to_task()
        t.spec = replace(t.spec, nodes=1)
        tasks.append(t)
    for t in tasks:
        service.submit_task(t)
        db.record(t.task_id, 600.0)
    qte = QueueTimeEstimator(db)
    last = tasks[-1].task_id
    result = benchmark(lambda: qte.estimate(service, last))
    assert result > 0.0


class TestPerSlotExtension:
    def test_per_slot_division_tracks_multi_slot_pools(self):
        """§6.2's plain sum assumes one CPU drains the queue; on an 8-slot
        pool it overestimates ~8x, and the per-slot extension repairs it."""
        values = run_queue_time_validation().values
        assert values["plain_ratio"] > 4.0          # the naive sum is way off
        assert 0.5 < values["slot_ratio"] < 2.0     # per-slot is in the right regime
