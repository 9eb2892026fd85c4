"""Smoke tests: every shipped example must run clean.

Each example is executed as a subprocess (its own interpreter, like a
user would run it) and its output checked for the landmark lines.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: float = 180.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr[-2000:]}"
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "scheduler placed" in out
        assert "job completed at site siteB" in out

    def test_steering_scenario(self):
        out = run_example("steering_scenario.py")
        assert "steering decision" in out
        assert "steered job completed" in out
        assert "Figure 7" in out

    def test_runtime_estimation(self):
        out = run_example("runtime_estimation.py")
        assert "mean |% error|" in out
        assert "paper: 13.53%" in out
        assert "Figure 5" in out

    def test_physics_analysis_dag(self):
        out = run_example("physics_analysis_dag.py")
        assert "crashes!" in out
        assert "job state: completed" in out
        assert "resubmitted" in out
        assert "total charged" in out

    def test_federated_discovery(self):
        out = run_example("federated_discovery.py")
        assert "found at cern" in out
        assert "found at caltech" in out
        assert "steering.where_am_i() -> 'caltech'" in out

    def test_adaptive_steering(self):
        out = run_example("adaptive_steering.py")
        assert "manual moves observed" in out
        assert "autonomous move" in out
        assert "steered by the learned policy" in out
