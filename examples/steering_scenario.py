#!/usr/bin/env python
"""The Figure 7 steering scenario, narrated.

Run with::

    python examples/steering_scenario.py

Reproduces the paper's §7 experiment: the 283 s prime job starts on a site
with heavy CPU load; the steering service notices the slow progress rate
through the job monitoring service, asks the estimators where the job would
finish sooner, and moves it.  An identical "shadow" job is left on the slow
site for comparison, exactly as the paper did ("the job was also allowed to
continue running on site A for testing purposes").

``repro.analysis.experiments.figure7_gae`` is the testbed (site A under
load 1.5, a free site B, ten 283 s calibration runs as the estimator's
history, a steering loop that looks every 20 s after a 40 s grace period);
``run_figure7_job`` pins both jobs to site A, samples their progress every
20 s and runs the simulation out.
"""

from repro.analysis.experiments import figure7_gae, run_figure7_job
from repro.analysis.figures import FigureData
from repro.workloads.generators import PRIME_JOB_FREE_CPU_SECONDS


def main() -> None:
    gae = figure7_gae()
    run = run_figure7_job(gae, chart=True)

    print(f"{'t (s)':>6}  {'steered job':>22}  {'shadow at siteA':>16}")
    for (t, p_steer), (_, p_shadow) in zip(run.steered_curve[:41:2], run.shadow_curve[:41:2]):
        site = "siteB" if t >= run.decision_at else "siteA"
        print(f"{t:6.0f}  {p_steer:15.1f}% @{site:<5}  {p_shadow:15.1f}%")

    move = gae.steering.actions[0]
    print(f"\nsteering decision at t={move.time:.0f}s: {move.decision.reason}")
    print(f"steered job completed at {run.steered_end:.0f}s "
          f"(paper: ~369 s; free-CPU bound: {PRIME_JOB_FREE_CPU_SECONDS:.0f} s)")
    print(f"shadow at siteA completed at {run.shadow_end:.0f}s")

    figure = (
        FigureData(
            title="Figure 7 (reproduced): Job Completion at different sites",
            x_label="Elapsed time (s)", y_label="Job progress (%)",
        )
        .add("steered job", *zip(*run.steered_curve))
        .add("shadow at siteA", *zip(*run.shadow_curve))
    )
    print()
    print(figure.render())


if __name__ == "__main__":
    main()
