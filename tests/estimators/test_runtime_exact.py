"""The runtime estimator's closed-form fit against exact rational least squares.

The fit's sums are ``math.fsum``, which is correctly rounded on every
interpreter (the builtin ``sum`` of floats is compensated from 3.12 on), so
these checks need only the standard library and run as a plain script under
any interpreter the package supports, numpy and pytest or not:

    PYTHONPATH=src python tests/estimators/test_runtime_exact.py
"""

import math
from fractions import Fraction

from repro.core.estimators.history import HistoryRepository, TaskRecord
from repro.core.estimators.runtime import RuntimeEstimator
from repro.gridsim.job import TaskSpec

#: (requested hours, runtimes) of well-conditioned similar sets: some
#: spread in the hours, an intercept away from zero, and an in-sample
#: error away from the 0.9 threshold.  The last two are sets the mean wins.
CASES = [
    ([1.0, 2.0, 3.0, 4.0], [110.0, 190.0, 310.0, 390.0]),
    ([0.5, 1.5, 2.25, 3.0, 7.75], [101.3, 240.7, 333.3, 512.9, 1290.4]),
    ([0.1, 0.2, 0.3], [60.0, 69.9, 80.2]),
    ([10.0, 20.0, 30.0, 40.0, 50.0, 60.0], [1210.0, 1985.0, 3020.0, 4105.0, 4890.0, 6010.0]),
    ([0.001, 0.002, 0.005], [1.0e4, 1.9e4, 5.2e4]),
    ([100.0, 101.0, 103.0, 107.0], [3600.0, 3630.5, 3701.2, 3810.9]),
    ([1.0, 2.0, 3.0], [300.0, 200.0, 150.0]),
    ([2.5, 2.5, 4.0, 9.0], [250.0, 260.0, 400.0, 930.0]),
    ([1.0, 2.0, 3.0, 4.0, 5.0], [500.0, 100.0, 480.0, 120.0, 510.0]),
    ([0.25, 0.5, 0.75, 1.0], [900.0, 40.0, 35.0, 880.0]),
]


def exact_fit(hours, runtimes):
    """slope, intercept, mean, variance (ddof=1), regression SSE, mean SSE —
    in rationals, from the floats as given."""
    x = [Fraction(h) for h in hours]
    y = [Fraction(r) for r in runtimes]
    n = len(x)
    x_mean, y_mean = sum(x) / n, sum(y) / n
    slope = sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y)) / sum(
        (a - x_mean) ** 2 for a in x
    )
    intercept = y_mean - slope * x_mean
    reg_sse = sum((b - (slope * a + intercept)) ** 2 for a, b in zip(x, y))
    mean_sse = sum((b - y_mean) ** 2 for b in y)
    return slope, intercept, y_mean, mean_sse / (n - 1), reg_sse, mean_sse


def history_of(hours, runtimes):
    return HistoryRepository(
        TaskRecord.from_spec(TaskSpec(owner="u", requested_cpu_hours=h), runtime_s=r)
        for h, r in zip(hours, runtimes)
    )


def fitted(hours, runtimes):
    """The estimator's fit of one similar set (its ``_Fit``)."""
    return RuntimeEstimator(history_of(hours, runtimes))._fit(TaskSpec(owner="u").attributes())


def close(value, exact, rel):
    return abs(value - exact) <= rel * abs(exact)


def test_slope_and_intercept_are_the_exact_ones_rounded():
    for hours, runtimes in CASES:
        slope, intercept = exact_fit(hours, runtimes)[:2]
        line = fitted(hours, runtimes).line
        assert close(line[0], float(slope), 1e-12), (hours, line[0], float(slope))
        assert close(line[1], float(intercept), 1e-12), (hours, line[1], float(intercept))
        assert line[2:] == (min(runtimes) / 2.0, max(runtimes) * 2.0)


def test_mean_and_stddev_are_the_exact_ones_rounded():
    for hours, runtimes in CASES:
        _, _, mean, variance, _, _ = exact_fit(hours, runtimes)
        fit = fitted(hours, runtimes)
        # fsum rounds the sum once and the division once: within an ulp.
        assert close(fit.mean, float(mean), 2.0**-52), (runtimes, fit.mean, float(mean))
        assert close(fit.stddev, math.sqrt(float(variance)), 1e-12), (runtimes, fit.stddev)


def test_regression_is_chosen_where_its_exact_error_beats_the_means():
    chosen = []
    for hours, runtimes in CASES:
        *_, reg_sse, mean_sse = exact_fit(hours, runtimes)
        fit = fitted(hours, runtimes)
        assert fit.prefer_regression == (reg_sse < Fraction(9, 10) * mean_sse), hours
        chosen.append(fit.prefer_regression)
    assert chosen == [True] * 8 + [False] * 2


def test_estimates_evaluate_the_exact_line_inside_the_clip():
    for hours, runtimes in CASES:
        slope, intercept = exact_fit(hours, runtimes)[:2]
        estimator = RuntimeEstimator(history_of(hours, runtimes), method="regression")
        for query in (min(hours), max(hours), 2.0 * max(hours)):
            estimate = estimator.estimate(
                TaskSpec(owner="u", requested_cpu_hours=query)
            )
            exact = slope * Fraction(query) + intercept
            clipped = min(max(exact, Fraction(min(runtimes)) / 2), Fraction(max(runtimes)) * 2)
            assert close(estimate.value, float(clipped), 1e-12), (hours, query, estimate.value)


def test_a_spread_at_the_guard_draws_no_line():
    # max - min <= 1e-12 * max(1, max|x|): no line, whatever the runtimes.
    for hours in ([1.0, 1.0, 1.0], [5.0, 5.0 + 4e-12, 5.0], [0.25, 0.25 + 5e-13, 0.25]):
        assert fitted(hours, [100.0, 200.0, 300.0]).line is None, hours
    assert fitted([5.0, 5.0 + 1e-10, 5.0], [100.0, 200.0, 300.0]).line is not None
    assert fitted([1.0, 2.0], [100.0, 200.0]).line is None  # fewer than 3 points


if __name__ == "__main__":
    import sys

    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print("ok", name)
    print(sys.version.split()[0], "all passed")
