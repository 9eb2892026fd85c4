"""The Runtime Estimator (§6.1).

"To estimate the runtime, we identify similar tasks in the history and then
compute a statistical estimate (the mean and linear regression) of their
runtimes.  We use this as the predicted runtime."

Over the similar set: the **mean** runtime, and the **linear regression**
of runtime on requested CPU hours (the trace's user-supplied size signal)
evaluated at the input task's request.  ``method="auto"`` (the default)
uses the regression when it is healthy (enough samples, non-degenerate x
spread, in-sample fit better than the mean's) and falls back to the mean
otherwise — small similar sets make regression noisy, exactly why the
paper reports both.  Both are closed forms over a handful of floats (the
centred least-squares line: ``slope = Σdx·dy / Σdx²``, ``intercept = ȳ −
slope·x̄``), and every sum is :func:`math.fsum`, correctly rounded on every
interpreter (the builtin ``sum`` of floats is compensated from Python 3.12
on), so one history gives one answer everywhere.  Four records, an hour
more work each, and a five-hour query, which the line answers exactly:

>>> from repro.core.estimators.history import HistoryRepository, TaskRecord
>>> history = HistoryRepository(
...     TaskRecord.from_spec(TaskSpec(owner="alice", requested_cpu_hours=h), runtime_s=r)
...     for h, r in [(1.0, 110.0), (2.0, 190.0), (3.0, 310.0), (4.0, 390.0)])
>>> e = RuntimeEstimator(history).estimate(TaskSpec(owner="alice", requested_cpu_hours=5.0))
>>> e.method, e.value, e.mean
('regression', 490.0, 250.0)
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, sqrt
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from repro.core.estimators.history import HistoryRepository
from repro.core.estimators.similarity import (
    DEFAULT_LADDER,
    Template,
    most_specific_match,
)
from repro.gridsim.job import TaskSpec


class EstimationError(RuntimeError):
    """Raised when no estimate can be produced (e.g. empty history)."""


@dataclass(frozen=True)
class RuntimeEstimate:
    """A runtime prediction plus its provenance."""

    value: float                 # the predicted runtime (seconds)
    mean: float                  # mean of similar runtimes
    regression: Optional[float]  # regression prediction (None if unusable)
    n_similar: int               # size of the similar set
    template: Template           # the template that selected it
    method: str                  # "mean" | "regression"
    stddev: float = 0.0          # sample std-dev of the similar runtimes

    @property
    def standard_error(self) -> float:
        """Standard error of the mean over the similar set."""
        if self.n_similar < 1:
            return float("inf")
        return self.stddev / (self.n_similar ** 0.5)

    def interval(self, z: float = 1.96) -> "tuple[float, float]":
        """A z-score confidence band around the prediction, floored at 0."""
        half = z * self.standard_error
        return (max(0.0, self.value - half), self.value + half)


class _Fit(NamedTuple):
    """What one similar set says, before a spec's own size signal is applied."""

    template: Template
    n_similar: int
    mean: float
    stddev: float
    #: (slope, intercept, clip lo, clip hi); None when regression is ill-posed.
    line: Optional[Tuple[float, float, float, float]]
    #: Whether a well-posed regression is the answer (method, in-sample fit).
    prefer_regression: bool


class RuntimeEstimator:
    """History-based runtime prediction for task specs.

    Parameters
    ----------
    history:
        The completed-task repository to learn from.
    ladder:
        Specificity ladder of templates (see :mod:`similarity`).
    min_samples:
        Minimum similar records before a template is accepted.
    method:
        "auto", "mean", or "regression".
    """

    def __init__(
        self,
        history: HistoryRepository,
        ladder: Sequence[Template] = DEFAULT_LADDER,
        min_samples: int = 3,
        method: str = "auto",
    ) -> None:
        if method not in ("auto", "mean", "regression"):
            raise ValueError(f"unknown method {method!r}")
        self.history = history
        self.ladder = tuple(ladder)
        self.min_samples = min_samples
        self.method = method
        #: attribute-value tuple -> fit, valid for history length ``_fits_version``.
        self._fits: Dict[tuple, Optional[_Fit]] = {}
        self._fits_version = len(history)
        #: The last spec asked about, the history length then, its estimate.
        self._last: Tuple[Optional[TaskSpec], int, Optional[RuntimeEstimate]] = (None, -1, None)

    # ------------------------------------------------------------------
    def estimate(self, spec: TaskSpec) -> RuntimeEstimate:
        """Predict the runtime of a task described by *spec*.

        Raises :class:`EstimationError` when the history holds no
        successful records at all.
        """
        found = self._estimate(spec)
        if found is None:
            raise EstimationError("history holds no successful task records")
        return found

    def value_or(self, spec: TaskSpec, fallback: float) -> float:
        """The predicted seconds, *fallback* where :meth:`estimate` raises."""
        found = self._estimate(spec)
        return fallback if found is None else found.value

    def _estimate(self, spec: TaskSpec) -> Optional[RuntimeEstimate]:
        """Evaluated once per spec object and history length: each site
        ranking a task and its at-submission record ask in turn."""
        last_spec, length, found = self._last
        if spec is not last_spec or length != len(self.history):
            found = self._evaluate(spec)
            self._last = (spec, self._fits_version, found)  # _fit_for's len(history)
        return found

    def _evaluate(self, spec: TaskSpec) -> Optional[RuntimeEstimate]:
        fit = self._fit_for(spec.attributes())
        if fit is None:
            return None
        x_new = float(spec.requested_cpu_hours)
        regression: Optional[float] = None
        if fit.line is not None:
            slope, intercept, lo, hi = fit.line
            regression = min(max(slope * x_new + intercept, lo), hi)
        if fit.prefer_regression:  # only ever set beside a line
            value, method = regression, "regression"
        else:
            value, method = fit.mean, "mean"
        return RuntimeEstimate(
            value=value,
            mean=fit.mean,
            regression=regression,
            n_similar=fit.n_similar,
            template=fit.template,
            method=method,
            stddev=fit.stddev,
        )

    def __call__(self, spec: TaskSpec) -> float:
        """Callable shorthand returning just the predicted seconds.

        This is the signature
        :attr:`repro.gridsim.execution.ExecutionService.runtime_estimator`
        expects, so an estimator can be installed at a site directly.
        """
        return self.estimate(spec).value

    # ------------------------------------------------------------------
    def _fit_for(self, target: Dict[str, object]) -> Optional[_Fit]:
        """The fit for *target*, computed once per history version.

        A fit is a pure function of the attribute values and the
        history, and the history is append-only, so its length is its
        version: the memo is dropped whenever that moved and otherwise
        holds one entry per distinct attribute tuple asked about since.
        """
        if len(self.history) != self._fits_version:
            self._fits.clear()
            self._fits_version = len(self.history)
        key = tuple(target.values())
        try:
            return self._fits[key]
        except KeyError:
            fit = self._fits[key] = self._fit(target)
            return fit
        except TypeError:  # unhashable attribute value: nothing to key on
            return self._fit(target)

    def _fit(self, target: Dict[str, object]) -> Optional[_Fit]:
        """Walk the ladder and fit the similar set (None: nothing to fit).

        The regression line is None when it is ill-posed: fewer than 3
        points, or (numerically) no spread in the feature.  Predictions
        are clipped into [min/2, 2*max] of the observed similar runtimes
        — a line fitted to a handful of noisy points must not extrapolate
        to a runtime regime the similar set never exhibited.
        """
        template, matches = most_specific_match(
            self.history, target, min_samples=self.min_samples, ladder=self.ladder
        )
        if not matches:
            return None
        runtimes = [r.runtime_s for r in matches]
        n = len(runtimes)
        mean = fsum(runtimes) / n
        mean_sse = fsum((y - mean) ** 2 for y in runtimes)
        line, prefer_regression = None, False
        if n >= 3:
            x = [float(r.attribute("requested_cpu_hours")) for r in matches]
            lo, hi = min(x), max(x)
            if not hi - lo <= 1e-12 * max(1.0, abs(lo), abs(hi)):
                x_mean = fsum(x) / n
                dx = [xi - x_mean for xi in x]
                slope = fsum(d * (y - mean) for d, y in zip(dx, runtimes)) / fsum(
                    d * d for d in dx
                )
                intercept = mean - slope * x_mean
                line = (slope, intercept, min(runtimes) / 2.0, max(runtimes) * 2.0)
                reg_sse = fsum(
                    (y - (slope * xi + intercept)) ** 2 for xi, y in zip(x, runtimes)
                )
                # "auto" demands a real in-sample improvement over the
                # mean, not a numerically marginal one.
                prefer_regression = self.method == "regression" or (
                    self.method == "auto" and reg_sse < 0.9 * mean_sse
                )
        return _Fit(
            template=template,
            n_similar=n,
            mean=mean,
            stddev=sqrt(mean_sse / (n - 1)) if n > 1 else 0.0,
            line=line,
            prefer_regression=prefer_regression,
        )
