"""The Runtime Estimator (§6.1).

"To estimate the runtime, we identify similar tasks in the history and then
compute a statistical estimate (the mean and linear regression) of their
runtimes.  We use this as the predicted runtime."

Both statistics are computed over the similar set:

- **mean** — the plain average of the similar tasks' runtimes;
- **linear regression** — least squares of runtime on requested CPU hours
  (the trace's user-supplied size signal), evaluated at the input task's
  request.

``method="auto"`` (the default) uses the regression when it is healthy
(enough samples, non-degenerate x spread, in-sample fit better than the
mean's) and falls back to the mean otherwise — small similar sets make
regression noisy, exactly why the paper reports both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

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
    regression_feature:
        Record attribute regressed against (default: the user's requested
        CPU hours).
    """

    def __init__(
        self,
        history: HistoryRepository,
        ladder: Sequence[Template] = DEFAULT_LADDER,
        min_samples: int = 3,
        method: str = "auto",
        regression_feature: str = "requested_cpu_hours",
    ) -> None:
        if method not in ("auto", "mean", "regression"):
            raise ValueError(f"unknown method {method!r}")
        self.history = history
        self.ladder = tuple(ladder)
        self.min_samples = min_samples
        self.method = method
        self.regression_feature = regression_feature
        #: attribute-value tuple -> fit, valid for history length ``_fits_version``.
        self._fits: Dict[tuple, Optional[_Fit]] = {}
        self._fits_version = len(history)

    # ------------------------------------------------------------------
    def estimate(self, spec: TaskSpec) -> RuntimeEstimate:
        """Predict the runtime of a task described by *spec*.

        Raises :class:`EstimationError` when the history holds no
        successful records at all.
        """
        fit = self._fit_for(spec.attributes())
        if fit is None:
            raise EstimationError("history holds no successful task records")
        x_new = float(getattr(spec, self.regression_feature))
        regression: Optional[float] = None
        if fit.line is not None:
            slope, intercept, lo, hi = fit.line
            regression = float(np.clip(float(slope * x_new + intercept), lo, hi))
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
        runtimes = np.asarray([r.runtime_s for r in matches], dtype=float)
        line, prefer_regression = None, False
        if len(matches) >= 3:
            x = np.asarray(
                [float(r.attribute(self.regression_feature)) for r in matches],
                dtype=float,
            )
            if not np.ptp(x) <= 1e-12 * max(1.0, float(np.abs(x).max())):
                slope, intercept = np.polyfit(x, runtimes, deg=1)
                line = (
                    slope,
                    intercept,
                    float(runtimes.min()) / 2.0,
                    float(runtimes.max()) * 2.0,
                )
                reg_sse = float(np.sum((runtimes - (slope * x + intercept)) ** 2))
                mean_sse = float(np.sum((runtimes - runtimes.mean()) ** 2))
                # "auto" demands a real in-sample improvement over the
                # mean, not a numerically marginal one.
                prefer_regression = self.method == "regression" or (
                    self.method == "auto" and reg_sse < 0.9 * mean_sse
                )
        return _Fit(
            template=template,
            n_similar=len(matches),
            mean=float(runtimes.mean()),
            stddev=float(runtimes.std(ddof=1)) if len(matches) > 1 else 0.0,
            line=line,
            prefer_regression=prefer_regression,
        )
