"""Canonical registry of every GAE state-store namespace.

One authoritative tuple of :class:`~repro.store.base.Namespace` records,
used three ways:

- ``register_all(store)`` prepares a store to hold a full checkpoint;
- ``tools/check_docs.py`` verifies the "State-store namespaces" table in
  ``docs/ARCHITECTURE.md`` lists exactly these names (docs cannot drift);
- the webui and CLI render it so operators can see what a checkpoint
  file contains.

Bump a namespace's version here (and write a migration in the owning
service) whenever its value shape changes incompatibly.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.store.base import Namespace, StateStore

__all__ = [
    "ACCOUNTING_STATE",
    "CHECKPOINT_GRIDSIM",
    "CHECKPOINT_META",
    "ESTIMATOR_HISTORY",
    "ESTIMATOR_RUNTIME",
    "MONALISA_EVENTS",
    "MONALISA_TIMESERIES",
    "MONITORING_JOBS",
    "NAMESPACES",
    "OBSERVABILITY_JOURNAL",
    "OBSERVABILITY_METRICS",
    "OBSERVABILITY_TELEMETRY",
    "OBSERVABILITY_TRACING",
    "STEERING_STATE",
    "namespace_names",
    "namespace_record",
    "register_all",
]

ESTIMATOR_HISTORY = "estimator.history"
ESTIMATOR_RUNTIME = "estimator.runtime"
MONITORING_JOBS = "monitoring.jobs"
MONALISA_TIMESERIES = "monalisa.timeseries"
MONALISA_EVENTS = "monalisa.events"
OBSERVABILITY_JOURNAL = "observability.journal"
OBSERVABILITY_TRACING = "observability.tracing"
OBSERVABILITY_METRICS = "observability.metrics"
OBSERVABILITY_TELEMETRY = "observability.telemetry"
CHECKPOINT_META = "checkpoint.meta"
CHECKPOINT_GRIDSIM = "checkpoint.gridsim"
STEERING_STATE = "checkpoint.steering"
ACCOUNTING_STATE = "checkpoint.accounting"

NAMESPACES: Tuple[Namespace, ...] = (
    Namespace(ESTIMATOR_HISTORY, 1, "completed TaskRecords backing the runtime estimator"),
    Namespace(ESTIMATOR_RUNTIME, 1, "at-submission runtime estimates (RuntimeEstimateDB)"),
    Namespace(MONITORING_JOBS, 1, "job monitoring rows + progress history (DBManager)"),
    Namespace(MONALISA_TIMESERIES, 1, "MonALISA per-farm metric time series"),
    Namespace(MONALISA_EVENTS, 1, "MonALISA job-state event log"),
    Namespace(OBSERVABILITY_JOURNAL, 1, "lifecycle event journal rows"),
    Namespace(OBSERVABILITY_TRACING, 1, "tracer span store"),
    Namespace(OBSERVABILITY_METRICS, 1, "metrics registry instrument values"),
    Namespace(OBSERVABILITY_TELEMETRY, 1, "windowed telemetry series and health-rule state"),
    Namespace(CHECKPOINT_META, 1, "checkpoint barrier metadata, grid spec, id counters"),
    Namespace(CHECKPOINT_GRIDSIM, 1, "scheduler, Condor pools, replica catalog, RNG streams"),
    Namespace(STEERING_STATE, 1, "steering subscriptions and Backup & Recovery state"),
    Namespace(ACCOUNTING_STATE, 1, "quota balances, reservations, and the charge ledger"),
)


def register_all(store: StateStore) -> None:
    """Register every canonical namespace on *store* (idempotent)."""
    for ns in NAMESPACES:
        store.register_namespace(ns)


def namespace_names() -> List[str]:
    """Just the names, in canonical order."""
    return [ns.name for ns in NAMESPACES]


def namespace_record(name: str) -> Namespace:
    """The canonical record for *name* (KeyError if not canonical).

    Services registering their own namespace should register this record
    so descriptions and versions never drift from the registry.
    """
    for ns in NAMESPACES:
        if ns.name == name:
            return ns
    raise KeyError(f"no canonical namespace named {name!r}")
