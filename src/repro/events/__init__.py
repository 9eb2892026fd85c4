"""The write path: one event journal, and the stores as folds over it.

:mod:`repro.events.journal` holds the sequenced ``EventJournal``;
:mod:`repro.events.core` the ``EventCore`` — what the producers emit into
and the consumers that fold each event into its store.
:func:`repro.gae.build_gae` builds one for every GAE.  ``repro.observability``
reads this package; this package imports nothing from it.
"""

from repro.events.journal import EventJournal, EventType, JournalEvent

_CORE_EXPORTS = (
    "CONSUMER_NAMES",
    "CONSUMER_NAMESPACES",
    "EstimatorConsumer",
    "EventCore",
    "JournalConsumer",
    "MonALISAConsumer",
    "MonitoringConsumer",
)

__all__ = ["EventJournal", "EventType", "JournalEvent", *_CORE_EXPORTS]


def __getattr__(name: str):
    # The consumers import their stores' packages, whose services import
    # repro.clarens and through it repro.observability, which imports the
    # journal above: loading the core eagerly here would be a cycle.
    if name in _CORE_EXPORTS:
        from repro.events import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
