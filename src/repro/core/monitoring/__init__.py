"""The Job Monitoring Service (§5).

"The Job Monitoring Service provides the facility of monitoring jobs that
have been submitted for execution, and provides the job monitoring
information to the Steering Service", with an "easy-to-use API for
retrieval of job monitoring information such as job status, remaining time,
elapsed time, estimated run time, queue position, priority, submission
time, execution time, completion time, CPU time used, amount of input IO
and output IO, owner name and environment variables."

Components, one module each, mirroring Figure 3:

- :mod:`records` — the :class:`MonitoringRecord` struct with exactly the
  fields quoted above;
- :mod:`collector` — the Job Information Collector (§5.2), which watches
  execution services, pushes terminal updates to the DBManager, and serves
  live queries;
- :mod:`db_manager` — the DBManager (§5.4), an SQLite-backed repository
  whose every update is journalled (the ``monalisa`` journal consumer
  derives §5.4's publish to MonALISA from the same event);
- :mod:`manager` — the JMManager and JMExecutable (§5.3): DB-first /
  collector-fallback query flow, and the request forwarder the Steering
  Service talks to;
- :mod:`service` — the Clarens-registrable facade.
"""

from repro.core.monitoring.collector import JobInformationCollector
from repro.core.monitoring.db_manager import DBManager
from repro.core.monitoring.manager import JMExecutable, JMManager
from repro.core.monitoring.records import MonitoringRecord
from repro.core.monitoring.service import JobMonitoringService

__all__ = [
    "DBManager",
    "JMExecutable",
    "JMManager",
    "JobInformationCollector",
    "JobMonitoringService",
    "MonitoringRecord",
]
