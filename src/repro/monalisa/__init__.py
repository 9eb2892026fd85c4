"""A MonALISA-style distributed monitoring repository.

MonALISA [8] is the monitoring backbone the paper's services publish to and
query: the Job Monitoring Service "sends an update to MonALISA whenever the
state of a job changes" (§5), and the scheduler "contact[s] the MonALISA
repository to get the status of load at execution sites" (§6.1 step d).

We substitute :class:`~repro.monalisa.repository.MonALISARepository` — a
time-series store with publish/subscribe — plus
:class:`~repro.monalisa.publisher.SiteLoadPublisher`, which periodically
samples each site's pool load into the repository under the simulator's
clock.
"""

from repro.monalisa.publisher import JobStatePublisher, SiteLoadPublisher
from repro.monalisa.repository import MetricUpdate, MonALISARepository
from repro.monalisa.service import MonALISAQueryService
from repro.monalisa.timeseries import TimeSeries

__all__ = [
    "JobStatePublisher",
    "MetricUpdate",
    "MonALISAQueryService",
    "MonALISARepository",
    "SiteLoadPublisher",
    "TimeSeries",
]
