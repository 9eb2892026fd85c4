"""repro: a reproduction of "Resource Management Services for a Grid
Analysis Environment" (Ali et al., ICPP Workshops 2005).

The package rebuilds the paper's three interactive resource-management
services — the **Steering Service**, the **Job Monitoring Service** and the
**Estimator Service** — on a Clarens-style web-services framework, over a
simulated Condor/Sphinx grid substrate, and regenerates every figure of the
paper's evaluation section.

Quick start::

    from repro import GridBuilder, build_gae, make_prime_count_task
    from repro.gridsim import Job

    grid = (GridBuilder(seed=1)
            .site("siteA", background_load=1.0)
            .site("siteB", background_load=0.0)
            .build())
    gae = build_gae(grid).start()
    gae.add_user("alice", "secret")

    task = make_prime_count_task(owner="alice")
    gae.scheduler.submit_job(Job(tasks=[task], owner="alice"))
    gae.grid.run_until(600)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured comparison.
"""

from repro.accounting import CostModel, QuotaAccountingService, QuotaManager
from repro.analysis import (
    FigureData,
    mean_absolute_percentage_error,
    mean_percentage_error,
    percentage_error,
    summarize_errors,
)
from repro.clarens import (
    AsyncSocketServerHandle,
    AsyncSocketTransport,
    ClarensClient,
    ClarensHost,
    LoopbackTransport,
    SocketTransport,
    XmlRpcServerHandle,
)
from repro.core import (
    EstimatorService,
    HistoryRepository,
    JobMonitoringService,
    QueueTimeEstimator,
    RuntimeEstimator,
    SteeringPolicy,
    SteeringService,
    TaskRecord,
    TransferTimeEstimator,
)
from repro.config import grid_from_config
from repro.core.steering import AdaptiveSteeringAgent
from repro.gae import GAE, build_gae
from repro.gridsim.faults import FaultInjector, OutageScheduler
from repro.scenarios import ScenarioSpec, load_scenario, run_campaign, run_scenario
from repro.webui import GAEWebUI
from repro.gridsim import (
    ConcreteJobPlan,
    GridBuilder,
    Job,
    JobState,
    LoadProfile,
    Simulator,
    SphinxScheduler,
    Task,
    TaskSpec,
)
from repro.monalisa import MonALISARepository
from repro.workloads import (
    DowneyWorkloadGenerator,
    ParagonAccountingRecord,
    count_primes,
    make_prime_count_task,
    physics_analysis_job,
)

__version__ = "1.1.0"

__all__ = [
    "AdaptiveSteeringAgent",
    "AsyncSocketServerHandle",
    "AsyncSocketTransport",
    "FaultInjector",
    "GAE",
    "GAEWebUI",
    "OutageScheduler",
    "ScenarioSpec",
    "ClarensClient",
    "ClarensHost",
    "ConcreteJobPlan",
    "CostModel",
    "DowneyWorkloadGenerator",
    "EstimatorService",
    "FigureData",
    "GridBuilder",
    "HistoryRepository",
    "Job",
    "JobMonitoringService",
    "JobState",
    "LoadProfile",
    "LoopbackTransport",
    "MonALISARepository",
    "ParagonAccountingRecord",
    "QueueTimeEstimator",
    "QuotaAccountingService",
    "QuotaManager",
    "RuntimeEstimator",
    "Simulator",
    "SocketTransport",
    "SphinxScheduler",
    "SteeringPolicy",
    "SteeringService",
    "Task",
    "TaskRecord",
    "TaskSpec",
    "TransferTimeEstimator",
    "XmlRpcServerHandle",
    "build_gae",
    "count_primes",
    "grid_from_config",
    "load_scenario",
    "make_prime_count_task",
    "mean_absolute_percentage_error",
    "mean_percentage_error",
    "percentage_error",
    "physics_analysis_job",
    "run_campaign",
    "run_scenario",
    "summarize_errors",
    "__version__",
]
