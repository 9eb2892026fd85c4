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

import importlib
from typing import Any, Dict, List

__version__ = "1.1.0"

#: Every public name and the module it is taken from: the one source of
#: the package surface.  A name's module is imported on first access, so
#: a process that serves a host loads neither the scenario engine, the
#: analysis code, the web UI nor the workload generators.
_EXPORTS: Dict[str, str] = {
    "AdaptiveSteeringAgent": "repro.core.steering",
    "AsyncSocketServerHandle": "repro.clarens",
    "AsyncSocketTransport": "repro.clarens",
    "FaultInjector": "repro.gridsim.faults",
    "GAE": "repro.gae",
    "GAEWebUI": "repro.webui",
    "OutageScheduler": "repro.gridsim.faults",
    "ScenarioSpec": "repro.scenarios",
    "ClarensClient": "repro.clarens",
    "ClarensHost": "repro.clarens",
    "ConcreteJobPlan": "repro.gridsim",
    "CostModel": "repro.accounting",
    "DowneyWorkloadGenerator": "repro.workloads",
    "EstimatorService": "repro.core",
    "FigureData": "repro.analysis",
    "GridBuilder": "repro.gridsim",
    "HistoryRepository": "repro.core",
    "Job": "repro.gridsim",
    "JobMonitoringService": "repro.core",
    "JobState": "repro.gridsim",
    "LoadProfile": "repro.gridsim",
    "LoopbackTransport": "repro.clarens",
    "MonALISARepository": "repro.monalisa",
    "ParagonAccountingRecord": "repro.workloads",
    "QueueTimeEstimator": "repro.core",
    "QuotaAccountingService": "repro.accounting",
    "QuotaManager": "repro.accounting",
    "RuntimeEstimator": "repro.core",
    "Simulator": "repro.gridsim",
    "SocketTransport": "repro.clarens",
    "SphinxScheduler": "repro.gridsim",
    "SteeringPolicy": "repro.core",
    "SteeringService": "repro.core",
    "Task": "repro.gridsim",
    "TaskRecord": "repro.core",
    "TaskSpec": "repro.gridsim",
    "TransferTimeEstimator": "repro.core",
    "XmlRpcServerHandle": "repro.clarens",
    "build_gae": "repro.gae",
    "build_grid": "repro.gridsim.grid",
    "count_primes": "repro.workloads",
    "load_scenario": "repro.scenarios",
    "make_prime_count_task": "repro.workloads",
    "mean_absolute_percentage_error": "repro.analysis",
    "mean_percentage_error": "repro.analysis",
    "percentage_error": "repro.analysis",
    "physics_analysis_job": "repro.workloads",
    "run_campaign": "repro.scenarios",
    "run_scenario": "repro.scenarios",
    "summarize_errors": "repro.analysis",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *__all__})
