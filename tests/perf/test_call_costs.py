"""What a served call costs, counted in Python calls.

A count is taken with :func:`sys.setprofile` over one call, after a
warm-up call has done every one-off lazy import.  Only ``call`` events
are counted (a Python frame; a builtin raises ``c_call``), and no
comprehension or generator-expression frame: from 3.12 comprehensions
are inlined (PEP 709), so counting them would make the interpreters
disagree.  Counted that way the number is exact and the same on 3.10 to
3.13, so it is pinned as a budget: a stage wrapped back into a closure,
or one more call per served call in any layer, fails it.

The §5 reads are counted on the benchmark's rig shape, built here: two
sites of 4-CPU nodes, instrumented, read cache off, one-task jobs settled
at t=100 s (every slot running, the rest queued).  ``pytest -s`` prints
each count, the rows of ARCHITECTURE's "What a call costs" table.
"""

import sys

import pytest

from repro.clarens.server import ClarensHost
from repro.gae import SteeringPolicy, build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.job import Job, Task, TaskSpec

#: Frames that exist on some interpreters only.
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})

#: A bare host's ``system.ping`` through ``dispatch``: its own frame,
#: the context, the call path, registry lookup, span open and finish,
#: token validation, the method, ``to_wire`` and the call counters.
PING_BUDGET = 24

#: ``jobmon.running_tasks`` per running row, at 512 rows: the record's
#: snapshot (the pool's sync, six sim-clock frames, the estimate lookup), one
#: ``encode`` of the record and one ``to_wire`` of its dict, plus one of
#: each for its environment.  A field lowered by a call of its own costs
#: ~17 more.
RUNNING_TASKS_PER_ROW = 30

#: A running task's ``jobmon.job_status`` / ``jobmon.job_info`` on that rig.
JOB_STATUS_BUDGET = 74
JOB_INFO_BUDGET = 77


def python_calls(fn, *args):
    """``file:function`` of every Python frame one ``fn(*args)`` enters."""
    frames = []

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_name not in _INLINED:
            frames.append(f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}")

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return frames


def test_a_bare_host_ping_costs_its_budget():
    host = ClarensHost("costs")
    host.dispatch("system.ping", [])  # warm-up
    frames = python_calls(host.dispatch, "system.ping", [])
    assert frames[:4] == ["server.py:dispatch", "tracing.py:new_trace_id",
                          "server.py:__init__", "server.py:call"]
    assert len(frames) <= PING_BUDGET, "\n".join(frames)


def settled_rig(nodes_per_site, jobs):
    """``(host, token, running tasks)`` of the rig with *nodes_per_site*
    4-CPU nodes a site and *jobs* one-task jobs."""
    builder = GridBuilder(seed=1)
    for site in ("siteA", "siteB"):
        builder = builder.site(site, nodes=nodes_per_site, cpus_per_node=4)
    grid = (
        builder.link("siteA", "siteB", capacity_mbps=622.0, latency_s=0.05).probe_noise(0.0).build()
    )
    gae = build_gae(
        grid, read_cache=False, observability=True,
        policy=SteeringPolicy(auto_move=False, poll_interval_s=3_600.0),
    )
    gae.add_user("u", "p")
    gae.start()
    tasks = [
        Task(spec=TaskSpec(owner="u", priority=i % 5), work_seconds=5_000.0 + i)
        for i in range(jobs)
    ]
    for task in tasks:
        gae.scheduler.submit_job(Job(tasks=[task], owner="u"))
    grid.run_until(100.0)
    running = [task for task in tasks if task.state.value == "running"]
    assert len(running) == 2 * 4 * nodes_per_site
    return gae.host, gae.host.dispatch("system.login", ["u", "p"]), running


@pytest.fixture(scope="module")
def rig512():
    return settled_rig(64, 1_000)


def served_calls(rig, method, *args):
    """The Python calls of one served *method* call, after a warm-up."""
    host, token, _running = rig
    host.dispatch(method, list(args), token=token)
    count = len(python_calls(host.dispatch, method, list(args), token))
    print(f"{method}: {count} calls")
    return count


def test_a_running_row_costs_its_budget(rig512):
    rows = len(rig512[2])
    calls = served_calls(rig512, "jobmon.running_tasks")
    print(f"  {calls / rows:.1f} per row at {rows} rows")
    assert calls <= RUNNING_TASKS_PER_ROW * rows


def test_the_reads_of_one_running_task_cost_their_budget(rig512):
    task_id = rig512[2][0].task_id
    assert served_calls(rig512, "jobmon.job_status", task_id) <= JOB_STATUS_BUDGET
    assert served_calls(rig512, "jobmon.job_info", task_id) <= JOB_INFO_BUDGET


def test_job_tasks_costs_the_same_at_64_and_512_running_tasks(rig512):
    """One job's rows are snapshot alone, never every running task's."""
    costs = [
        served_calls(rig, "jobmon.job_tasks", rig[2][0].job_id)
        for rig in (settled_rig(8, 125), rig512)
    ]
    assert costs[0] == costs[1]
