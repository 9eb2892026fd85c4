"""What a served call costs, counted in Python calls.

A count is taken with :func:`sys.setprofile` over one call, after a
warm-up call has done every one-off lazy import.  Only ``call`` events
are counted (a Python frame; a builtin raises ``c_call``), and no
comprehension or generator-expression frame: from 3.12 comprehensions
are inlined (PEP 709), so counting them would make the interpreters
disagree.  Counted that way the number is exact and the same on 3.10 to
3.13, so it is pinned as a budget: a stage wrapped back into a closure,
or one more call per served call in any layer, fails it.
"""

import sys

from repro.clarens.server import ClarensHost

#: Frames that exist on some interpreters only.
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})

#: A bare host's ``system.ping`` through ``dispatch``: its own frame,
#: the context, the call path, registry lookup, span open and finish,
#: token validation, the method, ``to_wire`` and the call counters.
PING_BUDGET = 24


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
