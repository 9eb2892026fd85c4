"""The closed-loop load loop shared by the end-to-end and the traced run."""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

import workloads as wl


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


def op_failed(op: wl.Op, replies: Sequence[Tuple[bool, Any]]) -> bool:
    """A fault, or a steering reply with ``ok: false``, fails the operation."""
    for (method, _), (ok, value) in zip(op, replies):
        if not ok:
            return True
        if method in wl.VERBS and not (isinstance(value, dict) and value.get("ok")):
            return True
    return False


def drive(
    transport: Any,
    token: str,
    workload: wl.Workload,
    seconds: Optional[float],
    min_cycles: int,
    on_cycle_end: Callable[[int], None] = lambda cycle: None,
) -> Tuple[List[List[float]], int, int, float]:
    """One warm-up cycle, then timed cycles; per-position samples in seconds.

    Every caller waits for its reply before sending the next operation
    (closed loop, one connection).  An operation is timed from request
    encode to reply decoded.  Timed cycles repeat until *seconds* have
    been spent measuring (``None``: no time bound) and *min_cycles* are
    done, so run length is set here and not by the code under test.
    ``on_cycle_end(c)`` runs untimed after cycle ``c`` (0 is the warm-up).

    Returns ``(samples, attempted, failed, measuring_s)``.
    """
    clock = time.perf_counter
    window = workload.calls_per_op
    samples: List[List[float]] = [[] for _ in workload.cycles[0]]
    attempted = failed = 0
    measuring = 0.0
    cycle = 0
    gc.collect()
    while True:
        ops = workload.cycles[cycle % 2]
        cycle_started = clock()
        for i, op in enumerate(ops):
            t0 = clock()
            replies = transport.call_pipelined(op, token=token, window=window)
            elapsed = clock() - t0
            if cycle:
                samples[i].append(elapsed)
                attempted += 1
                failed += op_failed(op, replies)
            elif op_failed(op, replies):
                raise BenchError(f"warm-up operation {i} failed: {op!r} -> {replies!r}")
        if cycle:  # the warm-up cycle is not part of the run
            measuring += clock() - cycle_started
        on_cycle_end(cycle)
        cycle += 1
        if cycle - 1 >= min_cycles and (seconds is None or measuring >= seconds):
            return samples, attempted, failed, measuring
