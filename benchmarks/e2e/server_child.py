"""The server child: builds the rig, serves it, answers control commands.

Started by the runner with ``PYTHONHASHSEED=0``.  It reads one JSON line
of rig inputs on stdin, builds the rig in timed units, starts an
``AsyncSocketServerHandle`` and prints one JSON *ready* line.  After that
each stdin line is a command:

- ``{"cmd": "direct", "calls": [[method, params], ...]}`` — compute the
  answers by calling the registered service objects directly (no
  transport, no middleware, no cache) for the output check;
- ``{"cmd": "stats"}`` — the program's public counters;
- ``{"cmd": "kernel"}`` — how fast this core runs a fixed loop right now
  (``estimate.kernel_us``; sent between cycles, for the record only);
- ``{"cmd": "shutdown"}`` — population check, peak RSS, exit.

The real stdout is the control channel; anything the program prints goes
to stderr.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List


def _direct(rig: Any, token: str, calls: List[List[Any]]) -> List[Any]:
    """Answers from the service objects themselves, wire-normalised."""
    from repro.clarens.serialization import to_wire

    host = rig.gae.host
    principal = host.principal_of(token)
    out = []
    for method, params in calls:
        entry = host.registry.resolve(method)
        if entry.pass_context:
            raise ValueError(f"{method} needs a call context; not a direct read")
        args = [principal, *params] if entry.pass_principal else params
        out.append(to_wire(entry.func(*args)))
    return out


def _stats(rig: Any, handle: Any) -> Dict[str, Any]:
    host = rig.gae.host
    obs = rig.gae.observability
    stats: Dict[str, Any] = {
        "read_cache": host.read_cache.snapshot()["per_method"],
        "worker_pool": handle.pool_stats.snapshot(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if obs is not None:
        stats["journal_head_seq"] = obs.journal.head_seq
    return stats


def main() -> int:
    started = time.time()
    control = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr
    inputs = json.loads(sys.stdin.readline())
    os.sched_setaffinity(0, {int(inputs["cpu"])})  # before any thread exists
    units: Dict[str, float] = {"spawn": started - float(inputs["spawned_at"])}

    def say(message: Dict[str, Any]) -> None:
        control.write(json.dumps(message) + "\n")
        control.flush()

    import estimate
    from rig import Lap, build_rig

    watch = Lap()
    sys.path.insert(0, inputs["src"])
    from repro.clarens.aio import AsyncSocketServerHandle

    units["import"] = watch.take()
    rig = build_rig(inputs, units)

    watch = Lap()
    handle = AsyncSocketServerHandle(rig.gae.host).start()
    units["server_start"] = watch.take()
    token = rig.gae.host.dispatch("system.login", [inputs["owner"], inputs["password"]])
    units["login"] = watch.take()
    # A pending collection must not land inside one run and not another.
    gc.collect()
    units["gc_collect"] = watch.take()

    settled = rig.population()
    say({
        "ready": True,
        "port": handle.address[1],
        "token": token,
        "units": units,
        "wall_s": time.time() - float(inputs["spawned_at"]),
        "layout": rig.layout(),
        "population": settled,
        "hashseed": os.environ.get("PYTHONHASHSEED", ""),
        "gc_collected": True,
    })
    try:
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "direct":
                say({"answers": _direct(rig, token, command["calls"])})
            elif command["cmd"] == "stats":
                say(_stats(rig, handle))
            elif command["cmd"] == "kernel":
                say({"kernel_us": estimate.kernel_us()})
            elif command["cmd"] == "shutdown":
                now = rig.population()
                say({
                    "population": now,
                    "conserved": now == settled and not now.get("paused", 0),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024.0,
                })
                break
            else:
                say({"error": f"unknown command {command['cmd']!r}"})
    finally:
        handle.shutdown()
        rig.gae.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
