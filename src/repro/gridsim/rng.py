"""Deterministic random-number streams.

Every stochastic component in the reproduction (workload generator, network
probe noise, background-load profiles, failure injection) draws from its own
named :class:`numpy.random.Generator` stream derived from a single master
seed via ``numpy.random.SeedSequence.spawn``-style child seeding.  Two
components never share a stream, so adding draws to one cannot perturb
another — the property that keeps every figure regenerable bit-for-bit.

A stream seeds itself on its first draw, not when it is requested: a grid
hands its iperf probe the ``"iperf"`` stream at build, and a probe with no
noise never draws, so a host that serves no stochastic work imports
neither ``numpy.random`` nor, unless something else computes with it,
numpy.  The child seed depends only on ``(master seed, name)``, so
seeding late draws exactly what seeding early did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # annotation only: numpy loads with the first draw
    import numpy as np


class Stream:
    """One named stream: a :class:`numpy.random.Generator` seeded on first use.

    Every public attribute (``random``, ``normal``, ``bit_generator``, …)
    is the generator's; the first access seeds it.
    """

    __slots__ = ("seed", "name", "_generator")

    def __init__(self, seed: int, name: str) -> None:
        self.seed = seed
        self.name = name
        self._generator: Optional[np.random.Generator] = None

    def __getattr__(self, attr: str) -> Any:
        if attr.startswith("_"):  # copy/pickle probes and unset slots stay ours
            raise AttributeError(attr)
        generator = self._generator
        if generator is None:
            import numpy as np

            # The spawn key is the name's UTF-8 bytes: creation order is irrelevant.
            key = tuple(self.name.encode("utf-8"))
            child = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
            generator = self._generator = np.random.default_rng(child)
        return getattr(generator, attr)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Stream({self.name!r}, seeded={self._generator is not None})"


class RngStreams:
    """A family of independent named random streams under one master seed.

    :meth:`stream` returns one cached :class:`Stream` per name; it seeds
    itself on its first draw, and :meth:`export_states` seeds every stream
    requested so far, so a checkpoint records the same states whether or
    not a stream has been drawn from.

    Examples
    --------
    >>> rngs = RngStreams(seed=42)
    >>> a = rngs.stream("workload")
    >>> b = rngs.stream("network")
    >>> a is rngs.stream("workload")   # streams are cached by name
    True
    """

    def __init__(self, seed: int = 2005) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return the stream for *name*, creating it deterministically.

        The child seed depends only on ``(master seed, name)``, never on the
        order in which streams are first requested or drawn from.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = Stream(self.seed, name)
        return stream

    def fork(self, name: str, index: int) -> Stream:
        """Return an indexed sub-stream, e.g. one per site or per client."""
        return self.stream(f"{name}#{index}")

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def export_states(self) -> Dict[str, dict]:
        """The bit-generator state of every requested stream, by name.

        A stream not yet drawn from is seeded here, so its state is the
        seeded one.  JSON-safe (ints and strings only), so a checkpoint can
        persist it; a restored stream continues the exact draw sequence.
        """
        return {
            name: stream.bit_generator.state
            for name, stream in sorted(self._streams.items())
        }

    def restore_states(self, states: Dict[str, dict]) -> None:
        """Fast-forward streams to :meth:`export_states` output.

        Streams absent from *states* are untouched; named streams are
        (re)created first, so restore works on a fresh instance.
        """
        for name, state in states.items():
            self.stream(name).bit_generator.state = dict(state)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"
