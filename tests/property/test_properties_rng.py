"""Property-based tests: a stream seeded on its first draw is the stream
that was seeded when it was requested.

The oracle is the eager ``RngStreams.stream`` body that seeded a
generator the moment a name was first asked for; every draw, every
exported state and every restore of the lazy streams must match it.
"""

from typing import Dict

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.gridsim.rng import RngStreams


class EagerStreams:
    """The streams as they were when a request seeded its generator."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        if name not in self._streams:
            digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
            child = np.random.SeedSequence(
                entropy=self.seed, spawn_key=tuple(int(x) for x in digest)
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def fork(self, name: str, index: int) -> np.random.Generator:
        return self.stream(f"{name}#{index}")

    def export_states(self) -> Dict[str, dict]:
        return {
            name: gen.bit_generator.state
            for name, gen in sorted(self._streams.items())
        }

    def restore_states(self, states: Dict[str, dict]) -> None:
        for name, state in states.items():
            self.stream(name).bit_generator.state = dict(state)


seeds = st.integers(min_value=0, max_value=2**64)
# Any text UTF-8 can encode: non-ASCII and empty names included.
texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
#: A plain name or a ``fork(name, index)``.
names = st.one_of(
    texts.map(lambda name: ("stream", name, None)),
    st.tuples(st.just("fork"), texts, st.integers(min_value=0, max_value=10_000)),
)
#: ``(which name, how many draws, which draw method)``.
draws = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=5),
              st.sampled_from(["random", "integers", "normal", "lognormal"])),
    max_size=12,
)


def request(streams, ref):
    kind, name, index = ref
    return streams.stream(name) if kind == "stream" else streams.fork(name, index)


def draw(generator, method, count):
    if method == "integers":
        return generator.integers(0, 1 << 40, size=count)
    return getattr(generator, method)(size=count)


def play(streams, refs, plan):
    """Request every name, then run *plan*; the draws, in order."""
    handles = [request(streams, ref) for ref in refs]
    return [draw(handles[which % len(handles)], method, count)
            for which, count, method in plan]


def same_draws(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b)
    )


class TestLazyStreamsMatchTheEagerOnes:
    @given(seeds, st.lists(names, min_size=1, max_size=5), draws)
    def test_draws_and_states_match(self, seed, refs, plan):
        lazy, eager = RngStreams(seed=seed), EagerStreams(seed)
        assert same_draws(play(lazy, refs, plan), play(eager, refs, plan))
        for ref in refs:
            assert request(lazy, ref).bit_generator.state == request(eager, ref).bit_generator.state

    @given(seeds, st.lists(names, min_size=1, max_size=5), draws)
    def test_export_covers_requested_streams_drawn_or_not(self, seed, refs, plan):
        lazy, eager = RngStreams(seed=seed), EagerStreams(seed)
        play(lazy, refs, plan)
        play(eager, refs, plan)
        exported = lazy.export_states()
        assert exported == eager.export_states()
        assert list(exported) == sorted({request(lazy, ref).name for ref in refs})

    @given(seeds, st.lists(names, min_size=1, max_size=5), draws, draws)
    def test_restore_continues_the_eager_sequence(self, seed, refs, before, after):
        lazy, eager = RngStreams(seed=seed), EagerStreams(seed)
        play(lazy, refs, before)
        play(eager, refs, before)
        restored, restored_eager = RngStreams(seed=seed), EagerStreams(seed)
        restored.restore_states(lazy.export_states())
        restored_eager.restore_states(eager.export_states())
        assert same_draws(play(restored, refs, after), play(restored_eager, refs, after))
        assert restored.export_states() == restored_eager.export_states()

    @given(seeds, names)
    def test_a_name_is_one_handle(self, seed, ref):
        streams = RngStreams(seed=seed)
        handle = request(streams, ref)
        assert request(streams, ref) is handle
        assert streams.stream(handle.name) is handle
        handle.random()
        assert request(streams, ref) is handle
