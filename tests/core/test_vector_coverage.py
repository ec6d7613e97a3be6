"""Bit-exactness of the vectorized coverage kernel vs the scalar probe.

The :class:`~repro.simhash.CoverageKernel` replaces UniBin's per-post
Python scan with chunked popcounts; its contract is that nothing
observable changes — verdicts, ``stats`` counters, checkpoints, even the
sequence of ``AuthorGraph.are_similar`` calls. These tests run the same
streams through kernel-on and kernel-off (``set_kernel_enabled``) engines
across the property suite's threshold grid, plus a hypothesis-driven
probe-vs-reference check on the kernel in isolation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Post, Thresholds, make_diversifier
from repro.simhash import CoverageKernel, kernel_enabled, set_kernel_enabled
from repro.simhash.hamming import hamming

from ..properties.worldgen import ALL_ENGINES, AUTHOR_FREE_ENGINES, make_world


@pytest.fixture
def scalar_mode():
    """Force scalar engines inside the block, restoring the old mode."""
    previous = set_kernel_enabled(False)
    yield
    set_kernel_enabled(previous)


def _reference_probe(entries, fingerprint, author, *, lambda_c, limit,
                     author_free, graph):
    """The scalar newest-first scan the kernel must reproduce exactly."""
    scan = len(entries) if limit is None or limit > len(entries) else limit
    checked = 0
    for fp, _ts, au in reversed(entries[len(entries) - scan:]):
        checked += 1
        if hamming(fp, fingerprint) <= lambda_c and (
            author_free
            or au == author
            or (graph is not None and graph.are_similar(author, au))
        ):
            return (True, checked)
    return (False, scan)


window_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=600,
)


class TestKernelProbe:
    @settings(max_examples=150, deadline=None)
    @given(
        window_entries,
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=64),
        st.one_of(st.none(), st.integers(min_value=0, max_value=700)),
    )
    def test_author_free_matches_reference(self, entries, fp, lambda_c, limit):
        kernel = CoverageKernel()
        for f, t, a in entries:
            kernel.append(f, t, a)
        assert kernel.probe(fp, 0, lambda_c=lambda_c, limit=limit) == \
            _reference_probe(entries, fp, 0, lambda_c=lambda_c, limit=limit,
                             author_free=True, graph=None)

    @settings(max_examples=100, deadline=None)
    @given(
        window_entries,
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=64),
    )
    def test_same_author_dimension_matches_reference(
        self, entries, fp, author, lambda_c
    ):
        """author_free=False with no graph: only same-author posts cover."""
        kernel = CoverageKernel()
        for f, t, a in entries:
            kernel.append(f, t, a)
        assert kernel.probe(
            fp, author, lambda_c=lambda_c, author_free=False, graph=None
        ) == _reference_probe(
            entries, fp, author, lambda_c=lambda_c, limit=None,
            author_free=False, graph=None,
        )

    def test_probe_spans_block_boundaries(self):
        """A lone hit at the oldest end, > PROBE_BLOCK candidates deep."""
        kernel = CoverageKernel()
        kernel.append(0, 0.0, 1)  # the eventual hit
        for i in range(600):
            kernel.append(2**64 - 1, float(i + 1), 1)
        assert kernel.probe(0, 1, lambda_c=0) == (True, 601)
        assert kernel.probe(0, 1, lambda_c=0, limit=600) == (False, 600)

    def test_drop_oldest_and_compaction_keep_answers_right(self):
        kernel = CoverageKernel(capacity=64)
        for i in range(200):
            kernel.append(i, float(i), 0)
        kernel.drop_oldest(150)
        assert len(kernel) == 50
        # 150..199 remain; fingerprint 150 is now the oldest → position 50.
        assert kernel.probe(150, 0, lambda_c=0) == (True, 50)
        assert kernel.probe(149, 0, lambda_c=0) == (False, 50)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=80),
        st.integers(min_value=0, max_value=40),
        st.floats(min_value=-1.0, max_value=101.0),
    )
    def test_count_older_is_the_deque_expiry_loop(self, timestamps, dropped, cutoff):
        """Leading run of ``timestamp < cutoff`` — sorted input or not."""
        kernel = CoverageKernel()
        for i, ts in enumerate(timestamps):
            kernel.append(i, ts, 0)
        dropped = min(dropped, len(timestamps))
        kernel.drop_oldest(dropped)
        expected = 0
        for ts in timestamps[dropped:]:
            if not ts < cutoff:
                break
            expected += 1
        assert kernel.count_older(cutoff) == expected

    def test_oversized_probe_fingerprint_returns_none(self):
        kernel = CoverageKernel()
        kernel.append(1, 0.0, 0)
        assert kernel.probe(2**64, 0, lambda_c=8) is None
        # The mirrored window is still valid afterwards.
        assert kernel.probe(1, 0, lambda_c=0) == (True, 1)

    def test_oversized_append_raises(self):
        kernel = CoverageKernel()
        with pytest.raises(OverflowError):
            kernel.append(2**64, 0.0, 0)

    def test_graph_sees_the_scalar_call_sequence(self):
        """are_similar must be called for exactly the candidates the
        scalar loop would consult, newest-first."""
        calls = []

        class SpyGraph:
            def are_similar(self, a, b):
                calls.append((a, b))
                return False

        kernel = CoverageKernel()
        for i, au in enumerate([10, 20, 30]):
            kernel.append(7, float(i), au)  # all content-similar
        verdict = kernel.probe(
            7, 99, lambda_c=0, author_free=False, graph=SpyGraph()
        )
        assert verdict == (False, 3)
        assert calls == [(99, 30), (99, 20), (99, 10)]


#: Dense worlds (sub-second gaps, long windows) so windows grow well past
#: ``VECTOR_MIN_SCAN`` and the lazily-activated kernel actually engages;
#: the first entry keeps the default sparse world to cover the
#: never-activates regime too.
GRID = (
    {"lambda_c": 8, "lambda_t": 120.0, "lambda_a": 0.7},
    {"lambda_c": 0, "lambda_t": 600.0, "lambda_a": 1.0, "mean_gap": 0.5},
    {"lambda_c": 8, "lambda_t": 600.0, "lambda_a": 0.7, "mean_gap": 0.5},
    {"lambda_c": 18, "lambda_t": 600.0, "lambda_a": 0.7, "mean_gap": 0.5},
)


def _dense_world(seed, **overrides):
    params = dict(mean_gap=0.5, lambda_t=600.0, lambda_a=1.0, n_posts=300)
    params.update(overrides)
    return make_world(seed, **params)


class TestEngineDifferential:
    """Kernel-on vs kernel-off engines: everything observable is equal."""

    @pytest.mark.parametrize("engine_name", ALL_ENGINES)
    @pytest.mark.parametrize("grid", GRID, ids=lambda g: "c{lambda_c}".format(**g))
    @pytest.mark.parametrize("seed", (7, 31))
    def test_verdicts_stats_and_checkpoints_identical(self, engine_name, grid, seed):
        if grid["lambda_a"] >= 1.0 and engine_name not in AUTHOR_FREE_ENGINES:
            pytest.skip("engine requires the author dimension")
        world = make_world(seed, **grid)
        assert kernel_enabled()
        vectorized = make_diversifier(engine_name, world.thresholds, world.graph)
        previous = set_kernel_enabled(False)
        try:
            scalar = make_diversifier(engine_name, world.thresholds, world.graph)
        finally:
            set_kernel_enabled(previous)
        for post in world.posts:
            assert vectorized.offer(post) == scalar.offer(post), post
        assert vectorized.stats.state_dict() == scalar.stats.state_dict()
        assert vectorized.state_dict() == scalar.state_dict()

    @pytest.mark.parametrize("engine_name", ALL_ENGINES)
    @pytest.mark.parametrize("seed", (13,))
    def test_kernel_actually_activates_on_dense_unibin(self, engine_name, seed):
        """Guard against the differential passing vacuously: on a dense
        world the unibin window crosses VECTOR_MIN_SCAN and the kernel
        must come alive (unibin only — the other engines shard their
        windows or probe through the SimHash index)."""
        world = _dense_world(seed, lambda_a=0.7)
        engine = make_diversifier(engine_name, world.thresholds, world.graph)
        for post in world.posts:
            engine.offer(post)
        if engine_name == "unibin":
            assert engine.kernel_active

    @pytest.mark.parametrize("seed", (7,))
    def test_probe_limit_identical(self, seed):
        world = _dense_world(seed, lambda_c=18)
        vectorized = make_diversifier("unibin", world.thresholds, None)
        previous = set_kernel_enabled(False)
        try:
            scalar = make_diversifier("unibin", world.thresholds, None)
        finally:
            set_kernel_enabled(previous)
        # Large enough to clear VECTOR_MIN_SCAN (so the kernel path runs
        # with truncation), small enough that dense windows exceed it.
        for engine in (vectorized, scalar):
            engine.set_probe_limit(100)
        assert 64 <= 100 < len(world.posts)
        for post in world.posts:
            assert vectorized.offer(post) == scalar.offer(post), post
        assert vectorized.stats.state_dict() == scalar.stats.state_dict()

    @pytest.mark.parametrize("engine_name", ("unibin", "neighborbin", "cliquebin"))
    @pytest.mark.parametrize("grid", GRID, ids=lambda g: "c{lambda_c}".format(**g))
    @pytest.mark.parametrize("limit", (None, 3, 40))
    def test_spilled_tier_columns_identical(self, tmp_path, engine_name, grid, limit):
        """The other owner of a kernel: a tiered bin probes the columns of
        what it spilled (here nearly everything) instead of reading it."""
        from repro.storage import SpillConfig

        if grid["lambda_a"] >= 1.0 and engine_name not in AUTHOR_FREE_ENGINES:
            pytest.skip("engine requires the author dimension")
        world = make_world(31, **grid)
        storage = SpillConfig(str(tmp_path), head_limit=4, segment_size=4)
        tiered = make_diversifier(
            engine_name, world.thresholds, world.graph, storage=storage
        )
        previous = set_kernel_enabled(False)
        try:
            scalar = make_diversifier(engine_name, world.thresholds, world.graph)
        finally:
            set_kernel_enabled(previous)
        for engine in (tiered, scalar):
            engine.set_probe_limit(limit)
        for post in world.posts:
            assert tiered.offer(post) == scalar.offer(post), post
        assert tiered.stats.state_dict() == scalar.stats.state_dict()
        assert tiered.state_dict() == scalar.state_dict()

    def test_kernel_survives_checkpoint_restore(self):
        world = _dense_world(11, lambda_a=0.7)
        engine = make_diversifier("unibin", world.thresholds, world.graph)
        half = len(world.posts) // 2
        for post in world.posts[:half]:
            engine.offer(post)
        assert engine.kernel_active
        restored = make_diversifier("unibin", world.thresholds, world.graph)
        restored.load_state(engine.state_dict())
        # Activation is lazy: the restored engine re-arms and comes back
        # alive on its first long-enough scan.
        for post in world.posts[half:]:
            assert restored.offer(post) == engine.offer(post), post
        assert restored.kernel_active
        assert restored.state_dict() == engine.state_dict()

    def test_scalar_mode_never_activates(self, scalar_mode):
        world = _dense_world(3)
        engine = make_diversifier("unibin", world.thresholds, None)
        for post in world.posts:
            engine.offer(post)
        assert not engine.kernel_active

    def test_huge_fingerprint_post_falls_back_scalar(self):
        """A post whose fingerprint exceeds uint64 disables an *active*
        kernel mid-stream without changing any verdict."""
        th = Thresholds(lambda_c=0, lambda_t=1e6, lambda_a=1.0)
        vectorized = make_diversifier("unibin", th, None)
        previous = set_kernel_enabled(False)
        try:
            scalar = make_diversifier("unibin", th, None)
        finally:
            set_kernel_enabled(previous)
        # 70 distinct-fingerprint posts: all admitted (λc = 0), window
        # grows past VECTOR_MIN_SCAN and the lazy kernel comes alive.
        stream = [
            Post(post_id=i, author=1, text="", timestamp=float(i), fingerprint=i)
            for i in range(70)
        ]
        stream += [
            Post(post_id=100, author=1, text="", timestamp=70.0,
                 fingerprint=2**70),
            Post(post_id=101, author=1, text="", timestamp=71.0,
                 fingerprint=2**70 + 1),
            # An exact duplicate of an admitted post: still covered after
            # the fallback.
            Post(post_id=102, author=1, text="", timestamp=72.0,
                 fingerprint=4),
        ]
        assert not vectorized.kernel_active  # lazy: nothing offered yet
        for post in stream[:70]:
            assert vectorized.offer(post) == scalar.offer(post), post
        assert vectorized.kernel_active
        for post in stream[70:]:
            assert vectorized.offer(post) == scalar.offer(post), post
        assert not vectorized.kernel_active
        assert vectorized.stats.state_dict() == scalar.stats.state_dict()
        assert vectorized.state_dict() == scalar.state_dict()

    def test_memory_breakdown_reports_kernel_bytes(self):
        world = _dense_world(5)
        engine = make_diversifier("unibin", world.thresholds, world.graph)
        for post in world.posts:
            engine.offer(post)
        assert engine.kernel_active
        breakdown = engine.memory_breakdown()
        assert breakdown.get("kernel", 0) > 0
