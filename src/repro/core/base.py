"""Common interface of the SPSD streaming algorithms (paper §4).

Every algorithm makes the same greedy decision — admit a post iff no
already-admitted post inside the λt window covers it — and differs only in
the index used to find candidate coverers. The base class owns the pieces
they share: the coverage checker, run statistics, timestamp-order
enforcement and the eviction bookkeeping hooks.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Iterable
from itertools import islice

from ..authors import AuthorGraph
from ..errors import CheckpointError, StreamOrderError
from .bins import PostBin
from .coverage import CoverageChecker
from .post import Post
from .stats import RunStats
from .thresholds import Thresholds


class StreamDiversifier(ABC):
    """Online SPSD solver: feed posts in timestamp order via :meth:`offer`.

    Subclasses implement :meth:`_is_covered` (scan their index for a
    covering admitted post) and :meth:`_admit` (insert the new post into
    their index), plus :meth:`purge`/:meth:`stored_copies` bookkeeping.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(
        self,
        thresholds: Thresholds,
        graph: AuthorGraph | None,
        *,
        newest_first: bool = True,
        storage=None,
    ):
        self.thresholds = thresholds
        self.checker = CoverageChecker(thresholds, graph)
        self.stats = RunStats()
        self.newest_first = newest_first
        self._last_timestamp = float("-inf")
        self._metrics = None
        self._tracer = None
        #: Optional :class:`repro.storage.SpillConfig`: when set, bins are
        #: tiered (in-memory head + disk spill segments) instead of plain
        #: in-memory deques. Verdict-neutral by construction.
        self._storage = storage
        #: Governor-imposed cap on candidates checked per bin scan (None =
        #: exact). See :meth:`set_probe_limit`.
        self._probe_limit: int | None = None

    @property
    def graph(self) -> AuthorGraph | None:
        return self.checker.graph

    def offer(self, post: Post) -> bool:
        """Process one arriving post; return True iff it enters Z.

        Posts must arrive in non-decreasing timestamp order (the streaming
        model: an instant decision at arrival).
        """
        if post.timestamp < self._last_timestamp:
            raise StreamOrderError(
                f"post {post.post_id} at t={post.timestamp} arrived after "
                f"t={self._last_timestamp}"
            )
        self._last_timestamp = post.timestamp
        self.stats.posts_processed += 1
        if self._metrics is not None or self._tracer is not None:
            return self._offer_observed(post)
        if self._is_covered(post):
            return False
        self._admit(post)
        self.stats.posts_admitted += 1
        return True

    def _offer_observed(self, post: Post) -> bool:
        """The decision with timing and scan-width accounting around it.

        Counters (comparisons, insertions, evictions) are *not* recorded
        here — they re-export :class:`RunStats` via collection-time
        callbacks, so they stay exact even across :meth:`purge` calls
        that happen outside any offer.
        """
        stats = self.stats
        comparisons_before = stats.comparisons
        start = time.perf_counter()
        if self._is_covered(post):
            admitted = False
        else:
            self._admit(post)
            stats.posts_admitted += 1
            admitted = True
        elapsed = time.perf_counter() - start
        comparisons = stats.comparisons - comparisons_before
        if self._metrics is not None:
            self._metrics.observe(elapsed, comparisons)
        if self._tracer is not None:
            self._tracer.record(
                engine=self.name,
                post=post,
                admitted=admitted,
                latency_s=elapsed,
                comparisons=comparisons,
            )
        return admitted

    def bind_metrics(self, registry, *, tracer=None) -> None:
        """Attach observability to this engine.

        ``registry`` is a :class:`repro.obs.Registry` (or ``None`` / a
        no-op registry, which disables metrics); ``tracer`` an optional
        :class:`repro.obs.OfferTracer` for per-post spans. Unbound — the
        default — the offer path is exactly the uninstrumented code.
        Rebinding replaces the previous binding; bind *after*
        checkpoint restore so gauges read the restored state.
        """
        if registry is not None and not getattr(registry, "is_noop", False):
            from ..obs.instruments import EngineInstruments

            self._metrics = EngineInstruments(registry, self)
        else:
            self._metrics = None
        self._tracer = tracer

    def bin_count(self) -> int:
        """Live bin count of the index structure (gauge source); engines
        with a richer structure override."""
        return 1

    # -- bounded-memory hooks (repro.storage / repro.resilience.governor) --

    def _new_bin(self):
        """A fresh window bin honouring this engine's ``storage`` config:
        a plain in-memory :class:`PostBin`, or a tiered spill-to-disk bin
        when a :class:`repro.storage.SpillConfig` was supplied."""
        storage = self._storage
        return PostBin() if storage is None else storage.make_bin()

    def _covered_in(
        self, bin_, post: Post, *, author_known: bool, mirror=None
    ) -> bool:
        """The coverage scan of one bin, already expired at
        ``post.timestamp``: True iff a stored post covers ``post``.

        ``author_known`` is for bins whose membership implies author
        similarity (NeighborBin, CliqueBin). ``mirror`` is a caller-kept
        :class:`~repro.simhash.CoverageKernel` over the *whole* bin
        (UniBin's), probed in place of the bin's own tiers.

        Accounting is the scalar loop's wherever the hit falls: a hit at
        scan position ``p`` adds ``p`` comparisons, a miss adds the
        candidates checked, and the governor's probe limit stops the scan
        after exactly ``limit`` candidates — counted across the head/cold
        boundary of a tiered bin. A truncated scan can only miss a
        coverer, i.e. admit extra.
        """
        checker = self.checker
        covers = checker.covers_known_author_similar if author_known else checker.covers
        stats = self.stats
        limit = self._probe_limit
        if self.newest_first:
            head, cold = ((), mirror) if mirror is not None else bin_.scan_tiers()
            candidates = reversed(head)
        else:
            # The ablation order has no columnar path: it walks whole posts.
            cold = None
            candidates = bin_.scan(
                post.timestamp, self.thresholds.lambda_t, newest_first=False
            )
        if limit is not None:
            candidates = islice(candidates, limit)
        checked = 0
        for checked, candidate in enumerate(candidates, 1):
            if covers(post, candidate):
                stats.comparisons += checked
                return True
        if cold is not None and checked != limit:
            verdict = cold.probe(
                post.fingerprint,
                post.author,
                lambda_c=self.thresholds.lambda_c,
                limit=None if limit is None else limit - checked,
                author_free=author_known or checker._author_free,
                graph=checker.graph,
            )
            if verdict is not None:
                covered, cold_checked = verdict
                stats.comparisons += checked + cold_checked
                return covered
            # The probing fingerprint does not fit the columns (which stay
            # valid): this one post walks the mirrored posts themselves.
            older = islice(reversed(bin_.data), checked, limit)
            for checked, candidate in enumerate(older, checked + 1):
                if covers(post, candidate):
                    stats.comparisons += checked
                    return True
        stats.comparisons += checked
        return False

    @staticmethod
    def _flush_bin(bin_) -> int:
        flush = getattr(bin_, "flush", None)
        return flush() if flush is not None else 0

    def set_probe_limit(self, limit: int | None) -> None:
        """Cap (or uncap, with ``None``) the candidates checked per bin
        scan — the governor's "shrink probe fan-out" ladder rung.

        A capped scan may miss an older covering post and therefore *admit*
        a post an exact run would have filtered: the sacrifice is duplicate
        leakage, never lost posts. ``None`` restores exact behaviour.
        """
        if limit is not None and limit < 1:
            from ..errors import ConfigurationError

            raise ConfigurationError(f"probe limit must be >= 1, got {limit}")
        self._probe_limit = limit

    @property
    def probe_limit(self) -> int | None:
        """The active per-scan candidate cap (None = exact scans)."""
        return self._probe_limit

    def spill(self) -> int:
        """Force the cold tier: flush every tiered bin's in-memory head to
        disk, returning how many posts moved (0 without tiered storage).
        Verdict-neutral — only residency changes."""
        return 0

    def memory_breakdown(self) -> dict[str, int]:
        """Accounted bytes by family (``window``, ``index``, ...) for the
        memory governor's gauges; see :mod:`repro.storage.accounting`."""
        return {}

    def memory_bytes(self) -> int:
        """Total accounted in-memory bytes of this engine's index state."""
        return sum(self.memory_breakdown().values())

    def offer_batch(self, posts) -> list[bool]:
        """Offer a timestamp-ordered chunk of posts; one verdict per post.

        Semantically identical to ``[self.offer(p) for p in posts]`` — the
        greedy decision is per post either way — but resolves the offer
        method once per chunk instead of once per post, and gives callers
        (the parallel execution layer, the CLI batch path) a single entry
        point that amortizes per-call overhead.
        """
        offer = self.offer
        return [offer(post) for post in posts]

    def diversify(self, posts) -> list[Post]:
        """Convenience wrapper: run the whole iterable, return Z as a list."""
        return [post for post in posts if self.offer(post)]

    @abstractmethod
    def _is_covered(self, post: Post) -> bool:
        """True iff some admitted post within λt covers ``post``."""

    @abstractmethod
    def _admit(self, post: Post) -> None:
        """Insert ``post`` into the algorithm's bin structure."""

    @abstractmethod
    def purge(self, now: float | None = None) -> None:
        """Evict every stored copy outside the λt window ending at ``now``
        (default: the latest seen timestamp). Scans already skip expired
        posts; purging exists to reclaim memory and make
        :meth:`stored_copies` exact."""

    @abstractmethod
    def stored_copies(self) -> int:
        """Post copies currently held across all bins (RAM proxy)."""

    def _now(self, now: float | None) -> float:
        return self._last_timestamp if now is None else now

    # -- dynamic topology hooks (repro.dynamic) ----------------------------
    #
    # These are cold-path operations: they run once per graph version, not
    # per post, so clarity beats speed. The correctness contract is that
    # after the engine's graph object has been mutated and the matching
    # hook has run, future offers decide exactly as a fresh engine built on
    # the new graph and re-seeded with :meth:`admitted_posts` would.

    def admitted_posts(self) -> list[Post]:
        """Distinct admitted posts currently stored (the live window
        contents), in (timestamp, post_id) order. The logical state the
        migration layer carries across a topology change."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support dynamic migration"
        )

    def apply_graph_delta(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
    ) -> None:
        """Re-index after this engine's author graph was mutated in place.

        The default is a no-op: UniBin and IndexedUniBin consult the graph
        live through :class:`CoverageChecker`, so mutating the graph object
        is already sufficient. Engines whose bins *materialise* adjacency
        (NeighborBin) override this; CliqueBin instead takes a repaired
        cover via :meth:`~repro.core.cliquebin.CliqueBin.apply_cover_update`.
        """

    def seed_admitted(self, posts, *, last_timestamp: float | None = None) -> None:
        """Re-admit carried posts into a freshly-built engine.

        ``posts`` must be in (timestamp, post_id) order. They bypass the
        coverage check — they were admitted historically and the
        state-preserving rebuild semantics keeps them admitted — and are
        inserted with the run counters parked on a scratch object, so
        seeding never perturbs the engine's externally-visible stats.
        ``last_timestamp`` restores the stream-order cursor (the carried
        window can trail the last processed post).
        """
        scratch = RunStats()
        original = self.stats
        self.stats = scratch
        try:
            for post in posts:
                self._admit(post)
        finally:
            self.stats = original
        if last_timestamp is not None:
            self._last_timestamp = max(self._last_timestamp, last_timestamp)

    @property
    def last_timestamp(self) -> float:
        """Timestamp of the most recent offered post (-inf before any)."""
        return self._last_timestamp

    # -- checkpointing -----------------------------------------------------
    #
    # ``state_dict``/``load_state`` capture everything the greedy decision
    # depends on: the admitted posts still inside the window, the order
    # cursor and the counters. Restoring into a freshly-constructed engine
    # (same thresholds, same graph) and replaying the remaining stream
    # yields the identical retained set as an uninterrupted run.

    def state_dict(self) -> dict[str, object]:
        """Engine state as plain Python objects (posts stay :class:`Post`;
        JSON encoding lives in :mod:`repro.resilience.checkpoint`)."""
        return {
            "algorithm": self.name,
            "newest_first": self.newest_first,
            "last_timestamp": self._last_timestamp,
            "stats": self.stats.state_dict(),
            "index": self._index_state(),
        }

    def load_state(self, state: dict[str, object]) -> None:
        """Restore state saved by :meth:`state_dict` into this engine.

        The engine must have been constructed with the same thresholds and
        author graph as the checkpointed one; only the mutable run state is
        loaded here.
        """
        if state.get("algorithm") != self.name:
            raise CheckpointError(
                f"checkpoint is for algorithm {state.get('algorithm')!r}, "
                f"cannot load into {self.name!r}"
            )
        self.newest_first = bool(state["newest_first"])
        self._last_timestamp = float(state["last_timestamp"])  # type: ignore[arg-type]
        self.stats.load_state(state["stats"])  # type: ignore[arg-type]
        self._load_index_state(state["index"])  # type: ignore[arg-type]

    @abstractmethod
    def _index_state(self) -> dict[str, object]:
        """The subclass's bin/index contents, as plain Python objects."""

    @abstractmethod
    def _load_index_state(self, state: dict[str, object]) -> None:
        """Rebuild the bin/index contents from :meth:`_index_state` output,
        without touching the run counters (they are restored separately)."""
