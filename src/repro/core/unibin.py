"""UniBin (paper §4.1): a single global post bin.

Every admitted post lives in one time-windowed bin. An arriving post is
compared, newest first, against every admitted post in the window, checking
the full three-dimensional coverage predicate per candidate. Minimal memory
(one copy per admitted post, the §4.4 ``r·n``), maximal comparisons
(``r·n`` per arrival).

The newest-first scan has two implementations with identical semantics,
both behind :meth:`StreamDiversifier._covered_in`: the scalar loop, and the
batched popcount kernel of :class:`repro.simhash.CoverageKernel`, which
mirrors the bin in columnar numpy arrays. Dispatch is hybrid and lazy: a vectorized sweep carries
~10µs of fixed numpy overhead, so scans shorter than
``VECTOR_MIN_SCAN`` always take the scalar loop, and the kernel is only
*built* (an O(window) rebuild from the bin) the first time a scan is
long enough to vectorize — engines whose windows never grow past the
threshold pay zero kernel maintenance. This engine-side kernel is only
eligible on a plain in-memory bin in newest-first order (a tiered bin
keeps its own mirror of what it spilled), and it is bit-exact — same verdicts, same ``comparisons`` accounting, same
probe-limit truncation — so checkpoints and receiver sets do not depend
on which path ran; the differential suite asserts as much.
"""

from __future__ import annotations

from ..authors import AuthorGraph
from ..simhash import coverage as _coverage
from ..simhash.coverage import CoverageKernel
from .base import StreamDiversifier
from .post import Post
from .thresholds import Thresholds

#: Exceptions that mean a post's fields cannot be mirrored into the
#: kernel's fixed-width columns (fingerprint outside uint64, author
#: outside int64, non-numeric timestamp). The engine then abandons the
#: kernel and the scalar path takes over — verdicts are unaffected.
_KERNEL_ENCODE_ERRORS = (OverflowError, ValueError, TypeError)


class UniBin(StreamDiversifier):
    """The single-bin SPSD algorithm."""

    name = "unibin"

    def __init__(
        self,
        thresholds: Thresholds,
        graph: AuthorGraph | None,
        *,
        newest_first: bool = True,
        storage=None,
    ):
        super().__init__(thresholds, graph, newest_first=newest_first, storage=storage)
        self._bin = self._new_bin()
        self._kernel: CoverageKernel | None = None
        self._kernel_eligible = self._kernel_supported()

    # -- vectorized-kernel bookkeeping ------------------------------------

    def _kernel_supported(self) -> bool:
        """Whether this configuration may build a columnar mirror.

        The kernel shadows a plain in-memory deque scanned newest-first;
        tiered storage (posts may live on disk) and the oldest-first
        ablation keep the scalar path.
        """
        if self._storage is not None or not self.newest_first:
            return False
        return _coverage.kernel_enabled()

    @property
    def kernel_active(self) -> bool:
        """True while probes run on the vectorized kernel (introspection
        for tests and the memory gauges). Activation is lazy: False until
        the window first grows past ``VECTOR_MIN_SCAN``."""
        return self._kernel is not None

    def _expire_window(self, now: float) -> int:
        """Expire the bin at ``now`` and keep the kernel in lockstep."""
        dropped = self._bin.expire(now, self.thresholds.lambda_t)
        if dropped and self._kernel is not None:
            self._kernel.drop_oldest(dropped)
        return dropped

    def _activate_kernel(self) -> CoverageKernel | None:
        """Materialise the columnar mirror from the live bin (first scan
        long enough to vectorize). An unencodable resident post disables
        the kernel permanently — rebuilding per probe would turn one bad
        post into an O(window) tax on every offer."""
        kernel = CoverageKernel(capacity=2 * len(self._bin))
        try:
            for post in self._bin:
                kernel.append(post.fingerprint, post.timestamp, post.author)
        except _KERNEL_ENCODE_ERRORS:
            self._kernel_eligible = False
            return None
        self._kernel = kernel
        return kernel

    def _rebuild_kernel(self) -> None:
        """Checkpoint restore: drop any mirror and re-arm lazy activation
        (``load_state`` restores ``newest_first`` before calling here)."""
        self._kernel = None
        self._kernel_eligible = self._kernel_supported()

    # -- the greedy decision ----------------------------------------------

    def _is_covered(self, post: Post) -> bool:
        stats = self.stats
        # Expired posts sit at the left end of the deque; dropping them now
        # keeps the stored-copy accounting tight (they could never match)
        # and leaves only in-window posts, so the scan below needs no
        # per-candidate cutoff check. This is the single expiry of the
        # offer: _admit relies on it instead of expiring again.
        stats.record_evictions(self._expire_window(post.timestamp))
        limit = self._probe_limit
        # Hybrid dispatch: one vectorized sweep carries ~10µs of fixed
        # numpy overhead, so short scans (small windows, or a tight probe
        # limit) stay on the scalar loop — it wins outright there. The
        # mirror itself is built lazily on the first long-enough scan, so
        # engines with persistently small windows never maintain one.
        kernel = None
        n = len(self._bin)
        scan = n if limit is None or limit > n else limit
        if scan >= _coverage.VECTOR_MIN_SCAN:
            kernel = self._kernel
            if kernel is None and self._kernel_eligible:
                kernel = self._activate_kernel()
        return self._covered_in(self._bin, post, author_known=False, mirror=kernel)

    def _admit(self, post: Post) -> None:
        # _is_covered already expired the bin at this exact timestamp, so
        # the deque holds only in-window posts; appending keeps it ordered.
        self._bin.append(post)
        kernel = self._kernel
        if kernel is not None:
            try:
                kernel.append(post.fingerprint, post.timestamp, post.author)
            except _KERNEL_ENCODE_ERRORS:
                self._kernel = None
                self._kernel_eligible = False
        self.stats.record_insertions(1)

    def purge(self, now: float | None = None) -> None:
        self.stats.record_evictions(self._expire_window(self._now(now)))

    def stored_copies(self) -> int:
        return len(self._bin)

    def admitted_posts(self) -> list[Post]:
        return sorted(self._bin, key=lambda p: (p.timestamp, p.post_id))

    def spill(self) -> int:
        return self._flush_bin(self._bin)

    def memory_breakdown(self) -> dict[str, int]:
        from ..storage.accounting import estimate_bin_bytes

        breakdown = {"window": estimate_bin_bytes(self._bin)}
        if self._kernel is not None:
            breakdown["kernel"] = self._kernel.nbytes()
        return breakdown

    def _index_state(self) -> dict[str, object]:
        return {"bin": list(self._bin)}

    def _load_index_state(self, state: dict[str, object]) -> None:
        self._bin = self._new_bin()
        for post in state["bin"]:  # type: ignore[union-attr]
            self._bin.append(post)
        # ``load_state`` restores ``newest_first`` before calling here, so
        # the rebuild sees the checkpointed scan order.
        self._rebuild_kernel()
