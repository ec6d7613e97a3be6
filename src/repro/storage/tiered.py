"""Tiered window store: in-memory head + append-only spill segments.

The paper's engines keep the whole λt window of every bin in process
memory, which makes subscriber count a function of RAM. This module bounds
that: a :class:`TieredPostBin` keeps only the *recent head* of a bin in
memory (a deque, exactly like :class:`~repro.core.bins.PostBin`) and spills
the cold prefix to append-only pickle segments on disk.

Why segments make compaction free: posts arrive in non-decreasing timestamp
order and are always spilled oldest-first, so segment ``i`` ends no later
than segment ``i+1`` begins, which ends no later than the head begins.
Expiry therefore only ever removes a *prefix* of the store — whole old
segments are dropped by unlinking the file, at most one boundary segment is
trimmed by advancing a start cursor, and nothing is ever rewritten.

The bin is a drop-in replacement for :class:`PostBin`: same methods, same
*exact* eviction/len accounting, and iteration yields equal posts in the
same order (segments are pickled, and ``Post`` is a frozen value type), so
coverage verdicts — and hence receiver sets and checkpoints — are
byte-identical to the all-in-memory store.

What stays resident of a spilled post is exactly what the coverage
predicate reads: its fingerprint, timestamp and author, as three 8-byte
cells of a :class:`~repro.simhash.coverage.CoverageKernel` (the *mirror*,
fed on spill, advanced on expiry). A newest-first coverage scan is a
scalar loop over the head plus one vectorized probe of those columns, and
expiry reads the timestamp column — neither opens a segment file. Files
are read only by the paths that need whole posts: iteration (checkpoints,
snapshots, ``admitted_posts``), ``merge``, ``remove_authored`` and the
oldest-first ablation scan.

A post the columns cannot hold exactly (the ``type(...) is`` guards of
:func:`repro.parallel.shm._row_encodable`: fingerprint outside
``[0, 2**64)``, author outside int64, a non-``float`` timestamp) makes the
bin drop its mirror when that post spills. Scans and expiry then read the
segment files (a one-segment decode cache softens it) until the cold tier
next empties, which starts a fresh mirror.
"""

from __future__ import annotations

import os
import pickle
import weakref
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, count

from ..core.post import Post
from ..errors import ConfigurationError
from ..simhash.coverage import CoverageKernel
from .accounting import (
    DEQUE_SLOT_BYTES,
    POST_BASE_BYTES,
    SPILLED_ENTRY_BYTES,
)

_I64_MIN, _I64_MAX, _U64_MAX = -(2**63), 2**63 - 1, 2**64 - 1

#: Process-wide segment file counter; combined with the pid it keeps file
#: names unique even when many bins (or sharded worker processes) share one
#: spill directory.
_SEGMENT_IDS = count()


@dataclass(frozen=True)
class SpillConfig:
    """Where and when a :class:`TieredPostBin` spills.

    Picklable by design: the parallel layer ships it to shard workers inside
    :class:`~repro.parallel.worker.ShardSpec`, and every process derives
    unique segment file names from its own pid.

    Attributes:
        directory: spill directory (created on first use; shared freely
            between bins and processes).
        head_limit: max posts kept in a bin's in-memory head before the
            oldest ``segment_size`` of them are spilled.
        segment_size: posts per spill segment — the granularity of free
            compaction (expiry drops whole segments).
    """

    directory: str
    head_limit: int = 512
    segment_size: int = 256

    def __post_init__(self) -> None:
        # Fail fast on unset paths: an optional directory passed through
        # ``str(...)`` unchecked turns into the literal "None", which
        # ``os.makedirs`` then happily creates at the caller's cwd.
        if not isinstance(self.directory, str) or not self.directory:
            raise ConfigurationError(
                "SpillConfig.directory must be a non-empty path string, "
                f"got {self.directory!r}"
            )
        if self.directory == "None":
            raise ConfigurationError(
                "SpillConfig.directory is the literal string 'None' — an "
                "unset optional directory was stringified; pass a real "
                "path (or no SpillConfig at all)"
            )
        if self.segment_size < 1:
            raise ConfigurationError(
                f"segment_size must be >= 1, got {self.segment_size}"
            )
        if self.head_limit < self.segment_size:
            raise ConfigurationError(
                f"head_limit ({self.head_limit}) must be >= "
                f"segment_size ({self.segment_size}) so a spill always "
                f"fills a whole segment"
            )

    def make_bin(self) -> "TieredPostBin":
        """Build a tiered bin spilling under this config."""
        return TieredPostBin(self)


class _Segment:
    """One on-disk run of ``count`` posts.

    ``start`` is the cursor of the expired prefix: posts before it are
    logically gone (they were counted as evictions) but stay in the file
    until the whole segment expires and the file is unlinked.
    """

    __slots__ = ("path", "count", "start")

    def __init__(self, path: str, count: int):
        self.path = path
        self.count = count
        self.start = 0

    @property
    def live(self) -> int:
        return self.count - self.start


def _cleanup_paths(paths: set[str]) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass


class _TieredView:
    """Read-only arrival-ordered view over a tiered bin.

    Duck-types the slice of the deque API the engines' hot loops use on
    ``PostBin.data``: ``reversed()`` for the newest-first coverage scan,
    plain iteration for the oldest-first ablation, ``len()`` for gauges.
    """

    __slots__ = ("_bin",)

    def __init__(self, bin_: "TieredPostBin"):
        self._bin = bin_

    def __len__(self) -> int:
        return len(self._bin)

    def __iter__(self) -> Iterator[Post]:
        return self._bin._iter_oldest_first()

    def __reversed__(self) -> Iterator[Post]:
        return self._bin._iter_newest_first()


def _mirrorable(post: Post) -> bool:
    # ``type(...) is`` on purpose, as in ``repro.parallel.shm._row_encodable``:
    # numpy would quietly store a bool author or an int timestamp, and the
    # column would no longer compare like the post it stands for.
    return (
        type(post.fingerprint) is int
        and 0 <= post.fingerprint <= _U64_MAX
        and type(post.timestamp) is float
        and type(post.author) is int
        and _I64_MIN <= post.author <= _I64_MAX
    )


class TieredPostBin:
    """A :class:`~repro.core.bins.PostBin` with a bounded in-memory head.

    Construct via :meth:`SpillConfig.make_bin`. The engines accept either
    bin flavour through their ``storage=`` keyword; all mutation and
    accounting semantics (append / scan / expire / clear / merge /
    remove_authored return values) match ``PostBin`` exactly.
    """

    __slots__ = (
        "_config",
        "_head",
        "_segments",
        "_cold_len",
        "_mirror",
        "_cache_path",
        "_cache_posts",
        "_dir_ready",
        "_paths",
        "_finalizer",
        "__weakref__",
    )

    def __init__(self, config: SpillConfig):
        self._config = config
        self._head: deque[Post] = deque()
        self._segments: list[_Segment] = []
        self._cold_len = 0
        # Columns of the live spilled entries, oldest first, one row per
        # entry. None with an empty cold tier: nothing spilled yet. None
        # with a non-empty one: an unmirrorable post spilled, and the bin
        # reads segment files until the cold tier drains.
        self._mirror: CoverageKernel | None = None
        self._cache_path: str | None = None
        self._cache_posts: list[Post] | None = None
        self._dir_ready = False
        # Shared with the finalizer so segment files never outlive the bin,
        # even when it is garbage-collected without an explicit dispose().
        self._paths: set[str] = set()
        self._finalizer = weakref.finalize(self, _cleanup_paths, self._paths)

    # -- PostBin API -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._head) + self._cold_len

    def __iter__(self) -> Iterator[Post]:
        return self._iter_oldest_first()

    @property
    def data(self) -> _TieredView:
        """Arrival-ordered read view (see :attr:`PostBin.data`)."""
        return _TieredView(self)

    def scan_tiers(self) -> tuple[deque[Post] | _TieredView, CoverageKernel | None]:
        """The head to walk and the spilled columns to probe after it
        (see :meth:`PostBin.scan_tiers`). Without a mirror the "head" is
        the whole bin, segment files included."""
        if self._mirror is None and self._cold_len:
            return self.data, None
        return self._head, self._mirror

    def append(self, post: Post) -> None:
        """Store ``post`` as the newest entry, spilling the cold prefix of
        the head once it outgrows ``head_limit``."""
        self._head.append(post)
        if len(self._head) > self._config.head_limit:
            self._spill(self._config.segment_size)

    def scan(self, now: float, lambda_t: float, *, newest_first: bool = True) -> Iterator[Post]:
        """Yield candidates inside ``[now - lambda_t, now]`` — same
        semantics and order as :meth:`PostBin.scan`."""
        cutoff = now - lambda_t
        if newest_first:
            for post in self._iter_newest_first():
                if post.timestamp < cutoff:
                    return
                yield post
        else:
            for post in self._iter_oldest_first():
                if post.timestamp >= cutoff:
                    yield post

    def expire(self, now: float, lambda_t: float) -> int:
        """Drop posts older than ``now - lambda_t``; return the exact count.

        Whole-segment expiry is the free compaction: the file is unlinked,
        nothing is copied. Because the store is globally timestamp-ordered,
        at most the *oldest surviving* segment can be partially expired —
        it is trimmed by advancing its start cursor.
        """
        cutoff = now - lambda_t
        dropped = 0
        if self._cold_len:
            mirror = self._mirror
            if mirror is not None:
                dropped = mirror.count_older(cutoff)
            else:
                dropped = self._count_older_on_disk(cutoff)
            if dropped:
                self._drop_cold(dropped)
            if self._cold_len:
                return dropped
        head = self._head
        while head and head[0].timestamp < cutoff:
            head.popleft()
            dropped += 1
        return dropped

    def clear(self) -> int:
        """Remove everything (and its segment files); return the count."""
        dropped = len(self)
        self._drop_cold(self._cold_len)
        self._head.clear()
        return dropped

    def merge(self, posts: Iterable[Post]) -> int:
        """Merge ``posts`` keeping (timestamp, post_id) order; return how
        many were inserted. Cold path: rewrites the spilled tier."""
        incoming = list(posts)
        if not incoming:
            return 0
        merged = sorted(
            chain(self._iter_oldest_first(), incoming),
            key=lambda p: (p.timestamp, p.post_id),
        )
        self._rewrite(merged)
        return len(incoming)

    def remove_authored(self, author: int) -> int:
        """Drop every post authored by ``author``; return how many."""
        posts = list(self._iter_oldest_first())
        kept = [post for post in posts if post.author != author]
        dropped = len(posts) - len(kept)
        if dropped:
            self._rewrite(kept)
        return dropped

    # -- tiering -----------------------------------------------------------

    def flush(self) -> int:
        """Force-spill the entire in-memory head to disk; return how many
        posts moved. The governor's first ladder rung: turn warm window
        state cold to free RAM without changing any verdict."""
        moved = len(self._head)
        if moved:
            self._spill(moved)
        return moved

    @property
    def head_len(self) -> int:
        """Posts currently resident in the in-memory head."""
        return len(self._head)

    @property
    def spilled_len(self) -> int:
        """Live posts currently resident in spill segments."""
        return self._cold_len

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def approx_bytes(self) -> int:
        """Accounted in-memory bytes: full posts for the head, three
        column cells for each spilled entry (its payload lives on disk)."""
        total = sum(
            POST_BASE_BYTES + len(p.text) + DEQUE_SLOT_BYTES for p in self._head
        )
        return total + self._cold_len * SPILLED_ENTRY_BYTES

    def dispose(self) -> None:
        """Drop all state and unlink segment files now (idempotent)."""
        self.clear()
        self._cache_path = None
        self._cache_posts = None

    # -- internals ---------------------------------------------------------

    def _spill(self, n: int) -> None:
        head = self._head
        chunk = [head.popleft() for _ in range(min(n, len(head)))]
        if not chunk:
            return
        if not self._dir_ready:
            os.makedirs(self._config.directory, exist_ok=True)
            self._dir_ready = True
        name = f"seg-{os.getpid()}-{next(_SEGMENT_IDS):010d}.bin"
        path = os.path.join(self._config.directory, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(chunk, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        self._paths.add(path)
        self._segments.append(_Segment(path, len(chunk)))
        mirror = self._mirror
        if mirror is None and not self._cold_len:
            mirror = self._mirror = CoverageKernel()
        self._cold_len += len(chunk)
        if mirror is not None:
            for post in chunk:
                if not _mirrorable(post):
                    self._mirror = None
                    break
                mirror.append(post.fingerprint, post.timestamp, post.author)

    def _drop_cold(self, n: int) -> None:
        """Forget the ``n`` oldest spilled entries, unlinking the segment
        files they empty; ``n == _cold_len`` empties the tier."""
        self._cold_len -= n
        if not self._cold_len:
            self._mirror = None
        elif self._mirror is not None:
            self._mirror.drop_oldest(n)
        segments = self._segments
        while n:
            seg = segments[0]
            if n < seg.live:
                seg.start += n
                return
            n -= seg.live
            self._discard(segments.pop(0))

    def _count_older_on_disk(self, cutoff: float) -> int:
        """Mirror-less :meth:`CoverageKernel.count_older`: the leading run
        of spilled posts older than ``cutoff``, read from the files."""
        older = 0
        for seg in self._segments:
            posts = self._read(seg)
            i = seg.start
            while i < seg.count and posts[i].timestamp < cutoff:
                i += 1
            older += i - seg.start
            if i < seg.count:
                break
        return older

    def _discard(self, seg: _Segment) -> None:
        self._paths.discard(seg.path)
        if self._cache_path == seg.path:
            self._cache_path = None
            self._cache_posts = None
        try:
            os.unlink(seg.path)
        except OSError:
            pass

    def _read(self, seg: _Segment) -> list[Post]:
        if self._cache_path != seg.path:
            with open(seg.path, "rb") as fh:
                self._cache_posts = pickle.load(fh)
            self._cache_path = seg.path
        return self._cache_posts  # type: ignore[return-value]

    def _iter_oldest_first(self) -> Iterator[Post]:
        for seg in list(self._segments):
            posts = self._read(seg)
            yield from posts[seg.start :]
        yield from self._head

    def _iter_newest_first(self) -> Iterator[Post]:
        for post in reversed(self._head):
            yield post
        for seg in reversed(list(self._segments)):
            posts = self._read(seg)
            for i in range(len(posts) - 1, seg.start - 1, -1):
                yield posts[i]

    def _rewrite(self, posts: list[Post]) -> None:
        self._drop_cold(self._cold_len)
        self._head = deque(posts)
        config = self._config
        while len(self._head) > config.head_limit:
            self._spill(config.segment_size)
