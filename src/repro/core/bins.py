"""Time-windowed post bins (paper §4, "Handling Time Diversity").

The paper stores the recent diversified posts in a circular array with two
cursors: the oldest post still inside the λt window and the most recent
post. A Python deque gives the same two-ended behaviour — append new posts
on the right, expire old posts from the left — while scans run newest-first
(right to left) and stop at the first expired candidate, so a scan never
touches posts outside the window.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from itertools import chain

from .post import Post


class PostBin:
    """A deque of posts ordered by arrival (and therefore by timestamp)."""

    __slots__ = ("_posts",)

    def __init__(self) -> None:
        self._posts: deque[Post] = deque()

    def __len__(self) -> int:
        return len(self._posts)

    def __iter__(self) -> Iterator[Post]:
        return iter(self._posts)

    @property
    def data(self) -> deque[Post]:
        """The underlying arrival-ordered deque.

        Exposed for the engines' hot loops: after :meth:`expire` has run at
        the current timestamp, every remaining post is inside the window,
        so a coverage scan can iterate ``reversed(bin.data)`` directly —
        no per-candidate cutoff check and no generator frame per candidate.
        Callers must not mutate it.
        """
        return self._posts

    def scan_tiers(self) -> tuple[deque[Post], None]:
        """``(head, cold)`` for the engines' newest-first coverage scan:
        ``head`` is walked candidate by candidate, newest (rightmost)
        first; ``cold`` is a :class:`~repro.simhash.CoverageKernel` over
        the entries older than the head, or ``None`` when the head is the
        whole bin — always, for an in-memory bin. Like :attr:`data`, only
        valid right after :meth:`expire` at the probing timestamp."""
        return self._posts, None

    def append(self, post: Post) -> None:
        """Store ``post`` as the newest entry."""
        self._posts.append(post)

    def scan(self, now: float, lambda_t: float, *, newest_first: bool = True) -> Iterator[Post]:
        """Yield candidates inside the window ``[now - lambda_t, now]``.

        ``newest_first=True`` (default, and what the paper describes — "from
        the most recent post to the older ones") allows early termination at
        the first expired post; on duplicate-heavy streams it also finds a
        covering post sooner, since duplicates cluster in time. The
        oldest-first order is kept for the scan-order ablation and must skip
        over expired entries instead of stopping.
        """
        cutoff = now - lambda_t
        if newest_first:
            for post in reversed(self._posts):
                if post.timestamp < cutoff:
                    return
                yield post
        else:
            for post in self._posts:
                if post.timestamp >= cutoff:
                    yield post

    def expire(self, now: float, lambda_t: float) -> int:
        """Drop posts older than ``now - lambda_t``; return how many."""
        cutoff = now - lambda_t
        dropped = 0
        posts = self._posts
        while posts and posts[0].timestamp < cutoff:
            posts.popleft()
            dropped += 1
        return dropped

    def clear(self) -> int:
        """Remove everything; return the number of posts dropped."""
        dropped = len(self._posts)
        self._posts.clear()
        return dropped

    # -- migration helpers (repro.dynamic) ---------------------------------
    #
    # Cold-path operations used when the author graph changes under a live
    # engine. Bins only need *non-decreasing timestamp* order for `expire`
    # and `scan` to stay correct (admit verdicts are scan-order independent),
    # so merges normalise to the canonical (timestamp, post_id) order.

    def merge(self, posts: Iterable[Post]) -> int:
        """Merge ``posts`` into the bin, keeping timestamp order; return
        how many were inserted. Callers are responsible for not inserting
        duplicates of posts already present."""
        incoming = list(posts)
        if not incoming:
            return 0
        merged = sorted(
            chain(self._posts, incoming),
            key=lambda p: (p.timestamp, p.post_id),
        )
        self._posts = deque(merged)
        return len(incoming)

    def remove_authored(self, author: int) -> int:
        """Drop every post authored by ``author``; return how many."""
        kept = [post for post in self._posts if post.author != author]
        dropped = len(self._posts) - len(kept)
        if dropped:
            self._posts = deque(kept)
        return dropped
