"""NeighborBin (paper §4.2): one post bin per author.

Author ``a``'s bin holds the admitted posts of ``a`` *and of every
neighbour of ``a``* in the author similarity graph — exactly the posts that
could cover a new post by ``a``. An arriving post therefore scans a single
bin, and bin membership already implies author similarity, so only the time
and content checks run per candidate. The price is replication: an admitted
post is copied into ``d + 1`` bins (its author's and each neighbour's),
giving the §4.4 RAM estimate ``(d+1)·r·n``.

NeighborBin requires the author dimension to be active: it prunes candidate
posts *by author*, which is only sound when author-dissimilar posts cannot
cover each other.
"""

from __future__ import annotations

from ..authors import AuthorGraph
from ..errors import ConfigurationError, UnknownAuthorError
from .base import StreamDiversifier
from .bins import PostBin
from .post import Post
from .thresholds import Thresholds


class NeighborBin(StreamDiversifier):
    """The per-author-bin SPSD algorithm."""

    name = "neighborbin"

    def __init__(
        self,
        thresholds: Thresholds,
        graph: AuthorGraph,
        *,
        newest_first: bool = True,
        storage=None,
    ):
        if graph is None:
            raise ConfigurationError("NeighborBin requires an author graph")
        if thresholds.lambda_a >= 1.0:
            raise ConfigurationError(
                "NeighborBin cannot run with the author dimension disabled "
                "(lambda_a >= 1): per-author bins would have to replicate "
                "every post into every bin; use UniBin instead"
            )
        super().__init__(thresholds, graph, newest_first=newest_first, storage=storage)
        self._bins: dict[int, PostBin] = {
            author: self._new_bin() for author in graph.nodes
        }

    def _bin_of(self, author: int) -> PostBin:
        try:
            return self._bins[author]
        except KeyError:
            raise UnknownAuthorError(
                f"post author {author!r} is not in the author graph"
            ) from None

    def _is_covered(self, post: Post) -> bool:
        own_bin = self._bin_of(post.author)
        self.stats.record_evictions(
            own_bin.expire(post.timestamp, self.thresholds.lambda_t)
        )
        return self._covered_in(own_bin, post, author_known=True)

    def _admit(self, post: Post) -> None:
        lambda_t = self.thresholds.lambda_t
        targets = [post.author]
        assert self.graph is not None
        targets.extend(self.graph.neighbors(post.author))
        evicted = 0
        for author in targets:
            bin_ = self._bins[author]
            evicted += bin_.expire(post.timestamp, lambda_t)
            bin_.append(post)
        self.stats.record_evictions(evicted)
        self.stats.record_insertions(len(targets))

    def purge(self, now: float | None = None) -> None:
        timestamp = self._now(now)
        lambda_t = self.thresholds.lambda_t
        evicted = sum(bin_.expire(timestamp, lambda_t) for bin_ in self._bins.values())
        self.stats.record_evictions(evicted)

    def stored_copies(self) -> int:
        return sum(len(bin_) for bin_ in self._bins.values())

    def bin_count(self) -> int:
        return len(self._bins)

    def admitted_posts(self) -> list[Post]:
        # Every admitted post has a copy in its author's own bin, so the
        # author-filtered union over own bins is exactly Z ∩ window.
        out = [
            post
            for author, bin_ in self._bins.items()
            for post in bin_
            if post.author == author
        ]
        out.sort(key=lambda p: (p.timestamp, p.post_id))
        return out

    def apply_graph_delta(self, added=(), removed=()) -> None:
        """Patch bin membership after an in-place edge change of the graph.

        An admitted post by ``a`` belongs in ``a``'s bin and each of ``a``'s
        neighbours' bins; an edge flip between ``a`` and ``b`` therefore
        moves exactly the two authors' own posts in or out of each other's
        bins. Endpoints outside this engine's graph are skipped — deltas
        are global, engines are per-subgraph.
        """
        bins = self._bins
        for a, b in removed:
            bin_a, bin_b = bins.get(a), bins.get(b)
            if bin_a is None or bin_b is None:
                continue
            bin_a.remove_authored(b)
            bin_b.remove_authored(a)
        for a, b in added:
            bin_a, bin_b = bins.get(a), bins.get(b)
            if bin_a is None or bin_b is None:
                continue
            bin_a.merge([post for post in bin_b if post.author == b])
            bin_b.merge([post for post in bin_a if post.author == a])

    def spill(self) -> int:
        return sum(self._flush_bin(bin_) for bin_ in self._bins.values())

    def memory_breakdown(self) -> dict[str, int]:
        from ..storage.accounting import estimate_bin_bytes

        return {
            "window": sum(estimate_bin_bytes(b) for b in self._bins.values())
        }

    def _index_state(self) -> dict[str, object]:
        # Bins replicate posts (author + neighbours); serialise each post
        # once and reference it by id from the per-author bin listings.
        posts: dict[int, Post] = {}
        bins: dict[int, list[int]] = {}
        for author, bin_ in self._bins.items():
            if len(bin_):
                bins[author] = [p.post_id for p in bin_]
                for post in bin_:
                    posts[post.post_id] = post
        return {"posts": posts, "bins": bins}

    def _load_index_state(self, state: dict[str, object]) -> None:
        from ..errors import CheckpointError

        posts: dict[int, Post] = state["posts"]  # type: ignore[assignment]
        self._bins = {author: self._new_bin() for author in self._bins}
        for author, post_ids in state["bins"].items():  # type: ignore[union-attr]
            bin_ = self._bins.get(author)
            if bin_ is None:
                raise CheckpointError(
                    f"checkpoint references author {author!r} not present in "
                    "this engine's graph"
                )
            for post_id in post_ids:
                bin_.append(posts[post_id])
