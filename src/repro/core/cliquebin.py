"""CliqueBin (paper §4.3): one post bin per clique of a clique edge cover.

NeighborBin's replication is cut down by grouping mutually-similar authors:
compute a clique edge cover of the author graph, keep one bin per clique,
and store each admitted post once per clique containing its author (the
§4.4 ``c·r·n`` RAM estimate, with ``c`` ≤ ``d``). An arriving post scans
the bins of its author's cliques; clique membership implies pairwise author
similarity, so — like NeighborBin — only time and content checks run per
candidate. A candidate stored in two scanned cliques is compared twice,
matching the paper's comparison accounting (§4.3's P7 example).

Coverage stays exact: if authors ``a`` and ``q`` are similar, the edge
(a, q) lies inside some clique of the cover, so q's admitted posts are in a
bin that a's posts scan.
"""

from __future__ import annotations

from ..authors import AuthorGraph, CliqueCover, greedy_clique_cover
from ..errors import ConfigurationError, UnknownAuthorError
from .base import StreamDiversifier
from .bins import PostBin
from .post import Post
from .thresholds import Thresholds


class CliqueBin(StreamDiversifier):
    """The per-clique-bin SPSD algorithm."""

    name = "cliquebin"

    def __init__(
        self,
        thresholds: Thresholds,
        graph: AuthorGraph,
        *,
        cover: CliqueCover | None = None,
        newest_first: bool = True,
        storage=None,
    ):
        if graph is None:
            raise ConfigurationError("CliqueBin requires an author graph")
        if thresholds.lambda_a >= 1.0:
            raise ConfigurationError(
                "CliqueBin cannot run with the author dimension disabled "
                "(lambda_a >= 1); use UniBin instead"
            )
        super().__init__(thresholds, graph, newest_first=newest_first, storage=storage)
        # The cover is precomputed offline in the paper's deployment (like
        # the author graph itself); accept an injected one so a single cover
        # can be shared across experiment runs.
        self.cover = cover if cover is not None else greedy_clique_cover(graph)
        self._bins: dict[int, PostBin] = {
            idx: self._new_bin() for idx in range(len(self.cover))
        }

    def _cliques_of(self, author: int) -> list[int]:
        cliques = self.cover.cliques_of(author)
        if not cliques:
            raise UnknownAuthorError(
                f"post author {author!r} is not in any clique of the cover"
            )
        return cliques

    def _is_covered(self, post: Post) -> bool:
        stats = self.stats
        lambda_t = self.thresholds.lambda_t
        bins = self._bins
        # The governor's probe limit applies per scanned clique bin.
        for clique_idx in self._cliques_of(post.author):
            bin_ = bins[clique_idx]
            stats.record_evictions(bin_.expire(post.timestamp, lambda_t))
            if self._covered_in(bin_, post, author_known=True):
                return True
        return False

    def _admit(self, post: Post) -> None:
        # _admit only runs after _is_covered scanned — and therefore
        # expired — every one of the author's clique bins at this exact
        # timestamp, so a second expiry pass here could never evict.
        cliques = self._cliques_of(post.author)
        for clique_idx in cliques:
            self._bins[clique_idx].append(post)
        self.stats.record_insertions(len(cliques))

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
        # Posts replicate across the cliques of their author; dedupe by id.
        seen: dict[int, Post] = {}
        for bin_ in self._bins.values():
            for post in bin_:
                seen[post.post_id] = post
        return sorted(seen.values(), key=lambda p: (p.timestamp, p.post_id))

    def apply_cover_update(self, cover: CliqueCover) -> None:
        """Swap in a repaired clique cover, re-binning the live window.

        Admit verdicts are cover-independent for any *valid* cover of the
        current graph (clique membership implies author similarity, and
        every similar pair shares some clique), so the repaired cover only
        needs to pass ``verify_cover`` — not to equal the greedy-from-
        scratch cover. Bins of cliques present in both covers keep their
        deques; new cliques get bins rebuilt from the admitted posts of
        their members, in (timestamp, post_id) order.
        """
        by_author: dict[int, list[Post]] = {}
        for post in self.admitted_posts():
            by_author.setdefault(post.author, []).append(post)
        reusable: dict[frozenset[int], list[PostBin]] = {}
        for idx, clique in enumerate(self.cover.cliques):
            reusable.setdefault(clique, []).append(self._bins[idx])
        self.cover = cover
        bins: dict[int, PostBin] = {}
        for idx, clique in enumerate(cover.cliques):
            stack = reusable.get(clique)
            if stack:
                bins[idx] = stack.pop()
                continue
            bin_ = self._new_bin()
            members = [a for a in clique if a in by_author]
            if members:
                for post in sorted(
                    (p for a in members for p in by_author[a]),
                    key=lambda p: (p.timestamp, p.post_id),
                ):
                    bin_.append(post)
            bins[idx] = bin_
        self._bins = bins

    def spill(self) -> int:
        return sum(self._flush_bin(bin_) for bin_ in self._bins.values())

    def memory_breakdown(self) -> dict[str, int]:
        from ..storage.accounting import estimate_bin_bytes

        return {
            "window": sum(estimate_bin_bytes(b) for b in self._bins.values())
        }

    def _index_state(self) -> dict[str, object]:
        posts: dict[int, Post] = {}
        bins: dict[int, list[int]] = {}
        for idx, bin_ in self._bins.items():
            if len(bin_):
                bins[idx] = [p.post_id for p in bin_]
                for post in bin_:
                    posts[post.post_id] = post
        return {
            "cliques": len(self.cover),
            # The cover itself: a dynamically-repaired cover is valid but
            # need not equal the greedy-from-scratch cover a restoring
            # engine computes, so restore must adopt the checkpointed one.
            "cover": [sorted(clique) for clique in self.cover.cliques],
            "posts": posts,
            "bins": bins,
        }

    def _load_index_state(self, state: dict[str, object]) -> None:
        from ..errors import CheckpointError

        cover_state = state.get("cover")
        if cover_state is not None:
            self.cover = CliqueCover(
                [frozenset(members) for members in cover_state]  # type: ignore[union-attr]
            )
        elif state["cliques"] != len(self.cover):
            # Pre-dynamic checkpoints carry only the clique count.
            raise CheckpointError(
                f"checkpoint was taken with a {state['cliques']}-clique "
                f"cover; this engine's cover has {len(self.cover)} cliques "
                "(graph or cover mismatch)"
            )
        posts: dict[int, Post] = state["posts"]  # type: ignore[assignment]
        self._bins = {idx: self._new_bin() for idx in range(len(self.cover))}
        for idx, post_ids in state["bins"].items():  # type: ignore[union-attr]
            bin_ = self._bins[idx]
            for post_id in post_ids:
                bin_.append(posts[post_id])
