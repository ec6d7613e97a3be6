"""All-pairs author similarity with inverted-index pruning (paper §6.1).

The paper precomputes pairwise similarities for its 20,150-author sample and
notes that doing so for the full 660k graph "would be prohibitive". Binary
cosine over followee sets only produces a non-zero similarity for author
pairs that share at least one followee, so instead of the naive O(m²) loop
we build an inverted index ``followee -> followers-of-that-followee`` and
only score co-occurring pairs. That skips only the pairs with no shared
followee, which on the synthetic presets is the minority: co-follow pairs
are 59–80% of all author pairs (80% at ``small``, 59% at ``large``), so
the scoring work stays close to quadratic in the number of authors.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator

from .vectors import FriendVectors


def candidate_pairs(vectors: FriendVectors) -> Iterator[tuple[int, int]]:
    """Yield each unordered author pair sharing ≥1 followee, exactly once.

    Pairs are yielded with ``a < b``. This is the support of the similarity
    function: every pair not yielded has similarity exactly 0.
    """
    inverted: dict[int, list[int]] = defaultdict(list)
    for author in vectors.authors:
        for followee in vectors.friends_of(author):
            inverted[followee].append(author)
    seen: set[tuple[int, int]] = set()
    for followers in inverted.values():
        if len(followers) < 2:
            continue
        followers.sort()
        for i, a in enumerate(followers):
            for b in followers[i + 1 :]:
                pair = (a, b)
                if pair not in seen:
                    seen.add(pair)
                    yield pair


def pairwise_similarities(
    vectors: FriendVectors, *, min_similarity: float = 0.0
) -> dict[tuple[int, int], float]:
    """Similarities of all non-trivial pairs, optionally filtered.

    Returns ``{(a, b): similarity}`` with ``a < b`` for every pair whose
    similarity is positive and ≥ ``min_similarity``. Use
    ``min_similarity = 1 - lambda_a`` to get exactly the edge set of the
    author similarity graph for threshold ``lambda_a``.
    """
    out: dict[tuple[int, int], float] = {}
    for a, b in candidate_pairs(vectors):
        sim = vectors.similarity(a, b)
        if sim > 0.0 and sim >= min_similarity:
            out[(a, b)] = sim
    return out


def similarity_values(vectors: FriendVectors) -> list[float]:
    """Positive pairwise similarity values (for Figure 9's distribution).

    Pairs with zero similarity are omitted; the CCDF code accounts for the
    total pair count separately so the zero mass is still represented.
    """
    return [vectors.similarity(a, b) for a, b in candidate_pairs(vectors)]
