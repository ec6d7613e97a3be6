"""The SimHash kernel against the scalar reference loop on generated texts."""

import random

from repro.simhash import feature_counts, normalize, simhash
from repro.social import TextGenerator, Vocabulary

from .reference import simhash_from_features as reference


def sample_texts(n=60, seed=3):
    rng = random.Random(seed)
    vocabulary = Vocabulary(seed=seed)
    generator = TextGenerator(vocabulary, seed=seed + 1)
    return [
        generator.fresh(rng.randrange(vocabulary.topic_count), rng=rng).text
        for _ in range(n)
    ]


def reference_simhash(text, *, normalized=True, shingle_width=2):
    if normalized:
        text = normalize(text)
    return reference(feature_counts(text, shingle_width))


class TestBitExactness:
    def test_matches_scalar_on_generated_texts(self):
        for text in sample_texts():
            assert simhash(text) == reference_simhash(text)

    def test_matches_scalar_raw_mode(self):
        for text in sample_texts(20, seed=9):
            assert simhash(text, normalized=False) == reference_simhash(
                text, normalized=False
            )

    def test_matches_scalar_other_shingle_width(self):
        for text in sample_texts(20, seed=11):
            assert simhash(text, shingle_width=3) == reference_simhash(
                text, shingle_width=3
            )

    def test_empty_text(self):
        assert simhash("") == reference_simhash("")

    def test_single_token(self):
        assert simhash("solo") == reference_simhash("solo")
