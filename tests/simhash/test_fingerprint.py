"""Tests for repro.simhash.fingerprint — SimHash behaviour."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simhash import (
    EMPTY_FINGERPRINT,
    PreprocessOptions,
    hamming,
    simhash,
    simhash_from_features,
    simhash_preprocessed,
)

from .reference import simhash_from_features as reference

tokens = st.text(min_size=0, max_size=12)
int_weights = st.integers(min_value=1, max_value=10**6)
# Magnitudes far enough apart that a sum of them rounds, and rounds
# differently when the additions are reordered.
mixed_weights = st.sampled_from([0.1, 1 / 3, 1e-8, 1e8])


class TestSimhashBasics:
    def test_deterministic(self):
        assert simhash("breaking news tonight") == simhash("breaking news tonight")

    def test_64_bit_range(self):
        assert 0 <= simhash("some text here") < 2**64

    def test_empty_text(self):
        assert simhash("") == EMPTY_FINGERPRINT

    def test_whitespace_only(self):
        assert simhash("   \t\n") == EMPTY_FINGERPRINT

    def test_from_features_empty(self):
        assert simhash_from_features({}) == EMPTY_FINGERPRINT

    def test_from_features_matches_manual(self):
        # A single feature's simhash is just the bits of its token hash
        # thresholded by sign: +w where bit is 1, -w where 0 → the hash.
        from repro.simhash import hash_token

        assert simhash_from_features({"solo": 1}) == hash_token("solo")

    def test_float_weights_accepted(self):
        assert isinstance(simhash_from_features({"a": 0.5, "b": 1.5}), int)


class TestNormalizationMode:
    def test_case_invariant_when_normalized(self):
        assert simhash("Big News Today") == simhash("big news today")

    def test_case_sensitive_when_raw(self):
        assert simhash("Big News Today", normalized=False) != simhash(
            "big news today", normalized=False
        )

    def test_punctuation_invariant_when_normalized(self):
        assert simhash("big news, today!") == simhash("big news today")


class TestDistanceBehaviour:
    def test_identical_distance_zero(self):
        assert hamming(simhash("same text"), simhash("same text")) == 0

    def test_similar_texts_closer_than_random(self):
        base = "stocks fall sharply after central bank raises rates again"
        near = "stocks fall sharply after central bank raises rates #markets"
        far = "local team wins final game of the season in overtime thriller"
        assert hamming(simhash(base), simhash(near)) < hamming(
            simhash(base), simhash(far)
        )

    def test_shared_prefix_reduces_distance(self):
        a = "alpha beta gamma delta epsilon zeta"
        b = "alpha beta gamma delta epsilon omega"
        c = "one two three four five six"
        assert hamming(simhash(a), simhash(b)) < hamming(simhash(a), simhash(c))

    def test_random_texts_near_32(self):
        """Unrelated texts should land near the 32-bit midpoint (Figure 2)."""
        a = "quarterly results beat expectations on strong cloud growth"
        b = "storm brings heavy rain and flooding to coastal towns overnight"
        assert 16 <= hamming(simhash(a), simhash(b)) <= 48


class TestShingleWidth:
    def test_width_changes_fingerprint(self):
        text = "a b c d e f"
        assert simhash(text, shingle_width=1) != simhash(text, shingle_width=3)

    def test_word_order_matters_with_shingles(self):
        # Bag-of-words is order-blind; shingles are not.
        a = "alpha beta gamma delta"
        b = "delta gamma beta alpha"
        assert simhash(a, shingle_width=1) == simhash(b, shingle_width=1)
        assert simhash(a, shingle_width=2) != simhash(b, shingle_width=2)


class TestKernelMatchesReference:
    """The numpy kernel against the scalar per-bit loop it replaced."""

    @given(st.dictionaries(tokens, int_weights, max_size=64))
    def test_integer_weights(self, features):
        assert simhash_from_features(features) == reference(features)

    @given(st.dictionaries(tokens, mixed_weights, max_size=64))
    def test_float_weights(self, features):
        assert simhash_from_features(features) == reference(features)

    def test_cancelling_float_weights(self):
        # Every weight appears twice, so on many bits the 1e8 terms cancel
        # and the sign is whatever rounding left of the small ones (1e8
        # absorbs 1e-8): only the scalar loop's order of additions gives it.
        features = {"big": 1e8, "tiny": 1e-8, "tenth": 0.1, "third": 1 / 3}
        for key in list(features):
            features[key + "-twin"] = features[key]
        assert simhash_from_features(features) == reference(features)


HASHTAG_TEXT = "Quake hits city #earthquake #breaking via @newsdesk"
STORM_TEXT = "Breaking: Over 300 people missing after the storm #news"


# Fingerprints computed by the scalar loop before the numpy kernel replaced
# it. They pin the bits themselves, so an oracle that drifted together with
# the kernel would still be caught.
@pytest.mark.parametrize(
    "compute, expected",
    [
        pytest.param(lambda: simhash(""), 0x0000000000000000, id="empty"),
        pytest.param(lambda: simhash("solo"), 0xAE24A196A805B85E, id="one_token"),
        pytest.param(
            lambda: simhash(STORM_TEXT, normalized=False), 0x0DBAFB7554D3A2AE, id="raw"
        ),
        pytest.param(lambda: simhash(STORM_TEXT), 0x1DB65875509376A6, id="normalized"),
        pytest.param(
            lambda: simhash(
                "stocks fall sharply after central bank raises rates again",
                shingle_width=3,
            ),
            0x18000810750664AA,
            id="shingle3",
        ),
        pytest.param(
            lambda: simhash("café crème brûlée 🎉 naïve résumé"),
            0x46332FA670121759,
            id="unicode",
        ),
        pytest.param(
            lambda: simhash("the the the cat sat on the mat the end"),
            0x5E5BAB6C939F382D,
            id="repeated",
        ),
        pytest.param(
            lambda: simhash_preprocessed(
                HASHTAG_TEXT, PreprocessOptions(hashtag_weight=3.0)
            ),
            0x36E5D18E8621B88C,
            id="hashtag_x3",
        ),
        pytest.param(
            lambda: simhash_preprocessed(
                HASHTAG_TEXT,
                PreprocessOptions(mention_weight=0.5, hashtag_weight=1 / 3),
            ),
            0x27E1CBB6842998D2,
            id="mention_half_hashtag_third",
        ),
    ],
)
def test_pinned_fingerprint(compute, expected):
    assert compute() == expected
