"""Tests for repro.simhash.hamming — scalar and bulk distances."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.simhash import hamming, hamming_bulk, popcount64, within

fingerprints = st.integers(min_value=0, max_value=2**64 - 1)


class TestHammingScalar:
    def test_known(self):
        assert hamming(0b1010, 0b0110) == 2

    def test_zero(self):
        assert hamming(12345, 12345) == 0

    def test_max(self):
        assert hamming(0, 2**64 - 1) == 64

    @given(fingerprints, fingerprints)
    def test_symmetry(self, a, b):
        assert hamming(a, b) == hamming(b, a)

    @given(fingerprints, fingerprints)
    def test_bounds(self, a, b):
        assert 0 <= hamming(a, b) <= 64

    @given(fingerprints, fingerprints, fingerprints)
    def test_triangle_inequality(self, a, b, c):
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)

    @given(fingerprints, fingerprints)
    def test_identity_of_indiscernibles(self, a, b):
        assert (hamming(a, b) == 0) == (a == b)


class TestWithin:
    def test_within_true(self):
        assert within(0b111, 0b110, 1)

    def test_within_false(self):
        assert not within(0b111, 0b000, 2)

    def test_threshold_zero_means_equal(self):
        assert within(42, 42, 0)
        assert not within(42, 43, 0)

    @given(fingerprints, fingerprints, st.integers(min_value=0, max_value=64))
    def test_matches_scalar(self, a, b, t):
        assert within(a, b, t) == (hamming(a, b) <= t)


class TestPopcount64:
    def test_edge_words(self):
        words = [0, 1, 2**63, 2**64 - 1]
        counts = popcount64(np.array(words, dtype=np.uint64))
        assert counts.tolist() == [word.bit_count() for word in words] == [0, 1, 1, 64]

    @given(st.lists(fingerprints, max_size=100))
    def test_matches_int_bit_count(self, words):
        counts = popcount64(np.array(words, dtype=np.uint64))
        assert counts.tolist() == [word.bit_count() for word in words]


class TestHammingBulk:
    def test_empty(self):
        empty = np.array([], dtype=np.uint64)
        assert hamming_bulk(empty, empty).size == 0

    def test_known_values(self):
        a = np.array([0b1010, 0, 2**64 - 1], dtype=np.uint64)
        b = np.array([0b0110, 0, 0], dtype=np.uint64)
        assert hamming_bulk(a, b).tolist() == [2, 0, 64]

    def test_distances_are_wide_enough_to_subtract(self):
        a = np.array([0, 2**64 - 1], dtype=np.uint64)
        distances = hamming_bulk(a, a[::-1])
        assert (distances - 65).tolist() == [-1, -1]

    @given(st.lists(fingerprints, min_size=1, max_size=50))
    def test_matches_scalar(self, values):
        a = np.array(values, dtype=np.uint64)
        b = np.array(list(reversed(values)), dtype=np.uint64)
        bulk = hamming_bulk(a, b)
        scalar = [hamming(x, y) for x, y in zip(values, reversed(values))]
        assert bulk.tolist() == scalar
