"""Tests for repro.simhash.hashing — stable 64-bit token hashes."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.simhash import clear_token_cache, hash_token, simhash, token_cache_size


class TestHashToken:
    def test_deterministic_within_process(self):
        assert hash_token("hello") == hash_token("hello")

    def test_range_is_64_bit(self):
        for token in ("", "a", "hello", "🎉", "x" * 1000):
            value = hash_token(token)
            assert 0 <= value < 2**64

    def test_distinct_tokens_differ(self):
        values = {hash_token(t) for t in ("a", "b", "c", "ab", "ba", "A")}
        assert len(values) == 6

    def test_case_sensitive(self):
        assert hash_token("Hello") != hash_token("hello")

    def test_unicode_tokens(self):
        assert hash_token("café") != hash_token("cafe")

    def test_known_stability_across_processes(self):
        """Fingerprints must not depend on PYTHONHASHSEED — compute the same
        token hash and the same whole-text fingerprint in a fresh interpreter
        with a different hash seed."""
        text = "Stocks fall sharply after the central bank raises rates again"
        expected = f"{hash_token('stability-probe')} {simhash(text)}"
        code = (
            "from repro.simhash import hash_token, simhash;"
            f"print(hash_token('stability-probe'), simhash({text!r}))"
        )
        # The child env is minimal by design (we control PYTHONHASHSEED),
        # but it must still find the package: propagate the path the
        # running interpreter imported ``repro`` from.
        package_path = str(Path(repro.__file__).resolve().parents[1])
        for seed in ("0", "12345"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={
                    "PYTHONHASHSEED": seed,
                    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                    "PYTHONPATH": package_path,
                    # Write no __pycache__ into the source tree.
                    "PYTHONDONTWRITEBYTECODE": "1",
                },
                check=True,
            )
            assert out.stdout.strip() == expected

    def test_avalanche(self):
        """Single-character changes should flip roughly half the bits."""
        a = hash_token("avalanche-test-token")
        b = hash_token("avalanche-test-token!")
        differing = (a ^ b).bit_count()
        assert 16 <= differing <= 48


class TestTokenCache:
    def test_cache_grows_and_clears(self):
        clear_token_cache()
        assert token_cache_size() == 0
        hash_token("cache-probe-1")
        hash_token("cache-probe-2")
        assert token_cache_size() == 2
        clear_token_cache()
        assert token_cache_size() == 0

    def test_cache_hit_returns_same_value(self):
        clear_token_cache()
        first = hash_token("cache-probe")
        second = hash_token("cache-probe")
        assert first == second
        assert token_cache_size() == 1
