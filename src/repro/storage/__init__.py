"""Bounded-memory window storage (the PR-6 tiered store).

Engines keep their λt windows in :class:`~repro.core.bins.PostBin` deques by
default; pass ``storage=SpillConfig(...)`` (through ``make_diversifier`` /
``make_multiuser`` / the CLI's ``--spill-dir``) and every bin becomes a
:class:`TieredPostBin` — an in-memory recent head plus append-only spill
segments on disk, with expiry dropping whole old segments so compaction is
free. Verdicts, stats and checkpoints are byte-identical to the in-memory
store; a spilled post keeps the three cells the coverage scan reads
resident, so scans never open a segment (see :mod:`repro.storage.tiered`).

:mod:`repro.storage.accounting` supplies the deterministic byte estimates
the :class:`~repro.resilience.MemoryGovernor` budgets against.
"""

from .framing import FRAME_HEADER, read_framed, write_framed
from .accounting import (
    INDEX_ENTRY_BYTES,
    POST_BASE_BYTES,
    SAMPLE_BYTES,
    SPILLED_ENTRY_BYTES,
    estimate_bin_bytes,
    estimate_index_bytes,
    estimate_message_bytes,
    estimate_post_bytes,
    estimate_posts_bytes,
)
from .tiered import SpillConfig, TieredPostBin

__all__ = [
    "FRAME_HEADER",
    "INDEX_ENTRY_BYTES",
    "POST_BASE_BYTES",
    "SAMPLE_BYTES",
    "SPILLED_ENTRY_BYTES",
    "SpillConfig",
    "TieredPostBin",
    "estimate_bin_bytes",
    "estimate_index_bytes",
    "estimate_message_bytes",
    "estimate_post_bytes",
    "estimate_posts_bytes",
    "read_framed",
    "write_framed",
]
