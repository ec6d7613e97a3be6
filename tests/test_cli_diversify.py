"""``repro diversify`` through ``main()``, in-process: every flag conflict
it rejects, and the exact summary each of its four modes prints.

The modes are ``--posts`` or ``--events``, each with or without
``--subscriptions``. The worlds are the seeded ones of ``tests/support.py``;
every path in a printed line is rewritten to ``<tmp>/...`` so the pins hold
in any temporary directory.
"""

from __future__ import annotations

import json
import random

import pytest

import repro.obs
from repro.authors import AuthorGraph
from repro.cli import _DIVERSIFY_CONFLICTS, main
from repro.core import Thresholds, make_diversifier
from repro.dynamic import write_events_jsonl
from repro.errors import DatasetError
from repro.io import (
    read_graph_json,
    read_posts_jsonl,
    write_friends_json,
    write_graph_json,
    write_posts_jsonl,
    write_subscriptions_json,
)
from repro.multiuser import SubscriptionTable
from repro.resilience import Quarantine, ResilientIngest
from repro.simhash import fingerprint

from .support import (
    AUTHORS,
    DYNAMIC_SUBSCRIPTIONS_SPEC,
    EDGES,
    SUBSCRIPTIONS_SPEC,
    make_events,
    make_friends,
    make_posts,
)

POSTS_LAMBDAS = ["--lambda-c", "8", "--lambda-t", "60", "--lambda-a", "0.5"]
EVENTS_LAMBDAS = ["--lambda-c", "8", "--lambda-t", "40", "--lambda-a", "0.5"]
MALFORMED = '{"post_id": "x", "author": 1, "text": "bad", "timestamp": 1.0}\n'


@pytest.fixture()
def world(tmp_path):
    """Input files for both worlds; each trace ends in one malformed line."""
    write_posts_jsonl(make_posts(60), tmp_path / "posts.jsonl")
    write_graph_json(AuthorGraph(nodes=AUTHORS, edges=EDGES), tmp_path / "graph.json")
    write_subscriptions_json(
        SubscriptionTable(SUBSCRIPTIONS_SPEC), tmp_path / "subscriptions.json"
    )
    write_events_jsonl(make_events(n_posts=60), tmp_path / "events.jsonl")
    write_friends_json(make_friends(), tmp_path / "friends.json")
    write_subscriptions_json(
        SubscriptionTable(DYNAMIC_SUBSCRIPTIONS_SPEC),
        tmp_path / "dynamic_subscriptions.json",
    )
    for name in ("posts.jsonl", "events.jsonl"):
        with open(tmp_path / name, "a", encoding="utf-8") as handle:
            handle.write(MALFORMED)
    return tmp_path


def run(world, capsys, args):
    """``main(["diversify", *args])`` with ``{tmp}`` expanded to the
    ``world`` directory; returns (exit code, stdout, stderr) with that
    directory printed as ``<tmp>``."""
    argv = [arg.format(tmp=world) for arg in args]
    code = main(["diversify", *argv])
    out, err = capsys.readouterr()
    return code, out.replace(str(world), "<tmp>"), err.replace(str(world), "<tmp>")


POSTS = ["--posts", "{tmp}/posts.jsonl"]
GRAPH = ["--graph", "{tmp}/graph.json"]
SUBS = ["--subscriptions", "{tmp}/subscriptions.json"]
EVENTS = ["--events", "{tmp}/events.jsonl"]
FRIENDS = ["--friends", "{tmp}/friends.json"]
DYNAMIC_SUBS = ["--subscriptions", "{tmp}/dynamic_subscriptions.json"]

CONFLICTS = {
    "no-input": ([], "pass exactly one of --posts or --events"),
    "both-inputs": (POSTS + EVENTS, "pass exactly one of --posts or --events"),
    "single-workers": (
        POSTS + GRAPH + ["--workers", "2"],
        "--workers/--supervise apply to the multi-user sharded engine; "
        "pass --subscriptions to enable them",
    ),
    "single-supervise": (
        POSTS + GRAPH + ["--supervise"],
        "--workers/--supervise apply to the multi-user sharded engine; "
        "pass --subscriptions to enable them",
    ),
    "events-no-friends": (
        EVENTS,
        "--events requires --friends (the initial follow relation)",
    ),
    "events-max-skew": (
        EVENTS + FRIENDS + ["--max-skew", "5"],
        "--max-skew and --trace-out are single-user pipeline features; "
        "dynamic mode streams strictly ordered events",
    ),
    "events-multi-trace": (
        EVENTS + FRIENDS + DYNAMIC_SUBS + ["--trace-out", "{tmp}/t.jsonl"],
        "--max-skew and --trace-out are single-user pipeline features; "
        "dynamic mode streams strictly ordered events",
    ),
    "multi-trace": (
        POSTS + GRAPH + SUBS + ["--trace-out", "{tmp}/t.jsonl"],
        "--max-skew and --trace-out are single-user pipeline features; "
        "multi-user mode streams strictly ordered posts",
    ),
    "multi-max-skew": (
        POSTS + GRAPH + SUBS + ["--max-skew", "5"],
        "--max-skew and --trace-out are single-user pipeline features; "
        "multi-user mode streams strictly ordered posts",
    ),
    "events-supervise": (
        EVENTS + FRIENDS + ["--supervise"],
        "--supervise applies to the multi-user sharded engine; "
        "pass --subscriptions to enable it",
    ),
    "events-spill-dir": (
        EVENTS + FRIENDS + ["--spill-dir", "{tmp}/spill"],
        "--spill-dir/--memory-budget are static-topology features; dynamic "
        "mode rewrites bins wholesale on churn and keeps its windows in memory",
    ),
    "events-multi-memory-budget": (
        EVENTS + FRIENDS + DYNAMIC_SUBS + ["--memory-budget", "100000"],
        "--spill-dir/--memory-budget are static-topology features; dynamic "
        "mode rewrites bins wholesale on churn and keeps its windows in memory",
    ),
    "events-unknown-algorithm": (
        EVENTS + FRIENDS + ["--algorithm", "bogus"],
        "unknown algorithm 'bogus'; dynamic single-user mode takes one of "
        "('unibin', 'neighborbin', 'cliquebin', 'indexed_unibin')",
    ),
    "multi-no-graph": (POSTS + SUBS, "multi-user mode requires --graph"),
    "multi-unknown-algorithm": (
        POSTS + GRAPH + SUBS + ["--algorithm", "bogus"],
        "unknown multi-user algorithm 'bogus'; choose a bare algorithm "
        "(unibin, neighborbin, cliquebin, indexed_unibin) or one of "
        "('m_unibin', 'm_neighborbin', 'm_cliquebin', 's_unibin', "
        "'s_neighborbin', 's_cliquebin', 'p_unibin', 'p_neighborbin', "
        "'p_cliquebin', 'p_indexed_unibin')",
    ),
    "multi-serial-workers": (
        POSTS + GRAPH + SUBS + ["--algorithm", "s_unibin", "--workers", "4"],
        "--workers 4 needs the sharded engine; use a bare algorithm name or "
        "p_* (got 's_unibin')",
    ),
    "events-multi-per-user-engine": (
        EVENTS + FRIENDS + DYNAMIC_SUBS + ["--algorithm", "m_unibin"],
        "no dynamic variant of 'm_unibin'; dynamic mode supports the "
        "shared-component engines ('s_unibin', 's_neighborbin', "
        "'s_cliquebin', 'p_unibin', 'p_neighborbin', 'p_cliquebin', "
        "'p_indexed_unibin')",
    ),
}


@pytest.mark.parametrize("case", list(CONFLICTS))
def test_conflict_exits_2_with_one_stderr_line(world, capsys, case):
    args, message = CONFLICTS[case]
    code, out, err = run(world, capsys, args)
    assert (code, out, err) == (2, "", message + "\n")


def test_every_conflict_row_has_a_case():
    pinned = {message for _, message in CONFLICTS.values()}
    assert {message for _, _, message in _DIVERSIFY_CONFLICTS} <= pinned


TAIL = [
    "--on-error", "quarantine",
    "--quarantine-out", "{tmp}/dead.jsonl",
    "--checkpoint-out", "{tmp}/ckpt.json",
    "--metrics-out", "{tmp}/metrics.json",
    "--output", "{tmp}/out.jsonl",
]
TAIL_LINES = (
    "dead-letter file written to <tmp>/dead.jsonl (1 records)\n"
    "checkpoint written to <tmp>/ckpt.json\n"
    "metrics snapshot written to <tmp>/metrics.json\n"
)

SUMMARIES = {
    "posts-single": (
        POSTS + GRAPH + ["--algorithm", "neighborbin"] + POSTS_LAMBDAS,
        "neighborbin: 51/60 posts kept (15.0% pruned); 163 comparisons, "
        "111 insertions\n"
        "quarantined 1 records: invalid_record=1\n"
        + TAIL_LINES
        + "diversified trace written to <tmp>/out.jsonl\n",
    ),
    "posts-multi-m": (
        POSTS + GRAPH + SUBS + ["--algorithm", "m_unibin"] + POSTS_LAMBDAS,
        "m_unibin: 99/116 instance offers admitted; 99 deliveries to 6 "
        "users; 927 comparisons, 99 insertions\n"
        "quarantined 1 records: invalid_record=1\n"
        + TAIL_LINES
        + "receiver trace written to <tmp>/out.jsonl\n",
    ),
    "posts-multi-s": (
        POSTS + GRAPH + SUBS + ["--algorithm", "s_cliquebin"] + POSTS_LAMBDAS,
        "s_cliquebin: 51/60 instance offers admitted; 99 deliveries to 6 "
        "users; 184 comparisons, 62 insertions\n"
        "quarantined 1 records: invalid_record=1\n"
        + TAIL_LINES
        + "receiver trace written to <tmp>/out.jsonl\n",
    ),
    "posts-multi-bare": (
        POSTS + GRAPH + SUBS + ["--algorithm", "unibin"] + POSTS_LAMBDAS,
        "p_unibin: 51/60 instance offers admitted; 99 deliveries to 6 "
        "users; 193 comparisons, 51 insertions\n"
        "shards: 1 (imbalance 0.000, sharing ratio 0.375)\n"
        "quarantined 1 records: invalid_record=1\n"
        + TAIL_LINES
        + "receiver trace written to <tmp>/out.jsonl\n",
    ),
    "events-single": (
        EVENTS + FRIENDS + ["--algorithm", "unibin"] + EVENTS_LAMBDAS,
        "dyn_unibin: 60 posts, 3 follows, 6 unfollows; graph version 5 "
        "(5 migrations)\n"
        "46/60 posts kept; 1,074 comparisons, 46 insertions\n"
        "quarantined 1 records: invalid_record=1\n"
        + TAIL_LINES
        + "diversified trace written to <tmp>/out.jsonl\n",
    ),
    "events-multi-s": (
        EVENTS + FRIENDS + DYNAMIC_SUBS + ["--algorithm", "s_neighborbin"]
        + EVENTS_LAMBDAS,
        "d_neighborbin: 60 posts, 3 follows, 6 unfollows; graph version 5 "
        "(5 migrations)\n"
        "100/121 instance offers admitted; 132 deliveries to 6 users; "
        "350 comparisons, 166 insertions\n"
        "quarantined 1 records: invalid_record=1\n"
        + TAIL_LINES
        + "receiver trace written to <tmp>/out.jsonl\n",
    ),
    "events-multi-bare": (
        EVENTS + FRIENDS + DYNAMIC_SUBS + ["--algorithm", "unibin"]
        + EVENTS_LAMBDAS,
        "d_unibin: 60 posts, 3 follows, 6 unfollows; graph version 5 "
        "(5 migrations)\n"
        "100/121 instance offers admitted; 132 deliveries to 6 users; "
        "448 comparisons, 100 insertions\n"
        "quarantined 1 records: invalid_record=1\n"
        + TAIL_LINES
        + "receiver trace written to <tmp>/out.jsonl\n",
    ),
}


@pytest.mark.parametrize("case", list(SUMMARIES))
def test_mode_summary(world, capsys, case):
    args, expected = SUMMARIES[case]
    code, out, err = run(world, capsys, args + TAIL)
    assert (code, err) == (0, "")
    assert out == expected


def test_static_pipeline_flags(tmp_path, capsys):
    """--max-skew/--order-policy and quarantine on a shuffled trace: the
    CLI admits exactly what an in-process ResilientIngest admits."""
    posts = make_posts(80)
    rng = random.Random(3)
    # Swap neighbours (absorbed by the reorder buffer) and move a few posts
    # far back (late beyond --max-skew, dropped by the policy).
    for i in range(0, len(posts) - 1, 3):
        if rng.random() < 0.7:
            posts[i], posts[i + 1] = posts[i + 1], posts[i]
    for i in (20, 45, 70):
        posts.insert(i - 15, posts.pop(i))
    posts_path = tmp_path / "shuffled.jsonl"
    write_posts_jsonl(posts, posts_path)
    lines = posts_path.read_text().splitlines(keepends=True)
    lines.insert(30, MALFORMED)
    posts_path.write_text("".join(lines))
    graph_path = tmp_path / "graph.json"
    write_graph_json(AuthorGraph(nodes=AUTHORS, edges=EDGES), graph_path)
    out_path = tmp_path / "out.jsonl"
    dead_path = tmp_path / "dead.jsonl"

    code = main(
        [
            "diversify",
            "--posts", str(posts_path),
            "--graph", str(graph_path),
            "--max-skew", "3",
            "--order-policy", "drop",
            "--on-error", "quarantine",
            "--quarantine-out", str(dead_path),
            "--output", str(out_path),
            *POSTS_LAMBDAS,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert (
        "reorder: 43 out-of-order absorbed, 9 dropped late, 0 clamped late "
        "(peak buffer 6)\n"
    ) in out
    assert "quarantined 1 records: invalid_record=1\n" in out
    assert f"dead-letter file written to {dead_path} (1 records)\n" in out
    assert json.loads(dead_path.read_text())["line_number"] == 31

    sink = Quarantine()
    pipeline = ResilientIngest(
        make_diversifier(
            "unibin",
            Thresholds(lambda_c=8, lambda_t=60.0, lambda_a=0.5),
            read_graph_json(graph_path),
        ),
        max_skew=3.0,
        late_policy="drop",
        quarantine=sink,
    )
    expected = []
    for post in read_posts_jsonl(posts_path, on_error="quarantine", quarantine=sink):
        expected += [e.post.post_id for e in pipeline.ingest(post) if e.admitted]
    expected += [e.post.post_id for e in pipeline.flush() if e.admitted]
    got = [json.loads(line)["post_id"] for line in out_path.read_text().splitlines()]
    assert got == expected
    assert len(got) > 0


TEARDOWN = {
    "posts-single": POSTS + GRAPH + ["--trace-out", "{tmp}/trace.jsonl"],
    "posts-multi": POSTS + GRAPH + SUBS + ["--algorithm", "s_unibin"],
    "events-single": EVENTS + FRIENDS,
    "events-multi": EVENTS + FRIENDS + DYNAMIC_SUBS + ["--algorithm", "s_unibin"],
}


@pytest.mark.parametrize("case", list(TEARDOWN))
def test_failed_run_turns_instrumentation_off(world, capsys, monkeypatch, case):
    """A strict run that dies on the malformed last line still detaches the
    process-global fingerprint hook and closes the span log."""
    monkeypatch.setattr(fingerprint, "_METRICS", None)
    tracers = []

    class RecordingTracer(repro.obs.OfferTracer):
        closed = False

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracers.append(self)

        def close(self):
            super().close()
            self.closed = True

    monkeypatch.setattr(repro.obs, "OfferTracer", RecordingTracer)
    with pytest.raises(DatasetError):
        run(world, capsys, TEARDOWN[case] + ["--metrics-out", "{tmp}/m.json"])
    assert fingerprint._METRICS is None
    assert all(tracer.closed for tracer in tracers)
    assert len(tracers) == (1 if case == "posts-single" else 0)
