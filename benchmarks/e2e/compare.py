"""Compare two sets of benchmark results by the guide's section-8 rule.

    python3 benchmarks/e2e/compare.py A/ [B/]

Each directory holds one file per run, named ``<workload>-<anything>.json``,
whose last line is the result object `run.py` prints (redirecting its
stdout is enough). Per (workload, end-to-end metric) this prints each
side's median and quartiles, B's change against A, the share of pairs B
won, A's own run-to-run spread (IQR / median) and a verdict against the
bound in ``BENCHMARK.json``:

* ``regressed``  B's median is worse than A's by more than the bound;
* ``unresolved`` A's spread is wider than the bound, so a change of the
  bound's size cannot be told from noise (unless every B beats every A);
* ``gain``       B wins >= 9/10 of the pairs and the medians differ by
  more than A's spread;
* ``ok``         none of the above.

With one directory it prints that set's medians and spreads only. Exits 1
if anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def load(directory: str) -> dict[str, list[dict]]:
    """workload -> list of ``metrics`` dicts, in file-name order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        result = json.loads(lines[-1])
        runs.setdefault(path.name.rpartition("-")[0], []).append(result["metrics"])
    return runs


def values(runs: list[dict], metric: str) -> list[float]:
    return [run[metric]["value"] for run in runs if metric in run]


def quartiles(sample: list[float]) -> tuple[float, float, float]:
    if len(sample) < 2:
        return sample[0], sample[0], sample[0]
    q1, q2, q3 = statistics.quantiles(sample, n=4)
    return q1, q2, q3


def spread(sample: list[float]) -> float:
    """IQR as a share of the median (what the driver gates on)."""
    q1, q2, q3 = quartiles(sample)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, worse_by, share of pairs b won)``."""
    change = worse_by(statistics.median(a), statistics.median(b), better)
    pairs = list(zip(a, b))
    wins = sum((y < x) if better == "lower" else (y > x) for x, y in pairs)
    ties = sum(x == y for x, y in pairs)
    won = wins / (len(pairs) - ties) if len(pairs) > ties else 0.0
    noise = spread(a)
    clean_sweep = all(
        (y < x) if better == "lower" else (y > x) for x in a for y in b
    )
    if change > bound:
        return "regressed", change, won
    if noise > bound and not clean_sweep:
        return "unresolved", change, won
    if won >= 0.9 and abs(change) > noise and change < 0:
        return "gain", change, won
    return "ok", change, won


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__)
        return 2
    a_runs = load(argv[0])
    b_runs = load(argv[1]) if len(argv) == 2 else None
    status = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        if workload not in a_runs:
            continue
        print(f"== {workload} ({len(a_runs[workload])} runs"
              + (f" vs {len(b_runs.get(workload, []))}" if b_runs else "") + ") ==")
        for metric in SPEC["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            a = values(a_runs[workload], name)
            if not a:
                continue
            q1, q2, q3 = quartiles(a)
            line = f"{name:<24} A {q2:>10.4g} [{q1:.4g}, {q3:.4g}] spread {spread(a):6.2%}"
            if b_runs and values(b_runs.get(workload, []), name):
                b = values(b_runs[workload], name)
                p1, p2, p3 = quartiles(b)
                what, change, won = verdict(a, b, better, bound)
                line += (
                    f" | B {p2:>10.4g} [{p1:.4g}, {p3:.4g}] spread {spread(b):6.2%}"
                    f" | worse by {change:+7.2%} (bound {bound:.0%}) pairs won {won:4.0%} -> {what}"
                )
                if what == "regressed":
                    status = 1
            else:
                line += f" (bound {bound:.0%})" + ("  > bound/3" if spread(a) > bound / 3 else "")
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
