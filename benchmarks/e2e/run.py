"""End-to-end benchmark of a post's whole life through `repro serve`.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

boots a real `python -m repro serve` subprocess on a world generated from
the seed, drives the fixed phase script at it closed-loop over HTTP,
checks every reply against the reference, and prints every metric by name
with its unit; the last stdout line is the result as one JSON object.
``--trace 1`` reports the per-layer metrics instead (see tracing.py).
Without ``--workload`` all four run, one result line each. README.md in
this directory has the protocol and the metric tables.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import driver  # noqa: E402
import phases  # noqa: E402
import tracing  # noqa: E402
from reference import GOLDEN_PATH, build_script, golden_key, load_golden  # noqa: E402
from workloads import WORKLOADS, build_world  # noqa: E402

DEFAULT_SEED = 20160315
#: `--seconds` buys rounds: 4 phases x rounds x ~1/8 s of measured work.
ROUNDS_PER_SECOND = 2
MIN_ROUNDS = 4
SMOKE_ROUNDS = 4

#: everything the benchmark writes lives here, under the working directory
SCRATCH = Path(".benchmarks").resolve() / "e2e"


def rounds_for(seconds: float) -> int:
    return max(MIN_ROUNDS, int(seconds * ROUNDS_PER_SECOND))


def run_workload(name: str, seed: int, rounds: int, *, trace: bool, smoke: bool) -> dict:
    """One workload, one mode: the contract's result object, plus
    ``failures`` and ``info`` for the human-readable report."""
    started = time.perf_counter()
    workload = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
    world = build_world(workload, seed)
    script = build_script(world, rounds)
    built = time.perf_counter()
    run_dir = SCRATCH / f"run-{name}-{seed}-{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    phases.write_world(world, run_dir)
    calibrator = driver.Calibrator()
    try:
        if trace:
            trace_path = SCRATCH / f"trace-{name}.jsonl"
            result = tracing.run_traced(world, script, run_dir, calibrator, trace_path)
            units = dict(tracing.PER_LAYER)
        else:
            result = phases.run_normal(world, script, run_dir, calibrator, repeats=not smoke)
            units = dict(phases.END_TO_END)
    finally:
        calibrator.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    golden = load_golden().get(golden_key(name, rounds, smoke))
    if golden is not None and seed == DEFAULT_SEED and not trace:
        result["attempted"] += 1
        if golden != script.digests():
            result["failed"] += 1
            result["failures"].append("script digests differ from golden.json")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in result["metrics"].items()
        },
        "failures": result["failures"],
        "info": {
            **result["info"],
            "wall": f"script {built - started:.1f} s, run {time.perf_counter() - built:.1f} s",
        },
    }


def regen_golden(seconds: float) -> None:
    golden = {}
    for name, workload in WORKLOADS.items():
        for smoke, rounds in ((False, rounds_for(seconds)), (True, SMOKE_ROUNDS)):
            shape = workload.smoke() if smoke else workload
            script = build_script(build_world(shape, DEFAULT_SEED), rounds)
            golden[golden_key(name, rounds, smoke)] = script.digests()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


def report(name: str, seed: int, rounds: int, result: dict) -> None:
    print(f"== {name} (seed {seed}, {rounds} rounds/phase) ==")
    width = max(map(len, result["metrics"]))
    for metric, entry in result["metrics"].items():
        print(f"{metric:<{width}}  {entry['value']:>14.6g} {entry['unit']}")
    for key, value in result["info"].items():
        print(f"  {key}: {value}")
    print(f"ops_attempted {result['attempted']}  ops_failed {result['failed']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
        help="1 = report the per-layer metrics from a traced in-process run",
    )  # fmt: skip
    parser.add_argument("--smoke", action="store_true", help="4 rounds per phase, worlds / 20")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.regen_golden:
        regen_golden(spec["run_seconds"])
        return 0
    rounds = SMOKE_ROUNDS if args.smoke else rounds_for(args.seconds)
    if args.trace:
        # The traced run does everything twice (subprocess + in-process), so
        # it gets half the rounds to stay inside the same wall-clock budget.
        rounds = max(MIN_ROUNDS, rounds // 2)
    driver.pin_to_one_cpu()
    status = 0
    for name in [args.workload] if args.workload else list(WORKLOADS):
        result = run_workload(name, args.seed, rounds, trace=bool(args.trace), smoke=args.smoke)
        report(name, args.seed, rounds, result)
        del result["failures"], result["info"]
        if not result["correct"]:
            status = 1  # a failed run prints no result line
        elif args.workload:
            print(json.dumps(result))
        else:
            print(json.dumps({"workload": name, **result}))
    return status


if __name__ == "__main__":
    sys.exit(main())
