"""Smoke test of the benchmark itself, on small rank-2 cells.

    python3 perfbench/smoke.py

Checks that the metrics `run.py` emits are exactly the ones BENCHMARK.json
names, with the same units, in both the untraced and the traced run, and
that an output that does not match its pinned value counts as a failed
operation.  Takes a few seconds; exits non-zero on the first mismatch.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

# Full algebra, rank 2: (annihilated dim, coinvariant dim) per degree.
R2_TABLE = {3: (3, 1), 7: (3, 1), 8: (3, 1)}


def expect(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"smoke: FAILED: {what}")


def declared(benchmark: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in benchmark[key]}


def emitted(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in benchmark["workloads"]} == set(run.WORKLOADS), "workload names")
    end_to_end, per_layer = declared(benchmark, "end_to_end"), declared(benchmark, "per_layer")

    ops = tuple(run.table_op("A", 2, d, dims) for d, dims in R2_TABLE.items())
    good = run.Workload("smoke-r2", ops + (run.transfer_op("A", 2, 3, 3),))
    # The degree-8 cell pinned to a wrong value: one failure per pass.
    wrong = run.Workload("smoke-r2-wrong", ops[:-1] + (run.table_op("A", 2, 8, (3, 2)),))

    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.WORK))
    try:
        result, _ = run.measure(good, seed=1, seconds=0.5, trace=False, work=work)
        expect(result["correct"] and result["failed"] == 0, f"untraced run is correct: {result}")
        expect(emitted(result) == end_to_end, f"end-to-end metrics and units: {emitted(result)}")
        expect(all(m["value"] > 0 for m in result["metrics"].values()), "end-to-end metrics are nonzero")

        result, _ = run.measure(good, seed=1, seconds=0.5, trace=True, work=work)
        expect(result["correct"] and result["failed"] == 0, f"traced run is correct: {result}")
        expect(emitted(result) == per_layer, f"per-layer metrics and units: {sorted(emitted(result))}")

        result, _ = run.measure(wrong, seed=1, seconds=0.5, trace=False, work=work)
        passes = (result["attempted"] - run.SETUP_PROBES) // len(wrong.ops)
        expect(not result["correct"], "a wrong pinned output makes the run incorrect")
        expect(passes >= 1 and result["failed"] == passes, f"one failed operation per pass: {result}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
