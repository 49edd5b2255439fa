"""Benchmark of the steenrod-transfer command line, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --reach

Run it from the repository root; it imports the library from `src`.
Each operation is a fresh interpreter running the CLI (`child.py`), one
at a time: a closed loop with one client.  A run repeats the workload
for S seconds (at least once) and reports medians over the repetitions.
Every output is checked against pinned values that do not depend on the
choice of basis.  The seed sets the order of the operations in each
repetition and every process's PYTHONHASHSEED.  Cache directories are
fresh temporary directories under `perfbench/.work`, so the user's
cache is never read or written.

`--trace 0` prints the end-to-end metrics; `--trace 1` makes one
untraced and one traced pass (`traced.py`) and prints the per-layer
metrics.  The last line of standard output is the result as JSON; the
line before it records the provenance and the share of failed
operations.  `--reach` is a one-shot probe of the largest rank-4 degree
of the full algebra whose annihilated subspace finishes under the
default budgets.  See README.md in this directory for the workloads and
how the layer metrics relate to the end-to-end ones.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

OP_TIMEOUT_S = 150.0
SETUP_PROBES = 15

# Verdicts of `verify all` at the seed commit, in suite order.  The two
# red criteria are documented as failing and count as expected verdicts.
CRITERIA = {
    "rank1-action-binomial-oracle": True,
    "rank1-annihilation-predicates": True,
    "transfer-image-windows": True,
    "rank2-degree11-witness": False,
    "rank4-degree20-kernel": True,
    "rank4-degree14-fixture": True,
    "rank4-degree17-existence": False,
    "cobar-consistency": True,
    "kameko-frobenius": True,
    "paired-spike-family": True,
    "stratified-invariance-example": True,
    "diagonal-spike-transfer": True,
}

# (annihilated dim, coinvariant dim) of the full algebra at rank 4.
SWEEP_R4 = {18: (126, 2), 19: (140, 0), 20: (55, 0), 21: (94, 0), 22: (116, 1), 23: (155, 1), 24: (70, 0)}

# Annihilated dim of the full algebra at rank 4, for the transfer workload.
TRANSFER_R4 = {14: 50, 15: 75, 17: 87}

LRU_FUNCS = (
    "action_matrix",
    "degree_basis",
    "dual_basis",
    "cell_basis",
    "differential_matrix",
    "f_star",
    "_class_solver",
    "_coproduct_mono",
)

# Per-layer metrics the traced run reports, with their units.
LAYER_UNITS = {
    "bv.annihilated_subspace.s": "s",
    "bv.action_matrix.s": "s",
    "gf2.kernel.s": "s",
    "bv.ambient_dim": "count",
    "bv.action_matrix.rows": "count",
    "gf2.kernel.bits": "count",
    "bv.coinvariant_quotient.s": "s",
    "cli.cache.files": "count",
    "cli.cache.bytes": "B",
    "cobar.is_cocycle.s": "s",
    "transfer.words": "count",
    "transfer.transfer_chain.s": "s",
    "cobar.class_of.s": "s",
    "cobar.class_of.calls": "count",
    **{f"checks.{name}.s": "s" for name in CRITERIA},
    **{f"checks.{name}.cold_s": "s" for name in CRITERIA},
    **{f"lru.{fn}.{kind}": "count" for fn in LRU_FUNCS for kind in ("hits", "misses")},
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "max_op_s": "s", "peak_rss_mb": "MB"}


# -- operations and their checks ------------------------------------------


@dataclass(frozen=True)
class Outcome:
    attempted: int
    failed: int
    # Times of the parts the operation is made of, by name, when it
    # reports them itself (the criteria of `verify`); otherwise the
    # operation is one part timed by its process wall time.
    part_times: Optional[Dict[str, float]] = None


@dataclass(frozen=True)
class Op:
    args: Tuple[str, ...]
    check: Callable[[int, str], Outcome]


def table_op(algebra: str, rank: int, degree: int, dims: Tuple[int, int]) -> Op:
    def check(rc: int, out: str) -> Outcome:
        rows = [r for r in csv.DictReader(io.StringIO(out)) if r.get("degree") == str(degree)]
        ok = (
            rc == 0
            and len(rows) == 1
            and (rows[0].get("annihilated_dim"), rows[0].get("coinvariant_dim")) == tuple(map(str, dims))
        )
        return Outcome(1, 0 if ok else 1)

    return Op(("table", "--algebra", algebra, "--rank", str(rank), "--degree-range", f"{degree}..{degree}"), check)


def transfer_op(algebra: str, rank: int, degree: int, dim: int) -> Op:
    def check(rc: int, out: str) -> Outcome:
        lines = out.splitlines()
        head = re.search(r"dim (\d+)$", lines[0]) if lines else None
        images = [line for line in lines[1:] if line.startswith("  ")]
        ok = (
            rc == 0
            and head is not None
            and int(head.group(1)) == dim
            and len(images) == dim
            and all("cocycle: True" in line for line in images)
        )
        return Outcome(1, 0 if ok else 1)

    return Op(("transfer", "--algebra", algebra, "--rank", str(rank), "--degree", str(degree)), check)


def verify_op(expected: dict) -> Op:
    expected_rc = 0 if all(expected.values()) else 1

    def check(rc: int, out: str) -> Outcome:
        try:
            criteria = {c["name"]: c for c in json.loads(out)["criteria"]}
        except (ValueError, KeyError, TypeError):
            return Outcome(len(expected), len(expected))
        if rc != expected_rc:
            return Outcome(len(expected), len(expected))
        failed = sum(1 for name, want in expected.items() if criteria.get(name, {}).get("passed") is not want)
        times = {name: float(c.get("elapsed", 0.0)) for name, c in criteria.items()}
        return Outcome(len(expected), failed, times)

    return Op(("verify", "all", "--format", "json"), check)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Tuple[Op, ...]
    # The cache directory is filled once before timing and then only read.
    warm: bool = False
    # Criteria the traced run also times cold, each in its own process.
    cold_criteria: Tuple[str, ...] = ()


def _sweep(name: str, warm: bool) -> Workload:
    return Workload(name, tuple(table_op("A", 4, d, dims) for d, dims in SWEEP_R4.items()), warm=warm)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-all", (verify_op(CRITERIA),), cold_criteria=tuple(CRITERIA)),
        _sweep("sweep-a-r4", warm=False),
        _sweep("sweep-a-r4-warm", warm=True),
        Workload("transfer-a-r4", tuple(transfer_op("A", 4, d, dim) for d, dim in TRANSFER_R4.items())),
    )
}


# -- processes ----------------------------------------------------------------


@dataclass(frozen=True)
class Proc:
    rc: int
    stdout: str
    start: float
    end: float
    setup: Optional[float]
    rss_mb: float
    cpu_s: float
    # What child.py reports on its way out (see pace.py): the sampler's
    # time before the ready mark and in all, the processor's pace, and
    # the paced times of the verification criteria that ran.
    setup_cal: Optional[float] = None
    cal_s: float = 0.0
    pace: Optional[float] = None
    parts: Optional[Dict[str, float]] = None

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def work_wall(self) -> float:
        """Wall time without the sampler's own time."""
        return self.wall - self.cal_s

    @property
    def paced_setup(self) -> Optional[float]:
        if self.pace is None or self.setup is None or self.setup_cal is None:
            return None
        return (self.setup - self.setup_cal) * self.pace


class Runner:
    """Spawns one process at a time and records its resources."""

    def __init__(self, work: Path, rng: random.Random):
        self.work = work
        self.rng = rng
        self.count = 0

    def env(self, cache_dir: Path) -> dict:
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED=str(self.rng.randrange(2**32)),
            STRAT_CACHE=str(cache_dir),
        )
        return env

    def spawn(self, script: str, args: Tuple[str, ...], cache_dir: Path, timeout: float = OP_TIMEOUT_S) -> Proc:
        """Run `script READY_FD ARGS...` and wait for it to end."""
        self.count += 1
        env = self.env(cache_dir)
        ready_r, ready_w = os.pipe()
        try:
            with open(self.work / f"out-{self.count}", "w+b") as out:
                start = time.monotonic()
                try:
                    proc = subprocess.Popen(
                        [sys.executable, str(HERE / script), str(ready_w), *args],
                        stdin=subprocess.DEVNULL,
                        stdout=out,
                        pass_fds=(ready_w,),
                        env=env,
                        cwd=ROOT,
                    )
                finally:
                    os.close(ready_w)
                timer = threading.Timer(timeout, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    timer.cancel()
                end = time.monotonic()
                proc.returncode = os.waitstatus_to_exitcode(status)
                out.seek(0)
                stdout = out.read().decode(errors="replace")
            chunks = []
            while True:
                chunk = os.read(ready_r, 4096)
                if not chunk:
                    break
                chunks.append(chunk)
        finally:
            os.close(ready_r)
        lines = b"".join(chunks).decode(errors="replace").splitlines()
        try:
            setup: Optional[float] = float(lines[0]) - start
        except (IndexError, ValueError):
            setup = None
        try:
            stats = json.loads(lines[1])
            paced = dict(
                setup_cal=stats["setup_cal"],
                cal_s=float(stats["cal"]),
                pace=float(stats["pace"]),
                parts={name: float(t) for name, t in stats.get("parts", {}).items()},
            )
        except (IndexError, ValueError, KeyError, TypeError):
            paced = {}
        return Proc(
            proc.returncode,
            stdout,
            start,
            end,
            setup,
            usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime,
            **paced,
        )


# -- measuring ------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, outcome: Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed


@dataclass(frozen=True)
class Pass:
    """One repetition of a workload: every operation once."""

    procs: Tuple[Proc, ...]
    # Sum of the processes' paced wall times, in reference seconds.
    wall: float
    # From the start of the first process to the end of the last, in
    # seconds, as the clock read it.
    raw_wall: float
    # Paced time of each operation, or of each part an operation reports.
    op_times: Dict[str, float]


def run_pass(runner: Runner, workload: Workload, cache_dir: Path, tally: Tally) -> Pass:
    procs: List[Proc] = []
    op_times: Dict[str, float] = {}
    for op in runner.rng.sample(workload.ops, len(workload.ops)):
        proc = runner.spawn("child.py", op.args, cache_dir)
        outcome = op.check(proc.rc, proc.stdout)
        if proc.pace is None:
            # The process did not report its pace, so it cannot be timed.
            outcome = Outcome(outcome.attempted, outcome.attempted, outcome.part_times)
        tally.add(outcome)
        procs.append(proc)
        pace = proc.pace or 1.0
        if outcome.part_times:
            # The child paces each part over its own stretch of time.  A
            # part it did not see is paced here with the process's pace;
            # its time, as the operation printed it, includes the sampler's.
            share = proc.work_wall / proc.wall
            seen = proc.parts or {}
            op_times.update({name: seen.get(name, t * share * pace) for name, t in outcome.part_times.items()})
        else:
            op_times[" ".join(op.args)] = proc.work_wall * pace
    wall = sum(p.work_wall * (p.pace or 1.0) for p in procs)
    return Pass(tuple(procs), wall, procs[-1].end - procs[0].start, op_times)


def run_traced_pass(runner: Runner, workload: Workload, cache_dir: Path, tally: Tally) -> Tuple[float, dict]:
    """Every operation once through traced.py; returns the wall time and
    the layer metrics summed over the operations."""
    metrics: dict = {}
    start = time.monotonic()
    for op in runner.rng.sample(workload.ops, len(workload.ops)):
        result_path = runner.work / f"traced-{runner.count}.json"
        runner.spawn("traced.py", (str(result_path), *op.args), cache_dir)
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = {"rc": -1, "stdout": "", "metrics": {}}
        tally.add(op.check(result["rc"], result["stdout"]))
        for name, value in result["metrics"].items():
            metrics[name] = metrics.get(name, 0) + value
    return time.monotonic() - start, metrics


def _fresh_dir(parent: Path) -> Path:
    return Path(tempfile.mkdtemp(prefix="cache-", dir=parent))


def _dir_usage(path: Path) -> Tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Tuple[dict, dict]:
    """Returns the result and notes on how it was measured."""
    rng = random.Random(f"{workload.name}:{seed}")
    runner = Runner(work, rng)
    tally = Tally()
    # Every cold pass gets its own empty cache directory; the warm
    # workload fills one here, before any timing, and then only reads it.
    warm_dir = _fresh_dir(work)
    if workload.warm:
        run_pass(runner, workload, warm_dir, tally)

    def cache_dir() -> Path:
        return warm_dir if workload.warm else _fresh_dir(work)

    # The first spawn may still write bytecode caches; it is not timed.
    runner.spawn("child.py", (), warm_dir)

    if not trace:
        probes = [runner.spawn("child.py", (), warm_dir) for _ in range(SETUP_PROBES)]
        for probe in probes:
            tally.add(Outcome(1, 0 if probe.rc == 0 and probe.paced_setup is not None else 1))
        passes: List[Pass] = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(run_pass(runner, workload, cache_dir(), tally))
        procs = [p for ps in passes for p in ps.procs]
        per_op: Dict[str, List[float]] = {}
        for ps in passes:
            for op, t in ps.op_times.items():
                per_op.setdefault(op, []).append(t)
        metrics = {
            "setup_s": statistics.median(p.paced_setup for p in probes + procs if p.paced_setup is not None),
            "wall_s": statistics.median(ps.wall for ps in passes),
            "max_op_s": max(statistics.median(times) for times in per_op.values()),
            "peak_rss_mb": max(p.rss_mb for p in procs),
        }
        notes = {
            "passes": len(passes),
            "raw_wall_s": statistics.median(ps.raw_wall for ps in passes),
            "pace": statistics.median(p.pace for p in procs if p.pace is not None),
        }
        units = E2E_UNITS
    else:
        notes = {}
        untraced = run_pass(runner, workload, cache_dir(), tally)
        traced_dir = cache_dir()
        traced_wall, metrics = run_traced_pass(runner, workload, traced_dir, tally)
        if "bv.annihilated_subspace.s" in metrics and "bv.action_matrix.s" in metrics:
            metrics["gf2.kernel.s"] = metrics["bv.annihilated_subspace.s"] - metrics["bv.action_matrix.s"]
        metrics["cli.cache.files"], metrics["cli.cache.bytes"] = _dir_usage(traced_dir)
        for name in CRITERIA:
            metrics[f"checks.{name}.cold_s"] = 0.0
        for name in workload.cold_criteria:
            proc = runner.spawn("child.py", ("--criterion", name), warm_dir)
            try:
                report = json.loads(proc.stdout)
                ok = proc.rc == 0 and report["passed"] is CRITERIA[name]
                metrics[f"checks.{name}.cold_s"] = float(report["elapsed"])
            except (ValueError, KeyError, TypeError):
                ok = False
            tally.add(Outcome(1, 0 if ok else 1))
        metrics["proc.cpu_s"] = sum(p.cpu_s for p in untraced.procs)
        metrics["trace.overhead_s"] = traced_wall - sum(p.work_wall for p in untraced.procs)
        units = LAYER_UNITS
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items() if name in units},
    }
    return result, notes


# -- reach probe ------------------------------------------------------------------


def reach(work: Path, top: int = 40) -> dict:
    """Largest rank-4 degree <= top of the full algebra whose annihilated
    subspace the CLI finishes under its default budgets, scanning down."""
    runner = Runner(work, random.Random(0))
    tried = []
    found = None
    for degree in range(top, 0, -1):
        args = ("annihilated", "--algebra", "A", "--rank", "4", "--degree", str(degree), "--format", "json")
        proc = runner.spawn("child.py", args, _fresh_dir(work), timeout=600.0)
        tried.append({"degree": degree, "rc": proc.rc, "wall_s": proc.work_wall, "peak_rss_mb": proc.rss_mb})
        print(json.dumps(tried[-1]), flush=True)
        if proc.rc == 0:
            found = degree
            break
    return {"reach_rank4_A_degree": found, "tried": tried}


# -- entry point --------------------------------------------------------------------


def provenance(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reach", action="store_true", help="run the one-shot reach probe instead")
    args = parser.parse_args(argv)
    if not args.reach and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "steenrod_transfer" / "cli.py").is_file():
        print(f"perfbench: no library under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.reach:
            print(json.dumps({**reach(work), **provenance("reach", args.seed)}))
            return 0
        result, notes = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
        info = {**provenance(args.workload, args.seed), **notes}
        info["ops_failed_frac"] = result["failed"] / result["attempted"]
        print("info " + json.dumps(info))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
