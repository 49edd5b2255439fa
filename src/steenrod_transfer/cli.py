"""Command line front end.

Four subcommands: `annihilated` prints the annihilated subspace of one
(algebra, rank, degree) cell, `transfer` adds the chain-level transfer
image and class of each basis element, `verify` runs a named check
suite, and `table` sweeps a degree range into CSV.

Action matrices are memoized on disk under the config's cache
directory (override with the STRAT_CACHE environment variable) in the
GF2M format; writes go through a temp file and an atomic rename so
concurrent runs never see partial files.  A cache file that cannot be
read or has the wrong shape counts as a miss and is rewritten.

Exit codes: 0 success, 1 a verification check failed, 2 usage error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

from .bv import HElement, annihilated_subspace, action_matrix, basis_dim, coinvariant_quotient
from .checks import SUITES, run_suite, suite_report
from .cobar import hclass_str
from .gf2 import BudgetError, GF2Matrix
from .milnor import Profile, Pst
from .transfer import transfer_chain, transfer_class, verify_cocycle

__all__ = ["RunConfig", "default_config", "parse_algebra", "parse_degree_range", "main"]


@dataclass
class RunConfig:
    cache_dir: Path
    max_rank: int = 4
    max_degree: int = 40
    max_degree_low_rank: int = 600  # applies at rank <= 2
    oracle_mode: bool = False

    def __post_init__(self):
        self.cache_dir = Path(self.cache_dir)
        if self.max_rank <= 0 or self.max_degree <= 0:
            raise ValueError("budgets must be positive")

    def degree_budget(self, rank: int) -> int:
        return self.max_degree_low_rank if rank <= 2 else self.max_degree

    def check_budget(self, rank: int, degree: int) -> None:
        if rank > self.max_rank:
            raise BudgetError(f"rank {rank} exceeds budget {self.max_rank}")
        if degree > self.degree_budget(rank):
            raise BudgetError(
                f"degree {degree} exceeds budget {self.degree_budget(rank)} at rank {rank}"
            )


def default_config() -> RunConfig:
    env = os.environ.get("STRAT_CACHE")
    if env:
        cache = Path(env)
    else:
        cache = Path.home() / ".cache" / "steenrod-transfer"
    return RunConfig(cache_dir=cache)


# -- disk cache ----------------------------------------------------------


def _cached_matrix(cfg: RunConfig) -> Callable[[object, int, int], GF2Matrix]:
    def provider(op, rank: int, degree: int) -> GF2Matrix:
        if not isinstance(op, Pst):
            return action_matrix(op, rank, degree)
        path = cfg.cache_dir / f"act_s{op.s}_t{op.t}_r{rank}_d{degree}.gf2m"
        try:
            mat = GF2Matrix.from_bytes(path.read_bytes())
        except (OSError, ValueError):
            mat = None
        if mat is not None and (mat.nrows, mat.ncols) == (
            basis_dim(rank, degree - op.degree),
            basis_dim(rank, degree),
        ):
            return mat
        mat = action_matrix(op, rank, degree)
        cfg.cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cfg.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(mat.to_bytes())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return mat

    return provider


# -- argument parsing ------------------------------------------------------


def parse_algebra(text: str) -> Profile:
    """A, E<m>, D<m>, D, or profile=v1,v2,... (last value repeats; 'inf'
    for an unbounded tail)."""
    t = text.strip()
    compact = t.replace("(", "").replace(")", "")
    if compact in ("A", "a"):
        return Profile.full()
    if compact in ("D", "d"):
        return Profile.D()
    if compact[:1] in ("E", "e", "D", "d") and compact[1:].isdigit():
        m = int(compact[1:])
        if m < 1:
            raise ValueError(f"need a positive index in {text!r}")
        return Profile.E(m) if compact[0] in ("E", "e") else Profile.D(m)
    if t.startswith("profile="):
        parts = [p.strip() for p in t[len("profile=") :].split(",") if p.strip()]
        if not parts:
            raise ValueError("empty profile literal")
        tail_value: Optional[int]
        if parts[-1] in ("inf", "infinity"):
            tail_value, heads = None, parts[:-1]
        else:
            tail_value, heads = int(parts[-1]), parts[:-1]
        return Profile(tuple(int(p) for p in heads), "const", tail_value)
    raise ValueError(f"cannot read algebra {text!r}")


def parse_degree_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.strip().isdigit() or not hi.strip().isdigit():
        raise ValueError(f"degree range must look like a..b, got {text!r}")
    return range(int(lo), int(hi) + 1)


def _bounded_int(least: int) -> Callable[[str], int]:
    """An argparse type accepting integers >= least."""

    def parse(text: str) -> int:
        try:
            if int(text) >= least:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text!r}")

    return parse


def _degree_range_arg(text: str) -> range:
    try:
        degrees = parse_degree_range(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    if not degrees:
        raise argparse.ArgumentTypeError(f"empty degree range {text!r}: need a <= b")
    return degrees


def _word_json(word: Tuple) -> dict:
    return {"slots": [[list(pair) for pair in letter] for letter in word]}


# -- subcommands ------------------------------------------------------------


def cmd_annihilated(cfg: RunConfig, args) -> int:
    profile = parse_algebra(args.algebra)
    cfg.check_budget(args.rank, args.degree)
    sub = annihilated_subspace(
        profile,
        args.rank,
        args.degree,
        exhaustive=args.oracle or cfg.oracle_mode,
        matrix=_cached_matrix(cfg),
    )
    elements = [
        HElement.from_coords(args.rank, args.degree, v) for v in sub.basis
    ]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "algebra": args.algebra,
                    "rank": args.rank,
                    "degree": args.degree,
                    "ambient_dim": basis_dim(args.rank, args.degree),
                    "dim": sub.dim,
                    "basis": [e.to_dict() for e in elements],
                },
                indent=1,
            )
        )
    elif args.format == "csv":
        print("rank,degree,dim,element")
        for e in elements:
            print(f"{args.rank},{args.degree},{sub.dim},{e}")
    else:
        print(f"dim P H_{args.degree}(BV_{args.rank}) = {sub.dim}  [{args.algebra}]")
        for e in elements:
            print(f"  {e}")
    return 0


def cmd_transfer(cfg: RunConfig, args) -> int:
    profile = parse_algebra(args.algebra)
    cfg.check_budget(args.rank, args.degree)
    sub = annihilated_subspace(
        profile, args.rank, args.degree, matrix=_cached_matrix(cfg)
    )
    elementary = profile.is_elementary()
    rows = []
    for v in sub.basis:
        e = HElement.from_coords(args.rank, args.degree, v)
        img = transfer_chain(e, profile)
        cocycle = verify_cocycle(img, profile)
        cls = None
        if elementary and cocycle:
            cls = transfer_class(e, profile)
        rows.append((e, img, cocycle, cls))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "algebra": args.algebra,
                    "rank": args.rank,
                    "degree": args.degree,
                    "dim": sub.dim,
                    "elements": [
                        {
                            "element": e.to_dict(),
                            "image": [_word_json(w) for w in sorted(img.words)],
                            "cocycle": cocycle,
                            "class": sorted(map(list, cls)) if cls is not None else None,
                        }
                        for e, img, cocycle, cls in rows
                    ],
                },
                indent=1,
            )
        )
    else:
        print(
            f"transfer on P H_{args.degree}(BV_{args.rank}) "
            f"[{args.algebra}], dim {sub.dim}"
        )
        for e, img, cocycle, cls in rows:
            tag = "zero" if img.is_zero() else f"{len(img.words)} words"
            line = f"  {e} -> {tag}, cocycle: {cocycle}"
            if cls is not None:
                line += f", class: {hclass_str(cls) if cls else '0'}"
            print(line)
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    if args.suite not in SUITES:
        print(
            f"unknown suite {args.suite!r}; choose from {', '.join(sorted(SUITES))}",
            file=sys.stderr,
        )
        return 2
    if args.format == "json":
        report = suite_report(args.suite)
        print(json.dumps(report, indent=1))
        return 0 if report["passed"] else 1
    ok = run_suite(args.suite)
    print("suite result:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_table(cfg: RunConfig, args) -> int:
    profile = parse_algebra(args.algebra)
    degrees = args.degree_range
    for d in degrees:
        cfg.check_budget(args.rank, d)

    rows = []
    for d in degrees:
        sub = annihilated_subspace(
            profile, args.rank, d, matrix=_cached_matrix(cfg)
        )
        rows.append(f"{d},{sub.dim},{coinvariant_quotient(sub, args.rank, d).dim}")
    print("degree,annihilated_dim,coinvariant_dim")
    for row in rows:
        print(row)
    return 0


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steenrod-transfer",
        description="exact computations with the Steenrod action on H_*(BV_n) "
        "and the chain-level transfer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree=True):
        p.add_argument(
            "--algebra",
            required=True,
            help="A, E<m>, D<m>, D, or profile=v1,v2,... (last value repeats)",
        )
        p.add_argument("--rank", type=_bounded_int(1), required=True)
        if degree:
            p.add_argument("--degree", type=_bounded_int(0), required=True)

    p = sub.add_parser("annihilated", help="basis of the annihilated subspace")
    common(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="use every positive-degree operation instead of the generator list",
    )
    p.set_defaults(func=cmd_annihilated)

    p = sub.add_parser("transfer", help="transfer image of each annihilated basis element")
    common(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help=", ".join(sorted(SUITES)))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="annihilated and coinvariant dims over a degree range")
    common(p, degree=False)
    p.add_argument(
        "--degree-range", type=_degree_range_arg, required=True, help="a..b, inclusive, a <= b"
    )
    p.add_argument("--format", choices=("csv",), default="csv")
    p.set_defaults(func=cmd_table)
    return parser


def main(argv: Optional[Sequence[str]] = None, config: Optional[RunConfig] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config if config is not None else default_config()
    try:
        return args.func(cfg, args)
    except BudgetError as e:
        print(f"budget error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
