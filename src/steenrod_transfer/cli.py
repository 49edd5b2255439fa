"""Command line front end.

Four subcommands: `annihilated` prints the annihilated subspace of one
(algebra, rank, degree) cell, `transfer` adds the chain-level transfer
image and class of each basis element, `verify` runs a named check
suite, and `table` sweeps a degree range into CSV.  Nothing is written
to disk; every cell is computed afresh.  `verify` runs its criteria and
`table` its degrees in forked worker processes, one per available CPU:
of n workers, item k runs in worker k mod n, which sends its result back
down a pipe.  No pool or thread is started, and the results are printed
in the order of the input.

A subcommand imports the layers it runs: besides `checks` (the suite
registry) and this module, `annihilated` and `table` load `gf2`,
`milnor` and `bv` only, `transfer` adds `cobar` and `transfer`, and
`verify` adds those two, `hit`, `stratr` and the criteria bodies
(`criteria`) before it forks.  Only the `json` branches import `json`.

`main` freezes the heap once the arguments are parsed and again as it
returns, and `verify` once more after its imports, before it forks; so
no collection of the command, of a worker or of interpreter exit walks
what the imports built or the caches the command filled: the library
leaves no reference cycles, so that walk would free nothing.

Exit codes: 0 success, 1 a verification check failed, 2 usage error
(raised while parsing), 3 budget exceeded, 4 internal error (any other
exception inside a command, a worker's re-raised here among them, or a
worker that ended without sending its result: a fault of the program,
not its input), and 141 (128 + SIGPIPE) a stdout closed early.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Tuple

from .bv import (
    HElement,
    _basis_index,
    annihilated_subspace,
    basis_dim,
    coinvariant_quotient,
    degree_basis,
)
from .checks import SUITES, run_criterion
from .gf2 import BudgetError
from .milnor import Profile

if TYPE_CHECKING:
    from .transfer import TransferImage

__all__ = ["parse_algebra", "parse_degree_range", "main"]


# budgets checked before a cell is computed
MAX_RANK = 4
MAX_DEGREE = 40
# applies at rank <= 2 but not to --oracle, which enumerates and keeps
# every Milnor basis element up to the degree
MAX_DEGREE_LOW_RANK = 600
# the largest E/D index or profile value --algebra reads; within the
# degree budgets any value of 10 or more already acts as inf
MAX_ALGEBRA_VALUE = 64


def _check_budget(rank: int, degree: int, oracle: bool = False) -> None:
    if rank > MAX_RANK:
        raise BudgetError(f"rank {rank} exceeds budget {MAX_RANK}")
    max_degree = MAX_DEGREE_LOW_RANK if rank <= 2 and not oracle else MAX_DEGREE
    if degree > max_degree:
        route = " with --oracle" if oracle else ""
        raise BudgetError(f"degree {degree} exceeds budget {max_degree} at rank {rank}{route}")


# -- argument parsing ------------------------------------------------------


_ALGEBRA_NAME = re.compile(r"([AaDd])|([EeDd])(?:([0-9]+)|\(([0-9]+)\))")


def parse_algebra(text: str) -> Profile:
    """A, D, E<m>, E(<m>), D<m>, D(<m>) (either case), or
    profile=v1,v2,... (last value repeats; 'inf' for an unbounded tail);
    m and each v at most MAX_ALGEBRA_VALUE."""

    def value(digits: str) -> int:
        v = int(digits)
        if v > MAX_ALGEBRA_VALUE:
            raise ValueError(f"{v} exceeds {MAX_ALGEBRA_VALUE} in {text!r}")
        return v

    t = text.strip()
    name = _ALGEBRA_NAME.fullmatch(t)
    if name is not None:
        bare, letter, digits, enclosed = name.groups()
        if bare is not None:
            return Profile.full() if bare in "Aa" else Profile.D()
        m = value(digits or enclosed)
        if m < 1:
            raise ValueError(f"need a positive index in {text!r}")
        return Profile.E(m) if letter in "Ee" else Profile.D(m)
    if t.startswith("profile="):
        parts = [p.strip() for p in t[len("profile=") :].split(",") if p.strip()]
        if not parts:
            raise ValueError("empty profile literal")
        tail_value: Optional[int]
        if parts[-1] in ("inf", "infinity"):
            tail_value, heads = None, parts[:-1]
        else:
            tail_value, heads = value(parts[-1]), parts[:-1]
        return Profile(tuple(map(value, heads)), "const", tail_value)
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


def _algebra_arg(text: str) -> str:
    """An argparse type checking text with parse_algebra, and keeping it."""
    try:
        parse_algebra(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    return text


def _degree_range_arg(text: str) -> range:
    try:
        degrees = parse_degree_range(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    if not degrees:
        raise argparse.ArgumentTypeError(f"empty degree range {text!r}: need a <= b")
    return degrees


def _map_in_workers(fn: Callable, items: Sequence) -> Iterator:
    """Yield fn(item) for each item, in the order of items.

    The items are shared out among forked worker processes, one per CPU
    this process may run on and at most one per item: of n workers, item
    k runs in worker k mod n, which writes it down its own pipe as a
    pickle, where it is read in turn.  No pool or thread is started.  fn
    must be a module-level function and its results picklable.  An
    exception that fn raises in a worker is raised here; a worker that
    ends without sending a result raises ChildProcessError, naming its
    signal or exit status.  Either way the workers still running are
    killed; every worker is reaped.  With one worker or without os.fork
    this is the plain map, in this process.  A forked worker inherits the
    imported package, where a fresh interpreter would import it again,
    and main's frozen heap, which its collections neither walk nor copy;
    forking is safe because the command line starts no thread.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    workers = min(len(items), cpus)
    if workers < 2 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    import pickle

    # a line still buffered would otherwise be written again by each worker
    sys.stdout.flush()
    pids: List[int] = []
    pipes: list = []
    done = False
    try:
        for w in range(workers):
            r, wr = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if not pid:
                    _serve(fn, items[w::workers], wr, pipes)
                pids.append(pid)
            finally:
                # held open by a later worker, it would never give EOF
                os.close(wr)
        for k in range(len(items)):
            w = k % workers
            try:
                ok, value = pickle.load(pipes[w])
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(os.waitpid(pids[w], 0)[1])
                pids[w] = 0
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"worker {w + 1} of {workers} {how} before sending its result")
            if not ok:
                raise value
            yield value
        done = True
    finally:
        # killed before their pipes close, they cannot fail writing to them
        for pid in filter(None, pids):
            if not done:
                import signal

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _serve(fn: Callable, share: Sequence, fd: int, inherited: list) -> None:
    """A worker's whole life: for each item of share, the pickle of
    (True, fn(item)), or of (False, the exception) and then no more,
    written to fd.  Ends the process; never returns."""
    import pickle

    code = 1
    try:
        # the parent's ends of the pipes, its own among them: held here,
        # they would keep a write from failing once the parent is gone,
        # and the worker would block on a full pipe for ever
        for pipe in inherited:
            pipe.close()
        with open(fd, "wb") as out:
            for item in share:
                try:
                    result = (True, fn(item))
                except Exception as e:
                    result = (False, e)
                out.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                out.flush()
                if not result[0]:
                    break
        code = 0
    except Exception:  # a result or exception that does not pickle
        import traceback

        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def _image_json(img: TransferImage) -> dict:
    """A transfer image as its slot factors, one entry per term, each slot
    its sorted monomials of [t, e] pairs, and the count of the words they
    expand to; sorted, so that no hash seed reorders it."""
    terms = sorted(tuple(tuple(sorted(poly)) for poly in polys) for polys in img.factors)
    return {"word_count": img.word_count(), "terms": [{"slots": t} for t in terms]}


# -- subcommands ------------------------------------------------------------


def cmd_annihilated(args) -> int:
    profile = parse_algebra(args.algebra)
    _check_budget(args.rank, args.degree, args.oracle)
    sub = annihilated_subspace(
        profile, args.rank, args.degree, exhaustive=args.oracle
    )
    elements = [
        HElement.from_coords(args.rank, args.degree, v) for v in sub.basis
    ]
    if args.format == "json":
        import json

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


def cmd_transfer(args) -> int:
    from .cobar import class_of, hclass_str
    from .transfer import cocycle_verdicts, transfer_chain

    profile = parse_algebra(args.algebra)
    _check_budget(args.rank, args.degree)
    sub = annihilated_subspace(profile, args.rank, args.degree)
    elementary = profile.is_elementary()
    elements = [HElement.from_coords(args.rank, args.degree, v) for v in sub.basis]
    images = [transfer_chain(e, profile) for e in elements]
    verdicts = cocycle_verdicts(args.rank, args.degree, sub.basis, images, profile)
    rows = []
    for e, img, cocycle in zip(elements, images, verdicts):
        cls = class_of(img.words, profile) if elementary and cocycle else None
        rows.append((e, img, cocycle, cls))
    if args.format == "json":
        import json

        # on one line: unindented, json's C encoder writes it, ~10x faster
        # than the indented Python one on the images' nested slot factors
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
                            "image": _image_json(img),
                            "cocycle": cocycle,
                            "class": sorted(map(list, cls)) if cls is not None else None,
                        }
                        for e, img, cocycle, cls in rows
                    ],
                }
            )
        )
    else:
        print(
            f"transfer on P H_{args.degree}(BV_{args.rank}) "
            f"[{args.algebra}], dim {sub.dim}"
        )
        for e, img, cocycle, cls in rows:
            tag = "zero" if img.is_zero() else f"{img.word_count()} words"
            line = f"  {e} -> {tag}, cocycle: {cocycle}"
            if cls is not None:
                line += f", class: {hclass_str(cls) if cls else '0'}"
            print(line)
    return 0


def cmd_verify(args) -> int:
    # the criteria and their layers, imported once here so that the
    # workers inherit them, and frozen with the rest of the heap before
    # the fork
    from . import cobar, criteria, hit, stratr, transfer

    gc.freeze()
    reports = []
    for report in _map_in_workers(run_criterion, SUITES[args.suite]):
        if args.format == "text":
            print("\n".join(report.lines()), flush=True)
        reports.append(report)
    passed = all(r.passed for r in reports)
    if args.format == "json":
        import json

        criteria = [r.to_dict() for r in reports]
        print(json.dumps({"suite": args.suite, "passed": passed, "criteria": criteria}, indent=1))
    else:
        print("suite result:", "PASS" if passed else "FAIL")
    return 0 if passed else 1


def _table_row(cell: Tuple[Profile, int, int]) -> str:
    profile, rank, degree = cell
    sub = annihilated_subspace(profile, rank, degree)
    row = f"{degree},{sub.dim},{coinvariant_quotient(sub, rank, degree).dim}"
    # the bases of this degree serve no other cell; kept, a sweep holds all of them
    degree_basis.cache_clear()
    _basis_index.cache_clear()
    return row


def cmd_table(args) -> int:
    profile = parse_algebra(args.algebra)
    degrees = args.degree_range
    for d in degrees:
        _check_budget(args.rank, d)

    rows = list(_map_in_workers(_table_row, [(profile, args.rank, d) for d in degrees]))
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
            type=_algebra_arg,
            required=True,
            help="A, E<m>, E(<m>), D<m>, D(<m>), D, or profile=v1,v2,... (last value repeats)",
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
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="annihilated and coinvariant dims over a degree range")
    common(p, degree=False)
    p.add_argument(
        "--degree-range", type=_degree_range_arg, required=True, help="a..b, inclusive, a <= b"
    )
    p.set_defaults(func=cmd_table)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The process's entry point: runs one command, returns its exit code
    and leaves the heap frozen, in a caller's process too."""
    parser = build_parser()
    args = parser.parse_args(argv)
    gc.freeze()
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed stdout is met here, not at exit
        return rc
    except BudgetError as e:
        print(f"budget error: {e}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # stop as SIGPIPE would; the final flush goes nowhere
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), 1)
        return 141
    except Exception as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
