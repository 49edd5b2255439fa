"""Bundled verification suites: the registry.

`CRITERIA` maps the name of each criterion to a zero-argument callable
that returns its list of CheckResult, and `SUITES` groups the names into
the suites the command line exposes; `all` runs everything.
`run_criterion` runs one criterion by name and times it.

The bodies of the criteria are in `criteria`, which an entry of
`CRITERIA` imports only when it runs.  This module imports no other
module of the package, so a command that reads only `SUITES` never
compiles the bodies or their fixtures.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, NamedTuple, Tuple

__all__ = [
    "CheckResult",
    "CriterionReport",
    "CRITERIA",
    "SUITES",
    "run_criterion",
]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class CriterionReport(NamedTuple):
    name: str
    passed: bool
    elapsed: float
    checks: Tuple[CheckResult, ...]

    def lines(self) -> List[str]:
        verdict = "PASS" if self.passed else "FAIL"
        out = [f"{verdict}  {self.name}  ({self.elapsed:.1f}s)"]
        for c in self.checks:
            if not c.passed:
                out.append(f"      failed: {c.name}" + (f" -- {c.detail}" if c.detail else ""))
        return out

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _deferred(body: str) -> Callable[[], List[CheckResult]]:
    """The criterion criteria.<body>, which imports `criteria` as it runs;
    named after the body it runs."""

    def run() -> List[CheckResult]:
        from . import criteria

        return getattr(criteria, body)()

    run.__name__ = run.__qualname__ = body
    return run


CRITERIA: Dict[str, Callable[[], List[CheckResult]]] = {
    name: _deferred(body)
    for name, body in (
        ("rank1-action-binomial-oracle", "crit_rank1_action_binomial"),
        ("rank1-annihilation-predicates", "crit_rank1_annihilation"),
        ("transfer-image-windows", "crit_transfer_windows"),
        ("rank2-degree11-witness", "crit_degree11_witness"),
        ("rank4-degree20-kernel", "crit_degree20_kernel"),
        ("rank4-degree14-fixture", "crit_degree14_fixture"),
        ("rank4-degree17-existence", "crit_degree17_existence"),
        ("cobar-consistency", "crit_cobar_consistency"),
        ("kameko-frobenius", "crit_kameko_frobenius"),
        ("paired-spike-family", "crit_paired_spikes"),
        ("stratified-invariance-example", "crit_stratified_example"),
        ("diagonal-spike-transfer", "crit_diagonal_spikes"),
    )
}

SUITES: Dict[str, Tuple[str, ...]] = {
    "thm1.1-g": ("rank4-degree20-kernel",),
    "thm1.1-d0": ("rank4-degree14-fixture",),
    "thm1.1-e0": ("rank4-degree17-existence",),
    "lemmas": (
        "rank1-action-binomial-oracle",
        "rank1-annihilation-predicates",
        "transfer-image-windows",
        "kameko-frobenius",
    ),
    "props": (
        "rank2-degree11-witness",
        "cobar-consistency",
        "diagonal-spike-transfer",
    ),
    "remark3.5": ("paired-spike-family",),
    "example5.11": ("stratified-invariance-example",),
    "all": tuple(CRITERIA),
}


def run_criterion(name: str) -> CriterionReport:
    """Run the criterion CRITERIA[name], looked up at call time, so an
    entry a caller has replaced (by a timing wrapper, say) is the one run."""
    start = time.perf_counter()
    checks = tuple(CRITERIA[name]())
    elapsed = time.perf_counter() - start
    return CriterionReport(name, all(c.passed for c in checks), elapsed, checks)
