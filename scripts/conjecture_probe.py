#!/usr/bin/env python3
"""Sweep-style probes for the patterns the bundled checks pin at small scale.

Three probes, each a wider version of one acceptance criterion:

  window   compare the rank-1 image predicate (a partition of k+1 into
           parts 2^s(2^t - 1) with distinct s < m <= t) against direct
           evaluation of the chain map, over a degree sweep
  spikes   list the coincident degrees of the paired spike families and
           check them against the closed form 2^{2a+1} - 2^a - 2
  types    for rank 4 over E(2), classify which exponent types (k1..k4)
           contribute nonzero transfer classes in a given degree

The spike family and the exponent types come from the definitions the
criteria use, criteria.spike_pairs and transfer.slot_types.  The probes
print findings and exit 0 when every sweep agrees with the
predicted pattern, 1 otherwise; an argument that leaves a sweep empty
exits 2.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from steenrod_transfer.bv import is_D_annihilated_rank1
from steenrod_transfer.criteria import spike_pairs
from steenrod_transfer.milnor import Profile
from steenrod_transfer.transfer import f_star, presentable, slot_types


def probe_window(max_degree: int, max_m: int) -> bool:
    ok = True
    for m in range(1, max_m + 1):
        profile = Profile.E(m)
        mismatches = [
            k
            for k in range(1, max_degree + 1)
            if bool(f_star(k, profile)) != presentable(k, m)
        ]
        if mismatches:
            ok = False
            print(f"m={m}: predicate disagrees at degrees {mismatches[:10]}")
        else:
            alive = sum(1 for k in range(1, max_degree + 1) if f_star(k, profile))
            print(f"m={m}: predicate matches through {max_degree} ({alive} alive)")
    return ok


def probe_spikes(max_a: int) -> bool:
    ok = True
    for a in range(2, max_a + 1):
        pairs = spike_pairs(a)
        commons = {k + el for k, el in pairs}
        closed = (1 << (2 * a + 1)) - (1 << a) - 2
        annihilated = all(
            is_D_annihilated_rank1(k) and is_D_annihilated_rank1(el) for k, el in pairs
        )
        good = commons == {closed} and annihilated
        ok = ok and good
        print(
            f"a={a}: {len(pairs)} pairs, common degree {sorted(commons)}, "
            f"closed form {closed}, D-annihilated {annihilated}"
        )
    return ok


def probe_types(degree: int) -> bool:
    profile = Profile.E(2)
    alive = [k for k in range(1, degree + 1) if f_star(k, profile)]
    types = slot_types(profile, 4, degree)
    print(f"degree {degree}: slotwise-alive exponents {alive}")
    for t in types:
        print(f"  type {t}")
    # a single type would let slot reasoning decide the degree outright
    return len(types) <= 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("probe", choices=["window", "spikes", "types"])
    ap.add_argument("--max-degree", type=int, default=400)
    ap.add_argument("--max-m", type=int, default=4)
    ap.add_argument("--max-a", type=int, default=6)
    ap.add_argument("--degree", type=int, default=17, help="degree for the types probe")
    ns = ap.parse_args(argv)
    # an empty sweep would agree vacuously, so it exits 2 through
    # ap.error, never 0 or 1, which means a sweep disagreed
    for flag, value, least in (
        ("--max-degree", ns.max_degree, 1),
        ("--max-m", ns.max_m, 1),
        ("--max-a", ns.max_a, 2),
        ("--degree", ns.degree, 0),
    ):
        if value < least:
            ap.error(f"{flag} must be at least {least}, not {value}")
    if ns.probe == "window":
        ok = probe_window(ns.max_degree, ns.max_m)
    elif ns.probe == "spikes":
        ok = probe_spikes(ns.max_a)
    else:
        ok = probe_types(ns.degree)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
