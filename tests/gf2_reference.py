"""Reference GF(2) elimination for the tests: the column-scan RREF that the
library's lowest-bit routine (gf2._eliminate) replaced.  It shares no
code with the library, so results checked against it are checked by a
second route.  Rows are ints with bit j the entry in column j."""


def reference_rref(rows, ncols):
    """RREF by scanning columns in order.  Returns (nonzero rows, pivots)."""
    work = [r for r in rows if r]
    out = []
    pivots = []
    for col in range(ncols):
        bit = 1 << col
        hit = -1
        for i, r in enumerate(work):
            if r & bit:
                hit = i
                break
        if hit < 0:
            continue
        piv = work.pop(hit)
        work = [r ^ piv if r & bit else r for r in work]
        work = [r for r in work if r]
        out = [r ^ piv if r & bit else r for r in out]
        out.append(piv)
        pivots.append(col)
        if not work:
            break
    return out, pivots


def reference_kernel(rows, ncols):
    """Null space from the free columns of the RREF, itself put in RREF."""
    rref, pivots = reference_rref(rows, ncols)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = 1 << free
        for r, p in zip(rref, pivots):
            if r >> free & 1:
                v |= 1 << p
        basis.append(v)
    return reference_rref(basis, ncols)[0]


def reference_solve(rows, ncols, target):
    """x with M x = target read off the RREF of [M | target], or None."""
    aug = [r | (target >> i & 1) << ncols for i, r in enumerate(rows)]
    x = 0
    for r, p in zip(*reference_rref(aug, ncols + 1)):
        if p == ncols:
            return None
        if r >> ncols & 1:
            x |= 1 << p
    return x
