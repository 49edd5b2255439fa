"""Reference GF(2) elimination for the tests: the column-scan RREF that the
library's lowest-bit routine (gf2._eliminate) replaced, the
block-at-a-time kernel that gf2.common_kernel's one stacked elimination
replaced, and a matrix-vector product.  They share no code with the
library, so results checked against them are checked by a second route.
Rows are ints with bit j the entry in column j."""


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


def reference_mul_vec(rows, v):
    """The matrix of the rows times the column vector v: bit i is the
    parity of row i against v."""
    return sum(1 << i for i, r in enumerate(rows) if bin(r & v).count("1") & 1)


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


def sequential_kernel(blocks, ncols, start=None):
    """Kernel of the stacked blocks (lists of rows) on span(start), one
    block at a time: the current kernel basis is pushed through the next
    block's columns, and each image, with its source above bit nrows, is
    eliminated on its lowest bit until the image is zero or it becomes a
    pivot.  Returns the RREF basis of reference_rref."""
    basis = [1 << j for j in range(ncols)] if start is None else list(start)
    for rows in blocks:
        if not basis:
            break
        cols = [sum(1 << i for i, r in enumerate(rows) if r >> j & 1) for j in range(ncols)]
        shift = len(rows)
        pivots = {}
        survivors = []
        for b in basis:
            img = 0
            for j in range(ncols):
                if b >> j & 1:
                    img ^= cols[j]
            v = img | b << shift
            while v & ((1 << shift) - 1):
                low = v & -v
                if low not in pivots:
                    pivots[low] = v
                    v = 0
                    break
                v ^= pivots[low]
            if v:
                survivors.append(v >> shift)
        basis = survivors
    return reference_rref(basis, ncols)[0]


def reference_kernel_on(rows, ncols, start):
    """Kernel of the rows on span(start): the null space of the map
    e -> rows . (sum of e_i start_i), from reference_kernel, mapped back
    through the start and put in RREF."""
    start = list(start)
    images = [
        sum(1 << i for i, s in enumerate(start) if bin(r & s).count("1") & 1) for r in rows
    ]
    out = []
    for e in reference_kernel(images, len(start)):
        v = 0
        for i, s in enumerate(start):
            if e >> i & 1:
                v ^= s
        out.append(v)
    return reference_rref(out, ncols)[0]
