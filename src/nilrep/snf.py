"""Smith normal form over the integers: sparse cokernels with unit pivots
eliminated first, unimodular transforms on request.

Matrices are plain lists of lists of Python ints.  Entry growth during
elimination is real even on small matrices, so nothing here ever touches
fixed-width or floating-point arithmetic.  Cokernels are computed from
sparse columns (cokernel_of_columns): a written presentation's exponent
matrix is mostly empty columns (commutator relators) and columns with a
single +-1 (a central generator named by its commutator), so every +-1
entry is used as a pivot and eliminated, with its row and column, and
every entry then alone in its row and its column (a torsion relator g^d)
is read off as a cyclic summand, before the Smith form runs on the dense
block that is left (Dumas, Heckenbach, Saunders and Welker, Computing
simplicial homology based on efficient Smith normal form algorithms,
2003).  Cyclic summands merge into one invariant-factor chain by
pairwise gcd and lcm (_merge_chain).
"""

from __future__ import annotations

from collections import Counter
from math import gcd


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    if a and len(a[0]) != inner:
        raise ValueError("dimension mismatch")
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def int_det(m) -> int:
    """Determinant by fraction-free (Bareiss) elimination; exact."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def smith_normal_form(m, transforms: bool = True):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (d, u, v) with u*m*v = d, where u and v are unimodular and d is
    diagonal (same shape as m) with non-negative entries, each dividing the
    next.  Total on all integer matrices, including empty ones.  With
    transforms=False only d is computed, and u and v are None: the
    cokernels need only d, and v alone would hold cols**2 entries on a
    block of a few rows and many relators.  Both modes run the same
    operations on d.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    u = identity_matrix(rows) if transforms else None
    v = identity_matrix(cols) if transforms else None
    row_mats = (a, u) if transforms else (a,)
    col_mats = (a, v) if transforms else (a,)

    def row_combine(r1, r2, x, y, z, w):
        # rows r1, r2 <- (x*r1 + y*r2, z*r1 + w*r2); x*w - y*z = +-1
        for mat in row_mats:
            for j in range(len(mat[r1])):
                p, q = mat[r1][j], mat[r2][j]
                mat[r1][j] = x * p + y * q
                mat[r2][j] = z * p + w * q

    def col_combine(c1, c2, x, y, z, w):
        for mat in col_mats:
            for row in mat:
                p, q = row[c1], row[c2]
                row[c1] = x * p + y * q
                row[c2] = z * p + w * q

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = a[i][j]
                if e != 0 and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
        return None if best is None else best[1:]

    for t in range(min(rows, cols)):
        while True:
            pos = find_pivot(t)
            if pos is None:
                break
            i, j = pos
            if i != t:
                row_combine(t, i, 0, 1, 1, 0)
            if j != t:
                col_combine(t, j, 0, 1, 1, 0)
            # clear column t below the pivot, then row t to its right;
            # clearing one can disturb the other, so loop until both stick.
            # when the pivot divides the entry, subtract a multiple of the
            # pivot row/column so the pivot row/column itself stays fixed;
            # otherwise a gcd combine strictly shrinks the pivot.
            while True:
                dirty = False
                for i in range(t + 1, rows):
                    if a[i][t] != 0:
                        if a[i][t] % a[t][t] == 0:
                            row_combine(i, t, 1, -(a[i][t] // a[t][t]), 0, 1)
                        else:
                            g, x, y = _xgcd(a[t][t], a[i][t])
                            row_combine(t, i, x, y,
                                        -(a[i][t] // g), a[t][t] // g)
                            dirty = True
                for j in range(t + 1, cols):
                    if a[t][j] != 0:
                        if a[t][j] % a[t][t] == 0:
                            col_combine(j, t, 1, -(a[t][j] // a[t][t]), 0, 1)
                        else:
                            g, x, y = _xgcd(a[t][t], a[t][j])
                            col_combine(t, j, x, y,
                                        -(a[t][j] // g), a[t][t] // g)
                            dirty = True
                if not dirty:
                    break
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_combine(t, offender, 1, 1, 0, 1)

    for t in range(min(rows, cols)):
        if a[t][t] < 0:
            for mat in row_mats:
                mat[t] = [-e for e in mat[t]]

    return a, u, v


def diagonal_of(d) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def _eliminate_unit_pivots(columns) -> tuple[list[dict], int]:
    """Eliminate every +-1 entry of the non-empty sparse columns: with u
    at row i of column j, subtract multiples of column j from the other
    columns holding row i, then drop column j and row i, which leaves the
    cokernel unchanged.  Returns the columns left and the pivot count."""
    live = {j: dict(col) for j, col in enumerate(columns)}
    holding: dict[int, set] = {}   # row -> ids of the live columns holding it
    for j, col in live.items():
        for r in col:
            holding.setdefault(r, set()).add(j)
    pivots = 0
    queue = list(live)
    while queue:
        j = queue.pop()
        col = live.get(j)
        i = None if col is None else next(
            (r for r, e in col.items() if e == 1 or e == -1), None)
        if i is None:
            continue
        u = col[i]
        for k in holding[i] - {j}:
            other = live[k]
            f = other[i] * u   # u * u = 1
            for r, e in col.items():
                v = other.get(r, 0) - f * e
                if v:
                    if r not in other:
                        holding[r].add(k)
                    other[r] = v
                else:
                    del other[r]
                    holding[r].discard(k)
            if other:
                queue.append(k)   # it may have gained a unit
            else:
                del live[k]
        del live[j], holding[i]
        for r in col:
            if r != i:
                holding[r].discard(j)
        pivots += 1
    return list(live.values()), pivots


def _merge_chain(entries) -> tuple[int, ...]:
    """Invariant-factor chain of a direct sum of cyclic groups Z/e, e >= 1.
    Each e enters the chain from its largest factor down, as
    Z/c + Z/e = Z/lcm(c, e) + Z/gcd(c, e): the lcm stays and the gcd goes
    on down, which keeps every prime's exponents sorted along the chain,
    and a gcd of 1 leaves the smaller factors as they are."""
    chain = []   # the invariant factors so far, largest first
    for e in entries:
        for i, c in enumerate(chain):
            if e == 1:
                break
            g = gcd(c, e)
            chain[i], e = c // g * e, g
        if e > 1:
            chain.append(e)
    return tuple(reversed(chain))


def cokernel_of_columns(rows: int, columns) -> tuple[int, tuple[int, ...]]:
    """Invariants (free rank, torsion chain) of Z^rows modulo the span of
    the columns, each a {row: non-zero int} dict.

    Unit pivots are eliminated first.  An entry e left alone in both its
    row and its column is then a summand Z/|e| already, and joins the
    torsion chain by _merge_chain; the Smith form runs only on the dense
    block that is left, with rows and columns that hold nothing dropped.
    The free rank is rows less the unit pivots, the lone entries and the
    non-zero Smith entries.
    """
    live = [col for col in columns if col]
    pivots = 0
    if any(1 in col.values() or -1 in col.values() for col in live):
        live, pivots = _eliminate_unit_pivots(live)
    holders = Counter(r for col in live for r in col)
    lone, dense = [], []
    for col in live:
        if len(col) == 1 and holders[next(iter(col))] == 1:
            lone.extend(map(abs, col.values()))
        else:
            dense.append(col)
    nonzero = []
    if dense:
        block = [[col.get(r, 0) for col in dense]
                 for r in {r for col in dense for r in col}]
        d, _, _ = smith_normal_form(block, False)
        nonzero = [e for e in diagonal_of(d) if e != 0]
    return (rows - pivots - len(lone) - len(nonzero),
            _merge_chain(lone + nonzero))


def cokernel_invariants(m) -> tuple[int, tuple[int, ...]]:
    """Invariants (free rank, torsion chain) of Z^rows / column-span of m,
    by cokernel_of_columns on the columns of m."""
    return cokernel_of_columns(len(m), [{i: e for i, e in enumerate(col) if e}
                                        for col in zip(*m)])


def integer_rank(m) -> int:
    """Rank over Q of an integer matrix (count of nonzero Smith entries)."""
    return len(m) - cokernel_invariants(m)[0]
