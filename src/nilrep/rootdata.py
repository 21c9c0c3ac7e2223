"""Complex reductive groups as root data on integer lattices.

Each catalog factor is realized by the cocharacter lattice of a maximal
torus (identified with Z^rank), the set of coroots inside it, and the
simple reflections as integer matrices.  The Weyl group is enumerated by
closure of the simple reflections; pi_1(G) is the cocharacter lattice
modulo the coroot lattice, and the dimension of G/[G,G] is the corank of
the coroot span.  Degrees of the fundamental Weyl invariants come from
the classical tables, with one degree-1 entry per central torus
dimension so that coinvariant-algebra characters work uniformly for
reductive (not just semisimple) groups.

Supported families: SL(n>=2), GL(n>=1), PGL(n>=2), Sp(2n), SO(n>=3),
Spin(n>=3), G2, F4, and tori.  Everything else raises UnsupportedType.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import NilrepError, TooLarge, UnsupportedType
from .groups import AbelianInvariants
from .snf import cokernel_invariants, integer_rank

WEYL_ORDER_BOUND = 10**6
# checked before any degree or lattice is built: a torus passes the Weyl
# bound at any size, and a huge written subscript would build its degree
# list first
RANK_BOUND = 64

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


# ---------------------------------------------------------------------------
# factor catalog


@dataclass(frozen=True)
class Factor:
    """One catalog factor, e.g. Factor("SL", 3) or Factor("T", 2).

    param is the subscript as written (matrix size for the classical
    families, torus dimension for T) and is 0 for G2/F4.
    """

    family: str
    param: int = 0

    def __post_init__(self):
        fam, n = self.family, self.param
        ok = {
            "SL": n >= 2, "GL": n >= 1, "PGL": n >= 2,
            "Sp": n >= 2 and n % 2 == 0,
            "SO": n >= 3, "Spin": n >= 3,
            "T": n >= 1, "G2": n == 0, "F4": n == 0,
        }
        if fam not in ok:
            raise UnsupportedType("unknown family %r" % fam)
        if not ok[fam]:
            raise UnsupportedType("unsupported size %s%d" % (fam, n))

    def rank(self) -> int:
        fam, n = self.family, self.param
        if fam in ("SL", "PGL"):
            return n - 1
        if fam in ("GL", "T"):
            return n
        if fam == "Sp":
            return n // 2
        if fam in ("SO", "Spin"):
            return n // 2
        return {"G2": 2, "F4": 4}[fam]

    def degrees(self) -> tuple[int, ...]:
        fam, n = self.family, self.param
        if fam in ("SL", "PGL"):
            return tuple(range(2, n + 1))
        if fam == "GL":
            return tuple(range(1, n + 1))
        if fam == "T":
            return (1,) * n
        if fam == "Sp":
            return tuple(range(2, n + 1, 2))
        if fam in ("SO", "Spin"):
            k = n // 2
            if n % 2 == 1:
                return tuple(range(2, 2 * k + 1, 2))
            return tuple(range(2, 2 * (k - 1) + 1, 2)) + (k,)
        if fam == "G2":
            return (2, 6)
        return (2, 6, 8, 12)

    def weyl_order(self) -> int:
        return prod(self.degrees())

    def is_torus(self) -> bool:
        return self.family == "T" or (self.family == "GL" and self.param == 1)

    def __str__(self):
        if self.family in ("G2", "F4"):
            return self.family
        return "%s%d" % (self.family, self.param)


@dataclass(frozen=True)
class ReductiveSpec:
    """A connected reductive group as a product of catalog factors."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one factor")
        rank = sum(f.rank() for f in self.factors)
        if rank > RANK_BOUND:
            raise TooLarge("total rank %d exceeds the supported bound %d"
                           % (rank, RANK_BOUND))
        if self.weyl_order() > WEYL_ORDER_BOUND:
            raise TooLarge("Weyl group order %d exceeds the supported bound"
                           % self.weyl_order())

    def weyl_order(self) -> int:
        return prod(f.weyl_order() for f in self.factors)

    def is_torus(self) -> bool:
        return all(f.is_torus() for f in self.factors)

    def families(self) -> set[str]:
        return {f.family for f in self.factors}

    def __str__(self):
        return " x ".join(str(f) for f in self.factors)


def reductive(*factors: tuple[str, int] | Factor | str) -> ReductiveSpec:
    """Convenience constructor: reductive(("SL", 2), ("T", 1), "G2")."""
    out = []
    for f in factors:
        if isinstance(f, Factor):
            out.append(f)
        elif isinstance(f, str):
            out.append(Factor(f))
        else:
            out.append(Factor(*f))
    return ReductiveSpec(tuple(out))


# ---------------------------------------------------------------------------
# lattice models


def _identity(n) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b)) if n else ()
    return tuple(tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt)
                 for ra in a)


def _apply(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


def _cartan_a(l):
    a = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for i in range(l - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    return a

def _cartan_b(l):
    a = _cartan_a(l)
    if l >= 2:
        a[l - 2][l - 1] = -2
    return a

def _cartan_c(l):
    a = _cartan_a(l)
    if l >= 2:
        a[l - 1][l - 2] = -2
    return a

def _cartan_d(l):
    a = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for i in range(l - 2):
        a[i][i + 1] = a[i + 1][i] = -1
    if l >= 3:
        a[l - 3][l - 1] = a[l - 1][l - 3] = -1
    return a

_CARTAN_G2 = [[2, -1], [-3, 2]]
_CARTAN_F4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


def _simply_connected_model(cartan):
    """Lattice = coroot lattice in the basis of simple coroots.

    With pairing a[i][j] = <alpha_i, alpha_j^vee>, the reflection s_i
    sends e_j to e_j - a[i][j] e_i.
    """
    l = len(cartan)
    coroots = [tuple(1 if k == j else 0 for k in range(l)) for j in range(l)]
    reflections = []
    for i in range(l):
        rows = [list(row) for row in _identity(l)]
        for j in range(l):
            rows[i][j] -= cartan[i][j]
        reflections.append(tuple(tuple(r) for r in rows))
    return l, coroots, reflections


def _adjoint_model(cartan):
    """Lattice = coweight lattice in the basis of fundamental coweights.

    Coroot j has coordinates (a[0][j], ..., a[l-1][j]); s_i fixes every
    basis coweight except the i-th, which it moves by -coroot_i.
    """
    l = len(cartan)
    coroots = [tuple(cartan[i][j] for i in range(l)) for j in range(l)]
    reflections = []
    for i in range(l):
        rows = [list(row) for row in _identity(l)]
        for k in range(l):
            rows[k][i] -= cartan[k][i]
        reflections.append(tuple(tuple(r) for r in rows))
    return l, coroots, reflections


def _swap_matrix(n, i, j) -> Matrix:
    rows = [list(row) for row in _identity(n)]
    rows[i], rows[j] = rows[j], rows[i]
    return tuple(tuple(r) for r in rows)


def _gl_model(n):
    """GL_n on Z^n: the symmetric group permuting coordinates."""
    if n == 1:
        return 1, [], []
    coroots = [tuple((1 if k == i else 0) - (1 if k == i + 1 else 0)
                     for k in range(n)) for i in range(n - 1)]
    reflections = [_swap_matrix(n, i, i + 1) for i in range(n - 1)]
    return n, coroots, reflections


def _so_even_model(k):
    """SO_{2k} on Z^k: signed permutations with an even number of signs."""
    reflections = [_swap_matrix(k, i, i + 1) for i in range(k - 1)]
    swap_neg = [[0] * k for _ in range(k)]
    for t in range(k - 2):
        swap_neg[t][t] = 1
    swap_neg[k - 2][k - 1] = -1
    swap_neg[k - 1][k - 2] = -1
    reflections.append(tuple(tuple(r) for r in swap_neg))
    coroots = [tuple((1 if t == i else 0) - (1 if t == i + 1 else 0)
                     for t in range(k)) for i in range(k - 1)]
    coroots.append(tuple(1 if t >= k - 2 else 0 for t in range(k)))
    return k, coroots, reflections


def _factor_model(f: Factor):
    fam, n = f.family, f.param
    if fam == "T":
        return n, [], []
    if fam == "GL":
        return _gl_model(n)
    if fam == "SL":
        return _simply_connected_model(_cartan_a(n - 1))
    if fam == "PGL":
        return _adjoint_model(_cartan_a(n - 1))
    if fam == "Sp":
        return _simply_connected_model(_cartan_c(n // 2))
    if fam == "SO":
        if n % 2:  # SO_{2k+1} is the adjoint group of type B_k
            return _adjoint_model(_cartan_b(n // 2))
        return _so_even_model(n // 2)
    if fam == "Spin":
        cartan = _cartan_b(n // 2) if n % 2 else _cartan_d(n // 2)
        return _simply_connected_model(cartan)
    if fam == "G2":
        return _simply_connected_model(_CARTAN_G2)
    if fam == "F4":
        return _simply_connected_model(_CARTAN_F4)
    raise UnsupportedType("unknown family %r" % fam)


def _coroot_closure(simple_coroots, reflections) -> tuple[Vector, ...]:
    """Full coroot system: the orbit of the simple coroots under W."""
    seen = set(simple_coroots)
    frontier = list(simple_coroots)
    while frontier:
        fresh = []
        for v in frontier:
            for s in reflections:
                w = _apply(s, v)
                if w not in seen:
                    seen.add(w)
                    fresh.append(w)
        frontier = fresh
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# root datum


@dataclass(frozen=True)
class RootDatum:
    """Cocharacter lattice Z^rank with coroots and simple reflections.

    coroots holds the full (positive and negative) coroot system, so the
    Weyl group permutes it; degrees multiply to the Weyl order and there
    is one per lattice dimension.  factors names the catalog factors the
    datum was assembled from, in block order (empty for a hand-built one).
    """

    rank: int
    coroots: tuple[Vector, ...]
    simple_reflections: tuple[Matrix, ...]
    degrees: tuple[int, ...]
    factors: tuple[Factor, ...] = ()

    def __post_init__(self):
        if len(self.degrees) != self.rank:
            raise ValueError("need one degree per lattice dimension")
        ident = _identity(self.rank)
        coroot_set = set(self.coroots)
        for s in self.simple_reflections:
            if _mat_mul(s, s) != ident:
                raise ValueError("simple reflections must be involutions")
            if {_apply(s, v) for v in coroot_set} != coroot_set:
                raise ValueError("reflections must permute the coroots")

    def weyl_order(self) -> int:
        return prod(self.degrees)

    def positive_coroot_count(self) -> int:
        return len(self.coroots) // 2


def build_root_datum(spec: ReductiveSpec) -> RootDatum:
    """Block-diagonal assembly of the factor lattice models."""
    total = sum(f.rank() for f in spec.factors)
    coroots: list[Vector] = []
    reflections: list[Matrix] = []
    degrees: list[int] = []
    offset = 0
    for f in spec.factors:
        rank, simple_coroots, simple_refl = _factor_model(f)
        full = _coroot_closure(simple_coroots, simple_refl)
        pad = lambda v: (0,) * offset + v + (0,) * (total - offset - rank)
        coroots.extend(pad(v) for v in full)
        for s in simple_refl:
            rows = [list(row) for row in _identity(total)]
            for i in range(rank):
                for j in range(rank):
                    rows[offset + i][offset + j] = s[i][j]
            reflections.append(tuple(tuple(r) for r in rows))
        degrees.extend(f.degrees())
        offset += rank
    return RootDatum(total, tuple(sorted(coroots)), tuple(reflections),
                     tuple(sorted(degrees)), spec.factors)


def enumerate_weyl(rd: RootDatum) -> tuple[Matrix, ...]:
    """All Weyl elements as integer matrices, sorted for determinism: the
    breadth-first closure of the simple reflections under multiplication."""
    expected = rd.weyl_order()
    if expected > WEYL_ORDER_BOUND:
        raise TooLarge("Weyl order %d exceeds the enumeration bound" % expected)
    ident = _identity(rd.rank)
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for m in frontier:
            for s in rd.simple_reflections:
                p = _mat_mul(m, s)
                if p not in seen:
                    seen.add(p)
                    fresh.append(p)
        frontier = fresh
    if len(seen) != expected:
        raise NilrepError("Weyl closure produced %d elements, expected %d"
                          % (len(seen), expected))
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# fundamental groups


def _coroot_matrix(rd: RootDatum) -> list[list[int]]:
    return [[v[i] for v in rd.coroots] for i in range(rd.rank)]


def pi1_G(rd: RootDatum) -> AbelianInvariants:
    """pi_1 of the group: cocharacter lattice modulo the coroot lattice."""
    if not rd.coroots:
        return AbelianInvariants(rd.rank)
    rank, torsion = cokernel_invariants(_coroot_matrix(rd))
    return AbelianInvariants(rank, torsion)


def pi1_G_ab(rd: RootDatum) -> int:
    """dim G/[G,G], the corank of the coroot span; pi_1 of that torus is
    Z^result."""
    if not rd.coroots:
        return rd.rank
    return rd.rank - integer_rank(_coroot_matrix(rd))
