"""Complex reductive groups as root data on integer lattices.

Each catalog factor is realized by the cocharacter lattice of a maximal
torus (identified with Z^rank), the set of coroots inside it, and the
simple reflections as integer matrices; a product is one such block per
factor, and every fact here is computed block by block.  pi_1(G) is the
cocharacter lattice modulo the coroot lattice, and the dimension of
G/[G,G] is the corank of the coroot span.  Only the referees enumerate
the Weyl group.  Degrees of the fundamental Weyl invariants come from the
classical tables, with one degree-1 entry per central torus dimension so
that coinvariant-algebra characters work uniformly for reductive (not
just semisimple) groups.

Supported families: SL(n>=2), GL(n>=1), PGL(n>=2), Sp(2n), SO(n>=3),
Spin(n>=3), G2, F4, and tori.  Everything else raises UnsupportedType.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod

from .errors import NilrepError, TooLarge, UnsupportedType
from .groups import AbelianInvariants
from .snf import cokernel_invariants, identity_matrix, integer_rank, mat_mul

# per factor, not per product: a factor's Molien class list grows with
# the partition numbers (SL30: 5,604 rows); RANK_BOUND alone admits SL65
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
        if fam in ("Sp", "SO", "Spin"):
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
        for f in self.factors:
            if f.weyl_order() > WEYL_ORDER_BOUND:
                raise TooLarge("Weyl group order %d exceeds the supported "
                               "bound" % f.weyl_order())

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


def _frozen(rows) -> Matrix:
    return tuple(map(tuple, rows))


def _apply(m, v: Vector) -> Vector:
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
        rows = identity_matrix(l)
        for j in range(l):
            rows[i][j] -= cartan[i][j]
        reflections.append(rows)
    return coroots, reflections


def _adjoint_model(cartan):
    """Lattice = coweight lattice in the basis of fundamental coweights.

    Coroot j has coordinates (a[0][j], ..., a[l-1][j]); s_i fixes every
    basis coweight except the i-th, which it moves by -coroot_i.
    """
    l = len(cartan)
    coroots = [tuple(cartan[i][j] for i in range(l)) for j in range(l)]
    reflections = []
    for i in range(l):
        rows = identity_matrix(l)
        for k in range(l):
            rows[k][i] -= cartan[k][i]
        reflections.append(rows)
    return coroots, reflections


def _swap_matrix(n, i, j) -> list[list[int]]:
    rows = identity_matrix(n)
    rows[i], rows[j] = rows[j], rows[i]
    return rows


def _gl_model(n):
    """GL_n on Z^n: the symmetric group permuting coordinates."""
    coroots = [tuple((1 if k == i else 0) - (1 if k == i + 1 else 0)
                     for k in range(n)) for i in range(n - 1)]
    reflections = [_swap_matrix(n, i, i + 1) for i in range(n - 1)]
    return coroots, reflections


def _so_even_model(k):
    """SO_{2k} on Z^k: signed permutations with an even number of signs."""
    reflections = [_swap_matrix(k, i, i + 1) for i in range(k - 1)]
    swap_neg = [[0] * k for _ in range(k)]
    for t in range(k - 2):
        swap_neg[t][t] = 1
    swap_neg[k - 2][k - 1] = -1
    swap_neg[k - 1][k - 2] = -1
    reflections.append(swap_neg)
    coroots = [tuple((1 if t == i else 0) - (1 if t == i + 1 else 0)
                     for t in range(k)) for i in range(k - 1)]
    coroots.append(tuple(1 if t >= k - 2 else 0 for t in range(k)))
    return coroots, reflections


def _factor_model(f: Factor):
    """(simple coroots, simple reflections) in the factor's own lattice."""
    fam, n = f.family, f.param
    if fam == "T":
        return [], []
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


def _orbit(start, reflections, act) -> tuple:
    """The breadth-first closure of start under x -> act(s, x) for the
    simple reflections s, sorted for determinism."""
    seen = set(start)
    frontier = list(start)
    while frontier:
        fresh = []
        for x in frontier:
            for s in reflections:
                y = act(s, x)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# root datum


@dataclass(frozen=True)
class Block:
    """One factor's cocharacter lattice Z^rank: its full (positive and
    negative) coroot system, which the factor's Weyl group permutes, and
    its simple reflections as integer matrices."""

    coroots: tuple[Vector, ...]
    simple_reflections: tuple[Matrix, ...]


@dataclass(frozen=True)
class RootDatum:
    """A product of catalog factors, one lattice block per factor.

    blocks[i] lives in the rank of factors[i]; the whole lattice is their
    direct sum, on which W = prod W_i acts block-diagonally, so rank,
    degrees and the Weyl order are read off the factors.
    """

    factors: tuple[Factor, ...]
    blocks: tuple[Block, ...]

    def __post_init__(self):
        for f, b in zip(self.factors, self.blocks, strict=True):
            ident = identity_matrix(f.rank())
            for s in b.simple_reflections:
                if mat_mul(s, s) != ident:
                    raise ValueError("simple reflections must be involutions")
                if {_apply(s, v) for v in b.coroots} != set(b.coroots):
                    raise ValueError("reflections must permute the coroots")

    @property
    def rank(self) -> int:
        return sum(f.rank() for f in self.factors)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(d for f in self.factors for d in f.degrees()))

    def weyl_order(self) -> int:
        return prod(f.weyl_order() for f in self.factors)

    def positive_coroot_count(self) -> int:
        return sum(len(b.coroots) for b in self.blocks) // 2


def build_root_datum(spec: ReductiveSpec) -> RootDatum:
    """One block per factor, in the factor's own lattice model."""
    blocks = []
    for f in spec.factors:
        simple_coroots, simple_refl = _factor_model(f)
        # the full coroot system is the orbit of the simple coroots
        blocks.append(Block(_orbit(simple_coroots, simple_refl, _apply),
                            tuple(map(_frozen, simple_refl))))
    return RootDatum(spec.factors, tuple(blocks))


def enumerate_weyl(rd: RootDatum) -> tuple[Matrix, ...]:
    """All Weyl elements as integer matrices on the whole lattice: the
    closure of the simple reflections, each padded to a block-diagonal
    matrix of the full rank."""
    expected = rd.weyl_order()
    if expected > WEYL_ORDER_BOUND:
        raise TooLarge("Weyl order %d exceeds the enumeration bound" % expected)
    total, reflections, offset = rd.rank, [], 0
    for f, b in zip(rd.factors, rd.blocks):
        for s in b.simple_reflections:
            rows = identity_matrix(total)
            for i, row in enumerate(s):
                rows[offset + i][offset:offset + len(row)] = row
            reflections.append(_frozen(rows))
        offset += f.rank()
    weyl = _orbit([_frozen(identity_matrix(total))], reflections,
                  lambda s, m: _frozen(mat_mul(m, s)))
    if len(weyl) != expected:
        raise NilrepError("Weyl closure produced %d elements, expected %d"
                          % (len(weyl), expected))
    return weyl


# ---------------------------------------------------------------------------
# fundamental groups


def _coroot_matrices(rd: RootDatum):
    """Each block's coroots as the columns of a rank x |coroots| matrix."""
    return [[[v[i] for v in b.coroots] for i in range(f.rank())]
            for f, b in zip(rd.factors, rd.blocks)]


def pi1_G(rd: RootDatum) -> AbelianInvariants:
    """pi_1 of the group: cocharacter lattice modulo the coroot lattice,
    the direct sum of the blocks' cokernels."""
    return reduce(AbelianInvariants.direct_sum,
                  (AbelianInvariants(*cokernel_invariants(m))
                   for m in _coroot_matrices(rd)), AbelianInvariants(0))


def pi1_G_ab(rd: RootDatum) -> int:
    """dim G/[G,G], the corank of the coroot span summed over the blocks;
    pi_1 of that torus is Z^result."""
    return sum(len(m) - integer_rank(m) for m in _coroot_matrices(rd))
