"""Complex reductive groups as root data on integer lattices.

Each catalog factor is realized by the cocharacter lattice of a maximal
torus (identified with Z^rank), its simple roots (functionals on that
lattice) and simple coroots, and the set of all coroots inside it; a
product is one such block per factor, and every fact here is computed
block by block.  A factor enters only through its Cartan type,
semisimple rank and central-torus dimension (Factor.cartan_type).  Its
degrees are the type's, with one degree-1 entry per central torus
dimension so that coinvariant-algebra characters work uniformly for
reductive (not just semisimple) groups; its simple roots and coroots are
read off the type's Cartan matrix (_factor_block), and they give the
simple reflections s(v) = v - <alpha, v> alpha^vee, each of which moves
only the coordinates where its alpha^vee is not 0.  The coroots are the
orbit of the simple coroots under these reflections.  pi_1(G) is the
cocharacter lattice modulo the coroot lattice, and the dimension of
G/[G,G] is its free rank; the simple coroots span that lattice, so both
come from one Smith normal form of the rank x l matrix of simple
coroots, not of all coroots.  A block depends on its factor alone, so
each catalog factor's block is built, checked and reduced (its
cokernel) once per process and shared by every product that contains
the factor.  Only the referees enumerate the Weyl group, as matrices.

Supported families: SL(n>=2), GL(n>=1), PGL(n>=2), Sp(2n), SO(n>=3),
Spin(n>=3), G2, F4, and tori.  Everything else raises UnsupportedType.
"""

from __future__ import annotations

from functools import cache, cached_property, reduce
from math import prod
from operator import mul

from .errors import NilrepError, TooLarge, UnsupportedType
from .groups import AbelianInvariants
from .record import DERIVED, record
from .snf import cokernel_invariants, identity_matrix, mat_mul
# re-exported: perfbench/spans.py traces nilrep.rootdata.integer_rank
from .snf import integer_rank  # noqa: F401

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


@record
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

    def cartan_type(self) -> tuple[str | None, int, int]:
        """(Dynkin type, semisimple rank, central-torus dimension); a
        torus has no type."""
        fam, n = self.family, self.param
        if fam == "T":
            return None, 0, n
        if fam in ("SL", "PGL", "GL"):
            return "A", n - 1, int(fam == "GL")
        if fam == "Sp":
            return "C", n // 2, 0
        if fam in ("SO", "Spin"):
            return "B" if n % 2 else "D", n // 2, 0
        return fam, {"G2": 2, "F4": 4}[fam], 0

    def rank(self) -> int:
        _, l, central = self.cartan_type()
        return l + central

    def degrees(self) -> tuple[int, ...]:
        kind, l, central = self.cartan_type()
        return (1,) * central + _type_degrees(kind, l)

    def weyl_order(self) -> int:
        return prod(self.degrees())

    def __str__(self):
        if self.family in ("G2", "F4"):
            return self.family
        return "%s%d" % (self.family, self.param)


def _type_degrees(kind: str | None, l: int) -> tuple[int, ...]:
    """Degrees of the fundamental invariants of the Weyl group of a simple
    type of rank l (Bourbaki, plates I-IX); none without a type."""
    if kind == "A":
        return tuple(range(2, l + 2))
    if kind in ("B", "C"):
        return tuple(range(2, 2 * l + 1, 2))
    if kind == "D":
        return tuple(range(2, 2 * l - 1, 2)) + (l,)
    return {None: (), "G2": (2, 6), "F4": (2, 6, 8, 12)}[kind]


@record
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


def _reflect(alpha: Vector, coroot: Vector, v: Vector) -> Vector:
    """s(v) = v - <alpha, v> alpha^vee, which moves only the coordinates
    where alpha^vee is not 0."""
    n = sum(map(mul, alpha, v))
    if not n:
        return v
    return tuple([x - n * c for x, c in zip(v, coroot)])


def _cartan(kind: str, l: int) -> list[list[int]]:
    """Cartan matrix a[i][j] = <alpha_i, alpha_j^vee> of the given type and
    rank, simple roots numbered as in Bourbaki, Lie Groups and Lie
    Algebras, ch. VI, plates I-IX."""
    if kind == "G2":
        return [[2, -1], [-3, 2]]
    if kind == "F4":
        return [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    a = [[2 * (i == j) for j in range(l)] for i in range(l)]
    # a chain alpha_1 - ... - alpha_l; D_l branches alpha_l off alpha_(l-2)
    for i in range(l - 2 if kind == "D" else l - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if kind == "D" and l >= 3:
        a[l - 3][l - 1] = a[l - 1][l - 3] = -1
    if kind == "B" and l >= 2:
        a[l - 2][l - 1] = -2
    if kind == "C" and l >= 2:
        a[l - 1][l - 2] = -2
    return a


def _chain(n: int, count: int) -> list[Vector]:
    """e_i - e_(i+1) in Z^n for i < count."""
    return [tuple((k == i) - (k == i + 1) for k in range(n))
            for i in range(count)]


def _orbit(start, generators, act) -> tuple:
    """The breadth-first closure of start under x -> act(s, x) for the
    generators s, sorted for determinism."""
    seen = set(start)
    frontier = list(start)
    while frontier:
        fresh = []
        for x in frontier:
            for s in generators:
                y = act(s, x)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# root datum


@record
class Block:
    """One factor's cocharacter lattice Z^rank with its simple roots
    (functionals on Z^rank, as integer vectors), its simple coroots, and
    the full (positive and negative) coroot system, built here as the
    orbit of the simple coroots under the simple reflections
    s(v) = v - <alpha, v> alpha^vee.  Checked when built: each alpha and
    alpha^vee lie in Z^rank and <alpha, alpha^vee> = 2, which makes s an
    involution of Z^rank, hence a bijection that maps the finite orbit
    into itself, so the Weyl group permutes the coroots."""

    rank: int
    simple_roots: tuple[Vector, ...]
    simple_coroots: tuple[Vector, ...]
    coroots: tuple[Vector, ...] = DERIVED

    def __post_init__(self):
        if len(self.simple_roots) != len(self.simple_coroots):
            raise ValueError("each simple root needs one simple coroot")
        pairs = tuple(zip(self.simple_roots, self.simple_coroots))
        if any(len(v) != self.rank for pair in pairs for v in pair):
            raise ValueError("simple roots and coroots must lie in Z^%d"
                             % self.rank)
        if any(sum(map(mul, alpha, v)) != 2 for alpha, v in pairs):
            raise ValueError("each simple root must pair to 2 with its "
                             "coroot")
        object.__setattr__(self, "coroots", _orbit(
            self.simple_coroots, pairs, lambda s, v: _reflect(*s, v)))

    @cached_property
    def cokernel(self) -> AbelianInvariants:
        """Z^rank modulo the coroot lattice: this block's share of pi_1,
        whose free rank is its share of dim G/[G,G]."""
        # the simple coroots are a base of the coroot system, so every
        # coroot is an integer combination of them (Bourbaki, Lie Groups
        # and Lie Algebras, ch. VI, section 1) and these l columns span
        # the coroot lattice
        return AbelianInvariants(*cokernel_invariants(
            [[v[i] for v in self.simple_coroots] for i in range(self.rank)]))

    @property
    def contains_sl2(self) -> bool:
        """Whether some root map SL_2 -> G, with kernel {1, alpha^vee(-1)},
        is injective: some coroot, so some simple one, is not in 2Z^rank."""
        return any(c % 2 for v in self.simple_coroots for c in v)


@record
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
            if b.rank != f.rank():
                raise ValueError("block of rank %d for %s of rank %d"
                                 % (b.rank, f, f.rank()))
            # the roots number 2 * sum(d - 1) over the degrees
            if len(b.coroots) != 2 * sum(d - 1 for d in f.degrees()):
                raise ValueError("block with %d coroots for %s"
                                 % (len(b.coroots), f))

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


@cache
def _factor_block(f: Factor) -> Block:
    """The factor's block in its own lattice model, built and checked once
    per process; the catalog bounds (RANK_BOUND, WEYL_ORDER_BOUND) bound
    the number of blocks.

    The block stores each simple root alpha (a functional) with its coroot
    alpha^vee, the pair of s(v) = v - <alpha, v> alpha^vee.  The simply
    connected groups (SL, Sp, Spin, G2, F4) live on the coroot lattice:
    the coroots are unit vectors and the roots the rows of the Cartan
    matrix.  The adjoint groups (PGL, odd SO) live on the coweight
    lattice: the roots are unit functionals and the coroots the columns of
    the Cartan matrix.  GL_n on Z^n and SO_2k on Z^k have roots equal to
    their coroots, e_i - e_(i+1), and e_(k-1) + e_k for SO_2k.
    """
    kind, l, central = f.cartan_type()
    if kind is None:
        roots = coroots = []
    elif f.family == "GL" or (f.family == "SO" and kind == "D"):
        roots = _chain(l + central, l if f.family == "GL" else l - 1)
        if kind == "D":
            roots.append(tuple(int(k >= l - 2) for k in range(l)))
        coroots = roots
    else:
        a = _cartan(kind, l)
        units = list(_frozen(identity_matrix(l)))
        if f.family in ("PGL", "SO"):
            roots, coroots = units, list(zip(*a))
        else:
            roots, coroots = list(_frozen(a)), units
    return Block(f.rank(), tuple(roots), tuple(coroots))


def build_root_datum(spec: ReductiveSpec) -> RootDatum:
    """One block per factor, shared with every other datum that has the
    same factor."""
    return RootDatum(spec.factors, tuple(map(_factor_block, spec.factors)))


def enumerate_weyl(rd: RootDatum) -> tuple[Matrix, ...]:
    """All Weyl elements as integer matrices on the whole lattice: the
    closure of the simple reflections, each padded to a block-diagonal
    matrix of the full rank."""
    expected = rd.weyl_order()
    if expected > WEYL_ORDER_BOUND:
        raise TooLarge("Weyl order %d exceeds the enumeration bound" % expected)
    total, reflections, offset = rd.rank, [], 0
    for b in rd.blocks:
        for alpha, v in zip(b.simple_roots, b.simple_coroots):
            # I - alpha^vee alpha^T, in this block's rows and columns
            rows = identity_matrix(total)
            for i, c in enumerate(v):
                for j, a in enumerate(alpha):
                    rows[offset + i][offset + j] -= c * a
            reflections.append(_frozen(rows))
        offset += b.rank
    weyl = _orbit([_frozen(identity_matrix(total))], reflections,
                  lambda s, m: _frozen(mat_mul(m, s)))
    if len(weyl) != expected:
        raise NilrepError("Weyl closure produced %d elements, expected %d"
                          % (len(weyl), expected))
    return weyl


# ---------------------------------------------------------------------------
# fundamental groups


def pi1_G(rd: RootDatum) -> AbelianInvariants:
    """pi_1 of the group: cocharacter lattice modulo the coroot lattice,
    the direct sum of the blocks' cokernels."""
    return reduce(AbelianInvariants.direct_sum,
                  (b.cokernel for b in rd.blocks), AbelianInvariants(0))


def pi1_G_ab(rd: RootDatum) -> int:
    """dim G/[G,G], the corank of the coroot span summed over the blocks
    (the free rank of each block's cokernel); pi_1 of that torus is
    Z^result."""
    return sum(b.cokernel.rank for b in rd.blocks)
