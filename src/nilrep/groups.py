"""Finitely generated nilpotent groups and their abelian invariants.

A group is described either by a catalog entry (free abelian, free
nilpotent, Heisenberg, finite abelian, direct products of these) or by a
finite presentation.  The computations offered here are the ones that are
decidable at this level of generality: abelianization via Smith normal
form of the relator exponent matrix, ranks of lower-central layers of
free nilpotent groups, and quotients by lower-central terms for catalog
groups.

>>> abelianize(heisenberg_presented())
AbelianInvariants(rank=2, torsion=())
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import divisors, mobius
from .errors import NilrepError, TooLarge, UnsupportedQuotient
from .snf import cokernel_invariants, smith_normal_form, diagonal_of

POWER_LETTER_CAP = 10**5


# ---------------------------------------------------------------------------
# words and presentations


@dataclass(frozen=True)
class Word:
    """A freely reduced word in numbered generators.

    letters is a tuple of (generator index, exponent) pairs with non-zero
    exponents and no two adjacent pairs on the same generator.  Build words
    through the module helpers (gen, concat, inverse, power, commutator);
    they reduce as they go, so commutator nesting disappears into plain
    letters at construction time.
    """

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for g, e in self.letters:
            if g < 0:
                raise ValueError("generator indices must be non-negative")
            if e == 0:
                raise ValueError("exponents must be non-zero")
        for (g1, _), (g2, _) in zip(self.letters, self.letters[1:]):
            if g1 == g2:
                raise ValueError("word is not freely reduced")

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((g for g, _ in self.letters), default=-1)

    def exponent_sums(self, generator_count: int) -> list[int]:
        """Total exponent per generator; a commutator sums to zero."""
        sums = [0] * generator_count
        for g, e in self.letters:
            sums[g] += e
        return sums


def free_reduce(letters) -> Word:
    reduced: list[tuple[int, int]] = []
    for g, e in letters:
        if e == 0:
            continue
        if reduced and reduced[-1][0] == g:
            g0, e0 = reduced.pop()
            if e0 + e != 0:
                reduced.append((g0, e0 + e))
        else:
            reduced.append((g, e))
    return Word(tuple(reduced))


def gen(i: int, exponent: int = 1) -> Word:
    return free_reduce([(i, exponent)])


def concat(*words: Word) -> Word:
    letters: list[tuple[int, int]] = []
    for w in words:
        letters.extend(w.letters)
    return free_reduce(letters)


def inverse(w: Word) -> Word:
    return Word(tuple((g, -e) for g, e in reversed(w.letters)))


def power(w: Word, n: int) -> Word:
    """w^n; one letter stays one letter, a longer word may not pass the cap."""
    if n < 0:
        return power(inverse(w), -n)
    if n == 0:
        return Word()
    if len(w.letters) <= 1:
        return Word(tuple((g, e * n) for g, e in w.letters))
    if len(w.letters) * n > POWER_LETTER_CAP:
        raise TooLarge("power of a %d-letter word to exponent %d exceeds "
                       "%d letters" % (len(w.letters), n, POWER_LETTER_CAP))
    return concat(*([w] * n))


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a^-1 b^-1 a b, expanded and reduced."""
    return concat(inverse(a), inverse(b), a, b)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator count plus relator words.

    names is display-only metadata for rendering words and witnesses; it
    never affects equality of the presented group's invariants.
    """

    generator_count: int
    relators: tuple[Word, ...] = ()
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.generator_count < 1:
            raise ValueError("need at least one generator")
        for w in self.relators:
            if w.max_generator() >= self.generator_count:
                raise ValueError("relator uses an undeclared generator")
        if self.names is not None and len(self.names) != self.generator_count:
            raise ValueError("names must match the generator count")

    def generator_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return tuple("g%d" % (i + 1) for i in range(self.generator_count))

    def exponent_matrix(self) -> list[list[int]]:
        """Generators x relators matrix of total exponents (columns = relators)."""
        cols = [w.exponent_sums(self.generator_count) for w in self.relators]
        return [[col[i] for col in cols] for i in range(self.generator_count)]


def word_str(w: Word, names) -> str:
    if not w.letters:
        return "1"
    parts = []
    for g, e in w.letters:
        parts.append(names[g] if e == 1 else "%s^%d" % (names[g], e))
    return "".join(parts)


# ---------------------------------------------------------------------------
# group specifications


class GroupSpec:
    """Base class for group descriptions; see the concrete variants."""

    __slots__ = ()


@dataclass(frozen=True)
class FreeNilpotent(GroupSpec):
    """Free nilpotent group on n generators of class c."""

    n: int
    c: int

    def __post_init__(self):
        if self.n < 1 or self.c < 1:
            raise ValueError("need n >= 1 and c >= 1")

    def __str__(self):
        return "F(%d,%d)" % (self.n, self.c)


@dataclass(frozen=True)
class Heisenberg(GroupSpec):
    """The integral Heisenberg group on two generators."""

    def __str__(self):
        return "H3"


@dataclass(frozen=True)
class FreeAbelian(GroupSpec):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")

    def __str__(self):
        return "Z^%d" % self.n


@dataclass(frozen=True)
class FiniteAbelian(GroupSpec):
    """Finite abelian group as a divisor chain d1 | d2 | ... (each >= 2)."""

    divisors: tuple[int, ...]

    def __post_init__(self):
        _check_chain(self.divisors)

    def __str__(self):
        if not self.divisors:
            return "Z/1"
        return " x ".join("Z/%d" % d for d in self.divisors)


@dataclass(frozen=True)
class DirectProduct(GroupSpec):
    factors: tuple[GroupSpec, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a direct product needs at least one factor")

    def __str__(self):
        return " x ".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class Presented(GroupSpec):
    """A finitely presented group, nilpotent by the caller's assertion.

    Nilpotency of a presentation is undecidable, so declared_class is
    taken on trust; everything computed here (abelianization, finite
    images) is valid regardless.
    """

    presentation: Presentation
    declared_class: int | None = None

    def __str__(self):
        p = self.presentation
        names = p.generator_names()
        rels = ", ".join(word_str(w, names) for w in p.relators)
        return "<%s | %s>" % (",".join(names), rels)


def _check_chain(chain):
    for d in chain:
        if d < 2:
            raise ValueError("torsion divisors must be >= 2")
    for a, b in zip(chain, chain[1:]):
        if b % a != 0:
            raise ValueError("divisor chain must satisfy d1 | d2 | ...")


# ---------------------------------------------------------------------------
# abelian invariants

# the most entries of an r-fold output: r * rank for the Poincare
# polynomials (every r <= 8 fits rootdata.RANK_BOUND = 64), r * len(torsion)
# for pi_1(G)^r.  Both polynomials: SL2, r = 512: 0.55 s; SL9, r = 64: 6.8 s
OUTPUT_BOUND = 512


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group: free rank plus divisor chain."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        _check_chain(self.torsion)

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def direct_sum(self, other: "AbelianInvariants") -> "AbelianInvariants":
        """Invariant factors of the direct sum, renormalized into a chain."""
        combined = list(self.torsion) + list(other.torsion)
        return AbelianInvariants(self.rank + other.rank, _merge_chain(combined))

    def self_power(self, r: int) -> "AbelianInvariants":
        """The r-fold direct sum with itself (r = 0 gives the trivial group)."""
        if r < 0:
            raise ValueError("r must be non-negative")
        if r * len(self.torsion) > OUTPUT_BOUND:
            raise TooLarge("%d-fold power of a torsion chain of length %d "
                           "exceeds the output bound %d"
                           % (r, len(self.torsion), OUTPUT_BOUND))
        torsion = tuple(d for d in self.torsion for _ in range(r))
        return AbelianInvariants(self.rank * r, torsion)

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " x ".join(parts) if parts else "1"


def _merge_chain(entries) -> tuple[int, ...]:
    """Invariant-factor chain of a direct sum of cyclic groups Z/e."""
    entries = [e for e in entries if e >= 2]
    if not entries:
        return ()
    diag = [[entries[i] if i == j else 0 for j in range(len(entries))]
            for i in range(len(entries))]
    d, _, _ = smith_normal_form(diag)
    return tuple(e for e in diagonal_of(d) if e >= 2)


def abelianize(g: GroupSpec) -> AbelianInvariants:
    """H_1 of the group: rank plus torsion divisor chain.

    For presented groups this is the cokernel of the relator exponent
    matrix; commutators contribute nothing, so nested commutator relators
    come out right automatically.
    """
    if isinstance(g, FreeNilpotent):
        return AbelianInvariants(g.n)
    if isinstance(g, Heisenberg):
        return AbelianInvariants(2)
    if isinstance(g, FreeAbelian):
        return AbelianInvariants(g.n)
    if isinstance(g, FiniteAbelian):
        return AbelianInvariants(0, g.divisors)
    if isinstance(g, DirectProduct):
        total = AbelianInvariants(0)
        for factor in g.factors:
            total = total.direct_sum(abelianize(factor))
        return total
    if isinstance(g, Presented):
        rank, torsion = cokernel_invariants(g.presentation.exponent_matrix())
        return AbelianInvariants(rank, torsion)
    raise TypeError("not a group spec: %r" % (g,))


# ---------------------------------------------------------------------------
# lower central series of catalog groups


def free_nilpotent_lcs_ranks(n: int, c: int) -> list[int]:
    """Ranks of the lower-central layers of the free nilpotent group F(n, c).

    Layer i is free abelian of rank (1/i) * sum_{d | i} mu(d) * n^(i/d),
    the number of Lyndon words of length i on n letters.
    """
    if n < 1 or c < 1:
        raise ValueError("need n >= 1 and c >= 1")
    out = []
    for i in range(1, c + 1):
        total = sum(mobius(d) * n ** (i // d) for d in divisors(i))
        if total % i:
            raise NilrepError("Witt formula sum %d not divisible by %d"
                              % (total, i))
        out.append(total // i)
    return out


@dataclass(frozen=True)
class LowerCentralData:
    """Per-layer abelian invariants of the lower central series.

    per_layer[i - 1] describes layer i; the length is the nilpotency
    class, and the last layer is non-trivial except for the degenerate
    trivial group.
    """

    per_layer: tuple[AbelianInvariants, ...]

    @property
    def nilpotency_class(self) -> int:
        return len(self.per_layer)


def lower_central_data(g: GroupSpec) -> LowerCentralData:
    """Lower-central layer data; catalog groups only."""
    if isinstance(g, (FreeAbelian, FiniteAbelian)):
        return LowerCentralData((abelianize(g),))
    if isinstance(g, Heisenberg):
        return LowerCentralData((AbelianInvariants(2), AbelianInvariants(1)))
    if isinstance(g, FreeNilpotent):
        ranks = free_nilpotent_lcs_ranks(g.n, g.c)
        while len(ranks) > 1 and ranks[-1] == 0:
            ranks.pop()
        return LowerCentralData(tuple(AbelianInvariants(r) for r in ranks))
    if isinstance(g, DirectProduct):
        layers_per_factor = [lower_central_data(f).per_layer for f in g.factors]
        depth = max(len(layers) for layers in layers_per_factor)
        merged = []
        for i in range(depth):
            layer = AbelianInvariants(0)
            for layers in layers_per_factor:
                if i < len(layers):
                    layer = layer.direct_sum(layers[i])
            merged.append(layer)
        while len(merged) > 1 and merged[-1].is_trivial():
            merged.pop()
        return LowerCentralData(tuple(merged))
    raise UnsupportedQuotient("lower-central data requires a catalog group")


def quotient_by_lcs(g: GroupSpec, i: int) -> GroupSpec:
    """The quotient by the i-th lower-central term, for catalog groups.

    Abelian groups are unchanged, free nilpotent groups drop to class
    i - 1, and the Heisenberg group abelianizes at i = 2.
    """
    if i < 2:
        raise ValueError("need i >= 2")
    if isinstance(g, (FreeAbelian, FiniteAbelian)):
        return g
    if isinstance(g, Heisenberg):
        return FreeAbelian(2) if i == 2 else g
    if isinstance(g, FreeNilpotent):
        return FreeNilpotent(g.n, min(g.c, i - 1))
    if isinstance(g, DirectProduct):
        return DirectProduct(tuple(quotient_by_lcs(f, i) for f in g.factors))
    raise UnsupportedQuotient(
        "lower-central quotients of presented groups are not supported")


def is_abelian(g: GroupSpec) -> bool:
    """Whether the description certifies an abelian group.

    Presented groups count only with declared_class == 1; without that
    declaration we make no claim (False here means "not certified").
    """
    if isinstance(g, (FreeAbelian, FiniteAbelian)):
        return True
    if isinstance(g, FreeNilpotent):
        return g.c == 1 or g.n == 1
    if isinstance(g, Heisenberg):
        return False
    if isinstance(g, DirectProduct):
        return all(is_abelian(f) for f in g.factors)
    if isinstance(g, Presented):
        return g.declared_class == 1
    return False


def is_nonabelian_free_family(g: GroupSpec) -> bool:
    """Non-abelian free nilpotent groups and the Heisenberg group."""
    if isinstance(g, Heisenberg):
        return True
    return isinstance(g, FreeNilpotent) and g.n >= 2 and g.c >= 2


# ---------------------------------------------------------------------------
# catalog presentations


def heisenberg_presentation() -> Presentation:
    x, y, z = gen(0), gen(1), gen(2)
    relators = (concat(commutator(x, y), inverse(z)),
                commutator(x, z), commutator(y, z))
    return Presentation(3, relators, names=("x", "y", "z"))


def heisenberg_presented() -> Presented:
    return Presented(heisenberg_presentation(), declared_class=2)


def free_abelian_presentation(n: int) -> Presentation:
    relators = tuple(commutator(gen(i), gen(j))
                     for i in range(n) for j in range(i + 1, n))
    names = tuple("x%d" % (i + 1) for i in range(n))
    return Presentation(n, relators, names=names)


def finite_abelian_presentation(chain) -> Presentation:
    _check_chain(chain)
    n = len(chain)
    if n == 0:
        return Presentation(1, (gen(0),), names=("x1",))
    relators = [power(gen(i), d) for i, d in enumerate(chain)]
    relators += [commutator(gen(i), gen(j))
                 for i in range(n) for j in range(i + 1, n)]
    names = tuple("x%d" % (i + 1) for i in range(n))
    return Presentation(n, tuple(relators), names=names)


def free_nilpotent_class2_presentation(n: int) -> Presentation:
    """F(n, 2) with one central generator per commutator [x_i, x_j]."""
    pair_index = {}
    names = ["x%d" % (i + 1) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pair_index[(i, j)] = n + len(pair_index)
            names.append("z%d%d" % (i + 1, j + 1))
    relators = []
    for (i, j), z in pair_index.items():
        relators.append(concat(commutator(gen(i), gen(j)), inverse(gen(z))))
    for z in pair_index.values():
        for k in range(n):
            relators.append(commutator(gen(k), gen(z)))
    return Presentation(n + len(pair_index), tuple(relators), names=tuple(names))


def merge_presentations(parts) -> Presentation:
    """Presentation of a direct product: disjoint union plus cross commutators."""
    parts = list(parts)
    offset = 0
    relators: list[Word] = []
    names: list[str] = []
    spans = []
    for p in parts:
        shift = offset
        for w in p.relators:
            relators.append(Word(tuple((g + shift, e) for g, e in w.letters)))
        base = p.generator_names()
        names.extend("%s_%d" % (nm, len(spans) + 1) if len(parts) > 1 else nm
                     for nm in base)
        spans.append(range(shift, shift + p.generator_count))
        offset += p.generator_count
    for a in range(len(spans)):
        for b in range(a + 1, len(spans)):
            for i in spans[a]:
                for j in spans[b]:
                    relators.append(commutator(gen(i), gen(j)))
    return Presentation(offset, tuple(relators), names=tuple(names))
