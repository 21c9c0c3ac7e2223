"""Finitely generated nilpotent groups and their abelian invariants.

A group is described either by a catalog entry (free nilpotent, with
the Heisenberg and free abelian groups as named members, finite abelian,
direct products of these) or by a finite presentation.  The computations
offered here are the ones that are decidable at this level of
generality: abelianization as the cokernel of the relators' sparse
exponent-sum columns, ranks of lower-central layers of free nilpotent
groups, and quotients by lower-central terms for catalog groups.

>>> abelianize(Presented(heisenberg_presentation()))
AbelianInvariants(rank=2, torsion=())
"""

from __future__ import annotations

from functools import cached_property

from .arith import divisors, mobius
from .errors import NilrepError, TooLarge, UnsupportedQuotient
from .record import record, replace
from .snf import cokernel_of_columns
# re-exported: perfbench/spans.py traces both in this module
from .snf import cokernel_invariants, smith_normal_form  # noqa: F401

POWER_LETTER_CAP = 10**5


# ---------------------------------------------------------------------------
# words and presentations


@record
class Word:
    """A freely reduced word in numbered generators.

    letters is a tuple of (generator index, exponent) pairs with non-zero
    exponents and no two adjacent pairs on the same generator.  Build words
    through the module helpers (gen, concat, inverse, power, commutator).
    They wrap the letter-list functions reduce_onto, inverse_letters,
    power_letters and commutator_letters, the one word algebra, which the
    parser uses directly.  All reduce as they go, so commutator nesting
    disappears into plain letters at construction time.
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


def reduce_onto(word: list, letters) -> list:
    """Append letters to the freely reduced letter list word, cancelling
    at the seam and dropping zero exponents."""
    for g, e in letters:
        if word and word[-1][0] == g:
            e += word.pop()[1]
        if e:
            word.append((g, e))
    return word


def inverse_letters(letters) -> list:
    return [(g, -e) for g, e in reversed(letters)]


def power_letters(letters, n: int) -> list:
    """letters^n; one letter stays one letter, a longer word may not pass
    the cap."""
    if n < 0:
        letters, n = inverse_letters(letters), -n
    if n == 0:
        return []
    if len(letters) <= 1:
        return [(g, e * n) for g, e in letters]
    if len(letters) * n > POWER_LETTER_CAP:
        raise TooLarge("power of a %d-letter word to exponent %d exceeds "
                       "%d letters" % (len(letters), n, POWER_LETTER_CAP))
    return reduce_onto([], letters * n)


def commutator_letters(a, b) -> list:
    """[a, b] = a^-1 b^-1 a b, expanded and reduced; nesting doubles the
    length, so the written-out word may not pass the cap either."""
    letters = 2 * (len(a) + len(b))
    if letters > POWER_LETTER_CAP:
        raise TooLarge("commutator of %d letters exceeds %d letters"
                       % (letters, POWER_LETTER_CAP))
    return reduce_onto([], [*inverse_letters(a), *inverse_letters(b), *a, *b])


def free_reduce(letters) -> Word:
    return Word(tuple(reduce_onto([], letters)))


def gen(i: int, exponent: int = 1) -> Word:
    return free_reduce([(i, exponent)])


def concat(*words: Word) -> Word:
    return free_reduce([letter for w in words for letter in w.letters])


def inverse(w: Word) -> Word:
    return Word(tuple(inverse_letters(w.letters)))


def power(w: Word, n: int) -> Word:
    return Word(tuple(power_letters(w.letters, n)))


def commutator(a: Word, b: Word) -> Word:
    return Word(tuple(commutator_letters(a.letters, b.letters)))


@record
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
        """Generators x relators matrix of total exponents (columns =
        relators).  abelianize never builds it: it is the dense input of
        the Smith-form referee that abelianize is tested against."""
        cols = [w.exponent_sums(self.generator_count) for w in self.relators]
        return [[col[i] for col in cols] for i in range(self.generator_count)]


def word_str(w: Word, names, tails) -> str:
    """w in the group grammar.  A letter with exponent 1 is followed by a
    space where the parser, which reads the longest declared name, would
    read on into the next letter; tails is name_tails(names)."""
    if not w.letters:
        return "1"
    parts = []   # the letters written so far, from the end of the word
    for g, e in reversed(w.letters):
        name = names[g]
        if e != 1:
            name = "%s^%d" % (name, e)
        elif name in tails and parts:
            ahead = tails[name]
            # each letter writes at least one character
            following = "".join(reversed(parts[-max(map(len, ahead)):]))
            if following.startswith(ahead):
                name += " "
        parts.append(name)
    return "".join(reversed(parts))


def name_tails(names) -> dict[str, tuple[str, ...]]:
    """For each name that begins a longer name, what the longer ones add:
    name_tails(("a", "ab", "b")) == {"a": ("b",)}."""
    ordered = sorted(names)
    tails = {}
    for k, name in enumerate(ordered):
        # the names that begin with name follow it in sorted order
        longer = []
        for other in ordered[k + 1:]:
            if not other.startswith(name):
                break
            longer.append(other[len(name):])
        if longer:
            tails[name] = tuple(longer)
    return tails


# ---------------------------------------------------------------------------
# group specifications


class GroupSpec:
    """Base class for group descriptions; see the concrete variants."""

    __slots__ = ()


@record
class FreeNilpotent(GroupSpec):
    """Free nilpotent group on n generators of class c.

    The catalog's free groups are all of this family: Heisenberg is
    F(2, 2) and FreeAbelian(n) is F(n, 1), each with its own spelling.
    """

    n: int
    c: int

    def __post_init__(self):
        if self.n < 1 or self.c < 1:
            raise ValueError("need n >= 1 and c >= 1")

    def __str__(self):
        return "F(%d,%d)" % (self.n, self.c)

    def presentation(self) -> Presentation:
        """Finite presentation of class 1 (Z^n) or 2 (F(n, 2))."""
        if self.c > 2:
            raise ValueError("the catalog presents classes 1 and 2 only")
        if self.c == 1:
            return free_abelian_presentation(self.n)
        return free_nilpotent_class2_presentation(self.n)


class Heisenberg(FreeNilpotent):
    """The integral Heisenberg group H3 = F(2, 2)."""

    def __init__(self):
        super().__init__(2, 2)

    def __repr__(self):
        return "Heisenberg()"

    def __str__(self):
        return "H3"

    def presentation(self) -> Presentation:
        return replace(super().presentation(), names=("x", "y", "z"))


class FreeAbelian(FreeNilpotent):
    """The free abelian group Z^n = F(n, 1)."""

    def __init__(self, n: int):
        super().__init__(n, 1)

    def __repr__(self):
        return "FreeAbelian(n=%d)" % self.n

    def __str__(self):
        return "Z^%d" % self.n


@record
class FiniteAbelian(GroupSpec):
    """Finite abelian group as a divisor chain d1 | d2 | ... (each >= 2)."""

    divisors: tuple[int, ...]

    def __post_init__(self):
        _check_chain(self.divisors)

    def __str__(self):
        if not self.divisors:
            return "Z/1"
        return " x ".join("Z/%d" % d for d in self.divisors)


@record
class DirectProduct(GroupSpec):
    factors: tuple[GroupSpec, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a direct product needs at least one factor")

    def __str__(self):
        return " x ".join(str(f) for f in self.factors)


@record
class Presented(GroupSpec):
    """A finitely presented group, nilpotent by the caller's assertion.

    Nilpotency of a presentation is undecidable, so it is taken on trust;
    everything computed here (abelianization, finite images) is valid
    regardless.
    """

    presentation: Presentation

    @cached_property
    def h1(self) -> tuple[int, tuple[int, ...]]:
        """(rank, torsion) of H_1, computed once per spec: the cokernel of
        the relators' exponent sums, one sparse column per relator, built
        from its letters; commutators contribute nothing, so nested
        commutator relators come out right automatically."""
        columns = []
        for w in self.presentation.relators:
            sums: dict[int, int] = {}
            for i, e in w.letters:
                sums[i] = sums.get(i, 0) + e
            columns.append({i: e for i, e in sums.items() if e})
        return cokernel_of_columns(self.presentation.generator_count, columns)

    def __str__(self):
        p = self.presentation
        names = p.generator_names()
        tails = name_tails(names)
        rels = ", ".join(word_str(w, names, tails) for w in p.relators)
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
# for pi_1(G)^r.  Both polynomials, in-process on an x86 Linux container:
# SL2, r = 512: 0.04 s; SL9, r = 64: 0.5 s; Sp14, r = 73: 1.2 s
OUTPUT_BOUND = 512
# every invariant factor must print: Python writes an int of at most
# 4,300 digits as text (the default of sys.get_int_max_str_digits())
TORSION_BOUND = 10**4300


@record
class AbelianInvariants:
    """A finitely generated abelian group: free rank plus divisor chain."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        _check_chain(self.torsion)
        if self.torsion and self.torsion[-1] >= TORSION_BOUND:
            raise TooLarge("an invariant factor of %d bits has more than "
                           "4300 digits" % self.torsion[-1].bit_length())

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
    if len(entries) < 2:   # already a chain
        return tuple(entries)
    return cokernel_of_columns(len(entries),
                               [{i: e} for i, e in enumerate(entries)])[1]


def h1_invariants(g: GroupSpec) -> tuple[int, tuple[int, ...]]:
    """H_1 of the group as (rank, torsion divisor chain), with no bound on
    the size of an invariant factor; a written group's is cached on its
    spec (Presented.h1)."""
    if isinstance(g, FreeNilpotent):
        return g.n, ()
    if isinstance(g, FiniteAbelian):
        return 0, g.divisors
    if isinstance(g, DirectProduct):
        parts = [h1_invariants(f) for f in g.factors]
        return (sum(rank for rank, _ in parts),
                _merge_chain([d for _, torsion in parts for d in torsion]))
    if isinstance(g, Presented):
        return g.h1
    raise TypeError("not a group spec: %r" % (g,))


def abelianize(g: GroupSpec) -> AbelianInvariants:
    """H_1 of the group: rank plus torsion divisor chain, each invariant
    factor short enough to print (AbelianInvariants)."""
    return AbelianInvariants(*h1_invariants(g))


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


@record
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
    if isinstance(g, FiniteAbelian):
        return LowerCentralData((abelianize(g),))
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

    A group of class below i, finite abelian groups included, is
    returned as it is; a free nilpotent group drops to class i - 1,
    which is Z^n at i = 2.
    """
    if i < 2:
        raise ValueError("need i >= 2")
    if isinstance(g, FiniteAbelian):
        return g
    if isinstance(g, FreeNilpotent):
        if g.c < i:
            return g
        return FreeAbelian(g.n) if i == 2 else FreeNilpotent(g.n, i - 1)
    if isinstance(g, DirectProduct):
        return DirectProduct(tuple(quotient_by_lcs(f, i) for f in g.factors))
    raise UnsupportedQuotient(
        "lower-central quotients of presented groups are not supported")


def is_abelian(g: GroupSpec) -> bool:
    """Whether the description certifies an abelian group.

    For a presented group we make no claim (False here means "not
    certified").
    """
    if isinstance(g, FiniteAbelian):
        return True
    if isinstance(g, FreeNilpotent):
        return g.c == 1 or g.n == 1
    if isinstance(g, DirectProduct):
        return all(is_abelian(f) for f in g.factors)
    return False


# ---------------------------------------------------------------------------
# catalog presentations


def heisenberg_presentation() -> Presentation:
    return Heisenberg().presentation()


def free_abelian_presentation(n: int) -> Presentation:
    relators = tuple(commutator(gen(i), gen(j))
                     for i in range(n) for j in range(i + 1, n))
    names = tuple("x%d" % (i + 1) for i in range(n))
    return Presentation(n, relators, names=names)


def finite_abelian_presentation(chain) -> Presentation:
    _check_chain(chain)
    if not chain:
        return Presentation(1, (gen(0),), names=("x1",))
    free = free_abelian_presentation(len(chain))
    powers = tuple(power(gen(i), d) for i, d in enumerate(chain))
    return replace(free, relators=powers + free.relators)


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
