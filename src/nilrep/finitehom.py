"""Finite quotients and connectivity of representation spaces.

Homomorphisms from a finitely presented nilpotent group into a finite
group are enumerated by depth-first search over generator images with
relator pruning; each depth carries down the subgroup its images
generate, grown one generator at a time, so surjectivity and the
witness test are read at the leaves without closing any image there.
A finite group tabulates the powers of its elements once, so each
letter g^e of a relator costs one lookup and one product at any e.
Every map into an abelian target factors through H_1, so such a target
is searched on H_1's presentation: one free generator per unit of rank,
one generator with the relator g^d per torsion divisor d, and no
commutator relators.  One bound, SEARCH_LIMIT on the leaves, limits
every search.
A homomorphism onto the quaternion group, which sits in SL_2,
certifies that the representation variety and the character variety
are both disconnected when the target contains a root SL_2.
The other rules are the torus computation, the torsion obstruction, the
non-abelian free nilpotent rule, and the facts about commuting tuples.
One verdict covers both spaces, since the identity component of the
quotient is the quotient of the identity component.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, product, repeat

from .arith import totient
from .errors import NilrepError, TooLarge, UnsupportedGroup
from .groups import (DirectProduct, FiniteAbelian, FreeNilpotent, GroupSpec,
                     Presentation, Presented, abelianize,
                     finite_abelian_presentation, gen, h1_invariants,
                     is_abelian, merge_presentations, power, quotient_by_lcs)
from .record import record
from .rootdata import Factor, ReductiveSpec, _orbit, build_root_datum

# leaves of one search, every target order below 2 counted as 2: at most
# 6 generators into Q8 and 18 into C2; Z^3 into c100 (10^6 leaves) takes
# about 2.4 s in-process with the limit lifted, nearly all of it in
# relator evaluation
SEARCH_LIMIT = 8**6
# the largest m that central_image_order_bound accepts: the bound has
# 2,510 digits at m = 512, and past about 700 it has more digits than
# Python converts to a string
ORDER_BOUND_M_LIMIT = 512
# largest order of a cyclic or dihedral table: the table has order^2
# entries (order 300 took 2.1 s to build and search, order 600 16 s)
FINITE_ORDER_BOUND = 256


# ---------------------------------------------------------------------------
# finite groups as multiplication tables


class FiniteGroup:
    """A finite group given by its multiplication table on 0..order-1.

    Construction verifies the identity and inverse laws always, and full
    associativity for orders up to 24 (the sizes used here).  It also
    tabulates every power g^k, 0 <= k < order, so power() is one lookup.
    """

    def __init__(self, table, labels=None, name="group"):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.name = name
        if any(len(row) != self.order for row in self.table):
            raise ValueError("table must be square")
        if any(not 0 <= e < self.order for row in self.table for e in row):
            raise ValueError("table entries must be element indices")
        self.labels = tuple(labels) if labels else tuple(
            "e%d" % i for i in range(self.order))
        if len(self.labels) != self.order:
            raise ValueError("need one label per element")
        self.identity = self._find_identity()
        self.inverse = tuple(self._find_inverse(g) for g in range(self.order))
        if self.order <= 24:
            for a, b, c in product(range(self.order), repeat=3):
                if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                    raise ValueError("table is not associative")
        # powers[g][k] = g^k, one multiplication per entry, so a row costs
        # order - 1 products even for a table whose associativity was not
        # checked
        self.powers = tuple(
            tuple(accumulate(repeat(g, self.order - 1), self.mul,
                             initial=self.identity))
            for g in range(self.order))

    def _find_identity(self):
        for e in range(self.order):
            if all(self.table[e][g] == g == self.table[g][e]
                   for g in range(self.order)):
                return e
        raise ValueError("table has no identity element")

    def _find_inverse(self, g):
        for h in range(self.order):
            if self.table[g][h] == self.identity == self.table[h][g]:
                return h
        raise ValueError("element %d has no inverse" % g)

    def mul(self, a, b):
        return self.table[a][b]

    def power(self, g, e):
        # g^order = 1 (Lagrange), and e % order lies in [0, order) for a
        # negative e too
        return self.powers[g][e % self.order]

    def commutator(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        out = self.mul(self.inverse[a], self.inverse[b])
        return self.mul(self.mul(out, a), b)

    def closure(self, generators) -> frozenset:
        # right multiplication by generators suffices: in a finite group
        # every inverse is a positive power
        return frozenset(_orbit({self.identity, *generators}, generators,
                                lambda h, g: self.table[g][h]))

    def is_abelian_subset(self, elems) -> bool:
        elems = list(elems)
        return all(self.mul(a, b) == self.mul(b, a)
                   for a in elems for b in elems)

    def centralizer_size(self, g) -> int:
        return sum(1 for h in range(self.order)
                   if self.mul(g, h) == self.mul(h, g))

    def nilpotency_class(self):
        """Length of the lower central series, or None if not nilpotent."""
        everything = list(range(self.order))
        layer = frozenset(everything)
        depth = 0
        while True:
            depth += 1
            commutators = {self.commutator(g, h)
                           for g in everything for h in layer}
            nxt = self.closure(commutators)
            if nxt == frozenset({self.identity}):
                return depth
            if nxt == layer:
                return None
            layer = nxt

    def __repr__(self):
        return "FiniteGroup(%s, order=%d)" % (self.name, self.order)


# ---------------------------------------------------------------------------
# built-in targets


def _gauss_mat_mul(a, b):
    # 2x2 matrices over Z[i]; entries are (re, im) pairs
    def cmul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def cadd(x, y):
        return (x[0] + y[0], x[1] + y[1])

    return tuple(tuple(cadd(cmul(a[i][0], b[0][j]), cmul(a[i][1], b[1][j]))
                       for j in range(2)) for i in range(2))


@cache
def q8() -> FiniteGroup:
    """The quaternion group of order 8, generated inside SL_2(C) by
    diag(i, -i) and the rotation [[0, 1], [-1, 0]], multiplied exactly
    over the Gaussian integers.  Built and checked once per process; every
    caller shares the one table."""
    gen_i = (((0, 1), (0, 0)), ((0, 0), (0, -1)))
    gen_j = (((0, 0), (1, 0)), ((-1, 0), (0, 0)))
    one = (((1, 0), (0, 0)), ((0, 0), (1, 0)))
    elems = _orbit([one], (gen_i, gen_j), lambda g, m: _gauss_mat_mul(m, g))

    def neg(m):
        return tuple(tuple((-re, -im) for re, im in row) for row in m)

    gen_k = _gauss_mat_mul(gen_i, gen_j)
    ordered = [one, neg(one), gen_i, neg(gen_i), gen_j, neg(gen_j),
               gen_k, neg(gen_k)]
    if set(ordered) != set(elems):
        raise NilrepError("Gaussian generators do not close up to Q8")
    index = {m: i for i, m in enumerate(ordered)}
    table = [[index[_gauss_mat_mul(a, b)] for b in ordered] for a in ordered]
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    return FiniteGroup(table, labels, name="Q8")


def _check_order(order: int, name: str) -> None:
    if order > FINITE_ORDER_BOUND:
        raise TooLarge("%s has order %d, past the table bound %d"
                       % (name, order, FINITE_ORDER_BOUND))


def cyclic(n: int) -> FiniteGroup:
    _check_order(n, "C%d" % n)
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = ["1"] + ["g^%d" % a if a > 1 else "g" for a in range(1, n)]
    return FiniteGroup(table, labels, name="C%d" % n)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: elements (rotation, flip)."""
    _check_order(2 * n, "D%d" % n)
    elems = [(rot, flip) for flip in (0, 1) for rot in range(n)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(a, b):
        # (r1, f1) * (r2, f2): the flip conjugates rotations to inverses
        r1, f1 = a
        r2, f2 = b
        return ((r1 + (n - r2 if f1 else r2)) % n, f1 ^ f2)

    table = [[index[mul(a, b)] for b in elems] for a in elems]
    labels = []
    for r, f in elems:
        rot = "r^%d" % r if r else ""
        labels.append(("s" + rot) if f else (rot or "1"))
    return FiniteGroup(table, labels, name="D%d" % n)


# ---------------------------------------------------------------------------
# homomorphism enumeration


@record
class HomSearchResult:
    """Counts from a full enumeration of Hom(group, target).

    witness is the first generator-image tuple (in depth-first order by
    element index) whose image subgroup is non-abelian, if any; it is a
    surjection onto that subgroup.  presentation records which generators
    the indices refer to.
    """

    total: int
    surjective: int
    witness: tuple[int, ...] | None
    presentation: Presentation


def presentation_for_homs(g, target: FiniteGroup) -> Presentation:
    """A finite presentation with the same maps into target as g.

    An abelian target is searched on H_1 (_abelian_presentation); H_1
    never needs more generators than any presentation of g, and the maps,
    surjections and (absent) witnesses are the same.  Otherwise a map
    into a target of nilpotency class k kills the (k + 1)-st lower-central
    term, so each free nilpotent factor is searched on its quotient by
    that term: the class-2 quotient for Q8.  The catalog presents classes
    1 and 2; a factor left at class >= 3 (or any class >= 3 into a target
    that is not nilpotent) raises UnsupportedGroup.  The generator count
    is read from the specs and checked against SEARCH_LIMIT before any
    relator is written.
    """
    if isinstance(g, Presentation):
        g = Presented(g)
    k = target.nilpotency_class()
    if k == 1:
        rank, torsion = h1_invariants(g)
        _check_search(max(rank + len(torsion), 1), target)
        return _abelian_presentation(rank, torsion)
    g = _searched(g, k)
    _check_search(_generator_count(g), target)
    return _presentation(g)


def _check_search(gens: int, target: FiniteGroup) -> None:
    """Raise TooLarge when a search over gens generators would pass
    SEARCH_LIMIT leaves.  A target of order 1 counts as 2, so no search
    is deeper than 18 generators; past that depth 2^gens alone passes
    the limit, and no power of a written rank is computed."""
    base = max(target.order, 2)
    if gens >= SEARCH_LIMIT.bit_length() or base ** gens > SEARCH_LIMIT:
        raise TooLarge("search space %d^%d exceeds the limit" % (base, gens))


def _abelian_presentation(rank, torsion) -> Presentation:
    """rank free generators, then one generator g with the relator g^d
    per torsion divisor d; the trivial group is <g | g>.  The commutator
    relators are left out: every map into an abelian target meets them."""
    gens = rank + len(torsion)
    if gens == 0:
        return Presentation(1, (gen(0),))
    return Presentation(gens, tuple(power(gen(rank + i), d)
                                    for i, d in enumerate(torsion)))


def _searched(g, k):
    """g with each free nilpotent factor replaced by its quotient by the
    (k + 1)-st lower-central term; k is None for a target that is not
    nilpotent."""
    if isinstance(g, DirectProduct):
        return DirectProduct(tuple(_searched(f, k) for f in g.factors))
    if not isinstance(g, FreeNilpotent):
        return g
    if is_abelian(g):   # F(1, c) is Z
        return quotient_by_lcs(g, 2)
    searched = g if k is None else quotient_by_lcs(g, k + 1)
    if searched.c > 2:
        raise UnsupportedGroup(
            "no finite presentation of %s is available at the class of the "
            "target group" % g)
    return searched


def _generator_count(g) -> int:
    """Generators of _presentation(g), from the specs alone."""
    if isinstance(g, Presented):
        return g.presentation.generator_count
    if isinstance(g, FiniteAbelian):
        return max(len(g.divisors), 1)
    if isinstance(g, DirectProduct):
        return sum(_generator_count(f) for f in g.factors)
    if isinstance(g, FreeNilpotent):
        return g.n * (g.n + 1) // 2 if g.c == 2 else g.n
    raise TypeError("not a group spec or presentation: %r" % (g,))


def _presentation(g) -> Presentation:
    if isinstance(g, Presented):
        return g.presentation
    if isinstance(g, FiniteAbelian):
        return finite_abelian_presentation(g.divisors)
    if isinstance(g, DirectProduct):
        return merge_presentations(_presentation(f) for f in g.factors)
    return g.presentation()


def _evaluate(letters, images, target: FiniteGroup) -> int:
    out = target.identity
    for g, e in letters:
        out = target.mul(out, target.power(images[g], e))
    return out


def enumerate_homs(g, target: FiniteGroup) -> HomSearchResult:
    """Exact count of homomorphisms by DFS over generator images.

    Relators are checked as soon as all their generators have images, so
    dead branches are pruned early; generator images are tried in element
    index order, which makes the reported witness deterministic.

    Each depth passes down the subgroup its images generate, so no leaf
    closes its image again.  An image already in the parent subgroup
    keeps it; otherwise the grown subgroup is closed over the images so
    far (at most 18 of them, by SEARCH_LIMIT), once per search for each
    (parent subgroup, new image) pair.  A leaf is surjective when its
    subgroup is the whole target, and is a witness when its subgroup is
    not abelian, which is when its images do not commute pairwise.
    """
    pres = presentation_for_homs(g, target)
    gens = pres.generator_count
    # each relator's letters with exponents reduced modulo the target's
    # order once, not at every node: a written exponent may have
    # thousands of digits, and a reduced one may be 0
    by_depth: list[list[tuple[tuple[int, int], ...]]] = [
        [] for _ in range(gens)]
    for w in pres.relators:
        if w.letters:
            by_depth[w.max_generator()].append(
                tuple((g, e % target.order) for g, e in w.letters))

    images = [target.identity] * gens
    counts = {"total": 0, "surjective": 0}
    found: list[tuple[int, ...] | None] = [None]
    trivial = frozenset({target.identity})
    # per search: one (subgroup, is abelian) node per distinct subgroup,
    # and the node grown from each (parent subgroup, new image) pair
    nodes = {trivial: (trivial, True)}
    grown: dict[tuple[frozenset, int], tuple[frozenset, bool]] = {}

    def grow(parent, depth):
        key = (parent, images[depth])
        node = grown.get(key)
        if node is None:
            generators = images[:depth + 1]
            sub = target.closure(generators)
            # commuting generators generate an abelian group
            node = nodes.setdefault(
                sub, (sub, target.is_abelian_subset(generators)))
            grown[key] = node
        return node

    def dfs(depth, node):
        sub, commutative = node
        if depth == gens:
            counts["total"] += 1
            if len(sub) == target.order:
                counts["surjective"] += 1
            if found[0] is None and not commutative:
                found[0] = tuple(images)
            return
        for candidate in range(target.order):
            images[depth] = candidate
            if all(_evaluate(letters, images, target) == target.identity
                   for letters in by_depth[depth]):
                dfs(depth + 1,
                    node if candidate in sub else grow(sub, depth))
        images[depth] = target.identity

    dfs(0, nodes[trivial])
    return HomSearchResult(counts["total"], counts["surjective"],
                           found[0], pres)


def surjection_witness(g, target: FiniteGroup):
    """First DFS-discovered map whose image is a non-abelian subgroup of
    the target, or None.  Such a map realizes a surjection of the group
    onto a finite non-abelian subgroup."""
    return enumerate_homs(g, target).witness


def central_image_order_bound(m: int) -> int:
    """Explicit bound on the order of the top lower-central image of a
    nilpotent subgroup of SU_m.

    The top layer acts by roots of unity of order at most m on each
    eigenspace, so it fits inside the diagonal matrices with such
    entries; there are (sum_{k<=m} phi(k))^m of those.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > ORDER_BOUND_M_LIMIT:
        raise TooLarge("m = %d exceeds the supported bound %d"
                       % (m, ORDER_BOUND_M_LIMIT))
    return sum(totient(k) for k in range(1, m + 1)) ** m


# ---------------------------------------------------------------------------
# connectivity verdicts


CONNECTED = "Connected"
DISCONNECTED = "Disconnected"
UNKNOWN = "Unknown"


@record
class Verdict:
    """Connectivity verdict for Hom(group, G) and, by the quotient
    transfer, for the character variety as well."""

    status: str
    reason_code: str
    reason: str
    witness: tuple[int, ...] | None = None

    def __str__(self):
        return "%s (%s)" % (self.status, self.reason)


def _dual_labels_one(f: Factor) -> bool:
    """Whether every dual Kac label (coefficient of the highest root's
    coroot on the simple coroots) is 1: A, C, B_(l<=2) and D_(l<=3)."""
    kind, l, _ = f.cartan_type()
    return kind in (None, "A", "C") or l <= {"B": 2, "D": 3}.get(kind, 0)


def connectivity_verdict(g: GroupSpec, spec: ReductiveSpec) -> Verdict:
    """Decide connectivity of Hom(group, G) where the implemented theory
    can, and say Unknown where it cannot.

    Every rule reads G through its root datum, never a family name.  A
    simply connected factor with a dual Kac label of at least 2 has
    commuting triples in no torus (Borel, Friedman and Morgan, Almost
    commuting elements in compact Lie groups, Mem. AMS 2002), and
    restriction to three coordinates carries the identity component of
    Hom(Z^r, G) into that of Hom(Z^3, G), so every r >= 3 is disconnected.
    """
    ab = abelianize(g)
    r = ab.rank
    blocks = build_root_datum(spec).blocks

    if not any(b.coroots for b in blocks):
        if not ab.torsion:
            return Verdict(CONNECTED, "torus_target",
                           "the target is an algebraic torus and H_1 is "
                           "torsion-free, so the space is a torus power T^%d"
                           % r)
        return Verdict(DISCONNECTED, "torus_target_torsion",
                       "the torsion part of H_1 maps to a torus in more than "
                       "one way, and each choice is isolated; %s admits %s"
                       % (spec, ab))

    if not is_abelian(g) and any(b.contains_sl2 for b in blocks):
        try:
            witness = surjection_witness(g, q8())
        except (TooLarge, UnsupportedGroup):
            witness = None
        if witness is not None:
            return Verdict(DISCONNECTED, "finite_nonabelian_quotient",
                           "the group surjects onto a quaternion subgroup of "
                           "the target, so no path connects that "
                           "representation to the trivial one",
                           witness=witness)

    if ab.torsion:
        return Verdict(DISCONNECTED, "torsion_obstruction",
                       "H_1 has torsion %s; its finite-order characters into "
                       "a maximal torus cannot deform to the trivial "
                       "representation" % (list(ab.torsion),))

    if isinstance(g, FreeNilpotent) and not is_abelian(g):
        return Verdict(DISCONNECTED, "nonabelian_free_family",
                       "a non-abelian free nilpotent or Heisenberg group has "
                       "disconnected representation and character spaces for "
                       "every reductive target that is not a torus")

    if is_abelian(g):
        if r == 0:
            return Verdict(CONNECTED, "trivial_group",
                           "the trivial group has a single representation")
        if r == 1:
            return Verdict(CONNECTED, "single_generator",
                           "Hom(Z, G) = G, which is connected")
        if any(b.cokernel.torsion for b in blocks):
            return Verdict(DISCONNECTED, "not_simply_connected",
                           "the target has a non-simply-connected simple "
                           "factor, and commuting %d-tuples in it do not all "
                           "lie on one component" % r)
        if all(map(_dual_labels_one, spec.factors)):
            return Verdict(CONNECTED, "commuting_tuples_diagonalizable",
                           "commuting tuples in the compact forms of these "
                           "factors are simultaneously diagonalizable, so "
                           "Hom(Z^%d, G) is connected, as Hom(Z^r, G) is for "
                           "every r" % r)
        if r == 2:
            return Verdict(CONNECTED, "commuting_pairs_irreducible",
                           "commuting pairs in a connected semisimple group "
                           "form an irreducible, hence connected, variety")
        return Verdict(DISCONNECTED, "nontoral_commuting_triples",
                       "a simply connected factor with a dual Kac label of "
                       "at least 2 has commuting triples, and so commuting "
                       "%d-tuples, in no maximal torus" % r)

    return Verdict(UNKNOWN, "outside_catalog",
                   "no implemented criterion decides this group/target pair")
