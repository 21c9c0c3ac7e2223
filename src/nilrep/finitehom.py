"""Finite quotients and connectivity of representation spaces.

Homomorphisms from a finitely generated nilpotent group into a finite
group are counted by one depth-first search over generator images with
relator pruning.  It carries down one search node: the subgroup S that
the images so far generate, its generators and its centralizer C(S),
grown by _grow one new image at a time and closed once per (S, image)
in a count.  A leaf is onto when S is the target, and a witness when S
is not abelian, that is when S does not lie in C(S).
A commuting relator [x_i, x_d] (four letters, exponents +-1, any
rotation) is not checked: x_d draws its images from the centralizers of
the images of the x_i that such relators name.  Products factor through
these relators: where every later generator commutes with every earlier
one and no other relator joins them, the count below is made once per
(generator, S).  One plan, _plan, picks what each count searches and
sizes it.  Every map with abelian image, because the group is certified
abelian or the target is abelian, factors through H_1, so such a count
is sized, searched and reported on H_1 alone, as written by
groups.abelian_presentation.  H_1's commutators are relators like any
other, so every one of its generators is a factor start.  Every other
count reads its group through one walk of the specs, _lowered: a map
into a target of class k factors through the quotient by the (k + 1)-st
lower-central term, and the walk gives that quotient's generator count,
a key without display names, and a writer of its presentation.  Either
way the plan checks the count against SEARCH_LIMIT before the writer
runs.
Conjugation by C(S) fixes every image chosen so far and permutes the
maps below a node, so a node searches one candidate per conjugation
orbit of C(S), the first by index, and counts it once per member of the
orbit: the counts and the witness are those of the full search.
A finite group tabulates its powers and centralizers once.  A search
node folds each run of every other relator's letters on earlier
generators into one element, so a candidate image costs one table
product per run and one per letter on its own generator, at any
exponent.  One bound, SEARCH_LIMIT on base^gens, checked by the plan
before any search, limits every count.
A verdict needs only the first witness, so surjection_witness runs the
same search with a stop flag: it raises at the first witness leaf, having
visited the nodes that the full count visits before it, and makes no
count.
A homomorphism onto the quaternion group, which sits in SL_2,
certifies that the representation variety and the character variety
are both disconnected when the target contains a root SL_2.  That
witness is a fact of the group alone, so the verdict searches each group
value once per process and every later target reads it back: the memo
is keyed on _lowered's key, which leaves display names out, so the
spellings of one written group share one search.  The plan that gives
the key also writes the searched presentation, so a miss walks the
specs once.
The verdict is one ordered table of rungs, each a reason code, a status,
a test and a reason template with {} fields: the first rung whose test
holds decides, and one Verdict is built from it.  The other rungs are
the torus computation, the torsion obstruction, the non-abelian free
nilpotent rule, and the facts about commuting tuples.
One verdict covers both spaces, since the identity component of the
quotient is the quotient of the identity component.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from itertools import accumulate, compress, repeat
from operator import eq

from .errors import NilrepError, TooLarge, UnsupportedGroup
from .groups import (ABELIAN_ON_TRUST, ABELIAN_OUTRIGHT, DirectProduct,
                     FiniteAbelian, FreeNilpotent, GroupSpec, Presentation,
                     Presented, abelian_presentation, abelianize,
                     h1_invariants, is_abelian, merge_presentations,
                     quotient_by_lcs)
from .record import record
from .rootdata import (Factor, ReductiveSpec, RootDatum, _orbit,
                       build_root_datum)

# bound on base^gens, the target's order (at least 2) to the power of the
# searched generator count, checked before any search: at most 6
# generators into Q8 and 18 into C2.  It does not bound the leaves that a
# search visits, which are far fewer, one subtree per (factor start, S)
# and per conjugation orbit of C(S): Z^3 into c100 (10^6 maps) takes
# about 0.04 s in-process with the limit lifted (2-core x86 Linux)
SEARCH_LIMIT = 8**6
# the largest m that central_image_order_bound accepts: the bound has
# 2,510 digits at m = 512, and past about 700 it has more digits than
# Python converts to a string
ORDER_BOUND_M_LIMIT = 512
# largest order of any table generated builds: the table has order^2
# entries
FINITE_ORDER_BOUND = 256


# ---------------------------------------------------------------------------
# finite groups as multiplication tables


class FiniteGroup:
    """A finite group given by its multiplication table on 0..order-1.

    Construction verifies the identity and inverse laws always, and full
    associativity for orders up to 24.  It also
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
            # (ab)c = a(bc) for every c at once: row ab of the table
            # against row b read through row a
            t = self.table
            for row in t:
                for ab, row_b in zip(row, t):
                    if t[ab] != tuple(map(row.__getitem__, row_b)):
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

    @cached_property
    def centralizers(self) -> tuple[frozenset, ...]:
        """centralizers[g] = C(g), the elements that commute with g: row g
        of the table against column g, computed once per table."""
        return tuple(frozenset(compress(range(self.order), map(eq, row, col)))
                     for row, col in zip(self.table, zip(*self.table)))

    @cached_property
    def nilpotency_class(self):
        """Length of the lower central series, or None if not nilpotent;
        computed once per table, since every search asks for it."""
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


def generated(name: str, order: int, identity, generators, product,
              label) -> FiniteGroup:
    """The finite group that generators close up to from identity under
    x -> product(x, g), stated to have order elements: refused below 1
    or past FINITE_ORDER_BOUND before any product, indexed in _orbit's
    sorted order, and labelled by label(element)."""
    if order < 1:
        raise NilrepError("%s has order %d; a group has at least one element"
                          % (name, order))
    if order > FINITE_ORDER_BOUND:
        raise TooLarge("%s has order %d, past the table bound %d"
                       % (name, order, FINITE_ORDER_BOUND))
    elems = _orbit([identity], generators, lambda g, x: product(x, g))
    if len(elems) != order:
        raise NilrepError("%s closes up to %d elements, not %d"
                          % (name, len(elems), order))
    index = {x: i for i, x in enumerate(elems)}
    table = [[index[product(a, b)] for b in elems] for a in elems]
    return FiniteGroup(table, [label(x) for x in elems], name)


def _quaternion_product(a, b):
    # (unit, sign) with units 0-3 for 1, i, j, k: the units multiply as
    # XOR on their bits (ij = k, jk = i, ki = j), and a product of two
    # non-trivial units out of that cyclic order, u^2 included, is negated
    (u, s), (v, t) = a, b
    return u ^ v, s ^ t ^ (u and v and (v - u) % 3 != 1)


@cache
def q8() -> FiniteGroup:
    """The quaternion group of order 8, in the order 1, -1, i, -i, j, -j,
    k, -k.  i -> diag(i, -i) and j -> [[0, 1], [-1, 0]] embed it in
    SL_2(C), as the verdict's quaternion witness needs.  Built once per
    process; every caller shares the one table."""
    return generated("Q8", 8, (0, 0), ((1, 0), (2, 0)), _quaternion_product,
                     lambda x: ("-" if x[1] else "") + "1ijk"[x[0]])


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n: residues modulo n, generated by 1."""
    return generated("C%d" % n, n, 0, (1,), lambda a, b: (a + b) % n,
                     lambda a: "g^%d" % a if a > 1 else "g" if a else "1")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: elements (flip, rotation), generated by
    the rotation (0, 1) and the flip (1, 0), which conjugates rotations to
    their inverses."""
    def product(a, b):
        (f, r), (g, q) = a, b
        return f ^ g, (r + (-q if f else q)) % n

    return generated("D%d" % n, 2 * n, (0, 0), ((0, 1), (1, 0)), product,
                     lambda x: ("s" if x[0] else "")
                     + ("r^%d" % x[1] if x[1] else "") or "1")


# ---------------------------------------------------------------------------
# homomorphism enumeration


@record
class HomSearchResult:
    """The exact number of maps in Hom(group, target), and of those onto.

    witness is the first generator-image tuple (in depth-first order by
    element index) whose image subgroup is non-abelian, if any; it is a
    surjection onto that subgroup.  presentation is the searched one, to
    which the indices refer: H_1's when every image is abelian.  Counting
    its maps into the target gives the same result.
    """

    total: int
    surjective: int
    witness: tuple[int, ...] | None
    presentation: Presentation


def _lowered(g, k):
    """(generators, key, write) for g with each free nilpotent factor
    replaced by its quotient by the (k + 1)-st lower-central term, k None
    for a target that is not nilpotent: the generator count and a key
    read from the specs alone, and write, which builds the presentation
    when called.  The key leaves out display names, which no search
    reads: a written group is its generator count and relators, a product
    the tuple of its factors' keys, and a catalog group its lowered spec.
    A written key starts with an int and a product's never does, so no
    two collide.  A free nilpotent factor left at class >= 3 raises
    UnsupportedGroup, and anything that is no group spec TypeError, both
    before any writer runs."""
    if isinstance(g, DirectProduct):
        counts, keys, writers = zip(*(_lowered(f, k) for f in g.factors))
        return sum(counts), keys, lambda: merge_presentations(
            write() for write in writers)
    if isinstance(g, Presented):
        pres = g.presentation
        return (pres.generator_count, (pres.generator_count, pres.relators),
                lambda: pres)
    if isinstance(g, FiniteAbelian):
        return (max(len(g.divisors), 1), g,
                lambda: abelian_presentation(0, g.divisors))
    if not isinstance(g, FreeNilpotent):
        raise TypeError("not a group spec: %r" % (g,))
    # F(1, c) is Z at every class
    low = (quotient_by_lcs(g, 2) if is_abelian(g) else
           g if k is None else quotient_by_lcs(g, k + 1))
    if low.c > 2:
        raise UnsupportedGroup(
            "no finite presentation of %s is available at the class of the "
            "target group" % g)
    return (low.n * (low.n + 1) // 2 if low.c == 2 else low.n, low,
            low.presentation)


def _plan(g, target: FiniteGroup):
    """(key, write) for the search of g into target, one walk of the
    specs: H_1's abelian_presentation when every image is abelian, with
    key None, else _lowered's key and writer.  The generator count is
    sized first: TooLarge when base^gens, base the target's order, passes
    SEARCH_LIMIT, before anything is written, keyed or hashed.  A target
    of order 1 counts as 2, so no search is deeper than 18 generators;
    past that depth 2^gens alone passes the limit, and no power of a
    written rank is computed."""
    k = target.nilpotency_class
    # into a nilpotent target a cyclic H_1 makes every image cyclic; into
    # any other, a written group is cyclic only on trust, so it is searched
    level = is_abelian(g)
    if k == 1 or level == ABELIAN_OUTRIGHT or level and k is not None:
        rank, torsion = h1_invariants(g)
        gens, key = max(rank + len(torsion), 1), None
        write = partial(abelian_presentation, rank, torsion)
    else:
        gens, key, write = _lowered(g, k)
    base = max(target.order, 2)
    if gens >= SEARCH_LIMIT.bit_length() or base ** gens > SEARCH_LIMIT:
        raise TooLarge("search space %d^%d exceeds the limit" % (base, gens))
    return key, write


def _commuting_partner(letters):
    """i when letters are a rotation of x_i^e x_d^f x_i^-e x_d^-f with
    |e| = |f| = 1 and i < d, else None: such a relator holds exactly when
    the images of x_i and x_d commute."""
    if len(letters) == 4:
        (a, e), (b, f), (c, g), (h, k) = letters
        if a == c and b == h and e == -g and f == -k and abs(e) == abs(f) == 1:
            return min(a, b)
    return None


def _grow(target: FiniteGroup, grown: dict, node, x):
    """The search node of <S, x> for x outside S, from S's node
    (S, generators of S, C(S)): the generators gain x, the centralizer
    narrows to C(S) & C(x), and <S, x> is closed once per (S, x) in
    grown, the dict of one count.  A centralizer that does not narrow is
    passed on as the same object, so the search's tables keyed by C(S)
    find it by identity."""
    sub, generators, common = node
    child = grown.get((sub, x))
    if child is None:
        generators = (*generators, x)
        narrowed = common & target.centralizers[x]
        child = grown[sub, x] = (
            target.closure(generators), generators,
            common if len(narrowed) == len(common) else narrowed)
    return child


class _Witness(Exception):
    """Raised by a stopped search at its first witness leaf, carrying the
    witness."""


def enumerate_homs(g, target: FiniteGroup) -> HomSearchResult:
    """Exact count of homomorphisms, with the first witness, by one
    depth-first search over generator images.

    One plan, _plan, chooses what is searched and sizes it.  When every
    image is abelian, because the group is certified abelian or the
    target is abelian, the maps are those from H_1: the search runs on
    H_1's abelian_presentation, and no witness exists.  A group that
    is_abelian certifies only on trust is counted so only into a
    nilpotent target.  Otherwise a map into a target of nilpotency class
    k kills the (k + 1)-st lower-central term, so each free nilpotent
    factor is searched on its quotient by that term: the class-2 quotient
    for Q8.  One walk of the specs, _lowered, makes that quotient; the
    catalog presents classes 1 and 2, so a factor left at class >= 3
    raises UnsupportedGroup there.  Either way the generator count is
    read before anything is written, and the plan checks it against
    SEARCH_LIMIT before the writer builds any relator.

    The search tries generator images in element index order, which makes
    the reported witness deterministic.  Every relator but the commuting
    ones (below) is checked once all its generators have images: a node
    folds each maximal run of its letters on earlier generators into one
    element, so a candidate costs one product per run and one per letter
    on its own generator.  Each depth passes down the node
    (S, generators, C(S)) of the subgroup S its images generate: an image
    in S keeps the node, any other grows it by _grow, so no leaf closes
    its image again.  A leaf is surjective when S is the whole target, and
    is a witness when S is not abelian, which is when S does not lie in
    its own centralizer C(S).

    Commuting relators, and products through them.  A commuting relator,
    x_i^e x_d^f x_i^-e x_d^-f with |e| = |f| = 1 in any rotation and
    i < d, holds exactly when the images of x_i and x_d commute, so it is
    not checked: the candidates at depth d are the intersection, in index
    order, of C(images[i]) over the partners i such relators name, which
    is C(S) when they are every earlier generator, as on H_1's
    presentation.  Depth d is a factor start when every generator from d
    on has every generator before d as a partner and no other relator from
    d on reaches below d.  Below a start every image lies in C(S), and
    (total, surjective) below it depends on S alone: it is counted once
    per (start, S) in a count.  A product's cross commutators, in the
    catalog or written out, make each factor's first generator a start.
    For Z^r this is |Hom(Z^r, G)| = sum over g of |Hom(Z^(r-1), C(g))|
    (Erdos and Turan, Statistical group theory IV, 1968).  A later visit
    of (start, S) holds no witness that the first did not, so the witness
    is the one a full search finds first.

    Conjugation orbits.  Conjugation by h in C(S) fixes every image
    chosen so far, and maps each candidate set and every folded relator
    check onto itself, so it maps the maps below
    candidate c one to one onto the maps below h c h^-1: the same counts,
    and an image that is abelian exactly when c's is.  A node therefore
    tries only the first candidate, by index, of each orbit of C(S)
    acting by conjugation, and adds its (total, surjective) once per
    member of the orbit.  At the root C(S) is the whole target, its
    orbits are the conjugacy classes, and |Hom(Z^2, G)| = k(G) |G| for
    k(G) classes.  A full search reaches c's subtree before that of any
    other member of its orbit, and the orbit's other members hold a
    witness only when c's subtree does, so the witness is unchanged.
    The orbits are built lazily, once per (C(S), candidate) in a count;
    a candidate that C(S) centralizes is its own orbit, so a node of an
    abelian target or a central candidate builds none.

    The stop.  The search is _search(pres, target, stop) on the plan's
    written presentation; enumerate_homs runs it without stop and always
    returns exact totals.  surjection_witness and the verdict's memo miss
    run it with stop, through _stopped, which catches the raise at the
    first witness leaf.  Up to that leaf the two runs visit the same nodes in
    the same order, and the full count sets its witness there, so the
    witness is the same; nothing after the leaf is visited.
    """
    return _search(_plan(g, target)[1](), target, stop=False)


def _search(pres, target: FiniteGroup, stop: bool) -> HomSearchResult:
    """The search of enumerate_homs on the written presentation pres;
    with stop, it raises _Witness at the first witness leaf, the one where
    the full count sets its witness."""
    gens = pres.generator_count
    table, powers, one, n = (target.table, target.powers, target.identity,
                             target.order)
    centralizers, inverse = target.centralizers, target.inverse
    # commuting[d] holds the i < d that a commuting relator names as x_d's
    # partners.  Every other relator on d is split once into (True, e), a
    # letter on d, and (False, run), a maximal run on earlier generators,
    # and low[d] is the smallest generator they reach; exponents are
    # reduced modulo the order once: a written exponent may have thousands
    # of digits, and a reduced one may be 0
    by_depth: list[list[list]] = [[] for _ in range(gens)]
    commuting = [set() for _ in range(gens)]
    low = list(range(gens))
    for w in pres.relators:
        if w.letters:
            d = w.max_generator()
            partner = _commuting_partner(w.letters)
            if partner is not None:
                commuting[d].add(partner)
                continue
            low[d] = min(low[d], min(w.letters)[0])
            segments = []
            for i, e in w.letters:
                if i == d:
                    segments.append((True, e % n))
                elif segments and not segments[-1][0]:
                    segments[-1][1].append((i, e % n))
                else:
                    segments.append((False, [(i, e % n)]))
            by_depth[d].append(segments)
    # d is a factor start when every generator from d on commutes with
    # every one before d and no other relator from d on reaches below d
    starts, reach = [False] * gens, gens
    for d in reversed(range(gens)):
        reach = min(reach, low[d], *(set(range(d)) - commuting[d]))
        starts[d] = reach >= d

    images = [one] * gens
    grown: dict = {}
    counted: dict[tuple[int, frozenset], tuple[int, int]] = {}
    # weights[C][c] is the size of c's orbit under conjugation by C when c
    # is the orbit's first element by index, and 0 for the orbit's other
    # elements; filled one orbit at a time, when a node with C(S) = C
    # first tries one of its elements
    weights: dict[frozenset, dict[int, int]] = {}
    witness = None

    def dfs(depth, node):
        """(total, surjective) below node at depth, the images above it
        in images[:depth]; sets witness at the first non-abelian leaf."""
        nonlocal witness
        sub, _, common = node
        if depth == gens:
            if witness is None and not sub <= common:
                witness = tuple(images)
                if stop:
                    raise _Witness(witness)
            return 1, len(sub) == n
        if starts[depth]:
            below = counted.get((depth, sub))
            if below is not None:
                return below
        # each run folds here into one fixed element, the product of its
        # letters' powers; a letter on depth keeps its exponent, read from
        # the candidate's row of powers
        checks = []
        for segments in by_depth[depth]:
            check = []
            for own, x in segments:
                if not own:
                    run, x = x, one
                    for g, e in run:
                        x = table[x][powers[images[g]][e]]
                check.append((own, x))
            checks.append(check)
        # a candidate lies in C(images[i]) for each partner i; with every
        # earlier generator a partner, that is C(S)
        partners = commuting[depth]
        if len(partners) == depth:
            candidates = sorted(common)
        elif partners:
            candidates = sorted(frozenset.intersection(
                *[centralizers[images[i]] for i in partners]))
        else:
            candidates = range(n)
        weight = weights.get(common)
        if weight is None:
            weight = weights[common] = {}
        total = surjective = 0
        for candidate in candidates:
            w = weight.get(candidate)
            if w is None:
                # a candidate that C(S) centralizes is its own orbit
                if common <= centralizers[candidate]:
                    w = weight[candidate] = 1
                else:
                    orbit = {table[table[h][candidate]][inverse[h]]
                             for h in common}
                    weight.update(dict.fromkeys(orbit, 0))
                    weight[min(orbit)] = len(orbit)
                    w = weight[candidate]
            if not w:
                continue
            row = powers[candidate]
            for check in checks:
                out = one
                for own, x in check:
                    out = table[out][row[x] if own else x]
                if out != one:
                    break
            else:
                images[depth] = candidate
                t, s = dfs(depth + 1, node if candidate in sub
                           else _grow(target, grown, node, candidate))
                total += w * t
                surjective += w * s
        if starts[depth]:
            counted[depth, sub] = total, surjective
        return total, surjective

    total, surjective = dfs(0, (frozenset({one}), (), frozenset(range(n))))
    return HomSearchResult(total, surjective, witness, pres)


def _stopped(pres, target: FiniteGroup):
    """The witness of the stopped search on pres, or None."""
    try:
        _search(pres, target, stop=True)
    except _Witness as found:
        return found.args[0]


def surjection_witness(g, target: FiniteGroup):
    """First DFS-discovered map whose image is a non-abelian subgroup of
    the target, or None: a surjection onto that finite subgroup.

    It is enumerate_homs(g, target).witness, planned and refused by the
    same _plan, but the search stops at that witness's leaf and makes no
    count: it visits the nodes that the full count visits before that
    leaf, in the same order.  Only a group with no witness is searched to
    the end.  F(3,2) into Q8 calls _grow 10 times here and 66 times in
    the count.  It keeps no memo, so it is always a fresh search.
    """
    return _stopped(_plan(g, target)[1](), target)


def central_image_order_bound(m: int) -> int:
    """Explicit bound on the order of the top lower-central image of a
    nilpotent subgroup of SU_m.

    The top layer acts by roots of unity of order at most m on each
    eigenspace, so it fits inside the diagonal matrices with such
    entries; there are (sum_{k<=m} phi(k))^m of those.  Euler's phi on
    1..m comes from one sieve, run only once m is known to be in range.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > ORDER_BOUND_M_LIMIT:
        raise TooLarge("m = %d exceeds the supported bound %d"
                       % (m, ORDER_BOUND_M_LIMIT))
    phi = list(range(m + 1))
    for p in range(2, m + 1):
        if phi[p] == p:   # p is prime: no smaller prime has touched it
            for k in range(p, m + 1, p):
                phi[k] -= phi[k] // p
    return sum(phi[1:]) ** m


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


# the key of the lowered group (_lowered, display names left out) -> its
# first witness into Q8 or None; one entry per group value that a verdict
# has searched in this process, like q8's one table
_q8_witnesses: dict = {}


def _q8_witness(g):
    """surjection_witness(g, q8()) for a g that is_abelian does not
    certify, searched once per group value per process; None where the
    search refuses g.  One _plan gives the memo's key and the writer, and
    it sizes the group first, so a group past the limits is neither
    searched nor hashed, and a miss walks the specs once."""
    target = q8()
    try:
        key, write = _plan(g, target)
    except (TooLarge, UnsupportedGroup):
        return None
    if key not in _q8_witnesses:
        _q8_witnesses[key] = _stopped(write(), target)
    return _q8_witnesses[key]


def connectivity_verdict(g: GroupSpec, spec: ReductiveSpec,
                         rd: RootDatum | None = None) -> Verdict:
    """Decide connectivity of Hom(group, G) where the implemented theory
    can, and say Unknown where it cannot; rd, when given, is spec's root
    datum, so a caller that has built it does not build it again.

    Every rule reads G through its root datum except _dual_labels_one,
    which reads Factor.cartan_type, a map of the family name (ROADMAP
    item 14(a) reads the labels off the block instead).  A simply
    connected factor with a dual Kac label of at least 2 has commuting
    triples in no torus (Borel, Friedman and Morgan, Almost commuting
    elements in compact Lie groups, Mem. AMS 2002), and restriction to
    three coordinates carries the identity component of Hom(Z^r, G)
    into that of Hom(Z^3, G), so every r >= 3 is disconnected.

    The quaternion rule reads G only through Block.contains_sl2; its
    witness, a surjection onto Q8, depends on the group alone, so it is
    searched once per group value per process (_q8_witness) and shared by
    every target.  That memo's key is the search's own, from _plan, and
    leaves display names out, so the spellings of one written group share
    one search; the plan that keys a miss also writes what it searches,
    so a miss walks the specs once.

    The rules are one ordered table of rungs, each (reason code, status,
    test, reason template), and the verdict is the first rung whose test
    holds: the loop over the table builds one Verdict, and formats the
    rung's template once, with the {} fields r, spec, ab, torsion and
    note.  note, the cyclic rule's trust in a written factor's
    nilpotency, ends the six rungs that is_abelian's certificate admits.
    A test that costs more than a lookup is computed before the table,
    under the guard that reaches it: the quaternion witness only for a
    target that is not a torus, a group that is_abelian does not certify,
    and a root SL_2.  A new rule is one rung.
    """
    ab = abelianize(g)
    r, torsion = ab.rank, list(ab.torsion)
    blocks = (rd or build_root_datum(spec)).blocks
    torus = not any(b.simple_coroots for b in blocks)
    level = not torus and is_abelian(g)
    witness = (_q8_witness(g) if not (torus or level)
               and any(b.contains_sl2 for b in blocks) else None)
    note = ("; a written group whose H_1 needs at most one generator is "
            "cyclic, as it is taken to be nilpotent"
            if level == ABELIAN_ON_TRUST else "")
    rungs = (
        ("torus_target", CONNECTED, torus and not torsion,
         "the target is an algebraic torus and H_1 is torsion-free, so the "
         "space is a torus power T^{r}"),
        ("torus_target_torsion", DISCONNECTED, torus,
         "the torsion part of H_1 maps to a torus in more than one way, and "
         "each choice is isolated; {spec} admits {ab}"),
        ("finite_nonabelian_quotient", DISCONNECTED, witness is not None,
         "the group surjects onto a quaternion subgroup of the target, so no "
         "path connects that representation to the trivial one"),
        ("torsion_obstruction", DISCONNECTED, torsion,
         "H_1 has torsion {torsion}; its finite-order characters into a "
         "maximal torus cannot deform to the trivial representation"),
        ("nonabelian_free_family", DISCONNECTED,
         not level and isinstance(g, FreeNilpotent),
         "a non-abelian free nilpotent or Heisenberg group has disconnected "
         "representation and character spaces for every reductive target "
         "that is not a torus"),
        ("trivial_group", CONNECTED, level and r == 0,
         "the trivial group has a single representation{note}"),
        ("single_generator", CONNECTED, level and r == 1,
         "Hom(Z, G) = G, which is connected{note}"),
        ("not_simply_connected", DISCONNECTED,
         level and any(b.cokernel.torsion for b in blocks),
         "the target has a non-simply-connected simple factor, and commuting "
         "{r}-tuples in it do not all lie on one component{note}"),
        ("commuting_tuples_diagonalizable", CONNECTED,
         level and all(map(_dual_labels_one, spec.factors)),
         "commuting tuples in the compact forms of these factors are "
         "simultaneously diagonalizable, so Hom(Z^{r}, G) is connected, as "
         "Hom(Z^r, G) is for every r{note}"),
        ("commuting_pairs_irreducible", CONNECTED, level and r == 2,
         "commuting pairs in a connected semisimple group form an "
         "irreducible, hence connected, variety{note}"),
        ("nontoral_commuting_triples", DISCONNECTED, level,
         "a simply connected factor with a dual Kac label of at least 2 has "
         "commuting triples, and so commuting {r}-tuples, in no maximal "
         "torus{note}"),
        ("outside_catalog", UNKNOWN, True,
         "no implemented criterion decides this group/target pair"))
    for code, status, holds, reason in rungs:
        if holds:
            return Verdict(status, code, reason.format(
                r=r, spec=spec, ab=ab, torsion=torsion, note=note), witness)
