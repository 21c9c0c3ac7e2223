"""Finite groups, homomorphism counting, witnesses, verdicts, the bound."""

import random
import re
from itertools import combinations_with_replacement, product
from math import gcd, prod

import pytest

from nilrep import finitehom, groups
from nilrep.errors import NilrepError, TooLarge, UnsupportedGroup
from nilrep.finitehom import (FINITE_ORDER_BOUND, FiniteGroup,
                              central_image_order_bound,
                              connectivity_verdict, cyclic, dihedral,
                              enumerate_homs, generated, q8,
                              surjection_witness)
from nilrep.groups import (DirectProduct, FiniteAbelian, FreeAbelian,
                           FreeNilpotent, Heisenberg, Presentation, Presented,
                           abelian_presentation,
                           free_nilpotent_class2_presentation, gen,
                           merge_presentations, power)
from nilrep.parsing import parse_group_spec, parse_reductive_spec
from nilrep.record import replace
from nilrep.rootdata import Factor, ReductiveSpec, reductive


Q8 = q8()
I, J, K = 2, 4, 6  # element indices in the canonical ordering


def commute_pairwise(target, elems):
    """Whether the elements commute pairwise, by brute force over the
    table: the referee for the search's centralizer test."""
    elems = list(elems)
    return all(target.mul(a, b) == target.mul(b, a)
               for a in elems for b in elems)


# ---------------------------------------------------------------------------
# the quaternion group


def test_q8_defining_relations():
    assert Q8.order == 8
    assert Q8.labels == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    minus_one = 1
    assert Q8.mul(I, I) == minus_one
    assert Q8.mul(J, J) == minus_one
    assert Q8.mul(K, K) == minus_one
    # the generators multiply both ways: ij = k but ji = -k
    assert Q8.mul(I, J) == K
    assert Q8.mul(J, I) == Q8.inverse[K]
    assert Q8.labels[Q8.mul(J, I)] == "-k"


def test_q8_is_built_once_per_process():
    assert q8() is q8() is Q8
    fresh = q8.__wrapped__()
    assert fresh is not Q8
    assert (fresh.table, fresh.labels) == (Q8.table, Q8.labels)


def test_q8_structure():
    commutators = {Q8.commutator(a, b) for a in range(8) for b in range(8)}
    assert Q8.closure(commutators) == frozenset({0, 1})
    center = [g for g in range(8) if len(Q8.centralizers[g]) == 8]
    assert sorted(center) == [0, 1]
    assert not commute_pairwise(Q8, range(8))
    assert Q8.nilpotency_class == 2


def test_q8_against_symbolic_quaternions():
    # independent reconstruction from the sign/unit multiplication rules
    units = {("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
             ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
             ("k", "i"): (1, "j"), ("i", "k"): (-1, "j")}

    def mul(a, b):
        sa, ua = a
        sb, ub = b
        if ua == "1":
            return (sa * sb, ub)
        if ub == "1":
            return (sa * sb, ua)
        if ua == ub:
            return (-sa * sb, "1")
        s, u = units[(ua, ub)]
        return (s * sa * sb, u)

    order = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def decode(label):
        return (-1, label[1:]) if label.startswith("-") else (1, label)

    def encode(e):
        s, u = e
        return u if s == 1 else ("-%s" % u if u != "1" else "-1")

    for a in range(8):
        for b in range(8):
            expected = encode(mul(decode(order[a]), decode(order[b])))
            assert Q8.labels[Q8.mul(a, b)] == expected


def gauss_mul(x, y):
    """Product of Gaussian integers written as (re, im) pairs."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gauss_mat_mul(a, b):
    """Product of 2x2 matrices over Z[i], multiplied exactly."""
    return tuple(tuple(tuple(map(sum, zip(gauss_mul(a[r][0], b[0][c]),
                                          gauss_mul(a[r][1], b[1][c]))))
                       for c in range(2)) for r in range(2))


def test_q8_embeds_in_sl2():
    # i -> diag(i, -i) and j -> [[0, 1], [-1, 0]], extended along the
    # table from the identity: every product of the matrices is the
    # matrix of the table's product, the eight matrices are distinct, and
    # each has determinant 1
    gens = {I: (((0, 1), (0, 0)), ((0, 0), (0, -1))),
            J: (((0, 0), (1, 0)), ((-1, 0), (0, 0)))}
    matrix = {Q8.identity: (((1, 0), (0, 0)), ((0, 0), (1, 0)))}
    frontier = [Q8.identity]
    while frontier:
        a = frontier.pop()
        for g, m in gens.items():
            b = Q8.mul(a, g)
            if b not in matrix:
                matrix[b] = gauss_mat_mul(matrix[a], m)
                frontier.append(b)
    assert len(set(matrix.values())) == len(matrix) == 8
    for a in range(8):
        for b in range(8):
            assert gauss_mat_mul(matrix[a], matrix[b]) == \
                matrix[Q8.mul(a, b)]
        (p, q), (r, t) = matrix[a]
        ps, qr = gauss_mul(p, t), gauss_mul(q, r)
        assert (ps[0] - qr[0], ps[1] - qr[1]) == (1, 0)


def test_table_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [0, 1]])          # no identity column
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1, 2], [1, 2, 0]])    # not square


def test_power_matches_repeated_multiplication():
    # the tables at the order bound too
    for group in (Q8, dihedral(4), cyclic(6), cyclic(256), dihedral(128)):
        n = group.order
        for g in range(n):
            # g^0, g^1, ... by repeated multiplication, up to g's own order
            powers = [group.identity]
            while len(powers) == 1 or powers[-1] != group.identity:
                powers.append(group.mul(powers[-1], g))
            order = len(powers) - 1
            for e in (0, 1, -1, n, -n, n + 1, -n - 1, -13, 7, 10**12,
                      10**18, -10**18):
                assert group.power(g, e) == powers[e % order], \
                    (group.name, g, e)


def test_power_table_of_an_unchecked_table_is_finite():
    # order 25 skips the associativity check; 1 * 1 = 3 breaks it, and
    # the powers of 1 still fill one row of 25 entries
    table = [[(a + b) % 25 for b in range(25)] for a in range(25)]
    table[1][1] = 3
    group = FiniteGroup(table)
    assert len(group.powers[1]) == 25
    assert group.power(1, 2) == 3
    assert group.power(1, -1) == group.powers[1][24]


def test_nilpotency_classes():
    assert cyclic(6).nilpotency_class == 1
    assert dihedral(4).nilpotency_class == 2
    assert dihedral(3).nilpotency_class is None  # S3 is not nilpotent


def hand_built_cyclic(n):
    """The hand-built cyclic table that generated replaced: the referee."""
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = ["1"] + ["g^%d" % a if a > 1 else "g" for a in range(1, n)]
    return table, labels, "C%d" % n


def hand_built_dihedral(n):
    """The hand-built dihedral table that generated replaced: the referee,
    on elements (rotation, flip) listed flip-major."""
    elems = [(rot, flip) for flip in (0, 1) for rot in range(n)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(a, b):
        r1, f1 = a
        r2, f2 = b
        return ((r1 + (n - r2 if f1 else r2)) % n, f1 ^ f2)

    table = [[index[mul(a, b)] for b in elems] for a in elems]
    labels = []
    for r, f in elems:
        rot = "r^%d" % r if r else ""
        labels.append(("s" + rot) if f else (rot or "1"))
    return table, labels, "D%d" % n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 64, 128, 256])
def test_generated_tables_match_the_hand_built_ones(n):
    pairs = [(cyclic(n), hand_built_cyclic(n))]
    if 2 * n <= FINITE_ORDER_BOUND:
        pairs.append((dihedral(n), hand_built_dihedral(n)))
    for group, (table, labels, name) in pairs:
        assert group.table == tuple(map(tuple, table))
        assert group.labels == tuple(labels)
        assert group.name == name


def test_generated_refuses_a_stated_order_past_the_bound_before_any_product():
    def product(a, b):
        raise AssertionError("a product was taken")

    with pytest.raises(TooLarge, match="C257 has order 257, past the table "
                                       "bound 256"):
        generated("C257", FINITE_ORDER_BOUND + 1, 0, (1,), product, str)
    with pytest.raises(TooLarge, match="past the table bound"):
        dihedral(129)
    with pytest.raises(TooLarge, match="past the table bound"):
        cyclic(10**18)


def test_generated_refuses_a_stated_order_below_one_before_any_product():
    def product(a, b):
        raise AssertionError("a product was taken")

    for order in (0, -3):
        with pytest.raises(NilrepError, match="a group has at least one "
                                              "element"):
            generated("C%d" % order, order, 0, (1,), product, str)
    # cyclic(0) and dihedral(0) divided by zero, and cyclic(-3) closed up
    # to 3 elements, before the stated order was checked
    for build, n, message in ((cyclic, 0, "C0 has order 0"),
                              (dihedral, 0, "D0 has order 0"),
                              (cyclic, -3, "C-3 has order -3"),
                              (dihedral, -2, "D-2 has order -4")):
        with pytest.raises(NilrepError, match=message):
            build(n)


def test_generated_refuses_a_stated_order_the_closure_does_not_reach():
    # 2 generates the even residues modulo 6, three elements, not six
    with pytest.raises(NilrepError, match="3 elements, not 6"):
        generated("C6", 6, 0, (2,), lambda a, b: (a + b) % 6, str)
    # a stated order below the closure's is refused too
    with pytest.raises(NilrepError):
        generated("C4", 2, 0, (1,), lambda a, b: (a + b) % 4, str)


def test_generated_indexes_in_sorted_order():
    # Z/2 x Z/2 from two generators: the pairs in sorted order
    group = generated("V4", 4, (0, 0), ((1, 0), (0, 1)),
                      lambda a, b: (a[0] ^ b[0], a[1] ^ b[1]), str)
    assert group.labels == ("(0, 0)", "(0, 1)", "(1, 0)", "(1, 1)")
    assert group.table == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1),
                           (3, 2, 1, 0))


# ---------------------------------------------------------------------------
# counting homomorphisms


def test_hom_counts_from_free_abelian():
    assert enumerate_homs(FreeAbelian(1), Q8).total == 8
    result = enumerate_homs(FreeAbelian(2), Q8)
    assert result.total == 40
    assert result.surjective == 0
    assert result.witness is None


def test_commuting_pair_counts_match_double_loop():
    for group in (Q8, cyclic(5), cyclic(12), dihedral(4), dihedral(6),
                  dihedral(8)):
        counted = enumerate_homs(FreeAbelian(2), group).total
        double_loop = sum(1 for a in range(group.order)
                          for b in range(group.order)
                          if group.mul(a, b) == group.mul(b, a))
        centralizers = sum(map(len, group.centralizers))
        assert counted == double_loop == centralizers


def test_single_generator_counts_equal_order():
    for group in (Q8, cyclic(7), dihedral(5)):
        assert enumerate_homs(FreeAbelian(1), group).total == group.order


def test_heisenberg_counts_and_witness():
    result = enumerate_homs(Heisenberg(), Q8)
    assert result.total == 64
    assert result.surjective == 24
    assert result.witness == (I, J, 1)   # x -> i, y -> j, z -> [i,j] = -1


def test_heisenberg_surjections_by_inclusion_exclusion():
    # the non-generating pairs are those inside the three maximal cyclic
    # subgroups; count them by inclusion-exclusion and complement
    maximal = [Q8.closure({g}) for g in (I, J, K)]
    assert all(len(m) == 4 for m in maximal)
    inside = 0
    for mask in range(1, 8):
        chosen = [m for bit, m in enumerate(maximal) if mask >> bit & 1]
        meet = set(range(8))
        for m in chosen:
            meet &= m
        inside += (-1) ** (len(chosen) + 1) * len(meet) ** 2
    assert 64 - inside == 24


def referee_value(word, images, group):
    """The value of word at images, each letter g^e as |e| right
    multiplications by the image of g, or by its inverse for e < 0;
    FiniteGroup.power and the power table are not used."""
    value = group.identity
    for g, e in word.letters:
        x = images[g] if e > 0 else group.inverse[images[g]]
        for _ in range(abs(e)):
            value = group.mul(value, x)
    return value


def test_witness_validates_against_relators():
    result = enumerate_homs(Heisenberg(), Q8)
    images = result.witness
    pres = result.presentation
    for relator in pres.relators:
        assert referee_value(relator, images, Q8) == Q8.identity
    image = Q8.closure(images)
    assert not commute_pairwise(Q8, image)
    assert len(image) == 8


def test_free_nilpotent_class_three_routes_through_class_two():
    witness = surjection_witness(FreeNilpotent(2, 3), Q8)
    assert witness is not None
    assert witness[:2] == (I, J)
    # totals agree with the class-2 quotient because Q8 has class 2
    assert enumerate_homs(FreeNilpotent(2, 3), Q8).total \
        == enumerate_homs(FreeNilpotent(2, 2), Q8).total == 64
    # a non-nilpotent target cannot take this route
    with pytest.raises(UnsupportedGroup):
        enumerate_homs(FreeNilpotent(2, 3), dihedral(3))
    # an abelian target sees Z^4, not the ten generators of F(4, 2)
    result = enumerate_homs(FreeNilpotent(4, 2), cyclic(2))
    assert (result.total, result.surjective) == (16, 15)


@pytest.mark.parametrize("target", [Q8, dihedral(4), cyclic(6), cyclic(4),
                                    dihedral(3)], ids=lambda t: t.name)
def test_quotient_rule_matches_presented_groups(target):
    # a Presented group is searched as written, so it referees the rule
    # that searches a catalog group on its quotient by the target's class
    cases = [
        (Heisenberg(), free_nilpotent_class2_presentation(2)),
        (FreeNilpotent(3, 2), free_nilpotent_class2_presentation(3)),
        (DirectProduct((FreeNilpotent(2, 2), FreeAbelian(1))),
         merge_presentations([free_nilpotent_class2_presentation(2),
                              abelian_presentation(1)])),
        (FreeAbelian(3), abelian_presentation(3)),
    ]
    for g, pres in cases:
        catalog = enumerate_homs(g, target)
        presented = enumerate_homs(Presented(pres), target)
        assert (catalog.total, catalog.surjective) \
            == (presented.total, presented.surjective), (g, target.name)


@pytest.mark.parametrize("target", [Q8, cyclic(2)], ids=lambda t: t.name)
def test_a_bare_presentation_is_no_group_spec(target):
    # Presented is the one way in, on the H_1 path and on the search path
    with pytest.raises(TypeError, match="not a group spec"):
        enumerate_homs(free_nilpotent_class2_presentation(2), target)


def test_presentations_are_sized_before_they_are_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a presentation past the limits was built")

    for name in ("abelian_presentation",
                 "free_nilpotent_class2_presentation"):
        monkeypatch.setattr(groups, name, refuse)
    for name in ("abelian_presentation", "merge_presentations"):
        monkeypatch.setattr(finitehom, name, refuse)
    for g, target in ((FreeNilpotent(100, 2), Q8), (FreeAbelian(3000), Q8),
                      (FreeNilpotent(4, 2), Q8),
                      (DirectProduct((Heisenberg(), FreeAbelian(4000))), Q8),
                      (FiniteAbelian((2,) * 7), Q8),
                      (FreeAbelian(3), cyclic(256))):
        with pytest.raises(TooLarge):
            enumerate_homs(g, target)
    # the verdict that needed no search is unchanged
    v = connectivity_verdict(FreeNilpotent(200, 2), reductive(("SL", 2)))
    assert v.reason_code == "nonabelian_free_family"


def test_finite_abelian_and_product_targets():
    assert enumerate_homs(FiniteAbelian((4,)), cyclic(6)).total == 2
    g = DirectProduct((FreeAbelian(1), FiniteAbelian((2,))))
    assert enumerate_homs(g, cyclic(4)).total == 4 * 2


def test_presented_group_enumeration():
    # the quaternion presentation <x,y | x^4, x^2 y^-2, y^-1 x y x>
    x, y = gen(0), gen(1)
    from nilrep.groups import concat, inverse
    pres = Presentation(2, (
        power(x, 4),
        concat(power(x, 2), power(y, -2)),
        concat(inverse(y), x, y, x),
    ), names=("x", "y"))
    result = enumerate_homs(Presented(pres), Q8)
    assert result.surjective == 24
    assert result.witness is not None


def written_presentation(g, target):
    """A presentation of g with the same maps into target: g as written,
    with each free nilpotent factor replaced by its quotient by the
    target's class.  The search reads it when some image is not abelian;
    every count with abelian image reports H_1's presentation instead."""
    return finitehom._lowered(g, target.nilpotency_class)[2]()


def leaf_closure_homs(g, target):
    """Referee for enumerate_homs: every tuple of images in depth-first
    order, each checked against every relator of written_presentation by
    referee_value and its image subgroup closed from scratch, as the
    search did before it carried the subgroup down."""
    pres = written_presentation(g, target)
    total = surjective = 0
    witness = None
    for images in product(range(target.order),
                          repeat=pres.generator_count):
        if any(referee_value(w, images, target) != target.identity
               for w in pres.relators):
            continue
        total += 1
        image = target.closure(images)
        if len(image) == target.order:
            surjective += 1
        if witness is None and not commute_pairwise(target, image):
            witness = images
    return total, surjective, witness


HOMCOUNT_SOURCES = (
    "H3", "Z^3", "Z^4", "F(2,2)", "F(2,3)", "H3 x Z", "Z/2 x Z/4 x Z^2",
    "<a,b,c | [a,b]c^-1, [a,c], [b,c]>",
    "<a,b,c,d | [a,b]c^-1, [a,c]d^-1, [b,c], [a,d], [b,d], [c,d]>",
)

# H3 x (Z x Z/2) as a nested spec: its top-level factors are H3 and the
# inner product, whose own cross commutator stays inside the second one
NESTED_PRODUCT = DirectProduct((Heisenberg(), DirectProduct((
    FreeAbelian(1), FiniteAbelian((2,))))))


def as_spec(source):
    """A group spec from its text, or the spec itself."""
    return parse_group_spec(source) if isinstance(source, str) else source


@pytest.mark.parametrize("target", [Q8, dihedral(4), cyclic(6), cyclic(8),
                                    dihedral(3)], ids=lambda t: t.name)
def test_carried_subgroups_match_leaf_closure(target):
    # the cli-presentations homcount sources, with the presented
    # Heisenberg and filiform groups, and a nested product
    for text in (*HOMCOUNT_SOURCES, NESTED_PRODUCT):
        g = as_spec(text)
        try:
            want = leaf_closure_homs(g, target)
        except UnsupportedGroup:   # F(2,3) into the non-nilpotent S3
            with pytest.raises(UnsupportedGroup):
                enumerate_homs(g, target)
            continue
        got = enumerate_homs(g, target)
        assert (got.total, got.surjective, got.witness) == want, \
            (text, target.name)


def test_every_search_node_is_its_subgroup_and_centralizer(monkeypatch):
    # every node _grow builds, on the sources and targets above: C6 and
    # C8 count every source on H_1, Q8, D4 and S3 search some as written
    grow = finitehom._grow
    built = []

    def recorded(target, grown, node, x):
        child = grow(target, grown, node, x)
        built.append((target, child))
        return child

    monkeypatch.setattr(finitehom, "_grow", recorded)
    targets = (Q8, dihedral(4), cyclic(6), cyclic(8), dihedral(3))
    for target in targets:
        for text in (*HOMCOUNT_SOURCES, NESTED_PRODUCT):
            try:
                enumerate_homs(as_spec(text), target)
            except UnsupportedGroup:   # F(2,3) into S3
                pass
    assert {target.name for target, _ in built} \
        == {target.name for target in targets}
    for target, (sub, generators, common) in built:
        assert sub == target.closure(generators)
        assert common == frozenset(
            x for x in range(target.order)
            if all(target.mul(x, s) == target.mul(s, x) for s in sub))
        assert (sub <= common) == commute_pairwise(target, sub)


ABELIAN_TARGETS = (*(cyclic(n) for n in range(1, 13)), dihedral(1),
                   dihedral(2))
H1_SOURCES = (
    "H3", "Z^3", "F(2,3)", "F(3,2)", "H3 x Z/6", "Z/4 x Z/6",
    "Z/2 x Z/4 x Z^2",
    "<a,b,c | [a,b]c^-1, [a,c], [b,c]>",
    "<a,b,c,d | [a,b]c^-1, [a,c]d^-1, [b,c], [a,d], [b,d], [c,d]>",
    "<x,y,z | x^3 y^-1 z^2, y z^5, x^6>",
    "<a,b | a^4 b^6, a^6 b^4>",
    "<a,b,c | a^2, [a,b]c^-1, c^2, [a,c], [b,c]>",
)


@pytest.mark.parametrize("target", ABELIAN_TARGETS, ids=lambda t: t.name)
def test_abelian_targets_are_searched_on_h1(target):
    # catalog, product and written groups, each against the written
    # presentation that the search used before; V4 is dihedral(2)
    assert target.nilpotency_class == 1
    for text in H1_SOURCES:
        g = parse_group_spec(text)
        got = enumerate_homs(g, target)
        ab = groups.abelianize(g)
        assert got.presentation.generator_count == max(
            ab.rank + len(ab.torsion), 1)
        assert got.presentation.generator_count \
            <= written_presentation(g, target).generator_count
        assert (got.total, got.surjective, got.witness) \
            == leaf_closure_homs(g, target), (text, target.name)


def test_abelian_targets_admit_what_h1_fits():
    # seven written generators, six in H_1: past SEARCH_LIMIT into Q8 as
    # written, inside it into C2 on H_1
    g = parse_group_spec("<a,b,c,d,e,f,g | g a^-1>")
    with pytest.raises(TooLarge):
        enumerate_homs(g, Q8)
    result = enumerate_homs(g, cyclic(2))
    assert (result.total, result.surjective) == (2**6, 2**6 - 1)
    # F(7, 2) written out has 28 generators; H_1 = Z^7 needs seven
    g = Presented(free_nilpotent_class2_presentation(7))
    result = enumerate_homs(g, cyclic(2))
    assert (result.total, result.surjective) == (2**7, 2**7 - 1)
    # an invariant factor past the printable bound: the search runs on
    # H_1 all the same, one generator with the relator x1^(n(n + 1))
    n = 10**2200
    g = Presented(Presentation(2, (power(gen(0), n), power(gen(1), n + 1))))
    with pytest.raises(TooLarge):
        groups.abelianize(g)
    result = enumerate_homs(g, cyclic(2))
    assert (result.total, result.surjective) == (2, 1)
    assert result.presentation == Presentation(
        1, (power(gen(0), n * (n + 1)),), names=("x1",))


def jordan_totient(n, m):
    """J_n(m) = m^n * prod over the primes p | m of (1 - p^-n), the number
    of n-tuples in Z/m that generate it."""
    out = m**n
    for p in range(2, m + 1):
        if m % p == 0 and all(p % q for q in range(2, p)):
            out = out // p**n * (p**n - 1)
    return out


@pytest.mark.parametrize("m, n", [(1, 18), (2, 18), (3, 11), (4, 9), (5, 7)])
def test_largest_admitted_abelian_searches_match_closed_forms(m, n):
    # Z^n into C_m at the largest n that SEARCH_LIMIT admits: m^n maps,
    # J_n(m) of them onto C_m; C_1 counts as order 2 for the bound
    result = enumerate_homs(FreeAbelian(n), cyclic(m))
    assert (result.total, result.surjective) == (m**n, jordan_totient(n, m))
    with pytest.raises(TooLarge, match="search space %d\\^%d exceeds"
                       % (max(m, 2), n + 1)):
        enumerate_homs(FreeAbelian(n + 1), cyclic(m))
    # refused without raising the order to a written rank
    with pytest.raises(TooLarge):
        enumerate_homs(FreeAbelian(10**15), cyclic(m))


@pytest.mark.parametrize("target", [Q8, *(dihedral(n) for n in range(3, 7))],
                         ids=lambda t: t.name)
def test_non_abelian_targets_keep_the_two_limit_rule(target):
    # every non-abelian target has order >= 6 and 6^7 > 8^6, so SEARCH_LIMIT
    # alone admits what "at most 6 generators and order^gens <= 8^6" did
    assert target.nilpotency_class != 1
    largest = min(6, max(k for k in range(20)
                         if target.order**k <= finitehom.SEARCH_LIMIT))
    for gens in range(1, 40):
        if gens <= largest:
            finitehom._plan(FreeAbelian(gens), target)
        else:
            with pytest.raises(TooLarge):
                finitehom._plan(FreeAbelian(gens), target)
    with pytest.raises(TooLarge):
        enumerate_homs(FreeAbelian(largest + 1), target)


@pytest.mark.parametrize("target", [dihedral(3), dihedral(8), Q8],
                         ids=lambda t: t.name)
def test_free_nilpotent_on_one_generator_is_searched_as_z(target):
    # F(1, c) is Z at every class, into targets of every nilpotency class:
    # alone it is counted on H_1; beside H3 it is searched, and only
    # _lowered's abelian branch keeps it from the class-c refusal
    want = enumerate_homs(FreeAbelian(1), target)
    beside = enumerate_homs(DirectProduct((Heisenberg(), FreeAbelian(1))),
                            target)
    for c in (1, 2, 3, 7):
        assert enumerate_homs(FreeNilpotent(1, c), target) == want
        got = enumerate_homs(
            DirectProduct((Heisenberg(), FreeNilpotent(1, c))), target)
        assert (got.total, got.surjective, got.witness) \
            == (beside.total, beside.surjective, beside.witness), c
    assert want.total == target.order
    if target.nilpotency_class is None:   # S3
        assert beside.total == 48


def product_homs(pres, target):
    """Referee for enumerate_homs on pres: every tuple of images in
    lexicographic order, kept when referee_value sends every relator to
    the identity; surjective when the images close up to the whole
    table, and the witness is the first kept tuple whose images do not
    all commute."""
    total = surjective = 0
    witness = None
    for images in product(range(target.order),
                          repeat=pres.generator_count):
        if any(referee_value(w, images, target) != target.identity
               for w in pres.relators):
            continue
        total += 1
        if len(target.closure(images)) == target.order:
            surjective += 1
        if witness is None and not all(target.mul(a, b) == target.mul(b, a)
                                       for a in images for b in images):
            witness = images
    return total, surjective, witness


# each commuting relator in several spellings, each met by drawing its
# later generator's images from a centralizer: [x,y], [y,x], [x^-1,y],
# x z x^-1 z^-1 and z^-1 y^-1 z y, a partner named twice, a generator
# below one whose images are narrowed but not narrowed itself, and a
# written factor of a product; then four letters that are no commutator
# and a commutator with an exponent 2, both checked letter by letter
COMMUTING_SPELLINGS = (
    "<x,y,z | [x,y]z^-1, [z,x], [z,y]>",
    "<x,y,z | [x,y]z^-1, [x^-1,z], [y,z^-1]>",
    "<x,y,z | [x,y]z^-1, x z x^-1 z^-1, z^-1 y^-1 z y>",
    "<x,y,z | [y,x]z, [x,z], [z,x], [y^-1,z^-1]>",
    "<a,b,c | [a,b], c a c^-1 a^-1, b^-1 c^-1 b c>",
    "<a,b,c | [b,a], a^2 c^2>",
    "Z x <x,y | [x,y]>",
    "<a,b | a b a^-1 b>", "<a,b | [a^2,b]>", "<a,b | [a^2,b], a b a^-1 b>",
    "<a,b,c | a b a^-1 b, [a,c], [c,b^2]>",
)


def written(text):
    """The catalog group text written out as one presentation, cross
    commutators included, as the verdict census writes it."""
    return str(Presented(
        finitehom._lowered(parse_group_spec(text), None)[2]()))


# the edges of the factor-start rule: a generator that commutes with only
# some earlier ones, a commuting block crossed by another relator, a
# generator with no relator after a commuting pair (no start at c),
# written Z^3 with every commutator (a start at each generator), and
# written products with the abelian factor first and last
START_EDGES = (
    "<a,b,c | [a,c], [a,b]b^-2>",
    "<a,b,c | [a,c], [b,c], a b c^2>",
    "<a,b,c | [a,b]>",
    "<a,b,c | [a,b], [a,c], [b,c]>",
    written("Z x H3"), written("H3 x Z"),
)


# heis3 and filiform4 as quotient-verdicts writes them, products whose
# first factor is abelian or written, so that the search splits them at a
# factor start below images that are not all trivial, and the commuting
# relators spelled every way, and the edges of the factor-start rule
REFEREE_SOURCES = (
    "Z", "Z^2", "Z^3", "H3", "F(2,2)", "F(2,3)", "H3 x Z/2",
    "<x,y,z | [x,y]z^-1, [x,z], [y,z]>",
    "<a,b,c,d | [a,b]c^-1, [a,c]d^-1, [b,c], [a,d], [b,d], [c,d]>",
    "Z x H3", "Z/2 x H3 x Z", "<x | 1> x H3", "Z x <a,b | a^3, b^2, abab>",
    NESTED_PRODUCT, *COMMUTING_SPELLINGS, *START_EDGES,
)


@pytest.mark.parametrize("target", [Q8, dihedral(4), cyclic(6), dihedral(3),
                                    dihedral(6), dihedral(8)],
                         ids=lambda t: t.name)
def test_search_matches_the_product_referee(target):
    # D6 and D8 have classes of 3 and 4 elements, so a node's conjugation
    # orbits are larger there; into them only sources of at most 3
    # generators are refereed (at most 16^3 = 4,096 tuples, where 4 would
    # be 20,736 into D6)
    for g in REFEREE_SOURCES:
        g = as_spec(g)
        try:
            pres = written_presentation(g, target)
        except UnsupportedGroup:   # F(2,3) into the non-nilpotent S3
            with pytest.raises(UnsupportedGroup):
                enumerate_homs(g, target)
            continue
        if target.order > 8 and pres.generator_count > 3:
            continue
        result = enumerate_homs(g, target)
        assert ((result.total, result.surjective, result.witness)
                == product_homs(pres, target)), str(g)


def test_search_closes_once_per_new_subgroup_step(monkeypatch):
    calls = [0]
    closure = FiniteGroup.closure

    def counted(self, generators):
        calls[0] += 1
        return closure(self, generators)

    monkeypatch.setattr(FiniteGroup, "closure", counted)
    result = enumerate_homs(FreeAbelian(3), cyclic(64))
    assert (result.total, result.surjective) == (64**3, 64**3 - 32**3)
    # one closure per leaf would be 262,144 calls; one per (subgroup, new
    # element) pair is 63 from the trivial subgroup and 64 - |S| from
    # each of the five others below the whole group, 321 in all
    assert calls[0] <= 400


def random_presentations(target):
    """Twelve random written presentations, drawn from a generator seeded
    by the target's name: 1-3 generators, exponents of either sign up to
    600, so most letters pass the target's order and some reduce to 0;
    at most 512 tuples for the product referee per case: 3 generators
    into order 8, 2 into D6 and D8, and 1 into an order-256 target."""
    rng = random.Random(target.name)
    most = max(k for k in (1, 2, 3) if target.order ** k <= 512)
    for _ in range(12):
        gens = rng.randint(1, most)
        relators = tuple(
            groups.free_reduce(
                [(rng.randrange(gens),
                  rng.choice((-1, 1)) * rng.randint(1, 600))
                 for _ in range(rng.randint(1, 6))])
            for _ in range(rng.randint(0, 3)))
        yield Presentation(gens, relators)


@pytest.mark.parametrize("target", [Q8, dihedral(4), cyclic(6),
                                    dihedral(3), dihedral(6), dihedral(8),
                                    dihedral(128)],
                         ids=lambda t: t.name)
def test_search_on_random_presentations_matches_the_referee(target):
    # into nilpotent, abelian and non-nilpotent (S3, D6) targets; D6 and
    # D8 have classes of 3 and 4 elements
    for pres in random_presentations(target):
        result = enumerate_homs(Presented(pres), target)
        assert ((result.total, result.surjective, result.witness)
                == product_homs(pres, target)), pres


@pytest.mark.parametrize("target", [Q8, dihedral(3), dihedral(4),
                                    dihedral(6), dihedral(8)],
                         ids=lambda t: t.name)
def test_stopped_search_finds_the_full_counts_witness(target):
    # surjection_witness stops at its first witness leaf and makes no
    # count; its witness is the full count's on every referee source that
    # both admit, and both refuse the same sources the same way
    for g in (*map(as_spec, REFEREE_SOURCES),
              *map(Presented, random_presentations(target))):
        try:
            want = enumerate_homs(g, target).witness
        except (TooLarge, UnsupportedGroup) as refusal:
            with pytest.raises(type(refusal), match=re.escape(str(refusal))):
                surjection_witness(g, target)
            continue
        assert surjection_witness(g, target) == want, (str(g), target.name)


def test_witness_search_stops_at_its_first_witness(monkeypatch):
    # F(3,2) into Q8 finds its witness (1, i, j, 1, 1, -1) early in the
    # depth-first order: the stopped search calls _grow 10 times, and the
    # full count, which searches every orbit to the end, 66 times
    calls = [0]
    grow = finitehom._grow

    def counted(*args):
        calls[0] += 1
        return grow(*args)

    monkeypatch.setattr(finitehom, "_grow", counted)
    g = parse_group_spec("F(3,2)")
    assert enumerate_homs(g, Q8).witness == (0, I, J, 0, 0, 1)
    full, calls[0] = calls[0], 0
    assert surjection_witness(g, Q8) == (0, I, J, 0, 0, 1)
    assert calls[0] < full, (calls[0], full)


def test_relator_exponents_are_reduced_once_per_search():
    # the depth-first search, on a written group that is not certified
    # abelian, into the non-abelian Q8: the same search with a^8 and with
    # a^N, N a 2,198-digit power of 2 written out in decimal; every power
    # read in the search has an exponent below the target's order, so the
    # big one costs no big-integer reduction.  A private Q8 keeps the
    # shared table unrecorded
    reads = []

    class RecordedRow(tuple):
        def __getitem__(self, k):
            reads.append(k)
            return tuple.__getitem__(self, k)

    target = FiniteGroup(Q8.table, Q8.labels, name="Q8")
    target.powers = tuple(map(RecordedRow, target.powers))
    for n in (8, 2**7300):
        g = parse_group_spec("<a,b | a^%d, [a,b]>" % n)
        assert g.presentation.relators[0].letters == ((0, n),)
        result = enumerate_homs(g, target)
        assert (result.total, result.surjective, result.witness) \
            == (40, 0, None)
    assert reads and max(reads) < target.order


def folded_runs_relator(rng, gens, order):
    """A freely reduced relator of 6-12 letters on its largest generator
    gens - 1, with runs of letters on earlier generators before, between
    and after its own letters.  On three generators a run has 2-3
    letters, alternating between the first two; on two it has one.
    About one exponent in four is a multiple of order, so it reduces to
    0 there."""
    last = gens - 1
    while True:
        own = rng.randint(1, 3) if gens == 3 else rng.randint(3, 5)
        pieces = []
        for i in range(2 * own + 1):
            if i % 2:
                pieces.append([last])
            else:
                start = rng.randrange(last)
                pieces.append([(start + k) % last for k in range(
                    rng.randint(2, 3) if gens == 3 else 1)])
        letters = [(g, rng.choice((-1, 1)) * (
            order * rng.randint(1, 2) if rng.random() < 0.25
            else rng.randint(1, 12)))
            for piece in pieces for g in piece]
        if 6 <= len(letters) <= 12:
            return groups.Word(tuple(letters))


@pytest.mark.parametrize("target", [Q8, dihedral(4), dihedral(3)],
                         ids=lambda t: t.name)
def test_folded_runs_match_the_product_referee(target):
    # each relator's runs of letters on earlier generators are folded into
    # one element per search node; a fold that dropped or reversed a run
    # would change the counts or the witness in a non-abelian target.  A
    # draw whose H_1 needs at most one generator is drawn again: into a
    # nilpotent target it would be counted on H_1, with no search
    rng = random.Random("folded runs " + target.name)
    for _ in range(10):
        g = None
        while g is None or groups.is_abelian(g):
            gens = rng.choice((2, 3, 3))
            pres = Presentation(gens, tuple(
                folded_runs_relator(rng, gens, target.order)
                for _ in range(rng.randint(1, 2))))
            g = Presented(pres)
        result = enumerate_homs(g, target)
        assert ((result.total, result.surjective, result.witness)
                == product_homs(pres, target)), pres


def test_heisenberg_search_folds_its_commutator_run():
    # one search of the written H3 into a private Q8 whose table rows
    # record their reads, closures included: the 4-letter run of
    # [x,y]z^-1 is one element per node, so a candidate for z costs two
    # products, not five (3,583 reads without the fold, 2,559 with it)
    reads = [0]

    class RecordedRow(tuple):
        def __getitem__(self, k):
            reads[0] += 1
            return tuple.__getitem__(self, k)

    target = FiniteGroup(Q8.table, Q8.labels, name="Q8")
    target.table = tuple(map(RecordedRow, target.table))
    result = enumerate_homs(
        parse_group_spec("<x,y,z | [x,y]z^-1, [x,z], [y,z]>"), target)
    assert (result.total, result.surjective, result.witness) \
        == (64, 24, (I, J, 1))
    assert reads[0] < 3000


def test_products_are_searched_once_below_each_factor_start():
    # H3 x H3 into a private Q8 whose table rows record their reads,
    # closures included: the second H3 is searched once per subgroup S
    # that the first one's images generate, its images drawn from C(S),
    # not again below every image of the first (70,655 reads when it was)
    reads = [0]

    class RecordedRow(tuple):
        def __getitem__(self, k):
            reads[0] += 1
            return tuple.__getitem__(self, k)

    target = FiniteGroup(Q8.table, Q8.labels, name="Q8")
    target.table = tuple(map(RecordedRow, target.table))
    result = enumerate_homs(parse_group_spec("H3 x H3"), target)
    assert (result.total, result.surjective, result.witness) \
        == (928, 192, (0, 0, 0, I, J, 1))
    assert reads[0] < 20000


def test_each_node_searches_one_candidate_per_conjugation_orbit(monkeypatch):
    # conjugation by C(S) permutes a node's candidates and the maps below
    # them, so a node searches the first candidate of each orbit and
    # counts it once per member: _grow is called 66 times for F(3,2) into
    # Q8 and 103 times for H3 into D16, where it was called 213 and 852
    # times when every candidate was searched
    calls = [0]
    grow = finitehom._grow

    def counted(*args):
        calls[0] += 1
        return grow(*args)

    monkeypatch.setattr(finitehom, "_grow", counted)
    for text, target, want, most in (
            ("F(3,2)", Q8, (512, 336, (0, I, J, 0, 0, 1)), 100),
            ("H3", dihedral(16), (448, 0, (4, 16, 8)), 150)):
        calls[0] = 0
        result = enumerate_homs(parse_group_spec(text), target)
        assert (result.total, result.surjective, result.witness) == want
        assert calls[0] <= most, text


def test_commuting_relators_are_met_by_centralizers():
    # into a private Q8 whose table rows record their reads, closures
    # included: each generator that commuting relators name draws its
    # images from the centralizers of the named images, and no candidate
    # outside them is checked.  Catalog F(3,2) read 58,879 entries, and
    # the census's written H3 x H3 70,655, when every commuting relator
    # was checked one candidate at a time
    reads = [0]

    class RecordedRow(tuple):
        def __getitem__(self, k):
            reads[0] += 1
            return tuple.__getitem__(self, k)

    census_h3_h3 = str(Presented(finitehom._lowered(
        parse_group_spec("H3 x H3"), None)[2]()))
    for text, want, most in (
            ("F(3,2)", (512, 336, (0, I, J, 0, 0, 1)), 20000),
            (census_h3_h3, (928, 192, (0, 0, 0, I, J, 1)), 15000)):
        target = FiniteGroup(Q8.table, Q8.labels, name="Q8")
        target.table = tuple(map(RecordedRow, target.table))
        reads[0] = 0
        result = enumerate_homs(parse_group_spec(text), target)
        assert (result.total, result.surjective, result.witness) == want
        assert reads[0] < most, text


def test_written_products_search_as_their_catalog_form():
    # factor starts are read off the commuting relators, so the census's
    # written H3 x H3, whose cross commutators are written out, reads a
    # recorded table exactly as often as the catalog product: into Q8 it
    # read 5,723 entries against 2,043 when the starts came from the spec
    reads = [0]

    class RecordedRow(tuple):
        def __getitem__(self, k):
            reads[0] += 1
            return tuple.__getitem__(self, k)

    for base in (Q8, dihedral(4)):
        seen = []
        for text in ("H3 x H3", written("H3 x H3")):
            target = FiniteGroup(base.table, base.labels, name=base.name)
            target.table = tuple(map(RecordedRow, target.table))
            reads[0] = 0
            result = enumerate_homs(parse_group_spec(text), target)
            seen.append((result.total, result.surjective, result.witness,
                         reads[0]))
        assert seen[0] == seen[1], base.name
        assert seen[0][:2] == (928, 192)


def test_torsion_orders_are_reduced_once_per_count():
    # the abelian-image count of a 2^17-map group with a 1-digit and a
    # 3,600-digit torsion order: each order is reduced modulo the
    # target's once, not at every state, and one power is read per
    # candidate at each (depth, S) of the torsion generator
    reads = []

    class RecordedRow(tuple):
        def __getitem__(self, k):
            reads.append(k)
            return tuple.__getitem__(self, k)

    for torsion in ((FiniteAbelian((6,)),),
                    (FiniteAbelian((2**7300,)), FiniteAbelian((3**4600,)))):
        target = cyclic(2)
        target.powers = tuple(map(RecordedRow, target.powers))
        reads.clear()
        result = enumerate_homs(DirectProduct((FreeAbelian(16), *torsion)),
                                target)
        assert (result.total, result.surjective) == (2**17, 2**17 - 1)
        # the torsion generator comes last in H_1's presentation, below
        # two subgroups S of C2, each counted once
        assert len(reads) == 2 * target.order
        assert max(reads) < target.order


# ---------------------------------------------------------------------------
# counting maps with abelian image


ABELIAN_SOURCES = ("Z/1", "Z", "Z^2", "Z^3", "Z^4", "F(1,3)", "Z/2", "Z/6",
                   "Z/2 x Z/4", "Z/4 x Z/6", "Z/2 x Z/2 x Z/2", "Z^2 x Z/3",
                   "Z/2 x Z/4 x Z^2")


@pytest.mark.parametrize("target", [Q8, *map(cyclic, (1, 6, 12)),
                                    *map(dihedral, (1, 2, 3, 4, 6))],
                         ids=lambda t: t.name)
def test_abelian_image_count_matches_the_search(target):
    # a catalog abelian group is counted on H_1; its written form is
    # certified abelian, on trust, exactly when its H_1 needs at most one
    # generator (the cyclic rule), and otherwise into a non-abelian target
    # it takes the depth-first search; the product referee checks both
    for text in ABELIAN_SOURCES:
        g = parse_group_spec(text)
        assert groups.is_abelian(g) == groups.ABELIAN_OUTRIGHT
        got = enumerate_homs(g, target)
        rank, torsion = groups.h1_invariants(g)
        assert got.presentation == groups.abelian_presentation(
            rank, torsion), (text, target.name)
        counts = (got.total, got.surjective, got.witness)
        pres = written_presentation(g, target)
        written = Presented(pres)
        assert groups.is_abelian(written) == (
            groups.ABELIAN_ON_TRUST if rank + len(torsion) <= 1 else 0), text
        searched = enumerate_homs(written, target)
        assert (searched.total, searched.surjective, searched.witness) \
            == counts == product_homs(pres, target), (text, target.name)


@pytest.mark.parametrize("target", [Q8, dihedral(4)], ids=lambda t: t.name)
def test_reported_presentation_presents_the_counted_group(target):
    # an abelian count reports H_1's presentation, commutators included:
    # counting its maps as a written group gives the same numbers (Z^2
    # into Q8 has 40 maps; without the commutators it would have 64)
    for text in ABELIAN_SOURCES:
        got = enumerate_homs(parse_group_spec(text), target)
        again = enumerate_homs(Presented(got.presentation), target)
        assert ((again.total, again.surjective)
                == (got.total, got.surjective)), (text, target.name)
    got = enumerate_homs(parse_group_spec("Z^2"), Q8)
    assert (got.total, got.surjective) == (40, 0)
    got = enumerate_homs(parse_group_spec("Z/2 x Z/4 x Z^2"), dihedral(4))
    assert got.total == 608
    assert str(Presented(abelian_presentation(0))) == "<x1 | x1>"


def test_written_cyclic_groups_are_searched_into_non_nilpotent_targets():
    # the cyclic rule certifies a written group on trust: the written S3
    # has H_1 = Z/2, so it is certified, though it is not nilpotent.  Into
    # a nilpotent target its count on H_1 is exact all the same, since an
    # image with cyclic H_1 is cyclic there; into S3 it is searched, with
    # its 6 automorphisms, 3 maps onto a flip and the trivial map
    s3 = parse_group_spec("<a,b | a^3, b^2, abab>")
    assert groups.is_abelian(s3) == groups.ABELIAN_ON_TRUST
    got = enumerate_homs(s3, dihedral(3))
    assert (got.total, got.surjective) == (10, 6)
    assert got.presentation == s3.presentation and got.witness is not None
    for target in (Q8, dihedral(4), cyclic(6), dihedral(3)):
        got = enumerate_homs(s3, target)
        assert ((got.total, got.surjective, got.witness)
                == product_homs(s3.presentation, target)), target.name


def test_each_count_reads_h1_once(monkeypatch):
    # the abelian-image decision is made once, so H_1 is read at most
    # once per count, and not at all by the depth-first search
    calls = []
    h1 = finitehom.h1_invariants

    def counted(g):
        calls.append(g)
        return h1(g)

    monkeypatch.setattr(finitehom, "h1_invariants", counted)
    for text, target, reads in (("Z/2 x Z/4 x Z^2", cyclic(6), 1),
                                ("Z/2 x Z/4 x Z^2", Q8, 1),
                                ("H3", cyclic(6), 1), ("H3", Q8, 0),
                                ("<a,b | [a,b]>", dihedral(4), 0)):
        calls.clear()
        enumerate_homs(parse_group_spec(text), target)
        assert len(calls) == reads, (text, target.name)


def commuting_tuples_in_q8(r):
    """h_r(Q8) = 2 * h_(r-1) + 6 * 4^(r-1), h_0 = 1: the first image is
    one of the two central elements, whose centralizer is Q8, or one of
    the six others, whose centralizer is cyclic of order 4."""
    h = 1
    for k in range(r):
        h = 2 * h + 6 * 4**k
    return h


def test_abelian_sources_are_sized_on_h1():
    # H_1 of Z/2 x Z/3 x Z^5 is Z^5 + Z/6: six generators where the
    # factors have seven.  Into Q8, x^6 = 1 leaves the two central
    # elements, so the maps are 2 * h_5(Q8)
    assert [commuting_tuples_in_q8(r) for r in range(1, 8)] \
        == [8, 40, 176, 736, 3008, 12160, 48896]
    result = enumerate_homs(parse_group_spec("Z/2 x Z/3 x Z^5"), Q8)
    assert (result.total, result.surjective, result.witness) \
        == (2 * commuting_tuples_in_q8(5), 0, None) == (6016, 0, None)
    # Z/1 adds no generator to H_1 = Z^6
    result = enumerate_homs(parse_group_spec("Z/1 x Z^6"), Q8)
    assert (result.total, result.surjective, result.witness) \
        == (commuting_tuples_in_q8(6), 0, None) == (12160, 0, None)
    # a refusal quotes H_1's generators: seven, not the factors' eight
    for text in ("Z^7", "Z/2 x Z/3 x Z^6"):
        with pytest.raises(TooLarge, match=r"search space 8\^7 exceeds"):
            enumerate_homs(parse_group_spec(text), Q8)


def subgroup_table(group, elements):
    """The subgroup on the given elements as a table of its own."""
    elements = sorted(elements)
    index = {g: i for i, g in enumerate(elements)}
    return FiniteGroup([[index[group.mul(a, b)] for b in elements]
                        for a in elements])


def free_abelian(r):
    return FreeAbelian(r) if r else FiniteAbelian(())


@pytest.mark.parametrize("target", [Q8, cyclic(6),
                                    *map(dihedral, (3, 4, 6, 8))],
                         ids=lambda t: t.name)
def test_commuting_tuples_satisfy_the_centralizer_identity(target):
    # h_r(G) = sum over g of h_(r-1)(C(g)), each centralizer a table of
    # its own
    n = target.order
    centralizers = [subgroup_table(target, target.centralizers[g])
                    for g in range(n)]
    for r in range(1, 5):
        want = sum(enumerate_homs(free_abelian(r - 1), c).total
                   for c in centralizers)
        assert enumerate_homs(FreeAbelian(r), target).total == want, r


@pytest.mark.parametrize("target", [Q8, cyclic(6),
                                    *map(dihedral, (3, 4, 5, 6, 7, 8, 16))],
                         ids=lambda t: t.name)
def test_commuting_pairs_count_the_conjugacy_classes(target):
    # |Hom(Z^2, G)| = k(G) * |G| (Erdos and Turan): at the search's root
    # C(S) is the whole target, so its orbits are the conjugacy classes,
    # counted here from the table by brute force
    n = target.order
    classes = {frozenset(target.mul(target.mul(target.inverse[h], g), h)
                         for h in range(n)) for g in range(n)}
    assert enumerate_homs(FreeAbelian(2), target).total == len(classes) * n


def mobius(k):
    out = 1
    for p in range(2, k + 1):
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_target_counts_match_closed_forms(n):
    # Hom(Z^r + Z/d_1 + ... , C_m) has m^r * prod gcd(d_i, m) maps; the
    # maps onto C_n are sum over m | n of mu(n / m) times those into C_m
    def into(m, rank, divisors):
        return m**rank * prod(gcd(d, m) for d in divisors)

    for rank, divisors in ((0, ()), (1, ()), (4, ()), (0, (4,)), (1, (6,)),
                           (2, (2, 6)), (0, (3, 9, 12)), (1, (5, 10)),
                           (0, (7, 2**7300))):
        factors = [FiniteAbelian((d,)) for d in divisors]
        if rank:
            factors.append(FreeAbelian(rank))
        g = DirectProduct(tuple(factors)) if factors else FiniteAbelian(())
        result = enumerate_homs(g, cyclic(n))
        onto = sum(mobius(n // m) * into(m, rank, divisors)
                   for m in range(1, n + 1) if n % m == 0)
        assert ((result.total, result.surjective, result.witness)
                == (into(n, rank, divisors), onto, None)), (rank, divisors)


def test_trivial_group_and_trivial_target():
    for target in (Q8, cyclic(1), cyclic(6), dihedral(4), dihedral(3)):
        result = enumerate_homs(FiniteAbelian(()), target)
        assert (result.total, result.surjective, result.witness) \
            == (1, int(target.order == 1), None)
    # every group has the one map onto the group of order 1
    for text in ("Z^5", "Z/2 x Z/4 x Z^2", "H3", "F(2,3)", "F(3,2)",
                 "<a,b,c | [a,b]c^-1, [a,c], [b,c]>"):
        result = enumerate_homs(parse_group_spec(text), cyclic(1))
        assert (result.total, result.surjective, result.witness) \
            == (1, 1, None), text


def test_search_limits():
    with pytest.raises(TooLarge):
        enumerate_homs(FreeAbelian(7), Q8)
    with pytest.raises(TooLarge):
        enumerate_homs(FreeNilpotent(4, 2), Q8)   # 10 generators
    with pytest.raises(TooLarge):
        enumerate_homs(FreeAbelian(3), cyclic(256))   # 256^3 leaves
    # tables have order^2 entries, so the order is bounded first
    assert cyclic(256).order == dihedral(128).order == 256
    for build, n in ((cyclic, 257), (dihedral, 129), (cyclic, 10**8)):
        with pytest.raises(TooLarge):
            build(n)


@pytest.mark.parametrize("g", [
    *(FreeAbelian(n) for n in range(1, 5)),
    *(FreeNilpotent(n, 2) for n in range(2, 6)),
    Heisenberg(), FiniteAbelian(()), FiniteAbelian((2, 4)),
    DirectProduct((Heisenberg(), DirectProduct((FreeAbelian(2),
                                                FiniteAbelian((3,)))))),
    NESTED_PRODUCT,
    parse_group_spec("<a,b,c | [a,b]c^-1, [a,c], [b,c]>"),
    FreeNilpotent(3, 3), FreeNilpotent(1, 5), parse_group_spec("H3 x F(1,4)"),
], ids=str)
def test_generator_count_matches_the_presentation(g):
    # the walk counts generators from the specs, and the limits are
    # checked on that count before write builds the presentation; F(3,3)
    # has a presentation only lowered into a target of class 2
    for k in (None, 2, 3):
        if g == FreeNilpotent(3, 3) and k != 2:
            continue   # refused, as F(2,3) is below
        gens, _, write = finitehom._lowered(g, k)
        assert gens == write().generator_count, k


@pytest.mark.parametrize("target", [dihedral(3), dihedral(8)],
                         ids=lambda t: t.name)
def test_class_3_is_refused_before_any_presentation_is_built(monkeypatch,
                                                             target):
    # D3 is not nilpotent and D8 has class 3, so F(n,3) stays at class 3,
    # and UnsupportedGroup comes from the walk, before any writer runs
    def refuse(*args):
        raise AssertionError("a presentation was built")

    k = target.nilpotency_class
    assert k in (None, 3)
    for name in ("abelian_presentation",
                 "free_nilpotent_class2_presentation"):
        monkeypatch.setattr(groups, name, refuse)
    for name in ("abelian_presentation", "merge_presentations"):
        monkeypatch.setattr(finitehom, name, refuse)
    for g in (FreeNilpotent(2, 3), FreeNilpotent(3, 3)):
        with pytest.raises(UnsupportedGroup):
            finitehom._lowered(g, k)
        with pytest.raises(UnsupportedGroup):
            enumerate_homs(g, target)


def test_abelian_specs_never_produce_witnesses():
    for g in (FreeAbelian(3), FiniteAbelian((2, 2)),
              DirectProduct((FreeAbelian(1), FiniteAbelian((3,))))):
        assert surjection_witness(g, Q8) is None


# ---------------------------------------------------------------------------
# the order bound


def gcd_totient(k):
    """Euler's phi by its definition: the j <= k prime to k."""
    return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)


def test_central_image_order_bound_values():
    assert central_image_order_bound(1) == 1
    assert central_image_order_bound(2) == 4
    assert central_image_order_bound(3) == 64
    phis = [gcd_totient(k) for k in range(1, 513)]
    for m in [*range(1, 65), 512]:
        assert central_image_order_bound(m) == sum(phis[:m]) ** m, m


def test_central_image_order_bound_monotone():
    values = [central_image_order_bound(m) for m in range(1, 8)]
    assert values == sorted(values)


# ---------------------------------------------------------------------------
# connectivity verdicts


def test_disconnected_verdicts_carry_reasons():
    v = connectivity_verdict(Heisenberg(), reductive(("SL", 2)))
    assert v.witness == (I, J, 1) and v.reason_code == "finite_nonabelian_quotient"
    assert [Q8.labels[x] for x in v.witness] == ["i", "j", "-1"]
    v = connectivity_verdict(Heisenberg(), reductive(("PGL", 2)))
    assert v.witness is None and v.reason_code == "nonabelian_free_family"
    v = connectivity_verdict(FiniteAbelian((3,)), reductive(("T", 1)))
    assert v.reason_code == "torus_target_torsion"
    v = connectivity_verdict(FiniteAbelian((3,)), reductive(("SL", 2)))
    assert v.reason_code == "torsion_obstruction"
    v = connectivity_verdict(FreeAbelian(2), reductive(("PGL", 3)))
    assert v.status == "Disconnected"
    assert v.reason_code == "not_simply_connected"


def test_torus_verdicts_for_torsion_free_catalog_groups():
    torus = reductive(("T", 2))
    gl1 = reductive(("GL", 1))  # a torus in disguise
    for g in (FreeAbelian(4), FreeNilpotent(3, 3), Heisenberg(),
              DirectProduct((Heisenberg(), FreeAbelian(2)))):
        assert connectivity_verdict(g, torus).status == "Connected"
        assert connectivity_verdict(g, gl1).status == "Connected"


def test_abelian_classical_verdicts():
    assert connectivity_verdict(
        FreeAbelian(1), reductive(("SO", 5))).status == "Connected"
    assert connectivity_verdict(
        FreeAbelian(5), reductive(("Sp", 6), ("GL", 2))).status == "Connected"
    assert connectivity_verdict(
        FreeAbelian(2), reductive(("Spin", 7))).status == "Connected"
    # Spin5 = Sp4 and Spin6 = SL4 have every dual Kac label 1; Spin7, G2
    # and F4 have a label 2, so commuting triples leave the torus
    for target, want in ((("Spin", 5), "Connected"),
                         (("Spin", 6), "Connected"),
                         (("Spin", 7), "Disconnected"),
                         ("G2", "Disconnected"), ("F4", "Disconnected")):
        for r in (3, 4):
            v = connectivity_verdict(FreeAbelian(r), reductive(target))
            assert v.status == want, (target, r)
    v = connectivity_verdict(FreeAbelian(4), reductive(("Spin", 7)))
    assert v.reason_code == "nontoral_commuting_triples"
    # r is written once, and "every r" is said in words
    v = connectivity_verdict(FreeAbelian(3), reductive(("Spin", 5)))
    assert v.reason_code == "commuting_tuples_diagonalizable"
    assert v.reason.endswith("so Hom(Z^3, G) is connected, as Hom(Z^r, G) "
                             "is for every r")


def test_written_abelian_products_carry_the_nilpotency_note():
    # a product certified abelian only because its written factor is
    # taken to be nilpotent says so on every rule of the abelian branch
    note = "as it is taken to be nilpotent"
    for text, target, code in (
            ("<x | 1> x Z", ("SL", 3), "commuting_tuples_diagonalizable"),
            ("<x | 1> x Z^2", ("SO", 3), "not_simply_connected"),
            ("<x | 1> x Z", "G2", "commuting_pairs_irreducible"),
            ("<x | 1> x Z^2", ("Spin", 7), "nontoral_commuting_triples"),
            ("<x | 1>", ("SL", 2), "single_generator"),
            ("<x | x>", ("SL", 2), "trivial_group")):
        g = parse_group_spec(text)
        v = connectivity_verdict(g, reductive(target))
        assert v.reason_code == code and v.reason.endswith(note), text
        # the catalog group with the same H_1 trusts nothing
        h = parse_group_spec(text.replace("<x | 1>", "Z")
                             .replace("<x | x>", "Z/1"))
        assert note not in connectivity_verdict(h, reductive(target)).reason
    v = connectivity_verdict(FreeAbelian(2), reductive(("SL", 3)))
    assert v.reason_code == "commuting_tuples_diagonalizable"
    assert "nilpotent" not in v.reason


def test_abelian_verdicts_are_total():
    # Z^r into a catalog factor of rank <= 8 or a product of two such
    # factors is always decided
    factors = [Factor(fam, n) for fam, sizes in (
        ("SL", range(2, 10)), ("GL", range(1, 9)), ("PGL", range(2, 10)),
        ("Sp", range(2, 17, 2)), ("SO", range(3, 18)),
        ("Spin", range(3, 18)), ("T", range(1, 9))) for n in sizes]
    factors += [Factor("G2"), Factor("F4")]
    specs = [ReductiveSpec((f,)) for f in factors] + list(
        map(ReductiveSpec, combinations_with_replacement(factors, 2)))
    for r in range(5):
        g = FreeAbelian(r) if r else FiniteAbelian(())
        for spec in specs:
            v = connectivity_verdict(g, spec)
            assert v.status != "Unknown", (r, str(spec))


def test_product_groups_fall_back_honestly():
    g = DirectProduct((Heisenberg(), FreeAbelian(1)))
    assert connectivity_verdict(g, reductive(("SL", 3))).status == "Disconnected"
    # the coroot of PGL2 is twice a cocharacter, so no SL2 and no Q8 embeds
    # in it, and no rule decides a product group: stay Unknown
    assert connectivity_verdict(g, reductive(("PGL", 2))).status == "Unknown"


def test_connected_nontorus_verdicts_only_for_abelian_groups():
    specs = [reductive(("SL", 2)), reductive(("Sp", 4)),
             reductive(("PGL", 3)), reductive(("SO", 4)),
             reductive(("GL", 2), ("T", 1))]
    groups = [Heisenberg(), FreeNilpotent(2, 2), FreeNilpotent(3, 4),
              DirectProduct((Heisenberg(), FreeAbelian(1)))]
    for spec in specs:
        for g in groups:
            assert connectivity_verdict(g, spec).status != "Connected"


NOTE = ("; a written group whose H_1 needs at most one generator is cyclic, "
        "as it is taken to be nilpotent")
# one (group, target) pair per rung of the ladder, in its order, with the
# verdict that it gives
RUNGS = (
    ("Z", "T1", "Connected", "torus_target",
     "the target is an algebraic torus and H_1 is torsion-free, so the "
     "space is a torus power T^1"),
    # the torus rung comes before the torsion rung
    ("Z/2", "T1", "Disconnected", "torus_target_torsion",
     "the torsion part of H_1 maps to a torus in more than one way, and "
     "each choice is isolated; T1 admits Z/2"),
    ("H3", "SL2", "Disconnected", "finite_nonabelian_quotient",
     "the group surjects onto a quaternion subgroup of the target, so no "
     "path connects that representation to the trivial one"),
    ("Z/2", "SL2", "Disconnected", "torsion_obstruction",
     "H_1 has torsion [2]; its finite-order characters into a maximal "
     "torus cannot deform to the trivial representation"),
    ("H3", "PGL2", "Disconnected", "nonabelian_free_family",
     "a non-abelian free nilpotent or Heisenberg group has disconnected "
     "representation and character spaces for every reductive target that "
     "is not a torus"),
    ("Z/1", "SL2", "Connected", "trivial_group",
     "the trivial group has a single representation"),
    ("Z", "SL2", "Connected", "single_generator",
     "Hom(Z, G) = G, which is connected"),
    ("Z^2", "PGL2", "Disconnected", "not_simply_connected",
     "the target has a non-simply-connected simple factor, and commuting "
     "2-tuples in it do not all lie on one component"),
    ("Z^2", "SL2", "Connected", "commuting_tuples_diagonalizable",
     "commuting tuples in the compact forms of these factors are "
     "simultaneously diagonalizable, so Hom(Z^2, G) is connected, as "
     "Hom(Z^r, G) is for every r"),
    ("Z^2", "Spin7", "Connected", "commuting_pairs_irreducible",
     "commuting pairs in a connected semisimple group form an irreducible, "
     "hence connected, variety"),
    ("Z^3", "Spin7", "Disconnected", "nontoral_commuting_triples",
     "a simply connected factor with a dual Kac label of at least 2 has "
     "commuting triples, and so commuting 3-tuples, in no maximal torus"),
    ("H3 x Z", "PGL2", "Unknown", "outside_catalog",
     "no implemented criterion decides this group/target pair"),
)


def test_every_rung_gives_its_reason():
    # every reason text; the note of the cyclic rule on each of the six
    # rungs that is_abelian's certificate admits; and two pairs where two
    # rungs hold: the witness comes before torsion, and pi_1 torsion
    # before the dual labels
    rungs = {code: (status, reason) for _, _, status, code, reason in RUNGS}
    assert len(rungs) == 12
    cases = [(group, target, code, rungs[code][1],
              (I, J, 1) if code == "finite_nonabelian_quotient" else None)
             for group, target, _, code, _ in RUNGS]
    cases += [(group, target, code, rungs[code][1] + NOTE, None)
              for group, target, code in (
                  ("<x | x>", "SL2", "trivial_group"),
                  ("<x | 1>", "SL2", "single_generator"),
                  ("<x | 1> x Z", "PGL2", "not_simply_connected"),
                  ("<x | 1> x Z", "SL2", "commuting_tuples_diagonalizable"),
                  ("<x | 1> x Z", "Spin7", "commuting_pairs_irreducible"),
                  ("<x | 1> x Z^2", "Spin7", "nontoral_commuting_triples"))]
    cases += [("H3 x Z/2", "SL2", "finite_nonabelian_quotient",
               rungs["finite_nonabelian_quotient"][1], (I, J, 1, 0)),
              ("Z^3", "SO3", "not_simply_connected",
               "the target has a non-simply-connected simple factor, and "
               "commuting 3-tuples in it do not all lie on one component",
               None)]
    for group, target, code, reason, witness in cases:
        v = connectivity_verdict(parse_group_spec(group),
                                 parse_reductive_spec(target))
        assert (v.status, v.reason_code, v.reason, v.witness) == (
            rungs[code][0], code, reason, witness), (group, target)


def test_the_quaternion_rung_searches_only_where_it_can_decide(
        monkeypatch):
    # the witness is searched for a target that is not a torus, a group
    # that is_abelian does not certify, and a root SL2, and nowhere else
    calls = []
    search = finitehom._q8_witness

    def counted(g):
        calls.append(g)
        return search(g)

    monkeypatch.setattr(finitehom, "_q8_witness", counted)
    for group, target in (("H3", "T2"), ("Z^3", "SL2"), ("<x | 1>", "Sp4"),
                          ("Z/2 x Z^2", "SL2"), ("H3", "PGL2"),
                          ("H3", "SO3")):
        connectivity_verdict(parse_group_spec(group),
                             parse_reductive_spec(target))
        assert calls == [], (group, target)
    v = connectivity_verdict(Heisenberg(), parse_reductive_spec("SL2"))
    assert v.witness == (I, J, 1) and len(calls) == 1


# the written Heisenberg group in the three spellings that
# quotient-verdicts draws, and that workload's targets, each with a root
# SL2
HEIS3_SPELLINGS = ("<x,y,z | [x,y]z^-1, [x,z], [y,z]>",
                   "<a,b,c | [a,b]c^-1, [a,c], [b,c]>",
                   "<u,v,w | [u,v]w^-1, [u,w], [v,w]>")
SL2_TARGETS = ("SL2", "Sp4", "SO5", "GL2", "PGL3", "SL3", "G2")


def test_the_quaternion_rule_searches_each_group_value_once(monkeypatch):
    # the witness depends on the group alone, so each group value is
    # searched once whatever the target, and names do not make another
    # value: three searches here, where one per verdict would be 35
    searched = []
    search = finitehom._stopped

    def counted(pres, target):
        searched.append(pres)
        return search(pres, target)

    monkeypatch.setattr(finitehom, "_stopped", counted)
    monkeypatch.setattr(finitehom, "_q8_witnesses", {})
    for texts, want in ((HEIS3_SPELLINGS, (I, J, 1)),
                        (("F(3,2)",), (0, I, J, 0, 0, 1)),
                        (("H3 x H3",), (0, 0, 0, I, J, 1))):
        before = len(searched)
        for text in texts:
            g = parse_group_spec(text)
            for target in SL2_TARGETS:
                v = connectivity_verdict(g, parse_reductive_spec(target))
                assert v.reason_code == "finite_nonabelian_quotient"
                assert v.witness == want, (text, target)
        assert len(searched) == before + 1, texts


def test_a_memo_miss_walks_the_spec_once(monkeypatch):
    # the plan that keys the memo also writes the searched presentation:
    # H3 x H3 is one walk of three nodes on a miss, and one on the hit
    # that the next target reads
    walked = []
    lowered = finitehom._lowered

    def counted(g, k):
        walked.append(g)
        return lowered(g, k)

    monkeypatch.setattr(finitehom, "_lowered", counted)
    monkeypatch.setattr(finitehom, "_q8_witnesses", {})
    g = parse_group_spec("H3 x H3")
    for target, calls in (("SL2", 3), ("Sp4", 6)):
        v = connectivity_verdict(g, parse_reductive_spec(target))
        assert v.witness == (0, 0, 0, I, J, 1)
        assert len(walked) == calls, target


def fresh_witness(g):
    """surjection_witness(g, Q8), or None where the search refuses g."""
    try:
        return surjection_witness(g, Q8)
    except (TooLarge, UnsupportedGroup):
        return None


def test_shared_witnesses_are_fresh_searches_on_random_presentations(
        monkeypatch):
    # every draw, unnamed and named, with the memo warmed on every draw by
    # the other spelling: the verdict's witness is a fresh search's, or
    # none where the rule does not apply or finds none
    sl2 = reductive(("SL", 2))
    draws = [pres for target in (Q8, dihedral(3), dihedral(6), dihedral(128))
             for pres in random_presentations(target)]
    spellings = [(Presented(pres), Presented(replace(
        pres, names=tuple("abc"[:pres.generator_count])))) for pres in draws]
    for warm in (0, 1):
        monkeypatch.setattr(finitehom, "_q8_witnesses", {})
        for pair in spellings:
            connectivity_verdict(pair[warm], sl2)
        for pair in spellings:
            g = pair[1 - warm]
            want = None if groups.is_abelian(g) else fresh_witness(g)
            assert connectivity_verdict(g, sl2).witness == want, str(g)


def test_verdicts_past_the_search_limit_hash_no_relator(monkeypatch):
    # the quaternion rule sizes a group on its specs before it builds the
    # memo's key: hashing the 252 relators of the written F(8,2) would
    # cost more than refusing it
    specs = [Presented(free_nilpotent_class2_presentation(8)),
             parse_group_spec("H3 x H3 x Z"),
             parse_group_spec(written("H3 x H3 x Z"))]

    def refuse(self):
        raise AssertionError("a relator was hashed")

    monkeypatch.setattr(groups.Word, "__hash__", refuse)
    for g in specs:
        v = connectivity_verdict(g, reductive(("SL", 2)))
        assert (v.status, v.reason_code) == ("Unknown", "outside_catalog")
