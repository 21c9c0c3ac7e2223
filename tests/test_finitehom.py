"""Finite groups, homomorphism counting, witnesses, verdicts, the bound."""

from itertools import combinations_with_replacement, product

import pytest

from nilrep import finitehom, groups
from nilrep.arith import totient
from nilrep.errors import TooLarge, UnsupportedGroup
from nilrep.finitehom import (FiniteGroup, central_image_order_bound,
                              connectivity_verdict, cyclic, dihedral,
                              enumerate_homs, presentation_for_homs, q8,
                              surjection_witness)
from nilrep.groups import (DirectProduct, FiniteAbelian, FreeAbelian,
                           FreeNilpotent, Heisenberg, Presentation, Presented,
                           free_abelian_presentation,
                           free_nilpotent_class2_presentation, gen,
                           merge_presentations, power)
from nilrep.parsing import parse_group_spec
from nilrep.rootdata import (WEYL_ORDER_BOUND, Factor, ReductiveSpec,
                             reductive)


Q8 = q8()
I, J, K = 2, 4, 6  # element indices in the canonical ordering


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
    center = [g for g in range(8) if Q8.centralizer_size(g) == 8]
    assert sorted(center) == [0, 1]
    assert not Q8.is_abelian_subset(range(8))
    assert Q8.nilpotency_class() == 2


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
    assert cyclic(6).nilpotency_class() == 1
    assert dihedral(4).nilpotency_class() == 2
    assert dihedral(3).nilpotency_class() is None  # S3 is not nilpotent


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
        centralizers = sum(group.centralizer_size(g)
                           for g in range(group.order))
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
    neither FiniteGroup.power nor finitehom._evaluate is used."""
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
    assert not Q8.is_abelian_subset(image)
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
                              free_abelian_presentation(1)])),
        (FreeAbelian(3), free_abelian_presentation(3)),
    ]
    for g, pres in cases:
        catalog = enumerate_homs(g, target)
        presented = enumerate_homs(Presented(pres), target)
        assert (catalog.total, catalog.surjective) \
            == (presented.total, presented.surjective), (g, target.name)


def test_presentations_are_sized_before_they_are_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a presentation past the limits was built")

    for name in ("free_abelian_presentation",
                 "free_nilpotent_class2_presentation"):
        monkeypatch.setattr(groups, name, refuse)
    for name in ("finite_abelian_presentation", "merge_presentations"):
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
    """The presentation of g that the search used before abelian targets
    were searched on H_1: g as written, with each free nilpotent factor
    replaced by its quotient by the target's class."""
    return finitehom._presentation(
        finitehom._searched(g, target.nilpotency_class()))


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
        if witness is None and not target.is_abelian_subset(image):
            witness = images
    return total, surjective, witness


HOMCOUNT_SOURCES = (
    "H3", "Z^3", "Z^4", "F(2,2)", "F(2,3)", "H3 x Z", "Z/2 x Z/4 x Z^2",
    "<a,b,c | [a,b]c^-1, [a,c], [b,c]>",
    "<a,b,c,d | [a,b]c^-1, [a,c]d^-1, [b,c], [a,d], [b,d], [c,d]>",
)


@pytest.mark.parametrize("target", [Q8, dihedral(4), cyclic(6), cyclic(8),
                                    dihedral(3)], ids=lambda t: t.name)
def test_carried_subgroups_match_leaf_closure(target):
    # the cli-presentations homcount sources, with the presented
    # Heisenberg and filiform groups
    for text in HOMCOUNT_SOURCES:
        g = parse_group_spec(text)
        try:
            want = leaf_closure_homs(g, target)
        except UnsupportedGroup:   # F(2,3) into the non-nilpotent S3
            with pytest.raises(UnsupportedGroup):
                enumerate_homs(g, target)
            continue
        got = enumerate_homs(g, target)
        assert (got.total, got.surjective, got.witness) == want, \
            (text, target.name)


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
    assert target.nilpotency_class() == 1
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
    # H_1 all the same, one generator with the relator g^(n(n + 1))
    n = 10**2200
    g = Presented(Presentation(2, (power(gen(0), n), power(gen(1), n + 1))))
    with pytest.raises(TooLarge):
        groups.abelianize(g)
    result = enumerate_homs(g, cyclic(2))
    assert (result.total, result.surjective) == (2, 1)
    assert result.presentation == Presentation(
        1, (power(gen(0), n * (n + 1)),))


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
    assert target.nilpotency_class() != 1
    largest = min(6, max(k for k in range(20)
                         if target.order**k <= finitehom.SEARCH_LIMIT))
    for gens in range(1, 40):
        if gens <= largest:
            finitehom._check_search(gens, target)
        else:
            with pytest.raises(TooLarge):
                finitehom._check_search(gens, target)
    with pytest.raises(TooLarge):
        enumerate_homs(FreeAbelian(largest + 1), target)


@pytest.mark.parametrize("target", [dihedral(3), dihedral(8), Q8],
                         ids=lambda t: t.name)
def test_free_nilpotent_on_one_generator_is_searched_as_z(target):
    # F(1, c) is Z at every class, into targets of every nilpotency class
    want = enumerate_homs(FreeAbelian(1), target)
    for c in (1, 2, 3, 7):
        got = enumerate_homs(FreeNilpotent(1, c), target)
        assert got == want
        assert got.presentation.generator_names() == ("x1",)
    assert want.total == target.order


def test_search_closes_once_per_new_subgroup_step(monkeypatch):
    calls = [0]
    closure = FiniteGroup.closure

    def counted(self, generators):
        calls[0] += 1
        return closure(self, generators)

    monkeypatch.setattr(FiniteGroup, "closure", counted)
    result = enumerate_homs(FreeAbelian(3), cyclic(64))
    assert (result.total, result.surjective) == (64**3, 64**3 - 32**3)
    # one closure per leaf would be 262,144 calls
    assert calls[0] <= 400


def test_relator_exponents_are_reduced_once_per_search(monkeypatch):
    # the same 2^17-leaf search with a 1-digit and a 3,600-digit torsion
    # relator; every power taken at a node has an exponent below the
    # target's order, so the big one costs no big-integer reduction
    exponents = set()
    power_of = FiniteGroup.power

    def recorded(self, g, e):
        exponents.add(e)
        return power_of(self, g, e)

    monkeypatch.setattr(FiniteGroup, "power", recorded)
    for torsion in ((FiniteAbelian((6,)),),
                    (FiniteAbelian((2**7300,)), FiniteAbelian((3**4600,)))):
        result = enumerate_homs(DirectProduct((FreeAbelian(16), *torsion)),
                                cyclic(2))
        assert (result.total, result.surjective) == (2**17, 2**17 - 1)
    assert max(exponents) < 2


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
    parse_group_spec("<a,b,c | [a,b]c^-1, [a,c], [b,c]>"),
], ids=str)
def test_generator_count_matches_the_presentation(g):
    # the limits are checked on the count before the presentation is built
    assert (finitehom._generator_count(g)
            == finitehom._presentation(g).generator_count)


def test_abelian_specs_never_produce_witnesses():
    for g in (FreeAbelian(3), FiniteAbelian((2, 2)),
              DirectProduct((FreeAbelian(1), FiniteAbelian((3,))))):
        assert surjection_witness(g, Q8) is None


# ---------------------------------------------------------------------------
# the order bound


def test_central_image_order_bound_values():
    assert central_image_order_bound(1) == 1
    assert central_image_order_bound(2) == 4
    assert central_image_order_bound(3) == 64
    for m in range(1, 7):
        expected = sum(totient(k) for k in range(1, m + 1)) ** m
        assert central_image_order_bound(m) == expected


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


def test_abelian_verdicts_are_total():
    # Z^r into a catalog factor of rank <= 8 (within the Weyl order bound)
    # or a product of two such factors is always decided
    factors = [Factor(fam, n) for fam, sizes in (
        ("SL", range(2, 10)), ("GL", range(1, 9)), ("PGL", range(2, 10)),
        ("Sp", range(2, 17, 2)), ("SO", range(3, 18)),
        ("Spin", range(3, 18)), ("T", range(1, 9))) for n in sizes]
    factors = [f for f in factors + [Factor("G2"), Factor("F4")]
               if f.weyl_order() <= WEYL_ORDER_BOUND]
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
