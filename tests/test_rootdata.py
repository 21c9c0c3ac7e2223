"""Root datum catalog: Weyl enumeration, coroot systems, pi_1 cokernels."""

from operator import mul

import pytest

from nilrep import record, rootdata
from nilrep.errors import NilrepError, TooLarge, UnsupportedType
from nilrep.finitehom import _dual_labels_one
from nilrep.groups import AbelianInvariants, FreeAbelian
from nilrep.invariants import poincare_char_variety, poincare_hom_component
from nilrep.report import analyze
from nilrep.rootdata import (Block, Factor, ReductiveSpec, RootDatum,
                             build_root_datum, enumerate_weyl, pi1_G,
                             pi1_G_ab, reductive)
from nilrep.snf import cokernel_invariants, integer_rank


SMALL_SPECS = [
    reductive(("SL", 2)), reductive(("SL", 3)), reductive(("SL", 4)),
    reductive(("GL", 1)), reductive(("GL", 2)), reductive(("GL", 3)),
    reductive(("PGL", 2)), reductive(("PGL", 3)), reductive(("PGL", 4)),
    reductive(("Sp", 4)), reductive(("Sp", 6)),
    reductive(("SO", 3)), reductive(("SO", 4)), reductive(("SO", 5)),
    reductive(("SO", 6)), reductive(("SO", 7)),
    reductive(("Spin", 3)), reductive(("Spin", 4)), reductive(("Spin", 5)),
    reductive(("Spin", 6)), reductive(("Spin", 7)),
    reductive("G2"), reductive("F4"),
    reductive(("T", 2)),
    reductive(("SL", 2), ("PGL", 2)),
    reductive(("GL", 2), ("T", 1)),
]


# every catalog factor up to rank 12, past the Weyl order bound too
CATALOG = ([Factor("SL", n) for n in range(2, 14)]
           + [Factor("GL", n) for n in range(1, 13)]
           + [Factor("PGL", n) for n in range(2, 14)]
           + [Factor("Sp", n) for n in range(2, 25, 2)]
           + [Factor("SO", n) for n in range(3, 26)]
           + [Factor("Spin", n) for n in range(3, 26)]
           + [Factor("G2"), Factor("F4")]
           + [Factor("T", n) for n in range(1, 13)])


def dense_coroots(rd):
    """Every block's coroots, padded with zeros into the full rank."""
    out, offset = [], 0
    for f, b in zip(rd.factors, rd.blocks):
        out += [(0,) * offset + v + (0,) * (rd.rank - offset - f.rank())
                for v in b.coroots]
        offset += f.rank()
    return out


def test_factor_validation():
    with pytest.raises(UnsupportedType):
        Factor("SL", 1)
    with pytest.raises(UnsupportedType):
        Factor("Sp", 5)
    with pytest.raises(UnsupportedType):
        Factor("SO", 2)
    with pytest.raises(UnsupportedType):
        Factor("E", 8)


def test_weyl_order_bound_enforced():
    # only enumerate_weyl reads the Weyl order bound: the catalog bounds
    # the rank, and the Molien sums bound their own work, so one factor
    # past that refuses the product's Poincare polynomials and nothing
    # else
    rd = build_root_datum(ReductiveSpec((Factor("SL", 12),)))
    with pytest.raises(TooLarge, match="479001600"):
        enumerate_weyl(rd)
    assert poincare_hom_component(rd, 1)(1) == 2 ** 11
    for spec, kind in ((ReductiveSpec((Factor("SL", 64),)), "A63"),
                       (reductive(("SL", 2), ("SL", 60), ("T", 1)), "A59")):
        rd = build_root_datum(spec)
        for poincare in (poincare_char_variety, poincare_hom_component):
            with pytest.raises(TooLarge, match="type %s at r = 2 " % kind):
                poincare(rd, 2)
    assert build_root_datum(reductive(("SL", 9), ("SL", 9))).weyl_order() \
        == 362880 ** 2


def test_sl2_datum():
    rd = build_root_datum(reductive(("SL", 2)))
    assert rd.rank == 1
    assert set(rd.blocks[0].coroots) == {(1,), (-1,)}
    assert rd.degrees == (2,)
    assert len(enumerate_weyl(rd)) == 2


def test_torus_datum():
    rd = build_root_datum(reductive(("T", 3)))
    assert rd.rank == 3 and rd.blocks[0].coroots == ()
    assert rd.degrees == (1, 1, 1)
    assert len(enumerate_weyl(rd)) == 1


def test_gl2_datum():
    rd = build_root_datum(reductive(("GL", 2)))
    assert rd.rank == 2
    assert set(rd.blocks[0].coroots) == {(1, -1), (-1, 1)}
    assert rd.degrees == (1, 2)


def test_weyl_sizes_match_degree_products():
    for spec in SMALL_SPECS:
        rd = build_root_datum(spec)
        # enumerate_weyl itself checks closure size == product of degrees
        weyl = enumerate_weyl(rd)
        assert len(weyl) == rd.weyl_order(), str(spec)


def test_weyl_closure_size_mismatch_is_an_error():
    # A1 x A1 x A1 on Z^3 has six coroots, as GL3 does, so the datum
    # admits it for GL3; its Weyl group has 8 elements, not 3! = 6
    a1_cubed = Block(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
                     ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    rd = RootDatum((Factor("GL", 3),), (a1_cubed,))
    with pytest.raises(NilrepError, match="8 elements, expected 6"):
        enumerate_weyl(rd)


def test_blocks_are_checked_one_by_one():
    sl2 = Block(1, ((2,),), ((1,),))
    assert sl2.coroots == ((-1,), (1,))
    # I - alpha^vee alpha^T = (2) is no involution: <alpha, alpha^vee> = -1
    with pytest.raises(ValueError, match="pair to 2"):
        RootDatum((Factor("SL", 2),), (Block(1, ((-1,),), ((1,),)),))
    # the coroots are the orbit of the simple coroots, so they are closed
    # under the reflections; a model with too few of them for its factor
    # (here none for SL2) is refused by the datum
    with pytest.raises(ValueError, match="0 coroots for SL2"):
        RootDatum((Factor("SL", 2),), (Block(1, (), ()),))
    # the simple roots and coroots are vectors of the block's lattice
    with pytest.raises(ValueError, match=r"lie in Z\^1"):
        Block(1, ((2,),), ((1, 0),))
    with pytest.raises(ValueError, match=r"lie in Z\^2"):
        Block(2, ((-2,),), ((1, 0),))
    # a root and its coroot of different lengths
    with pytest.raises(ValueError, match=r"lie in Z\^2"):
        Block(2, ((2, 0),), ((1,),))
    # a root without a coroot
    with pytest.raises(ValueError, match="one simple coroot"):
        Block(1, ((2,), (2,)), ((1,),))
    # a block of another factor's rank does not fit this one
    with pytest.raises(ValueError, match="rank 1 for SL3 of rank 2"):
        RootDatum((Factor("SL", 3),), (sl2,))
    with pytest.raises(ValueError):
        RootDatum((Factor("SL", 2), Factor("SL", 2)), (sl2,))
    # the shear I + e_1 e_2^T is I - alpha^vee alpha^T for alpha = -e_2 and
    # alpha^vee = e_1; it moves one row, but does not square to the
    # identity, and <alpha, alpha^vee> = 0
    with pytest.raises(ValueError, match="pair to 2"):
        Block(2, ((0, -1),), ((1, 0),))


def test_each_factor_has_one_block_per_process():
    sl3 = Factor("SL", 3)
    block = build_root_datum(reductive(sl3)).blocks[0]
    for spec in (reductive(sl3, ("SL", 4)), reductive(sl3, sl3, "G2")):
        rd = build_root_datum(spec)
        assert all(b is block for f, b in zip(rd.factors, rd.blocks)
                   if f == sl3), str(spec)


def test_blocks_are_built_and_checked_once_per_factor(monkeypatch):
    calls = {"mul": 0, "check": 0}
    check = Block.__post_init__

    def counted_mul(a, b):
        calls["mul"] += 1
        return a * b

    def counted_check(self):
        calls["check"] += 1
        check(self)
    monkeypatch.setattr(rootdata, "mul", counted_mul)
    monkeypatch.setattr(Block, "__post_init__", counted_check)
    rootdata._factor_block.cache_clear()
    spec = reductive(("SL", 3), ("SL", 3), "G2")
    blocks = set(build_root_datum(spec).blocks)
    first = dict(calls)
    # per block, each simple root pairs with its own coroot once (the
    # check) and with one coroot of each +- pair once (the orbit), and a
    # pairing is rank products: the orbit makes l * |coroots| / 2
    # reflections, 2 * 3 for SL3 and 2 * 6 for G2
    assert first["check"] == 2
    reflections = sum(len(b.simple_roots) * len(b.coroots) // 2
                      for b in blocks)
    assert reflections == 18
    assert first["mul"] == sum(
        b.rank * len(b.simple_roots) * (1 + len(b.coroots) // 2)
        for b in blocks) == 2 * (4 + reflections)
    build_root_datum(spec)
    build_root_datum(reductive("G2", ("SL", 3)))
    assert calls == first


def test_coroot_orbits_match_the_plain_closure():
    # referee of the orbit by +- pairs: the plain closure of the simple
    # coroots under every simple reflection s(v) = v - <alpha, v> alpha^vee,
    # applied as the dense product with I - alpha^vee alpha^T, is the
    # block's coroot system for every catalog factor of rank <= 12; the
    # simply connected factors' simple coroots are unit vectors
    for f in CATALOG:
        b = rootdata._factor_block(f)
        matrices = []
        for alpha, simple in zip(b.simple_roots, b.simple_coroots):
            matrices.append([[(k == j) - simple[k] * alpha[j]
                              for j in range(b.rank)]
                             for k in range(b.rank)])
            if f.family in ("SL", "Sp", "Spin", "G2", "F4"):
                assert sorted(simple) == [0] * (b.rank - 1) + [1], str(f)
        closure = rootdata._orbit(
            b.simple_coroots, matrices,
            lambda m, v: tuple(sum(map(mul, row, v)) for row in m))
        assert closure == b.coroots, str(f)
        assert len(closure) == 2 * sum(d - 1 for d in f.degrees()), str(f)


def _assert_immutable(value):
    if isinstance(value, tuple):
        for item in value:
            _assert_immutable(item)
    elif not isinstance(value, (int, str)):
        # anything else must be a record (fields raises TypeError
        # otherwise) that refuses assignment to each of its fields
        for name in record.fields(value):
            item = getattr(value, name)
            with pytest.raises(record.FrozenInstanceError):
                setattr(value, name, item)
            _assert_immutable(item)


def test_cached_block_values_are_immutable():
    for spec in SMALL_SPECS:
        for b in build_root_datum(spec).blocks:
            _assert_immutable(b)
            _assert_immutable(b.cokernel)
    with pytest.raises(record.FrozenInstanceError):
        b.coroots = ()


def test_weyl_elements_permute_coroots():
    for spec in SMALL_SPECS:
        rd = build_root_datum(spec)
        if rd.weyl_order() > 10**4:
            continue
        coroots = set(dense_coroots(rd))
        for w in enumerate_weyl(rd):
            image = {tuple(sum(row[k] * v[k] for k in range(rd.rank))
                           for row in w) for v in coroots}
            assert image == coroots, str(spec)


def test_weyl_group_closed_under_product_and_inverse():
    rd = build_root_datum(reductive(("Sp", 4)))
    elements = set(enumerate_weyl(rd))
    ident = tuple(tuple(1 if i == j else 0 for j in range(rd.rank))
                  for i in range(rd.rank))
    assert ident in elements
    for a in elements:
        for b in elements:
            prod = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(rd.rank))
                               for j in range(rd.rank)) for i in range(rd.rank))
            assert prod in elements


def classical_pi1(f):
    """pi_1 from the classical table, which does not read the models."""
    if f.family == "GL":
        return AbelianInvariants(1)
    if f.family == "T":
        return AbelianInvariants(f.param)
    if f.family == "PGL":
        return AbelianInvariants(0, (f.param,))
    if f.family == "SO":
        return AbelianInvariants(0, (2,))
    return AbelianInvariants(0)  # SL, Sp, Spin, G2, F4


def test_pi1_classical_values():
    for f in CATALOG:
        rd = build_root_datum(ReductiveSpec((f,)))
        assert pi1_G(rd) == classical_pi1(f), str(f)


def test_factors_past_the_weyl_order_bound():
    # the catalog admits them, and the Molien sums list no Weyl group
    # elements: Z^3 gets pi_1, the verdict and both polynomials, and
    # P_hom(1) = 2^(r * rank) at r = 2 and 3; Spin129, at RANK_BOUND, is
    # past the Molien work bound, and analyze omits its polynomials with
    # a caveat
    expected = {
        ("SL", 12): "commuting_tuples_diagonalizable",
        ("PGL", 12): "not_simply_connected",
        ("Sp", 16): "commuting_tuples_diagonalizable",
        ("SO", 16): "not_simply_connected",
        ("Spin", 16): "nontoral_commuting_triples",
        ("Spin", 129): "nontoral_commuting_triples",
    }
    for (fam, n), reason_code in expected.items():
        f = Factor(fam, n)
        assert f.weyl_order() > rootdata.WEYL_ORDER_BOUND
        report = analyze(FreeAbelian(3), ReductiveSpec((f,)))
        assert report.pi1_hom == classical_pi1(f).self_power(3), str(f)
        assert report.verdict.reason_code == reason_code, str(f)
        if n == 129:
            assert report.poincare_hom is report.poincare_char is None
            assert report.caveats[-1] == (
                "Poincare polynomials omitted: Molien sums of the Weyl group "
                "of type B64 at r = 3 exceed the supported work bound.")
        else:
            assert report.poincare_hom(1) == 2 ** (3 * f.rank()), str(f)
            assert report.poincare_char is not None, str(f)
            rd = build_root_datum(ReductiveSpec((f,)))
            assert poincare_hom_component(rd, 2)(1) == 2 ** (2 * f.rank())


def uncached_dense_coroots(spec):
    """The coroots of every factor, built afresh from the factor models
    without the block cache and padded with zeros into the full rank."""
    out, offset, total = [], 0, sum(f.rank() for f in spec.factors)
    for f in spec.factors:
        for v in rootdata._factor_block.__wrapped__(f).coroots:
            out.append((0,) * offset + v + (0,) * (total - offset - f.rank()))
        offset += f.rank()
    return out


def test_pi1_of_products_is_direct_sum():
    # referee: the cokernel of the dense block-diagonal coroot matrix of
    # the whole lattice, one Smith normal form for the product, assembled
    # here without the cached blocks
    cases = [
        ((("SL", 2),), (("PGL", 2),)),
        ((("GL", 2),), (("PGL", 3),)),
        ((("SO", 3),), (("SO", 4),)),
        ((("T", 1),), (("PGL", 2),)),
        ((("PGL", 4),), (("PGL", 6), ("SO", 5))),
        ((("PGL", 9),), (("PGL", 9),)),
        ((("GL", 3), ("T", 2)), (("SO", 8), "G2")),
    ]
    for left, right in cases:
        a = pi1_G(build_root_datum(reductive(*left)))
        b = pi1_G(build_root_datum(reductive(*right)))
        spec = reductive(*(left + right))
        rd = build_root_datum(spec)
        coroots = uncached_dense_coroots(spec)
        dense = [[v[i] for v in coroots] for i in range(rd.rank)]
        assert pi1_G(rd) == AbelianInvariants(*cokernel_invariants(dense))
        assert pi1_G(rd) == a.direct_sum(b)
        assert pi1_G_ab(rd) == rd.rank - integer_rank(dense)


def test_pi1_G_ab_coranks():
    assert pi1_G_ab(build_root_datum(reductive(("SL", 2)))) == 0
    assert pi1_G_ab(build_root_datum(reductive(("GL", 3)))) == 1
    assert pi1_G_ab(build_root_datum(reductive(("T", 2)))) == 2
    assert pi1_G_ab(build_root_datum(reductive(("GL", 2), ("T", 1)))) == 2


def test_coroot_counts():
    expected = {
        ("SL", 4): 12,    # A3 has 12 roots
        ("Sp", 6): 18,    # C3 has 18
        ("SO", 7): 18,    # B3 has 18
        ("SO", 6): 12,    # D3 = A3
        ("G2", 0): 12,
        ("F4", 0): 48,
    }
    for (fam, param), count in expected.items():
        spec = reductive(fam if param == 0 else (fam, param))
        rd = build_root_datum(spec)
        assert len(rd.blocks[0].coroots) == count
        assert rd.positive_coroot_count() * 2 == count
    # the number of roots is 2 * sum(d - 1) over the degrees of the
    # semisimple part; a central degree 1 adds none
    for f in CATALOG:
        rd = build_root_datum(ReductiveSpec((f,)))
        count = 2 * sum(d - 1 for d in f.degrees())
        assert len(rd.blocks[0].coroots) == count, str(f)
        assert rd.positive_coroot_count() * 2 == count, str(f)


def dual_coxeter(kind, l):
    """h^vee, a literal table (Kac, Infinite dimensional Lie algebras,
    ch. 6); B_1 = A_1 has 2, and so has each component of
    D_2 = A_1 x A_1."""
    return {"A": l + 1, "B": 2 * l - 1 if l > 1 else 2, "C": l + 1,
            "D": 2 * l - 2, "G2": 4, "F4": 9}[kind]


def dual_kac_labels(kind, l):
    """Per simple component of _cartan(kind, l): the coroot of its highest
    root in simple coroot coordinates.  The pairs (root, coroot) are the
    orbit of the simple pairs, since alpha -> alpha^vee commutes with W."""
    a = rootdata._cartan(kind, l)
    components, left = [], set(range(l))
    while left:
        comp, frontier = set(), [min(left)]
        while frontier:
            i = frontier.pop()
            comp.add(i)
            frontier += [j for j in range(l) if a[i][j] and j not in comp]
        components.append(sorted(comp))
        left -= comp
    out = []
    for comp in components:
        k = len(comp)

        def reflect(j, pair):
            # s_j(b) = b - <b, alpha_j^vee> alpha_j on roots, and
            # s_j(c) = c - <alpha_j, c> alpha_j^vee on coroots
            root, co = map(list, pair)
            root[j] -= sum(root[m] * a[comp[m]][comp[j]] for m in range(k))
            co[j] -= sum(a[comp[j]][comp[m]] * co[m] for m in range(k))
            return tuple(root), tuple(co)
        units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        pairs = rootdata._orbit([(u, u) for u in units], range(k), reflect)
        out.append(max(pairs, key=lambda p: sum(p[0]))[1])
    return out


def test_dual_kac_labels_match_the_dual_coxeter_numbers():
    # h^vee = 1 + the sum of the dual Kac labels, per simple component
    assert dual_kac_labels("D", 2) == [(1,), (1,)]
    for f in CATALOG:
        kind, l, _ = f.cartan_type()
        if kind is None:
            continue
        labels = dual_kac_labels(kind, l)
        assert all(1 + sum(comp) == dual_coxeter(kind, l)
                   for comp in labels), str(f)
        # the verdict's one-line type test is "every label is 1"
        assert _dual_labels_one(f) == all(
            c == 1 for comp in labels for c in comp), str(f)


def test_contains_sl2_reads_the_coroot_parities():
    for f in CATALOG:
        b = rootdata._factor_block(f)
        assert b.contains_sl2 == any(c % 2 for v in b.coroots for c in v), \
            str(f)
        # only PGL2 = SO3, GL1 and the tori contain no root SL2
        assert b.contains_sl2 == (str(f) not in ("PGL2", "SO3", "GL1")
                                  and f.family != "T"), str(f)
