"""Root datum catalog: Weyl enumeration, coroot systems, pi_1 cokernels."""

import pytest

from nilrep.errors import NilrepError, TooLarge, UnsupportedType
from nilrep.groups import AbelianInvariants
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
    # the bound applies to each factor: one refused factor refuses the
    # product, and a product of admitted factors is admitted whatever its
    # total Weyl order
    with pytest.raises(TooLarge):
        ReductiveSpec((Factor("SL", 12),))
    with pytest.raises(TooLarge, match="479001600"):
        reductive(("SL", 2), ("SL", 12), ("T", 1))
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
    # a valid SL2 block under a rank-1 torus factor, which claims |W| = 1
    sl2 = Block(((-1,), (1,)), (((-1,),),))
    rd = RootDatum((Factor("SL", 2), Factor("T", 1)), (sl2, sl2))
    with pytest.raises(NilrepError, match="4 elements, expected 2"):
        enumerate_weyl(rd)


def test_blocks_are_checked_one_by_one():
    sl2 = Block(((-1,), (1,)), (((-1,),),))
    with pytest.raises(ValueError, match="involutions"):
        RootDatum((Factor("SL", 2),), (Block(((-1,), (1,)), (((2,),),)),))
    with pytest.raises(ValueError, match="permute"):
        RootDatum((Factor("SL", 2),), (Block(((1,),), (((-1,),),)),))
    # a reflection of another factor's rank is no involution of this one
    with pytest.raises(ValueError, match="involutions"):
        RootDatum((Factor("SL", 3),), (sl2,))
    with pytest.raises(ValueError):
        RootDatum((Factor("SL", 2), Factor("SL", 2)), (sl2,))


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


def test_pi1_classical_values():
    for n in (2, 3, 4):
        assert pi1_G(build_root_datum(reductive(("SL", n)))).is_trivial()
        pgl = pi1_G(build_root_datum(reductive(("PGL", n))))
        assert pgl == AbelianInvariants(0, (n,))
    for n in (1, 2, 3):
        gl = pi1_G(build_root_datum(reductive(("GL", n))))
        assert gl == AbelianInvariants(1)
    for n in (3, 4, 5, 6, 7):
        assert pi1_G(build_root_datum(reductive(("SO", n)))) \
            == AbelianInvariants(0, (2,))
        assert pi1_G(build_root_datum(reductive(("Spin", n)))).is_trivial()
    for spec in (reductive(("Sp", 4)), reductive(("Sp", 6)),
                 reductive("G2"), reductive("F4")):
        assert pi1_G(build_root_datum(spec)).is_trivial()
    assert pi1_G(build_root_datum(reductive(("T", 2)))) == AbelianInvariants(2)


def test_pi1_of_products_is_direct_sum():
    # referee: the cokernel of the dense block-diagonal coroot matrix of
    # the whole lattice, one Smith normal form for the product
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
        rd = build_root_datum(reductive(*(left + right)))
        coroots = dense_coroots(rd)
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
