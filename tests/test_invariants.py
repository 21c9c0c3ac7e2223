"""Graded characters, Molien averages, and the brute-force projector oracle."""

import random
from collections import Counter
from itertools import combinations

import pytest

from nilrep import invariants, rootdata
from nilrep.cli import main
from nilrep.errors import InexactDivision, NilrepError, TooLarge
from nilrep.groups import FreeAbelian
from nilrep.invariants import (GradedPoly, _factor_classes, _finalize,
                               char_coefficients, coinvariant_char,
                               exterior_char, exterior_invariant_dims_oracle,
                               poincare_char_variety, poincare_hom_component,
                               poly)
from nilrep.report import analyze
from nilrep.rootdata import (Factor, build_root_datum, enumerate_weyl,
                             reductive)
from nilrep.selftest import hopf_product
from nilrep.snf import int_det


def rd_of(*factors):
    return build_root_datum(reductive(*factors))


IDENT_1 = ((1,),)
NEG_1 = ((-1,),)
SWAP_2 = ((0, 1), (1, 0))


# ---------------------------------------------------------------------------
# polynomial type


def test_poly_arithmetic():
    p = poly([1, 1])
    assert (p * p).coefficients == (1, 2, 1)
    assert (p ** 3).coefficients == (1, 3, 3, 1)
    assert (p - p) == poly([])
    assert p(3) == 4
    assert str(poly([1, 0, -1])) == "1 - t^2"


def test_poly_trims_and_rejects_trailing_zero():
    assert poly([1, 2, 0]).coefficients == (1, 2)
    with pytest.raises(ValueError):
        GradedPoly((1, 0))


def test_exact_division():
    num = poly([1, 0, 0, 0, -1])           # 1 - t^4
    den = poly([1, 0, -1])                 # 1 - t^2
    assert num.exact_div(den) == poly([1, 0, 1])
    with pytest.raises(InexactDivision):
        poly([1, 1]).exact_div(poly([1, 0, -1]))
    with pytest.raises(InexactDivision):
        poly([1, 0, 0, 1]).exact_div(poly([1, 0, -1]))


# ---------------------------------------------------------------------------
# per-element characters


def brute_exterior_power_trace(w, d):
    """Trace of w on the d-th exterior power, via explicit minors."""
    n = len(w)
    return sum(int_det([[w[i][j] for j in rows] for i in rows])
               for rows in combinations(range(n), d))


def test_char_coefficients_match_exterior_traces():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        w = tuple(tuple(rng.randint(-2, 2) for _ in range(n))
                  for _ in range(n))
        cs = char_coefficients(w)
        for d in range(n + 1):
            assert cs[d] == brute_exterior_power_trace(w, d)


def test_exterior_char_examples():
    assert exterior_char(IDENT_1, 2) == poly([1, 2, 1])    # (1+t)^2
    assert exterior_char(NEG_1, 2) == poly([1, -2, 1])     # (1-t)^2
    # 1 + t*tr(w) + t^2*det(w) for the coordinate swap
    assert exterior_char(SWAP_2, 1) == poly([1, 0, -1])


def test_coinvariant_char_examples():
    sl2 = rd_of(("SL", 2))
    assert coinvariant_char(IDENT_1, sl2.degrees) == poly([1, 0, 1])
    assert coinvariant_char(NEG_1, sl2.degrees) == poly([1, 0, -1])
    torus = rd_of(("T", 4))
    ident4 = tuple(tuple(1 if i == j else 0 for j in range(4))
                   for i in range(4))
    assert coinvariant_char(ident4, torus.degrees) == poly([1])


def test_coinvariant_char_rejects_mismatched_pair():
    # -1 is a Weyl element of SL2 but degree 3 belongs to no rank-1
    # datum: the division leaves a remainder and must say so
    with pytest.raises(InexactDivision):
        coinvariant_char(NEG_1, (3,))


def test_coinvariant_dimension_is_weyl_order():
    for factors in [(("SL", 2),), (("SL", 3),), (("GL", 3),), (("Sp", 4),),
                    (("SO", 5),), ("G2",)]:
        rd = rd_of(*factors)
        ident = tuple(tuple(1 if i == j else 0 for j in range(rd.rank))
                      for i in range(rd.rank))
        total = coinvariant_char(ident, rd.degrees)(1)
        assert total == rd.weyl_order()


# ---------------------------------------------------------------------------
# Molien averages


def test_char_variety_poincare_examples():
    assert poincare_char_variety(rd_of(("SL", 2)), 2) == poly([1, 0, 1])
    assert poincare_char_variety(rd_of(("SL", 2)), 1) == poly([1])
    assert poincare_char_variety(rd_of(("T", 1)), 3) == poly([1, 3, 3, 1])


def test_hom_component_poincare_examples():
    assert poincare_hom_component(rd_of(("SL", 2)), 1) == poly([1, 0, 0, 1])
    assert poincare_hom_component(rd_of(("SL", 2)), 2) == poly([1, 0, 1, 2])
    # Hom(Z, GL2)_1 = GL2(C), homotopy equivalent to U(2)
    assert poincare_hom_component(rd_of(("GL", 2)), 1) == poly([1, 1, 0, 1, 1])


def test_molien_identity_at_r_zero():
    for factors in [(("SL", 2),), (("SL", 3),), (("GL", 2),), (("GL", 3),),
                    (("Sp", 4),), (("SO", 6),), ("G2",),
                    (("SL", 2), ("T", 2))]:
        assert poincare_hom_component(rd_of(*factors), 0) == poly([1])


def test_outputs_have_unit_constant_and_no_negatives():
    for factors, r in [((("Sp", 4),), 2), ((("SO", 5),), 3),
                       ((("PGL", 2),), 2), ((("SL", 2), ("GL", 2)), 1)]:
        for p in (poincare_hom_component(rd_of(*factors), r),
                  poincare_char_variety(rd_of(*factors), r)):
            assert p.coefficient(0) == 1
            assert all(c >= 0 for c in p.coefficients)


def test_finalize_rejects_impossible_series():
    with pytest.raises(NilrepError):
        _finalize(poly([2]))
    with pytest.raises(NilrepError):
        _finalize(poly([1, -1]))


# every catalog factor with |W| <= 1152, and products with and without a torus
REFEREE_FACTORS = (
    [(("SL", n),) for n in range(2, 6)] + [(("GL", n),) for n in range(1, 6)]
    + [(("PGL", n),) for n in range(2, 6)] + [(("Sp", n),) for n in (4, 6, 8)]
    + [(("SO", n),) for n in range(3, 10)]
    + [(("Spin", n),) for n in range(3, 10)]
    + [("G2",), ("F4",), (("T", 1),), (("SL", 2), ("T", 1)),
       (("SL", 2), "G2"), (("SL", 3), ("SL", 4)),
       (("GL", 2), ("SO", 5), ("T", 2))])


def test_molien_sum_is_order_independent():
    # exact arithmetic: summing the per-element characters over all of W,
    # in any order, reproduces the class-wise Molien averages; a single
    # factor's closed-form classes are the buckets of det(I + t*w) over W,
    # and on a product the sum over the whole W referees the product of
    # the per-factor averages
    rng = random.Random(11)
    assert len(REFEREE_FACTORS) == 37
    for factors in REFEREE_FACTORS:
        rd = rd_of(*factors)
        elements = list(enumerate_weyl(rd))
        if len(rd.factors) == 1:
            buckets = Counter(tuple(char_coefficients(w)) for w in elements)
            assert (sorted(_factor_classes(rd.factors[0]))
                    == sorted(buckets.items())), factors
        rng.shuffle(elements)
        for r in range(4):
            hom = char = poly([])
            for w in elements:
                ext = exterior_char(w, r)
                char = char + ext
                hom = hom + coinvariant_char(w, rd.degrees) * ext
            assert (hom.divide_int(len(elements))
                    == poincare_hom_component(rd, r)), (factors, r)
            assert (char.divide_int(len(elements))
                    == poincare_char_variety(rd, r)), (factors, r)
    # type A: det(I + t*w) determines the cycle type, so p(n) classes
    for n, partitions in zip(range(2, 7), (2, 3, 5, 7, 11)):
        assert len(_factor_classes(Factor("SL", n))) == partitions


def test_class_sums_beyond_enumeration_range():
    # Hom(Z, G)_1 = G: its Poincare polynomial is prod (1 + t^(2d - 1)),
    # and the character variety G/G ~ T/W contributes only the central
    # torus, one (1 + t) per degree-1 invariant
    for factors in [(("SL", 9),), (("GL", 9),), (("PGL", 9),), (("Sp", 14),),
                    (("SO", 14),), (("SO", 15),), (("Spin", 14),),
                    (("Spin", 15),), ("F4", ("SL", 6)),
                    (("GL", 2), ("SO", 5), ("T", 2))]:
        rd = rd_of(*factors)
        for f in rd.factors:
            assert sum(k for _, k in _factor_classes(f)) == f.weyl_order()
        assert poincare_hom_component(rd, 1) == hopf_product(rd.degrees), \
            factors
        assert (poincare_char_variety(rd, 1)
                == poly([1, 1]) ** rd.degrees.count(1)), factors


def test_exceptional_tables_without_enumeration():
    # facts that need no enumeration: the rows count every element of W,
    # the reflections (1 + t)^(l-1) (1 - t) are one per positive coroot,
    # and -1 in W makes each table closed under t -> -t
    for name in ("G2", "F4"):
        f = Factor(name)
        table = dict(_factor_classes(f))
        assert sum(table.values()) == f.weyl_order()
        l = f.rank()
        reflection = poly([1, 1]) ** (l - 1) * poly([1, -1])
        assert (table[reflection.coefficients]
                == rd_of(name).positive_coroot_count()
                == {"G2": 6, "F4": 24}[name])
        for cs, k in table.items():
            flipped = tuple(c * (-1) ** d for d, c in enumerate(cs))
            assert table[flipped] == k, (name, cs)


def test_molien_path_enumerates_no_weyl_group(monkeypatch, capsys):
    def refuse(rd):
        raise AssertionError("Weyl group enumerated")
    monkeypatch.setattr(invariants, "enumerate_weyl", refuse)
    monkeypatch.setattr(rootdata, "enumerate_weyl", refuse)
    _factor_classes.cache_clear()
    for r in (1, 2, 3):
        report = analyze(FreeAbelian(r), reductive("G2", "F4"))
        assert report.poincare_hom is not None, r
    assert main(["poincare", "--group", "Z^2", "--target", "G2 x F4"]) == 0
    assert "poincare_hom" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the projector oracle


def test_oracle_examples():
    sl2 = enumerate_weyl(rd_of(("SL", 2)))
    assert exterior_invariant_dims_oracle(sl2, 2) == [1, 0, 1]
    trivial = enumerate_weyl(rd_of(("T", 1)))
    assert exterior_invariant_dims_oracle(trivial, 3) == [1, 3, 3, 1]
    sl3 = enumerate_weyl(rd_of(("SL", 3)))
    assert exterior_invariant_dims_oracle(sl3, 1) == [1, 0, 0]


def test_oracle_size_bound():
    with pytest.raises(TooLarge):
        exterior_invariant_dims_oracle(enumerate_weyl(rd_of(("SL", 4))), 5)


def test_oracle_agrees_with_molien_averages():
    cases = [((("SL", 2),), (1, 2, 3, 4)),
             ((("SL", 3),), (1, 2, 3)),
             ((("GL", 2),), (1, 2, 3)),
             ((("Sp", 4),), (1, 2, 3)),
             ((("SO", 4),), (1, 2)),
             ((("PGL", 2),), (1, 2, 4)),
             ((("SL", 2), ("T", 1)), (1, 2))]
    for factors, ranks in cases:
        rd = rd_of(*factors)
        weyl = enumerate_weyl(rd)
        for r in ranks:
            dims = exterior_invariant_dims_oracle(weyl, r)
            molien = poincare_char_variety(rd, r)
            assert len(dims) == rd.rank * r + 1
            for d, value in enumerate(dims):
                assert value == molien.coefficient(d), (factors, r, d)
