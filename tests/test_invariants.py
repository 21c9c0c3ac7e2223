"""Graded characters, Molien averages, and the brute-force projector oracle."""

import random
from collections import Counter
from functools import cache
from itertools import combinations
from math import factorial, prod

import pytest

from nilrep import invariants, rootdata
from nilrep.cli import main
from nilrep.errors import InexactDivision, NilrepError, TooLarge
from nilrep.groups import FreeAbelian
from nilrep.invariants import (_EXCEPTIONAL_CLASSES, GradedPoly, _class_sums,
                               _coinvariant_numerator, _coinvariant_series,
                               _finalize, _type_averages, _type_shift,
                               _type_sums, char_coefficients, coinvariant_char,
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


# ---------------------------------------------------------------------------
# the class-row referee: (signed) cycle types with closed-form sizes and
# characteristic polynomials (Carter, "Conjugacy classes in the Weyl
# group", 1972)


def _partitions(n, largest=None):
    """Partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _centralizer_order(parts, base=1):
    """prod_m (base*m)^(a_m) * a_m!, with a_m parts equal to m: z_lambda
    for base 1, and the signed-cycle factor of type B/C for base 2."""
    return prod((base * m) ** a * factorial(a)
                for m, a in Counter(parts).items())


def _times_cycles(cs, cycles):
    """cs times det(I + t*w) for disjoint signed cycles, given as (length
    m, sign of the cycle) pairs: prod (1 - sign * (-t)^m), one sparse
    factor at a time, in place in a list long enough for the product."""
    for m, sign in cycles:
        c = -sign * (-1) ** m
        for i in range(len(cs) - 1 - m, -1, -1):
            cs[i + m] += c * cs[i]
    return tuple(cs)


@cache
def type_classes(kind, l):
    """(coefficients of det(I + t*w), multiplicity) over the Weyl group of
    the simple type (kind, l), B for C, in no particular order.

    Type A_l: one class per partition lambda of l + 1, of size
    (l + 1)!/z_lambda; the reflection lattice drops one trivial summand
    (1 + t) from the permutation lattice of S_(l+1), which turns the first
    cycle's 1 - (-t)^m into sum_(j<m) (-t)^j.  Types B/C/D act on Z^l by
    signed permutations: one class per pair (alpha, beta) of partitions of
    the positive and negative cycle lengths, |alpha| + |beta| = l, of size
    2^l l!/(z_alpha z_beta); type D keeps the pairs with an even number of
    negative cycles.  G2 and F4 read the package's literal tables.
    """
    if kind in _EXCEPTIONAL_CLASSES:
        return _EXCEPTIONAL_CLASSES[kind]
    classes = Counter()
    if kind == "A":
        for lam in _partitions(l + 1):
            first = [(-1) ** j for j in range(lam[0])] + [0] * (l + 1 - lam[0])
            cs = _times_cycles(first, [(m, 1) for m in lam[1:]])
            classes[cs] += factorial(l + 1) // _centralizer_order(lam)
    else:
        for a in range(l + 1):
            for alpha in _partitions(a):
                for beta in _partitions(l - a):
                    if kind == "D" and len(beta) % 2:
                        continue
                    cs = _times_cycles([1] + [0] * l,
                                       [(m, 1) for m in alpha]
                                       + [(m, -1) for m in beta])
                    classes[cs] += (2 ** l * factorial(l)
                                    // (_centralizer_order(alpha, 2)
                                        * _centralizer_order(beta, 2)))
    return tuple(classes.items())


def type_rows(f):
    """The class rows of f's Cartan type (B and C share theirs); a torus
    has the trivial group's one row."""
    kind, l, _ = f.cartan_type()
    if kind is None:
        return (((1,), 1),)
    return type_classes("B" if kind == "C" else kind, l)


def factor_classes(f):
    """(coefficients of det(I + t*w), multiplicity) over the Weyl group of
    one catalog factor: W fixes the central torus, so every row of the
    Cartan type gains a factor (1 + t) per central dimension."""
    torus = poly([1, 1]) ** f.cartan_type()[2]
    return tuple(((poly(cs) * torus).coefficients, k)
                 for cs, k in type_rows(f))


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
            assert (sorted(factor_classes(rd.factors[0]))
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
        assert len(factor_classes(Factor("SL", n))) == partitions


def catalog_factors(max_rank):
    """Every catalog factor of rank at most max_rank."""
    out = [Factor(name) for name in ("G2", "F4")]
    for family, low in (("SL", 2), ("GL", 1), ("PGL", 2), ("SO", 3),
                        ("Spin", 3), ("T", 1)):
        n = low
        while Factor(family, n).rank() <= max_rank:
            out.append(Factor(family, n))
            n += 1
    out += [Factor("Sp", n) for n in range(2, 2 * max_rank + 1, 2)]
    return out


def test_class_sums_beyond_enumeration_range():
    # Hom(Z, G)_1 = G: its Poincare polynomial is prod (1 + t^(2d - 1)),
    # and the character variety G/G ~ T/W contributes only the central
    # torus, one (1 + t) per degree-1 invariant; for every catalog factor
    # up to rank 20 and some products, and the referee's class rows count
    # W where they are few
    catalog = catalog_factors(20)
    # G2, F4, 20 each of SL, GL, PGL, Sp and T, 39 each of SO and Spin
    assert len(catalog) == 2 + 5 * 20 + 2 * 39
    for factors in [(f,) for f in catalog] + [
            ("F4", ("SL", 6)), (("GL", 2), ("SO", 5), ("T", 2)),
            (("SL", 3), ("SL", 4))]:
        rd = rd_of(*factors)
        for f in rd.factors:
            if f.weyl_order() <= 10**6:
                assert sum(k for _, k in factor_classes(f)) == f.weyl_order()
        assert poincare_hom_component(rd, 1) == hopf_product(rd.degrees), \
            factors
        assert (poincare_char_variety(rd, 1)
                == poly([1, 1]) ** rd.degrees.count(1)), factors


def dense_molien_product(rd, r, hom):
    """The Molien product summed as dense polynomials, class by class: the
    referee of the packed-integer sums."""
    out = poly([1])
    for f in rd.factors:
        total = poly([])
        for cs, k in factor_classes(f):
            term = poly(cs) ** r * k
            if hom:
                term = term * t_domain_coinvariant_series(cs, f.degrees())
            total = total + term
        out = out * total.divide_int(f.weyl_order())
    return out


# every catalog factor of rank <= 8 with |W| <= 10^6, where the class
# rows are few
PACKED_REFEREE_FACTORS = (
    [Factor("SL", n) for n in range(2, 10)]
    + [Factor("GL", n) for n in range(1, 9)]
    + [Factor("PGL", n) for n in range(2, 10)]
    + [Factor("Sp", n) for n in range(4, 16, 2)]
    + [Factor(fam, n) for fam in ("SO", "Spin") for n in range(3, 16)]
    + [Factor("G2"), Factor("F4")] + [Factor("T", n) for n in range(1, 9)])


def test_packed_molien_sums_match_dense_sums():
    assert len(PACKED_REFEREE_FACTORS) == 66
    for f in PACKED_REFEREE_FACTORS:
        rd = rd_of(f)
        for r in range(5):
            assert (poincare_hom_component(rd, r)
                    == dense_molien_product(rd, r, True)), (f, r)
            assert (poincare_char_variety(rd, r)
                    == dense_molien_product(rd, r, False)), (f, r)
    # r = 60: coefficients of up to 143 digits, packed 500 bits apart
    rd = rd_of(("SL", 9))
    hom = poincare_hom_component(rd, 60)
    assert hom == dense_molien_product(rd, 60, True)
    assert poincare_char_variety(rd, 60) == dense_molien_product(rd, 60, False)
    assert max(hom.coefficients).bit_length() > 300


def t_domain_coinvariant_series(cs, degrees):
    """prod (1 - t^(2d)) / det(I - t^2*w) divided as series in t, from the
    coefficients cs of det(I + t*w): the referee of the division in
    u = t^2."""
    num = poly([1])
    for d in degrees:
        num = num * poly([1] + [0] * (2 * d - 1) + [-1])
    den = [0] * (2 * len(cs) - 1)
    for k, c in enumerate(cs):
        den[2 * k] = c if k % 2 == 0 else -c
    return num.exact_div(poly(den))


def test_quotients_in_u_match_t_domain_division():
    # the division in u = t^2 behind coinvariant_char
    for f in PACKED_REFEREE_FACTORS:
        num = _coinvariant_numerator(f.degrees())
        for cs, _ in factor_classes(f):
            q = _coinvariant_series(cs, num)
            assert q == t_domain_coinvariant_series(cs, f.degrees()), str(f)
            # spread onto t^2: no odd degree
            assert not any(q.coefficients[1::2]), str(f)


def test_packing_bound_holds_for_every_class_row():
    # the traces behind the packing bound: the coinvariant trace of w has
    # |q|_1 <= |W| and det(I + t*w) has |cs|_1 <= 2^rank, both with
    # equality at the identity; and the coinvariant algebra is the regular
    # representation, so H^*(Hom(Z^r, G)_1) has total dimension
    # 2^(rank*r), the character variety at most that, and no coefficient
    # of |W| times either exceeds |W| * 2^(rank*r)
    for f in PACKED_REFEREE_FACTORS:
        order, rank = f.weyl_order(), f.rank()
        identity = poly([1, 1]) ** rank
        for cs, _ in factor_classes(f):
            q = t_domain_coinvariant_series(cs, f.degrees())
            q_norm, cs_norm = (sum(map(abs, q.coefficients)),
                               sum(map(abs, cs)))
            assert q_norm <= order and cs_norm <= 2 ** rank, (str(f), cs)
            if cs == identity.coefficients:
                assert (q_norm, cs_norm) == (order, 2 ** rank), str(f)
        rd = rd_of(f)
        for r in range(5):
            total = poincare_hom_component(rd, r)(1)
            assert total == 2 ** (rank * r), (str(f), r)
            assert poincare_char_variety(rd, r)(1) <= total, (str(f), r)


def test_class_rows_with_wrong_degrees_raise_inexact_division():
    # every pair of same-rank types with different degrees: where the
    # t-domain division of some row leaves a remainder, the packed sums
    # raise InexactDivision at every shift (never ZeroDivisionError, never
    # a value); where every row divides, the packed hom sum is the value at
    # t = 2^shift of the dense one, and the character variety's sum needs
    # no degrees
    types = {}
    for f in PACKED_REFEREE_FACTORS:
        kind, l, central = f.cartan_type()
        if kind is not None:
            types.setdefault(f.degrees()[central:], (l, f))
    pairs = rejected = 0
    for degrees, (l, f) in types.items():
        rows = type_rows(f)
        for wrong, (l2, _) in types.items():
            if l2 != l or wrong == degrees:
                continue
            pairs += 1
            try:
                qs = [t_domain_coinvariant_series(cs, wrong)
                      for cs, _ in rows]
            except InexactDivision:
                qs = None
            rejected += qs is None
            for r, shift in ((0, 3), (1, 20), (2, 64)):
                if qs is None:
                    with pytest.raises(InexactDivision):
                        _class_sums(rows, wrong, r, shift)
                    continue
                char = sum((poly(cs) ** r * k for cs, k in rows), poly([]))
                hom = sum((q * poly(cs) ** r * k
                           for q, (cs, k) in zip(qs, rows)), poly([]))
                assert (_class_sums(rows, wrong, r, shift)
                        == (char(2 ** shift), hom(2 ** shift))), (str(f),
                                                                  wrong)
    assert (pairs, rejected) == (48, 33)


def test_exceptional_tables_without_enumeration():
    # facts that need no enumeration: the rows count every element of W,
    # the reflections (1 + t)^(l-1) (1 - t) are one per positive coroot,
    # and -1 in W makes each table closed under t -> -t
    for name in ("G2", "F4"):
        f = Factor(name)
        table = dict(factor_classes(f))
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
    # a cold Molien path: no average or block cached yet
    _type_averages.cache_clear()
    rootdata._factor_block.cache_clear()
    for r in (1, 2, 3):
        report = analyze(FreeAbelian(r), reductive("G2", "F4", ("SO", 10)))
        assert report.poincare_hom is not None, r
    assert main(["poincare", "--group", "Z^2", "--target", "G2 x F4"]) == 0
    assert "poincare_hom" in capsys.readouterr().out


def test_cached_molien_sums_divide_no_polynomials(monkeypatch):
    # both Molien sums are taken with integer arithmetic: no polynomial
    # division and no coinvariant series, cold or cached, whatever r or
    # product the factor is in
    def refuse(*args):
        raise AssertionError("polynomial division in a Molien sum")
    monkeypatch.setattr(GradedPoly, "exact_div", refuse)
    monkeypatch.setattr(invariants, "_coinvariant_series", refuse)
    _type_averages.cache_clear()
    targets = [rd_of(("SO", 8)), rd_of(("SO", 8), ("SO", 8)),
               rd_of(("GL", 4), "G2", ("T", 2)), rd_of("F4", ("Sp", 6))]
    for _ in range(2):
        for rd in targets:
            for r in (0, 1, 2, 3):
                poincare_hom_component(rd, r)
                poincare_char_variety(rd, r)
    # the recurrence and the class tables return the two packed integers
    for kind, l in (("A", 3), ("B", 3), ("D", 4), ("F4", 4)):
        sums = _type_sums(kind, l, 2, 40)
        assert [type(s) for s in sums] == [int, int]
    # cached averages are frozen polynomials
    with pytest.raises(AttributeError):
        _type_averages("D", 4, 1)[1].coefficients = ()


def counted_passes(monkeypatch):
    """A list that gains the (n, r) of every cycle-index recurrence pass
    and the degrees of every class-table pass."""
    passes = []
    cycle_sums, class_sums = invariants._cycle_sums, invariants._class_sums

    def counted_cycles(n, r, shift, twists):
        passes.append((n, r))
        return cycle_sums(n, r, shift, twists)

    def counted_classes(classes, degrees, r, shift):
        passes.append(degrees)
        return class_sums(classes, degrees, r, shift)
    monkeypatch.setattr(invariants, "_cycle_sums", counted_cycles)
    monkeypatch.setattr(invariants, "_class_sums", counted_classes)
    return passes


def test_recurrence_runs_once_per_cartan_type_and_r(monkeypatch):
    # SL_n, GL_n and PGL_n are A_(n-1), the recurrence over n letters;
    # SO_(2l+1) and Sp_2l share B_l's sums; SO_2l and Spin_2l are D_l,
    # whose two twists run in one pass
    passes = counted_passes(monkeypatch)
    _type_averages.cache_clear()
    for group, n in (([("SL", 6), ("GL", 6), ("PGL", 6)], 6),
                     ([("SO", 9), ("Sp", 8)], 4),
                     ([("SO", 10), ("Spin", 10)], 5)):
        passes.clear()
        for factor in group:
            for r in (1, 2):
                poincare_hom_component(rd_of(factor), r)
                poincare_char_variety(rd_of(factor), r)
        assert passes == [(n, 1), (n, 2)], group


def test_molien_averages_are_computed_once_per_type_and_r(monkeypatch):
    # both polynomials of every factor of one Cartan type come from one
    # pass per r and process, and a repeated factor costs nothing more:
    # each group below costs one miss per type and r
    _type_averages.cache_clear()
    groups = [([("SL", 6)], [("GL", 6)], [("PGL", 6)]),
              ([("SO", 9)], [("Sp", 8)]), ([("SO", 10)], [("Spin", 10)]),
              ([("SL", 3), ("SL", 3), "G2"],)]
    for specs, types in zip(groups, (1, 1, 1, 2)):
        for r in (1, 2, 3):
            before = _type_averages.cache_info().misses
            for factors in specs:
                report = analyze(FreeAbelian(r), reductive(*factors))
                assert report.poincare_hom is not None, (factors, r)
            assert (_type_averages.cache_info().misses
                    == before + types), (specs, r)
    # the first analyze of a pair at a new r makes one pass per type, the
    # recurrence for A2 and the table for G2, and a second analyze none
    passes = counted_passes(monkeypatch)
    spec = reductive(("SL", 3), ("SL", 3), "G2")
    first = analyze(FreeAbelian(4), spec)
    assert passes == [(3, 4), (2, 6)]
    assert analyze(FreeAbelian(4), spec) == first
    assert len(passes) == 2


def test_every_factor_is_checked_before_the_first_sum(monkeypatch):
    # Sp14 is admitted at r = 2 and SL58 is not: in either order no sum
    # runs, and analyze omits both polynomials, naming the refused type
    passes = counted_passes(monkeypatch)
    _type_averages.cache_clear()
    _type_shift("C", 7, 2)
    with pytest.raises(TooLarge):
        _type_shift("A", 57, 2)
    for factors in ((("Sp", 14), ("SL", 58)), (("SL", 58), ("Sp", 14))):
        report = analyze(FreeAbelian(2), reductive(*factors))
        assert report.poincare_hom is report.poincare_char is None
        assert report.caveats[-1] == (
            "Poincare polynomials omitted: Molien sums of the Weyl group of "
            "type A57 at r = 2 exceed the supported work bound.")
    assert passes == []
    assert _type_averages.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# referees of the recurrence


def test_recurrence_matches_class_rows():
    # both packed integers, for A1-A12, B1-B9 and D2-D9 at r = 0..5, at
    # the shift of _type_averages
    cases = 0
    for kind, ranks in (("A", range(1, 13)), ("B", range(1, 10)),
                        ("D", range(2, 10))):
        for l in ranks:
            degrees = rootdata._type_degrees(kind, l)
            for r in range(6):
                shift = _type_shift(kind, l, r)
                assert (_type_sums(kind, l, r, shift)
                        == _class_sums(type_classes(kind, l), degrees, r,
                                       shift)), (kind, l, r)
                cases += 1
    assert cases == 174


def _stable_block(small, large, r):
    """The length of the common leading block of the hom-component
    polynomials of two targets at r."""
    a = poincare_hom_component(rd_of(small), r).coefficients
    b = poincare_hom_component(rd_of(large), r).coefficients
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    return k


def test_hom_components_stabilize_with_the_rank():
    # homological stability (Ramras and Stafa, "Homological stability
    # for spaces of commuting elements in Lie groups"): consecutive
    # ranks share a leading block, here pinned at its observed exact
    # length, which was not checked against the paper's range
    for r in (2, 3):
        for n in range(1, 14):
            block = 2 if (n, r) == (1, 3) else 2 * n - (r == 3)
            assert _stable_block(("GL", n), ("GL", n + 1), r) == block, \
                (n, r)
        for l in range(1, 10):
            assert _stable_block(("Sp", 2 * l), ("Sp", 2 * l + 2), r) \
                == 2 * l + 2, (l, r)
            assert _stable_block(("SO", 2 * l + 1), ("SO", 2 * l + 3), r) \
                == 2 * l + 2, (l, r)
        for l in range(2, 11):
            block = 2 if (l, r) == (2, 3) else 2 * l - 2 - (r == 3)
            assert _stable_block(("SO", 2 * l), ("SO", 2 * l + 2), r) \
                == block, (l, r)


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
