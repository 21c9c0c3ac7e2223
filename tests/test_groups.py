"""Group specs, words, abelianization, Witt ranks, lower-central data."""

import pytest

from nilrep.errors import TooLarge, UnsupportedQuotient
from nilrep.groups import (POWER_LETTER_CAP, AbelianInvariants, DirectProduct,
                           FiniteAbelian, FreeAbelian, FreeNilpotent,
                           Heisenberg, Presentation, Presented, Word,
                           abelianize, commutator, concat,
                           free_nilpotent_lcs_ranks, gen,
                           heisenberg_presentation, heisenberg_presented,
                           inverse, is_abelian, is_nonabelian_free_family,
                           lower_central_data, power, quotient_by_lcs)


# ---------------------------------------------------------------------------
# words


def test_words_reduce_freely():
    w = concat(gen(0), gen(0, -1), gen(1))
    assert w.letters == ((1, 1),)
    assert concat(gen(0, 2), gen(0, -2)).letters == ()


def test_word_invariants_enforced():
    with pytest.raises(ValueError):
        Word(((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Word(((0, 0),))


def test_commutator_expansion():
    w = commutator(gen(0), gen(1))
    assert w.letters == ((0, -1), (1, -1), (0, 1), (1, 1))
    assert w.exponent_sums(2) == [0, 0]
    assert inverse(w) == commutator(gen(1), gen(0))


def test_power_of_a_letter_is_one_letter():
    assert power(gen(0), 10**12).letters == ((0, 10**12),)
    assert power(gen(1, -2), -3).letters == ((1, 6),)
    assert power(Word(), 10**12) == Word()
    w = concat(gen(0), gen(1))
    assert power(w, 3) == concat(w, w, w)
    assert len(power(w, -POWER_LETTER_CAP // 2).letters) == POWER_LETTER_CAP
    with pytest.raises(TooLarge):
        power(w, POWER_LETTER_CAP // 2 + 1)


def test_nested_commutator_has_zero_exponents():
    w = commutator(gen(0), commutator(gen(1), gen(2)))
    assert w.exponent_sums(3) == [0, 0, 0]


# ---------------------------------------------------------------------------
# abelianization


def test_heisenberg_abelianization_via_snf():
    assert abelianize(heisenberg_presented()) == AbelianInvariants(2)
    assert abelianize(Heisenberg()) == AbelianInvariants(2)


def test_free_nilpotent_abelianization():
    for n, c in ((1, 1), (2, 3), (4, 2)):
        assert abelianize(FreeNilpotent(n, c)) == AbelianInvariants(n)


def test_cyclic_presentation():
    p = Presentation(1, (power(gen(0), 3),))
    assert abelianize(Presented(p)) == AbelianInvariants(0, (3,))


def test_product_rank_additivity():
    pairs = [(Heisenberg(), FreeAbelian(3)),
             (FreeNilpotent(2, 2), FiniteAbelian((2, 4))),
             (FreeAbelian(1), Heisenberg())]
    for a, b in pairs:
        combined = abelianize(DirectProduct((a, b)))
        assert combined.rank == abelianize(a).rank + abelianize(b).rank


def test_torsion_merge_renormalizes():
    g = DirectProduct((FiniteAbelian((2,)), FiniteAbelian((3,))))
    assert abelianize(g) == AbelianInvariants(0, (6,))
    g = DirectProduct((FiniteAbelian((2, 4)), FiniteAbelian((6,))))
    assert abelianize(g) == AbelianInvariants(0, (2, 2, 12))


def test_invariants_self_power():
    a = AbelianInvariants(1, (2, 4))
    assert a.self_power(2) == AbelianInvariants(2, (2, 2, 4, 4))
    assert a.self_power(0).is_trivial()


def test_divisor_chain_validated():
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 2))
    with pytest.raises(ValueError):
        FiniteAbelian((1,))


# ---------------------------------------------------------------------------
# Witt ranks


def lyndon_count(n, length):
    """Brute-force count of Lyndon words: strings strictly smaller than
    every proper rotation of themselves."""
    from itertools import product
    count = 0
    for word in product(range(n), repeat=length):
        rotations = [word[k:] + word[:k] for k in range(1, length)]
        if all(word < rot for rot in rotations):
            count += 1
    return count


def test_witt_ranks_match_lyndon_brute_force():
    for n in (1, 2, 3):
        ranks = free_nilpotent_lcs_ranks(n, 5)
        for i in range(1, 6):
            assert ranks[i - 1] == lyndon_count(n, i), (n, i)
    assert free_nilpotent_lcs_ranks(2, 5) == [2, 1, 2, 3, 6]
    assert free_nilpotent_lcs_ranks(2, 1) == [2]
    assert free_nilpotent_lcs_ranks(3, 2) == [3, 3]


def test_necklace_identity():
    for n in range(1, 5):
        for i in range(1, 7):
            ranks = free_nilpotent_lcs_ranks(n, i)
            total = sum(d * ranks[d - 1]
                        for d in range(1, i + 1) if i % d == 0)
            assert total == n ** i


# ---------------------------------------------------------------------------
# lower-central structure


def test_lower_central_data():
    h = lower_central_data(Heisenberg())
    assert h.nilpotency_class == 2
    assert [a.rank for a in h.per_layer] == [2, 1]
    f = lower_central_data(FreeNilpotent(2, 4))
    assert [a.rank for a in f.per_layer] == [2, 1, 2, 3]
    prod = lower_central_data(DirectProduct((Heisenberg(), FreeAbelian(2))))
    assert [a.rank for a in prod.per_layer] == [4, 1]
    with pytest.raises(UnsupportedQuotient):
        lower_central_data(heisenberg_presented())


def test_quotient_by_lcs():
    assert quotient_by_lcs(FreeNilpotent(2, 4), 3) == FreeNilpotent(2, 2)
    assert quotient_by_lcs(Heisenberg(), 2) == FreeAbelian(2)
    assert quotient_by_lcs(Heisenberg(), 5) == Heisenberg()
    assert quotient_by_lcs(FreeAbelian(5), 7) == FreeAbelian(5)
    g = DirectProduct((FreeNilpotent(3, 3), FiniteAbelian((2,))))
    assert quotient_by_lcs(g, 2) == DirectProduct(
        (FreeNilpotent(3, 1), FiniteAbelian((2,))))
    with pytest.raises(UnsupportedQuotient):
        quotient_by_lcs(heisenberg_presented(), 2)


def test_abelianization_factors_through_quotients():
    specs = [Heisenberg(), FreeNilpotent(3, 4), FreeAbelian(2),
             DirectProduct((Heisenberg(), FiniteAbelian((2, 6))))]
    for g in specs:
        for i in range(2, 6):
            assert abelianize(quotient_by_lcs(g, i)) == abelianize(g)


def test_family_predicates():
    assert is_abelian(FreeAbelian(3))
    assert is_abelian(FreeNilpotent(1, 5))
    assert not is_abelian(Heisenberg())
    assert not is_abelian(heisenberg_presented())
    assert is_abelian(Presented(heisenberg_presentation(), declared_class=1))
    assert is_nonabelian_free_family(Heisenberg())
    assert is_nonabelian_free_family(FreeNilpotent(2, 2))
    assert not is_nonabelian_free_family(FreeNilpotent(2, 1))
    assert not is_nonabelian_free_family(FreeAbelian(4))
