"""Group specs, words, abelianization, Witt ranks, lower-central data."""

import random

import pytest

from nilrep import snf
from nilrep.errors import TooLarge, UnsupportedQuotient
from nilrep.groups import (POWER_LETTER_CAP, AbelianInvariants, DirectProduct,
                           FiniteAbelian, FreeAbelian, FreeNilpotent,
                           Heisenberg, Presentation, Presented, Word,
                           abelianize, commutator, concat,
                           free_nilpotent_class2_presentation,
                           free_nilpotent_lcs_ranks, free_reduce, gen,
                           heisenberg_presentation, inverse, is_abelian,
                           lower_central_data, power, quotient_by_lcs)


# ---------------------------------------------------------------------------
# words


def test_words_reduce_freely():
    w = concat(gen(0), gen(0, -1), gen(1))
    assert w.letters == ((1, 1),)
    assert concat(gen(0, 2), gen(0, -2)).letters == ()


def test_zero_exponent_exposes_a_cancellation():
    assert free_reduce([(0, 1), (1, 0), (0, -1)]) == Word()
    assert free_reduce([(0, 2), (1, 0), (0, 3), (2, 0)]).letters == ((0, 5),)


def _stack_reduce(letters):
    """Free reduction one unit letter at a time, runs regrouped after."""
    stack = []
    for g, e in letters:
        for _ in range(abs(e)):
            unit = (g, 1 if e > 0 else -1)
            if stack and stack[-1] == (g, -unit[1]):
                stack.pop()
            else:
                stack.append(unit)
    runs = []
    for g, e in stack:
        if runs and runs[-1][0] == g:
            runs[-1][1] += e
        else:
            runs.append([g, e])
    return tuple((g, e) for g, e in runs)


def test_free_reduce_matches_a_unit_letter_stack():
    rng = random.Random(19)
    for _ in range(2000):
        letters = [(rng.randrange(3), rng.randint(-3, 3))
                   for _ in range(rng.randrange(12))]
        assert free_reduce(letters).letters == _stack_reduce(letters), letters


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
    # the written-out commutator has 2(|a| + |b|) letters, capped like powers
    half = power(concat(gen(0), gen(1)), POWER_LETTER_CAP // 4)
    assert len(commutator(half, Word()).letters) == 0
    with pytest.raises(TooLarge):
        commutator(half, gen(2))


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
    assert (abelianize(Presented(heisenberg_presentation()))
            == AbelianInvariants(2))
    assert abelianize(Heisenberg()) == AbelianInvariants(2)


def test_free_nilpotent_abelianization():
    for n, c in ((1, 1), (2, 3), (4, 2)):
        assert abelianize(FreeNilpotent(n, c)) == AbelianInvariants(n)


def test_cyclic_presentation():
    p = Presentation(1, (power(gen(0), 3),))
    assert abelianize(Presented(p)) == AbelianInvariants(0, (3,))


def _written_class2(n):
    """F(n, 2) written out: x_1..x_n, one central z per pair i < j with the
    relator [x_i, x_j] z^-1, and [x_k, z] for every k and z."""
    zs = list(range(n, n + n * (n - 1) // 2))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    relators = [concat(commutator(gen(i), gen(j)), inverse(gen(z)))
                for (i, j), z in zip(pairs, zs)]
    relators += [commutator(gen(k), gen(z)) for z in zs for k in range(n)]
    return Presentation(n + len(zs), tuple(relators))


def _recording_smith_form(monkeypatch):
    shapes = []
    real = snf.smith_normal_form

    def recording(m):
        shapes.append((len(m), len(m[0]) if m else 0))
        return real(m)

    monkeypatch.setattr(snf, "smith_normal_form", recording)
    return shapes


def test_written_class2_reduces_only_its_live_block(monkeypatch):
    shapes = _recording_smith_form(monkeypatch)
    for n in (5, 6, 7, 8):
        p = _written_class2(n)
        assert len(p.exponent_matrix()[0]) == n * (n - 1) // 2 * (n + 1)
        shapes.clear()
        assert abelianize(Presented(p)) == AbelianInvariants(n)
        # the commutator columns and the x_i rows are zero: one
        # n(n-1)/2-square block, 28 x 28 for the 36 x 252 matrix at n = 8
        assert shapes == [(n * (n - 1) // 2,) * 2]
    assert shapes == [(28, 28)]


def test_central_torsion_survives_pruning(monkeypatch):
    # <a, b, c, z | [a, b] z^-1, c^4, [a, z], [b, z], [c, z], [a, c], [b, c]>:
    # a and b are zero rows, the five commutators zero columns
    a, b, c, z = (gen(i) for i in range(4))
    p = Presentation(4, (concat(commutator(a, b), inverse(z)), power(c, 4),
                         commutator(a, z), commutator(b, z), commutator(c, z),
                         commutator(a, c), commutator(b, c)))
    shapes = _recording_smith_form(monkeypatch)
    assert abelianize(Presented(p)) == AbelianInvariants(2, (4,))
    assert shapes == [(2, 2)]


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
        lower_central_data(Presented(heisenberg_presentation()))


def test_quotient_by_lcs():
    assert quotient_by_lcs(FreeNilpotent(2, 4), 3) == FreeNilpotent(2, 2)
    assert quotient_by_lcs(Heisenberg(), 2) == FreeAbelian(2)
    assert quotient_by_lcs(Heisenberg(), 5) == Heisenberg()
    assert quotient_by_lcs(FreeAbelian(5), 7) == FreeAbelian(5)
    g = DirectProduct((FreeNilpotent(3, 3), FiniteAbelian((2,))))
    assert quotient_by_lcs(g, 2) == DirectProduct(
        (FreeAbelian(3), FiniteAbelian((2,))))
    with pytest.raises(UnsupportedQuotient):
        quotient_by_lcs(Presented(heisenberg_presentation()), 2)


def test_abelianization_factors_through_quotients():
    specs = [Heisenberg(), FreeNilpotent(3, 4), FreeAbelian(2),
             DirectProduct((Heisenberg(), FiniteAbelian((2, 6))))]
    for g in specs:
        for i in range(2, 6):
            assert abelianize(quotient_by_lcs(g, i)) == abelianize(g)


def test_heisenberg_and_free_abelian_are_named_free_nilpotent_groups():
    assert isinstance(Heisenberg(), FreeNilpotent)
    assert (Heisenberg().n, Heisenberg().c) == (2, 2)
    assert (FreeAbelian(5).n, FreeAbelian(5).c) == (5, 1)
    # each keeps its spelling, and equality stays class-sensitive
    assert (str(Heisenberg()), repr(Heisenberg())) == ("H3", "Heisenberg()")
    assert (str(FreeAbelian(5)), repr(FreeAbelian(5))) == ("Z^5",
                                                           "FreeAbelian(n=5)")
    assert Heisenberg() != FreeNilpotent(2, 2)
    assert FreeAbelian(2) != FreeNilpotent(2, 1)
    # H3's presentation is F(2, 2)'s under the names x, y, z
    h, f = heisenberg_presentation(), free_nilpotent_class2_presentation(2)
    assert h.relators == f.relators and h.names == ("x", "y", "z")


def test_family_predicates():
    assert is_abelian(FreeAbelian(3))
    assert is_abelian(FreeNilpotent(1, 5))
    assert not is_abelian(Heisenberg())
    assert not is_abelian(Presented(heisenberg_presentation()))
