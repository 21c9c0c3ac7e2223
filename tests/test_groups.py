"""Group specs, words, abelianization, Witt ranks, lower-central data."""

import random

import pytest

from nilrep import snf
from nilrep.errors import TooLarge, UnsupportedQuotient
from nilrep.groups import (ABELIAN_ON_TRUST, ABELIAN_OUTRIGHT,
                           POWER_LETTER_CAP, TORSION_BOUND, AbelianInvariants,
                           DirectProduct, FiniteAbelian, FreeAbelian,
                           FreeNilpotent, Heisenberg, Presentation, Presented,
                           Word, _merge_chain, abelianize, commutator,
                           commutator_letters, concat,
                           free_nilpotent_class2_presentation,
                           free_nilpotent_lcs_ranks, free_reduce, gen,
                           heisenberg_presentation, inverse, is_abelian,
                           letter_commutator, lower_central_data, power,
                           quotient_by_lcs)
from nilrep.parsing import parse_group_spec


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
    for letters, message in [
        (((0, 1), (-1, 2)), "generator indices must be non-negative"),
        (((0, 0),), "exponents must be non-zero"),
        (((0, 1), (0, 1)), "word is not freely reduced"),
        # one pass over the letters: the first letter that breaks a rule
        # names it, here a repeat ahead of a negative index
        (((0, 1), (0, 1), (-1, 1)), "word is not freely reduced"),
    ]:
        with pytest.raises(ValueError, match="^%s$" % message):
            Word(letters)


def test_letter_commutator_is_the_commutator_of_two_letters():
    for g, h in [(0, 1), (1, 0), (2, 2)]:
        for e in (-3, -1, 0, 1, 2):
            for f in (-2, 0, 1, 5):
                a = [(g, e)] if e else []
                b = [(h, f)] if f else []
                assert letter_commutator(g, e, h, f) == commutator_letters(a, b)


def test_max_generator():
    assert Word().max_generator() == -1
    assert Word(((2, -1), (0, 5), (3, 1), (1, 1))).max_generator() == 3


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
    blocks = []
    real = snf.smith_normal_form

    def recording(m, *args):
        blocks.append([list(row) for row in m])
        return real(m, *args)

    monkeypatch.setattr(snf, "smith_normal_form", recording)
    return blocks


def test_written_class2_reduces_only_its_live_block(monkeypatch):
    blocks = _recording_smith_form(monkeypatch)
    for n in (5, 6, 7, 8):
        p = _written_class2(n)
        assert len(p.exponent_matrix()[0]) == n * (n - 1) // 2 * (n + 1)
        assert abelianize(Presented(p)) == AbelianInvariants(n)
    # the commutator columns are empty, and each [x_i, x_j] z^-1 column
    # is a unit pivot that removes its z: no block is left for the Smith
    # form, even for the 36 x 252 matrix at n = 8
    assert blocks == []


def test_central_torsion_survives_pruning(monkeypatch):
    # <a, b, c, z | [a, b] z^-1, c^4, [a, z], [b, z], [c, z], [a, c], [b, c]>:
    # z^-1 is a unit pivot, the five commutators are empty columns, and
    # c^4 is then alone in its row and its column: a summand Z/4 read off
    # with no Smith form
    a, b, c, z = (gen(i) for i in range(4))
    p = Presentation(4, (concat(commutator(a, b), inverse(z)), power(c, 4),
                         commutator(a, z), commutator(b, z), commutator(c, z),
                         commutator(a, c), commutator(b, c)))
    blocks = _recording_smith_form(monkeypatch)
    assert abelianize(Presented(p)) == AbelianInvariants(2, (4,))
    assert blocks == []


def test_lone_torsion_entries_skip_the_smith_form(monkeypatch):
    # <a0, ..., a399 | a_i^(2 + i mod 5)>: every column is one entry alone
    # in its row, so H_1 is merged by gcd and lcm as for the catalog's
    # Z/2 x Z/3 x ... x Z/6, where a 400 x 400 Smith form took seconds;
    # a shared row sends the rest to the Smith form as before
    blocks = _recording_smith_form(monkeypatch)
    names = ["a%d" % i for i in range(400)]
    written = parse_group_spec("<%s | %s>" % (",".join(names), ", ".join(
        "%s^%d" % (x, 2 + i % 5) for i, x in enumerate(names))))
    catalog = parse_group_spec(" x ".join("Z/%d" % (2 + i % 5)
                                          for i in range(400)))
    assert abelianize(written) == abelianize(catalog) == AbelianInvariants(
        0, (2,) * 80 + (6,) * 80 + (60,) * 80)
    assert blocks == []
    shared = Presentation(2, (power(gen(0), 4), power(gen(1), 6),
                              concat(power(gen(0), 2), power(gen(1), 2))))
    assert abelianize(Presented(shared)) == AbelianInvariants(0, (2, 2))
    assert blocks == [[[4, 0, 2], [0, 6, 2]]]


def test_wide_block_builds_no_transforms(monkeypatch):
    # <x | x^2, x^4, ..., x^10000>: no unit pivot, so one 1 x 5000 block
    # reaches the Smith form; the cokernel needs only its diagonal, and a
    # 5000 x 5000 column transform would cost time and memory quadratic
    # in the relator count
    real = snf.identity_matrix

    def guarded(n):
        assert n <= 1, "identity_matrix(%d) built" % n
        return real(n)

    monkeypatch.setattr(snf, "identity_matrix", guarded)
    p = Presentation(1, tuple(power(gen(0), 2 * k) for k in range(1, 5001)))
    assert abelianize(Presented(p)) == AbelianInvariants(0, (2,))


def _smith_invariants(m):
    """(free rank, torsion) read off the Smith diagonal of the whole
    matrix, transforms included: the dense referee."""
    d, _, _ = snf.smith_normal_form(m)
    nonzero = [e for e in snf.diagonal_of(d) if e]
    return len(m) - len(nonzero), tuple(e for e in nonzero if e >= 2)


def _random_relator(rng, gens):
    """A relator of one of the shapes a written presentation holds."""
    kind = rng.choice(("torsion", "commutator", "unit", "dense", "huge"))
    x, y = rng.randrange(gens), rng.randrange(gens)
    if kind == "torsion":
        return power(gen(x), rng.choice((2, 3, 4, 6, 12, -8)))
    if kind == "commutator":    # an empty column
        return commutator(gen(x), commutator(gen(y), gen(x)))
    letters = [(x, rng.choice((1, -1)))]
    if kind == "unit":          # eliminating it fills in other columns
        letters += [(rng.randrange(gens), rng.randint(-5, 5))
                    for _ in range(rng.randint(1, 3))]
    elif kind == "dense":
        letters = [(g, rng.randint(-9, 9)) for g in range(gens)]
    else:
        letters += [(y, rng.choice((1, -1)) * 10**18),
                    (rng.randrange(gens), rng.randint(-10**18, 10**18))]
    rng.shuffle(letters)
    return free_reduce(letters)


def test_sparse_abelianization_matches_the_smith_diagonal():
    rng = random.Random(2003)
    for _ in range(400):
        gens = rng.randint(1, 7)
        p = Presentation(gens, tuple(_random_relator(rng, gens)
                                     for _ in range(rng.randint(0, 9))))
        want = AbelianInvariants(*_smith_invariants(p.exponent_matrix()))
        assert abelianize(Presented(p)) == want, p


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


def _prime_power_chain(orders):
    """The invariant factors of the direct sum of the Z/e, e in orders,
    from each prime's exponents: the i-th largest factor takes every
    prime to its i-th largest exponent."""
    exponents = {}   # prime -> its exponent in each order it divides
    for e in orders:
        p = 2
        while e > 1:
            k = 0
            while e % p == 0:
                e //= p
                k += 1
            if k:
                exponents.setdefault(p, []).append(k)
            p += 1
    chain = [1] * max(map(len, exponents.values()), default=0)
    for p, ks in exponents.items():
        for i, k in enumerate(sorted(ks, reverse=True)):
            chain[i] *= p ** k
    return tuple(reversed(chain))


def test_merge_chain_matches_prime_powers():
    rng = random.Random(1979)
    for _ in range(1500):
        orders = [rng.choice((rng.randint(2, 12), rng.randint(2, 400)))
                  for _ in range(rng.randint(0, 12))]
        assert _merge_chain(orders) == _prime_power_chain(orders), orders
    assert _merge_chain([]) == () and _merge_chain([7]) == (7,)
    assert _merge_chain([2**70, 3**40, 6]) == (6, 2**70 * 3**40)


def test_product_of_many_cyclic_groups_needs_no_smith_form(monkeypatch):
    def refuse(m):
        raise AssertionError("a Smith form of %d rows" % len(m))
    monkeypatch.setattr(snf, "smith_normal_form", refuse)
    for orders in ([2] * 2000, [2 + i % 5 for i in range(2000)]):
        g = DirectProduct(tuple(FiniteAbelian((d,)) for d in orders))
        assert abelianize(g) == AbelianInvariants(
            0, _prime_power_chain(orders))


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


def mobius(n):
    """Moebius function by trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def test_witt_ranks_match_the_moebius_formula():
    # Witt's formula M_i = (1/i) * sum_{d | i} mu(d) * n^(i/d)
    assert [mobius(k) for k in range(1, 13)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    for n in range(1, 7):
        for c in range(1, 13):
            want = [sum(mobius(d) * n ** (i // d)
                        for d in range(1, i + 1) if i % d == 0) // i
                    for i in range(1, c + 1)]
            assert free_nilpotent_lcs_ranks(n, c) == want, (n, c)


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


def test_certificate_levels():
    # the catalog is abelian outright; a written factor certified by the
    # cyclic rule only on trust in its nilpotency, and a product at its
    # least certain factor's level; written Z^2 needs two generators of
    # H_1, so the cyclic rule does not certify it
    for text in ("Z^3", "Z/2 x Z/4", "F(1,3)", "Z^3 x Z/2 x Z/4 x F(1,3)"):
        assert is_abelian(parse_group_spec(text)) == ABELIAN_OUTRIGHT, text
    for text in ("<x | 1>", "<x | 1> x Z", "<a,b | a^3, b^2, abab>"):
        assert is_abelian(parse_group_spec(text)) == ABELIAN_ON_TRUST, text
    for text in ("H3", "H3 x <x | 1>", "<x1,x2 | x1^-1x2^-1x1x2>"):
        assert is_abelian(parse_group_spec(text)) == 0, text
    assert ABELIAN_OUTRIGHT and ABELIAN_ON_TRUST \
        and ABELIAN_OUTRIGHT != ABELIAN_ON_TRUST


def test_merged_letters_stay_printable():
    # two letters that merge past TORSION_BOUND would have an exponent
    # that Python cannot print: refused as they merge, in the word
    # helpers and in the parser alike
    big = TORSION_BOUND - 1
    assert concat(gen(0, big), gen(0, -1)).letters == ((0, big - 1),)
    with pytest.raises(TooLarge, match="more than 4300 digits"):
        concat(gen(0, big), gen(0, 1))
    with pytest.raises(TooLarge, match="more than 4300 digits"):
        concat(gen(0, -big), gen(0, -big))
    with pytest.raises(TooLarge, match="more than 4300 digits"):
        parse_group_spec("<a | a^%d a>" % big)
