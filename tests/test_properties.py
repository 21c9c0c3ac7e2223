"""Property tests against independent implementations and the grammars.

hypothesis and sympy are test-only dependencies; the library itself
stays standard-library only.  Every property runs derandomized with a
bounded number of examples, so the suite is reproducible and quick.
"""

import re
from itertools import combinations_with_replacement

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import (example, given, settings,  # noqa: E402
                        strategies as st)
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from nilrep.errors import NilrepError, ParseError, TooLarge  # noqa: E402
from nilrep.finitehom import (CONNECTED, DISCONNECTED,  # noqa: E402
                              connectivity_verdict)
from nilrep.invariants import _pack, _unpack, poly  # noqa: E402
from nilrep.groups import (DirectProduct, FiniteAbelian, FreeAbelian,  # noqa: E402
                           FreeNilpotent, Heisenberg, Presentation,
                           Presented, abelianize, commutator, concat,
                           free_reduce, gen, is_abelian, power)
from nilrep.parsing import (LETTER_BUDGET, NESTING_BOUND,  # noqa: E402
                            _Scanner, parse_group_spec,
                            parse_reductive_spec)
from nilrep.rootdata import Factor, ReductiveSpec  # noqa: E402
from nilrep.snf import (cokernel_invariants, diagonal_of,  # noqa: E402
                        smith_normal_form)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None)


# ---------------------------------------------------------------------------
# Smith normal form against sympy


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entry = st.integers(-12, 12)
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@PROPERTY
@given(integer_matrices())
def test_snf_invariant_factors_match_sympy(m):
    expected = [abs(int(e)) for e in
                invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)]
    d, _, _ = smith_normal_form(m)
    diag = diagonal_of(d)
    assert diag == expected
    nonzero = [e for e in expected if e]
    assert cokernel_invariants(m) == (len(m) - len(nonzero),
                                      tuple(e for e in nonzero if e >= 2))


@st.composite
def zero_padded_matrices(draw):
    """An integer matrix with zero rows and zero columns inserted at drawn
    positions."""
    m = draw(integer_matrices())
    width = len(m[0]) + draw(st.integers(0, 4))
    at = sorted(draw(st.permutations(range(width)))[:len(m[0])])
    padded = []
    for row in m:
        out = [0] * width
        for j, e in zip(at, row):
            out[j] = e
        padded.append(out)
    for i in draw(st.lists(st.integers(0, len(m)), max_size=3)):
        padded.insert(i, [0] * width)
    return padded


@PROPERTY
@given(zero_padded_matrices())
def test_pruned_cokernel_matches_sympy_on_padded_matrices(m):
    nonzero = [abs(int(e)) for e in
               invariant_factors(sympy.Matrix(m), domain=sympy.ZZ) if e]
    assert cokernel_invariants(m) == (len(m) - len(nonzero),
                                      tuple(e for e in nonzero if e >= 2))


# ---------------------------------------------------------------------------
# Molien sums packed into integers at t = 2^shift


@st.composite
def packable_polys(draw):
    """(coefficients, shift) with every coefficient a balanced
    base-2^shift digit, the edges -2^(shift-1) and +-(2^(shift-1) - 1)
    drawn often."""
    shift = draw(st.integers(1, 80))
    half = 1 << (shift - 1)
    digit = st.one_of(st.sampled_from((half - 1, 1 - half, -half)),
                      st.integers(-half, half - 1))
    return draw(st.lists(digit, max_size=12)), shift


@PROPERTY
@given(packable_polys())
def test_unpack_inverts_pack(case):
    coefficients, shift = case
    p = poly(coefficients)
    assert _unpack(_pack(p.coefficients, shift), shift) == p
    assert _pack(p.coefficients, shift) == p(2 ** shift)


# ---------------------------------------------------------------------------
# parse(str(x)) == x


def _words(generators):
    # exponent 1 often: only a bare name can run into the next letter;
    # a word that reduces to the identity is printed "1"
    letter = st.tuples(st.integers(0, generators - 1),
                       st.just(1) | st.integers(-40, 40).filter(bool))
    return st.lists(letter, max_size=6).map(free_reduce)


# single letters next to names that begin with them, so that printing
# must keep letters apart where the parser would read a longer name
GENERATOR_NAMES = ("a", "b", "ab", "ba", "abb", "x", "y", "xy", "x1", "x12")
NAME_SETS = (("a", "b", "ab"), ("a", "b", "ab", "ba"), ("a", "b", "bb", "abb"),
             ("x", "y", "xy", "x1", "x12"))


@st.composite
def presented_groups(draw):
    names = draw(st.sampled_from(NAME_SETS)
                 | st.lists(st.sampled_from(GENERATOR_NAMES), min_size=1,
                            max_size=4, unique=True))
    names = draw(st.permutations(names))
    n = len(names)
    relators = draw(st.lists(_words(n), min_size=1, max_size=3))
    return Presented(Presentation(n, tuple(relators), names=tuple(names)))


# the atoms parse_group_spec returns; products of them are flat
GROUP_ATOMS = st.one_of(
    st.just(Heisenberg()),
    st.builds(FreeNilpotent, st.integers(1, 9), st.integers(1, 9)),
    st.builds(FreeAbelian, st.integers(1, 10**6)),
    st.builds(lambda d: FiniteAbelian((d,)), st.integers(2, 10**6)),
    st.just(FiniteAbelian(())),
    presented_groups(),
)
GROUP_SPECS = st.one_of(
    GROUP_ATOMS,
    st.lists(GROUP_ATOMS, min_size=2, max_size=4).map(
        lambda atoms: DirectProduct(tuple(atoms))),
)


@PROPERTY
@given(GROUP_SPECS)
def test_group_spec_round_trips(g):
    assert parse_group_spec(str(g)) == g


@PROPERTY
@given(presented_groups())
def test_presented_group_round_trips(g):
    assert parse_group_spec(str(g)) == g


# ---------------------------------------------------------------------------
# the word parser against the old composition through Word helpers


def _referee_word(s, index, tokens, depth=0):
    """One word read item by item as Words, each built by groups.gen,
    power and commutator and the items joined by concat; the letter
    budget counts every item's reduced length."""
    parts = []
    while True:
        s.skip_ws()
        ch = s.peek()
        if ch == "[":
            if depth == NESTING_BOUND:
                raise ParseError("commutator brackets nested deeper than %d"
                                 % NESTING_BOUND, s.pos)
            s.expect("[")
            a = _referee_word(s, index, tokens, depth + 1)
            s.skip_ws()
            s.expect(",")
            b = _referee_word(s, index, tokens, depth + 1)
            s.skip_ws()
            s.expect("]")
            base = commutator(a, b)
        elif ch.isalpha() or ch == "_":
            match = tokens.match(s.text, s.pos)
            if match is None:
                raise ParseError("unknown generator", s.pos, tuple(index))
            s.pos = match.end()
            base = gen(index[match.group()])
        else:
            break
        if s.try_literal("^"):
            base = power(base, s.integer(signed=True))
        s.letters += len(base.letters)
        if s.letters > LETTER_BUDGET:
            raise TooLarge("the words of this group input pass %d letters"
                           % LETTER_BUDGET)
        parts.append(base)
    if not parts:
        raise ParseError("expected a word", s.pos,
                         ("generator", "[word,word]"))
    return concat(*parts)


def _referee_relators(names, text):
    s = _Scanner(text)
    s.pos = text.index("|") + 1
    index = {name: i for i, name in enumerate(names)}
    tokens = re.compile("|".join(map(re.escape,
                                     sorted(names, key=len, reverse=True))))
    relators = []
    while True:
        s.skip_ws()
        relators.append(_referee_word(s, index, tokens))
        s.skip_ws()
        if not s.try_literal(","):
            break
    s.expect(">")
    return tuple(relators)


def _outcome(fn):
    try:
        return "ok", fn()
    except (ParseError, TooLarge) as exc:
        return type(exc).__name__, str(exc)


WORD_EXPONENTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from((24_999, 25_000, 25_001, -25_000, 60_000, 10**30,
                     -10**30)))
SPACES = st.sampled_from(("", "", " ", "  ", "\n"))


@st.composite
def written_words(draw, depth=0):
    """A word of the group grammar: names, brackets nested up to three
    deep, exponents small and large, spaces around items."""
    items = []
    for _ in range(draw(st.integers(1, 3))):
        if depth < 3 and draw(st.booleans()):
            base = "[%s,%s]" % (draw(written_words(depth + 1)),
                                draw(written_words(depth + 1)))
        else:
            base = draw(st.sampled_from(GENERATOR_NAMES[:8]))
        if draw(st.booleans()):
            base += "^%d" % draw(WORD_EXPONENTS)
        items.append(draw(SPACES) + base + draw(SPACES))
    return "".join(items)


@PROPERTY
@given(st.lists(written_words(), min_size=1, max_size=3))
@example(["[a,b]^25000"])                     # at the power cap
@example(["[a,b]^25000 [a,b]^25000"])         # past the letter budget
@example(["[a,b]^25000", "[a,b]^25000"])      # the budget spans relators
@example(["[" * 16 + "a" + ",b]" * 16])       # past the commutator cap
def test_word_parser_matches_the_word_helpers(words):
    names = GENERATOR_NAMES[:8]
    text = "<%s | %s>" % (",".join(names), ",".join(words))
    expected = _outcome(lambda: _referee_relators(names, text))
    got = _outcome(lambda: parse_group_spec(text).presentation.relators)
    assert got == expected


def _factor(pair):
    family, param = pair
    try:
        return Factor(family, param)
    except NilrepError:
        return None


FACTORS = st.tuples(
    st.sampled_from(("SL", "GL", "PGL", "Sp", "SO", "Spin", "T", "G2", "F4")),
    st.integers(0, 12),
).map(_factor).filter(lambda f: f is not None)


def _spec(factors):
    try:
        return ReductiveSpec(tuple(factors))
    except NilrepError:
        return None


REDUCTIVE_SPECS = (st.lists(FACTORS, min_size=1, max_size=5)
                   .map(_spec).filter(lambda s: s is not None))


@PROPERTY
@given(REDUCTIVE_SPECS)
def test_reductive_spec_round_trips(spec):
    assert parse_reductive_spec(str(spec)) == spec


# ---------------------------------------------------------------------------
# text built from the DSL alphabets: structured errors only

_SIZES = st.sampled_from(("0", "1", "2", "7", "12", "4001", "9" * 25))
_DSL_WORDS = st.recursive(
    st.sampled_from(("a", "b", "a1")),
    lambda w: st.one_of(st.tuples(w, w).map("[%s,%s]".__mod__),
                        st.tuples(w, _SIZES).map("%s^%s".__mod__),
                        st.tuples(w, _SIZES).map("%s^-%s".__mod__),
                        st.tuples(w, w).map("".join)),
    max_leaves=8)
_DSL_ATOMS = st.one_of(
    st.sampled_from(("H3", "Z", "G2", "F4")),
    _SIZES.map("Z^%s".__mod__), _SIZES.map("Z/%s".__mod__),
    st.tuples(_SIZES, _SIZES).map("F(%s,%s)".__mod__),
    st.lists(_DSL_WORDS, min_size=1, max_size=3).map(
        lambda words: "<a,b,a1 | %s>" % ", ".join(words)),
    st.tuples(st.sampled_from(("SL", "GL", "PGL", "Sp", "SO", "Spin", "T")),
              _SIZES).map("".join),
)
# well-formed text of both grammars with at most one token spliced in,
# so that most inputs get deep into the parsers before anything breaks;
# "\u00b2" (superscript two) passes str.isdigit() but not int()
_DSL_TOKENS = ("", "H3", "F(", "Z^", "Z/", " x ", "x", " ", ",", "(", ")",
               "<", ">", "|", "[", "]", "^", "-", "a", "0", "9" * 25, "SL",
               "T", "\u00b2")
DSL_TEXT = st.tuples(
    st.lists(_DSL_ATOMS, min_size=1, max_size=4).map(" x ".join),
    st.integers(0, 60), st.sampled_from(_DSL_TOKENS),
).map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:])


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(DSL_TEXT)
def test_dsl_text_raises_only_nilrep_errors(text):
    try:
        abelianize(parse_group_spec(text))
    except NilrepError:
        pass
    try:
        parse_reductive_spec(text)
    except NilrepError:
        pass


# ---------------------------------------------------------------------------
# connectivity verdict laws

# sources with cheap Q8 searches, torsion-free or not, abelian or not
VERDICT_GROUPS = [FiniteAbelian(())] + [parse_group_spec(text) for text in (
    "Z", "Z^2", "Z^3", "Z^4", "H3", "F(2,3)", "H3 x Z", "Z/2", "Z/3 x Z^2",
    "<a,b | [a,b]^2>")]
# every verdict rule is hit: with and without a root SL2 (PGL2, SO3),
# torsion in pi_1 (PGL, SO), every dual Kac label 1 (types A and C,
# Spin3..6) or not (Spin7, G2, F4)
VERDICT_TARGETS = [Factor(*f) for f in (
    ("SL", 2), ("SL", 3), ("GL", 1), ("GL", 2), ("PGL", 2), ("PGL", 3),
    ("PGL", 4), ("Sp", 4), ("SO", 3), ("SO", 4), ("SO", 5), ("Spin", 3),
    ("Spin", 4), ("Spin", 5), ("Spin", 6), ("Spin", 7), ("G2",), ("F4",),
    ("T", 1), ("T", 2))]
VERDICT_FACTORS = st.sampled_from(VERDICT_TARGETS)


def _law_key(v):
    return v.status, v.reason_code, v.witness


def _check_product_law(g, f1, f2):
    # Hom(G, G1 x G2) = Hom(G, G1) x Hom(G, G2)
    parts = [connectivity_verdict(g, ReductiveSpec((f,))).status
             for f in (f1, f2)]
    if DISCONNECTED in parts:
        for spec in (ReductiveSpec((f1, f2)), ReductiveSpec((f2, f1))):
            assert connectivity_verdict(g, spec).status != CONNECTED, \
                (str(g), str(spec))


@PROPERTY
@given(st.sampled_from(VERDICT_GROUPS), VERDICT_FACTORS, VERDICT_FACTORS)
def test_products_with_a_disconnected_factor_are_not_connected(g, f1, f2):
    _check_product_law(g, f1, f2)


def test_product_law_on_every_pair_for_abelian_groups():
    # the abelian rules read every factor's type and lattice, so every
    # pair is checked; the Q8 searches of the other groups are sampled above
    for g in VERDICT_GROUPS:
        if is_abelian(g):
            for f1, f2 in combinations_with_replacement(VERDICT_TARGETS, 2):
                _check_product_law(g, f1, f2)


@PROPERTY
@given(st.sampled_from([g for g in VERDICT_GROUPS
                        if not abelianize(g).torsion]),
       st.lists(VERDICT_FACTORS, min_size=1, max_size=2),
       st.integers(1, 2))
def test_a_torus_factor_leaves_torsion_free_verdicts_unchanged(g, factors,
                                                               dim):
    # with H_1 torsion-free, Hom(G, T) is a torus, so G x T adds nothing
    # to the connectivity of Hom(G, G)
    spec = ReductiveSpec(tuple(factors))
    with_torus = ReductiveSpec(tuple(factors) + (Factor("T", dim),))
    assert (_law_key(connectivity_verdict(g, with_torus))
            == _law_key(connectivity_verdict(g, spec))), (str(g), str(spec))
