"""The two input DSLs: round-trips, word grammar, error positions."""

import pytest

from nilrep import parsing
from nilrep.errors import ParseError, UnsupportedType
from nilrep.groups import (DirectProduct, FiniteAbelian, FreeAbelian,
                           FreeNilpotent, Heisenberg, Presentation,
                           Presented, Word,
                           abelianize, commutator, concat, gen,
                           heisenberg_presentation, power)
from nilrep.parsing import parse_group_spec, parse_reductive_spec
from nilrep.rootdata import Factor, ReductiveSpec


def test_catalog_atoms():
    assert parse_group_spec("H3") == Heisenberg()
    assert parse_group_spec("F(2,3)") == FreeNilpotent(2, 3)
    assert parse_group_spec("F(2, 3)") == FreeNilpotent(2, 3)
    assert parse_group_spec("Z^4") == FreeAbelian(4)
    assert parse_group_spec("Z") == FreeAbelian(1)
    assert parse_group_spec("Z/6") == FiniteAbelian((6,))
    assert parse_group_spec("Z/1") == FiniteAbelian(())


def test_products():
    g = parse_group_spec("H3 x Z^2 x Z/2")
    assert g == DirectProduct((Heisenberg(), FreeAbelian(2),
                               FiniteAbelian((2,))))


def test_presentation_words():
    g = parse_group_spec("<x,y | [x,y]>")
    assert isinstance(g, Presented)
    assert g.presentation.generator_count == 2
    assert g.presentation.relators == (commutator(gen(0), gen(1)),)
    assert abelianize(g).rank == 2

    g = parse_group_spec("<x | x^3>")
    assert g.presentation.relators == (power(gen(0), 3),)

    g = parse_group_spec("<x,y,z | [x,y]z^-1, [x,z], [y,z]>")
    assert g.presentation.relators == heisenberg_presentation().relators

    g = parse_group_spec("<a,b | a^2b^-3, [a,[a,b]]>")
    w = g.presentation.relators[0]
    assert w == concat(power(gen(0), 2), power(gen(1), -3))
    nested = g.presentation.relators[1]
    assert nested == commutator(gen(0), commutator(gen(0), gen(1)))


def test_multicharacter_generator_names():
    g = parse_group_spec("<x1,x2 | [x1,x2]>")
    assert g.presentation.generator_count == 2
    assert g.presentation.relators == (commutator(gen(0), gen(1)),)
    # the longest declared name wins at each position, so one name may be
    # a prefix of another and names may be written side by side
    g = parse_group_spec("<x,x1 | x1x, xx1^2>")
    assert g.presentation.relators == (concat(gen(1), gen(0)),
                                       concat(gen(0), power(gen(1), 2)))
    with pytest.raises(ParseError) as info:
        parse_group_spec("<x1,x2 | x1y>")
    assert (info.value.position, info.value.expected) == (11, ("x1", "x2"))
    # names past ASCII: a² is one name, though its ASCII part a is another
    g = parse_group_spec("<a,a²,β | a²a^2, [β,a²]β>")
    assert g.presentation.relators == (
        concat(gen(1), power(gen(0), 2)),
        concat(commutator(gen(2), gen(1)), gen(2)))


def test_presentations_compile_no_pattern_of_their_names(monkeypatch):
    compiled = []
    compile_ = parsing.re.compile

    def recording_compile(pattern, *args, **kwargs):
        compiled.append(pattern)
        return compile_(pattern, *args, **kwargs)

    monkeypatch.setattr(parsing.re, "compile", recording_compile)
    g = parse_group_spec("<alpha,beta | [alpha,beta]alpha^2>")
    first, compiled[:] = compiled[:], []
    h = parse_group_spec("<gamma1,gamma12 | gamma1gamma12, [gamma12,gamma1]>")
    assert compiled == first
    assert not any(name in str(pattern) for pattern in compiled
                   for name in ("alpha", "beta", "gamma"))
    assert g.presentation.relators == (
        concat(commutator(gen(0), gen(1)), power(gen(0), 2)),)
    assert h.presentation.relators == (concat(gen(0), gen(1)),
                                       commutator(gen(1), gen(0)))


def test_runs_are_split_in_one_pass(monkeypatch):
    # a run that is not a declared name is split without matching the
    # rest of it again for every piece: the item matches span the text
    # about once, not once per letter
    spans = []
    compile_ = parsing.re.compile

    class Spanning:
        def __init__(self, pattern):
            self.pattern = pattern

        def match(self, text, pos):
            m = self.pattern.match(text, pos)
            spans.append(m.end() - pos)
            return m

    monkeypatch.setattr(parsing.re, "compile",
                        lambda *args: Spanning(compile_(*args)))
    text = "<a,b | " + "ab" * 10000 + ", " + "ab" * 10000 + "a^2>"
    g = parse_group_spec(text)
    assert g.presentation.relators == (
        power(concat(gen(0), gen(1)), 10000),
        concat(power(concat(gen(0), gen(1)), 10000), power(gen(0), 2)))
    assert sum(spans) <= len(text)


def test_group_round_trips():
    specs = [
        Heisenberg(), FreeNilpotent(3, 2), FreeAbelian(5), FiniteAbelian((4,)),
        DirectProduct((Heisenberg(), FreeAbelian(1), FiniteAbelian((2,)))),
    ]
    for spec in specs:
        assert parse_group_spec(str(spec)) == spec
    presented = parse_group_spec("<x,y | [x,y]y^2>")
    again = parse_group_spec(str(presented))
    assert again.presentation == presented.presentation


def test_group_parse_errors_have_positions():
    with pytest.raises(ParseError) as info:
        parse_group_spec("F(2,3) y H3")
    assert info.value.position == 7
    with pytest.raises(ParseError):
        parse_group_spec("")
    with pytest.raises(ParseError):
        parse_group_spec("<x,y | [x,w]>")
    with pytest.raises(ParseError):
        parse_group_spec("<x,x | x^2>")
    with pytest.raises(ParseError):
        parse_group_spec("Z^")


def test_reductive_atoms():
    assert parse_reductive_spec("SL2") == ReductiveSpec((Factor("SL", 2),))
    assert parse_reductive_spec("Sp4") == ReductiveSpec((Factor("Sp", 4),))
    assert parse_reductive_spec("Spin7") == ReductiveSpec((Factor("Spin", 7),))
    assert parse_reductive_spec("G2") == ReductiveSpec((Factor("G2"),))
    assert parse_reductive_spec("GL3 x T2") == ReductiveSpec(
        (Factor("GL", 3), Factor("T", 2)))


def test_reductive_round_trips():
    for text in ("SL2", "GL3 x T2", "Sp4", "PGL3 x SO5 x F4", "Spin6"):
        spec = parse_reductive_spec(text)
        assert parse_reductive_spec(str(spec)) == spec
        assert str(spec) == text


def test_reductive_errors():
    with pytest.raises(ParseError):
        parse_reductive_spec("E8")
    with pytest.raises(UnsupportedType):
        parse_reductive_spec("Sp3")
    with pytest.raises(UnsupportedType):
        parse_reductive_spec("SO2")
    with pytest.raises(ParseError):
        parse_reductive_spec("SL2 x")
    with pytest.raises(ParseError):
        parse_reductive_spec("SL2 GL3")


@pytest.mark.parametrize("text, message", [
    ("<a|a^>",
     "expected an integer (at position 5, expected one of: integer)"),
    ("<a,b | a c>",
     "unknown generator (at position 9, expected one of: a, b)"),
    ("<a,b | [a,b>", "expected ']' (at position 11, expected one of: ])"),
    ("<a,b | " + "[" * 65 + "a,b" + "]" * 65 + ">",
     "commutator brackets nested deeper than 64 (at position 71)"),
    ("<a | a^" + "9" * 5000 + ">",
     "integer has too many digits (at position 7, expected one of: "
     "integer)"),
    ("<a | [a,a]^-" + "9" * 5000 + ">",
     "integer has too many digits (at position 11, expected one of: "
     "integer)"),
    ("<a,b | a^-b>",
     "expected an integer (at position 10, expected one of: integer)"),
    ("<a,b | , a>",
     "expected a word (at position 7, expected one of: generator, "
     "[word,word])"),
    # "1" is a word only alone, and only before a separator that may end
    # the word there
    ("<a | 2>",
     "expected a word (at position 5, expected one of: generator, "
     "[word,word])"),
    ("<a | 1a>",
     "expected a word (at position 5, expected one of: generator, "
     "[word,word])"),
    ("<a | 1^2>",
     "expected a word (at position 5, expected one of: generator, "
     "[word,word])"),
    ("<a | a 1>", "expected '>' (at position 7, expected one of: >)"),
    ("<a | 1]>",
     "expected a word (at position 5, expected one of: generator, "
     "[word,word])"),
    ("<a | [1]>",
     "expected a word (at position 6, expected one of: generator, "
     "[word,word])"),
    ("<a | 1",
     "expected a word (at position 5, expected one of: generator, "
     "[word,word])"),
])
def test_word_parse_errors_are_literal(text, message):
    with pytest.raises(ParseError) as info:
        parse_group_spec(text)
    assert str(info.value) == message


@pytest.mark.parametrize("parse, text", [
    (parse_group_spec, "<a | a^\u00b2>"), (parse_group_spec, "Z/\u00b2"),
    (parse_reductive_spec, "SL\u00b2")])
def test_a_non_decimal_digit_starts_no_integer(parse, text):
    # "\u00b2" (superscript two) passes str.isdigit() but is no decimal
    # digit, so int() refuses it: the integer is missing, not too long
    with pytest.raises(ParseError, match="expected an integer") as info:
        parse(text)
    assert "too many digits" not in str(info.value)


def test_nesting_bound_is_inclusive():
    # 64 levels parse; [a,a] = 1 keeps every level empty
    g = parse_group_spec("<a,b | " + "[" * 64 + "a,a]" + ",b]" * 63 + ">")
    assert g.presentation.relators == (Word(),)


def test_printed_presentation_re_parses():
    # "ab" is a declared name, so a letter a before b is written "a b"
    g = parse_group_spec("<a,b,ab | a b ab^-1>")
    assert g.presentation.relators == (
        concat(gen(0), gen(1), power(gen(2), -1)),)
    assert str(g) == "<a,b,ab | a bab^-1>"
    assert parse_group_spec(str(g)) == g
    # no space where the next letter cannot extend the name
    assert str(parse_group_spec("<a,b,ab | b a, a^2b, ab a>")) == (
        "<a,b,ab | ba, a^2b, aba>")


def test_printed_empty_relator_re_parses():
    # a relator that reduces to the identity is written "1"
    g = parse_group_spec("<a,b | [a,a], b^2>")
    assert g.presentation.relators == (Word(), power(gen(1), 2))
    assert str(g) == "<a,b | 1, b^2>"
    assert parse_group_spec(str(g)) == g
    # "1" with spaces, inside brackets, and as the only relator
    g = parse_group_spec("<a,b | [ 1 ,a] b, [a,1\n], 1 >")
    assert g.presentation.relators == (gen(1), Word(), Word())
    assert parse_group_spec("<a | 1>") == parse_group_spec("<a | [a,a]>")


def test_presentation_without_relators_re_parses():
    # no relators print as the one empty relator, a presentation of the
    # same group
    free = Presented(Presentation(2, ()))
    assert str(free) == "<g1,g2 | 1>"
    again = parse_group_spec(str(free))
    assert again.presentation == Presentation(2, (Word(),), ("g1", "g2"))
    assert abelianize(again) == abelianize(free) == abelianize(FreeAbelian(2))


def _free_class2_text(n, style):
    """F(n, 2) written out as the benchmark writes it: a central generator
    c_i_j per commutator of the x_i, [x_i,x_j]c_i_j^-1 for i < j, then
    [x_k,c_i_j] for each c and each x."""
    xs = ["%s%d" % (style, i + 1) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cs = ["c%d_%d" % (i + 1, j + 1) for i, j in pairs]
    rels = ["[%s,%s]%s^-1" % (xs[i], xs[j], c) for (i, j), c in zip(pairs, cs)]
    rels += ["[%s,%s]" % (x, c) for c in cs for x in xs]
    return "<%s | %s>" % (",".join(xs + cs), ", ".join(rels))


@pytest.mark.parametrize("style", ["x", "g", "u"])
@pytest.mark.parametrize("n", range(2, 9))
def test_written_free_class2_reads_as_the_catalog(n, style):
    g = parse_group_spec(_free_class2_text(n, style))
    catalog = FreeNilpotent(n, 2).presentation()
    assert g.presentation.relators == catalog.relators
    assert parse_group_spec(str(g)) == g
