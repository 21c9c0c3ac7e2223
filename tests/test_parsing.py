"""The two input DSLs: round-trips, word grammar, error positions."""

import pytest

from nilrep.errors import ParseError, UnsupportedType
from nilrep.groups import (DirectProduct, FiniteAbelian, FreeAbelian,
                           FreeNilpotent, Heisenberg, Presented, Word,
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
