"""Input DSLs for groups and reductive targets.

Group grammar:

    group    := atom (" x " atom)*
    atom     := "H3" | "F(" n "," c ")" | "Z" | "Z^" n | "Z/" d
              | "<" name ("," name)* "|" word ("," word)* ">"
    word     := item+            item := base ("^" int)?
    base     := name | "[" word "," word "]"

Reductive grammar:

    target   := factor (" x " factor)*
    factor   := "SL" n | "GL" n | "PGL" n | "Sp" 2n | "SO" n | "Spin" n
              | "T" k | "G2" | "F4"

str() on the parsed objects renders back into these grammars.
"""

from __future__ import annotations

from .errors import ParseError
from .groups import (DirectProduct, FiniteAbelian, FreeAbelian, FreeNilpotent,
                     GroupSpec, Heisenberg, Presentation, Presented, Word,
                     commutator, concat, gen, power)
from .rootdata import Factor, ReductiveSpec


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def try_literal(self, lit: str) -> bool:
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str):
        if not self.try_literal(lit):
            raise ParseError("expected %r" % lit, self.pos, (lit,))

    def integer(self, signed=False) -> int:
        start = self.pos
        if signed and self.peek() == "-":
            self.pos += 1
        if not self.peek().isdigit():
            raise ParseError("expected an integer", self.pos, ("integer",))
        while self.peek().isdigit():
            self.pos += 1
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError("integer has too many digits", start,
                             ("integer",)) from None

    def positive_integer(self) -> int:
        start = self.pos
        value = self.integer()
        if value < 1:
            raise ParseError("expected a positive integer", start,
                             ("integer >= 1",))
        return value

    def identifier(self) -> str:
        start = self.pos
        if not (self.peek().isalpha() or self.peek() == "_"):
            raise ParseError("expected a name", self.pos, ("name",))
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        return self.text[start:self.pos]

    def separator_x(self) -> bool:
        """A standalone product separator 'x' between factors."""
        save = self.pos
        self.skip_ws()
        if self.try_literal("x"):
            nxt = self.peek()
            if nxt == "" or nxt.isspace():
                self.skip_ws()
                return True
        self.pos = save
        return False


# ---------------------------------------------------------------------------
# group specs


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the group DSL; raises ParseError with position on bad input.

    >>> parse_group_spec("F(2,3)")
    FreeNilpotent(n=2, c=3)
    """
    s = _Scanner(text)
    s.skip_ws()
    atoms = [_group_atom(s)]
    while s.separator_x():
        atoms.append(_group_atom(s))
    s.skip_ws()
    if not s.at_end():
        raise ParseError("unexpected trailing input", s.pos,
                         ("x", "end of input"))
    if len(atoms) == 1:
        return atoms[0]
    return DirectProduct(tuple(atoms))


def _group_atom(s: _Scanner) -> GroupSpec:
    if s.try_literal("H3"):
        return Heisenberg()
    if s.try_literal("F("):
        n = s.positive_integer()
        s.expect(",")
        s.skip_ws()
        c = s.positive_integer()
        s.expect(")")
        return FreeNilpotent(n, c)
    if s.try_literal("Z^"):
        return FreeAbelian(s.positive_integer())
    if s.try_literal("Z/"):
        d = s.positive_integer()
        return FiniteAbelian((d,) if d > 1 else ())
    if s.try_literal("Z"):
        return FreeAbelian(1)
    if s.peek() == "<":
        return _presentation(s)
    raise ParseError("expected a group atom", s.pos,
                     ("H3", "F(n,c)", "Z", "Z^n", "Z/d", "<...>"))


def _presentation(s: _Scanner) -> Presented:
    s.expect("<")
    names = []
    while True:
        s.skip_ws()
        names.append(s.identifier())
        s.skip_ws()
        if not s.try_literal(","):
            break
    s.skip_ws()
    s.expect("|")
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ParseError("duplicate generator name", s.pos)
    relators = []
    while True:
        s.skip_ws()
        relators.append(_word(s, index))
        s.skip_ws()
        if not s.try_literal(","):
            break
    s.expect(">")
    return Presented(Presentation(len(names), tuple(relators),
                                  names=tuple(names)))


def _word(s: _Scanner, index: dict[str, int]) -> Word:
    parts = []
    while True:
        s.skip_ws()
        ch = s.peek()
        if ch == "[":
            s.expect("[")
            a = _word(s, index)
            s.skip_ws()
            s.expect(",")
            b = _word(s, index)
            s.skip_ws()
            s.expect("]")
            base = commutator(a, b)
        elif ch.isalpha() or ch == "_":
            # longest declared generator name wins, so x1x2 tokenizes right
            match = None
            for name in sorted(index, key=len, reverse=True):
                if s.text.startswith(name, s.pos):
                    match = name
                    break
            if match is None:
                raise ParseError("unknown generator", s.pos, tuple(index))
            s.pos += len(match)
            base = gen(index[match])
        else:
            break
        if s.try_literal("^"):
            base = power(base, s.integer(signed=True))
        parts.append(base)
    if not parts:
        raise ParseError("expected a word", s.pos,
                         ("generator", "[word,word]"))
    return concat(*parts)


# ---------------------------------------------------------------------------
# reductive specs


_SIZED_FAMILIES = ("Spin", "PGL", "SL", "GL", "Sp", "SO", "T")


def parse_reductive_spec(text: str) -> ReductiveSpec:
    """Parse the reductive-group DSL, e.g. "GL3 x T2".

    Unknown families raise ParseError; known families at unsupported
    sizes raise UnsupportedType.
    """
    s = _Scanner(text)
    s.skip_ws()
    factors = [_factor(s)]
    while s.separator_x():
        factors.append(_factor(s))
    s.skip_ws()
    if not s.at_end():
        raise ParseError("unexpected trailing input", s.pos,
                         ("x", "end of input"))
    return ReductiveSpec(tuple(factors))


def _factor(s: _Scanner) -> Factor:
    for fam in ("G2", "F4"):
        if s.try_literal(fam):
            return Factor(fam)
    for fam in _SIZED_FAMILIES:
        if s.try_literal(fam):
            return Factor(fam, s.integer())
    raise ParseError("expected a reductive factor", s.pos,
                     _SIZED_FAMILIES + ("G2", "F4"))
