"""Input DSLs for groups and reductive targets.

Group grammar:

    group    := atom (" x " atom)*
    atom     := "H3" | "F(" n "," c ")" | "Z" | "Z^" n | "Z/" d
              | "<" name ("," name)* "|" word ("," word)* ">"
    word     := item+ | "1"      item := base ("^" int)?
    base     := name | "[" word "," word "]"

Reductive grammar:

    target   := factor (" x " factor)*
    factor   := "SL" n | "GL" n | "PGL" n | "Sp" 2n | "SO" n | "Spin" n
              | "T" k | "G2" | "F4"

str() on the parsed objects renders back into these grammars.  The word
"1", alone between its separators, is the empty word, which is how str()
writes a relator that reduces to the identity.

A word is read as a plain list of (generator, exponent) letters, kept
freely reduced as each item joins it.  The letter helpers are those of
groups (reduce_onto, power_letters, commutator_letters), which its Word
helpers wrap for the catalog; a presentation builds one Word per relator.
A generator item with its exponent is one regular-expression match
against the declared names, longest name first.
"""

from __future__ import annotations

import re

from .errors import ParseError, TooLarge
from .groups import (POWER_LETTER_CAP, DirectProduct, FiniteAbelian,
                     FreeAbelian, FreeNilpotent, GroupSpec, Heisenberg,
                     Presentation, Presented, Word, commutator_letters,
                     power_letters, reduce_onto)
from .rootdata import Factor, ReductiveSpec

# deepest bracket nesting in a word.  Each level can double the word, so
# about 16 levels already reach groups.POWER_LETTER_CAP; the bound keeps
# the recursive descent far below the interpreter's recursion limit
# (1,000 frames by default)
NESTING_BOUND = 64
# letters of all the words one group input writes, checked as each word
# is written.  Every item counts, at every bracket depth, so a bracket
# counts once for itself and once through its entries: twice the
# single-word cap leaves room for one word at the cap, and a presentation
# cannot repeat or juxtapose capped words without bound
LETTER_BUDGET = 2 * POWER_LETTER_CAP


_SPACE = re.compile(r"\s*")   # \s is exactly str.isspace
# the empty word is "1" and its spaces, when the separator that follows
# it is one that may end the word there
_EMPTY_WORD = re.compile(r"1\s*")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.letters = 0

    def skip_ws(self):
        self.pos = _SPACE.match(self.text, self.pos).end()

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
    # one match per item after its spaces: a declared name, the longest
    # first so that x1x2 tokenizes right, with an exponent of at most 18
    # ASCII digits (_Scanner.integer reads any other); or an opening
    # bracket; or nothing
    item = re.compile(r"\s*(?:(%s)(?:\^(-?[0-9]{1,18}))?|(\[)|)" % "|".join(
        map(re.escape, sorted(names, key=len, reverse=True))))
    relators = []
    while True:
        relators.append(Word(tuple(_word(s, index, item, (",", ">")))))
        if not s.try_literal(","):
            break
    s.expect(">")
    return Presented(Presentation(len(names), tuple(relators),
                                  names=tuple(names)))


def _word(s: _Scanner, index: dict[str, int], item: re.Pattern,
          ends: tuple[str, ...], depth: int = 0) -> list[tuple[int, int]]:
    """The freely reduced letters of one word, read with the spaces
    before and after it; ends are the separators that may follow it.
    Each item is charged to the letter budget at its reduced length,
    inside brackets too."""
    text = s.text
    word: list[tuple[int, int]] = []
    items = 0
    while True:
        m = item.match(text, s.pos)
        s.pos = m.end()
        name, digits, bracket = m.groups()
        if name is not None:
            if digits is not None and not text[s.pos:s.pos + 1].isdigit():
                e = int(digits)
            elif text.startswith("^", m.end(1)):   # any other exponent
                s.pos = m.end(1) + 1
                e = s.integer(signed=True)
            else:
                e = 1
            base = [(index[name], e)] if e else []
        elif bracket is not None:
            if depth == NESTING_BOUND:
                raise ParseError("commutator brackets nested deeper than %d"
                                 % NESTING_BOUND, m.start(3))
            a = _word(s, index, item, (",",), depth + 1)
            s.expect(",")
            b = _word(s, index, item, ("]",), depth + 1)
            s.expect("]")
            base = commutator_letters(a, b)
            if s.try_literal("^"):
                base = power_letters(base, s.integer(signed=True))
        else:
            ch = s.peek()
            if ch.isalpha() or ch == "_":
                raise ParseError("unknown generator", s.pos, tuple(index))
            break
        s.letters += len(base)   # against LETTER_BUDGET for the whole input
        if s.letters > LETTER_BUDGET:
            raise TooLarge("the words of this group input pass %d letters"
                           % LETTER_BUDGET)
        reduce_onto(word, base)
        items += 1
    if not items:
        empty = _EMPTY_WORD.match(text, s.pos)
        if empty is None or not text.startswith(ends, empty.end()):
            raise ParseError("expected a word", s.pos,
                             ("generator", "[word,word]"))
        s.pos = empty.end()
    return word


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
