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
groups (reduce_onto, power_letters, commutator_letters and, for a plain
commutator of two names, letter_commutator), which its Word helpers wrap
for the catalog; a presentation builds one Word per relator.
Items are read with one fixed pattern, the same for every input: a run
of ASCII name characters with an exponent of at most 18 digits, or a
plain commutator [u^i, v^j] of two such runs with no power after it,
each in one match.  A run that is not a declared name is split at its
longest declared prefixes in one pass, so x1x2 reads as x1 x2 and a run
costs work linear in its length.  Every other bracket (nested, powered,
or holding a run to split) and every error goes through the one
recursive reader.  A word ends where its next character is one of the
separators that may follow it (",", "]" or ">"), or where no item
starts after its spaces.
"""

from __future__ import annotations

import re

from .errors import ParseError, TooLarge
from .groups import (POWER_LETTER_CAP, DirectProduct, FiniteAbelian,
                     FreeAbelian, FreeNilpotent, GroupSpec, Heisenberg,
                     Presentation, Presented, Word, commutator_letters,
                     letter_commutator, power_letters, reduce_onto)
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
# one item after its spaces: a run of ASCII name characters with an
# exponent of at most 18 ASCII digits (_Scanner.integer reads any other);
# or an opening bracket, with the plain commutator [u^i, v^j] that may
# follow it when no "^" follows its "]"; or nothing.  _presentation
# compiles it on first use, so importing this module compiles nothing
_RUN = r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?[0-9]{1,18}))?"
_ITEM = r"\s*(?:%s|(\[)(?:\s*%s\s*,\s*%s\s*\](?!\^))?|)" % (_RUN, _RUN, _RUN)
# the empty word is "1" and its spaces, when the separator that follows
# it is one that may end the word there
_EMPTY_WORD = re.compile(r"1\s*")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.letters = 0
        # the generators of the presentation being read, and the lengths
        # of their names, longest first
        self.index: dict[str, int] = {}
        self.lengths: list[int] = []

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
        if not self.peek().isdecimal():
            raise ParseError("expected an integer", self.pos, ("integer",))
        while self.peek().isdecimal():
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
    s.index = index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ParseError("duplicate generator name", s.pos)
    s.lengths = sorted({len(name) for name in names}, reverse=True)
    item = re.compile(_ITEM)
    relators = []
    while True:
        relators.append(Word(tuple(_word(s, item, (",", ">")))))
        if not s.try_literal(","):
            break
    s.expect(">")
    return Presented(Presentation(len(names), tuple(relators),
                                  names=tuple(names)))


def _word(s: _Scanner, item: re.Pattern, ends: tuple[str, ...],
          depth: int = 0) -> list[tuple[int, int]]:
    """The freely reduced letters of one word, read with the spaces
    before and after it; ends are the separators that may follow it.
    Each item is charged to the letter budget at its reduced length,
    inside brackets too."""
    text, index = s.text, s.index
    word: list[tuple[int, int]] = []
    items = 0
    while not text.startswith(ends, s.pos):
        m = item.match(text, s.pos)
        s.pos = m.end()
        run, digits, bracket, u, i, v, j = m.groups()
        if bracket is not None:
            if depth == NESTING_BOUND:
                raise ParseError("commutator brackets nested deeper than %d"
                                 % NESTING_BOUND, m.start(3))
            if u in index and v in index:
                # a plain commutator, never powered: its entries are
                # charged as one-item words, then the bracket itself
                e, f = int(i) if i else 1, int(j) if j else 1
                s.letters += (e != 0) + (f != 0)
                base = letter_commutator(index[u], e, index[v], f)
            else:
                s.pos = m.end(3)
                a = _word(s, item, (",",), depth + 1)
                s.expect(",")
                b = _word(s, item, ("]",), depth + 1)
                s.expect("]")
                base = commutator_letters(a, b)
                if s.try_literal("^"):
                    base = power_letters(base, s.integer(signed=True))
        else:
            # a declared run is the longest declared name there, unless
            # a letter or digit beyond ASCII goes on where a name may
            if run in index and not text[m.end(1):m.end(1) + 1].isalnum():
                end = m.end(1)
            elif run is not None or s.peek().isalpha():
                # split the run at its longest declared prefixes in one
                # pass, as far as a digit, where no name starts; each
                # piece but the last is a letter of its own, charged here
                # while the budget lasts (the last charge below passes it)
                end = m.start(1) if run is not None else s.pos
                stop = m.end(1)   # -1 for a name that starts past ASCII
                while True:
                    run = _declared_prefix(s, end)
                    end += len(run)
                    if (end >= stop or text[end].isdecimal()
                            or s.letters == LETTER_BUDGET):
                        break
                    s.letters += 1
                    reduce_onto(word, [(index[run], 1)])
                if end != stop:
                    digits = None
            else:
                break
            if digits is not None and not text[s.pos:s.pos + 1].isdecimal():
                e = int(digits)
            elif text.startswith("^", end):   # any other exponent
                s.pos = end + 1
                e = s.integer(signed=True)
            else:
                s.pos = end
                e = 1
            base = [(index[run], e)] if e else []
        s.letters += len(base)   # against LETTER_BUDGET for the whole input
        if s.letters > LETTER_BUDGET:
            raise TooLarge("the words of this group input pass %d letters"
                           % LETTER_BUDGET)
        # every item is freely reduced, so only its first letter can
        # cancel against the word
        if word and base and word[-1][0] == base[0][0]:
            reduce_onto(word, base)
        else:
            word += base
        items += 1
    if not items:
        empty = _EMPTY_WORD.match(text, s.pos)
        if empty is None or not text.startswith(ends, empty.end()):
            raise ParseError("expected a word", s.pos,
                             ("generator", "[word,word]"))
        s.pos = empty.end()
    return word


def _declared_prefix(s: _Scanner, start: int) -> str:
    """The longest declared name that the text has at start."""
    for n in s.lengths:
        name = s.text[start:start + n]
        if name in s.index:
            return name
    raise ParseError("unknown generator", start, tuple(s.index))


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
