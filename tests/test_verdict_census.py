"""The verdict census: 15 catalog groups against 14 targets, each group
also fed in its written form, every verdict pinned in
tests/data/verdict_census.json.

A written form is the catalog group's own presentation printed and read
back: parse_group_spec(str(Presented(write()))), where write, the last
of finitehom._lowered(g, None), builds the presentation that the search
reads for g into a target that is not nilpotent.
Changing a pin is an output change.  To regenerate the pins after one,
run this file as a script:

    PYTHONPATH=src python tests/test_verdict_census.py
"""

import json
from pathlib import Path

import pytest

from nilrep import finitehom
from nilrep.errors import TooLarge, UnsupportedGroup
from nilrep.finitehom import CONNECTED, DISCONNECTED, UNKNOWN
from nilrep.groups import ABELIAN_ON_TRUST, Presented, is_abelian
from nilrep.parsing import parse_group_spec, parse_reductive_spec
from nilrep.record import replace
from nilrep.rootdata import build_root_datum


GROUPS = ("Z", "Z^2", "Z^3", "Z^4", "Z/2", "Z/4 x Z", "Z/6 x Z^2",
          "Z/2 x Z/4 x Z^2", "H3", "H3 x Z", "H3 x Z/2", "H3 x H3",
          "F(2,2) x Z^2", "F(3,2)", "F(4,2)")
TARGETS = ("SL2", "GL2", "PGL2", "SO3", "Sp4", "SO5", "SL3", "PGL3", "G2",
           "Spin7", "F4", "SL2 x SL2", "SO3 x T1", "T2")
PINS = Path(__file__).parent / "data" / "verdict_census.json"


def written(text):
    """The written form of the catalog group text, as a string."""
    return str(Presented(
        finitehom._lowered(parse_group_spec(text), None)[2]()))


def verdict(g, target):
    v = finitehom.connectivity_verdict(g, parse_reductive_spec(target))
    return {"status": v.status, "reason_code": v.reason_code,
            "witness": None if v.witness is None else list(v.witness)}


def census():
    """Every (group, target) pair with its two verdicts, catalog and
    written."""
    rows = []
    for text in GROUPS:
        catalog = parse_group_spec(text)
        presented = parse_group_spec(written(text))
        for target in TARGETS:
            rows.append({"group": text, "target": target,
                         "catalog_verdict": verdict(catalog, target),
                         "written_verdict": verdict(presented, target)})
    return rows


@pytest.fixture(scope="module")
def rows():
    return census()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def pins(pinned):
    return pinned["verdicts"]


def test_written_forms_match_their_pins(pinned):
    assert pinned["written"] == {text: written(text) for text in GROUPS}


def test_census_covers_every_pair(pins):
    assert [(p["group"], p["target"]) for p in pins] \
        == [(g, t) for g in GROUPS for t in TARGETS]


def test_every_pair_matches_its_pin(rows, pins):
    changed = [(got["group"], got["target"])
               for got, want in zip(rows, pins) if got != want]
    assert changed == []


def test_unknown_counts(pins):
    # written forms lose the catalog's certificates (is_abelian past the
    # cyclic rule and the free nilpotent rule), so they say Unknown far
    # more often
    unknown = [sum(p[form]["status"] == UNKNOWN for p in pins)
               for form in ("catalog_verdict", "written_verdict")]
    assert unknown == [9, 67]


# the reason codes of connectivity_verdict's abelian branch
ABELIAN_REASONS = ("trivial_group", "single_generator", "not_simply_connected",
                   "commuting_tuples_diagonalizable",
                   "commuting_pairs_irreducible", "nontoral_commuting_triples")


def test_the_nilpotency_note_follows_the_certificate_level():
    # a verdict notes its trust in a written group's nilpotency exactly
    # where is_abelian certifies the group only on trust and an abelian
    # rule decides the pair
    texts = (*GROUPS, *map(written, GROUPS), "<x | 1>", "<x | 1> x Z",
             "<a,b | a^3, b^2, abab>", "H3 x <x | 1>")
    noted = set()
    for text in texts:
        g = parse_group_spec(text)
        on_trust = is_abelian(g) == ABELIAN_ON_TRUST
        for target in TARGETS:
            v = finitehom.connectivity_verdict(g, parse_reductive_spec(target))
            note = "as it is taken to be nilpotent" in v.reason
            assert note == (on_trust and v.reason_code in ABELIAN_REASONS), \
                (text, target)
            noted.add((note, on_trust))
    assert noted == {(True, True), (False, True), (False, False)}


def test_shared_witnesses_are_fresh_searches(monkeypatch):
    # the quaternion rule searches each group value once per process: with
    # the memo warmed on every group by one spelling (catalog, written, or
    # written under other names), each in turn, every verdict's witness is
    # a fresh search's wherever the rule applies, and there is none
    # elsewhere
    q8 = finitehom.q8()
    targets = [(spec, build_root_datum(spec))
               for spec in map(parse_reductive_spec, TARGETS)]
    cases = []
    for text in GROUPS:
        pres = finitehom._lowered(parse_group_spec(text), None)[2]()
        for g in (parse_group_spec(text), parse_group_spec(written(text)),
                  Presented(replace(pres, names=tuple(
                      "n%d" % i for i in range(pres.generator_count))))):
            try:
                want = finitehom.surjection_witness(g, q8)
            except (TooLarge, UnsupportedGroup):
                want = None
            cases.append((g, None if is_abelian(g) else want))
    for warm in range(3):
        monkeypatch.setattr(finitehom, "_q8_witnesses", {})
        for g, _ in cases[warm::3]:
            for spec, rd in targets:
                finitehom.connectivity_verdict(g, spec, rd)
        for g, want in cases:
            for spec, rd in targets:
                sl2 = any(b.contains_sl2 for b in rd.blocks)
                v = finitehom.connectivity_verdict(g, spec, rd)
                assert v.witness == (want if sl2 else None), (str(g),
                                                              str(spec))


def test_no_pair_flips_between_decided_statuses(rows):
    decided = {CONNECTED, DISCONNECTED}
    flips = [(r["group"], r["target"]) for r in rows
             if {r["catalog_verdict"]["status"],
                 r["written_verdict"]["status"]} == decided]
    assert flips == []


if __name__ == "__main__":
    # one group or pair per line, so a changed pin reads as a one-line diff
    written_lines = ",\n".join("  %s: %s" % (json.dumps(text),
                                             json.dumps(written(text)))
                               for text in GROUPS)
    verdict_lines = ",\n".join("  " + json.dumps(row) for row in census())
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text('{\n"written": {\n%s\n},\n"verdicts": [\n%s\n]\n}\n'
                    % (written_lines, verdict_lines))
