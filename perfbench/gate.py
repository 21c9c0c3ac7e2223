"""Output gate: pinned expected outputs and the closed-form referees.

pins.json maps every pool entry's pin key to the outputs nilrep gave at
the commit that defined the benchmark: Poincare coefficient lists, pi_1
and H_1 rank and torsion, hom counts, and the verdict status and reason
code.  A run compares every op against its pin.  A pinned "Unknown"
verdict accepts any status, so a later version that decides the pair
still passes.  The reason code is recorded but not compared: a new rule
may decide a pair by another route without changing its status.

The referees below recompute what has a closed form, without nilrep:
H_1 of the generated sources, pi_1 from the catalog table, the r = 1
Poincare polynomials of Hom(Z, G) = G and of its character variety, and
hom counts into Q8, D4 and C6.  pin.py and the tests also hold pins to
nilrep's independent projector oracle.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from perfbench.workloads import closed_form_h1, invariant_chain

PINS_PATH = Path(__file__).with_name("pins.json")
UNKNOWN = "Unknown"

# fields gated per output kind
_REPORT = ("rank_h1", "torsion_h1", "pi1_hom", "pi1_char", "poincare_hom",
           "poincare_char", "status", "reason_code")
UNGATED = ("reason_code",)
_FIELDS = {
    "analyze": _REPORT,
    "pi1": ("r", "pi1_hom", "pi1_char"),
    "poincare": ("r", "poincare_hom", "poincare_char"),
    "connectivity": ("status",),
    "homcount": ("total", "surjective"),
}


def load_pins(path=PINS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def normalize(op: dict, out: dict) -> dict:
    """The gated fields of one op's output (a report dict or CLI JSON)."""
    kind = "analyze" if op["kind"] == "analyze" else op["argv"][0]
    flat = dict(out)
    if isinstance(out.get("verdict"), dict):
        flat["status"] = out["verdict"]["status"]
        flat["reason_code"] = out["verdict"].get("reason_code")
    return {f: flat.get(f) for f in _FIELDS[kind]}


def compare(pinned: dict, got: dict) -> list[str]:
    """Field-by-field differences between a pin and an op's output."""
    problems = []
    for field, want in pinned.items():
        have = got.get(field)
        if field in UNGATED or field == "status" and want == UNKNOWN:
            continue
        if have != want:
            problems.append("%s: expected %r, got %r" % (field, want, have))
    return problems


# ---------------------------------------------------------------------------
# closed-form referees


def _degrees(family: str, n: int) -> list[int]:
    if family in ("SL", "PGL"):
        return list(range(2, n + 1))
    if family == "GL":
        return list(range(1, n + 1))
    if family == "T":
        return [1] * n
    if family == "Sp":
        return list(range(2, n + 1, 2))
    if family in ("SO", "Spin"):
        k = n // 2
        return list(range(2, 2 * k + 1, 2)) if n % 2 else \
            list(range(2, 2 * k - 1, 2)) + [k]
    return {"G2": [2, 6], "F4": [2, 6, 8, 12]}[family]


def _pi1(family: str, n: int) -> tuple[int, tuple[int, ...]]:
    """pi_1 of one catalog factor: (free rank, torsion)."""
    if family == "GL":
        return 1, ()
    if family == "T":
        return n, ()
    if family == "PGL":
        return 0, (n,)
    if family == "SO":
        return 0, (2,)
    return 0, ()  # SL, Sp, Spin, G2, F4 are simply connected


def target_facts(text: str) -> dict:
    """Degrees, pi_1 and centre dimension of a product of catalog factors."""
    degrees, rank, torsion, centre = [], 0, [], 0
    for part in text.split(" x "):
        family, n = re.fullmatch(r"([A-Za-z]+?)(\d*)", part.strip()).groups()
        if family in ("G", "F"):  # G2, F4 carry no size
            family, n = family + n, "0"
        n = int(n)
        degrees += _degrees(family, n)
        r, t = _pi1(family, n)
        rank, torsion = rank + r, torsion + list(t)
        centre += n if family == "T" else family == "GL"
    return {"degrees": degrees, "pi1": (rank, torsion), "centre": centre}


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _commuting_tuples(n: int) -> int:
    """Commuting n-tuples in Q8 or D4: the 2 central elements have the
    whole group as centralizer, the other 6 an abelian group of order 4,
    so c_n = 2 c_{n-1} + 6 * 4^(n-1) with c_1 = 8."""
    c = 8
    for k in range(2, n + 1):
        c = 2 * c + 6 * 4 ** (k - 1)
    return c


def _jordan_totient(n: int, m: int) -> int:
    """Number of n-tuples generating Z/m."""
    out = m ** n
    for p in (2, 3, 5, 7, 11, 13):
        if m % p == 0:
            out = out * (p ** n - 1) // p ** n
    return out


# group -> (total, surjective) into a class-2 target: a two-generator
# class-2 group receives every pair; 24 pairs generate Q8 and D4 and
# 24 = J_2(6) generate C6
_TWO_GENERATOR_CLASS2 = ("H3", "F(2,2)", "F(2,3)")
# criterion 7 of the acceptance suite
_VERDICTS = {"F(2,3)|Sp4": "Disconnected"}


def referee_problems(pins: dict) -> list[str]:
    """Every pin that disagrees with a closed form."""
    h1 = closed_form_h1()
    problems = []

    def check(key, what, want, have):
        if want != have:
            problems.append("%s: %s is %r, closed form gives %r"
                            % (key, what, have, want))

    for key, pin in pins.items():
        if key in h1:
            rank, torsion = h1[key]
            if "rank_h1" in pin:
                check(key, "H_1", [rank, list(torsion)],
                      [pin["rank_h1"], pin["torsion_h1"]])
            if "r" in pin:
                check(key, "r", rank, pin["r"])
        if key in _VERDICTS:
            check(key, "verdict", _VERDICTS[key], pin["status"])
        if key.startswith("homcount|"):
            group, finite = key.split("|", 1)[1].rsplit("|", 1)
            want = None
            if finite == "c6" and re.fullmatch(r"Z\^\d", group):
                n = int(group[2:])
                want = [6 ** n, _jordan_totient(n, 6)]
            elif re.fullmatch(r"Z\^\d", group):
                want = [_commuting_tuples(int(group[2:])), 0]
            elif group in _TWO_GENERATOR_CLASS2:
                want = [36, 24] if finite == "c6" else [64, 24]
            if want is not None:
                check(key, "hom counts", want, [pin["total"], pin["surjective"]])
        target = pin_target(key)
        if target is None or ("pi1_hom" not in pin
                              and "poincare_hom" not in pin):
            continue
        facts = target_facts(target)
        r = pin.get("r", pin.get("rank_h1"))
        if "pi1_hom" in pin:
            rank, torsion = facts["pi1"]
            check(key, "pi1_hom",
                  {"rank": rank * r,
                   "torsion": list(invariant_chain(torsion * r))},
                  pin["pi1_hom"])
            check(key, "pi1_char",
                  {"rank": facts["centre"] * r, "torsion": []},
                  pin["pi1_char"])
        if r == 1 and pin.get("poincare_hom") is not None:
            hom = [1]
            for d in facts["degrees"]:
                hom = _poly_mul(hom, [1] + [0] * (2 * d - 2) + [1])
            check(key, "Poincare of Hom(Z, G) = G", hom, pin["poincare_hom"])
            char = [1]
            for _ in range(facts["centre"]):
                char = _poly_mul(char, [1, 1])
            check(key, "Poincare of the character variety of Z", char,
                  pin["poincare_char"])
    return problems


def pin_target(key: str):
    """Target text of a pin: the last field of every key but hom counts."""
    return None if key.startswith("homcount|") else key.rsplit("|", 1)[-1]
