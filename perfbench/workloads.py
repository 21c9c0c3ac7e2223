"""Seeded op lists for the three benchmark workloads.

Each workload is a fixed pool of slots.  A slot has one to three variants
of the same cost (an exponent, a spelling of generator names); the seed
picks one variant per slot and the order of the ops.  Every pass runs
every slot, so the mix of cheap and expensive ops is the same for every
seed and the latency percentiles compare across seeds.  All variants of
a slot have the same number of ops.

An op is a JSON-serializable dict:

    {"pin": key into pins.json, "kind": "analyze", "group": text,
     "target": text}
    {"pin": key, "kind": "cli", "argv": [...]}

Only the text inputs reach nilrep; the pin key names the expected output
and never changes with a cosmetic variant.  This module imports nothing
from nilrep.
"""

from __future__ import annotations

import json
import random
from math import gcd


def invariant_chain(orders) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... (each >= 2) of the direct sum of
    cyclic groups Z/n for n in orders, from prime-power parts."""
    powers = {}
    for n in orders:
        p = 2
        while n > 1:
            k = 1
            while n % p == 0:
                n //= p
                k *= p
            if k > 1:
                powers.setdefault(p, []).append(k)
            p += 1
    depth = max((len(v) for v in powers.values()), default=0)
    chain = [1] * depth
    for ks in powers.values():
        for i, k in enumerate(sorted(ks, reverse=True)):
            chain[depth - 1 - i] *= k
    return tuple(chain)


WORKLOADS = ("molien-sweep", "quotient-verdicts", "cli-presentations")

# Weyl orders 120..1920.  SL7 (|W| = 5040) and SO11 (3840) are left out:
# their ops alone would take 28 s per pass, more than the other targets
# together, and a two-pass run would last about 90 s.
MOLIEN_TARGETS = (
    "SL5", "SL6", "GL6", "PGL6",
    "SO8", "SO9", "SO10", "Spin8", "Spin10",
    "Sp8", "F4",
    "SL3 x SL4", "SL3 x SL3 x G2",
)

# Non-abelian nilpotent sources.  Each entry: (id, spellings, closed-form
# H_1 as (rank, torsion)).  Spellings of one source differ only in names.
QUOTIENT_SOURCES = (
    ("F(3,2)", ("F(3,2)",), (3, ())),
    ("H3xH3", ("H3 x H3",), (4, ())),
    ("H3xH3xZ", ("H3 x H3 x Z",), (5, ())),
    ("F(2,2)xZ^2", ("F(2,2) x Z^2",), (4, ())),
    ("F(2,3)", ("F(2,3)",), (2, ())),
    ("F(4,2)", ("F(4,2)",), (4, ())),
    ("H3xZ/2", ("H3 x Z/2",), (2, (2,))),
    ("heis3", tuple("<%s,%s,%s | [%s,%s]%s^-1, [%s,%s], [%s,%s]>"
                    % (a, b, c, a, b, c, a, c, b, c)
                    for a, b, c in ("xyz", "abc", "uvw")), (2, ())),
    ("filiform4", tuple(
        "<%s,%s,%s,%s | [%s,%s]%s^-1, [%s,%s]%s^-1, [%s,%s], [%s,%s], "
        "[%s,%s], [%s,%s]>" % (a, b, c, d, a, b, c, a, c, d, b, c, a, d,
                               b, d, c, d)
        for a, b, c, d in ("abcd", "pqrs", "wxyz")), (2, ())),
    ("class2-5gen", tuple(
        "<%s,%s,%s,%s,%s | [%s,%s]%s^-1, [%s,%s]%s^-1, [%s,%s], [%s,%s], "
        "[%s,%s], [%s,%s], [%s,%s], [%s,%s], [%s,%s], [%s,%s]>"
        % (a, b, c, u, v, a, b, u, a, c, v, b, c, a, u, b, u, c, u, a, v,
           b, v, c, v, u, v)
        for a, b, c, u, v in ("abcuv", "pqrst", "fghjk")), (3, ())),
    ("central-z4", tuple(
        "<%s,%s,%s,%s | [%s,%s]%s^-1, %s^4, [%s,%s], [%s,%s], [%s,%s], "
        "[%s,%s], [%s,%s]>" % (a, b, c, z, a, b, z, z, a, z, b, z, c, z,
                               a, c, b, c)
        for a, b, c, z in ("abcz", "pqrt", "fghk")), (3, ())),
    ("F(2,3)-presented", tuple(
        "<%s,%s,%s,%s,%s | [%s,%s]%s^-1, [%s,%s]%s^-1, [%s,%s]%s^-1, "
        "[%s,%s], [%s,%s], [%s,%s], [%s,%s], [%s,%s], [%s,%s], [%s,%s]>"
        % (a, b, c, d, e, a, b, c, a, c, d, b, c, e, a, d, b, d, a, e,
           b, e, c, d, c, e, d, e)
        for a, b, c, d, e in ("abcde", "pqrst", "fghjk")), (2, ())),
)
QUOTIENT_TARGETS = ("SL2", "Sp4", "SO5", "GL2", "PGL3", "SL3", "G2")

# exponents near 6*10^4 cost the same; their outputs differ
EXPONENTS = (60000, 59999, 59400)
NAME_STYLES = ("x", "g", "u")
HOMCOUNT_GROUPS = (
    ("H3", (2, ())), ("Z^3", (3, ())), ("Z^4", (4, ())),
    ("F(2,2)", (2, ())), ("F(2,3)", (2, ())), ("H3 x Z", (3, ())),
    ("Z/2 x Z/4 x Z^2", (2, (2, 4))),
    ("<a,b,c,d | [a,b]c^-1, [a,c]d^-1, [b,c], [a,d], [b,d], [c,d]>",
     (2, ())),
)
FINITE_TARGETS = ("q8", "d4", "c6")
TORSION_GROUPS = (
    ("Z/4 x Z/6 x Z/10 x Z^2", (2, invariant_chain([4, 6, 10]))),
    ("Z/12 x Z/18 x Z^3", (3, invariant_chain([12, 18]))),
    ("Z/2 x Z/4 x Z/8 x Z/16", (0, invariant_chain([2, 4, 8, 16]))),
)
CLASS2_RANKS = (5, 6, 7, 8)  # 15, 21, 28 and 36 generators
CLASS2_COMMANDS = (("pi1", "GL3"), ("poincare", "SL2"), ("analyze", "Sp4"),
                   ("connectivity", "SL3"))


def free_class2_text(n: int, style: str) -> str:
    """F(n, 2) written out: n generators plus one central generator per
    commutator, n + n(n-1)/2 generators and n(n-1)/2 * (n + 1) relators."""
    xs = ["%s%d" % (style, i + 1) for i in range(n)]
    zs, rels = [], []
    for i in range(n):
        for j in range(i + 1, n):
            z = "c%d_%d" % (i + 1, j + 1)
            zs.append(z)
            rels.append("[%s,%s]%s^-1" % (xs[i], xs[j], z))
    rels += ["[%s,%s]" % (x, z) for z in zs for x in xs]
    return "<%s | %s>" % (",".join(xs + zs), ", ".join(rels))


def _exponent_slots():
    """(slot id, [(variant pin, argv, closed-form H_1)]) per template."""
    templates = (
        ("exp-analyze", "analyze", "<a,b | a^{e}, [a,b]>", "SL2",
         lambda e: (1, (e,))),
        ("exp-pi1", "pi1", "<a,b | a^{e} b^-{e6}, [a,b]>", "PGL3",
         # Z^2 / (e, -(e - 6)) = Z + Z/gcd(e, e - 6)
         lambda e: (1, tuple(g for g in [gcd(e, e - 6)] if g > 1))),
    ) + tuple(
        # three of the heaviest op, so that op_tail_ms stays inside one
        # cost class whether a run makes 4 passes or 16
        ("exp-connectivity", "connectivity",
         "<a,b,c | [a,b]c^-1, [a,c], [b,c], c^{e}>", target,
         lambda e: (2, ())) for target in ("SL2", "Sp4", "GL2")
    ) + (
        ("exp-homcount", "homcount", "<a,b | a^{e}, b^4, [a,b]>", "c6",
         lambda e: (0, invariant_chain([e, 4]))),
    )
    for slot, cmd, group, target, h1 in templates:
        flag = "--finite" if cmd == "homcount" else "--target"
        yield "%s|%s" % (slot, target), [("%s/%d|%s" % (slot, e, target),
                      [cmd, "--group", group.format(e=e, e6=e - 6),
                       flag, target, "--json"], h1(e)) for e in EXPONENTS]


def pool(workload: str):
    """Every slot of a workload: a list of (slot id, variants), where a
    variant is a list of ops (one op, or the three ranks of a molien
    target)."""
    if workload == "molien-sweep":
        # every target at r = 1, 2, 3 in that order: r = 1 enumerates W
        # cold, r = 2 and 3 hit the Weyl cache
        return [(t, [[_analyze("Z^%d|%s" % (r, t), "Z^%d" % r, t)
                      for r in (1, 2, 3)]]) for t in MOLIEN_TARGETS]
    if workload == "quotient-verdicts":
        return [("%s|%s" % (sid, t),
                 [[_analyze("%s|%s" % (sid, t), text, t)] for text in texts])
                for sid, texts, _ in QUOTIENT_SOURCES
                for t in QUOTIENT_TARGETS]
    if workload == "cli-presentations":
        slots = []
        for n in CLASS2_RANKS:
            for cmd, target in CLASS2_COMMANDS:
                pin = "class2-%d|%s|%s" % (n, cmd, target)
                slots.append((pin, [[_cli(pin, [
                    cmd, "--group", free_class2_text(n, style),
                    "--target", target, "--json"])] for style in NAME_STYLES]))
        for slot, variants in _exponent_slots():
            slots.append((slot, [[_cli(pin, argv)]
                                 for pin, argv, _ in variants]))
        for group, _ in TORSION_GROUPS:
            for cmd, target in (("analyze", "GL2"), ("pi1", "SO7")):
                pin = "torsion|%s|%s|%s" % (group, cmd, target)
                slots.append((pin, [[_cli(pin, [cmd, "--group", group,
                                                 "--target", target,
                                                 "--json"])]]))
        for group, _ in HOMCOUNT_GROUPS:
            for finite in FINITE_TARGETS:
                pin = "homcount|%s|%s" % (group, finite)
                slots.append((pin, [[_cli(pin, ["homcount", "--group", group,
                                                "--finite", finite,
                                                "--json"])]]))
        return slots
    raise ValueError("unknown workload %r (choose from %s)"
                     % (workload, ", ".join(WORKLOADS)))


def _analyze(pin, group, target):
    return {"pin": pin, "kind": "analyze", "group": group, "target": target}


def _cli(pin, argv):
    return {"pin": pin, "kind": "cli", "argv": argv}


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of one pass: one variant per slot, interleaved in
    seeded order; the ops of one variant keep their order, so that which
    op pays a cold cache does not depend on the seed."""
    rng = random.Random("%s:%d" % (workload, seed))
    slots = pool(workload)
    chosen = [iter(variants[rng.randrange(len(variants))])
              for _, variants in slots]
    turns = [i for i, (_, variants) in enumerate(slots) for _ in variants[0]]
    rng.shuffle(turns)
    return [next(chosen[i]) for i in turns]


def op_list_bytes(workload: str, seed: int) -> bytes:
    return json.dumps(generate(workload, seed), sort_keys=True).encode()


def closed_form_h1():
    """Pin key -> closed-form H_1 (rank, torsion chain) for every slot whose
    source group has one written down here."""
    out = {}
    for sid, _, h1 in QUOTIENT_SOURCES:
        for t in QUOTIENT_TARGETS:
            out["%s|%s" % (sid, t)] = h1
    for n in CLASS2_RANKS:
        for cmd, target in CLASS2_COMMANDS:
            out["class2-%d|%s|%s" % (n, cmd, target)] = (n, ())
    for _, variants in _exponent_slots():
        for pin, _, h1 in variants:
            out[pin] = h1
    for group, h1 in TORSION_GROUPS:
        for cmd, target in (("analyze", "GL2"), ("pi1", "SO7")):
            out["torsion|%s|%s|%s" % (group, cmd, target)] = h1
    for group, h1 in HOMCOUNT_GROUPS:
        for finite in FINITE_TARGETS:
            out["homcount|%s|%s" % (group, finite)] = h1
    for t in MOLIEN_TARGETS:
        for r in (1, 2, 3):
            out["Z^%d|%s" % (r, t)] = (r, ())
    return out
