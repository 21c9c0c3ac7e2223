"""Record the expected output of every pool entry into pins.json.

    python3 perfbench/pin.py

Runs every variant of every slot of every workload once, in one worker
pass as the benchmark runs them, with the nilrep under src/; checks the
outputs against the closed-form referees in gate.py and, where the
projector oracle's cost C(2d, d) * |W| (d = r * rank) is at most
ORACLE_BUDGET, against nilrep.exterior_invariant_dims_oracle; then
writes pins.json.  It exits non-zero, writing nothing, if any check
fails.  Pins are taken once, at
the commit that defines the benchmark, and later commits are measured
against them.
"""

from __future__ import annotations

import json
import sys
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gate, run, workloads  # noqa: E402

ORACLE_BUDGET = 2 * 10**6


def all_ops():
    seen = set()
    for workload in workloads.WORKLOADS:
        for _, variants in workloads.pool(workload):
            for op in (op for variant in variants for op in variant):
                key = json.dumps(op, sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    yield op


def oracle_problems(pins: dict, budget: int) -> tuple[list[str], int]:
    """Compare each pinned character-variety polynomial with the projector
    oracle where its cost is within budget; returns (problems, checked)."""
    from nilrep import (build_root_datum, enumerate_weyl,
                        exterior_invariant_dims_oracle, parse_reductive_spec)
    problems, checked = [], 0
    for key, pin in sorted(pins.items()):
        if pin.get("poincare_char") is None:
            continue
        r = pin.get("r", pin.get("rank_h1"))
        rd = build_root_datum(parse_reductive_spec(gate.pin_target(key)))
        d = r * rd.rank
        if 2 ** d > 4096 or comb(2 * d, d) * rd.weyl_order() > budget:
            continue
        dims = exterior_invariant_dims_oracle(enumerate_weyl(rd), r)
        want = list(dims)
        while want and want[-1] == 0:
            want.pop()
        if want != pin["poincare_char"]:
            problems.append("%s: pinned %r, oracle %r"
                            % (key, pin["poincare_char"], want))
        checked += 1
    return problems, checked


def write_pins(pins: dict) -> None:
    """pins.json with one pin per line, in key order."""
    with open(gate.PINS_PATH, "w") as fh:
        fh.write("{\n%s\n}\n" % ",\n".join(
            "%s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
            for k, v in sorted(pins.items())))


def main() -> int:
    ops = list(all_ops())
    pins = {}
    for op, res in zip(ops, run.run_pass(ops, False)["results"]):
        if res["status"] != "ok":
            print("%s: %s" % (op["pin"], res["out"]), file=sys.stderr)
            return 1
        got = gate.normalize(op, res["out"])
        if pins.setdefault(op["pin"], got) != got:
            print("%s: variants disagree" % op["pin"], file=sys.stderr)
            return 1
    problems = gate.referee_problems(pins)
    oracle, checked = oracle_problems(pins, ORACLE_BUDGET)
    for line in problems + oracle:
        print(line, file=sys.stderr)
    if problems or oracle:
        return 1
    write_pins(pins)
    print("pinned %d entries; %d checked against the oracle"
          % (len(pins), checked))
    return 0


if __name__ == "__main__":
    sys.exit(main())
