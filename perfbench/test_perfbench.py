"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from perfbench import gate, pin, run, spans, workloads

ROOT = Path(__file__).resolve().parents[1]


def test_same_seed_gives_byte_identical_op_lists():
    code = ("import sys; sys.path.insert(0, %r); from perfbench import "
            "workloads; sys.stdout.buffer.write(workloads.op_list_bytes(%r, 7))")
    for w in workloads.WORKLOADS:
        here = workloads.op_list_bytes(w, 7)
        assert here == workloads.op_list_bytes(w, 7)
        assert here != workloads.op_list_bytes(w, 8)
        # a fresh interpreter with another hash seed draws the same list
        there = subprocess.run(
            [sys.executable, "-c", code % (str(ROOT), w)], check=True,
            capture_output=True, env=dict(os.environ, PYTHONHASHSEED="123"),
        ).stdout
        assert there == here


def test_every_seed_runs_every_slot_and_every_op_has_a_pin():
    pins = gate.load_pins()
    for w in workloads.WORKLOADS:
        slots = workloads.pool(w)
        for seed in range(20):
            ops = workloads.generate(w, seed)
            assert all(op["pin"] in pins for op in ops)
            assert len(ops) == sum(len(v[0]) for _, v in slots)
        for _, variants in slots:
            assert all(op["pin"] in pins for v in variants for op in v)


def test_tail_rule_counts_failures_as_infinitely_slow():
    assert run.tail_stat(list(range(1, 101))) == (90, 90.0, 100)
    # ten samples beyond the reported one, whatever their values
    value, pct, n = run.tail_stat([1.0] * 17 + [math.inf] * 3)
    assert (value, pct, n) == (1.0, 50.0, 20)
    value, _, _ = run.tail_stat([1.0] * 8 + [math.inf] * 12)
    assert value == math.inf
    # below eleven samples the median stands in
    assert run.tail_stat([3.0, 1.0, 2.0]) == (2.0, 200.0 / 3, 3)


def test_scaling_uses_the_references_around_each_time():
    # refs[i] precedes times[i]; a slow stretch doubles the reference time
    refs = [1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    scaled = run.scale_to_reference([10.0] * 5, refs)
    assert scaled[0] == 10.0                  # median of 1, 1, 2
    assert scaled[1] == 10.0 / 1.5            # median of 1, 1, 2, 2
    assert scaled[3] == scaled[4] == 5.0      # all neighbours at 2


def _span(name, start, end, parent, extra=None):
    return [name, start, end, parent, 0, extra]


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("op", 0.0, 10.0, -1),           # 0
        _span("a", 1.0, 4.0, 0),              # 1
        _span("b", 5.0, 9.0, 0),              # 2
        _span("c", 6.0, 7.0, 2),              # 3
        _span("d", 6.5, 8.0, 2),              # 4: overlaps c
        _span("e", 8.5, 9.5, 2),              # 5: sticks out of b
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 1.5, 1.0, 1.5, 1.0]


def test_layer_metrics_on_a_synthetic_verdict():
    tree = [
        _span("op", 0.0, 0.010, -1),
        _span("report.analyze", 0.001, 0.009, 0),
        _span("finitehom.verdict", 0.002, 0.008, 1, {"witness": False}),
        _span("finitehom.q8", 0.002, 0.003, 2),
        _span("finitehom.search", 0.003, 0.007, 2, {"witness": True}),
        _span("finitehom.search", 0.003, 0.006, 4,
              {"witness": True, "homs": 64}),
        _span("finitehom.search", 0.0075, 0.008, 2, {"exc": "TooLarge"}),
        _span("rootdata.weyl", 0.0085, 0.009, 1, {"hit": True, "elements": 0}),
    ]
    m = spans.layer_metrics(tree)
    assert m["finitehom.searches"] == 2
    assert m["finitehom.search_limit_hits"] == 1
    assert m["finitehom.homs_enumerated"] == 64
    assert m["finitehom.q8_builds"] == 1
    assert m["finitehom.witness_used_frac"] == 0.0  # found, then discarded
    assert m["rootdata.weyl_cache_hits"] == 1
    assert math.isclose(m["finitehom.search_ms"], 4.5)
    assert math.isclose(m["finitehom.verdict_ms"], 0.5)
    assert math.isclose(m["report.analyze_self_ms"], 1.5)


def test_gate_accepts_any_decision_of_a_pinned_unknown():
    assert gate.compare({"status": "Unknown", "r": 2},
                        {"status": "Connected", "r": 2}) == []
    assert gate.compare({"status": "Disconnected"}, {"status": "Connected"})
    assert gate.compare({"poincare_hom": [1, 0, 1]}, {"poincare_hom": [1, 1]})


def test_pins_agree_with_closed_forms_and_a_wrong_pin_is_caught():
    pins = gate.load_pins()
    assert gate.referee_problems(pins) == []
    for key, field, value in (
            ("Z^1|SO8", "poincare_hom", [1, 0, 0, 1]),
            ("Z^2|PGL6", "pi1_hom", {"rank": 0, "torsion": [6]}),
            ("exp-pi1/60000|PGL3", "r", 2),
            ("homcount|Z^3|q8", "total", 175),
            ("F(2,3)|Sp4", "status", "Unknown")):
        bad = copy.deepcopy(pins)
        bad[key][field] = value
        assert gate.referee_problems(bad), key


def test_pins_agree_with_the_projector_oracle():
    problems, checked = pin.oracle_problems(gate.load_pins(), budget=10**5)
    assert problems == [] and checked >= 30


def test_traced_pass_outputs_equal_untraced_pass_outputs():
    small = ("SL5", "SO8", "Spin8", "SO9", "Sp8", "SL3 x SL4")
    ops = []
    for w in workloads.WORKLOADS:
        cheap = [op for op in workloads.generate(w, 3)
                 if w != "molien-sweep" or op["target"] in small]
        ops += cheap[:6]
    plain = run.run_pass(ops, False)
    traced = run.run_pass(ops, True)
    assert traced["spans"] and traced["missing"] == []
    assert [r["out"] for r in traced["results"]] == \
        [r["out"] for r in plain["results"]]
    assert run.check_outputs(ops, plain, gate.load_pins()) == []
    m = spans.layer_metrics(traced["spans"])
    assert m["parsing.parse_ms"] > 0


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(spans.PER_LAYER)
