"""nilrep benchmark: one workload, one seed, closed loop.

    python3 perfbench/run.py --workload molien-sweep --seed 1 \
        --seconds 15 --trace 0

One client sends one op at a time, and one worker process runs at a
time.  Every pass is a fresh interpreter (perfbench/worker.py) that runs
the seeded op list once, so per-process caches start cold in every pass,
as they do for every CLI call.  Passes repeat until --seconds have
elapsed, and at least twice untraced; the last pass always completes.
Every output is checked against perfbench/pins.json.

--trace 0 prints the end-to-end metrics: setup_s (spawn to
``import nilrep.cli`` returning, median of several spawns),
ok_ops_per_s, op_p50_ms, op_tail_ms and peak_rss_mb.  --trace 1
alternates untraced and traced passes and prints the per-layer metrics
of spans.PER_LAYER, medians over the traced passes.  The last line of
standard output is a JSON object with correct, attempted, failed and
metrics.  The exit code is 0 only when every output matched its pin.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import gate, spans, workloads  # noqa: E402
from perfbench.worker import time_reference  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ok_ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Timings are scaled to the machine speed at which worker.reference()
# takes this long (see README.md, "Machine speed").
REF_NOMINAL_MS = 1.0
SETUP_SAMPLES = 21
# An untraced run makes at least two passes, so its sample count does not
# flip between one and two passes when the machine runs a little slower.
MIN_PASSES = 2
# No pass starts that would, at the last pass's pace, end the run after
# this long; the process must exit within 180 s.
RUN_BUDGET_S = 140
PASS_TIMEOUT_S = 130


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


def setup_probe() -> float:
    """Seconds from spawning an interpreter until ``import nilrep.cli``
    returns in it."""
    code = ("import sys; sys.path.insert(0, %r); import nilrep.cli; "
            "sys.stdout.write('ready\\n'); sys.stdout.flush()" % str(SRC))
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != b"ready\n" or proc.returncode != 0:
        raise BenchError("import nilrep.cli failed: %s"
                         % err.decode(errors="replace")[-2000:])
    return elapsed


def run_pass(ops, traced: bool) -> dict:
    """One pass of the op list in a fresh worker interpreter."""
    request = json.dumps({"root": str(ROOT), "src": str(SRC), "ops": ops,
                          "trace": traced})
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py")],
                          input=request, capture_output=True, text=True,
                          cwd=ROOT, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("worker exited %d: %s"
                         % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout)


def tail_stat(latencies) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it.  Failed ops enter as math.inf, i.e. as
    infinitely slow.  Below eleven samples no percentile has ten beyond
    it, and the median stands in."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n >= 11 else (n - 1) // 2
    return ordered[k], 100.0 * (k + 1) / n, n


def check_outputs(ops, result, pins) -> list[str]:
    """Gate one pass; a structured error is a failed op, not a mismatch."""
    problems = []
    for op, res in zip(ops, result["results"]):
        if res["status"] == "crash":
            problems.append("%s crashed:\n%s" % (op["pin"], res["out"]))
        elif res["status"] == "ok":
            diff = gate.compare(pins[op["pin"]], gate.normalize(op, res["out"]))
            problems += ["%s: %s" % (op["pin"], d) for d in diff]
    return problems


def pin_problems(ops, pins) -> list[str]:
    """Pins that disagree with a closed form, and ops without a pin."""
    return (["pins.json: %s" % p for p in gate.referee_problems(pins)]
            + ["no pin for %s" % op["pin"] for op in ops
               if op["pin"] not in pins])


def measure(ops, pins, seconds: int, trace: bool) -> dict:
    setup, setup_ref = [], []
    if not trace:
        setup_probe()  # the first spawn also writes bytecode caches
        for _ in range(SETUP_SAMPLES):
            setup_ref.append(time_reference())
            setup.append(setup_probe())
        setup_ref.append(time_reference())

    plain, traced = [], []
    start = last = perf_counter()
    min_passes = 1 if trace else MIN_PASSES
    while len(plain) < min_passes or perf_counter() - start < seconds:
        now = perf_counter()
        if plain and now - start + (now - last) > RUN_BUDGET_S:
            break
        last = now
        plain.append(run_pass(ops, False))
        if trace:
            traced.append(run_pass(ops, True))
    passes = plain + traced
    problems = [p for res in passes for p in check_outputs(ops, res, pins)]
    results = [r for res in passes for r in res["results"]]
    return {"problems": problems, "setup": setup, "setup_ref": setup_ref,
            "plain": plain, "traced": traced,
            "attempted": len(results),
            "failed": sum(r["status"] == "failed" for r in results)}


def scale_to_reference(times, refs) -> list[float]:
    """Each time scaled to the nominal machine speed.  refs[i] is the
    reference time taken just before times[i], and refs has one more
    entry, taken after the last; the local speed is the median of the
    references just before and after a time and one more on each side."""
    return [t * REF_NOMINAL_MS / statistics.median(refs[max(0, i - 1):i + 3])
            for i, t in enumerate(times)]


def scaled_times(res) -> list[float]:
    """One pass's op latencies scaled to the nominal machine speed."""
    return scale_to_reference(
        [r["ms"] for r in res["results"]],
        [r["ref_ms"] for r in res["results"]] + [res["ref_end_ms"]])


def end_to_end(m: dict) -> tuple[dict, str]:
    latencies, rates = [], []
    for res in m["plain"]:
        scaled = scaled_times(res)
        ok = [t for t, r in zip(scaled, res["results"]) if r["status"] == "ok"]
        latencies += ok + [math.inf] * (len(scaled) - len(ok))
        rates.append(len(ok) / (sum(scaled) / 1e3))
    tail, pct, n = tail_stat(latencies)
    values = {
        "setup_s": statistics.median(scale_to_reference(m["setup"],
                                                        m["setup_ref"])),
        "ok_ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail,
        "peak_rss_mb": max(res["rss_mb"] for res in m["plain"]),
    }
    wall = [r["ms"] for res in m["plain"] for r in res["results"]]
    note = ("op_tail_ms is p%.1f of %d ops in %d passes; setup_s is the "
            "median of %d spawns; unscaled wall clock: op p50 %.4g ms, "
            "setup %.4g s, reference loop %.3g ms"
            % (pct, n, len(m["plain"]), len(m["setup"]),
               statistics.median(wall), statistics.median(m["setup"]),
               statistics.median(r["ref_ms"] for res in m["plain"]
                                 for r in res["results"])))
    return values, note


def per_layer(m: dict) -> tuple[dict, str]:
    per_pass = [spans.layer_metrics(res["spans"]) for res in m["traced"]]
    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    values["trace.overhead_frac"] = (
        statistics.median(sum(scaled_times(res)) for res in m["traced"])
        / statistics.median(sum(scaled_times(res)) for res in m["plain"]) - 1)
    op_ms = statistics.median(
        sum(end - start for name, start, end, *_ in res["spans"]
            if name == spans.OP) * 1e3 for res in m["traced"]) or 1.0
    share = {layer: sum(values[k] for k, unit in spans.PER_LAYER
                        if k.startswith(layer + ".") and unit == "ms") / op_ms
             for layer in ("parsing", "groups", "snf", "rootdata",
                           "invariants", "finitehom", "report", "cli")}
    note = "self-time share of op time in %d traced passes: %s" % (
        len(m["traced"]), ", ".join("%s %.1f%%" % (k, 100 * v)
                                    for k, v in share.items()))
    missing = sorted({b for res in m["traced"] for b in res["missing"]})
    if missing:
        note += "; bindings not found: %s" % ", ".join(missing)
    return values, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nilrep" / "__init__.py").is_file():
        print("no nilrep sources under %s" % SRC, file=sys.stderr)
        return 2
    ops = workloads.generate(args.workload, args.seed)
    pins = gate.load_pins()
    problems = pin_problems(ops, pins)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    try:
        m = measure(ops, pins, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    if args.trace:
        values, note = per_layer(m)
        units = spans.PER_LAYER
    else:
        values, note = end_to_end(m)
        units = END_TO_END
    print("%s seed %d: %s" % (args.workload, args.seed, note))
    for p in m["problems"][:20]:
        print("MISMATCH %s" % p, file=sys.stderr)
    print(json.dumps({
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0 if not m["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
