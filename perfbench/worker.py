"""One measured pass, run in a fresh interpreter.

Reads a JSON request {"root", "src", "ops", "trace"} on stdin, runs every
op once through nilrep's public functions, one at a time, and writes
{"results", "ref_end_ms", "rss_mb", "spans", "missing"} as JSON on
stdout.  Each op is timed with perf_counter around the call, and so
is the reference loop run just before it (and once after the last op);
with "trace" set, the layer bindings are wrapped in spans first (see
spans.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def reference() -> int:
    """Fixed pure-Python work, about 1 ms on a 2020s x86 core.  It is timed
    before every op so that results can be scaled to one machine speed.
    It touches no nilrep code, so no change to nilrep moves it, and it
    allocates no containers, so it never triggers a garbage collection
    whose cost would depend on what the ops left on the heap."""
    acc = 0
    for i in range(8000):
        acc = (acc * 31 + i * (i % 13)) % 1000003
    return acc


def time_reference() -> float:
    """Milliseconds of one reference() call, after one untimed call so the
    timed one does not pay for whatever ran before it."""
    reference()
    t0 = perf_counter()
    reference()
    return (perf_counter() - t0) * 1e3


def main() -> int:
    req = json.load(sys.stdin)
    sys.path[:0] = [req["src"], req["root"]]
    import nilrep
    import nilrep.cli
    if not os.path.abspath(nilrep.__file__).startswith(
            os.path.abspath(req["src"]) + os.sep):
        print("nilrep was imported from %s, not from %s"
              % (nilrep.__file__, req["src"]), file=sys.stderr)
        return 2
    from perfbench.spans import OP, Tracer

    parse_group, parse_target = nilrep.parse_group_spec, nilrep.parse_reductive_spec
    analyze, cli_main = nilrep.analyze, nilrep.cli.main
    tracer = None
    if req["trace"]:
        tracer = Tracer()
        tracer.install()
        parse_group = tracer.wrap(parse_group, "parsing.parse")
        parse_target = tracer.wrap(parse_target, "parsing.parse")
        analyze = tracer.wrap(analyze, "report.analyze")
        cli_main = tracer.wrap(cli_main, "cli.main")

    def run_op(op):
        if op["kind"] == "analyze":
            report = analyze(parse_group(op["group"]), parse_target(op["target"]))
            out = report.to_json_dict()
            # the JSON report has no reason code; the Verdict object does
            out["verdict"]["reason_code"] = getattr(report.verdict,
                                                    "reason_code", None)
            return 0, out
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(op["argv"])
        if code == 0:
            return 0, out.getvalue()
        return code, (out.getvalue() + err.getvalue()).strip()

    if tracer:
        run_op = tracer.wrap(run_op, OP)

    results = []
    for i, op in enumerate(req["ops"]):
        if tracer:
            tracer.op = i
        ref_ms = time_reference()
        t0 = perf_counter()
        try:
            code, out = run_op(op)
        except nilrep.NilrepError as exc:
            code, out = 3, "%s: %s" % (type(exc).__name__, exc)
        except (Exception, SystemExit):
            code, out = None, traceback.format_exc()
        ms = (perf_counter() - t0) * 1e3
        if code == 0 and op["kind"] == "cli":
            out = json.loads(out)  # the benchmark's work, outside the timer
        # exits 2 and 3 are structured errors: a failed op, not a crash
        status = "ok" if code == 0 else "failed" if code in (2, 3) else "crash"
        results.append({"pin": op["pin"], "ms": ms, "ref_ms": ref_ms,
                        "status": status, "out": out})
    ref_end_ms = time_reference()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump({"results": results, "ref_end_ms": ref_end_ms, "rss_mb": rss_mb,
               "spans": tracer.spans if tracer else None,
               "missing": tracer.missing if tracer else []},
              sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
