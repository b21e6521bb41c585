#!/usr/bin/env python3
"""Checks gt_perfbench's printed output against BENCHMARK.json.

Usage: test_contract.py <gt_perfbench binary> <BENCHMARK.json>

Runs every workload briefly, untraced and traced, and checks that the last
line names exactly the declared metrics, in order, with their units; that
the outputs pass their checks; and that a traced run's span ledger sums to
its wall time with a small residual.
"""

import json
import os
import subprocess
import sys
import tempfile

RESIDUAL_LIMIT = 0.05


def run(binary, workload, trace, work_dir):
    spans = os.path.join(work_dir, f"spans-{workload}.json")
    cmd = [binary, "--workload", workload, "--seed", "5", "--seconds", "0.1",
           "--trace", str(trace), "--work-dir", work_dir, "--spans-out", spans]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), spans


def main():
    binary, benchmark_json = sys.argv[1], sys.argv[2]
    with open(benchmark_json) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory() as work_dir:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                where = f"{workload} --trace {trace}"
                header, result, spans_path = run(binary, workload, trace, work_dir)
                expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                       f"{where}: result keys {sorted(result)}")
                printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
                wanted = [(m["name"], m["unit"]) for m in declared]
                expect(printed == wanted, f"{where}: metrics {printed} != {wanted}")
                expect(all(isinstance(m["value"], (int, float))
                           for m in result["metrics"].values()),
                       f"{where}: non-numeric metric value")
                expect(result["correct"] is True and result["failed"] == 0,
                       f"{where}: checks failed: "
                       f"{[c for c in header['checks'] if not c['pass']]}")
                expect(result["attempted"] >= 1, f"{where}: nothing attempted")
                manifest = header["manifest"]
                for key in ("git_sha", "build_type", "compiler", "cxx_flags", "cpu_model",
                            "nproc", "seed", "params"):
                    expect(key in manifest, f"{where}: manifest lacks {key}")
                if trace == 0:
                    expect(all(result["metrics"][m["name"]]["value"] > 0 for m in declared),
                           f"{where}: an end-to-end metric reads 0")
                    continue
                with open(spans_path) as f:
                    spans = json.load(f)["spans"]
                wall = spans[0]["total_ns"]
                residual = spans[0]["self_ns"]
                expect(sum(s["self_ns"] for s in spans) == wall,
                       f"{where}: self times do not sum to the traced wall")
                expect(0 <= residual <= RESIDUAL_LIMIT * wall,
                       f"{where}: residual {residual} ns of {wall} ns")
                frac = result["metrics"]["trace.residual_frac"]["value"]
                expect(abs(frac - residual / wall) < 1e-9, f"{where}: residual_frac {frac}")

    for failure in failures:
        print("FAIL:", failure)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
