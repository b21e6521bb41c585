#!/usr/bin/env python3
"""Checks the observability exports of the sweep benches.

A sweep bench runs several servers one after another under one export
session. Each run must fold into the session through a scope of its own
(obs::ShardScope), so the exported record is one coherent run:

  - no ring instrument in --metrics-out reports a nonzero `dropped_late`
    (a run that restarted its clock in an already advanced ring drops its
    bins as late);
  - the --flight-out stream's `t` strictly increases (a run that sampled
    into the shared recorder restarted the clock at the first period);
  - each run goes through the run harness (core::RunHarnessed): the
    --flight-out stream is not empty and --metrics-out counts
    `sim.events_executed` (a run that drives its own simulator samples
    nothing and counts no events).

Usage: sweep_exports_test.py <bench-dir> <out-dir>

Runs each sweep bench in <bench-dir> at GAMETRACE_DURATION=120 with
GAMETRACE_VERBOSE=0, writes the exports under <out-dir> and exits
nonzero on the first bench that fails a check.
"""

import json
import os
import subprocess
import sys

SWEEP_BENCHES = (
    "ablation_tick_sync",
    "ablation_qoe_selftuning",
    "ablation_background_traffic",
    "ablation_multihop",
)


def check_bench(bench_dir, out_dir, name):
    """Returns the list of problems found in one bench's exports."""
    metrics_path = os.path.join(out_dir, name + ".metrics.json")
    flight_path = os.path.join(out_dir, name + ".flight.jsonl")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GAMETRACE_")}
    env.update(GAMETRACE_DURATION="120", GAMETRACE_VERBOSE="0")
    run = subprocess.run(
        [os.path.join(bench_dir, name), "--metrics-out=" + metrics_path,
         "--flight-out=" + flight_path],
        env=env, cwd=out_dir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, check=False)
    if run.returncode != 0:
        return [f"exited with {run.returncode}: {run.stderr.strip()}"]

    problems = []
    with open(metrics_path, encoding="utf-8") as fh:
        metrics = json.load(fh)
    if "sim.events_executed" not in metrics.get("counters", {}):
        problems.append("no sim.events_executed counter: a run skipped the run harness")
    rings = metrics.get("rings", {})
    for ring, body in sorted(rings.items()):
        if body["dropped_late"] != 0:
            problems.append(f"ring {ring} dropped_late = {body['dropped_late']}")

    previous = None
    with open(flight_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            t = json.loads(line)["t"]
            if previous is not None and not t > previous:
                problems.append(f"flight line {line_no}: t = {t} after t = {previous}")
            previous = t
    if previous is None:
        problems.append("flight stream is empty: a run skipped the run harness")
    return problems


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench_dir, out_dir = argv[1], argv[2]
    os.makedirs(out_dir, exist_ok=True)
    failed = False
    for name in SWEEP_BENCHES:
        problems = check_bench(bench_dir, out_dir, name)
        print(f"{name}: {'ok' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
