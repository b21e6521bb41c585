#!/usr/bin/env python3
"""Render a fleet scheduler critical-path report (--sched-report-out) for humans.

Shows where each worker's wall-clock went as a stacked utilization bar
(work / merge / admission-stall / idle), the top straggler units with
their shard ranges, and any scheduler SLO alerts the report carries. With --timeline it also
sanity-checks the Perfetto trace (--sched-trace-out) against the report:
events per worker track and the bounded-buffer drop count.

The report is the machine-readable side of DESIGN.md "Fleet scheduling:
timeline tracing and critical-path attribution"; per-worker components
sum to each worker's measured span exactly, so the bars are a complete
account of the makespan, not a sample.

Usage:
    fleet_view.py sched_report.json
    fleet_view.py sched_report.json --timeline fleet_timeline.json
    fleet_view.py sched_report.json --width 60

Exit status 0 on success, 1 for unreadable/malformed input.
"""

import argparse
import json
import sys

from viz_common import format_ns, print_table, stacked_bar

# Stacked-bar segment order and glyphs: busy components first, then the
# waits. Mirrors SchedReport::Worker's decomposition.
COMPONENTS = ("work_ns", "merge_ns", "stall_ns", "idle_ns")
COMPONENT_CHARS = ("█", "▓", "░", " ")
LEGEND = "█ work  ▓ merge  ░ admission-stall  (blank) idle"


def read_json(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        sys.exit(f"fleet_view: cannot read {what} {path}: {err}")


def check_report(report, path):
    for key in ("workers", "makespan_ns", "per_worker"):
        if key not in report:
            sys.exit(f"fleet_view: {path}: missing '{key}' - not a sched report?")
    return report


def print_workers(report, width):
    print(f"worker utilization ({LEGEND}):")
    rows = []
    for w in report["per_worker"]:
        span = w.get("span_ns", 0)
        fractions = [w.get(c, 0) / span if span else 0.0 for c in COMPONENTS]
        rows.append([
            f"  w{w['worker']}",
            "|" + stacked_bar(fractions, COMPONENT_CHARS, width) + "|",
            f"busy {100.0 * w.get('busy_ratio', 0):.1f}%",
            f"span {format_ns(span)}",
            f"units {w.get('units', 0)}",
            f"shards {w.get('shards', 0)}",
        ])
    print_table(rows)


def print_stragglers(stragglers):
    if not stragglers:
        print("stragglers: none recorded")
        return
    print("stragglers (longest units first):")
    rows = []
    for s in stragglers:
        first = s.get("first_shard", 0)
        rows.append([
            f"  unit {s.get('unit', '?')}",
            f"shards [{first},{first + s.get('shard_count', 0)})",
            f"on w{s.get('worker', '?')}",
            format_ns(s.get("dur_ns", 0)),
        ])
    print_table(rows)


def print_alerts(alerts):
    if not alerts:
        print("scheduler alerts: none")
        return
    print(f"{len(alerts)} scheduler alert(s):")
    for alert in alerts:
        print(f"  {alert.get('rule', '?')}: {alert.get('value', 0):g} vs "
              f"{alert.get('threshold', 0):g}  ({alert.get('description', '')})")


def print_timeline(path, report):
    doc = read_json(path, "timeline")
    events = doc.get("traceEvents")
    if events is None:
        sys.exit(f"fleet_view: {path}: no 'traceEvents' - not a Chrome trace?")
    per_track = {}
    for event in events:
        per_track[event.get("pid", 0)] = per_track.get(event.get("pid", 0), 0) + 1
    dropped = (doc.get("otherData") or {}).get("dropped_events", 0)
    workers = report.get("workers", 0)
    print(f"timeline: {len(events)} events across {len(per_track)} worker track(s), "
          f"{dropped} dropped")
    if per_track and workers and len(per_track) != workers:
        print(f"  note: report has {workers} workers but the timeline has "
              f"{len(per_track)} tracks (saturated tracks drop newest-first)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="critical-path JSON written by --sched-report-out")
    parser.add_argument("--timeline", default=None,
                        help="worker timeline written by --sched-trace-out, cross-checked")
    parser.add_argument("--width", type=int, default=40,
                        help="utilization bar width in cells (default 40)")
    args = parser.parse_args()

    report = check_report(read_json(args.report, "report"), args.report)
    makespan = report.get("makespan_ns", 0)
    print(f"fleet critical path: {report['workers']} worker(s), "
          f"makespan {format_ns(makespan)}")
    print(f"  imbalance {report.get('imbalance_ratio', 0):.3f} (max busy / mean busy)   "
          f"admission stall {100.0 * report.get('admission_stall_fraction', 0):.1f}% "
          f"of summed worker-time")
    print_workers(report, max(args.width, 8))
    print_stragglers(report.get("stragglers", []))
    print_alerts(report.get("alerts", []))
    if args.timeline:
        print_timeline(args.timeline, report)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # piping into head is fine
        sys.exit(0)
