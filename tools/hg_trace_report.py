#!/usr/bin/env python3
"""Renders a top-K hot-node table from a hiergat Chrome trace JSON.

Usage: hg_trace_report.py TRACE.json [--top K] [--trace ID]

TRACE.json is the file written by `--trace_out=PATH` (bench binaries) or
`TraceRecorder::WriteChromeTrace`. Complete events ("ph":"X") are
grouped by span name and ranked by total duration; spans stamped with
cost estimates (graph replay nodes) additionally show FLOPs, bytes
moved, and achieved GFLOP/s. With --trace ID only spans belonging to
that request-scoped trace id are counted. The hiergatTrace footer is
used to flag ring-buffer truncation. Stdlib-only on purpose.
"""

import argparse
import json
import sys


def fmt_count(value):
    """1234567 -> '1.23M' (keeps the table narrow)."""
    for threshold, suffix in ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= threshold:
            return f"{value / threshold:.2f}{suffix}"
    return f"{value:.0f}" if float(value).is_integer() else f"{value:.2f}"


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("trace")
    parser.add_argument("--top", type=int, default=15, metavar="K")
    parser.add_argument(
        "--trace", dest="trace_id", type=int, default=None, metavar="ID",
        help="only count spans with args.trace == ID",
    )
    args = parser.parse_args(argv[1:])

    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 2
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        print(f"error: {args.trace}: no traceEvents array", file=sys.stderr)
        return 2

    # name -> [count, total_us, flops, bytes]; ts/dur are microseconds in
    # the Chrome trace format.
    groups = {}
    trace_ids = set()
    considered = 0
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        event_args = event.get("args") or {}
        tid = event_args.get("trace")
        if tid is not None:
            trace_ids.add(tid)
        if args.trace_id is not None and tid != args.trace_id:
            continue
        considered += 1
        row = groups.setdefault(event.get("name", "?"), [0, 0.0, 0, 0])
        row[0] += 1
        row[1] += float(event.get("dur", 0.0))
        row[2] += int(event_args.get("flops", 0))
        row[3] += int(event_args.get("bytes", 0))

    footer = doc.get("hiergatTrace") or {}
    dropped = footer.get("dropped_events", 0)
    scope = (
        f"trace id {args.trace_id}" if args.trace_id is not None else
        f"{len(trace_ids)} request trace id(s)"
    )
    print(
        f"{args.trace}: {considered} spans, {len(groups)} distinct names, "
        f"{scope}"
    )
    if dropped:
        print(
            f"warning: {dropped} events dropped by the trace ring "
            "(oldest-first); totals below undercount early activity"
        )

    ranked = sorted(groups.items(), key=lambda kv: kv[1][1], reverse=True)
    header = (
        f"{'span':<40} {'count':>8} {'total ms':>10} {'avg us':>9} "
        f"{'flops':>9} {'bytes':>9} {'GFLOP/s':>8}"
    )
    print()
    print(header)
    print("-" * len(header))
    for name, (count, total_us, flops, nbytes) in ranked[: args.top]:
        avg_us = total_us / count if count else 0.0
        left = f"{name:<40} {count:>8} {total_us / 1e3:>10.3f} {avg_us:>9.1f}"
        if flops:
            # A span with cost estimates but zero recorded time (e.g. a
            # ring-truncated or untimed replay) has no meaningful rate:
            # show '-' rather than a bogus 0.00.
            if total_us > 0:
                gflops = flops / (total_us * 1e-6) / 1e9
                rate = f"{gflops:>8.2f}"
            else:
                rate = f"{'-':>8}"
            print(
                f"{left} {fmt_count(flops):>9} {fmt_count(nbytes):>9} "
                f"{rate}"
            )
        else:
            print(f"{left} {'-':>9} {'-':>9} {'-':>8}")
    hidden = len(ranked) - min(len(ranked), args.top)
    if hidden > 0:
        print(f"... {hidden} more span name(s); raise --top to see them")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
