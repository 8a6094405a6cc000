#!/usr/bin/env python3
"""Validates hiergat bench JSON files against the hiergat-bench-v1 schema.

Usage: check_bench_json.py FILE [FILE...]

Exits non-zero with a per-file message on the first violation found in
each file. The schema is documented in bench/bench_common.h and
DESIGN.md §8; this validator is stdlib-only on purpose.
"""

import json
import math
import sys

SCHEMA = "hiergat-bench-v1"


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    return False


def is_finite_number(value):
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(path, f"unreadable or invalid JSON: {exc}")

    if not isinstance(doc, dict):
        return fail(path, "top level must be a JSON object")
    if doc.get("schema") != SCHEMA:
        return fail(path, f'"schema" must be "{SCHEMA}", got {doc.get("schema")!r}')

    required = [
        "benchmark",
        "params",
        "repetitions",
        "latency_seconds",
        "throughput_items_per_sec",
        "metrics",
    ]
    for key in required:
        if key not in doc:
            return fail(path, f'missing required key "{key}"')

    if not isinstance(doc["benchmark"], str) or not doc["benchmark"]:
        return fail(path, '"benchmark" must be a non-empty string')

    if not isinstance(doc["params"], dict):
        return fail(path, '"params" must be an object')
    for key, value in doc["params"].items():
        if not isinstance(value, str) and not is_finite_number(value):
            return fail(path, f'param "{key}" must be a string or finite number')
    # Every BenchResult stamps the kernel backend that produced it
    # (bench_common.cc), so results from different hosts/ISAs stay
    # attributable.
    backend = doc["params"].get("backend")
    if not isinstance(backend, str) or not backend:
        return fail(path, '"params.backend" must be a non-empty string')

    reps = doc["repetitions"]
    if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1:
        return fail(path, '"repetitions" must be an integer >= 1')

    lat = doc["latency_seconds"]
    if not isinstance(lat, dict):
        return fail(path, '"latency_seconds" must be an object')
    for q in ("p50", "p95"):
        if not is_finite_number(lat.get(q)) or lat[q] < 0:
            return fail(path, f'"latency_seconds.{q}" must be a finite number >= 0')
    if lat["p95"] < lat["p50"]:
        return fail(path, '"latency_seconds": p95 must be >= p50')

    tput = doc["throughput_items_per_sec"]
    if not is_finite_number(tput) or tput < 0:
        return fail(path, '"throughput_items_per_sec" must be a finite number >= 0')

    if not isinstance(doc["metrics"], dict):
        return fail(path, '"metrics" must be an object')
    for key, value in doc["metrics"].items():
        if not is_finite_number(value):
            return fail(path, f'metric "{key}" must be a finite number')

    # Serving benches (bench_serve_qps) carry per-config QPS + latency
    # quantile rows: for every "qps.<cfg>" metric the matching
    # p50/p95/p99_seconds.<cfg> metrics must exist, be ordered, and the
    # shed count must be a non-negative integer-valued number. At least
    # one config is required — a serve bench with no rows measured
    # nothing.
    if doc["benchmark"] == "serve_qps":
        metrics = doc["metrics"]
        configs = sorted(
            key[len("qps."):] for key in metrics if key.startswith("qps.")
        )
        if not configs:
            return fail(path, 'serve_qps must emit at least one "qps.<cfg>" metric')
        for cfg in configs:
            quantiles = []
            for q in ("p50", "p95", "p99"):
                key = f"{q}_seconds.{cfg}"
                if key not in metrics:
                    return fail(path, f'serve_qps config "{cfg}" missing "{key}"')
                if metrics[key] < 0:
                    return fail(path, f'"{key}" must be >= 0')
                quantiles.append(metrics[key])
            if not quantiles[0] <= quantiles[1] <= quantiles[2]:
                return fail(
                    path,
                    f'serve_qps config "{cfg}": quantiles must be ordered '
                    f"p50 <= p95 <= p99, got {quantiles}",
                )
            if metrics[f"qps.{cfg}"] < 0:
                return fail(path, f'"qps.{cfg}" must be >= 0')
            shed = metrics.get(f"shed.{cfg}")
            if shed is None or shed < 0 or shed != int(shed):
                return fail(
                    path, f'serve_qps config "{cfg}": "shed.{cfg}" must be a '
                    "non-negative integer count"
                )
        if "batching_speedup" not in metrics:
            return fail(path, 'serve_qps must emit "batching_speedup"')
        # The top-level latency is one config's full per-request sample
        # (bench_serve_qps uses b32d1000), so it must carry that config's
        # p95 too — not its p50 copied into both fields.
        sources = [
            cfg for cfg in configs if metrics[f"p50_seconds.{cfg}"] == lat["p50"]
        ]
        if not sources:
            return fail(
                path, '"latency_seconds.p50" matches no config\'s "p50_seconds"'
            )
        if all(metrics[f"p95_seconds.{cfg}"] != lat["p95"] for cfg in sources):
            return fail(
                path,
                f'"latency_seconds.p95" ({lat["p95"]}) is not the p95 of the '
                f'config its p50 comes from ({sources[0]}: '
                f'{metrics[f"p95_seconds.{sources[0]}"]})',
            )

    # Blocking benches (bench_blocking) carry per-size rows: recall must
    # be a probability, candidate counts non-negative integers, per-query
    # search latency quantiles present and ordered, and the
    # progressive band floors must descend monotonically (the whole point
    # of progressive emission — earlier bands are higher-confidence).
    if doc["benchmark"] == "blocking":
        metrics = doc["metrics"]
        sizes = sorted(
            key[len("recall."):] for key in metrics if key.startswith("recall.")
        )
        if not sizes:
            return fail(path, 'blocking must emit at least one "recall.<size>" metric')
        for size in sizes:
            recall = metrics[f"recall.{size}"]
            if not 0.0 <= recall <= 1.0:
                return fail(path, f'"recall.{size}" must be in [0, 1], got {recall}')
            for field in ("candidates", "build_seconds", "query_seconds", "qps",
                          "search_p50_seconds", "search_p95_seconds"):
                key = f"{field}.{size}"
                if key not in metrics:
                    return fail(path, f'blocking row "{size}" missing "{key}"')
                if metrics[key] < 0:
                    return fail(path, f'"{key}" must be >= 0')
            p50 = metrics[f"search_p50_seconds.{size}"]
            if metrics[f"search_p95_seconds.{size}"] < p50:
                return fail(path, f'blocking row "{size}": search p95 must be >= p50')
            candidates = metrics[f"candidates.{size}"]
            if candidates != int(candidates):
                return fail(path, f'"candidates.{size}" must be an integer count')
            floors = []
            band = 0
            while f"band_floor.{size}.{band}" in metrics:
                floors.append(metrics[f"band_floor.{size}.{band}"])
                pairs = metrics.get(f"band_pairs.{size}.{band}")
                if pairs is None or pairs < 0 or pairs != int(pairs):
                    return fail(
                        path, f'"band_pairs.{size}.{band}" must be a '
                        "non-negative integer count"
                    )
                band += 1
            if not floors:
                return fail(path, f'blocking row "{size}" has no band floors')
            if any(b >= a for a, b in zip(floors, floors[1:])):
                return fail(
                    path,
                    f'blocking row "{size}": band floors must strictly '
                    f"descend, got {floors}",
                )

    # Optional per-op cost accounting (DESIGN.md §12): emitted by benches
    # that replay compiled graphs; absent from older files and benches
    # that never compile graphs.
    if "graph_nodes" in doc:
        nodes = doc["graph_nodes"]
        if not isinstance(nodes, list):
            return fail(path, '"graph_nodes" must be an array')
        for i, node in enumerate(nodes):
            where = f'"graph_nodes[{i}]"'
            if not isinstance(node, dict):
                return fail(path, f"{where} must be an object")
            name = node.get("name")
            if not isinstance(name, str) or not name:
                return fail(path, f'{where}.name must be a non-empty string')
            replays = node.get("replays")
            if not isinstance(replays, int) or isinstance(replays, bool) or replays < 0:
                return fail(path, f"{where}.replays must be an integer >= 0")
            for field in ("seconds", "est_flops", "est_bytes"):
                value = node.get(field)
                if not is_finite_number(value) or value < 0:
                    return fail(
                        path, f"{where}.{field} must be a finite number >= 0"
                    )

    print(f"{path}: OK ({doc['benchmark']}, {reps} reps)")
    return True


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = all([check_file(path) for path in argv[1:]])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
