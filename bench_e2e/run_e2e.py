#!/usr/bin/env python3
"""End-to-end benchmark runner (standard library only).

Builds bench_e2e from the checkout on first use (into
.bench_build/bench_e2e), runs it and checks what it reports. Metric
names, units and bounds come from BENCHMARK.json at the checkout root.

One run, the BENCHMARK.json contract:

  run_e2e.py --workload W --seed N --seconds S --trace 0|1

  prints one JSON object as the last stdout line: the end-to-end
  metrics of an untraced run, or the per-layer metrics of a traced one.

Several runs:

  run_e2e.py [--workloads a,b] [--runs N] [--seed S] [--seconds S]
             [--trace] [--out FILE]

  runs each workload N times with seeds S..S+N-1 and prints every
  metric with its unit, median, quartiles and sample count.

  run_e2e.py --compare A.json B.json

  checks that the runs in B agree with those in A within each metric's
  bound; a metric whose run-to-run spread is wider than its bound is
  reported as unresolved, not as unchanged.

  run_e2e.py --smoke [--binary PATH]

  every workload, untraced and traced, at a tiny scale.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "bench_e2e")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
WORKLOADS = ("link_score", "link_index")
# Quality metrics are a pure function of the seed: two runs with one
# seed must report them bit for bit.
DETERMINISTIC = ("blocking_recall", "pair_f1", "cluster_f1")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures on first use, then brings bench_e2e up to date (a
    no-op when nothing changed)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_binary(binary, workload, seed, seconds, trace, scale=None):
    """Runs one workload; returns its parsed result line (None if the
    process printed none) and its exit code."""
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work_dir", WORK_DIR]
    if scale is not None:
        command += ["--scale", str(scale)]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None, 1
    finally:
        # Also on an interrupt or SIGTERM: never leave the bench running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        return None, proc.returncode or 1


def contract_result(raw, returncode, wanted, require_nonzero):
    """Keeps exactly the `wanted` metrics of the binary's result and
    marks the run incorrect if one is missing, has another unit, is not
    a finite number, or (with require_nonzero) reads 0."""
    correct = raw.get("correct") is True and returncode == 0
    metrics = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        got = raw.get("metrics", {}).get(name)
        value = got.get("value") if isinstance(got, dict) else None
        if (not isinstance(value, (int, float)) or not math.isfinite(value)
                or got.get("unit") != unit):
            log(f"metric {name}: missing, non-finite or not in {unit}")
            correct = False
            continue
        if require_nonzero and value == 0:
            log(f"metric {name} reads 0")
            correct = False
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": correct,
            "attempted": int(raw.get("attempted", 0)),
            "failed": int(raw.get("failed", 0)),
            "metrics": metrics}


def run_once(spec, binary, workload, seed, seconds, trace, scale=None):
    raw, returncode = run_binary(binary, workload, seed, seconds, trace,
                                 scale)
    if raw is None:
        return None
    wanted = spec["per_layer" if trace else "end_to_end"]
    return contract_result(raw, returncode, wanted,
                           require_nonzero=not trace and scale is None)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    median = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def summarize(spec, results, trace):
    """Prints every metric of every workload: unit, median, quartiles,
    sample count and spread against its bound."""
    metrics = spec["per_layer" if trace else "end_to_end"]
    print(f"{'workload':<13} {'metric':<36} {'unit':<10} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>3} {'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        good = [run for run in runs if run["correct"]]
        for metric in metrics:
            name = metric["name"]
            values = [run["metrics"][name]["value"] for run in good
                      if name in run["metrics"]]
            if not values:
                continue
            q1, q3 = quartiles(values)
            bound = metric.get("bound")
            print(f"{workload:<13} {name:<36} {metric['unit']:<10} "
                  f"{statistics.median(values):>12.5g} {q1:>12.5g} "
                  f"{q3:>12.5g} {len(values):>3} {spread(values):>7.3f} "
                  f"{'' if bound is None else bound:>6}")


def run_many(args, spec):
    binary = build_or_binary(args)
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    ok = True
    for workload in workloads:
        results[workload] = []
        for i in range(args.runs):
            seed = args.seed + i
            result = run_once(spec, binary, workload, seed, seconds,
                              args.trace)
            if result is None:
                result = {"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}
            result["seed"] = seed
            ok = ok and result["correct"]
            log(f"{workload} seed {seed}: "
                f"{'correct' if result['correct'] else 'INCORRECT'}")
            results[workload].append(result)
    summarize(spec, results, args.trace)
    out = args.out or os.path.join(BUILD_DIR, "e2e_result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"seconds": seconds, "trace": args.trace,
                   "workloads": results}, f, indent=1)
    print(f"results written to {out}")
    return 0 if ok else 1


def compare(spec, path_a, path_b):
    """Checks B against A metric by metric; returns the exit code."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    metrics = spec["per_layer" if a.get("trace") else "end_to_end"]
    failed = False
    print(f"{'workload':<13} {'metric':<22} {'median A':>12} "
          f"{'median B':>12} {'worse by':>9} {'bound':>6}  verdict")
    for workload, runs_a in a["workloads"].items():
        runs_b = b["workloads"].get(workload)
        if not runs_b:
            continue
        for name in DETERMINISTIC:
            by_seed = {run["seed"]: run["metrics"].get(name, {}).get("value")
                       for run in runs_a}
            for run in runs_b:
                value = run["metrics"].get(name, {}).get("value")
                if run["seed"] in by_seed and by_seed[run["seed"]] != value:
                    print(f"{workload:<13} {name:<22} differs at seed "
                          f"{run['seed']}: {by_seed[run['seed']]} vs {value}")
                    failed = True
        for metric in metrics:
            name, bound = metric["name"], metric.get("bound")
            va = [r["metrics"][name]["value"] for r in runs_a
                  if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in runs_b
                  if name in r["metrics"]]
            if not va or not vb or bound is None:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            higher = metric["better"] == "higher"
            worse = (ma - mb if higher else mb - ma) / abs(ma) if ma else 0.0
            if max(spread(va), spread(vb)) > bound:
                all_better = (min(vb) > max(va)) if higher else \
                    (max(vb) < min(va))
                verdict = "better" if all_better else "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
                failed = True
            else:
                verdict = "ok"
            print(f"{workload:<13} {name:<22} {ma:>12.5g} {mb:>12.5g} "
                  f"{worse:>9.4f} {bound:>6}  {verdict}")
    return 1 if failed else 0


def smoke(args, spec):
    """Every workload untraced and traced at scale 0.02 for a second."""
    binary = build_or_binary(args)
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_once(spec, binary, workload, 1, 1, trace,
                              scale=0.02)
            good = result is not None and result["correct"]
            log(f"smoke {workload} trace={int(trace)}: "
                f"{'ok' if good else 'FAILED'}")
            ok = ok and good
    return 0 if ok else 1


def build_or_binary(args):
    if args.binary:
        return args.binary
    build()
    return BINARY


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (contract)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", help="where to write the results")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this bench_e2e, do not build")
    args = parser.parse_args()
    args.trace = bool(args.trace)

    try:
        spec = load_spec()
        if args.compare:
            return compare(spec, *args.compare)
        if args.smoke:
            return smoke(args, spec)
        if not args.workload:
            return run_many(args, spec)
        binary = build_or_binary(args)
    except (OSError, ValueError, RuntimeError,
            subprocess.CalledProcessError) as error:
        log(f"run_e2e: {error}")
        return 2
    result = run_once(spec, binary, args.workload, args.seed,
                      args.seconds or spec["run_seconds"], args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # SIGTERM unwinds like an interrupt, so run_binary stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
