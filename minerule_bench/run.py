#!/usr/bin/env python3
"""Builds minerule_bench from ../src and runs the MineRule benchmark.

Run from the repository root.

One run of one workload (the last stdout line is the result JSON):
    python3 minerule_bench/run.py --workload quest_simple --seed 1 \\
        --seconds 16 --trace 0

All five workloads, each in a fresh process, for K seeds, plus one traced
run each; writes OUT/BENCH_<workload>.json and OUT/TRACE_<workload>.json:
    python3 minerule_bench/run.py --runs 10 --seed 1 --out .bench_build/results

Compare two result directories, judging calibrated and raw values:
    python3 minerule_bench/run.py --compare minerule_bench/results \\
        .bench_build/results

The same suite on another checkout (OLD, e.g. the parent commit) and this
one, alternating their runs so host drift hits both alike; writes OUT/old
and OUT/new and compares them:
    python3 minerule_bench/run.py --ab OLD --runs 10 --out .bench_build/ab
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
# The smallest bound --compare applies to a (metric, workload) pair.
MIN_BOUND = 0.05


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir(root):
    return os.path.join(root, ".bench_build")


def build(root):
    """Configures (once) and builds root's minerule_bench; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        die("MineRule sources not found at " + os.path.join(root, "src"))
    out = build_dir(root)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(root, "minerule_bench"),
                      "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "--target", "minerule_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(step))
    return os.path.join(out, "minerule_bench")


def run_env(binary):
    # Spill files stay inside the checkout.
    tmp = os.path.join(os.path.dirname(binary), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_once(binary, workload, seed, seconds, trace, trace_out=None):
    """One run in a fresh process; returns (result, meta, raw) from its
    output: the result JSON, the build metadata and the uncalibrated
    end-to-end metrics."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=run_env(binary), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{workload} seed {seed}: exit code {proc.returncode}")
    def tagged(tag):
        return next((json.loads(line[len(tag):]) for line in lines
                     if line.startswith(tag)), {})
    return json.loads(lines[-1]), tagged("meta "), tagged("raw ")


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def summary(spec, values):
    q1, median, q3 = quartiles(values)
    return {"unit": spec["unit"], "better": spec["better"], "values": values,
            "q1": q1, "median": median, "q3": q3, "spread": spread(values)}


def git_state(root):
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(
            ["git", "-C", root, "status", "--porcelain", "--", "src"],
            capture_output=True, text=True, check=True)
        return sha.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def run_suite(args, roots, outs):
    """args.runs seeds of every workload on each checkout in `roots`, their
    runs alternating, plus one traced run each; writes each checkout's
    result files to its entry of `outs`. Returns 1 if any check failed."""
    benchmark = load_benchmark()
    binaries = [build(root) for root in roots]
    seeds = [args.seed + i for i in range(args.runs)]
    workloads = [w["name"] for w in benchmark["workloads"]]
    runs = [{w: [] for w in workloads} for _ in roots]
    metas = [[] for _ in roots]
    for seed in seeds:
        for workload in workloads:
            for i, binary in enumerate(binaries):
                result, meta, raw = run_once(binary, workload, seed,
                                             args.seconds, 0)
                runs[i][workload].append((result, raw))
                metas[i].append(meta)
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}", file=sys.stderr)
    unfit = [m for ms in metas for m in ms
             if not m.get("optimized") or m.get("sanitizer") != "none"]
    if unfit:
        die("refusing to write results from an unoptimized or sanitizer "
            "build: " + json.dumps(unfit[0]))

    status = 0
    for i, (root, out) in enumerate(zip(roots, outs)):
        os.makedirs(out, exist_ok=True)
        sha, src_modified = git_state(root)
        for workload in workloads:
            traced, _, _ = run_once(
                binaries[i], workload, seeds[0], args.seconds, 1,
                os.path.join(out, f"TRACE_{workload}.json"))
            results = [result for result, _ in runs[i][workload]]
            raws = [raw for _, raw in runs[i][workload]]
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            correct = all(r["correct"] for r in results) and traced["correct"]
            status = status or (0 if correct and failed == 0 else 1)
            end_to_end = {}
            raw = {}
            print(f"\n{workload} ({root})")
            for spec in benchmark["end_to_end"]:
                name = spec["name"]
                end_to_end[name] = summary(
                    spec, [r["metrics"][name]["value"] for r in results])
                raw[name] = summary(spec, [r[name]["value"] for r in raws])
                for label, s in (("", end_to_end[name]), ("raw.", raw[name])):
                    print(f"  {label + name:<18} {s['median']:12.4f} "
                          f"{spec['unit']:<4} [{s['q1']:.4f}, {s['q3']:.4f}] "
                          f"spread {s['spread']:.3f}")
            print(f"  {'error_rate':<18} {failed / attempted:12.4f} ratio "
                  f"({failed} of {attempted} statements)")
            meta = dict(metas[i][0], seeds=seeds, git_sha=sha,
                        src_modified=src_modified)
            for key in ("workload", "seed", "trace"):
                meta.pop(key, None)
            why = next(w["why"] for w in benchmark["workloads"]
                       if w["name"] == workload)
            report = {
                "workload": workload,
                "why": why,
                "command": " ".join(["python3", "minerule_bench/run.py"] +
                                    sys.argv[1:]),
                "meta": meta,
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "error_rate": failed / attempted,
                "end_to_end": end_to_end,
                "raw": raw,
                "host_calibration_ms": [r["host.calibration_ms"]["value"]
                                        for r in raws],
                "per_layer": traced["metrics"],
            }
            with open(os.path.join(out, f"BENCH_{workload}.json"), "w") as f:
                json.dump(report, f, indent=1)
                f.write("\n")
        print(f"\nwrote {out}/BENCH_<workload>.json", file=sys.stderr)
    return status


def pair_bound(spec, old):
    """The bound of one (metric, workload) pair: three times OLD's spread,
    at least MIN_BOUND and at most the metric's bound in BENCHMARK.json."""
    return min(spec["bound"], max(MIN_BOUND, 3 * spread(old)))


def verdict(spec, old, new):
    """better / same / worse / unresolved for one (metric, workload) pair;
    returns it with the relative change and the bound applied."""
    bound = pair_bound(spec, old)
    m_old, m_new = quartiles(old)[1], quartiles(new)[1]
    lower_is_better = spec["better"] == "lower"
    sign = 1 if lower_is_better else -1
    worse_by = sign * (m_new - m_old) / m_old if m_old else 0.0
    if max(spread(old), spread(new)) > bound:
        # Noise wider than the bound: only a clean sweep counts.
        if lower_is_better:
            every_run_better = max(new) < min(old)
        else:
            every_run_better = min(new) > max(old)
        return ("better" if every_run_better else "unresolved"), worse_by, bound
    if worse_by > bound:
        return "worse", worse_by, bound
    if worse_by < -bound:
        return "better", worse_by, bound
    return "same", worse_by, bound


def compare(old_dir, new_dir):
    """One row per (workload, end-to-end metric): the verdict on the
    calibrated values and the verdict on the raw wall-clock values. Either
    one reading worse fails the comparison."""
    benchmark = load_benchmark()
    worse = False
    print(f"{'workload':<18} {'metric':<12} {'old':>10} {'new':>10} "
          f"{'change':>7} {'bound':>5} {'verdict':<10} {'raw old':>10} "
          f"{'raw new':>10} {'change':>7} {'bound':>5} raw verdict")
    for workload in (w["name"] for w in benchmark["workloads"]):
        reports = []
        for directory in (old_dir, new_dir):
            path = os.path.join(directory, f"BENCH_{workload}.json")
            if not os.path.isfile(path):
                print(f"{workload:<18} missing {path}")
                worse = True
                break
            with open(path) as f:
                reports.append(json.load(f))
        if len(reports) != 2:
            continue
        if not reports[1]["correct"] or reports[1]["failed"]:
            print(f"{workload:<18} NEW has failed statements or checks")
            worse = True
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            row = f"{workload:<18} {name:<12}"
            for kind in ("end_to_end", "raw"):
                old = reports[0][kind][name]["values"]
                new = reports[1][kind][name]["values"]
                result, worse_by, bound = verdict(spec, old, new)
                worse = worse or result == "worse"
                row += (f" {quartiles(old)[1]:10.4f} {quartiles(new)[1]:10.4f}"
                        f" {100 * worse_by:+6.1f}% {100 * bound:4.0f}%"
                        f" {result:<10}")
            print(row.rstrip())
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(build_dir(ROOT),
                                                      "results"))
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--ab", metavar="OLD")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    if args.workload:
        binary = build(ROOT)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            return subprocess.run(cmd, env=run_env(binary),
                                  timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            die(f"no result within {RUN_TIMEOUT_S} s")
    if args.runs < 1:
        die("--runs must be at least 1")
    if args.ab:
        outs = [os.path.join(args.out, "old"), os.path.join(args.out, "new")]
        status = run_suite(args, [os.path.abspath(args.ab), ROOT], outs)
        return compare(*outs) or status
    return run_suite(args, [ROOT], [args.out])


if __name__ == "__main__":
    sys.exit(main())
