#!/usr/bin/env python3
"""Runs the doxlab benchmark: builds doxbench from source, runs one workload
(or all of them, interleaved) in fresh processes, checks every repetition's
outputs, and prints each metric by name and unit with its median and
quartiles. The last line of standard output is one JSON object.

  python3 doxbench/run.py --workload engine-hot-n1 --seed 7 --seconds 20 --trace 0
  python3 doxbench/run.py --workload all --seed 42 --seconds 20 --out runs.jsonl
  python3 doxbench/run.py --workload paper-web --seed 42 --trace 1
  python3 doxbench/run.py --smoke
  python3 doxbench/run.py --compare A.jsonl,B.jsonl

README.md in this directory documents the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "doxbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "doxbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# A run stops starting repetitions once this much wall time has gone, so
# that even with a rerun it ends inside the three minutes a run may take.
RUN_BUDGET_S = 120
# Unmeasured repetitions first: on an idle virtual host the first seconds
# of work run up to a quarter slower than the rest.
WARMUP_S = 5
# Time limits of one doxbench process; a repetition normally takes 1-3 s
# and a traced run 10-15 s.
REP_TIMEOUT_S = 30
TRACE_TIMEOUT_S = 60
# Processes a run may rerun after a hang or crash (see doxbench()).
RERUNS = 3
reruns = []
# Metrics every repetition of one seed must reproduce exactly: they are
# simulated, so any difference means the program is not deterministic.
SIMULATED = ("sim_latency_mean_ms",)


class Fail(Exception):
    """A failure that ends the run without a result."""


def fail_usage(message):
    print(f"doxbench: {message}", file=sys.stderr)
    sys.exit(2)


class Parser(argparse.ArgumentParser):
    def error(self, message):
        fail_usage(message)


def u64(text):
    """Strict unsigned 64-bit integer: digits only, no sign, no overflow."""
    if not text.isascii() or not text.isdigit() or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(
            f"needs an unsigned 64-bit integer, got '{text}'")
    return int(text)


def positive(text):
    value = u64(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise Fail(f"cannot read {SPEC}: {e}")


def cpus():
    return len(os.sched_getaffinity(0))


def build():
    """Configures once, then builds incrementally; the log stays in BUILD."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", PACKAGE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--parallel",
                  str(min(4, cpus()))])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise Fail(f"build failed ({' '.join(step)}):\n{tail}")


def doxbench(args, timeout):
    """Runs the binary once; returns its JSON record (last stdout line).

    A process that hangs past `timeout` or dies by a signal has most likely
    met the util::ThreadPool shutdown race (README.md), not produced a
    wrong output: it is killed, reported, and run again, at most RERUNS
    times per run."""
    while True:
        try:
            proc = subprocess.run([BINARY] + args, capture_output=True,
                                  text=True, timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            what = f"hung for {timeout:.0f} s"
        else:
            if proc.returncode >= 0:
                break
            what = f"died by signal {-proc.returncode}"
        reruns.append(what)
        if len(reruns) > RERUNS:
            raise Fail(f"doxbench {' '.join(args)} {what}; too many reruns")
        print(f"doxbench: doxbench {' '.join(args)} {what} (see the "
              f"util::ThreadPool shutdown race); running it again",
              file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise Fail(f"doxbench {' '.join(args)} exited {proc.returncode} "
                   f"without a record:\n{proc.stderr[-3000:]}")
    if proc.returncode != 0 and record.get("correct", False):
        record["correct"] = False
        record["violations"].append(f"exit code {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return record


def check_names(record, declared, kind):
    """Every declared metric is printed with its declared unit, and no
    other metric is."""
    printed = {name: m["unit"] for name, m in record["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if printed != wanted:
        missing = sorted(set(wanted) - set(printed))
        extra = sorted(set(printed) - set(wanted))
        units = sorted(n for n in set(wanted) & set(printed)
                       if wanted[n] != printed[n])
        raise Fail(f"{kind} metrics disagree with BENCHMARK.json: missing "
                   f"{missing}, undeclared {extra}, wrong unit {units}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def append_records(path, records):
    if path:
        with open(path, "a") as f:
            for record in records:
                f.write(json.dumps(record) + "\n")


def summarize(workload, reps, warmup, spec):
    """Medians over the measured repetitions, plus the cross-repetition
    checks: one seed must give the same digests, counts and simulated
    metrics in every process."""
    violations = []
    for r in [warmup] + reps:
        violations += r["violations"]
    for field in ("digest", "outcome_digest", "attempted", "failed"):
        if len({r[field] for r in [warmup] + reps}) != 1:
            violations.append(f"{field} differs across repetitions")
    for name in SIMULATED:
        if len({r["metrics"][name]["value"] for r in [warmup] + reps}) != 1:
            violations.append(f"{name} differs across repetitions")
    rows = []
    metrics = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in reps]
        q1, med, q3 = quartiles(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        rows.append((m["name"], m["unit"], med, q1, q3, len(values)))
    print(f"\n{workload}: {len(reps)} repetitions in fresh processes "
          f"(after warm-up), seed {reps[0]['seed']}, "
          f"digest {reps[0]['digest']}")
    print(f"  {'metric':<22} {'unit':<6} {'median':>14} {'q1':>14} "
          f"{'q3':>14}")
    for name, unit, med, q1, q3, _ in rows:
        print(f"  {name:<22} {unit:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g}")
    for v in violations:
        print(f"  VIOLATION: {v}")
    return {
        "correct": not violations and all(r["correct"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }


def run_measured(workloads, seed, seconds, min_reps, out, spec):
    """Interleaves fresh-process repetitions of the workloads round-robin:
    warm-up rounds for WARMUP_S, then rounds until every workload has
    `min_reps` and `seconds` per workload have passed."""
    start = time.monotonic()
    args = lambda w: [f"--workload={w}", f"--seed={seed}"]
    while True:
        warmups = {w: doxbench(args(w), REP_TIMEOUT_S) for w in workloads}
        for record in warmups.values():
            check_names(record, spec["end_to_end"], "end-to-end")
        if time.monotonic() - start >= WARMUP_S:
            break
    reps = {w: [] for w in workloads}
    measure_start = time.monotonic()
    while True:
        for w in workloads:
            record = doxbench(args(w), REP_TIMEOUT_S)
            check_names(record, spec["end_to_end"], "end-to-end")
            reps[w].append(record)
        measured = time.monotonic() - measure_start
        done = measured >= seconds * len(workloads)
        if len(reps[workloads[0]]) >= min_reps and (
                done or time.monotonic() - start > RUN_BUDGET_S):
            break
    for w in workloads:
        append_records(out, reps[w])
    return {w: summarize(w, reps[w], warmups[w], spec) for w in workloads}


def run_traced(workload, seed, out, spec):
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{workload}-{seed}.csv")
    record = doxbench([f"--workload={workload}", f"--seed={seed}", "--trace",
                       f"--spans={spans}"], TRACE_TIMEOUT_S)
    check_names(record, spec["per_layer"], "per-layer")
    append_records(out, [record])
    print(f"\n{workload}: traced run, seed {seed}, spans -> "
          f"{os.path.relpath(spans, ROOT)}")
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['unit']:<16} {m['value']:>14.6g}")
    for v in record["violations"]:
        print(f"  VIOLATION: {v}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def smoke(spec):
    try:
        proc = subprocess.run([BINARY, "--smoke"], capture_output=True,
                              text=True, timeout=170, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise Fail("smoke pass timed out")
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            if record["trace"]:
                check_names(record, spec["per_layer"], "per-layer")
            else:
                check_names(record, spec["end_to_end"], "end-to-end")
    if proc.returncode != 0:
        raise Fail("smoke pass failed")
    print("every metric printed with its declared unit")


def compare(paths, spec):
    """Per (workload, metric): medians, quartiles and pair wins of set B
    against set A, and a verdict against the metric's bound."""
    sets = []
    for path in paths:
        with open(path) as f:
            sets.append([json.loads(line) for line in f if line.strip()])
    a, b = ([r for r in s if not r.get("trace")] for s in sets)
    print(f"A = {paths[0]} ({len(a)} repetitions), "
          f"B = {paths[1]} ({len(b)} repetitions)")
    verdicts = []
    for w in sorted({r["workload"] for r in a} & {r["workload"] for r in b}):
        ra = [r for r in a if r["workload"] == w]
        rb = [r for r in b if r["workload"] == w]
        print(f"\n{w}: {len(ra)} vs {len(rb)} repetitions")
        print(f"  {'metric':<22} {'median A':>12} {'q1..q3 A':>25} "
              f"{'median B':>12} {'q1..q3 B':>25} {'B wins':>7}  verdict")
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in ra]
            vb = [r["metrics"][m["name"]]["value"] for r in rb]
            verdict, wins, pairs = judge(va, vb, m)
            q1a, meda, q3a = quartiles(va)
            q1b, medb, q3b = quartiles(vb)
            print(f"  {m['name']:<22} {meda:>12.6g} "
                  f"{q1a:>12.6g}..{q3a:<12.6g} {medb:>12.6g} "
                  f"{q1b:>12.6g}..{q3b:<12.6g} {wins:>3}/{pairs:<3}  "
                  f"{verdict}")
            verdicts.append(verdict)
        seeds = {r["seed"] for r in ra} & {r["seed"] for r in rb}
        for seed in sorted(seeds):
            fingerprints = [{(r["digest"], r["outcome_digest"],
                              tuple(r["metrics"][n]["value"]
                                    for n in SIMULATED))
                             for r in rs if r["seed"] == seed}
                            for rs in (ra, rb)]
            same = len(fingerprints[0] | fingerprints[1]) == 1
            print(f"  seed {seed}: digests and simulated metrics "
                  f"{'identical' if same else 'DIFFER'} across both sets")
            if not same:
                verdicts.append("differ")
    return 1 if "worse" in verdicts or "differ" in verdicts else 0


def judge(va, vb, metric):
    """better / no worse / worse / unresolved, by the rules in README.md."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    q1a, meda, q3a = quartiles(va)
    q1b, medb, q3b = quartiles(vb)
    pairs = min(len(va), len(vb))
    wins = sum(1 for x, y in zip(va, vb) if (y < x if lower else y > x))
    worse_by = ((medb - meda) if lower else (meda - medb)) / meda
    spread = max((q3a - q1a) / meda, (q3b - q1b) / medb)
    all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
    if spread > bound:
        return ("better" if all_better else "unresolved"), wins, pairs
    if worse_by > bound:
        return "worse", wins, pairs
    if wins >= 0.9 * pairs and -worse_by * meda > (q3a - q1a):
        return "better", wins, pairs
    return "no worse", wins, pairs


def main():
    parser = Parser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=u64, default=42)
    parser.add_argument("--seconds", type=positive, default=20,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=positive, default=3,
                        help="fewest measured repetitions per workload")
    parser.add_argument("--out", help="append every record to this JSONL file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", metavar="A.jsonl,B.jsonl")
    args = parser.parse_args()

    try:
        spec = load_spec()
        if args.compare:
            paths = args.compare.split(",")
            if len(paths) != 2:
                fail_usage("--compare needs two files, A.jsonl,B.jsonl")
            return compare(paths, spec)
        names = [w["name"] for w in spec["workloads"]]
        if not args.smoke and args.workload not in names + ["all"]:
            fail_usage(f"--workload must be one of {names + ['all']}")
        build()
        if args.smoke:
            smoke(spec)
            return 0
        if args.trace:
            if args.workload == "all":
                fail_usage("--trace 1 takes one workload")
            result = run_traced(args.workload, args.seed, args.out, spec)
        else:
            workloads = names if args.workload == "all" else [args.workload]
            results = run_measured(workloads, args.seed, args.seconds,
                                   args.reps, args.out, spec)
            result = results[args.workload] if len(results) == 1 else {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "workloads": results,
            }
    except Fail as e:
        print(f"doxbench: {e}", file=sys.stderr)
        return 1
    if reruns:
        print(f"{len(reruns)} doxbench process(es) reran: {', '.join(reruns)}")
    if not result["correct"] and "metrics" in result:
        result["metrics"] = {}  # an incorrect run reports no metrics
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
