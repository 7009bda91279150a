#!/usr/bin/env python3
"""Builds and runs the GridQP benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_adapt --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check [--short]

The first form builds the benchmark (GridQP from ../src plus the
benchmark's own sources, Release, into .bench_build/perfbench), runs one
workload and prints its report. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Traced runs also write their spans to .bench_build/perfbench-traces/.

The second form is the benchmark's own test: every workload runs twice
with the same seed, untraced and traced, and the runs must agree on
their behaviour fingerprint (result rows, virtual times and per-layer
counts) and pass every correctness check. --short runs one pass per run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-traces")
BINARY = os.path.join(BUILD_DIR, "gridqp_perfbench")
WORKLOADS = ("paper_adapt", "tenant_overload", "lossy_failover")
# A run measures --seconds plus one warm-up pass and at most one
# overrunning pass; stay inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "gridqp_perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, check=False)
        if result.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def run_binary(workload, seed, seconds, trace, passes=0):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if passes:
        cmd += ["--passes", str(passes)]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, "%s-seed%s.jsonl" % (workload, seed))]
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        # subprocess.run kills the child and waits for it before raising.
        log("perfbench: %s did not finish within %d s" % (workload,
                                                           RUN_TIMEOUT_S))
        return 1, exc.stdout or ""
    return result.returncode, result.stdout


def parse_report(stdout):
    """The final JSON object and the '# name=value' facts before it."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None, {}
    try:
        report = json.loads(lines[-1])
    except ValueError:
        return None, {}
    facts = {}
    for line in lines[:-1]:
        for key in ("# fingerprint=", "# counts "):
            if line.startswith(key):
                facts[key.strip("# =")] = line[len(key):]
    return report, facts


def self_check(short):
    """Same seed twice, untraced and traced: identical behaviour."""
    passes = 1 if short else 2
    seeds = (1,) if short else (1, 2)
    ok = True
    for workload in WORKLOADS:
        for seed in seeds:
            runs = []
            for label, trace in (("untraced", False), ("repeat", False),
                                 ("traced", True)):
                code, stdout = run_binary(workload, seed, 1, trace, passes)
                report, facts = parse_report(stdout)
                runs.append((label, code, report, facts))
            base = runs[0]
            problems = []
            for label, code, report, facts in runs:
                if code != 0 or report is None:
                    problems.append("%s run exited %d without a report" %
                                    (label, code))
                    continue
                if not report["correct"]:
                    problems.append("%s run failed its correctness checks" %
                                    label)
                if facts != base[3]:
                    problems.append("%s run's fingerprint or counts differ "
                                    "from the first run's" % label)
            # Virtual metrics repeat exactly for a seed.
            if runs[0][2] and runs[1][2]:
                for name, metric in runs[0][2]["metrics"].items():
                    if name.startswith("virt_") and \
                            runs[1][2]["metrics"][name] != metric:
                        problems.append("%s differs between equal seeds" %
                                        name)
            status = "ok" if not problems else "FAIL"
            print("self-check %-16s seed=%d %s %s" %
                  (workload, seed, status,
                   base[3].get("fingerprint", "").split(" ")[0]))
            for problem in problems:
                print("  " + problem)
            ok = ok and not problems
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.self_check:
        return 0 if self_check(args.short) else 1

    code, stdout = run_binary(args.workload, args.seed, args.seconds,
                              args.trace == 1)
    report, _ = parse_report(stdout)
    if code != 0 or report is None:
        # No result line: show what the benchmark said on stderr instead.
        sys.stderr.write(stdout)
        log("perfbench: %s exited %d without a report" % (args.workload, code))
        return code or 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
