#!/usr/bin/env python3
"""Paired A/B measurement of two commits on one perfbench workload.

    python3 tools/paired_ab.py --base HEAD~1 --change HEAD \\
        --workload paper_adapt --pairs 10 --seconds 30 --seed 1 \\
        --scratch /tmp/gridqp-ab

Each commit is exported with `git archive` into its own directory under
--scratch (named by the full commit id and reused on later calls, so its
benchmark build is cached); nothing is written inside the checkout. Each
export runs its own `perfbench/run.py`, which builds that commit's
benchmark (one discarded one-second run per side builds and warms it).
The tool then runs --pairs alternating pairs (base first in
even pairs, change first in odd ones, so a drift in host speed hits both
sides alike) and prints one JSON line: per metric, both medians, the
change/base ratio of the medians, how many pairs the change won and
both interquartile ranges. Which direction wins comes from the change's
BENCHMARK.json ("better": "lower" or "higher"); metrics it does not list
count lower as better. Traced runs (--trace 1) add each span's self time
per pass as `self_ms.<span>`. Progress goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SELF_TIME = "# self time per pass (ms, median of traced passes):"

def log(message):
    print(message, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git"] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(commit, scratch):
    """Exports `commit` into scratch/<commit id> once; returns the path."""
    directory = os.path.join(scratch, commit)
    if not os.path.isdir(directory):
        os.makedirs(directory + ".partial", exist_ok=True)
        archive = subprocess.Popen(["git", "archive", commit],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", directory + ".partial"],
                       stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise SystemExit("paired_ab: git archive %s failed" % commit)
        os.rename(directory + ".partial", directory)
    return directory


def run(directory, args):
    """One benchmark run in an export; returns its metrics dict."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    result = subprocess.run(cmd, cwd=directory, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, check=False)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise SystemExit("paired_ab: %s exited %d in %s" %
                         (" ".join(cmd), result.returncode, directory))
    report = json.loads(lines[-1])
    if not report.get("correct", False):
        raise SystemExit("paired_ab: run in %s failed its correctness "
                         "checks" % directory)
    # Traced runs report {"value": v, "unit": u} per metric.
    metrics = {name: m["value"] if isinstance(m, dict) else m
               for name, m in report["metrics"].items()}
    # Traced runs also print each span's self time per pass.
    for line in lines[:-1]:
        if line.startswith(SELF_TIME):
            for item in line[len(SELF_TIME):].split():
                span, _, ms = item.partition("=")
                metrics["self_ms." + span] = float(ms)
    return metrics


def directions(directory):
    """metric name -> "lower" or "higher", from BENCHMARK.json."""
    path = os.path.join(directory, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def iqr(values):
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[2] - quartiles[0]


def summarize(base_runs, change_runs, better):
    summary = {}
    for name in sorted(base_runs[0]):
        base = [run[name] for run in base_runs if name in run]
        change = [run[name] for run in change_runs if name in run]
        if len(base) != len(base_runs) or len(change) != len(change_runs):
            continue
        lower = better.get(name, "lower") == "lower"
        wins = sum(1 for b, c in zip(base, change)
                   if (c < b if lower else c > b))
        base_median = statistics.median(base)
        change_median = statistics.median(change)
        summary[name] = {
            "better": "lower" if lower else "higher",
            "base_median": base_median,
            "change_median": change_median,
            "ratio": (change_median / base_median) if base_median else None,
            "change_wins": wins,
            "base_iqr": iqr(base),
            "change_iqr": iqr(change),
        }
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--change", required=True, help="changed commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True,
                        help="directory for the exports, outside the "
                             "checkout")
    args = parser.parse_args()

    scratch = os.path.realpath(args.scratch)
    top = os.path.realpath(git("rev-parse", "--show-toplevel"))
    if os.path.commonpath([scratch, top]) == top:
        parser.error("--scratch must lie outside the checkout")
    os.makedirs(scratch, exist_ok=True)

    base_id, change_id = (git("rev-parse", "--verify", rev + "^{commit}")
                          for rev in (args.base, args.change))
    if base_id == change_id:
        parser.error("--base and --change name the same commit")
    base_dir = export(base_id, scratch)
    change_dir = export(change_id, scratch)
    # One discarded short run per side builds its benchmark and warms it.
    for directory in (base_dir, change_dir):
        log("paired_ab: building and warming %s" % directory)
        run(directory, argparse.Namespace(**dict(vars(args), seconds=1)))
    runs = {base_dir: [], change_dir: []}
    for pair in range(args.pairs):
        order = (base_dir, change_dir) if pair % 2 == 0 else (change_dir,
                                                              base_dir)
        for directory in order:
            runs[directory].append(run(directory, args))
        log("paired_ab: pair %d/%d done" % (pair + 1, args.pairs))

    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "pairs": args.pairs,
        "base": base_id, "change": change_id,
        "metrics": summarize(runs[base_dir], runs[change_dir],
                             directions(change_dir)),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
