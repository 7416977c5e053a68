#!/usr/bin/env python3
"""Record perfbench baselines and compare a fresh run against them.

Usage (from the root of a checkout):

    python3 scripts/bench.py record kernels batch serve
    python3 scripts/bench.py compare kernels
    python3 scripts/bench.py compare --base ../base-checkout kernels

Both run the command BENCHMARK.json declares (perfbench/run.py) with
seed 1 and --trace 0.

record runs each workload RECORD_RUNS times for BENCHMARK.json's
run_seconds, round-robin over the workloads so that each one's runs
are spread over the host's slow and fast phases, and writes
BENCH_<workload>.json: per end-to-end metric the median of the runs
(as "value") with its quartiles and the run values, the runs' summed
operation counts, the host's num_cpu and the Go version. One run on a
shared host moves by a quarter or more with the host's phases; the
median of alternated runs moves much less.

compare makes a short run (COMPARE_SECONDS: perfbench's metrics are
per-operation estimates, so a short run estimates the same quantities
as the baseline's long one, only less precisely), sets each end-to-end
metric against the committed BENCH_<workload>.json's median, and marks WARN
where it is worse by more than the metric's bound in BENCHMARK.json
(in its "better" direction, as a fraction of the baseline). The
comparison is warn-only: a baseline from other hardware, or a shared
runner, says little about one change. It fails only when the benchmark
itself fails or reports a wrong output.

compare --base DIR takes its baseline from another checkout (say a git
worktree at the merge base) on the same host instead: it alternates
COMPARE_PAIRS short runs of DIR and of this checkout, the side that
runs first swapping every pair, and sets this checkout's medians
against DIR's with the same bounds. The committed BENCH_<workload>.json
stays the trajectory record.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys

SEED = 1
COMPARE_SECONDS = 10
COMPARE_PAIRS = 3
RECORD_RUNS = 3


def run(spec, workload, seconds, checkout=None):
    """Runs one workload in checkout (default: this one); returns the
    result line wrapped with its host."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=checkout)
    lines = p.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if p.returncode != 0 or not lines:
        sys.exit(f"bench: {workload} failed (exit status {p.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"bench: {workload} reported a wrong output")
    cpus = re.search(r"num_cpu=(\d+)", p.stdout)
    go = subprocess.run(["go", "env", "GOVERSION"], stdout=subprocess.PIPE,
                        text=True, check=True).stdout.strip()
    return {
        "workload": workload,
        "seed": SEED,
        "seconds": seconds,
        "num_cpu": int(cpus.group(1)) if cpus else None,
        "go_version": go,
        "result": result,
    }


def summarize(runs):
    """Folds several runs of one workload into one record: per metric
    the median as the value, with its quartiles and the run values."""
    results = [r["result"] for r in runs]
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [res["metrics"][name]["value"] for res in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {"unit": m["unit"], "value": statistics.median(values),
                         "q1": q1, "q3": q3, "values": values}
    out = dict(runs[0])
    out["runs"] = len(runs)
    out["result"] = {
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics,
    }
    return out


def failed_share(result):
    return result["failed"] / result["attempted"] if result["attempted"] else 0.0


def compare(spec, base, new):
    """Prints the metric table; returns how many rows warn."""
    old_m, new_m = base["result"]["metrics"], new["result"]["metrics"]
    print(f"{new['workload']}: baseline num_cpu={base['num_cpu']} {base['go_version']}, "
          f"this run num_cpu={new['num_cpu']} {new['go_version']}")
    print(f"{'metric':<14} {'baseline':>12} {'now':>12} {'change':>8} {'bound':>7}")
    warned = 0
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        if name not in old_m or name not in new_m:
            continue
        old, now = old_m[name]["value"], new_m[name]["value"]
        change = (now - old) / old if old else 0.0
        worse = -change if m["better"] == "higher" else change
        flag = ""
        if worse > bound:
            flag = "  WARN"
            warned += 1
        print(f"{name:<14} {old:>12.4g} {now:>12.4g} {change:>+8.1%} {bound:>7.0%}{flag}")
    if failed_share(new["result"]) > failed_share(base["result"]):
        print(f"failed ops: {new['result']['failed']}/{new['result']['attempted']}, "
              f"baseline {base['result']['failed']}/{base['result']['attempted']}  WARN")
        warned += 1
    return warned


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=["record", "compare"])
    ap.add_argument("--base", metavar="DIR",
                    help="compare: alternate runs with this checkout as the baseline")
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.mode == "record":
        runs = {w: [] for w in args.workloads}
        for _ in range(RECORD_RUNS):
            for w in args.workloads:
                runs[w].append(run(spec, w, spec["run_seconds"]))
        for w in args.workloads:
            path = f"BENCH_{w}.json"
            with open(path, "w") as f:
                json.dump(summarize(runs[w]), f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"bench: wrote {path}", file=sys.stderr)
        return
    warned = 0
    for w in args.workloads:
        if args.base:
            base_runs, new_runs = [], []
            for i in range(COMPARE_PAIRS):
                sides = [(base_runs, args.base), (new_runs, None)]
                for runs, checkout in (sides if i % 2 == 0 else sides[::-1]):
                    runs.append(run(spec, w, COMPARE_SECONDS, checkout))
            base, new = summarize(base_runs), summarize(new_runs)
        else:
            with open(f"BENCH_{w}.json") as f:
                base = json.load(f)
            new = run(spec, w, COMPARE_SECONDS)
        warned += compare(spec, base, new)
    if warned:
        print(f"bench: {warned} row(s) worse than their bound (warn-only)", file=sys.stderr)


if __name__ == "__main__":
    main()
