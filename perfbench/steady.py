#!/usr/bin/env python3
"""Steadiness check for the campuslab benchmark.

Runs one workload --runs times, each on its own seed (--first-seed and up)
or all on one seed (--seed), then prints, for every end-to-end metric in
BENCHMARK.json, the median, the quartiles and the spread (third minus first
quartile, as a share of the median) against the metric's bound. A spread
above a third of the bound is flagged: the benchmark aims below it. Distinct
seeds mix the differences between inputs with the noise between runs; one
seed repeated shows the noise alone.

    python3 perfbench/steady.py --workload query --runs 10 --first-seed 1
    python3 perfbench/steady.py --workload query --runs 10 --seed 101 --out perfbench/baseline/x.json

Run it from the root of the repository.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


DIGEST_PREFIX = "perfbench: input digest "
DIGEST_FILE = "perfbench/digests.json"


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: {res['failed']} failed operations")
    res["seed"], res["wall_s"] = seed, round(wall, 2)
    for line in proc.stderr.splitlines():
        if line.startswith(DIGEST_PREFIX):
            res["input_digest"] = line[len(DIGEST_PREFIX):]
    return res


def summarize(bench, runs):
    rows = []
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        rows.append({"name": m["name"], "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": spread, "bound": m["bound"], "values": values})
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1, help="seeds first-seed .. first-seed+runs-1")
    ap.add_argument("--seed", type=int, help="run this one seed --runs times instead")
    ap.add_argument("--seconds", type=int, help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--out", help="write the runs and the summary to this JSON file")
    ap.add_argument("--pin", action="store_true",
                    help=f"record each seed's input digest in {DIGEST_FILE}; runs then check their inputs against it")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    if args.seed is not None:
        seeds = [args.seed] * args.runs
        label = f"seed {args.seed} repeated"
    else:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        label = f"seeds {seeds[0]}..{seeds[-1]}"
    runs = []
    for seed in seeds:
        runs.append(run_once(args.workload, seed, seconds))
        print(f"seed {seed}: {runs[-1]['wall_s']} s wall", file=sys.stderr)
    rows = summarize(bench, runs)
    print(f"{args.workload}: {len(runs)} runs, {label}, {seconds} s each")
    print(f"{'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for r in rows:
        flag = "" if r["spread"] <= r["bound"] / 3 else ("  above bound/3" if r["spread"] <= r["bound"] else "  ABOVE BOUND")
        if r["name"] == "setup_s":
            flag = ""  # set-up is compared by median only
        print(f"{r['name']:<14} {r['median']:>14.4f} {r['q1']:>14.4f} {r['q3']:>14.4f} {r['spread']:>8.3f} {r['bound']:>6.2f}{flag}")
        print("    " + " ".join(f"{v:.4g}" for v in r["values"]))
    if args.pin:
        pinned = {}
        if os.path.exists(DIGEST_FILE):
            with open(DIGEST_FILE) as f:
                pinned = json.load(f)
        for r in runs:
            pinned.setdefault(args.workload, {})[str(r["seed"])] = r["input_digest"]
        with open(DIGEST_FILE, "w") as f:
            json.dump(pinned, f, indent=1, sort_keys=True)
            f.write("\n")
    if args.out:
        env = {
            "nproc": os.cpu_count(),
            "gomaxprocs": os.environ.get("GOMAXPROCS", "unset (= nproc)"),
            "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip(),
            "platform": platform.platform(),
            "fsync": "ingest WAL: FsyncInterval (datastore default)",
        }
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "seeds": label, "environment": env,
                       "summary": rows, "runs": runs}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
