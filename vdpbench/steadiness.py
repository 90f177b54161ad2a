#!/usr/bin/env python3
"""Measures how steady the benchmark is on this host.

Runs vdpbench/run.py once per seed on each workload (untraced), then prints,
for every end-to-end metric of BENCHMARK.json, the median and the quartiles
of its values (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound. --out writes the same record
as JSON; --markdown writes it as a table.

  python3 vdpbench/steadiness.py --runs 10 [--workloads release ingest]
      [--seconds S] [--first-seed N] [--out FILE.json] [--markdown FILE.md]

--compare FIRST.json SECOND.json checks two such records of the same code
instead: for every workload and metric, the second median must not be worse
than the first by more than the metric's bound.

  python3 vdpbench/steadiness.py --compare FIRST.json SECOND.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("run failed: %s seed %d (exit %d)" % (workload, seed, proc.returncode))
    host = next((l[len("host: "):] for l in lines if l.startswith("host: ")), "")
    return json.loads(lines[-1]), host, time.monotonic() - start


def compare(first_path, second_path, bench):
    """Prints the median shift per metric; returns False if one exceeds its bound."""
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    ok = True
    print("| workload | metric | first median | second median | worse by | bound |")
    print("|---|---|---|---|---|---|")
    for workload, w in second["workloads"].items():
        for name, r in w["metrics"].items():
            before = first["workloads"][workload]["metrics"][name]["median"]
            change = (r["median"] - before) / before
            worse = change if better[name] == "lower" else -change
            ok = ok and worse <= r["bound"]
            print("| %s | %s | %.4g | %.4g | %+.3f | %.2f |" % (workload, name, before,
                                                             r["median"], worse, r["bound"]))
    print("second set within bounds: %s" % ok)
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--markdown")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        sys.exit(0 if compare(*args.compare, bench) else 1)

    record = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        ops, walls, failed, correct = [], [], 0, True
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, host, wall = run_once(workload, seed, args.seconds)
            walls.append(round(wall, 1))
            correct = correct and result["correct"]
            failed += result["failed"]
            ops.append(result["attempted"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, json.dumps(result["metrics"])), flush=True)
        rows = {}
        for metric in bench["end_to_end"]:
            v = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(v, n=4)
            rows[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1,
                                    "q3": q3, "spread": (q3 - q1) / median,
                                    "bound": metric["bound"], "values": v}
        record["workloads"][workload] = {"host": host, "correct": correct, "failed": failed,
                                         "ops_per_run": ops, "wall_s_per_run": walls,
                                         "metrics": rows}

    table = ["| workload | metric | median | q1 | q3 | spread | bound | spread/bound |",
             "|---|---|---|---|---|---|---|---|"]
    for workload, w in record["workloads"].items():
        for name, r in w["metrics"].items():
            table.append("| %s | %s (%s) | %.4g | %.4g | %.4g | %.3f | %.2f | %.2f |" % (
                workload, name, r["unit"], r["median"], r["q1"], r["q3"], r["spread"],
                r["bound"], r["spread"] / r["bound"]))
    notes = []
    for workload, w in record["workloads"].items():
        notes.append("%s: host %s; ops per run %d-%d, wall per run %.1f-%.1f s, failed %d, "
                     "all correct: %s" % (
            workload, w["host"], min(w["ops_per_run"]), max(w["ops_per_run"]),
            min(w["wall_s_per_run"]), max(w["wall_s_per_run"]), w["failed"], w["correct"]))
    heading = "%d runs of %g s per workload, seeds %d-%d" % (
        args.runs, args.seconds, args.first_seed, args.first_seed + args.runs - 1)
    print("\n" + heading + "\n\n" + "\n".join(table) + "\n\n" + "\n".join(notes))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(heading + "\n\n" + "\n".join(table) + "\n\n")
            f.write("".join("- " + note + "\n" for note in notes))


if __name__ == "__main__":
    main()
