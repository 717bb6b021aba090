"""Alternating parent/change pairs of benchmark runs, written to one JSON file.

For each workload and each seed 1..N this runs ``perfbench/run.py`` once in
the parent checkout and once in the change checkout, alternating which side
runs first (the parent on odd seeds), and reads the last JSON line of every
run.  With ``--layers`` each side also makes a traced run (``--trace 1``) per
seed, in the same order, for the per-layer metrics.  The output holds the
environment of both sides, every pair's metrics, and per metric each side's
median and quartiles, the number of pairs the change won (ties count for
neither side) and each side's attempted and failed passes.  The file is
rewritten after every pair, so an interrupted series keeps what it measured.

The checkouts are plain directories (a ``git clone`` or a ``git archive``
export of each commit).  Standard library only.  Example:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload classic-cli --workload headline --pairs 10 --seconds 60 \\
        --layers --out BENCH_8.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")


def run_bench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its info and result lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"metrics": metrics, "attempted": result["attempted"], "failed": result["failed"],
            "pass_wall_s": info["pass_wall_s"], "environment": info["environment"]}


def directions(root: str) -> dict:
    """Metric name -> "lower" or "higher", from the checkout's BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "iqr": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], key: str, better: dict) -> dict:
    """Per metric: each side's spread and the pairs the change won."""
    done = [p for p in pairs if all("metrics" in p[side + key] for side in SIDES)]
    names = sorted({name for p in done for name in p["change" + key]["metrics"]})
    out = {}
    for name in names:
        vals = {side: [p[side + key]["metrics"][name] for p in done] for side in SIDES}
        sign = -1 if better.get(name, "lower") == "lower" else 1
        won = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        lost = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        out[name] = {"better": better.get(name), "pairs": len(done), "change_won": won,
                     "parent_won": lost, **{side: spread(vals[side]) for side in SIDES}}
    return out


def counts(pairs: list[dict], key: str) -> dict:
    """Each side's passes attempted and failed, and runs that produced no result."""
    out = {}
    for side in SIDES:
        runs = [p[side + key] for p in pairs]
        out[side] = {"runs": len(runs), "runs_errored": sum("error" in r for r in runs),
                     "attempted": sum(r.get("attempted", 0) for r in runs),
                     "failed": sum(r.get("failed", 0) for r in runs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--workload", action="append", required=True, help="repeatable")
    parser.add_argument("--pairs", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--layers", action="store_true", help="add a traced run per side")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    better = directions(roots["change"])
    traces = (0, 1) if args.layers else (0,)
    report = {"command": ["python3", "scripts/bench_pairs.py", *sys.argv[1:]],
              "seconds": args.seconds, "environment": {}, "workloads": {}}

    for workload in args.workload:
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for trace in traces:
                key = "_layers" if trace else ""
                for side in order:
                    run = run_bench(roots[side], workload, seed, args.seconds, trace)
                    if "environment" in run:
                        report["environment"].setdefault(side, run.pop("environment"))
                    pair[side + key] = run
            pairs.append(pair)
            print(f"{time.strftime('%H:%M:%S')} {workload} seed {seed} done", file=sys.stderr)
            entry = {"pairs": pairs, "end_to_end": summarize(pairs, "", better),
                     "passes": counts(pairs, "")}
            if args.layers:
                entry["layers"] = summarize(pairs, "_layers", better)
                entry["layer_passes"] = counts(pairs, "_layers")
            report["workloads"][workload] = entry
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
