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

At the end it prints, and adds to the file, one verdict line per workload
and end-to-end metric.  The gain rule holds when the change won at least 9
in 10 of the pairs and its median is better than the parent's by more than
the parent's interquartile range.  The bound check passes when the change's
median is worse than the parent's by no more than the metric's bound in
``BENCHMARK.json``, a share of the parent's median.

With ``--tier1 N`` it then runs N alternating pairs of the tier-1 test suite
(``python -m pytest -q --continue-on-collection-errors`` with ``src`` on the
path), with one BLAS thread, ``-p no:cacheprovider`` and ``--durations=0
--durations-min=0``.  Each run records its wall time, its passed, failed and
error counts and every test's duration (setup, call and teardown summed); the
``tier1`` entry holds the pairs, the same spreads and change-won counts for
those numbers and for each test, and a gain-rule verdict on the wall time.

The checkouts are plain directories (a ``git clone`` or a ``git archive``
export of each commit).  Standard library only.  Example:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload classic-cli --workload headline --pairs 10 --seconds 60 \\
        --layers --tier1 5 --out BENCH_8.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
TIER1_BETTER = {"wall_s": "lower", "passed": "higher", "failed": "lower", "errors": "lower"}
_DURATION = re.compile(r"^(\d+\.\d+)s (?:setup|call|teardown) +(.+)$")
_COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")


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


def run_tier1(root: str) -> dict:
    """One tier-1 run in ``root``: wall time, outcome counts and per-test seconds."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "--durations=0", "--durations-min=0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    summary = next((line for line in reversed(lines) if " in " in line and _COUNT.search(line)), "")
    if not summary:
        return {"error": f"exit {proc.returncode}: {(proc.stdout + proc.stderr).strip()[-2000:]}"}
    metrics = {"wall_s": wall, "passed": 0, "failed": 0, "errors": 0}
    for number, outcome in _COUNT.findall(summary):
        metrics["errors" if outcome.startswith("error") else outcome] += int(number)
    tests = {}
    for line in lines:
        m = _DURATION.match(line)
        if m:
            tests[m.group(2)] = tests.get(m.group(2), 0.0) + float(m.group(1))
    return {"metrics": metrics, "tests": tests, "exit": proc.returncode}


def tier1_entry(pairs: list[dict]) -> dict:
    """The ``tier1`` entry: the pairs, the spreads of their totals, and the
    spreads of the seconds of each test that both sides ran in every pair."""
    done = [p for p in pairs if all("tests" in p[side] for side in SIDES)]
    names = [set(p[side]["tests"]) for p in done for side in SIDES]
    common = set.intersection(*names) if names else set()
    per_test = [{side: {"metrics": {name: p[side]["tests"][name] for name in common}}
                 for side in SIDES} for p in done]
    return {"pairs": pairs, "summary": summarize(pairs, "", TIER1_BETTER),
            "tests": summarize(per_test, "", dict.fromkeys(common, "lower"))}


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def directions(bench: dict) -> dict:
    """Metric name -> "lower" or "higher"."""
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


def verdict(workload: str, name: str, metric: dict, bound: float | None) -> str:
    """The gain rule and the bound check of one end-to-end metric, as one line;
    a metric with no ``bound`` gets the gain rule only."""
    parent, change, pairs = metric["parent"], metric["change"], metric["pairs"]
    if pairs < 2:
        return f"{workload} {name}: {pairs} pair(s), no verdict"
    sign = -1 if metric["better"] == "lower" else 1
    gain = sign * (change["median"] - parent["median"])  # > 0: the change is better
    rel = (change["median"] - parent["median"]) / abs(parent["median"]) if parent["median"] else 0.0
    gain_holds = 10 * metric["change_won"] >= 9 * pairs and gain > parent["iqr"]
    within = bound is None or -gain <= bound * abs(parent["median"])
    checked = "no bound" if bound is None else f"bound {bound:g} {'passes' if within else 'FAILS'}"
    return (f"{workload} {name}: median {parent['median']:.6g} -> {change['median']:.6g} "
            f"({rel:+.1%}), change won {metric['change_won']}/{pairs}, parent IQR "
            f"{parent['iqr']:.3g}; gain rule {'holds' if gain_holds else 'does not hold'}; "
            f"{checked}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--workload", action="append", default=[], help="repeatable")
    parser.add_argument("--pairs", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--layers", action="store_true", help="add a traced run per side")
    parser.add_argument("--tier1", type=int, default=0, metavar="N",
                        help="then run N alternating pairs of the tier-1 suite")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    bench = load_benchmark(roots["change"])
    better = directions(bench)
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

    tier1 = []
    for n in range(1, args.tier1 + 1):
        order = SIDES if n % 2 else SIDES[::-1]
        tier1.append({"pair": n, "first": order[0],
                      **{side: run_tier1(roots[side]) for side in order}})
        print(f"{time.strftime('%H:%M:%S')} tier1 pair {n} done", file=sys.stderr)
        report["tier1"] = tier1_entry(tier1)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)

    report["verdicts"] = [
        verdict(workload, m["name"], entry["end_to_end"][m["name"]], m["bound"])
        for workload, entry in report["workloads"].items()
        for m in bench["end_to_end"] if m["name"] in entry["end_to_end"]
    ]
    tier1_wall = report.get("tier1", {}).get("summary", {}).get("wall_s")
    if tier1_wall:
        report["verdicts"].append(verdict("tier1", "wall_s", tier1_wall, None))
    print("\n".join(report["verdicts"]))
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
