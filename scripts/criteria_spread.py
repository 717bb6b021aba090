"""Spread of acceptance criteria 2, 3 and 8 over seeds, on one checkout.

Criterion 3's statistic is the off-peak decay slope over J = 2^8..2^14 for
the seed triples (s, s+1, s+2), s = 5, 8, ..., 32; criterion 2's is the
classic-GI Pearson of the letter over the central half, J = 2^14, for seeds
31..40.  Criterion 8 runs its four two-point probes for the seed sets
s = 0..9, adding s to the ensemble and schedule seeds while the diffuser
(psf_seed 11) and the scene stay fixed; s = 0 is the criterion's own run.
Every number comes from the test helpers the acceptance suite calls, so
they are those the criteria would read on other seeds.  Prints one JSON
line: for criteria 2 and 3 every value, the mean, the sample standard
deviation, and how many values fall outside the criterion's bound
(|slope + 0.5| < 0.1, Pearson >= 0.95); for criterion 8 each probe's dip
contrast per seed set and how many sets fail its monotone-and-bracketed
rule.

Run from anywhere; ``--root`` picks the checkout (default: this one):

    python3 scripts/criteria_spread.py --root /path/to/checkout
"""

import argparse
import json
import os
import statistics
import sys
from dataclasses import replace


def main() -> None:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=here, help="checkout to measure")
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(args.root, "src"), os.path.join(args.root, "tests")]
    from test_acceptance import RESOLUTION, resolution_scan
    from test_correlation import classic_gi_pearson
    from test_patterns import offpeak_decay_slope

    slopes = {s: offpeak_decay_slope(seeds=(s, s + 1, s + 2)) for s in range(5, 33, 3)}
    pearsons = {s: classic_gi_pearson(n=64, count=2**14, seed=s)[0] for s in range(31, 41)}
    report = {}
    for name, values, outside in (
        ("criterion_3_slope", slopes, lambda v: abs(v + 0.5) >= 0.1),
        ("criterion_2_pearson", pearsons, lambda v: v < 0.95),
    ):
        vals = list(values.values())
        report[name] = {
            "values": {str(k): round(v, 4) for k, v in values.items()},
            "mean": round(statistics.mean(vals), 4),
            "sd": round(statistics.stdev(vals), 4),
            "outside": sum(map(outside, vals)),
        }
    scans = {}
    for s in range(10):
        cfg = replace(RESOLUTION, ensemble_seed=RESOLUTION.ensemble_seed + s,
                      schedule=replace(RESOLUTION.schedule, seed=RESOLUTION.schedule.seed + s))
        rows, monotone, _, bracketed = resolution_scan(cfg)
        scans[str(s)] = {
            "contrast": {f"{r['separation_px']}px": round(r["contrast"], 4) for r in rows},
            "resolved": [r["resolved"] for r in rows],
            "pass": monotone and bracketed,
        }
    report["criterion_8_scan"] = {
        "values": scans,
        "fail": sum(not v["pass"] for v in scans.values()),
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
