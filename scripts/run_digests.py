"""SHA-256 of every file a fixed set of small CLI runs writes, for byte-identity checks.

On a 32x32 grid, for each optical case (lens-only, scattering, delta) and
each ensemble kind (random-binary, random-fixed-fill, hadamard, pixel-scan)
this runs, through ``blindgi.cli.main`` in this process:

* ``simulate --dump-patterns 130`` into ``DIR/<case>/<kind>``;
* ``reconstruct`` in direct mode into that run directory, and in
  compensated mode into its ``compensated/`` subdirectory;
* ``evaluate`` on the run directory.

Each case adds a ``simulate --object FILE.f64`` run that reads back the
random-binary run's ``oracle_object.f64``, and a two-point ``resolution``
scan at 0.7, 1.4 and 2 resolution limits.  Two noisy runs of the letter
through the scattering case, one with Gaussian and one with Poisson bucket
noise, are simulated and reconstructed, and one more scattering ``resolution``
scan gives its separations in meters (50 and 100 um).  Then it prints one line
``<sha256>  <path relative to DIR>`` per file, sorted by path, so that

    python3 scripts/run_digests.py --root /path/to/parent /tmp/a > parent.txt
    python3 scripts/run_digests.py /tmp/b > change.txt
    diff parent.txt change.txt

is the check that two checkouts write the same bytes.  ``--root`` picks the
checkout whose ``src/`` is imported (default: this one).  DIR must not exist
yet.  A run that exits non-zero stops the script with exit status 1.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys

CASES = ("lens-only", "scattering", "delta")
KINDS = ("random-binary", "random-fixed-fill", "hadamard", "pixel-scan")
COMMON = [
    "--grid.nx", "32", "--grid.ny", "32",
    "--optical.aperture-diameter", "2e-3",
    "--ensemble.count", "1024",
    "--schedule.cycles", "2", "--schedule.restarts", "2",
    "--support.box", "half",
]


def digests(top: str) -> list[str]:
    """``<sha256>  <relative path>`` for every file under ``top``, sorted by path."""
    lines = []
    for parent, _, names in os.walk(top):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, top), digest))
    return [f"{digest}  {rel}" for rel, digest in sorted(lines)]


def main() -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", help="output directory (must not exist)")
    parser.add_argument("--root", default=here, help="checkout to run")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))
    from blindgi.cli import main as cli

    os.makedirs(args.dir)
    # paths inside DIR are relative, so run_config.txt reads the same in any DIR
    os.chdir(args.dir)

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli(list(argv))
        if code != 0:
            raise SystemExit(f"exit {code}: blindgi {' '.join(argv)}")

    for case in CASES:
        flags = [*COMMON, "--optical.case", case]
        for kind in KINDS:
            out = os.path.join(case, kind)
            run("simulate", "--out", out, "--dump-patterns", "130", *flags,
                "--ensemble.kind", kind)
            run("reconstruct", "--run", out, "--compensation.mode", "direct")
            run("reconstruct", "--run", out, "--out", os.path.join(out, "compensated"),
                "--compensation.mode", "compensated")
            run("evaluate", "--run", out)
        obj = os.path.join(case, "random-binary", "oracle_object.f64")
        run("simulate", "--out", os.path.join(case, "object-file"), *flags, "--object", obj)
        run("resolution", "--out", os.path.join(case, "resolution"), *flags,
            "--ensemble.kind", "random-fixed-fill", "--separations-rel", "0.7,1.4,2")
    for noise in ("gaussian", "poisson"):
        out = os.path.join("scattering", f"noise-{noise}")
        run("simulate", "--out", out, *COMMON, "--optical.case", "scattering", "--noise.kind", noise)
        run("reconstruct", "--run", out)
    run("resolution", "--out", os.path.join("scattering", "resolution-m"), *COMMON,
        "--optical.case", "scattering", "--ensemble.kind", "random-fixed-fill",
        "--separations", "5e-5,1e-4")
    print("\n".join(digests(".")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
