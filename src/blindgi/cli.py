"""Command-line interface.

Subcommands::

    blindgi simulate    --config cfg.txt --out RUNDIR [overrides]
    blindgi reconstruct --run RUNDIR [--out DIR] [overrides]
    blindgi evaluate    --run RUNDIR [--out DIR]
    blindgi resolution  --config cfg.txt --out DIR --separations-rel 0.5,1,2

Any dotted config key can be overridden on the command line with
``--<key> value`` using dashes for underscores, e.g. ``--optical.z-o 0.3``.
Exit codes: 0 success, 2 usage/config, 3 data format, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import arrayio
from .config import KEYMAP, RunConfig, config_from_entries, config_to_entries
from .errors import (
    BlindGIError,
    ConfigError,
    DataError,
    FormatError,
    NumericalError,
    UsageError,
)
from .grid import RealImage
from .forward import MeasurementSet
from .pipeline import resolution_probe, run_reconstruction, run_simulation

CONFIG_FILE = "run_config.txt"
BUCKETS_FILE = "buckets.csv"
ORACLE_OBJECT_FILE = "oracle_object.f64"  # ground truth, for scoring only
ORACLE_PSF_FILE = "oracle_psf.f64"


def _flag_to_key(flag: str) -> str:
    return flag.replace("-", "_")


def _extract_overrides(extra: list[str]) -> dict[str, str]:
    """Parse leftover '--dotted.key value' tokens into config entries."""
    overrides = {}
    i = 0
    while i < len(extra):
        token = extra[i]
        if not token.startswith("--"):
            raise UsageError(f"unexpected argument {token!r}")
        body = token[2:]
        if "=" in body:
            flag, value = body.split("=", 1)
        else:
            if i + 1 >= len(extra):
                raise UsageError(f"missing value for {token}")
            flag, value = body, extra[i + 1]
            i += 1
        parts = flag.split(".")
        key = ".".join(_flag_to_key(p) for p in parts)
        if key not in KEYMAP:
            raise UsageError(f"unknown config key {key!r} (from {token})")
        overrides[key] = value
        i += 1
    return overrides


def _load_config(path: str | None, overrides: dict[str, str],
                 base: RunConfig | None = None) -> RunConfig:
    entries = {}
    if path:
        entries.update(arrayio.read_flat_config(path))
    entries.update(overrides)
    return config_from_entries(entries, base=base)


def _write_run_config(out_dir: str, cfg: RunConfig) -> None:
    arrayio.write_flat_config(os.path.join(out_dir, CONFIG_FILE), config_to_entries(cfg))


def cmd_simulate(args, overrides) -> int:
    if args.dump_patterns < 0:
        raise UsageError(f"--dump-patterns must be >= 0, got {args.dump_patterns}")
    cfg = _load_config(args.config, overrides)
    os.makedirs(args.out, exist_ok=True)
    ms, obj, psf = run_simulation(cfg)
    pitch = cfg.grid_pitch
    arrayio.write_buckets_csv(os.path.join(args.out, BUCKETS_FILE), ms.buckets)
    arrayio.write_array(
        os.path.join(args.out, ORACLE_OBJECT_FILE), obj.values, pitch, kind=arrayio.KIND_IMAGE
    )
    arrayio.write_array(
        os.path.join(args.out, ORACLE_PSF_FILE), psf.values, pitch, kind=arrayio.KIND_PSF
    )
    if args.dump_patterns:
        from .patterns import generate_pattern

        for j in range(min(args.dump_patterns, cfg.ensemble_count)):
            pat = generate_pattern(cfg.ensemble(), j)
            arrayio.write_pgm16(os.path.join(args.out, f"pattern_{j:06d}.pgm"), pat.values)
    _write_run_config(args.out, cfg)
    print(f"simulated {ms.ensemble.count} buckets -> {args.out}")
    return 0


def _load_measurements(run_dir: str, cfg: RunConfig) -> MeasurementSet:
    buckets = arrayio.read_buckets_csv(os.path.join(run_dir, BUCKETS_FILE))
    return MeasurementSet(cfg.ensemble(), buckets, cfg.optical())


def _load_truth(run_dir: str, cfg: RunConfig) -> RealImage | None:
    path = os.path.join(run_dir, ORACLE_OBJECT_FILE)
    if not os.path.exists(path):
        return None
    values, meta = arrayio.read_array(path)
    return RealImage(cfg.grid(), values)


def cmd_reconstruct(args, overrides) -> int:
    run_cfg_path = os.path.join(args.run, CONFIG_FILE)
    cfg = _load_config(run_cfg_path, overrides)
    out_dir = args.out or args.run
    os.makedirs(out_dir, exist_ok=True)
    ms = _load_measurements(args.run, cfg)
    truth = _load_truth(args.run, cfg)
    result = run_reconstruction(cfg, ms, truth=truth)

    pitch = cfg.grid_pitch

    def dump(name, values, centered=False, kind=arrayio.KIND_IMAGE):
        arrayio.write_array(os.path.join(out_dir, name + ".f64"), values, pitch, centered, kind)
        arrayio.write_pgm16(os.path.join(out_dir, name + ".pgm"), values)

    dump("correlation", result.correlation.values, kind=arrayio.KIND_CORRELATION)
    dump("spectrum", result.spectrum.values, centered=True, kind=arrayio.KIND_SPECTRUM)
    if cfg.compensation_mode == "compensated":
        dump("target", result.target.values, centered=True, kind=arrayio.KIND_SPECTRUM)
    dump("reconstruction", result.reconstruction.image.values)

    trace = result.reconstruction.ef_trace
    with open(os.path.join(out_dir, "ef_trace.csv"), "w") as fh:
        fh.write("iteration,fourier_error\n")
        for i, v in enumerate(trace):
            fh.write(f"{i},{float(v)!r}\n")

    metrics = {
        "fourier_error": repr(result.reconstruction.fourier_error),
        "restart_id": str(result.reconstruction.restart_id),
        "iterations_run": str(result.reconstruction.iterations_run),
        "compensation_mode": cfg.compensation_mode,
    }
    if result.alignment is not None:
        metrics.update(
            aligned_pearson=repr(result.alignment.pearson),
            shift_dy=str(result.alignment.shift[0]),
            shift_dx=str(result.alignment.shift[1]),
            flipped=str(result.alignment.flipped).lower(),
        )
    arrayio.write_flat_config(os.path.join(out_dir, "metrics.txt"), metrics)
    print(f"reconstruction written to {out_dir} "
          f"(fourier_error={result.reconstruction.fourier_error:.4g})")
    return 0


def cmd_evaluate(args, overrides) -> int:
    run_cfg_path = os.path.join(args.run, CONFIG_FILE)
    cfg = _load_config(run_cfg_path, overrides)
    truth = _load_truth(args.run, cfg)
    if truth is None:
        raise DataError(f"no {ORACLE_OBJECT_FILE} in {args.run}; cannot score")
    recon_path = os.path.join(args.run, "reconstruction.f64")
    if not os.path.exists(recon_path):
        raise FormatError(f"no reconstruction.f64 in {args.run}; run reconstruct first")
    values, _ = arrayio.read_array(recon_path)
    from .evaluation import align_and_score

    result = align_and_score(RealImage(cfg.grid(), values), truth)
    out_dir = args.out or args.run
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "evaluation.csv")
    with open(path, "w") as fh:
        fh.write("pearson,shift_dy,shift_dx,flipped\n")
        fh.write(f"{result.pearson!r},{result.shift[0]},{result.shift[1]},"
                 f"{str(result.flipped).lower()}\n")
    print(f"aligned pearson {result.pearson:.4f} -> {path}")
    return 0


def _float_list(flag: str, text: str) -> list[float]:
    try:
        values = [float(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{flag} values must be finite, got {text!r}")
    return values


def _parse_separations(args, cfg: RunConfig) -> list[float]:
    if args.separations:
        seps = _float_list("--separations", args.separations)
    elif args.separations_rel:
        unit = cfg.optical().resolution_limit
        seps = [s * unit for s in _float_list("--separations-rel", args.separations_rel)]
    else:
        seps = []
    if not seps:
        raise UsageError("no separations given; use --separations or --separations-rel")
    return seps


def cmd_resolution(args, overrides) -> int:
    cfg = _load_config(args.config, overrides)
    seps = _parse_separations(args, cfg)
    os.makedirs(args.out, exist_ok=True)
    rows = [resolution_probe(cfg, sep) for sep in seps]
    path = os.path.join(args.out, "resolution.csv")
    with open(path, "w") as fh:
        fh.write("separation_m,separation_px,resolved,contrast,pearson\n")
        for r in rows:
            fh.write(
                f"{r['separation_m']!r},{r['separation_px']},"
                f"{str(r['resolved']).lower()},{r['contrast']!r},{r['pearson']!r}\n"
            )
    print(f"resolution scan ({len(rows)} separations) -> {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting, so main() reports it like any other."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blindgi",
        description="Ghost imaging through an unknown scatterer: simulate, reconstruct, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="record bucket signals for a pattern ensemble")
    p_sim.add_argument("--config", help="flat key = value config file")
    p_sim.add_argument("--out", required=True, help="output run directory")
    p_sim.add_argument("--dump-patterns", type=int, default=0, metavar="K",
                       help="debug: also write the first K patterns as PGM previews")

    p_rec = sub.add_parser("reconstruct", help="correlate and phase-retrieve a run")
    p_rec.add_argument("--run", required=True, help="run directory from simulate")
    p_rec.add_argument("--out", help="output directory (default: the run directory)")

    p_eval = sub.add_parser("evaluate", help="score a reconstruction against the stored truth")
    p_eval.add_argument("--run", required=True)
    p_eval.add_argument("--out")

    p_res = sub.add_parser("resolution", help="two-point resolution scan")
    p_res.add_argument("--config")
    p_res.add_argument("--out", required=True)
    p_res.add_argument("--separations", help="comma list of separations in meters")
    p_res.add_argument("--separations-rel",
                       help="comma list in units of the resolution limit")

    for p in (p_sim, p_rec, p_eval, p_res):
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility and ignored: every stage runs "
                            "on one thread (must be >= 1)")
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "evaluate": cmd_evaluate,
    "resolution": cmd_resolution,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if args.workers < 1:
            raise UsageError(f"--workers must be >= 1, got {args.workers}")
        overrides = _extract_overrides(extra)
        return _HANDLERS[args.command](args, overrides)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BlindGIError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
