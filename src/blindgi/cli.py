"""Command-line interface.

Subcommands::

    blindgi simulate    --config cfg.txt --out RUNDIR [overrides]
    blindgi reconstruct --run RUNDIR [--out DIR] [overrides]
    blindgi evaluate    --run RUNDIR [--out DIR]
    blindgi resolution  --config cfg.txt --out DIR --separations-rel 0.5,1,2

Any dotted config key can be overridden on the command line with
``--<key> value`` using dashes for underscores, e.g. ``--optical.z-o 0.3``.
Exit codes: 0 success, 2 usage/config (a size too large to allocate included),
3 data format, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import arrayio
from .config import RunConfig, config_from_entries, config_to_entries
from .errors import BlindGIError, ConfigError, DataError, FormatError, UsageError
from .evaluation import align_and_score
from .forward import MeasurementSet, psf_for, simulate
from .grid import RealImage
from .patterns import iter_chunks, unpack
from .pipeline import (build_object, read_image, resolution_probe, run_reconstruction,
                       separation_px)

CONFIG_FILE = "run_config.txt"
BUCKETS_FILE = "buckets.csv"
ORACLE_OBJECT_FILE = "oracle_object.f64"  # ground truth, for scoring only
ORACLE_PSF_FILE = "oracle_psf.f64"


def _extract_overrides(extra: list[str]) -> dict[str, str]:
    """Parse leftover '--dotted.key value' or '--dotted.key=value' tokens into config entries."""
    overrides = {}
    tokens = iter(extra)
    for token in tokens:
        if not token.startswith("--"):
            raise UsageError(f"unexpected argument {token!r}")
        flag, eq, value = token[2:].partition("=")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"missing value for {token}")
        overrides[flag.replace("-", "_")] = value
    return overrides


def _load_config(path: str | None, overrides: dict[str, str]) -> RunConfig:
    entries = {}
    if path:
        entries.update(arrayio.read_flat_config(path))
    entries.update(overrides)
    return config_from_entries(entries)


def _write_run_config(out_dir: str, cfg: RunConfig) -> None:
    arrayio.write_flat_config(os.path.join(out_dir, CONFIG_FILE), config_to_entries(cfg))


def _make_out_dir(path: str) -> None:
    """Create the output directory; an existing directory is reused."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {path}: cannot create directory ({exc.strerror})") from None


def cmd_simulate(args, overrides) -> int:
    if args.dump_patterns < 0:
        raise UsageError(f"--dump-patterns must be >= 0, got {args.dump_patterns}")
    cfg = _load_config(args.config, overrides)
    obj, psf = build_object(cfg), psf_for(cfg.optical(), cfg.psf_seed)
    # the buckets are written, not correlated: the pass skips the pattern sum
    ms = simulate(obj, psf, cfg.ensemble(), cfg.noise(), cfg.psf_seed, sums=False)
    _make_out_dir(args.out)
    pitch = cfg.grid_pitch
    arrayio.write_buckets_csv(os.path.join(args.out, BUCKETS_FILE), ms.buckets)
    arrayio.write_array(
        os.path.join(args.out, ORACLE_OBJECT_FILE), obj.values, pitch, kind=arrayio.KIND_IMAGE
    )
    arrayio.write_array(
        os.path.join(args.out, ORACLE_PSF_FILE), psf.values, pitch, kind=arrayio.KIND_PSF
    )
    if args.dump_patterns:
        # patterns 0..K-1 are the whole ensemble of count K: one pass writes them
        first = replace(ms.ensemble, count=min(args.dump_patterns, ms.ensemble.count))
        for lo, _, packed in iter_chunks(first):
            for j, pattern in enumerate(unpack(first, packed), start=lo):
                arrayio.write_pgm16(os.path.join(args.out, f"pattern_{j:06d}.pgm"), pattern)
    _write_run_config(args.out, cfg)
    print(f"simulated {ms.ensemble.count} buckets -> {args.out}")
    return 0


def _load_measurements(run_dir: str, cfg: RunConfig) -> MeasurementSet:
    path = os.path.join(run_dir, BUCKETS_FILE)
    buckets = arrayio.read_buckets_csv(path)
    if len(buckets) != cfg.ensemble_count:
        raise FormatError(
            f"{path}: {len(buckets)} bucket rows, but ensemble.count is {cfg.ensemble_count}"
        )
    return MeasurementSet(cfg.ensemble(), buckets)


def _load_truth(run_dir: str, cfg: RunConfig) -> RealImage | None:
    path = os.path.join(run_dir, ORACLE_OBJECT_FILE)
    if not os.path.exists(path):
        return None
    return read_image(path, cfg.grid())


def cmd_reconstruct(args, overrides) -> int:
    run_cfg_path = os.path.join(args.run, CONFIG_FILE)
    cfg = _load_config(run_cfg_path, overrides)
    ms = _load_measurements(args.run, cfg)
    truth = _load_truth(args.run, cfg)
    result = run_reconstruction(cfg, ms, truth=truth)
    out_dir = args.out or args.run
    _make_out_dir(out_dir)

    pitch = cfg.grid_pitch

    def dump(name, values, centered=False, kind=arrayio.KIND_IMAGE):
        arrayio.write_array(os.path.join(out_dir, name + ".f64"), values, pitch, centered, kind)
        arrayio.write_pgm16(os.path.join(out_dir, name + ".pgm"), values)

    dump("correlation", result.correlation.values, kind=arrayio.KIND_CORRELATION)
    dump("spectrum", result.spectrum.values, centered=True, kind=arrayio.KIND_SPECTRUM)
    if cfg.compensation_mode == "compensated":
        dump("target", result.target.values, centered=True, kind=arrayio.KIND_SPECTRUM)
    dump("reconstruction", result.reconstruction.image.values)

    arrayio.write_csv(
        os.path.join(out_dir, "ef_trace.csv"),
        ("iteration", "fourier_error"),
        ((str(i), repr(float(v))) for i, v in enumerate(result.reconstruction.ef_trace)),
    )

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
    result = align_and_score(read_image(recon_path, cfg.grid()), truth)
    out_dir = args.out or args.run
    _make_out_dir(out_dir)
    path = os.path.join(out_dir, "evaluation.csv")
    row = (repr(result.pearson), str(result.shift[0]), str(result.shift[1]),
           str(result.flipped).lower())
    arrayio.write_csv(path, ("pearson", "shift_dy", "shift_dx", "flipped"), [row])
    print(f"aligned pearson {result.pearson:.4f} -> {path}")
    return 0


def _parse_separations(args, cfg: RunConfig) -> list[float]:
    """The scan's separations in meters, each checked before the first probe runs."""
    flag = "--separations" if args.separations else "--separations-rel"
    text = args.separations or args.separations_rel or ""
    try:
        values = [float(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None
    if not values:
        raise UsageError("no separations given; use --separations or --separations-rel")
    unit = 1.0 if args.separations else cfg.optical().resolution_limit
    for value in values:
        try:
            separation_px(cfg.grid(), value * unit)
        except ConfigError as exc:
            raise UsageError(f"{flag} {value!r}: {exc}") from None
    return [value * unit for value in values]


def cmd_resolution(args, overrides) -> int:
    cfg = _load_config(args.config, overrides)
    seps = _parse_separations(args, cfg)
    rows = [resolution_probe(cfg, sep) for sep in seps]
    _make_out_dir(args.out)
    path = os.path.join(args.out, "resolution.csv")
    arrayio.write_csv(
        path,
        ("separation_m", "separation_px", "resolved", "contrast", "pearson"),
        ((repr(r["separation_m"]), str(r["separation_px"]), str(r["resolved"]).lower(),
          repr(r["contrast"]), repr(r["pearson"])) for r in rows),
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
    seps = p_res.add_mutually_exclusive_group()
    seps.add_argument("--separations", help="comma list of separations in meters")
    seps.add_argument("--separations-rel", help="comma list in units of the resolution limit")
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
        overrides = _extract_overrides(extra)
        return _HANDLERS[args.command](args, overrides)
    except BlindGIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # a size too large to allocate: numpy's text names the shape
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
