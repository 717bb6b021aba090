"""CLI subcommand tests on small, fast configurations."""

import hashlib
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from blindgi import arrayio, cli, errors
from blindgi.cli import main
from blindgi.config import KEYMAP, config_from_entries
from blindgi.patterns import pattern_batch, unpack


def run_cli(*argv):
    return main(list(argv))


SMALL = [
    "--grid.nx", "32", "--grid.ny", "32",
    "--ensemble.count", "4096",
    "--ensemble.kind", "random-fixed-fill",
    "--optical.case", "delta",
    "--schedule.cycles", "4",
    "--schedule.restarts", "4",
    "--object", "rectangle(10,6)",
]


def dir_digest(path, names=None):
    digest = hashlib.sha256()
    for name in sorted(names or os.listdir(path)):
        full = os.path.join(path, name)
        if os.path.isfile(full):
            digest.update(name.encode())
            with open(full, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


class TestSimulate:
    def test_smoke_run_writes_artifacts(self, tmp_path):
        out = str(tmp_path / "run")
        assert run_cli("simulate", "--out", out, *SMALL) == 0
        assert os.path.exists(os.path.join(out, "buckets.csv"))
        assert os.path.exists(os.path.join(out, "run_config.txt"))
        assert os.path.exists(os.path.join(out, "oracle_object.f64"))
        assert os.path.exists(os.path.join(out, "oracle_psf.f64"))
        buckets = arrayio.read_buckets_csv(os.path.join(out, "buckets.csv"))
        assert buckets.shape == (4096,)

    def test_zero_count_is_usage_error(self, tmp_path):
        out = str(tmp_path / "run")
        assert run_cli("simulate", "--out", out, "--ensemble.count", "0") == 2

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli("simulate", "--out", out1, *SMALL)
        run_cli("simulate", "--out", out2, *SMALL)
        assert dir_digest(out1) == dir_digest(out2)

    def test_unknown_key_rejected(self, tmp_path):
        assert run_cli("simulate", "--out", str(tmp_path / "x"), "--bogus.key", "1") == 2

    def test_pattern_dump(self, tmp_path):
        out = str(tmp_path / "run")
        assert run_cli("simulate", "--out", out, "--dump-patterns", "3", *SMALL) == 0
        for j in range(3):
            assert os.path.exists(os.path.join(out, f"pattern_{j:06d}.pgm"))
        # 130 crosses the 128-pattern chunk edge (SMALL is random-fixed-fill);
        # each preview is its pattern's
        out = str(tmp_path / "edge")
        assert run_cli("simulate", "--out", out, "--dump-patterns", "130", *SMALL) == 0
        cfg = config_from_entries(arrayio.read_flat_config(os.path.join(out, "run_config.txt")))
        patterns = unpack(cfg.ensemble(), pattern_batch(cfg.ensemble(), 0, 130))
        want = str(tmp_path / "want.pgm")
        for j in range(130):
            arrayio.write_pgm16(want, patterns[j])
            with open(want, "rb") as fa, open(os.path.join(out, f"pattern_{j:06d}.pgm"), "rb") as fb:
                assert fa.read() == fb.read(), j
        assert not os.path.exists(os.path.join(out, "pattern_000130.pgm"))
        # a K above ensemble.count writes count previews
        out = str(tmp_path / "few")
        assert run_cli("simulate", "--out", out, "--dump-patterns", "9", *SMALL,
                       "--ensemble.count", "5") == 0
        assert sorted(n for n in os.listdir(out) if n.endswith(".pgm")) == [
            f"pattern_{j:06d}.pgm" for j in range(5)]


class TestReconstruct:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        out = str(tmp_path / "run")
        assert run_cli("simulate", "--out", out, *SMALL) == 0
        return out

    def test_end_to_end_outputs(self, run_dir):
        assert run_cli("reconstruct", "--run", run_dir) == 0
        for name in ("correlation.f64", "correlation.pgm", "spectrum.f64",
                     "spectrum.pgm", "reconstruction.f64", "reconstruction.pgm",
                     "ef_trace.csv", "metrics.txt"):
            assert os.path.exists(os.path.join(run_dir, name)), name
        metrics = arrayio.read_flat_config(os.path.join(run_dir, "metrics.txt"))
        assert float(metrics["aligned_pearson"]) > 0.8  # clean small case

    def test_missing_measurements(self, tmp_path):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        arrayio.write_flat_config(os.path.join(empty, "run_config.txt"), {})
        assert run_cli("reconstruct", "--run", empty) == 3

    def test_both_modes_run(self, run_dir, tmp_path):
        out_a = str(tmp_path / "direct")
        out_b = str(tmp_path / "comp")
        assert run_cli("reconstruct", "--run", run_dir, "--out", out_a,
                       "--compensation.mode", "direct") == 0
        assert run_cli("reconstruct", "--run", run_dir, "--out", out_b,
                       "--compensation.mode", "compensated") == 0
        assert os.path.exists(os.path.join(out_b, "target.f64"))

    def test_rerun_byte_identical(self, run_dir, tmp_path):
        outs = [str(tmp_path / f"o{k}") for k in range(3)]
        run_cli("reconstruct", "--run", run_dir, "--out", outs[0])
        run_cli("reconstruct", "--run", run_dir, "--out", outs[1])
        run_cli("reconstruct", "--run", run_dir, "--out", outs[2])
        digests = {dir_digest(o) for o in outs}
        assert len(digests) == 1

    def test_evaluate_subcommand(self, run_dir):
        run_cli("reconstruct", "--run", run_dir)
        assert run_cli("evaluate", "--run", run_dir) == 0
        path = os.path.join(run_dir, "evaluation.csv")
        with open(path) as f:
            header, row = f.read().splitlines()
        assert header == "pearson,shift_dy,shift_dx,flipped"
        assert float(row.split(",")[0]) > 0.8

    def test_subcommands_match_in_process_pipeline(self, run_dir):
        # the file-based route and the in-process route must agree bin by bin
        from blindgi.config import config_from_entries
        from blindgi.pipeline import run_reconstruction, run_simulation

        run_cli("reconstruct", "--run", run_dir)
        cfg = config_from_entries(
            arrayio.read_flat_config(os.path.join(run_dir, "run_config.txt"))
        )
        ms, obj, _ = run_simulation(cfg)
        result = run_reconstruction(cfg, ms, truth=obj)
        for name, values in (
            ("correlation", result.correlation.values),
            ("spectrum", result.spectrum.values),
            ("reconstruction", result.reconstruction.image.values),
        ):
            on_disk, _ = arrayio.read_array(os.path.join(run_dir, name + ".f64"))
            scale = max(np.max(np.abs(values)), 1e-300)
            assert np.max(np.abs(on_disk - values)) <= 1e-12 * scale, name


class TestResolution:
    def test_scan_columns_and_monotone(self, tmp_path):
        out = str(tmp_path / "res")
        code = run_cli(
            "resolution", "--out", out,
            "--grid.nx", "32", "--grid.ny", "32",
            "--ensemble.count", "2048",
            "--ensemble.kind", "random-fixed-fill",
            "--optical.aperture-diameter", "2e-3",
            "--schedule.cycles", "4", "--schedule.restarts", "4",
            "--support.box", "half",
            "--separations", "5e-5,1.5e-4",
        )
        assert code == 0
        with open(os.path.join(out, "resolution.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == "separation_m,separation_px,resolved,contrast,pearson"
        assert len(lines) == 3

    def test_empty_scan_is_usage_error(self, tmp_path):
        assert run_cli("resolution", "--out", str(tmp_path / "r")) == 2

    def test_rerun_identical(self, tmp_path):
        args = ["resolution",
                "--grid.nx", "32", "--grid.ny", "32",
                "--ensemble.count", "1024",
                "--ensemble.kind", "random-fixed-fill",
                "--optical.aperture-diameter", "2e-3",
                "--schedule.cycles", "2", "--schedule.restarts", "2",
                "--support.box", "half",
                "--separations", "1e-4"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli(*args, "--out", a)
        run_cli(*args, "--out", b)
        with open(os.path.join(a, "resolution.csv")) as fa, \
                open(os.path.join(b, "resolution.csv")) as fb:
            assert fa.read() == fb.read()


class TestOverrides:
    """Leftover tokens are '--dotted.key value' or '--dotted.key=value' pairs."""

    def test_key_equals_value(self, tmp_path):
        # '--key=value' sets the key as '--key value' does
        tiny = ["--grid.nx", "16", "--grid.ny", "16", "--optical.case", "delta",
                "--object", "rectangle(2,2)", "--noise.kind", "gaussian"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli("simulate", "--out", a, *tiny, "--ensemble.count", "64",
                       "--noise.snr-db", "30") == 0
        assert run_cli("simulate", "--out", b, *tiny, "--ensemble.count=64",
                       "--noise.snr-db=30") == 0
        entries = arrayio.read_flat_config(os.path.join(b, "run_config.txt"))
        assert entries["ensemble.count"] == "64" and entries["noise.snr_db"] == "30.0"
        assert dir_digest(a) == dir_digest(b)

    def test_value_holding_an_equals_sign(self):
        # only the first '=' ends the key; a later one belongs to the value
        assert cli._extract_overrides(["--object=a=b", "--support.box", "x=y"]) == {
            "object": "a=b", "support.box": "x=y"}

    @pytest.mark.parametrize("tokens,message", [
        (["--ensemble.count"], "missing value for --ensemble.count"),
        (["stray"], "unexpected argument 'stray'"),
        (["--ensemble.count", "64", "stray"], "unexpected argument 'stray'"),
    ])
    def test_malformed_overrides(self, tmp_path, capsys, tokens, message):
        out = tmp_path / "o"
        assert run_cli("simulate", "--out", str(out), *tokens) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()


# Real-valued keys out of range, and the key each error must name.
OUT_OF_RANGE = [
    (["--schedule.beta", "0"], "schedule.beta"),
    (["--schedule.beta", "2"], "schedule.beta"),
    (["--schedule.free-dc-radius", "-1"], "schedule.free_dc_radius"),
    *[(["--compensation.mode", mode, "--compensation.epsilon-fraction", eps],
       "compensation.epsilon_fraction")
      for mode in ("direct", "compensated") for eps in ("0", "-1")],
]

# Values the optics, ensemble and noise models reject, and the key each names.
BAD_MODEL_VALUES = [
    (["--ensemble.count", "0"], "ensemble.count"),
    (["--optical.wavelength", "-1"], "optical.wavelength"),
    (["--noise.kind", "bogus"], "noise.kind"),
    (["--optical.case", "foo"], "optical.case"),
]

# object sizes below one pixel; only simulate builds the object
BAD_OBJECT_SIZES = [
    ("letter(0)", "height"),
    ("letter(-5)", "height"),
    ("letter(12,0)", "stroke"),
    ("double-slit(0)", "slit_width"),
    ("double-slit(2,0)", "slit_height"),
    ("double-slit(2,8,0)", "gap"),
    ("rectangle(0,6)", "width"),
]


class TestBadInputs:
    """Every bad value exits with its documented code and is named on stderr."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("bad") / "run")
        assert run_cli("simulate", "--out", out, *SMALL) == 0
        return out

    @pytest.mark.parametrize("box", ["3x", "axb", "0x0", "17x10", "10x17"])
    def test_support_box_rejected(self, run_dir, tmp_path, capsys, box):
        # SMALL is a 32x32 grid: boxes up to 16x16 fit the central half
        code = run_cli("reconstruct", "--run", run_dir, "--out", str(tmp_path / "o"),
                       "--support.box", box)
        assert code == 2
        assert repr(box) in capsys.readouterr().err
        # simulate checks the box too, before it writes anything
        out = tmp_path / "s"
        assert run_cli("simulate", "--out", str(out), *SMALL, "--support.box", box) == 2
        assert repr(box) in capsys.readouterr().err
        assert not out.exists()

    def test_largest_support_box_accepted(self, run_dir, tmp_path):
        assert run_cli("reconstruct", "--run", run_dir, "--out", str(tmp_path / "o"),
                       "--support.box", "16x16") == 0

    def test_poisson_photons_too_large(self, tmp_path, capsys):
        # above the sampler's largest mean: refused when the config is read
        out = tmp_path / "p"
        code = run_cli("simulate", "--out", str(out), *SMALL,
                       "--noise.kind", "poisson", "--noise.photons", "1e30")
        assert code == 2
        assert "1e+30" in capsys.readouterr().err
        assert not out.exists()

    def test_poisson_brightest_bucket_too_large(self, tmp_path, capsys):
        # found only after the buckets are simulated, still before any output
        out = tmp_path / "p"
        code = run_cli("simulate", "--out", str(out), *SMALL,
                       "--noise.kind", "poisson", "--noise.photons", "9e18")
        assert code == 2
        assert "noise.photons = 9e+18 gives a Poisson mean" in capsys.readouterr().err
        assert not out.exists()

    def test_poisson_noise_on_buckets_that_miss_the_object(self, tmp_path):
        # a pattern that misses the object has a bucket of 0, which the
        # Poisson draw must take
        out = str(tmp_path / "r")
        assert run_cli("simulate", "--out", out, "--grid.nx", "16", "--grid.ny", "16",
                       "--optical.case", "delta", "--ensemble.count", "64",
                       "--object", "rectangle(2,2)", "--noise.kind", "poisson") == 0
        assert np.all(arrayio.read_buckets_csv(os.path.join(out, "buckets.csv")) >= 0)

    @pytest.mark.parametrize("case", ["lens-only", "scattering", "delta"])
    def test_extreme_finite_values(self, tmp_path, capsys, case):
        # every float key at the ends of the float range: each run either
        # works or exits with its documented code, and no traceback escapes;
        # an exit 2 from simulate names the key and writes nothing, and a
        # reconstruct that exits 0 wrote a finite E_F, one that exits 4 nothing.
        # Buckets whose squares overflow are reconstructed and scored at unit scale.
        base = ["--grid.nx", "16", "--grid.ny", "16", "--optical.case", case,
                "--ensemble.count", "64", "--object", "rectangle(2,2)",
                "--schedule.cycles", "1", "--schedule.restarts", "1", "--schedule.final-er", "5"]
        noise = {"noise.snr_db": "gaussian", "noise.photons": "poisson"}
        sweep = [(key, value) for key, (_, parser) in KEYMAP.items() if parser is float
                 for value in ("1e308", "-1e308", "1e300", "1e-300", "5e-324")]
        # finite values that give finite buckets too large to square
        big = np.zeros((16, 16))
        big[7:9, 7:9] = 1e200
        arrayio.write_array(str(tmp_path / "big.f64"), big, 1.25e-5)
        overflows = [("noise.snr_db", "-6000"), ("object", str(tmp_path / "big.f64"))]
        sweep += [*overflows, ("grid.pitch", "1e150"), ("support.margin_px", str(10**30))]
        for n, (key, value) in enumerate(sweep):
            out = str(tmp_path / str(n))
            argv = [*base, "--" + key.replace("_", "-"), value,
                    "--noise.kind", noise.get(key, "none")]
            code = run_cli("simulate", "--out", out, *argv)
            err = capsys.readouterr().err
            if code == 2:
                assert not os.path.exists(out), (key, value)
                assert key in err, (key, value, err)
            if code == 0:
                code = run_cli("reconstruct", "--run", out, "--compensation.mode", "compensated")
                err = capsys.readouterr().err
                metrics = os.path.join(out, "metrics.txt")
                if code == 0:
                    ef = float(arrayio.read_flat_config(metrics)["fourier_error"])
                    assert np.isfinite(ef), (key, value)
                if code == 4:
                    assert not os.path.exists(metrics), (key, value)
                if (key, value) in overflows:
                    assert code == 0, (key, value, err)
                    assert "aligned_pearson" in arrayio.read_flat_config(metrics), (key, value)
            assert code in (0, 2, 3, 4), (key, value, code)
            assert "Traceback" not in err
        # a reconstruction of 1e200 values is scored at unit scale: the truth's block
        out = str(tmp_path / "score")
        assert run_cli("simulate", "--out", out, *base) == 0
        assert run_cli("reconstruct", "--run", out) == 0
        arrayio.write_array(os.path.join(out, "reconstruction.f64"), big, 1.25e-5)
        assert run_cli("evaluate", "--run", out) == 0
        with open(os.path.join(out, "evaluation.csv")) as f:
            pearson = float(f.read().splitlines()[1].split(",")[0])
        assert pearson == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("pitch", ["1e-150", "1e-90", "1e78", "1e150"])
    def test_every_accepted_pitch_runs_end_to_end(self, tmp_path, capsys, pitch):
        # buckets scale with pitch^2; every stage that squares works at unit scale
        out = str(tmp_path / "run")
        assert run_cli("simulate", "--out", out, "--grid.nx", "16", "--grid.ny", "16",
                       "--optical.case", "delta", "--ensemble.count", "256",
                       "--object", "rectangle(2,2)", "--schedule.cycles", "1",
                       "--schedule.restarts", "1", "--schedule.final-er", "5",
                       "--grid.pitch", pitch) == 0
        assert run_cli("reconstruct", "--run", out) == 0, capsys.readouterr().err
        assert run_cli("evaluate", "--run", out) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--optical.dmd-pitch", "8e-4"],  # one source pixel covers the 64x64 grid
        ["--optical.aperture-diameter", "1e-6", "--optical.case", "scattering"],
        ["--optical.aperture-diameter", "1e-6", "--optical.case", "lens-only"],
    ], ids=["dmd-pitch", "scattering-aperture", "lens-only-aperture"])
    def test_compensated_filter_passing_no_frequency(self, tmp_path, capsys, flags):
        # F is 1 at zero frequency and 0 elsewhere: refused when the config is
        # read, naming the keys and the grid, before simulate writes anything
        out = tmp_path / "run"
        assert run_cli("simulate", "--out", str(out), "--ensemble.count", "256",
                       "--compensation.mode", "compensated", *flags) == 2
        err = capsys.readouterr().err
        for name in ("optical.dmd_pitch", "optical.aperture_diameter", "optical.wavelength",
                     "optical.z_o", "64x64 grid"):
            assert name in err, (name, err)
        assert not out.exists()
        # direct mode does not read F
        assert run_cli("simulate", "--out", str(out), "--ensemble.count", "256", *flags) == 0
        assert run_cli("reconstruct", "--run", str(out), "--compensation.mode", "compensated",
                       "--schedule.cycles", "1", "--schedule.restarts", "1") == 2
        assert "optical.dmd_pitch" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "metrics.txt"))

    @pytest.mark.parametrize("radius", ["1e300", "11.32"])
    def test_free_dc_radius_freeing_every_bin(self, tmp_path, capsys, radius):
        # a 16x16 grid's farthest bin lies hypot(8, 8) = 11.3137 pixels from
        # zero frequency: a radius beyond it leaves retrieval no bin to fit,
        # refused when the config is read, before simulate writes anything
        out = tmp_path / "run"
        tiny = ["--grid.nx", "16", "--grid.ny", "16", "--optical.case", "delta",
                "--ensemble.count", "64", "--object", "rectangle(2,2)",
                "--schedule.cycles", "1", "--schedule.restarts", "1", "--schedule.final-er", "5"]
        assert run_cli("simulate", "--out", str(out), *tiny,
                       "--schedule.free-dc-radius", radius) == 2
        err = capsys.readouterr().err
        assert "schedule.free_dc_radius" in err and "16x16 grid" in err and "11.3137" in err
        assert not out.exists()
        # so does reconstruct; a radius that leaves the farthest bins runs
        assert run_cli("simulate", "--out", str(out), *tiny) == 0
        assert run_cli("reconstruct", "--run", str(out), "--schedule.free-dc-radius", radius) == 2
        assert "schedule.free_dc_radius" in capsys.readouterr().err
        assert run_cli("reconstruct", "--run", str(out), "--schedule.free-dc-radius", "11.31") == 0

    @staticmethod
    def _refuses_workers(run_dir, tmp_path, capsys, workers):
        for argv in (
            ["simulate", "--out", str(tmp_path / "s")],
            ["reconstruct", "--run", run_dir, "--out", str(tmp_path / "o")],
            ["evaluate", "--run", run_dir],
            ["resolution", "--out", str(tmp_path / "r"), "--separations", "1e-4"],
        ):
            assert run_cli(*argv, "--workers", workers) == 2
            assert "unknown config key 'workers'" in capsys.readouterr().err
        for name in ("s", "o", "r"):
            assert not (tmp_path / name).exists()

    def test_workers_flag_is_unknown(self, run_dir, tmp_path, capsys):
        # every stage runs on one thread; no subcommand takes --workers, and
        # each refuses it before any output
        self._refuses_workers(run_dir, tmp_path, capsys, "2")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_must_be_positive(self, run_dir, tmp_path, capsys, workers):
        # a non-positive worker count is refused too, before any output
        self._refuses_workers(run_dir, tmp_path, capsys, workers)

    def test_repeated_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("ensemble.count = 1024\nobject = letter\nensemble.count = 2048\n")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert "'ensemble.count' repeated at lines 1 and 3" in err
        assert "Traceback" not in err

    def test_bucket_count_mismatch_is_format_error(self, run_dir, tmp_path, capsys):
        run = str(tmp_path / "run")
        shutil.copytree(run_dir, run)
        path = os.path.join(run, "buckets.csv")
        with open(path, encoding="utf-8") as fh:
            rows = fh.readlines()[:30]  # the header and 29 buckets
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(rows)
        out = tmp_path / "o"
        assert run_cli("reconstruct", "--run", run, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "buckets.csv: 29 bucket rows, but ensemble.count is 4096" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["run_config.txt", "buckets.csv"])
    def test_non_utf8_run_file(self, run_dir, tmp_path, capsys, name):
        run = str(tmp_path / "run")
        shutil.copytree(run_dir, run)
        with open(os.path.join(run, name), "ab") as fh:
            fh.write(b"\xff")
        assert run_cli("reconstruct", "--run", run) == 3
        err = capsys.readouterr().err
        assert name in err and "not utf-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,flags,name", [
        ("reconstruct", ["--schedule.cycles", "-1"], "schedule.cycles"),
        ("reconstruct", ["--schedule.hio-iterations", "-5", "--schedule.cycles", "0"],
         "schedule.hio_iterations"),
        ("reconstruct", ["--schedule.er-iterations", "0"], "schedule.er_iterations"),
        ("reconstruct", ["--schedule.final-er", "0"], "schedule.final_er"),
        ("reconstruct", ["--schedule.restarts", "0"], "schedule.restarts"),
        ("simulate", ["--dump-patterns", "-3"], "--dump-patterns"),
        *[(command, flags, name) for command in ("simulate", "reconstruct")
          for flags, name in OUT_OF_RANGE],
        *[(command, flags, name) for command in ("simulate", "reconstruct")
          for flags, name in BAD_MODEL_VALUES],
        # only simulate builds the object; reconstruct reads the stored truth
        ("simulate", ["--object", "rectangle(60,60)"], "object 'rectangle(60,60)'"),
        ("simulate", ["--object", "rectangle(a,6)"], "object 'rectangle(a,6)'"),
        *[("simulate", ["--object", spec], f"object {spec!r}: {size} must be >= 1 px")
          for spec, size in BAD_OBJECT_SIZES],
        # every separation is checked before the first probe: wider than the
        # grid, below 2 px, or a pair off the central half (16 px on 32x32)
        ("resolution", ["--separations", "1e308"], "--separations 1e+308: separation"),
        ("resolution", ["--separations-rel", "1e308"], "--separations-rel 1e+308: separation"),
        ("resolution", ["--separations-rel", "1.4,2,1e308"], "--separations-rel 1e+308"),
        ("resolution", ["--separations", "1e-5"], "--separations 1e-05: separation"),
        ("resolution", ["--separations", "2e-4"], "--separations 0.0002: two-point pair"),
        # sizes beyond the 128 TiB address space: J float64 buckets that no
        # intp can address are refused with the config, and a 10^8 x 10^8
        # object or a stack of 10^12 restarts fails at once, numpy's message
        # naming the shape
        ("simulate", ["--ensemble.count", str(2**62)], "ensemble.count"),
        ("simulate", ["--grid.nx", "100000000", "--grid.ny", "100000000"],
         "shape (100000000, 100000000)"),
        ("reconstruct", ["--schedule.restarts", str(10**12)], "shape (1000000000000,"),
        # a random-binary threshold of 0 or 2^32 of the 32-bit scores would
        # give all-dark or all-lit patterns
        *[("simulate", ["--ensemble.kind", "random-binary", "--ensemble.fill-fraction", fill],
           "ensemble.fill_fraction = " + fill) for fill in ("1e-12", "0.999999999999")],
        # object specs missing an argument are refused with an example
        ("simulate", ["--object", "two-points"],
         "two-points needs a separation, e.g. two-points(9)"),
        ("simulate", ["--object", "rectangle(20)"],
         "rectangle needs width and height, e.g. rectangle(20,12)"),
        # a support margin below 0 px
        ("simulate", ["--support.margin-px", "-1"], "support.margin_px must be >= 0"),
        # the two ways to give separations exclude each other
        ("resolution", ["--separations", "1e-4", "--separations-rel", "0.7,1.4,2.0"],
         "argument --separations-rel: not allowed with argument --separations"),
    ])
    def test_integer_below_minimum(self, run_dir, tmp_path, capsys, command, flags, name):
        # and real-valued keys out of range, values the models reject,
        # separations no probe can use and sizes that cannot be allocated:
        # each is rejected before any output, when the config is read (the
        # object when simulate builds it, a size when it is allocated)
        where = ["--run", run_dir] if command == "reconstruct" else SMALL
        out = tmp_path / "o"
        assert run_cli(command, *where, "--out", str(out), *flags) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not out.exists()

    def test_weights_overflowing_after_the_pitch_scale(self, tmp_path, capsys):
        # the convolution is finite, so the roundoff rule keeps it; the pitch^2
        # scale overflows and the buckets are refused before any noise is
        # drawn and before any output, with no warning, for every noise kind
        big = np.zeros((16, 16))
        big[7:9, 7:9] = 1e200
        arrayio.write_array(str(tmp_path / "big.f64"), big, 1e150)
        for noise in ("none", "gaussian", "poisson"):
            out = tmp_path / noise
            assert run_cli("simulate", "--out", str(out), "--grid.nx", "16", "--grid.ny", "16",
                           "--optical.case", "delta", "--ensemble.count", "64",
                           "--object", str(tmp_path / "big.f64"), "--grid.pitch", "1e150",
                           "--noise.kind", noise) == 3
            err = capsys.readouterr().err
            assert "buckets contains non-finite values" in err and "Traceback" not in err
            assert "noise" not in err, noise
            assert not out.exists()

    @pytest.mark.parametrize("noise,value,pitch", [
        ("gaussian", 1e300, "1e-2"),  # the squares of their spread overflow
        ("poisson", 1e306, "1"),  # the sum behind their mean overflows
    ], ids=["gaussian", "poisson"])
    def test_finite_buckets_too_large_for_noise(self, tmp_path, capsys, noise, value, pitch):
        # the noise statistics are taken at unit scale, so finite buckets too
        # large to square or to sum still get their noise, and stay finite
        big = np.zeros((16, 16))
        big[4:12, 4:12] = value
        arrayio.write_array(str(tmp_path / "big.f64"), big, float(pitch))
        tiny = ["--grid.nx", "16", "--grid.ny", "16", "--optical.case", "delta",
                "--ensemble.count", "64"]
        out = tmp_path / "o"
        runs = {}
        for kind in (noise, "none"):
            assert run_cli("simulate", "--out", str(out / kind), *tiny, "--grid.pitch", pitch,
                           "--object", str(tmp_path / "big.f64"), "--noise.kind", kind) == 0
            runs[kind] = arrayio.read_buckets_csv(str(out / kind / "buckets.csv"))
        assert "Traceback" not in capsys.readouterr().err
        assert np.all(np.isfinite(runs[noise])) and not np.array_equal(runs[noise], runs["none"])
        out = tmp_path / "key"
        # on ordinary buckets a noise level that overflows is still the key's fault
        assert run_cli("simulate", "--out", str(out), *tiny, "--object", "rectangle(2,2)",
                       "--noise.snr-db", "-1e308", "--noise.kind", "gaussian") == 2
        assert "noise.snr_db = -1e+308 makes the noise level overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_object_file(self, tmp_path, capsys):
        obj = np.zeros((32, 32))
        obj[15:17, 15:17] = 1.0
        obj[16, 16] = -0.5
        path = str(tmp_path / "negative.f64")
        arrayio.write_array(path, obj, 1.25e-5)
        out = tmp_path / "o"
        assert run_cli("simulate", "--out", str(out), *SMALL, "--object", path) == 3
        err = capsys.readouterr().err
        assert "object transmittance must be nonnegative" in err and "Traceback" not in err
        assert not out.exists()

    def test_reconstruct_without_the_oracle(self, run_dir, tmp_path):
        # a run without its ground truth is reconstructed but not scored
        run = str(tmp_path / "run")
        shutil.copytree(run_dir, run)
        os.remove(os.path.join(run, "oracle_object.f64"))
        assert run_cli("reconstruct", "--run", run) == 0
        metrics = arrayio.read_flat_config(os.path.join(run, "metrics.txt"))
        assert "fourier_error" in metrics and "aligned_pearson" not in metrics

    @pytest.mark.parametrize("missing,message", [
        ("oracle_object.f64", "no oracle_object.f64 in {run}; cannot score"),
        ("reconstruction.f64", "no reconstruction.f64 in {run}; run reconstruct first"),
    ])
    def test_evaluate_without_a_run_file(self, run_dir, tmp_path, capsys, missing, message):
        run = str(tmp_path / "run")
        shutil.copytree(run_dir, run)
        assert run_cli("reconstruct", "--run", run) == 0
        os.remove(os.path.join(run, missing))
        capsys.readouterr()
        out = tmp_path / "o"
        assert run_cli("evaluate", "--run", run, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert message.format(run=run) in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("values", [[1e308, 1.7e308], [1e307, -1e307, 3e306]],
                             ids=["near-max", "mixed-signs"])
    def test_huge_finite_buckets_reconstruct(self, run_dir, tmp_path, capsys, values):
        # the correlation is formed at unit scale, and |C| <= max|B| / 2, so
        # finite buckets give a finite correlation even where their sum overflows
        run = str(tmp_path / "run")
        shutil.copytree(run_dir, run)
        arrayio.write_buckets_csv(os.path.join(run, "buckets.csv"), np.resize(values, 4096))
        assert run_cli("reconstruct", "--run", run) == 0, capsys.readouterr().err
        corr, _ = arrayio.read_array(os.path.join(run, "correlation.f64"))
        assert np.all(np.isfinite(corr)) and np.abs(corr).max() > 0

    def test_overflow_in_compensation_is_numerical_error(self, tmp_path, capsys):
        # near-max buckets give a finite correlation, but inverse filtering
        # with a 1e-300 epsilon overflows: exit 4 naming the correlation's peak
        run = str(tmp_path / "run")
        assert run_cli("simulate", "--out", run, "--grid.nx", "16", "--grid.ny", "16",
                       "--optical.case", "delta", "--ensemble.count", "256",
                       "--object", "rectangle(4,4)", "--optical.dmd-pitch", "3.75e-5") == 0
        path = os.path.join(run, "buckets.csv")
        buckets = arrayio.read_buckets_csv(path)
        arrayio.write_buckets_csv(path, buckets / np.abs(buckets).max() * 1.7e308)
        capsys.readouterr()
        assert run_cli("reconstruct", "--run", run, "--compensation.mode", "compensated",
                       "--compensation.epsilon-fraction", "1e-300") == 4
        err = capsys.readouterr().err
        assert ("values too large to reconstruct (overflow encountered in divide): "
                "the correlation peaks at 4.81e+306") in err
        assert "Traceback" not in err
        assert not os.path.exists(os.path.join(run, "correlation.f64"))

    def test_zero_cycles_accepted(self, run_dir, tmp_path):
        # cycles = 0 runs only the final ER block
        assert run_cli("reconstruct", "--run", run_dir, "--out", str(tmp_path / "o"),
                       "--schedule.cycles", "0") == 0

    def test_retired_optical_key(self, run_dir, tmp_path, capsys):
        # a run_config.txt from before optical.z_m, z_l and focal_length were
        # removed is rejected, naming the key
        run = str(tmp_path / "run")
        shutil.copytree(run_dir, run)
        with open(os.path.join(run, "run_config.txt"), "a") as fh:
            fh.write("optical.z_m = 0.07\n")
        assert run_cli("reconstruct", "--run", run) == 2
        assert "'optical.z_m'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,name", [
        ("simulate", "object.f64"),
        ("reconstruct", "oracle_object.f64"),
        ("evaluate", "reconstruction.f64"),
    ])
    def test_f64_path_is_directory(self, run_dir, tmp_path, capsys, command, name):
        run = str(tmp_path / "run")
        shutil.copytree(run_dir, run)
        path = os.path.join(run, name)
        if os.path.exists(path):
            os.remove(path)
        os.makedirs(path)
        where = {"simulate": [*SMALL, "--object", path]}.get(command, ["--run", run])
        out = tmp_path / "o"
        assert run_cli(command, *where, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert f"{path}: cannot read" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,name", [
        ("simulate", "object.f64"),
        ("reconstruct", "oracle_object.f64"),
        ("evaluate", "reconstruction.f64"),
    ])
    def test_f64_shape_not_grid_is_format_error(self, run_dir, tmp_path, capsys, command, name):
        run = str(tmp_path / "run")
        shutil.copytree(run_dir, run)
        if command == "evaluate":
            assert run_cli("reconstruct", "--run", run) == 0
        path = os.path.join(run, name)
        arrayio.write_array(path, np.ones((16, 16)), 1e-5)
        where = {"simulate": [*SMALL, "--object", path]}.get(command, ["--run", run])
        out = tmp_path / "o"
        assert run_cli(command, *where, "--out", str(out)) == 3
        assert f"{path}: array is 16x16, run grid is 32x32" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    def test_f64_kind_not_image_is_format_error(self, run_dir, tmp_path, capsys, command):
        # a grid-sized array of another kind: the oracle PSF (tag 2) read as
        # the object, or the centred spectrum (tag 1) over the reconstruction
        run = str(tmp_path / "run")
        shutil.copytree(run_dir, run)
        if command == "evaluate":
            assert run_cli("reconstruct", "--run", run) == 0
            path, tag = os.path.join(run, "reconstruction.f64"), 1
            shutil.copyfile(os.path.join(run, "spectrum.f64"), path)
            where = ["--run", run]
        else:
            path, tag = os.path.join(run, "oracle_psf.f64"), 2
            where = [*SMALL, "--object", path]
        out = tmp_path / "o"
        assert run_cli(command, *where, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert f"{path}: kind tag {tag} at byte offset 48 is not an image's (0)" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "reconstruct", "evaluate", "resolution"])
    def test_out_names_a_file(self, run_dir, tmp_path, capsys, command):
        run = str(tmp_path / "run")
        if command == "evaluate":
            shutil.copytree(run_dir, run)
            assert run_cli("reconstruct", "--run", run) == 0
        where = {
            "simulate": SMALL,
            "reconstruct": ["--run", run_dir],
            "evaluate": ["--run", run],
            "resolution": ["--grid.nx", "32", "--grid.ny", "32", "--ensemble.count", "1024",
                           "--ensemble.kind", "random-fixed-fill",
                           "--optical.aperture-diameter", "2e-3", "--schedule.cycles", "2",
                           "--schedule.restarts", "2", "--support.box", "half",
                           "--separations", "1e-4"],
        }[command]
        out = tmp_path / "file"
        out.write_text("kept\n")
        assert run_cli(command, *where, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"--out {out}: cannot create directory" in err
        assert "Traceback" not in err
        assert out.read_text() == "kept\n"
        # an existing directory is written into
        existing = tmp_path / "dir"
        existing.mkdir()
        assert run_cli(command, *where, "--out", str(existing)) == 0
        assert os.listdir(existing)

    def test_empty_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("object = letter\n= 3\n")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
        assert "line 2" in capsys.readouterr().err


TINY = [
    "--grid.nx", "16", "--grid.ny", "16", "--grid.pitch", "1.25e-5",
    "--ensemble.count", "256", "--ensemble.kind", "random-fixed-fill",
    "--ensemble.fill-fraction", "0.5", "--ensemble.seed", "3", "--psf-seed", "2",
    "--optical.case", "delta", "--optical.z-o", "0.3",
    "--noise.kind", "gaussian", "--noise.snr-db", "30",
    "--schedule.cycles", "1", "--schedule.restarts", "1", "--schedule.hio-iterations", "5",
    "--schedule.er-iterations", "5", "--schedule.final-er", "5", "--schedule.beta", "0.9",
    "--schedule.free-dc-radius", "1", "--schedule.seed", "4",
]

# Values no flag accepts: not a number, not finite, or no known name.
BAD_VALUES = ["", " ", "nan", "inf", "-inf", "1e400", "0x10", "--", "1.5.2"]
MANGLED = st.one_of(st.sampled_from(BAD_VALUES), st.text(max_size=6).map(lambda s: "@" + s))
COMMANDS = ["simulate", "reconstruct", "evaluate", "resolution"]


class TestMangledFlags:
    """Any single flag value replaced by a mangled one exits 2, 3 or 4."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        run = str(tmp_path_factory.mktemp("mangled") / "run")
        assert run_cli("simulate", "--out", run, *TINY, "--object", "rectangle(4,4)") == 0
        assert run_cli("reconstruct", "--run", run) == 0
        return run

    @staticmethod
    def argv(command, run_dir, out):
        return {
            "simulate": ["simulate", "--out", out, *TINY, "--object", "rectangle(4,4)",
                         "--dump-patterns", "1"],
            "reconstruct": [
                "reconstruct", "--run", run_dir, "--out", out, "--support.box", "8x8",
                "--support.threshold-fraction", "0.04", "--support.margin-px", "2",
                "--compensation.mode", "compensated", "--compensation.epsilon-fraction", "0.01",
                "--schedule.restarts", "2",
            ],
            # evaluate reads no flag of its own; the run's grid pitch, restated,
            # is a value it parses
            "evaluate": ["evaluate", "--run", run_dir, "--out", out, "--grid.pitch", "1.25e-5"],
            # resolution sets the object itself (two points)
            "resolution": ["resolution", "--out", out, *TINY, "--separations", "5e-5"],
        }[command]

    @staticmethod
    def value_sites(argv):
        """Indices of the values of every flag but the directory paths."""
        return [i + 1 for i, tok in enumerate(argv)
                if tok.startswith("--") and tok not in ("--out", "--run")]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_flag_rejects_bad_values(self, run_dir, tmp_path, command):
        argv = self.argv(command, run_dir, str(tmp_path / "o"))
        assert run_cli(*argv) == 0
        for at in self.value_sites(argv):
            for bad in BAD_VALUES:
                mangled = argv[:at] + [bad] + argv[at + 1:]
                assert run_cli(*mangled) in (2, 3, 4), mangled

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_mangled_value(self, run_dir, tmp_path, data):
        argv = self.argv(data.draw(st.sampled_from(COMMANDS)), run_dir, str(tmp_path / "o"))
        at = data.draw(st.sampled_from(self.value_sites(argv)))
        argv[at] = data.draw(MANGLED)
        assert run_cli(*argv) in (2, 3, 4), argv


class TestGridShapes:
    @pytest.mark.parametrize("ny,nx", [(32, 32), (33, 33), (34, 34), (35, 35), (40, 23)])
    def test_simulate_then_reconstruct_half_box(self, tmp_path, ny, nx):
        # n % 4 = 0, 1, 2, 3 and a non-square grid: the object builders, the
        # forward model and support.box = half share one central half
        out = str(tmp_path / "run")
        args = ["--grid.ny", str(ny), "--grid.nx", str(nx), "--optical.case", "delta",
                "--ensemble.count", "1024", "--object", "letter",
                "--schedule.cycles", "1", "--schedule.restarts", "2", "--schedule.final-er", "10"]
        assert run_cli("simulate", "--out", out, *args) == 0
        assert run_cli("reconstruct", "--run", out, "--support.box", "half") == 0
        recon, meta = arrayio.read_array(os.path.join(out, "reconstruction.f64"))
        assert (meta["ny"], meta["nx"]) == (ny, nx)

    @settings(max_examples=25, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ny=st.integers(8, 40), nx=st.integers(8, 40),
           kind=st.sampled_from(["random-binary", "random-fixed-fill"]))
    def test_any_small_grid(self, tmp_path, ny, nx, kind):
        out = tempfile.mkdtemp(dir=tmp_path)
        args = ["--grid.ny", str(ny), "--grid.nx", str(nx), "--ensemble.kind", kind,
                "--ensemble.count", "256", "--object", "rectangle(2,2)",
                "--schedule.cycles", "1", "--schedule.restarts", "2"]
        assert run_cli("simulate", "--out", out, *args) == 0
        assert run_cli("reconstruct", "--run", out) == 0
        recon, meta = arrayio.read_array(os.path.join(out, "reconstruction.f64"))
        assert recon.shape == (ny, nx)


@pytest.mark.parametrize("error,code", [
    (errors.BlindGIError, 1),
    (errors.ConfigError, 2),
    (errors.UsageError, 2),
    (errors.DataError, 3),
    (errors.FormatError, 3),
    (errors.NumericalError, 4),
])
def test_error_class_sets_exit_code(monkeypatch, capsys, error, code):
    def fail(args, overrides):
        raise error("boom")

    monkeypatch.setitem(cli._HANDLERS, "evaluate", fail)
    assert run_cli("evaluate", "--run", "unused") == code
    assert capsys.readouterr().err == "error: boom\n"


def test_every_error_class_has_an_exit_code():
    assert {cls.__name__: cls.exit_code for cls in errors.BlindGIError.__subclasses__()} == {
        "ConfigError": 2, "UsageError": 2, "DataError": 3, "FormatError": 3, "NumericalError": 4}
