"""Exit-criteria suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the stated tolerance.  The heavyweight measurement shared by the
factorization and end-to-end checks is session-scoped.

Run: pytest tests/test_acceptance.py -v -s
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from blindgi import (
    Grid2D,
    MagnitudeSpectrum,
    align_and_score,
    correlate,
    estimate_support,
    filter_model,
    magnitude_spectrum,
    run as run_retrieval,
)
from blindgi.arrayio import read_flat_config
from blindgi.config import RunConfig, ScheduleConfig, SupportPolicy, config_from_entries
from blindgi.forward import psf_for
from blindgi import objects
from blindgi.pipeline import (
    resolution_probe,
    run_reconstruction,
    run_simulation,
)
from blindgi.retrieval import centered_box_mask, _initial_iterate, _run_stack, _StackEngine

from reference import disk_autocorrelation, otf_magnitude
from test_correlation import classic_gi_pearson
from test_forward import bucket_both_forms
from test_patterns import offpeak_decay_slope

pytestmark = pytest.mark.acceptance


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- shared heavyweight configuration (criteria 5 and 7) ---------------------

HEADLINE = RunConfig(
    aperture_diameter=4.4e-3,          # pupil ~22 px on the 64x64 grid
    ensemble_kind="random-fixed-fill",
    ensemble_count=2**16,
    ensemble_seed=42,
    psf_seed=10,
    support=SupportPolicy(box="half"),
    schedule=ScheduleConfig(seed=99),
    compensation_mode="direct",
    epsilon_fraction=0.25,
)

# criterion 8's scan
RESOLUTION = replace(
    HEADLINE,
    aperture_diameter=2e-3,  # resolution limit ~6.4 px
    ensemble_count=2**14,
    psf_seed=11,
)

# the ready-made config files and the criteria configs they reproduce
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
CONFIG_FILES = {"headline.txt": HEADLINE, "resolution.txt": RESOLUTION}


def test_config_files_match_criteria():
    assert sorted(os.listdir(CONFIG_DIR)) == sorted(CONFIG_FILES)
    for name, cfg in CONFIG_FILES.items():
        parsed = config_from_entries(read_flat_config(os.path.join(CONFIG_DIR, name)))
        assert parsed == cfg, name


@pytest.fixture(scope="session")
def headline_measurement():
    ms, obj, _ = run_simulation(HEADLINE)
    return ms, obj


def radial_bins(grid):
    return np.round(grid.pixel_radius()).astype(int)


def test_criterion_1_bucket_identity():
    start = time.time()
    rng = np.random.default_rng(123)
    g = Grid2D(nx=16, ny=16, pitch=12.5e-6)
    worst = 0.0
    for _ in range(100):
        o = rng.random((16, 16))
        m = (rng.random((16, 16)) < 0.5).astype(float)
        s = rng.random((16, 16))
        s /= s.sum()
        f1, f2 = bucket_both_forms(o, m, s, g)
        worst = max(worst, abs(f1 - f2) / abs(f1))
    elapsed = time.time() - start
    report(
        1,
        worst <= 1e-10 and elapsed < 5.0,
        f"both bucket forms agree on 100 random triples, worst rel dev "
        f"{worst:.2e} (tol 1e-10), {elapsed:.1f}s (< 5s)",
    )


def test_criterion_2_classic_gi():
    start = time.time()
    p_object_domain, p_full = classic_gi_pearson(n=64, count=2**14, seed=31)
    elapsed = time.time() - start
    report(
        2,
        p_object_domain >= 0.95 and elapsed < 30.0,
        f"delta-PSF correlation vs letter: Pearson {p_object_domain:.4f} over the "
        f"central-half object domain (>= 0.95; full grid {p_full:.4f}, capped at "
        f"~0.89 by the J/N sampling floor), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_offpeak_decay_slope():
    slope = offpeak_decay_slope(exponents=range(8, 15), seeds=(5, 6, 7))
    report(
        3,
        abs(slope + 0.5) < 0.1,
        f"off-peak ensemble autocorrelation log-log slope {slope:.3f} "
        f"(target -0.5 +/- 0.1 over J = 2^8..2^14)",
    )


def test_criterion_4_speckle_mtf_model():
    cfg = HEADLINE.optical()
    g = cfg.object_grid
    acc = np.zeros(g.shape)
    for seed in range(64):
        acc += otf_magnitude(psf_for(cfg, seed))
    mtf_mean = acc / 64
    model = np.sqrt(disk_autocorrelation(cfg.pupil_diameter_px, g).values)
    rbin = radial_bins(g)
    maxr = int(np.floor(cfg.pupil_diameter_px))
    prof_m = np.array([mtf_mean[rbin == k].mean() for k in range(1, maxr)])
    prof_f = np.array([model[rbin == k].mean() for k in range(1, maxr)])
    scale = float(prof_m @ prof_f / (prof_f @ prof_f))
    rel = np.abs(prof_m - scale * prof_f) / (scale * prof_f)
    report(
        4,
        rel.max() < 0.10,
        f"64-seed mean speckle MTF vs sqrt(disk autocorrelation): worst radial "
        f"deviation {rel.max():.3f} (< 0.10, DC excluded)",
    )


def test_criterion_5_factorization(headline_measurement):
    start = time.time()
    cfg = HEADLINE.optical()
    g = cfg.object_grid
    ms0, obj = headline_measurement
    o_mag = np.abs(np.fft.fftshift(np.fft.fft2(obj.values, norm="ortho")))
    f_model = filter_model(cfg).values
    rbin = radial_bins(g)
    maxr = int(np.floor(cfg.pupil_diameter_px))
    beyond = rbin >= maxr + 3  # the diffuser passes nothing out here

    def ratio_profile(ms):
        c_mag = magnitude_spectrum(correlate(ms)).values
        noise_power = np.mean(c_mag[beyond] ** 2)
        debiased = np.sqrt(np.maximum(c_mag**2 - noise_power, 0.0))
        return np.array(
            [
                (debiased[rbin == k] * o_mag[rbin == k]).sum()
                / (o_mag[rbin == k] ** 2).sum()
                for k in range(1, maxr)
            ]
        )

    profiles = [ratio_profile(ms0)]
    for ps in (7, 8, 9, 11, 12):
        cfg_k = replace(HEADLINE, psf_seed=ps, ensemble_seed=42 + ps)
        ms_k, _, _ = run_simulation(cfg_k, obj=obj)
        profiles.append(ratio_profile(ms_k))
    measured = np.mean(profiles, axis=0)

    w2 = o_mag**2
    model = np.array(
        [(f_model[rbin == k] * w2[rbin == k]).sum() / w2[rbin == k].sum() for k in range(1, maxr)]
    )
    f_prof = np.array([f_model[rbin == k].mean() for k in range(1, maxr)])
    sel = f_prof > 0.1 * f_model.max()
    scale = float(measured[sel] @ model[sel] / (model[sel] @ model[sel]))
    l2 = np.linalg.norm(measured[sel] - scale * model[sel]) / np.linalg.norm(scale * model[sel])
    elapsed = time.time() - start
    report(
        5,
        l2 < 0.15 and elapsed < 300.0,
        f"radial |C~|/|O~| vs filter model over {int(sel.sum())} annuli with "
        f"F > 0.1 max: relative profile error {l2:.3f} (< 0.15, 6 diffuser "
        f"realizations at J = 2^16), {elapsed:.0f}s (< 300s)",
    )


def test_criterion_6_retrieval_oracle():
    g = Grid2D(nx=64, ny=64, pitch=12.5e-6)
    results = []
    for name, obj in (
        ("rectangle", objects.rectangle(g, 20, 12)),
        ("double-slit", objects.double_slit(g, slit_width=2, slit_height=16, gap=6)),
    ):
        start = time.time()
        target = MagnitudeSpectrum(
            g, np.fft.fftshift(np.abs(np.fft.fft2(obj.values, norm="ortho")))
        )
        support = estimate_support(target, 0.04)
        recon = run_retrieval(target, ScheduleConfig(seed=77, restarts=16), support)
        score = align_and_score(recon.image, obj)
        elapsed = time.time() - start
        results.append((name, score.pearson, recon.fourier_error, elapsed))
    ok = all(p >= 0.99 and e <= 1e-3 and t < 120.0 for _, p, e, t in results)
    detail = "; ".join(
        f"{name}: Pearson {p:.4f} (>= 0.99), E_F {e:.2e} (<= 1e-3), {t:.0f}s (< 120s)"
        for name, p, e, t in results
    )
    report(6, ok, detail)


def test_criterion_7_end_to_end(headline_measurement):
    start = time.time()
    ms, obj = headline_measurement
    direct = run_reconstruction(HEADLINE, ms, truth=obj)
    comp_cfg = replace(HEADLINE, compensation_mode="compensated")
    comp = run_reconstruction(comp_cfg, ms, truth=obj)
    p_direct = direct.alignment.pearson
    p_comp = comp.alignment.pearson
    elapsed = time.time() - start
    report(
        7,
        p_direct >= 0.80 and p_comp >= p_direct - 0.05 and elapsed < 600.0,
        f"letter behind synthetic diffuser at J = 2^16: direct-mode aligned "
        f"Pearson {p_direct:.3f} (>= 0.80), compensated {p_comp:.3f} "
        f"(>= direct - 0.05), {elapsed:.0f}s (< 600s)",
    )


def resolution_scan(cfg=RESOLUTION):
    """Criterion 8's four probes on ``cfg``: (rows, monotone, threshold, bracketed)."""
    limit = cfg.optical().resolution_limit
    rows = [resolution_probe(cfg, rel * limit) for rel in (0.35, 0.7, 1.4, 2.0)]
    flags = [r["resolved"] for r in rows]
    monotone = all(b >= a for a, b in zip(flags, flags[1:]))
    resolved_seps = [r["separation_m"] for r in rows if r["resolved"]]
    threshold = min(resolved_seps) if resolved_seps else float("inf")
    bracketed = limit / 2 <= threshold <= 2 * limit
    return rows, monotone, threshold, bracketed


def test_criterion_8_resolution_law():
    limit = RESOLUTION.optical().resolution_limit
    rows, monotone, threshold, bracketed = resolution_scan()
    detail = ", ".join(
        f"{r['separation_px']}px:{'R' if r['resolved'] else '-'}({r['contrast']:.2f})"
        for r in rows
    )
    report(
        8,
        monotone and bracketed,
        f"two-point scan [{detail}] -> smallest resolved separation "
        f"{threshold / limit:.2f}x the resolution limit (within [0.5, 2]), monotone={monotone}",
    )


def test_criterion_9_er_monotonicity():
    g = Grid2D(nx=32, ny=32, pitch=1e-5)
    obj = objects.rectangle(g, 10, 7)
    target = MagnitudeSpectrum(g, np.fft.fftshift(np.abs(np.fft.fft2(obj.values, norm="ortho"))))
    support = centered_box_mask(g, 14, 11)
    # the stacked engine every run steps, one restart per start
    x0 = np.stack([_initial_iterate(target, seed=i, restart_id=i) for i in range(50)])
    schedule = ScheduleConfig(cycles=0, final_er=100, restarts=50)
    traces = _run_stack(_StackEngine(target, support, 0.0, 50), schedule, x0)
    worst_rise = float(np.max(np.diff(traces, axis=1)))
    report(
        9,
        worst_rise <= 1e-12,
        f"E_F never increased across 50 starts x 100 ER iterations of the retrieval engine "
        f"(worst step change {worst_rise:.2e} <= 1e-12)",
    )


def test_criterion_10_determinism(tmp_path):
    import test_cli

    args = [
        "--grid.nx", "64", "--grid.ny", "64",
        "--ensemble.count", "4096",
        "--ensemble.kind", "random-binary",
        "--optical.aperture-diameter", "4.4e-3",
        "--schedule.cycles", "6", "--schedule.restarts", "6",
        "--support.box", "half",
        "--object", "letter",
    ]
    sim_digests, rec_digests = set(), set()
    for tag in ("a", "b", "c"):
        run_dir = str(tmp_path / tag)
        assert test_cli.run_cli("simulate", "--out", run_dir, *args) == 0
        sim_digests.add(test_cli.dir_digest(run_dir))
        assert test_cli.run_cli("reconstruct", "--run", run_dir) == 0
        rec_digests.add(test_cli.dir_digest(run_dir))
    report(
        10,
        len(sim_digests) == 1 and len(rec_digests) == 1,
        "simulate and reconstruct outputs byte-identical across reruns",
    )
