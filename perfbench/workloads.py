"""The benchmark's workloads: inputs made from a seed, one timed pass, a check.

Each workload is built by ``build(seed, tiny)``.  Building is the set-up the
benchmark times as ``setup_s``; ``run`` is the timed pass; ``check`` reads
the pass's output afterwards, untimed, and says whether it is correct.

Seed 0 gives the acceptance-suite seeds; seed n adds n to each of them.  The
scene (object, diffuser realization, optics) stays fixed, so the seed draws
a new measurement and new retrieval restarts, never a different problem.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from blindgi import arrayio, cli, objects
from blindgi.config import RunConfig, ScheduleConfig, SupportPolicy
from blindgi.pipeline import run_reconstruction, run_simulation

# Scratch space inside the checkout: run directories of the classic-cli
# workload (one per pass, removed after its check) and the trace files.
WORK_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_out")


@dataclass(frozen=True)
class Outcome:
    ok: bool
    pearson: float
    fourier_error: float
    detail: str


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a.ravel() - a.mean()
    b = b.ravel() - b.mean()
    return float(a @ b / np.sqrt((a @ a) * (b @ b)))


def _central_half(values: np.ndarray) -> np.ndarray:
    ny, nx = values.shape
    return values[ny // 4 : ny // 4 + ny // 2, nx // 4 : nx // 4 + nx // 2]


# -- headline: criterion 7's direct-mode run, every layer does real work ------

HEADLINE = RunConfig(
    aperture_diameter=4.4e-3,
    ensemble_kind="random-fixed-fill",
    ensemble_count=2**16,
    ensemble_seed=42,
    psf_seed=10,
    support=SupportPolicy(box="half"),
    schedule=ScheduleConfig(seed=99),
    compensation_mode="direct",
    epsilon_fraction=0.25,
)


@dataclass
class Headline:
    cfg: RunConfig
    truth: object
    min_pearson: float = 0.80

    @classmethod
    def build(cls, seed: int, tiny: bool = False) -> "Headline":
        cfg = replace(
            HEADLINE,
            ensemble_seed=HEADLINE.ensemble_seed + seed,
            schedule=replace(HEADLINE.schedule, seed=HEADLINE.schedule.seed + seed),
        )
        if tiny:
            cfg = replace(cfg, grid_nx=32, grid_ny=32, ensemble_count=1024,
                          schedule=replace(cfg.schedule, restarts=2, cycles=1, final_er=10))
        return cls(cfg, objects.from_spec(cfg.grid(), cfg.object_source))

    def run(self, span):
        ms, truth, _ = run_simulation(self.cfg, obj=self.truth)
        return run_reconstruction(self.cfg, ms, truth=truth)

    def check(self, result) -> Outcome:
        ef = result.reconstruction.fourier_error
        if result.alignment is None:
            return Outcome(False, 0.0, ef, "reconstruction could not be scored")
        p = result.alignment.pearson
        return Outcome(p >= self.min_pearson, p, ef,
                       f"aligned Pearson {p:.4f} (>= {self.min_pearson})")


# -- classic-cli: simulate, reconstruct, evaluate through the command line -----


@dataclass
class ClassicCli:
    args: list
    min_pearson: float = 0.95
    digests: set = field(default_factory=set)

    @classmethod
    def build(cls, seed: int, tiny: bool = False) -> "ClassicCli":
        n, count = (32, 1024) if tiny else (64, 2**16)
        args = [
            "--grid.nx", str(n), "--grid.ny", str(n),
            "--optical.case", "delta",
            "--ensemble.kind", "random-binary",
            "--ensemble.count", str(count),
            "--ensemble.seed", str(31 + seed),
            "--object", "letter",
            "--schedule.cycles", "0", "--schedule.restarts", "1", "--schedule.final-er", "20",
        ]
        return cls(args)

    def run(self, span):
        # No --workers: at the CLI's default of one worker the pass runs on
        # one thread, as headline's does.  The pattern loops of the correlate
        # pool hold the GIL, so a second worker saves little (about 15% of a
        # pass) while it passes the GIL between the two CPUs every few
        # milliseconds, which ties the pass time to how promptly a shared
        # host runs both virtual CPUs.
        os.makedirs(WORK_ROOT, exist_ok=True)
        run_dir = tempfile.mkdtemp(prefix="classic-cli-", dir=WORK_ROOT)
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            with span("cli.simulate"):
                codes.append(cli.main(["simulate", "--out", run_dir, *self.args]))
            with span("cli.reconstruct"):
                codes.append(cli.main(["reconstruct", "--run", run_dir]))
            with span("cli.evaluate"):
                codes.append(cli.main(["evaluate", "--run", run_dir]))
        return run_dir, codes

    def check(self, result) -> Outcome:
        run_dir, codes = result
        try:
            if codes != [0, 0, 0]:
                return Outcome(False, 0.0, float("nan"), f"exit codes {codes}")
            corr, _ = arrayio.read_array(os.path.join(run_dir, "correlation.f64"))
            truth, _ = arrayio.read_array(os.path.join(run_dir, cli.ORACLE_OBJECT_FILE))
            metrics = arrayio.read_flat_config(os.path.join(run_dir, "metrics.txt"))
            digest = _dir_digest(run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        p = _pearson(_central_half(corr), _central_half(truth))
        self.digests.add(digest)
        same = len(self.digests) == 1
        return Outcome(
            p >= self.min_pearson and same, p, float(metrics["fourier_error"]),
            f"classic-GI Pearson {p:.4f} over the central half (>= {self.min_pearson}), "
            f"run directory {'identical' if same else 'DIFFERS'} across passes",
        )


def _dir_digest(path: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if os.path.isfile(full):
            digest.update(name.encode())
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


WORKLOADS = {"headline": Headline, "classic-cli": ClassicCli}
