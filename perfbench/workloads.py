"""The three workloads: seeded inputs, the op each times, and its checks.

Every workload is a closed loop with one client. Job i is the i-th input
of a fixed rotation (so every seed runs the same mix); the seed only
changes the random matrices and parameters drawn for each job. Jobs must
be drawn in order 0, 1, 2, ... because they share one random stream.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import ctmoments
from ctmoments import cli, states

import gen
import oracles
from source import SRC

CHILD = Path(__file__).resolve().with_name("child.py")
OP_TIMEOUT_S = 120


@dataclass
class State:
    kind: str
    dims: tuple
    mat: np.ndarray = field(repr=False)
    separable: bool


def draw_state(rng: np.random.Generator, kind: str, dims) -> State:
    if kind == "ginibre":
        return State(kind, dims, gen.ginibre(rng, dims), False)
    if kind == "separable":
        return State(kind, dims, gen.separable(rng, dims), True)
    if kind == "product":
        return State(kind, dims, gen.product(rng, dims), True)
    if kind == "pure":
        return State(kind, dims, gen.pure(rng, dims), False)
    if kind == "werner":
        x = float(rng.uniform(-1.0, 1.0))
        return State(f"werner(x={x:.4f})", dims, gen.werner(dims[0], x), x >= 0)
    if kind == "tiles-noise":
        x = float(rng.uniform(0.5, 1.0))
        return State(f"tiles-noise(x={x:.4f})", dims, gen.noisy(gen.tiles(), x), False)
    raise ValueError(f"unknown state kind {kind!r}")


class Workload:
    """Job i is rotation[i % len(rotation)] with freshly drawn data."""

    name: str
    rotation: list

    def __init__(self, seed: int, workdir: Path | None):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.import_seconds = 0.0  # time traced CLI children spent importing

    def run(self, job, tracer=None):
        return self.op(job) if tracer is None else tracer.run_op(self.op, job)

    def setup_probe(self) -> float:
        """import ctmoments plus the first op, timed in a fresh interpreter."""
        proc = subprocess.run([sys.executable, str(CHILD), "setup", self.name, str(self.seed)],
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        return probe["import_s"] + probe["first_op_s"]


class BipartiteAnalyze(Workload):
    """Op: DensityMatrix(dims, mat) from a raw array, then evaluate_all."""

    name = "bipartite-analyze"
    SHAPES = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 5))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rotation = [(k, dims) for dims in self.SHAPES for k in self.kinds(dims)]

    @staticmethod
    def kinds(dims) -> list[str]:
        extra = ["werner"] if dims[0] == dims[1] else []
        extra += ["tiles-noise"] if dims == (3, 3) else []
        return ["ginibre", "separable", "product", "pure"] + extra

    def job(self, i: int) -> State:
        kind, dims = self.rotation[i % len(self.rotation)]
        return draw_state(self.rng, kind, dims)

    def op(self, job: State):
        return ctmoments.evaluate_all(ctmoments.DensityMatrix(job.dims, job.mat))

    def check(self, checks: oracles.Checks, job: State, reports) -> None:
        oracles.check_reports(checks, reports, job.mat, job.dims, job.separable)


@dataclass
class Sweep:
    family: str
    dims: tuple
    criterion: str
    lo: float
    hi: float
    detects_above: bool          # noise families detect above the threshold, werner below
    state_at: object = field(repr=False)
    base: np.ndarray | None = field(default=None, repr=False)
    references: dict = field(default_factory=dict, repr=False)


class ThresholdSweep(Workload):
    """Op: one cli.find_threshold search at its default precision.

    The rotation is a Latin square over 8 families x 8 criteria, so every
    block of 8 consecutive jobs covers each family and each criterion once
    and a run cut short mid-rotation still sees the whole mix.
    """

    FAMILIES = (("tiles-noise", (3, 3)), ("werner", (2, 2)), ("werner", (3, 3)),
                ("werner", (4, 4)), ("pure-noise", (2, 2)), ("pure-noise", (2, 3)),
                ("pure-noise", (3, 3)), ("pure-noise", (4, 4)))
    CRITERIA = ("ppt", "ccnr", "dv", "li", "thm1-plain", "thm1-canonical",
                "thm2-plain", "thm2-canonical")
    name = "threshold-sweep"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        n = len(self.FAMILIES)
        self.rotation = [(self.FAMILIES[k % n], self.CRITERIA[(k // n + k) % n])
                         for k in range(n * n)]
        self.families: dict = {}

    def _family(self, family: str, dims) -> dict:
        """Draws the round's family; its base state is built outside the op."""
        if family == "werner":
            d = dims[0]
            return {"lo": -1.0, "hi": 1.0, "base": None, "references": {},
                    "state_at": lambda x: states.werner(d, x)}
        base = gen.tiles() if family == "tiles-noise" else gen.pure(self.rng, dims)
        rho = ctmoments.DensityMatrix(dims, base)
        return {"lo": 0.0, "hi": 1.0, "base": base, "references": {},
                "state_at": lambda x: states.mix_white_noise(rho, x)}

    def job(self, i: int) -> Sweep:
        if i % len(self.rotation) == 0:
            self.families = {f: self._family(*f) for f in self.FAMILIES}
        (family, dims), criterion = self.rotation[i % len(self.rotation)]
        fam = self.families[(family, dims)]
        return Sweep(family, dims, criterion, fam["lo"], fam["hi"],
                     family != "werner", fam["state_at"], fam["base"], fam["references"])

    def op(self, job: Sweep):
        return cli.find_threshold(job.state_at, job.criterion, job.lo, job.hi)

    def check(self, checks: oracles.Checks, job: Sweep, result) -> None:
        crossings, _ = result

        def reference(criterion):
            if criterion not in job.references:
                if job.family == "werner":
                    d = job.dims[0]
                    at = lambda x: gen.werner(d, x)
                else:
                    at = lambda x: gen.noisy(job.base, x)
                job.references[criterion] = oracles.reference_crossings(
                    lambda x: oracles.reference_margin(criterion, at(x), job.dims),
                    job.lo, job.hi)
            return job.references[criterion]

        oracles.check_threshold(checks, job, crossings, reference)


@dataclass
class StateFile:
    path: Path
    reports: list = field(repr=False)  # in-process evaluate_all on the same file


class CliAnalyze(Workload):
    """Op: one `python -m ctmoments.cli analyze <file>` subprocess.

    The pool of state files (mixed shapes, seeded) is written once; each
    file's expected report comes from in-process evaluate_all.
    """

    name = "cli-analyze"
    POOL = [(k, dims) for dims in ((2, 2), (2, 3), (3, 3), (4, 4), (2, 2, 2), (2, 2, 2, 2))
            for k in ("ginibre", "separable")]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.setup_checks = oracles.Checks()
        self.rotation = []
        for n, (kind, dims) in enumerate(self.POOL):
            state = draw_state(self.rng, kind, dims)
            path = workdir / f"state-{n:02d}.json"
            matrix = [[[z.real, z.imag] for z in row] for row in state.mat.tolist()]
            path.write_text(json.dumps({"version": 1, "dims": list(dims), "matrix": matrix,
                                        "meta": {"kind": kind}}))
            loaded = np.asarray(json.loads(path.read_text())["matrix"])
            mat = loaded[..., 0] + 1j * loaded[..., 1]
            reports = ctmoments.evaluate_all(ctmoments.DensityMatrix(dims, mat))
            oracles.check_reports(self.setup_checks, reports, mat, dims, state.separable)
            self.rotation.append(StateFile(path, reports))

    def job(self, i: int) -> StateFile:
        return self.rotation[i % len(self.rotation)]

    def setup_probe(self) -> float:
        """A cold `analyze` call on the first file: interpreter start, import, op."""
        start = perf_counter()
        proc = self.op(self.job(0))
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"cold analyze failed: {proc.stderr.strip()[-300:]}")
        return elapsed

    def _spawn(self, argv):
        return subprocess.run([sys.executable, *argv], env=self.env, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S, check=False)

    def op(self, job: StateFile):
        return self._spawn(["-m", "ctmoments.cli", "analyze", str(job.path)])

    def run(self, job, tracer=None):
        if tracer is None:
            return self.op(job)
        stats_path = self.workdir / "child-stats.json"
        stats_path.unlink(missing_ok=True)
        proc = self._spawn([str(CHILD), "cli", str(stats_path), "analyze", str(job.path)])
        if stats_path.exists():
            stats = json.loads(stats_path.read_text())
            tracer.merge(stats["totals"])
            self.import_seconds += stats["import_s"]
        return proc

    def check(self, checks: oracles.Checks, job: StateFile, proc) -> None:
        checks.expect(proc.returncode == 0,
                      f"{job.path.name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if proc.returncode != 0:
            return
        payload = json.loads(proc.stdout)
        got = [(r["name"], r["violated"]) for r in payload["reports"]]
        want = [(r.name, r.violated) for r in job.reports]
        checks.expect(sorted(got) == sorted(want), f"{job.path.name}: {got} != in-process {want}")
        checks.expect(payload["any_violated"] == any(v for _, v in got),
                      f"{job.path.name}: any_violated disagrees with the reports")
        for r in payload["reports"]:
            checks.expect((r["detail"] or {}).get("error") is None,
                          f"{job.path.name}: {r['name']} swallowed an error")
            checks.expect(all(isinstance(r[k], (int, float)) and np.isfinite(r[k])
                              for k in ("quantity", "bound", "margin")),
                          f"{job.path.name}: {r['name']} has a non-finite value")


WORKLOADS = {
    "bipartite-analyze": BipartiteAnalyze,
    "threshold-sweep": ThresholdSweep,
    "cli-analyze": CliAnalyze,
}
