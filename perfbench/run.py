"""ctmoments benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): bipartite-analyze, threshold-sweep,
cli-analyze. Every op's output is checked by the oracles in oracles.py; an op that raises, returns a non-finite number, carries a
swallowed detail["error"], exits non-zero or fails a check counts as
failed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
every job twice, untraced and traced, and prints the per-layer metrics of
BENCHMARK.json plus the tracing overhead.
The last line of stdout is the result object; the lines before it carry
the environment, details and the full per-function table.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import oracles
import source

SETUP_SAMPLES = 7
TAIL_BEYOND = 10
TAIL_WINDOW = 500
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def window_tail(xs: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile of xs that has at least
    TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    xs = sorted(xs)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def tail_latency(latencies: list[float]) -> dict:
    """The tail latency, as the median over consecutive windows of at least
    TAIL_WINDOW ops (one window for shorter runs) of each window's
    window_tail, so one burst of machine noise moves a single window only."""
    n = len(latencies)
    k = max(1, n // TAIL_WINDOW)
    tails = [window_tail(latencies[j * n // k:(j + 1) * n // k]) for j in range(k)]
    return {"value": statistics.median(t[0] for t in tails),
            "percentiles": [t[1] for t in tails],
            "samples_beyond": TAIL_BEYOND if n > TAIL_BEYOND else 0,
            "samples": n}


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree; read without running git."""
    git = source.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


class Phase:
    """Latencies, failures and checks of the ops run in one timed loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.checks = 0
        self.problems: list[str] = []

    def record(self, checks) -> None:
        self.checks += checks.run
        if checks.problems:
            self.failed += 1
            self.problems.extend(checks.problems[:3])


def run_checked(wl, i, job, phase, tracer=None) -> None:
    checks = oracles.Checks()
    start = perf_counter()
    try:
        out = wl.run(job, tracer)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        phase.latencies.append(perf_counter() - start)
        checks.expect(False, f"op {i} raised {exc!r}")
    else:
        phase.latencies.append(perf_counter() - start)
        try:
            wl.check(checks, job, out)
        except Exception as exc:
            checks.expect(False, f"checking op {i} raised {exc!r}")
    phase.record(checks)


def loop(wl, seconds: float, tracer=None, setup_samples: int = 0):
    """Runs jobs 1, 2, ... in whole rotations, so every run measures the same
    input mix, and stops at the rotation end nearest to `seconds` (judged by
    the length of the last rotation), after at least one rotation.

    With a tracer, every job runs twice, untraced and traced in alternating
    order, so both phases see the same inputs and their rates give the
    tracing overhead. setup_samples fresh-interpreter set-up probes are
    spread evenly over the run, so their median sees the same machine
    conditions as the ops; the time they take extends the run.
    """
    plain = Phase()
    traced = Phase() if tracer else None
    setup: list[float] = []
    i = 1
    start = lap_start = perf_counter()
    deadline = start + seconds
    while True:
        if len(setup) < setup_samples and perf_counter() >= start + len(setup) * seconds / setup_samples:
            before = perf_counter()
            setup.append(wl.setup_probe())
            deadline += perf_counter() - before
            continue
        if i % len(wl.rotation) == 0:
            now = perf_counter()
            lap, lap_start = now - lap_start, now
            if now + lap / 2 >= deadline and len(setup) == setup_samples:
                break
        job = wl.job(i)
        if tracer is None:
            run_checked(wl, i, job, plain)
        else:
            runs = [(plain, None), (traced, tracer)]
            for phase, tr in runs if i % 2 else runs[::-1]:
                run_checked(wl, i, job, phase, tr)
        i += 1
    return plain, traced, setup


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source.use_source_tree()
    import ctmoments

    if Path(ctmoments.__file__).resolve().parent.parent != source.SRC:
        sys.exit(f"error: imported ctmoments from {ctmoments.__file__}, not {source.SRC}")
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((source.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({"environment": environment(args)}))

    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        setup_checks = getattr(wl, "setup_checks", oracles.Checks())
        warm = Phase()
        run_checked(wl, 0, wl.job(0), warm)  # the first, untimed op
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
            spans.check_coverage(tracer)
            tracer.disable()  # run_op binds the wrappers for traced ops only
        main_phase, traced, setup = loop(wl, args.seconds, tracer,
                                         0 if args.trace else SETUP_SAMPLES)

    phases = [warm, main_phase] + ([traced] if traced else [])
    attempted = sum(len(p.latencies) for p in phases[1:])
    failed = sum(p.failed for p in phases[1:])
    problems = setup_checks.problems + [m for p in phases for m in p.problems]
    correct = not problems
    lat = main_phase.latencies
    ops_per_s = len(lat) / sum(lat)
    tail = tail_latency(lat)
    details = {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "oracle_checks": setup_checks.run + sum(p.checks for p in phases),
        "latency_ms_tail": {k: v for k, v in tail.items() if k != "value"},
        "setup_s_samples": setup,
        "problems": problems[:20],
    }

    if not args.trace:
        if args.workload == "cli-analyze":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "ops_per_s": ops_per_s,
            "latency_ms_p50": statistics.median(lat) * 1e3,
            "latency_ms_tail": tail["value"] * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_kb / 1024,
        }
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        tlat = traced.latencies
        traced_ops_per_s = len(tlat) / sum(tlat)
        values = spans.layer_metrics(tracer, sum(tlat), len(tlat))
        values["cli.import_ms_per_op"] = wl.import_seconds * 1e3 / len(tlat)
        values["trace.overhead_pct"] = 100 * (ops_per_s - traced_ops_per_s) / ops_per_s
        details["trace"] = {"ops_per_s_untraced": ops_per_s,
                            "ops_per_s_traced": traced_ops_per_s,
                            "traced_ops": len(tlat)}
        print(json.dumps({"per_function": {k: v for k, v in sorted(values.items())}}))
        names = [m["name"] for m in spec["per_layer"]]
        unknown = [n for n in names if n not in values]
        if unknown:
            sys.exit(f"error: per-layer metrics with no span: {unknown}")

    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
