"""Alternating A/B pairs of the perfbench benchmark between two git revisions.

    python3 tools/ab_pairs.py PARENT CHANGE --seeds 1501-1510 --out BENCH_N.json
        [--claim W:METRIC] [--trace W:SEED ...]

Each revision is exported with `git archive` into a directory of its own,
and each side runs its own unchanged perfbench/run.py there, so the
benchmark always measures committed trees. Pair k runs both sides on the
k-th seed, the parent first on even k and the change first on odd k, so
neither side always runs on the warmer or the colder machine. Every
workload of BENCHMARK.json runs for its run_seconds. A run that exits
non-zero or reports "correct": false stops the script.

The output file holds the environment, and under "benchmark" the
command, the method and one "workloads" block per workload: every run,
the failed counts per side, and per end-to-end metric of BENCHMARK.json
the medians and quartiles (inclusive method) of each side over the pairs
plus change_better_pairs, the pairs the change won (ties count for
neither side). Each metric also gets its no-regression verdict (see
`regression`), and one line per verdict is printed; the script exits 1,
after it has written the output file, when any verdict is "past".
--claim W:METRIC judges one claimed gain: met when the change wins at
least 9 in 10 pairs and its median beats the parent's by more than the
parent's interquartile range; the judgement is printed after the verdict
lines and written under "claim". --trace W:SEED adds one traced pair
(run.py --trace 1, TRACE_SECONDS long) whose per-layer metrics go under
"trace". A --claim or --trace that names a workload or metric
BENCHMARK.json does not have stops the script before anything runs.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACE_SECONDS = 15


def export(rev: str, dest: Path) -> str:
    """Extract the committed tree of rev into dest; returns its full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=REPO,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=REPO,
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py run in tree: (its environment line, its result line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: run.py failed in {tree} ({workload}, seed {seed}):\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:  # the line before the result holds the oracle's problems
        problems = json.loads(lines[-2])["details"]["problems"]
        sys.exit(f"error: run.py reported incorrect results in {tree} ({workload}, "
                 f"seed {seed}): {problems}")
    return json.loads(lines[0])["environment"], result


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def regression(parent: list[float], change: list[float], metric: dict) -> dict:
    """The no-regression check of one end-to-end metric over the runs of each
    side: its bound from BENCHMARK.json, worse_by (the change median's loss
    relative to the parent median, negative when the change is better) and
    the verdict: "past" when worse_by exceeds the bound; else "unresolved"
    when the parent's interquartile range over its median exceeds the bound,
    unless every change run beats every parent run; else "within"."""
    sign, bound = 1 if metric["better"] == "higher" else -1, metric["bound"]
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    worse_by = sign * (median - statistics.median(change)) / median
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if worse_by > bound:
        verdict = "past"
    elif (q3 - q1) / median > bound and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {"bound": bound, "worse_by": round(worse_by, 4), "verdict": verdict}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Medians, quartiles, change_better_pairs and the regression verdict of
    each metric over the pairs."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [r[name] for r in by_side[side]] for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            entry |= {f"{side}_median": round(median, 4), f"{side}_q1": round(q1, 4),
                      f"{side}_q3": round(q3, 4)}
        entry["change_better_pairs"] = sum(
            sign * (c[name] - p[name]) > 0 for p, c in zip(by_side["parent"], by_side["change"]))
        out[name] = entry | regression(values["parent"], values["change"], metric)
    return out


def judge(block: dict, metric: dict) -> str:
    name, pairs = metric["name"], block["pairs"]
    m = block["metrics"][name]
    sign = 1 if metric["better"] == "higher" else -1
    gain = sign * (m["change_median"] - m["parent_median"])
    spread = m["parent_q3"] - m["parent_q1"]
    wins = m["change_better_pairs"]
    met = wins * 10 >= 9 * pairs and gain > spread
    change = 100 * (m["change_median"] - m["parent_median"]) / m["parent_median"]
    return (f"{'met' if met else 'not met'}: {m['parent_median']} -> {m['change_median']} "
            f"({change:+.1f}%), better in {wins} of {pairs} pairs; the median gain "
            f"{gain:.4g} {'exceeds' if gain > spread else 'does not exceed'} the parent's "
            f"interquartile range {spread:.4g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", required=True, help="one seed per pair, e.g. 1501-1510")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", help="WORKLOAD:METRIC of a claimed gain")
    parser.add_argument("--trace", action="append", default=[], help="WORKLOAD:SEED")
    args = parser.parse_args()
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.error(f"--seeds {args.seeds}: expected A-B, integers with A < B")
    if len(seeds) < 2:  # the quartiles need two pairs
        parser.error(f"--seeds {args.seeds}: need at least 2 seeds, got {len(seeds)}")

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    # a misspelt --claim or --trace fails now, not after every pair has run
    metrics = [m["name"] for m in spec["end_to_end"]]
    if args.claim:
        workload, _, name = args.claim.partition(":")
        if workload not in workloads or name not in metrics:
            parser.error(f"--claim {args.claim}: expected WORKLOAD:METRIC with a workload "
                         f"of {workloads} and a metric of {metrics}")
    for item in args.trace:
        workload, _, seed = item.rpartition(":")
        if workload not in workloads or not seed.isdecimal():
            parser.error(f"--trace {item}: expected WORKLOAD:SEED with a workload of "
                         f"{workloads} and a seed >= 0")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(rev, trees[side])
                   for side, rev in zip(SIDES, (args.parent, args.change))}
        environment, blocks = None, {}
        for workload in workloads:
            runs = []
            for k, seed in enumerate(seeds):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    env, result = run(trees[side], workload, seed, seconds, 0)
                    environment = environment or env
                    values = {n: round(m["value"], 4) for n, m in result["metrics"].items()}
                    runs.append({"side": side, "seed": seed, "failed": result["failed"],
                                 "attempted": result["attempted"],
                                 "correct": result["correct"], **values})
                    print(f"{workload} seed {seed} {side}: {values}", file=sys.stderr)
            blocks[workload] = {
                "pairs": len(seeds), "seeds": seeds,
                "failed": {side: sum(r["failed"] for r in runs if r["side"] == side)
                           for side in SIDES},
                "metrics": summarize(runs, spec["end_to_end"]),
                "runs": runs,
            }
        traces = {}
        for item in args.trace:
            workload, _, seed = item.rpartition(":")
            for side in SIDES:
                _, result = run(trees[side], workload, int(seed), TRACE_SECONDS, 1)
                traces[f"{workload} {side}"] = {
                    "failed": result["failed"],
                    **{n: round(m["value"], 4) for n, m in result["metrics"].items()}}

    for workload, block in blocks.items():
        for name, m in block["metrics"].items():
            print(f"{workload} {name}: {m['verdict']}, worse by {m['worse_by']:+.1%} "
                  f"(bound {m['bound']:.0%})")
    claim = None
    if args.claim:
        workload, _, name = args.claim.partition(":")
        (metric,) = [m for m in spec["end_to_end"] if m["name"] == name]
        claim = {"workload": workload, "metric": name, "result": judge(blocks[workload], metric)}
        print(f"claim {workload} {name}: {claim['result']}")
    report = {
        "environment": {k: environment[k] for k in ("python", "numpy", "scipy", "nproc", "blas")},
        "benchmark": {
            "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} "
                       "--trace 0",
            "method": (f"parent ({commits['parent'][:7]}) and change ({commits['change'][:7]}) "
                       "run from fresh copies of their committed trees (git archive) and "
                       "alternate within each pair (parent first on even pair index); "
                       f"{len(seeds)} pairs per workload; medians and quartiles (inclusive "
                       "method) over the pairs; change_better_pairs counts the pairs the "
                       "change won, ties for neither"),
            "workloads": blocks,
        },
    }
    if claim:
        report["benchmark"]["claim"] = claim
    if traces:
        report["trace"] = {
            "command": f"python3 perfbench/run.py --workload W --seed N "
                       f"--seconds {TRACE_SECONDS} --trace 1",
            "runs": traces}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    verdicts = [m["verdict"] for block in blocks.values() for m in block["metrics"].values()]
    return 1 if "past" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
