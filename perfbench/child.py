"""Subprocess entry points of the benchmark.

    child.py setup <workload> <seed>
        Times `import ctmoments` (numpy included) plus the workload's first
        op in a fresh interpreter and prints {"import_s", "first_op_s"}.
        Drawing the op's input is not timed.
    child.py cli <stats.json> <ctmoments cli arguments...>
        Runs ctmoments.cli.main traced, writes the folded spans and the
        import time to stats.json, and exits with main's exit code.

Only the standard library is imported before the timed import.
"""

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

import source

# The module each in-process workload's op needs imported.
SETUP_IMPORT = {"threshold-sweep": "ctmoments.cli"}


def setup(workload: str, seed: int) -> None:
    start = perf_counter()
    importlib.import_module(SETUP_IMPORT.get(workload, "ctmoments"))
    import_s = perf_counter() - start
    import workloads

    wl = workloads.WORKLOADS[workload](seed, None)
    job = wl.job(0)
    start = perf_counter()
    wl.op(job)
    first_op_s = perf_counter() - start
    print(json.dumps({"import_s": import_s, "first_op_s": first_op_s}))


def traced_cli(stats_path: str, argv: list[str]) -> int:
    start = perf_counter()
    import ctmoments.cli
    import_s = perf_counter() - start
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    spans.check_coverage(tracer)
    code = tracer.run_op(ctmoments.cli.main, argv)
    Path(stats_path).write_text(json.dumps({"import_s": import_s, "totals": tracer.totals}))
    return code


def main() -> int:
    source.use_source_tree()
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
        return 0
    if mode == "cli":
        return traced_cli(sys.argv[2], sys.argv[3:])
    sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
