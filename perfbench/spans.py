"""Per-layer tracing of ctmoments from outside the package.

install() wraps every public function of the nine layer modules, and
DensityMatrix.__post_init__ as `linalg.validate`, then rebinds each
ctmoments module attribute, and each entry of a module-level dict or
list (such as a registry), that held an original, so a function reached
through `from .x import y` or a registry is traced too. check_coverage()
then fails if anything a module, class, container or plain object holds,
two levels down, is still an unwrapped original.

Spans live in memory for the op they belong to (name, start, end, parent
index, op id) and are folded into per-name totals when the op ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = {
    "linalg": "ctmoments.linalg",
    "basis": "ctmoments.basis",
    "kernels": "ctmoments._kernels",
    "bloch": "ctmoments.bloch",
    "moments": "ctmoments.moments",
    "criteria": "ctmoments.criteria",
    "states": "ctmoments.states",
    "io": "ctmoments.io",
    "cli": "ctmoments.cli",
}
ROOT = "op"
_MISSING = object()


class CoverageError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op_id]
        self.stack: list[int] = []
        self.op_id = 0
        self.totals: dict[str, list] = {}   # name -> [calls, inclusive_s, self_s]
        self.names: set[str] = set()        # every wrapped function's span name
        self._originals: dict[int, object] = {}
        self._bindings: list[tuple] = []    # (owner, attr, original, wrapper)

    def enable(self) -> None:
        for owner, key, _, wrapper in self._bindings:
            _bind(owner, key, wrapper)

    def disable(self) -> None:
        for owner, key, original, _ in self._bindings:
            _bind(owner, key, original)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1:3] = (start, end)

        return traced

    def run_op(self, fn, *args):
        """Call fn(*args) traced, under a root span, and fold its spans."""
        self.enable()
        self.op_id += 1
        self.spans.clear()  # spans opened outside any op belong to none
        self.spans.append([ROOT, 0.0, 0.0, -1, self.op_id])
        self.stack.append(0)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[0][1:3] = (start, end)
            self.fold()
            self.disable()
        return result

    def fold(self) -> None:
        """Add the current op's spans to the totals and drop them."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            tot = self.totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += end - start
            tot[2] += end - start - covered[i]
        self.spans.clear()

    def merge(self, totals: dict) -> None:
        """Add totals folded elsewhere, e.g. in a traced CLI subprocess."""
        for name, (calls, incl, self_s) in totals.items():
            tot = self.totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += calls
            tot[1] += incl
            tot[2] += self_s


def _bind(owner, key, value) -> None:
    if isinstance(owner, (dict, list)):
        owner[key] = value
    else:
        setattr(owner, key, value)


def ctmoments_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "ctmoments" or n.startswith("ctmoments.")]


def public_functions(mod):
    return {n: f for n, f in vars(mod).items()
            if inspect.isfunction(f) and f.__module__ == mod.__name__
            and not n.startswith("_")}


def install(tracer: Tracer) -> None:
    """Wraps the layers' functions and leaves the wrappers bound."""
    wrappers = {}
    for layer, modname in LAYERS.items():
        mod = importlib.import_module(modname)
        for fname, fn in public_functions(mod).items():
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{fname}", fn))
    dm = importlib.import_module("ctmoments.linalg").DensityMatrix
    post = vars(dm)["__post_init__"]
    tracer._originals[id(post)] = post
    tracer._bindings.append((dm, "__post_init__", post, tracer.wrap("linalg.validate", post)))
    for fn, _ in wrappers.values():
        tracer._originals[id(fn)] = fn

    def bind(owner, key, value):
        hit = wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            tracer._bindings.append((owner, key, value, hit[1]))

    for mod in ctmoments_modules():
        for attr, value in vars(mod).items():
            bind(mod, attr, value)
            if isinstance(value, dict) and attr != "__builtins__":
                for key, item in value.items():  # e.g. a registry {name: function}
                    bind(value, key, item)
            elif isinstance(value, list):
                for key, item in enumerate(value):
                    bind(value, key, item)
    tracer.enable()


def _members(value, depth: int = 2):
    """value, and what containers or plain objects hold, `depth` levels down."""
    yield value
    if depth == 0:
        return
    if isinstance(value, dict):
        children = value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = value
    elif hasattr(value, "__dict__") and not (callable(value) or inspect.ismodule(value)):
        children = vars(value).values()
    else:
        return
    for child in children:
        yield from _members(child, depth - 1)


def check_coverage(tracer: Tracer) -> None:
    """Raise CoverageError naming every binding that still holds an original."""
    missed = []
    for mod in ctmoments_modules():
        owners = [(mod.__name__, vars(mod))]
        owners += [(f"{mod.__name__}.{k}", vars(v)) for k, v in vars(mod).items()
                   if inspect.isclass(v) and v.__module__.startswith("ctmoments")]
        for owner, namespace in owners:
            for attr, value in namespace.items():
                for member in _members(value):
                    if tracer._originals.get(id(member), _MISSING) is member:
                        missed.append(f"{owner}.{attr}")
                        break
    if missed:
        raise CoverageError("unwrapped bindings: " + ", ".join(sorted(set(missed))))


def layer_metrics(tracer: Tracer, op_seconds: float, ops: int) -> dict[str, float]:
    """Per-layer and per-function rates over `ops` ops taking op_seconds in all."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        rows = [t for n, t in tracer.totals.items() if n.split(".")[0] == layer]
        calls = sum(r[0] for r in rows)
        self_s = sum(r[2] for r in rows)
        out[f"{layer}.calls_per_op"] = calls / ops
        out[f"{layer}.self_ms_per_op"] = self_s * 1e3 / ops
        out[f"{layer}.self_share"] = self_s / op_seconds
    for name in sorted(tracer.names):
        calls, incl, self_s = tracer.totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls_per_op"] = calls / ops
        out[f"{name}.ms_per_op"] = incl * 1e3 / ops
        out[f"{name}.self_ms_per_op"] = self_s * 1e3 / ops
    return out
