"""Run one emocast CLI command in process with its public functions timed.

Usage: ``python3 emobench/trace_child.py SPANS.json -- <emocast arguments>``
with the package importable (``PYTHONPATH=src``).

Every public function defined in a layer module is replaced by a timing
wrapper wherever it is looked up: in its own module, in every emocast module
that imported it by name (``pipeline`` binds ``ward_cluster`` at import, for
example) and in module-level tables such as the CLI's stage map. Calls made
through a module global, like ``sse_curve`` calling ``best_kmeans``, reach
the wrapper too. Each wrapper keeps a call count, its total time and its
self time (total minus the wrapped calls nested inside it). A few hooks
also count work from arguments and results. The counts and times are
written to SPANS.json when the command ends; the exit code is the
command's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("screenplay", "corpus", "emotion", "stats", "clustering", "tsne", "lexical", "pipeline")


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # key -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []

    def count(self, name: str, amount: float, combine=lambda a, b: a + b) -> None:
        self.counters[name] = combine(self.counters.get(name, 0), amount)

    def wrap(self, key: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = [0.0]
            self._stack.append(nested)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                span = self.spans.setdefault(key, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - nested[0]
            if hook is not None:
                hook(self, args, result)
            return result

        return traced


def _parsed(tracer: Tracer, args, result) -> None:
    tracer.count("screenplay.dialogues", sum(len(d) for d in result.values()))


def _battery(tracer: Tracer, args, result) -> None:
    tracer.count("stats.battery_rows", len(args[0]))


def _lloyd(tracer: Tracer, args, result) -> None:
    tracer.count("clustering.lloyd_iterations", result.iterations)


def _ward(tracer: Tracer, args, result) -> None:
    # Computed from the array shapes, not measured: the (2n-1)^2 float64 cost
    # matrix plus the n x n x d float64 difference tensor.
    n, d = len(args[0]), len(args[0][0])
    tracer.count("clustering.ward_bytes", (2 * n - 1) ** 2 * 8 + n * n * d * 8, max)


HOOKS = {
    "screenplay.parse_script": _parsed,
    "stats.emotion_test_battery": _battery,
    "clustering.kmeans": _lloyd,
    "clustering.ward_cluster": _ward,
}


def install(tracer: Tracer) -> None:
    modules = {name: importlib.import_module(f"emocast.{name}") for name in LAYERS}
    modules["cli"] = importlib.import_module("emocast.cli")
    wrapped = {}
    for layer in LAYERS:
        module = modules[layer]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                key = f"{layer}.{name}"
                wrapped[obj] = tracer.wrap(key, obj, HOOKS.get(key))
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS.json -- <emocast arguments>")
    tracer = Tracer()
    install(tracer)
    from emocast.cli import main as cli_main

    code = 1
    try:
        code = cli_main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
