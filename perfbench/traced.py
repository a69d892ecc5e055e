"""Run one ``ssnl`` CLI command with the package's public functions timed.

Usage: python3 perfbench/traced.py STATS_JSON ssnl-arguments...

The tracer works from outside the package. It wraps every public function
defined in each ``ssnl`` module, plus ``Tensor.backward``, and rebinds each
wrapper under every name the package binds the function to, so that names
imported with ``from ... import`` are traced too. Each wrapper counts calls,
total time and self time (its span minus the spans of traced calls made
inside it). The totals, and the wall time of the command, go to STATS_JSON.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter_ns

MODULES = ("autodiff", "cli", "complexity", "data", "metrics", "model", "render", "train")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}   # key -> [calls, total_ns, self_ns]
        self._child_ns = [0]                    # per open span: time in traced children

    def wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0, 0])
        child_ns = self._child_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_ns.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                inner = child_ns.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                child_ns[-1] += elapsed

        return traced


def install(tracer: Tracer) -> None:
    import ssnl.cli  # noqa: F401  imports every module of the package

    # Through sys.modules: ``ssnl.train`` as a package attribute is the function.
    modules = {name: sys.modules.get("ssnl." + name) for name in MODULES}
    wrappers = {}
    for layer, module in modules.items():
        if module is None:
            continue
        for name, obj in list(vars(module).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{name}", obj))
    for modname, module in list(sys.modules.items()):
        if modname != "ssnl" and not modname.startswith("ssnl."):
            continue
        for name, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
    tensor = modules["autodiff"].Tensor
    tensor.backward = tracer.wrap("autodiff.Tensor.backward", tensor.backward)


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    start = perf_counter_ns()
    code = sys.modules["ssnl.cli"].main(cli_args)
    wall_ns = perf_counter_ns() - start
    with open(stats_path, "w", encoding="ascii") as fh:
        json.dump({"exit": code, "wall_ns": wall_ns, "stats": tracer.stats}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
