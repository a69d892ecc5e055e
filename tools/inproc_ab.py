"""In-process A/B timing of two checkouts' ``ssnl``: training steps and
whole-scene inference, without start-up.

Usage, from any directory:

    python tools/inproc_ab.py PARENT CHANGE [--seed 1]

PARENT and CHANGE are checkout roots, each holding ``src/ssnl``. Both
packages load into this one process, under the names ``ssnl_a`` and
``ssnl_b``, so they share the interpreter, numpy and the machine's state. The
process settings of ``ssnl.cli.main`` are applied once, from PARENT: glibc's
heap policy and one BLAS thread.

On each ``perfbench`` workload, read from this checkout's
``perfbench/run.py`` (its scene shape, its ``train`` flags, each parsed by
that side's own ``cli``), ``PAIRS`` pairs run one block per side, parent
first on even pairs and change first on odd ones. A block is:

- ``train``, as ``perfbench`` runs it, timed by the ``train_seconds`` it
  reports (the epoch loop alone, not its test pass), as ms per step;
- ``predict_pixels`` of every scene pixel, in ms, with one checkpoint that
  PARENT trained, loaded by each side's ``load_model``.

One untimed block per side comes first. The last line of standard output is
a JSON object: the machine, then per scene and metric each side's median and
quartiles (``statistics.quantiles``, n = 4) and ``change_wins``, the pairs in
which the change took less time. Nothing in either checkout is written.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.dont_write_bytecode = True  # no __pycache__ in either checkout, nor in perfbench
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run as perfbench  # noqa: E402  the workloads and train flags, read, not copied

PAIRS = 10  # as many alternating pairs as a perfbench A/B comparison runs


def load_checkout(root: Path, name: str) -> SimpleNamespace:
    """``root/src/ssnl`` imported as the package ``name``."""
    package = root / "src" / "ssnl"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None or not (package / "__init__.py").is_file():
        raise SystemExit(f"no ssnl package under {root}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{part: importlib.import_module(f"{name}.{part}")
                              for part in ("cli", "data", "model", "train")})


class Side:
    """One checkout's scene, split and configs for one ``perfbench`` workload."""

    def __init__(self, pkg: SimpleNamespace, workload: str, seed: int):
        w = perfbench.WORKLOADS[workload]
        self.pkg = pkg
        cube, self.labels = pkg.data.synthesize_cube(w.rows, w.cols, w.bands, w.classes,
                                                     perfbench.NOISE, seed)
        self.cube = pkg.data.scale_bands(cube)
        flags = pkg.cli.build_parser().parse_args(["train", *perfbench.train_args(w, seed, "")])
        run = pkg.cli._resolve_run_config(flags)
        run.bands, run.num_classes = w.bands, self.labels.num_classes
        self.split = pkg.data.split_samples(self.labels, run.ratio, run.split_seed)
        self.model_config, self.train_config = run.model_config(), run.train_config()
        samples = len(self.split.train) * (pkg.data.AUGMENT_VARIANTS if run.augment else 1)
        self.steps_per_epoch = math.ceil(samples / run.batch_size)
        self.pixels = np.argwhere(np.ones((w.rows, w.cols), dtype=bool))
        self.params = None

    def train(self):
        params, report = self.pkg.train.train(self.cube, self.labels, self.split,
                                              self.model_config, self.train_config)
        return params, 1e3 * report.train_seconds / (report.epochs_run * self.steps_per_epoch)

    def predict_ms(self) -> float:
        start = time.perf_counter()
        self.pkg.model.predict_pixels(self.cube, self.pixels, self.params, self.model_config)
        return 1e3 * (time.perf_counter() - start)


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def _machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # an older numpy has no dict form
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


def run_scene(a: SimpleNamespace, b: SimpleNamespace, workload: str, seed: int) -> dict:
    sides = [Side(a, workload, seed), Side(b, workload, seed)]
    trained, _ = sides[0].train()  # the shared checkpoint, and the warm-up
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "parent.ckpt"
        a.model.save_model(path, trained, sides[0].model_config)
        for side in sides:
            side.params = side.pkg.model.load_model(path)[0]
    sides[1].train()
    for side in sides:
        side.predict_ms()
    times = {"train_step_ms": ([], []), "predict_scene_ms": ([], [])}
    for pair in range(PAIRS):
        for i in ((0, 1) if pair % 2 == 0 else (1, 0)):
            gc.collect()
            times["train_step_ms"][i].append(sides[i].train()[1])
            gc.collect()
            times["predict_scene_ms"][i].append(sides[i].predict_ms())
    return {metric: {"parent": _stats(pa), "change": _stats(ch),
                     "change_wins": sum(c < p for p, c in zip(pa, ch))}
            for metric, (pa, ch) in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    a = load_checkout(args.parent.resolve(), "ssnl_a")
    b = load_checkout(args.change.resolve(), "ssnl_b")
    a.cli._keep_heap()
    a.cli._one_blas_thread()
    result = {"machine": _machine(), "pairs": PAIRS, "seed": args.seed, "scenes": {}}
    for workload in perfbench.WORKLOADS:
        result["scenes"][workload] = run_scene(a, b, workload, args.seed)
        print(f"{workload}: done", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
