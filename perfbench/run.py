"""Benchmark of the ssnl command line on seeded synthetic scenes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each ``ssnl`` command runs in its own process, as a user would run it, with
``src`` on PYTHONPATH. A run sets its inputs up several times, then repeats
whole rounds of commands until S seconds have passed (at least two rounds),
then checks every output against an independent float64 reference
(``reference.py``) and against the other rounds. The last line of standard
output is one JSON object: the end-to-end metrics with ``--trace 0``; with
``--trace 1`` the commands run under ``traced.py`` and the per-layer metrics
are printed instead. A failed check or command prints no result and exits 1.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

HERE = Path(__file__).resolve().parent
RATIO = 0.10
NOISE = 0.05
AUGMENT_VARIANTS = 6     # original, 45/90/135-degree rotations, two flips
SETUPS = 5               # set-ups per untraced run; setup_s is their median
MIN_ROUNDS = 2           # byte-identity across rounds needs two
RUN_LIMIT_S = 170        # commands are killed past this, so a run ends within 180 s
PROB_TOL = 1e-5          # float32 program against float64 reference, per probability
TIE_GAP = 2 * PROB_TOL   # classes this close to the top probability are near-ties
PROBE_PIXELS = 128       # pixels whose program probabilities are compared
RUN_SETTINGS = {         # pinned so that a changed default does not change the workload
    "hidden_dim": 64, "seq_kernel": 3, "spatial_channels": 32, "spatial_kernel": 3,
    "classifier_hidden": 128, "activation": "silu", "batch_size": 32, "augment": 1,
    "learning_rate": 5e-4,
}


@dataclass(frozen=True)
class Workload:
    rows: int
    cols: int
    bands: int
    classes: int
    patch: int
    epochs: int


WORKLOADS = {
    "train_small": Workload(48, 48, 24, 4, 5, epochs=2),
    "train_wide": Workload(30, 30, 144, 15, 7, epochs=2),
}

NAMED_OPS = ("mean", "conv1d", "conv2d", "matmul", "layer_norm", "broadcast_to",
             "transpose", "activation", "softplus")
NOT_OPS = ("Tensor.backward", "grad_check")


class BenchError(Exception):
    pass


@dataclass
class Command:
    kind: str
    cwd: Path
    wall_s: float
    maxrss_kb: int
    stdout: str
    trace: dict | None


class Runner:
    """Starts ``ssnl`` commands one at a time and records their wall time and peak RSS."""

    def __init__(self, root: Path, traced: bool, deadline: float):
        path = os.environ.get("PYTHONPATH")
        # One BLAS thread: every matrix here is tiny, and on a 2-core machine
        # spinning BLAS threads made one wide training step swing tenfold
        # whenever another process was busy.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.traced = traced
        self.deadline = deadline
        self.commands: list[Command] = []

    def run(self, kind: str, args: list[str], cwd: Path) -> Command:
        tag = f"{len(self.commands):03d}-{kind}"
        stats = cwd / f"{tag}.trace.json"
        if self.traced:
            argv = [sys.executable, str(HERE / "traced.py"), str(stats), kind, *args]
        else:
            argv = [sys.executable, "-m", "ssnl.cli", kind, *args]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run time limit reached before ssnl {kind}")
        out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"ssnl {kind} {' '.join(args)} exited {proc.returncode}:\n{tail}")
        trace = json.loads(stats.read_text()) if self.traced else None
        command = Command(kind, cwd, wall, usage.ru_maxrss, out_path.read_text(), trace)
        self.commands.append(command)
        return command


def train_args(w: Workload, seed: int, inputs: str) -> list[str]:
    settings = dict(RUN_SETTINGS, patch_size=w.patch, split_seed=seed)
    args = ["--cube", f"{inputs}scene.cube", "--labels", f"{inputs}scene.lbl",
            "--out-model", "model.ckpt", "--out-report", "report.txt",
            "--seed", str(seed), "--epochs", str(w.epochs), "--ratio", str(RATIO)]
    for key, value in settings.items():
        args += ["--set", f"{key}={value}"]
    return args


def set_up(runner: Runner, w: Workload, seed: int, cwd: Path) -> float:
    """Writes the workload's scene to ``cwd``; returns the set-up's wall time."""
    cwd.mkdir()
    args = ["--rows", str(w.rows), "--cols", str(w.cols), "--bands", str(w.bands),
            "--classes", str(w.classes), "--noise", str(NOISE), "--seed", str(seed),
            "--out-cube", "scene.cube", "--out-labels", "scene.lbl"]
    return runner.run("synth", args, cwd).wall_s


def run_round(runner: Runner, w: Workload, seed: int, cwd: Path) -> None:
    cwd.mkdir()
    inputs = "../setup-0/"
    runner.run("train", train_args(w, seed, inputs), cwd)
    runner.run("eval", ["--cube", inputs + "scene.cube", "--labels", inputs + "scene.lbl",
                        "--model", "model.ckpt", "--ratio", str(RATIO), "--split-seed", str(seed)], cwd)
    runner.run("map", ["--cube", inputs + "scene.cube", "--model", "model.ckpt",
                       "--out-image", "map.ppm"], cwd)


# -- checks -----------------------------------------------------------------------------------


def require(ok: bool, message: str) -> None:
    if not ok:
        raise BenchError(f"check failed: {message}")


def same_bytes(dirs: list[Path], names: list[str]) -> None:
    for name in names:
        first = (dirs[0] / name).read_bytes()
        for d in dirs[1:]:
            require((d / name).read_bytes() == first, f"{d.name}/{name} differs from {dirs[0].name}")


def parse_eval(text: str) -> dict:
    rows = re.findall(r"^(\d+)\s.*?\s(\d+)\s+(\d+)\s+\S+$", text, re.M)
    oa = re.search(r"^OA\s+([\d.]+)%$", text, re.M)
    aa = re.search(r"^AA\s+([\d.]+)%$", text, re.M)
    kappa = re.search(r"^Kappa\s+(-?[\d.]+)$", text, re.M)
    require(bool(rows and oa and aa and kappa), f"unparseable eval output:\n{text}")
    return {"correct": [int(r[1]) for r in rows], "samples": [int(r[2]) for r in rows],
            "oa": float(oa[1]) / 100, "aa": float(aa[1]) / 100, "kappa": float(kappa[1])}


def check_report(path: Path, w: Workload) -> None:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    require(lines[0] == "epoch loss train_oa", f"{path}: unexpected header {lines[0]!r}")
    losses = [float(ln.split()[1]) for ln in lines[1:]]
    require(len(losses) == w.epochs, f"{path}: {len(losses)} epochs, expected {w.epochs}")
    require(all(math.isfinite(v) for v in losses), f"{path}: non-finite loss")
    require(losses[-1] < math.log(w.classes),
            f"{path}: last loss {losses[-1]} is not below ln K = {math.log(w.classes)}")


def program_probabilities(root: Path, model: Path, cube: Path, pixels) -> tuple[np.ndarray, int]:
    """Class probabilities from the package's own forward pass, and its MAC count."""
    sys.path.insert(0, str(root / "src"))
    import ssnl.complexity
    import ssnl.data
    import ssnl.model

    require(Path(ssnl.model.__file__).resolve().is_relative_to((root / "src").resolve()),
            f"imported ssnl from {ssnl.model.__file__}, not from the checkout")
    params, config = ssnl.model.load_model(model)
    scene = ssnl.data.scale_bands(ssnl.data.load_cube(cube))
    probs = []
    for r, c in pixels:
        window = ssnl.data.extract_window(scene, int(r), int(c), config.patch_size)
        out, _ = ssnl.model.model_forward(window.astype(params.dtype), params, config)
        probs.append(out.data.astype(np.float64))
    return np.array(probs), ssnl.complexity.macs_per_patch(config)


def check_outputs(root: Path, w: Workload, seed: int, setups: list[Path], rounds: list[Path],
                  runner: Runner) -> dict:
    """Runs every correctness check. Returns the per-stage MACs of one patch,
    the split sizes and the worst probability error."""
    same_bytes(setups, ["scene.cube", "scene.lbl"])
    same_bytes(rounds, ["model.ckpt", "report.txt", "map.ppm"])
    evals = [c for c in runner.commands if c.kind == "eval"]
    require(all(c.stdout == evals[0].stdout for c in evals), "eval output differs between rounds")
    for d in rounds:
        check_report(d / "report.txt", w)

    cube_path, model_path = setups[0] / "scene.cube", rounds[0] / "model.ckpt"
    cube = ref.scale_bands(ref.read_cube(cube_path))
    labels = ref.read_labels(setups[0] / "scene.lbl")
    config, tensors = ref.read_checkpoint(model_path)
    require((config["bands"], config["num_classes"], config["patch_size"])
            == (w.bands, w.classes, w.patch), f"checkpoint config {config} does not fit the workload")
    patches = np.ascontiguousarray(ref.windows(cube, w.patch)).reshape(-1, w.patch, w.patch, w.bands)
    probs = ref.forward(patches, config, tensors).reshape(w.rows, w.cols, w.classes)

    # The program's probabilities on a seeded sample of pixels, and its MAC count.
    rng = np.random.default_rng(seed)
    flat = rng.choice(w.rows * w.cols, size=PROBE_PIXELS, replace=False)
    pixels = np.stack(np.unravel_index(flat, (w.rows, w.cols)), axis=1)
    program, program_macs = program_probabilities(root, model_path, cube_path, pixels)
    worst = float(np.abs(program - probs[pixels[:, 0], pixels[:, 1]]).max())
    require(worst <= PROB_TOL, f"program probabilities differ from the reference by {worst:.3e}")
    macs = ref.stage_macs(config, tensors)
    require(sum(macs.values()) == program_macs,
            f"stage MACs sum to {sum(macs.values())}, ssnl.complexity says {program_macs}")

    # Map: every pixel has the colour of the reference argmax, or of a near-tie.
    palette = ref.class_colors(w.classes)
    require(len({tuple(c) for c in palette}) == len(palette), "class colours are not distinct")
    image = ref.read_ppm(rounds[0] / "map.ppm")
    require(image.shape == (w.rows, w.cols, 3), f"map shape {image.shape}")
    matches = (image[:, :, None, :] == palette[None, None, 1:, :]).all(axis=-1)
    require(bool((matches.sum(axis=-1) == 1).all()), "map has pixels outside the class palette")
    mapped = matches.argmax(axis=-1) + 1
    allowed = probs >= probs.max(axis=-1, keepdims=True) - TIE_GAP
    require(bool(np.take_along_axis(allowed, (mapped - 1)[..., None], axis=-1).all()),
            "map pixel colour is not the reference class")
    predicted = np.where(allowed.sum(axis=-1) > 1, mapped, probs.argmax(axis=-1) + 1)

    # Eval: confusion totals, per-class counts, OA, AA and kappa from the reference predictions.
    train_px, test_px = ref.split(labels, RATIO, seed)
    expect = ref.scores(test_px[:, 0], predicted[test_px[:, 1], test_px[:, 2]], w.classes)
    got = parse_eval(evals[0].stdout)
    require(sum(got["samples"]) == len(test_px),
            f"eval scored {sum(got['samples'])} pixels, the test split has {len(test_px)}")
    require(got["samples"] == expect["samples"].tolist() and got["correct"] == expect["correct"].tolist(),
            f"eval counts {got['correct']}/{got['samples']} differ from the reference "
            f"{expect['correct'].tolist()}/{expect['samples'].tolist()}")
    for key, half_ulp in (("oa", 5e-5), ("aa", 5e-5), ("kappa", 5e-5)):
        require(abs(got[key] - expect[key]) <= half_ulp + 1e-12,
                f"eval {key} {got[key]} differs from the reference {expect[key]}")
    for c in runner.commands:
        if c.kind == "train":
            test_oa = float(re.search(r"test_oa=([\d.]+)", c.stdout)[1])
            require(abs(test_oa - expect["oa"]) <= 5e-5 + 1e-12,
                    f"train test_oa {test_oa} differs from the reference {expect['oa']}")
    return macs | {"train_pixels": len(train_px), "test_pixels": len(test_px), "prob_error": worst}


# -- metrics ---------------------------------------------------------------------------------


def end_to_end(w: Workload, runner: Runner, setup_s: list[float], counts: dict) -> dict:
    by_kind = {kind: [c.wall_s for c in runner.commands if c.kind == kind]
               for kind in ("train", "eval", "map")}
    samples = counts["train_pixels"] * AUGMENT_VARIANTS * w.epochs
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_samples_per_s": (statistics.median(samples / s for s in by_kind["train"]), "1/s"),
        "eval_patches_per_s": (statistics.median(counts["test_pixels"] / s for s in by_kind["eval"]), "1/s"),
        "map_pixels_per_s": (statistics.median(w.rows * w.cols / s for s in by_kind["map"]), "1/s"),
        "peak_rss_mb": (max(c.maxrss_kb for c in runner.commands) / 1024, "MB"),
    }


def layer_metrics(stats: dict[str, list[int]], macs: dict) -> dict:
    def get(key):
        return stats.get(key, (0, 0, 0))

    ms = 1e-6
    out = {}
    for op in NAMED_OPS:
        calls, _, self_ns = get("autodiff." + op)
        out[f"autodiff.{op}.self_ms"] = (self_ns * ms, "ms")
        out[f"autodiff.{op}.calls"] = (calls, "count")
    ops = {k[len("autodiff."):]: v for k, v in stats.items() if k.startswith("autodiff.")}
    out["autodiff.other.self_ms"] = (
        sum(v[2] for k, v in ops.items() if k not in NAMED_OPS and k not in NOT_OPS) * ms, "ms")
    out["autodiff.backward.self_ms"] = (get("autodiff.Tensor.backward")[2] * ms, "ms")
    forwards = get("model.model_forward")[0]
    op_calls = sum(v[0] for k, v in ops.items() if k not in NOT_OPS)
    out["autodiff.op_calls_per_patch"] = (op_calls / forwards if forwards else 0.0, "count")

    for name in ("normalize_input", "bi_network_forward", "spatial_forward"):
        out[f"model.{name}.ms"] = (get("model." + name)[1] * ms, "ms")
    out["model.model_forward.self_ms"] = (get("model.model_forward")[2] * ms, "ms")
    out["model.predict.calls"] = (get("model.predict")[0], "count")
    for name, stages in (("bi_network_forward", ref.SPECTRAL_STAGES),
                         ("spatial_forward", ref.SPATIAL_STAGES)):
        calls, total_ns, _ = get("model." + name)
        work = calls * sum(macs[s] for s in stages)
        out[f"model.{name}.mac_per_s"] = (work / (total_ns * 1e-9) if total_ns else 0.0, "MAC/s")
    for key in ("data.extract_window", "data.augment", "data.scale_bands", "data.load_cube",
                "train.adam_step", "train.cross_entropy", "train.evaluate",
                "render.render_class_map", "render.write_ppm"):
        out[key + ".ms"] = (get(key)[1] * ms, "ms")
    out["train.train.self_ms"] = (get("train.train")[2] * ms, "ms")
    return out


def per_layer(runner: Runner, rounds: list[Path], macs: dict) -> dict:
    """Median over rounds of the traced time of one set-up plus that round."""
    for c in runner.commands:
        self_ns = sum(v[2] for v in c.trace["stats"].values())
        require(self_ns <= c.trace["wall_ns"],
                f"traced self times of ssnl {c.kind} sum to {self_ns} ns, over its wall time")
    sessions = []
    for d in rounds:
        total: dict[str, list[int]] = {}
        for c in runner.commands:
            if c.cwd == d or c.cwd.name.startswith("setup-"):
                for key, values in c.trace["stats"].items():
                    acc = total.setdefault(key, [0, 0, 0])
                    for i in range(3):
                        acc[i] += values[i]
        sessions.append(layer_metrics(total, macs))
    return {name: ((statistics.median_low if unit == "count" else statistics.median)(
                s[name][0] for s in sessions), unit)
            for name, (_, unit) in sessions[0].items()}


# -- main ------------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ssnl" / "cli.py").is_file():
        print(f"perfbench: no src/ssnl package under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = root / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, bool(args.trace), time.monotonic() + RUN_LIMIT_S)
    try:
        setups = [work / f"setup-{i}" for i in range(1 if args.trace else SETUPS)]
        setup_s = [set_up(runner, w, args.seed, d) for d in setups]
        rounds: list[Path] = []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            rounds.append(work / f"round-{len(rounds)}")
            run_round(runner, w, args.seed, rounds[-1])
        counts = check_outputs(root, w, args.seed, setups, rounds, runner)
        metrics = (per_layer(runner, rounds, counts) if args.trace
                   else end_to_end(w, runner, setup_s, counts))
    except BenchError as exc:
        print(f"perfbench: {exc}\n(outputs kept in {work})", file=sys.stderr)
        return 1
    shutil.rmtree(work)
    print(f"perfbench: {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"commands={len(runner.commands)} probability_error={counts['prob_error']:.2e}",
          file=sys.stderr)
    for kind in ("synth", "train", "eval", "map"):
        walls = " ".join(f"{c.wall_s:.3f}" for c in runner.commands if c.kind == kind)
        print(f"perfbench: {kind} wall_s {walls}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": len(runner.commands),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
