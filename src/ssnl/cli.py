"""Command-line surface: synth, train, eval, map, complexity, gradcheck.

Every command is a pure function of its flags, input files, and seeds, so
repeated invocations produce byte-identical outputs; ``main`` runs numpy's
BLAS on one thread, so this holds at any ``OPENBLAS_NUM_THREADS``. ``main``
also freezes the objects the imports leave (``gc.freeze``), so that the exit
of a short command does not sweep them.

Run configuration comes from (in increasing precedence) the command's
defaults, an optional ``key=value`` config file ('#' starts a comment),
repeated ``--set key=value`` flags, and the dedicated flags. A dedicated flag
(``--seed``, ``--epochs``, ``--ratio``, ``--split-seed``, ``--bands``,
``--classes``) is one more way to write its config key, read by the same field
parser. Unknown keys are rejected; the resolved configuration is echoed into
outputs for provenance.

Exit codes, each carried by its error class with its stderr label
(``errors``; ``UsageError`` here): 0 success, 1 usage (two outputs naming one
file too), 2 I/O or file format, 3 contract/shape (an allocation refused for
want of memory too), 4 numerical failure; a failed command leaves none of its
outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .complexity import render_complexity_report
from .data import (
    load_cube,
    load_labels,
    scale_bands,
    split_samples,
    synthesize_cube,
    write_cube,
    write_labels,
)
from .errors import ConfigError, NumericalError, ShapeError, SsnlError
from .metrics import render_report
from .model import ModelConfig, load_model, parse_field, predict_pixels, save_model
from .render import render_class_map, write_ppm
from .train import (
    TrainConfig,
    evaluate,
    gradient_check_model,
    serialize_report,
    train,
)

GRADCHECK_TOLERANCE = 1e-5

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


class UsageError(Exception):
    exit_code, label = 1, "usage error"


@dataclass
class RunConfig(TrainConfig, ModelConfig):
    """Every tunable of a run as flat key=value entries: the ModelConfig and
    TrainConfig fields, inherited so each default is written once, then the
    split's. ``bands`` and ``num_classes`` stay None until the cube and labels
    resolve them. Construction runs TrainConfig's checks; ModelConfig's run
    when ``model_config`` builds one."""

    bands: int | None = None
    num_classes: int | None = None
    ratio: float = 0.10
    split_seed: int | None = None  # None: resolved to seed

    def set_key(self, key: str, raw: str, where: str = "flag"):
        f = next((f for f in fields(self) if f.name == key), None)
        if f is None:
            raise UsageError(f"{where}: unknown configuration key {key!r}")
        try:
            value = parse_field(f, raw.strip())
        except ValueError:
            raise UsageError(f"{where}: bad value {raw!r} for key {key!r}") from None
        setattr(self, key, value)

    def read_file(self, path):
        try:
            with open(path, "r", encoding="ascii") as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read config file {path}: {exc}") from None
        for lineno, line in enumerate(lines, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = stripped.partition("=")
            self.set_key(key.strip(), raw, where=f"{path}:{lineno}")

    def echo_lines(self, **extra) -> list[str]:
        pairs = []
        for f in fields(self):
            v = getattr(self, f.name)
            pairs.append(f"{f.name}={'none' if v is None else v}")
        for key in sorted(extra):
            pairs.append(f"{key}={extra[key]}")
        return pairs

    def model_config(self) -> ModelConfig:
        if self.bands is None or self.num_classes is None:
            raise ConfigError("bands and num_classes must be resolved before use")
        return self._build(ModelConfig)

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig)

    def _build(self, cls):
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})


def _resolve_run_config(args, base: RunConfig | None = None) -> RunConfig:
    """``base`` (default ``RunConfig()``) overridden by ``--config``, then each
    ``--set``, then each dedicated flag: an argument whose dest is a field.
    An unset ``split_seed`` is the seed. The result passes TrainConfig's
    checks (ConfigError otherwise)."""
    run = base if base is not None else RunConfig()
    if getattr(args, "config", None):
        run.read_file(args.config)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        run.set_key(key.strip(), raw, where="--set")
    for f in fields(run):
        raw = getattr(args, f.name, None)
        if raw is None:
            continue
        # a flag names a value to use; "none" (no value) is --set text only
        run.set_key(f.name, raw)
        if getattr(run, f.name) is None:
            raise UsageError(f"flag: bad value {raw!r} for key {f.name!r}")
    if run.split_seed is None:
        run.split_seed = run.seed
    run.train_config()  # TrainConfig's range checks, for commands that never train too
    return run


# -- subcommands ----------------------------------------------------------------


def _load_scene(path, bands: int | None):
    """The cube at ``path``, band-scaled, refused (ShapeError) unless it has
    ``bands`` bands; None accepts any count."""
    cube = scale_bands(load_cube(path))
    if bands is not None and bands != cube.bands:
        raise ShapeError(f"expected {bands} bands but cube {path} has {cube.bands}")
    return cube


def _file_key(path: str):
    # an existing file is its (device, inode), so hard links compare equal
    try:
        st = os.stat(path)
    except OSError:
        return path
    return st.st_dev, st.st_ino


class _Outputs:
    """A command's output paths, refused (UsageError) before its work if two
    are one file. ``write`` writes them in order; if one fails, it removes the
    regular files begun (not a FIFO, a device or a file open() refused)."""

    def __init__(self, *paths):
        self.paths, self.files = paths, [os.path.realpath(p) for p in paths]
        if len({_file_key(f) for f in self.files}) < len(paths):
            raise UsageError(f"two outputs are one file: {' '.join(paths)}")

    def write(self, *writers):
        for i, (path, write) in enumerate(zip(self.paths, writers)):
            try:
                write(path)
            except BaseException as exc:  # open() names its file: nothing was written there
                for file in self.files[:i + (getattr(exc, "filename", None) is None)]:
                    if os.path.isfile(file):
                        os.remove(file)
                raise


def cmd_synth(args) -> int:
    outputs = _Outputs(args.out_cube, args.out_labels)
    cube, labels = synthesize_cube(
        args.rows, args.cols, args.bands, args.classes, args.noise, args.seed
    )
    outputs.write(lambda path: write_cube(path, cube), lambda path: write_labels(path, labels))
    print(
        f"synth rows={args.rows} cols={args.cols} bands={args.bands} "
        f"classes={args.classes} noise={args.noise} seed={args.seed} "
        f"cube={args.out_cube} labels={args.out_labels}"
    )
    return 0


def cmd_train(args) -> int:
    outputs = _Outputs(args.out_model, args.out_report)
    run = _resolve_run_config(args)
    cube = _load_scene(args.cube, run.bands)
    labels = load_labels(args.labels)
    run.bands = cube.bands
    if run.num_classes is None:
        run.num_classes = labels.num_classes
    split = split_samples(labels, run.ratio, run.split_seed)
    params, report = train(
        cube, labels, split, run.model_config(), run.train_config(),
        verbose=args.verbose,
    )
    text = serialize_report(report, run.echo_lines(cube=args.cube, labels=args.labels))
    outputs.write(lambda path: save_model(path, params, run.model_config()),
                  lambda path: Path(path).write_text(text, "ascii", "backslashreplace"))
    oa = np.trace(report.confusion.counts) / max(1, report.confusion.total)
    print(
        f"train epochs={report.epochs_run} final_loss={report.losses[-1]:.6f} "
        f"test_oa={oa:.4f} train_s={report.train_seconds:.2f} "
        f"test_s={report.test_seconds:.2f} model={args.out_model}"
    )
    return 0


def cmd_eval(args) -> int:
    run = _resolve_run_config(args)
    params, config = load_model(args.model)
    cube = _load_scene(args.cube, config.bands)
    labels = load_labels(args.labels)
    split = split_samples(labels, run.ratio, run.split_seed)
    report = render_report(evaluate(params, config, cube, labels, split.test))
    print(f"# eval model={args.model} cube={args.cube} ratio={run.ratio} "
          f"split_seed={run.split_seed}")
    print(report)
    return 0


def cmd_map(args) -> int:
    params, config = load_model(args.model)
    cube = _load_scene(args.cube, config.bands)
    pixels = np.indices((cube.rows, cube.cols)).reshape(2, -1).T
    ids = predict_pixels(cube, pixels, params, config).reshape(cube.rows, cube.cols)
    image = render_class_map(ids, config.num_classes)
    comment = f"cube={args.cube} model={args.model} classes={config.num_classes}"
    _Outputs(args.out_image).write(lambda path: write_ppm(path, image, comment=comment))
    print(f"map {cube.rows}x{cube.cols} classes={config.num_classes} "
          f"image={args.out_image}")
    return 0


def cmd_complexity(args) -> int:
    run = _resolve_run_config(args, RunConfig(bands=32, num_classes=4))
    print(render_complexity_report(run.model_config(), batch=args.batch))
    return 0


def cmd_gradcheck(args) -> int:
    base = RunConfig(bands=6, num_classes=3, patch_size=3, hidden_dim=4,
                     spatial_channels=3, classifier_hidden=8)
    run = _resolve_run_config(args, base)
    worst = gradient_check_model(run.model_config(), run.seed)
    print(f"gradcheck seed={run.seed} worst_relative_error={worst:.3e} "
          f"tolerance={GRADCHECK_TOLERANCE:.0e}")
    if not worst < GRADCHECK_TOLERANCE:
        raise NumericalError(
            f"gradient check failed: worst relative error {worst:.3e}"
        )
    return 0


# -- parser / dispatcher -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_config_flags(sub):
    sub.add_argument("--config", help="key=value config file ('#' comments)")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one configuration key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssnl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="write a synthetic cube + labels")
    synth.add_argument("--rows", type=int, required=True)
    synth.add_argument("--cols", type=int, required=True)
    synth.add_argument("--bands", type=int, required=True)
    synth.add_argument("--classes", type=int, required=True)
    synth.add_argument("--noise", type=float, default=0.05)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out-cube", required=True)
    synth.add_argument("--out-labels", required=True)
    synth.set_defaults(func=cmd_synth)

    tr = subs.add_parser("train", help="train on a cube/labels pair")
    tr.add_argument("--cube", required=True)
    tr.add_argument("--labels", required=True)
    tr.add_argument("--out-model", required=True)
    tr.add_argument("--out-report", required=True)
    tr.add_argument("--seed")
    tr.add_argument("--epochs")
    tr.add_argument("--ratio")
    tr.add_argument("--verbose", action="store_true")
    _add_config_flags(tr)
    tr.set_defaults(func=cmd_train)

    ev = subs.add_parser("eval", help="score a checkpoint on a fresh split")
    ev.add_argument("--cube", required=True)
    ev.add_argument("--labels", required=True)
    ev.add_argument("--model", required=True)
    ev.add_argument("--ratio", required=True)
    ev.add_argument("--split-seed", required=True)
    ev.set_defaults(func=cmd_eval)

    mp = subs.add_parser("map", help="predict every pixel to a PPM image")
    mp.add_argument("--cube", required=True)
    mp.add_argument("--model", required=True)
    mp.add_argument("--out-image", required=True)
    mp.set_defaults(func=cmd_map)

    cx = subs.add_parser("complexity", help="parameter / MAC report")
    cx.add_argument("--bands")
    cx.add_argument("--classes", dest="num_classes")
    cx.add_argument("--batch", type=int, default=1)
    _add_config_flags(cx)
    cx.set_defaults(func=cmd_complexity)

    gck = subs.add_parser("gradcheck", help="end-to-end 64-bit gradient check")
    gck.add_argument("--seed")
    _add_config_flags(gck)
    gck.set_defaults(func=cmd_gradcheck)

    return parser


def _keep_heap():
    """Fix glibc's heap policy for this process: blocks under 32 MB come from
    the heap, and up to 256 MB of freed heap is kept, not given back.

    A forward pass allocates dozens of 0.1-1 MB temporaries. Under glibc's
    default, dynamic thresholds, many of them are mapped and unmapped, or
    trimmed, on every op, so each page is faulted in again on the next use.
    Any other libc is left as it is."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread in this process.

    A BLAS matmul splits its sums across threads, so its float bits depend on
    the thread count; at one thread every command is a pure function of its
    inputs whatever the environment sets. The library is the one in the
    wheel's ``numpy.libs``, which is already loaded, so opening it again
    reaches the same copy. Where no such library or setter exists, nothing
    is changed."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            setter = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes = (ctypes.c_int,)
        setter.restype = None
        setter(1)
        return


def main(argv=None) -> int:
    """Run one command and return its exit code. Three process settings come
    first: ``gc.freeze()`` moves every object alive after the imports out of
    the collector's reach, so the full collections at interpreter exit do not
    walk the ~21k objects numpy and ssnl leave; then the heap policy
    (``_keep_heap``) and the BLAS pin (``_one_blas_thread``). None of them
    changes a bit of any output."""
    gc.freeze()
    _keep_heap()
    _one_blas_thread()
    if hasattr(sys.stdout, "reconfigure"):  # a non-ASCII path prints escaped, as in the report
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SsnlError, UsageError) as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"contract error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
