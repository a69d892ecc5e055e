import argparse
import colorsys
import ctypes
import gc
import os
import re
import stat
import struct
import subprocess
import sys
import threading
import warnings
from dataclasses import MISSING, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ssnl.cli import RunConfig, _resolve_run_config, main
from ssnl.data import load_cube, load_labels, synthesize_cube, write_cube, write_labels
from ssnl.model import ModelConfig
from ssnl.train import TrainConfig
from ssnl.render import class_color, class_palette, render_class_map, write_ppm


FAST_MODEL = [
    "--set", "hidden_dim=4", "--set", "spatial_channels=3",
    "--set", "classifier_hidden=8", "--set", "patch_size=3",
    "--set", "batch_size=8", "--set", "augment=0",
]


def synth_args(tmp_path, rows=8, cols=8, bands=6, classes=3, noise=0.02, seed=0):
    cube = tmp_path / "scene.cube"
    labels = tmp_path / "scene.lbl"
    argv = [
        "synth", "--rows", str(rows), "--cols", str(cols), "--bands", str(bands),
        "--classes", str(classes), "--noise", str(noise), "--seed", str(seed),
        "--out-cube", str(cube), "--out-labels", str(labels),
    ]
    return argv, cube, labels


def train_args(cube, labels, model, report, epochs=1, seed=0, extra=()):
    # seed=None leaves --seed out
    return [
        "train", "--cube", str(cube), "--labels", str(labels),
        "--out-model", str(model), "--out-report", str(report),
        "--epochs", str(epochs), *([] if seed is None else ["--seed", str(seed)]),
        "--ratio", "0.2", *FAST_MODEL, *extra,
    ]


# -- palette / ppm -----------------------------------------------------------------


def test_class_zero_is_black():
    assert class_color(0, 5) == (0, 0, 0)


def test_palette_colors_distinct():
    palette = class_palette(8)
    assert len(palette) == 9
    assert len(set(palette[1:])) == 8


def test_palette_is_the_colorsys_hue_circle():
    for k in range(2, 1029):
        want = [(0, 0, 0)] + [
            tuple(round(255 * ch) for ch in colorsys.hsv_to_rgb((c - 1) / k, 1.0, 1.0))
            for c in range(1, k + 1)]
        assert class_palette(k) == want, k


def test_render_class_map_shape():
    ids = np.array([[0, 1], [2, 3]])
    img = render_class_map(ids, 3)
    assert img.shape == (2, 2, 3)
    assert tuple(img[0, 0]) == (0, 0, 0)


def test_write_ppm_layout(tmp_path):
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    img[0, 0] = (255, 10, 0)
    path = tmp_path / "m.ppm"
    write_ppm(path, img, comment="hello")
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n# hello\n3 2\n255\n")
    assert raw.endswith(img.tobytes())


# -- synth --------------------------------------------------------------------------


def test_synth_writes_deterministic_files(tmp_path, capsys):
    argv, cube, labels = synth_args(tmp_path)
    assert main(argv) == 0
    first_cube = cube.read_bytes()
    first_labels = labels.read_bytes()
    assert main(argv) == 0
    assert cube.read_bytes() == first_cube
    assert labels.read_bytes() == first_labels
    out = capsys.readouterr().out
    assert "seed=0" in out and "bands=6" in out


def test_synth_label_inventory(tmp_path):
    argv, cube, labels = synth_args(tmp_path, rows=32, classes=4)
    assert main(argv) == 0
    raster = load_labels(labels)
    assert set(np.unique(raster.labels)) == {1, 2, 3, 4}


def test_synth_cube_header_echoes_bands(tmp_path):
    argv, cube, _ = synth_args(tmp_path, bands=11)
    assert main(argv) == 0
    assert load_cube(cube).bands == 11
    assert cube.read_bytes().startswith(b"HSICUBE1\n8 8 11\n")


@pytest.mark.parametrize("noise", ["-1", "1e300"])
def test_synth_refuses_a_noise_that_makes_no_readable_cube(tmp_path, capsys, noise):
    # 1e300 overflows the float32 cube, which load_cube then refuses
    argv, cube, labels = synth_args(tmp_path)
    argv[argv.index("--noise") + 1] = noise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    assert capsys.readouterr().err.startswith("contract error: noise")
    assert not cube.exists() and not labels.exists()


# -- train --------------------------------------------------------------------------


def test_train_single_epoch_writes_outputs(tmp_path, capsys):
    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    model = tmp_path / "m.ckpt"
    report = tmp_path / "r.txt"
    assert main(train_args(cube, labels, model, report)) == 0
    assert model.exists()
    text = report.read_text()
    rows = [l for l in text.splitlines() if l and not l.startswith("#") and
            not l.startswith("epoch")]
    assert len(rows) == 1
    assert "epochs=1" in text  # provenance echo


def test_train_identical_flags_identical_checkpoints(tmp_path):
    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    m1, r1 = tmp_path / "m1.ckpt", tmp_path / "r1.txt"
    m2, r2 = tmp_path / "m2.ckpt", tmp_path / "r2.txt"
    assert main(train_args(cube, labels, m1, r1, epochs=2, seed=3)) == 0
    assert main(train_args(cube, labels, m2, r2, epochs=2, seed=3)) == 0
    assert m1.read_bytes() == m2.read_bytes()
    assert r1.read_text() == r2.read_text()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_all_unlabeled_raster_is_refused_before_output(tmp_path, capsys, command):
    from ssnl.data import LabelRaster, write_labels

    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    model, report = tmp_path / "m.ckpt", tmp_path / "r.txt"
    if command == "eval":
        assert main(train_args(cube, labels, model, report)) == 0
        model.rename(tmp_path / "trained.ckpt")
    write_labels(labels, LabelRaster(np.zeros((8, 8), dtype=int)))
    capsys.readouterr()
    if command == "train":
        code = main(train_args(cube, labels, model, report))
    else:
        code = main(["eval", "--cube", str(cube), "--labels", str(labels), "--model",
                     str(tmp_path / "trained.ckpt"), "--ratio", "0.2", "--split-seed", "0"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and not model.exists()
    assert err == "contract error: no labeled pixel: every label is 0 (unlabeled)\n"


def test_train_unknown_config_key_is_usage_error(tmp_path, capsys):
    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    code = main(train_args(cube, labels, tmp_path / "m.ckpt", tmp_path / "r.txt",
                           extra=["--set", "warp_speed=9"]))
    assert code == 1
    assert "warp_speed" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "bands=0", "hidden_dim=0", "seq_kernel=-1", "spatial_kernel=-3",
    "spatial_channels=0", "classifier_hidden=0",
    "beta1=1.0", "beta1=-0.1", "beta2=1", "adam_eps=0", "adam_eps=-1e-8", "adam_eps=inf",
    "learning_rate=nan", "learning_rate=inf", "clip_norm=0", "clip_norm=-1",
    "patience=0", "min_delta=nan", "min_delta=-1",
])
def test_train_out_of_range_config_is_contract_error(tmp_path, capsys, setting):
    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    code = main(train_args(cube, labels, tmp_path / "m.ckpt", tmp_path / "r.txt",
                           extra=["--set", setting]))
    assert code == 3
    assert "contract error" in capsys.readouterr().err


def test_train_non_finite_cube_is_format_error(tmp_path, capsys):
    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    raw = bytearray(cube.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    cube.write_bytes(bytes(raw))
    code = main(train_args(cube, labels, tmp_path / "m.ckpt", tmp_path / "r.txt"))
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


def test_train_config_file_with_line_numbered_error(tmp_path, capsys):
    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nepochs=2\nbogus line\n")
    code = main(train_args(cube, labels, tmp_path / "m.ckpt", tmp_path / "r.txt",
                           extra=["--config", str(cfg_file)]))
    assert code == 1
    assert ":3" in capsys.readouterr().err


def test_train_config_file_applies_and_flags_override(tmp_path):
    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("epochs=5\nseed=9\n")
    report = tmp_path / "r.txt"
    # --epochs flag overrides the file's 5
    assert main(train_args(cube, labels, tmp_path / "m.ckpt", report,
                           epochs=2, seed=9, extra=["--config", str(cfg_file)])) == 0
    rows = [l for l in report.read_text().splitlines()
            if l and not l.startswith(("#", "epoch"))]
    assert len(rows) == 2


# -- eval ---------------------------------------------------------------------------


def test_eval_prints_metric_table(tmp_path, capsys):
    argv, cube, labels = synth_args(tmp_path, noise=0.0)
    main(argv)
    model, report = tmp_path / "m.ckpt", tmp_path / "r.txt"
    main(train_args(cube, labels, model, report, epochs=2))
    capsys.readouterr()
    code = main(["eval", "--cube", str(cube), "--labels", str(labels),
                 "--model", str(model), "--ratio", "0.2", "--split-seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "OA" in out and "Kappa" in out
    kappa_line = next(l for l in out.splitlines() if l.startswith("Kappa"))
    assert len(kappa_line.split()[1].split(".")[1]) == 4  # four decimals


def test_eval_repeated_invocations_identical(tmp_path, capsys):
    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    model, report = tmp_path / "m.ckpt", tmp_path / "r.txt"
    main(train_args(cube, labels, model, report))
    capsys.readouterr()
    args = ["eval", "--cube", str(cube), "--labels", str(labels),
            "--model", str(model), "--ratio", "0.2", "--split-seed", "0"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_eval_band_mismatch_exits_nonzero(tmp_path, capsys):
    argv, cube, labels = synth_args(tmp_path, bands=6)
    main(argv)
    model, report = tmp_path / "m.ckpt", tmp_path / "r.txt"
    main(train_args(cube, labels, model, report))
    other_argv, other_cube, other_labels = synth_args(tmp_path, bands=7)
    other_argv[-3] = str(tmp_path / "other.cube")
    other_argv[-1] = str(tmp_path / "other.lbl")
    main(["synth", "--rows", "8", "--cols", "8", "--bands", "7", "--classes", "3",
          "--out-cube", str(tmp_path / "b7.cube"),
          "--out-labels", str(tmp_path / "b7.lbl")])
    capsys.readouterr()
    code = main(["eval", "--cube", str(tmp_path / "b7.cube"),
                 "--labels", str(tmp_path / "b7.lbl"), "--model", str(model),
                 "--ratio", "0.2", "--split-seed", "0"])
    assert code == 3


@pytest.mark.parametrize("command", ["train", "map"])
def test_band_mismatch_is_shape_error(tmp_path, capsys, command):
    argv, cube, labels = synth_args(tmp_path, bands=6)
    main(argv)
    model, report = tmp_path / "m.ckpt", tmp_path / "r.txt"
    image = tmp_path / "map.ppm"
    if command == "train":
        code = main(train_args(cube, labels, model, report, extra=["--set", "bands=7"]))
        expected, got = 7, 6
    else:
        assert main(train_args(cube, labels, model, report)) == 0
        main(["synth", "--rows", "8", "--cols", "8", "--bands", "7", "--classes", "3",
              "--out-cube", str(tmp_path / "b7.cube"), "--out-labels", str(tmp_path / "b7.lbl")])
        cube = tmp_path / "b7.cube"
        code = main(["map", "--cube", str(cube), "--model", str(model),
                     "--out-image", str(image)])
        expected, got = 6, 7
    assert code == 3 and not image.exists()
    assert capsys.readouterr().err.endswith(f"expected {expected} bands but cube {cube} has {got}\n")


@pytest.mark.parametrize("command, cube_size, label_size",
                         [("train", 6, 8), ("train", 8, 6), ("eval", 8, 6)])
def test_labels_that_do_not_fit_the_cube_are_shape_error(tmp_path, capsys, command,
                                                         cube_size, label_size):
    # unchecked, a misfit raster gives an IndexError traceback (labels larger than
    # the cube), or a silent training run or a wrong OA (labels smaller)
    for size in {cube_size, label_size, 8}:
        main(["synth", "--rows", str(size), "--cols", str(size), "--bands", "6",
              "--classes", "3", "--out-cube", str(tmp_path / f"{size}.cube"),
              "--out-labels", str(tmp_path / f"{size}.lbl")])
    cube, labels = tmp_path / f"{cube_size}.cube", tmp_path / f"{label_size}.lbl"
    model, report = tmp_path / "m.ckpt", tmp_path / "r.txt"
    if command == "train":
        code = main(train_args(cube, labels, model, report))
        assert not model.exists()
    else:
        assert main(train_args(tmp_path / "8.cube", tmp_path / "8.lbl", model, report)) == 0
        code = main(["eval", "--cube", str(cube), "--labels", str(labels),
                     "--model", str(model), "--ratio", "0.2", "--split-seed", "0"])
    assert code == 3
    err = capsys.readouterr().err
    assert f"labels are {label_size}x{label_size} but the cube is {cube_size}x{cube_size}" in err


@pytest.mark.parametrize("missing", ["--ratio", "--split-seed"])
def test_eval_requires_the_training_split(tmp_path, capsys, missing):
    # no checkpoint records the training split, so eval must be told it
    flags = {"--ratio": "0.2", "--split-seed": "0"}
    del flags[missing]
    code = main(["eval", "--cube", str(tmp_path / "a.cube"), "--labels",
                 str(tmp_path / "a.lbl"), "--model", str(tmp_path / "a.ckpt"),
                 *[tok for pair in flags.items() for tok in pair]])
    assert code == 1
    assert missing in capsys.readouterr().err


# -- map ----------------------------------------------------------------------------


def test_map_dimensions_and_determinism(tmp_path):
    argv, cube, labels = synth_args(tmp_path, rows=6, cols=7)
    main(argv)
    model, report = tmp_path / "m.ckpt", tmp_path / "r.txt"
    main(train_args(cube, labels, model, report))
    image = tmp_path / "map.ppm"
    assert main(["map", "--cube", str(cube), "--model", str(model),
                 "--out-image", str(image)]) == 0
    raw = image.read_bytes()
    header_end = raw.index(b"255\n") + 4
    assert b"7 6\n" in raw[:header_end]
    assert len(raw) - header_end == 6 * 7 * 3
    assert main(["map", "--cube", str(cube), "--model", str(model),
                 "--out-image", str(tmp_path / "map2.ppm")]) == 0
    assert (tmp_path / "map2.ppm").read_bytes() == raw


def test_non_ascii_cube_path_is_escaped_in_report_and_map(tmp_path):
    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    cube = cube.rename(tmp_path / "caf\u00e9.cube")
    model, report, image = tmp_path / "m.ckpt", tmp_path / "r.txt", tmp_path / "map.ppm"
    assert main(train_args(cube, labels, model, report)) == 0
    text = report.read_text(encoding="ascii")
    assert "caf\\xe9.cube" in text and text.endswith("\n")
    assert main(["map", "--cube", str(cube), "--model", str(model),
                 "--out-image", str(image)]) == 0
    raw = image.read_bytes()
    header_end = raw.index(b"255\n") + 4
    assert b"caf\\xe9.cube" in raw[:header_end]
    assert len(raw) - header_end == 8 * 8 * 3


def test_train_with_an_unwritable_report_leaves_no_checkpoint(tmp_path, capsys):
    # and the mirror case: an unwritable checkpoint leaves no report
    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    model, report = tmp_path / "m.ckpt", tmp_path / "r.txt"
    for outputs in ((model, tmp_path / "nodir" / "r.txt"), (tmp_path / "nodir" / "m.ckpt", report)):
        assert main(train_args(cube, labels, *outputs)) == 2
        assert "i/o error" in capsys.readouterr().err
        assert not model.exists() and not report.exists()


def test_synth_whose_label_write_fails_leaves_no_cube(tmp_path, capsys):
    argv, cube, _ = synth_args(tmp_path)
    argv[argv.index("--out-labels") + 1] = str(tmp_path / "nodir" / "x.lbl")
    assert main(argv) == 2
    assert "i/o error" in capsys.readouterr().err
    assert not cube.exists()


@pytest.mark.parametrize("command", ["synth", "train"])
def test_two_outputs_that_are_one_file_are_refused_before_any_work(tmp_path, capsys, command):
    argv, cube, labels = synth_args(tmp_path)
    assert main(argv) == 0
    target = tmp_path / "x"
    target.write_bytes(b"keep")
    os.link(target, tmp_path / "y")
    # one name resolved two ways, and two hard links to one file
    for same in ([str(target), str(tmp_path / "." / "x")], [str(target), str(tmp_path / "y")]):
        if command == "synth":
            argv = synth_args(tmp_path / "nodir")[0]
            argv[argv.index("--out-cube") + 1], argv[argv.index("--out-labels") + 1] = same
        else:
            argv = train_args(cube, labels, *same)
        capsys.readouterr()
        assert main(argv) == 1, same
        assert capsys.readouterr().err.startswith("usage error: two outputs are one file")
        assert target.read_bytes() == b"keep"


def _fifo_reader(fifo):
    # reads the FIFO to its end, so that a writer's open() returns
    def read():
        with open(fifo, "rb") as fh:
            fh.read()

    thread = threading.Thread(target=read, daemon=True)
    thread.start()
    return thread


def _release(fifo, thread):
    # a reader still waiting for a writer gets one that writes nothing; with
    # no reader left, the non-blocking open fails and there is none to release
    try:
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    except OSError:
        pass
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_failed_train_leaves_a_fifo_report_in_place(tmp_path, capsys):
    # the checkpoint cannot be written; the report path names a FIFO the run
    # did not create, so it is neither written nor removed
    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    reader = _fifo_reader(fifo)
    try:
        assert main(train_args(cube, labels, tmp_path / "nodir" / "m.ckpt", fifo)) == 2
    finally:
        _release(fifo, reader)
    assert "i/o error" in capsys.readouterr().err
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_synth_into_a_fifo_whose_labels_fail_leaves_the_fifo(tmp_path, capsys):
    # the cube is written into the FIFO, which is not a regular file: the
    # failed run removes nothing
    argv, _, _ = synth_args(tmp_path)
    fifo = tmp_path / "cube.fifo"
    os.mkfifo(fifo)
    argv[argv.index("--out-cube") + 1] = str(fifo)
    argv[argv.index("--out-labels") + 1] = str(tmp_path / "nodir" / "x.lbl")
    reader = _fifo_reader(fifo)
    try:
        assert main(argv) == 2
    finally:
        _release(fifo, reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_a_report_write_that_fails_midway_leaves_no_output(tmp_path):
    # a file-size limit that the checkpoint meets and the report, which
    # echoes two long input paths, exceeds: the report's write fails after it
    # began, as on a full disk, and both outputs go. Python ignores SIGXFSZ,
    # so the write raises EFBIG
    deep = tmp_path.joinpath(*["d" * 200] * 3)
    deep.mkdir(parents=True)
    argv, cube, labels = synth_args(deep)
    assert main(argv) == 0
    model, report = tmp_path / "m.ckpt", tmp_path / "r.txt"
    assert main(train_args(cube, labels, model, report)) == 0
    limit = model.stat().st_size
    assert report.stat().st_size > limit
    model.unlink()
    report.unlink()
    code = ("import resource, sys; "
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit})); "
            "from ssnl.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code, *train_args(cube, labels, model, report)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "File too large" in proc.stderr
    assert not model.exists() and not report.exists()


def test_non_ascii_paths_print_escaped_to_an_ascii_stdout(tmp_path):
    # every command that prints a path (synth, train, eval, map) escapes it
    # as the report and PPM writers do, where an ASCII stdout would raise
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii")
    argv, cube, labels = synth_args(tmp_path)
    cube = tmp_path / "caf\u00e9.cube"
    model = tmp_path / "m\u00e9.ckpt"
    argv[argv.index("--out-cube") + 1] = str(cube)
    code = "import sys; from ssnl.cli import main; sys.exit(main(sys.argv[1:]))"
    for command in (argv, train_args(cube, labels, model, tmp_path / "r.txt"),
                    ["eval", "--cube", str(cube), "--labels", str(labels),
                     "--model", str(model), "--ratio", "0.2", "--split-seed", "0"],
                    ["map", "--cube", str(cube), "--model", str(model),
                     "--out-image", str(tmp_path / "\u00e9.ppm")]):
        proc = subprocess.run([sys.executable, "-c", code, *command], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "\\xe9" in proc.stdout, command[0]


@pytest.mark.parametrize("command", ["train", "synth"])
def test_an_allocation_too_large_for_memory_is_contract_error(tmp_path, command):
    # each asks for one 74.5 GiB array: a (100000, 100000) weight, or the
    # label raster. The child's 16 GiB address-space cap refuses it before any
    # page is touched, whatever the machine's overcommit policy
    argv, cube, labels = synth_args(tmp_path)
    assert main(argv) == 0
    outputs = tmp_path / "out.ckpt", tmp_path / "out.txt"
    if command == "train":
        argv = train_args(cube, labels, *outputs, extra=["--set", "hidden_dim=100000"])
    else:
        argv = synth_args(tmp_path, rows=100000, cols=100000, bands=100000)[0]
        for flag, path in zip(("--out-cube", "--out-labels"), outputs):
            argv[argv.index(flag) + 1] = str(path)
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (16 << 30, 16 << 30)); "
            "from ssnl.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("contract error: Unable to allocate 74.5 GiB")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not any(path.exists() for path in outputs)


def test_map_does_not_import_numpy_ma(tmp_path):
    # numpy.ma is imported lazily, by np.unique among others, and costs
    # 12-18 ms of start-up in each process that loads it
    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    model = tmp_path / "m.ckpt"
    main(train_args(cube, labels, model, tmp_path / "r.txt"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; from ssnl.cli import main; "
            "assert main(sys.argv[1:]) == 0; print('numpy.ma' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code, "map", "--cube", str(cube), "--model", str(model),
         "--out-image", str(tmp_path / "map.ppm")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_map_constant_predictor_single_color(tmp_path):
    from ssnl.model import load_model, save_model

    argv, cube, labels = synth_args(tmp_path, rows=5, cols=5)
    main(argv)
    model, report = tmp_path / "m.ckpt", tmp_path / "r.txt"
    main(train_args(cube, labels, model, report))
    params, cfg = load_model(model)
    params.classifier_w2.data = np.zeros_like(params.classifier_w2.data)
    params.classifier_b2.data = np.array([9.0, 0.0, 0.0], dtype=np.float32)
    forced = tmp_path / "forced.ckpt"
    save_model(forced, params, cfg)
    image = tmp_path / "flat.ppm"
    assert main(["map", "--cube", str(cube), "--model", str(forced),
                 "--out-image", str(image)]) == 0
    raw = image.read_bytes()
    pixels = raw[raw.index(b"255\n") + 4:]
    rgb = np.frombuffer(pixels, dtype=np.uint8).reshape(-1, 3)
    assert (rgb == rgb[0]).all()
    assert tuple(rgb[0]) == class_color(1, 3)


def test_map_checkpoint_with_bad_bool_is_contract_error(tmp_path, capsys):
    argv, cube, labels = synth_args(tmp_path, rows=5, cols=5)
    main(argv)
    model, report = tmp_path / "m.ckpt", tmp_path / "r.txt"
    main(train_args(cube, labels, model, report))
    raw = model.read_bytes()
    start = raw.index(b"\n") + 1
    end = raw.index(b"\n", start)
    config = raw[start:end].split()
    assert config[-1] == b"1"  # spatial_on
    model.write_bytes(raw[:start] + b" ".join(config[:-1] + [b"2"]) + raw[end:])
    code = main(["map", "--cube", str(cube), "--model", str(model),
                 "--out-image", str(tmp_path / "x.ppm")])
    assert code == 3
    assert "spatial_on" in capsys.readouterr().err


def test_map_checkpoint_with_non_integer_shape_is_contract_error(tmp_path, capsys):
    argv, cube, labels = synth_args(tmp_path, rows=5, cols=5)
    main(argv)
    model, report = tmp_path / "m.ckpt", tmp_path / "r.txt"
    main(train_args(cube, labels, model, report))
    raw = model.read_bytes()
    start = raw.index(b"\n", raw.index(b"\n") + 1) + 1  # first shape line
    end = raw.index(b"\n", start)
    model.write_bytes(raw[:start] + b"x y" + raw[end:])
    code = main(["map", "--cube", str(cube), "--model", str(model),
                 "--out-image", str(tmp_path / "x.ppm")])
    assert code == 3
    assert "norm_gain" in capsys.readouterr().err


def _edited_checkpoint_run(tmp_path, command, name, value):
    """Train a tiny model, set every value of parameter ``name`` to ``value``
    (a NaN only in its first element), save it, and run ``command`` on it."""
    from ssnl.model import load_model, save_model

    argv, cube, labels = synth_args(tmp_path, rows=5, cols=5)
    main(argv)
    model, report = tmp_path / "m.ckpt", tmp_path / "r.txt"
    main(train_args(cube, labels, model, report))
    params, cfg = load_model(model)
    tensor = getattr(params, name)
    if np.isnan(value):
        tensor.data.flat[0] = value
    else:
        tensor.data[...] = value
    save_model(model, params, cfg)
    if command == "eval":
        return main(["eval", "--cube", str(cube), "--labels", str(labels), "--model",
                     str(model), "--ratio", "0.2", "--split-seed", "0"])
    return main(["map", "--cube", str(cube), "--model", str(model),
                 "--out-image", str(tmp_path / "x.ppm")])


@pytest.mark.parametrize("command", ["eval", "map"])
def test_checkpoint_with_nan_weight_is_format_error(tmp_path, capsys, command):
    assert _edited_checkpoint_run(tmp_path, command, "norm_gain", np.nan) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "map"])
def test_non_finite_probabilities_are_numerical_error(tmp_path, capsys, command):
    # finite weights whose logits overflow float32: softmax gives NaN, which is
    # reported once, with no floating-point warning before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _edited_checkpoint_run(tmp_path, command, "classifier_w2", 3e38)
    assert code == 4
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "numerical failure: non-finite class probabilities\n"


def _ppm_classes(path, rows, cols, classes):
    raw = path.read_bytes()
    rgb = np.frombuffer(raw[raw.index(b"255\n") + 4:], dtype=np.uint8).reshape(rows, cols, 3)
    palette = np.array(class_palette(classes)[1:], dtype=np.uint8)
    matches = (rgb[:, :, None, :] == palette[None, None]).all(axis=-1)
    assert (matches.sum(axis=-1) == 1).all()
    return matches.argmax(axis=-1) + 1


@pytest.mark.parametrize("size, bands, classes, patch", [
    pytest.param(48, 24, 4, 5, id="acceptance"),
    pytest.param(30, 144, 15, 7, id="wide"),  # three pixel-stage bands
])
def test_eval_map_and_train_agree_on_every_test_pixel(tmp_path, capsys, size, bands,
                                                       classes, patch):
    # eval, map and train's test pass classify each pixel with the same bits,
    # so eval's table is the map's classes tallied over the test split, and
    # train's test_oa is eval's OA
    from ssnl.data import split_samples
    from ssnl.metrics import ConfusionMatrix, render_report

    argv, cube, labels = synth_args(tmp_path, rows=size, cols=size, bands=bands,
                                    classes=classes, noise=0.05, seed=101)
    main(argv)
    model, report, image = tmp_path / "m.ckpt", tmp_path / "r.txt", tmp_path / "map.ppm"
    assert main(["train", "--cube", str(cube), "--labels", str(labels),
                 "--out-model", str(model), "--out-report", str(report),
                 "--epochs", "1", "--seed", "101", "--ratio", "0.1",
                 "--set", f"patch_size={patch}"]) == 0
    test_oa = capsys.readouterr().out.split("test_oa=")[1].split()[0]
    assert main(["eval", "--cube", str(cube), "--labels", str(labels), "--model", str(model),
                 "--ratio", "0.1", "--split-seed", "101"]) == 0
    table = capsys.readouterr().out.split("\n", 1)[1]
    assert main(["map", "--cube", str(cube), "--model", str(model),
                 "--out-image", str(image)]) == 0

    mapped = _ppm_classes(image, size, size, classes)
    truth = load_labels(labels).labels
    cm = ConfusionMatrix.zeros(classes)
    for row, col in split_samples(load_labels(labels), 0.1, 101).test:
        cm.add(int(truth[row, col]), int(mapped[row, col]))
    assert table == render_report(cm) + "\n"
    assert test_oa == f"{np.trace(cm.counts) / cm.total:.4f}"


# -- run configuration schema ----------------------------------------------------------


def test_run_config_defaults_are_the_dataclass_defaults():
    run = RunConfig()
    schema = fields(ModelConfig) + fields(TrainConfig)
    assert [f.name for f in fields(run)] == [f.name for f in schema] + ["ratio", "split_seed"]
    for f in schema:
        assert getattr(run, f.name) == (None if f.default is MISSING else f.default), f.name
    assert run.train_config() == TrainConfig()
    run.bands, run.num_classes = 6, 3
    assert run.model_config() == ModelConfig(bands=6, num_classes=3)


def test_every_run_field_round_trips_through_set():
    changed = RunConfig(
        bands=7, num_classes=5, patch_size=3, hidden_dim=6, seq_kernel=5,
        spatial_channels=4, spatial_kernel=1, classifier_hidden=9, activation="tanh",
        forward_on=False, backward_on=False, spatial_on=False, batch_size=7,
        learning_rate=0.125, epochs=3, beta1=0.5, beta2=0.75, adam_eps=1e-6, seed=4,
        augment=False, early_stop=True, patience=2, min_delta=0.001, clip_norm=2.5,
        ratio=0.25, split_seed=11,
    )
    default = RunConfig()
    for f in fields(RunConfig):
        assert getattr(changed, f.name) != getattr(default, f.name), f.name
    args = argparse.Namespace(set=changed.echo_lines())
    parsed = _resolve_run_config(args)
    for f in fields(RunConfig):
        want, got = getattr(changed, f.name), getattr(parsed, f.name)
        assert got == want and type(got) is type(want), f.name
    # "none" reads back as None for optional fields; an unset split seed is the seed
    args = argparse.Namespace(set=["clip_norm=none", "split_seed=None", "bands=none"])
    parsed = _resolve_run_config(args, RunConfig(clip_norm=1.0, split_seed=3, bands=4, seed=5))
    assert parsed.clip_norm is None and parsed.split_seed == 5 and parsed.bands is None


@pytest.mark.parametrize("setting", ["augment=2", "augment=yes", "epochs=1.5",
                                     "learning_rate=fast", "clip_norm=", "seed=none"])
def test_set_rejects_text_the_field_type_refuses(tmp_path, capsys, setting):
    argv, cube, labels = synth_args(tmp_path)
    main(argv)
    code = main(train_args(cube, labels, tmp_path / "m.ckpt", tmp_path / "r.txt",
                           extra=["--set", setting]))
    assert code == 1
    assert "bad value" in capsys.readouterr().err


def test_config_file_with_non_ascii_byte_is_usage_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"epochs=\xff2\n")
    assert main(["complexity", "--config", str(cfg_file)]) == 1
    assert "run.cfg" in capsys.readouterr().err


# -- complexity / gradcheck ------------------------------------------------------------


def test_complexity_batch_doubles_flops_line(capsys):
    assert main(["complexity", "--bands", "16", "--classes", "4", "--batch", "1"]) == 0
    one = capsys.readouterr().out
    assert main(["complexity", "--bands", "16", "--classes", "4", "--batch", "2"]) == 0
    two = capsys.readouterr().out
    macs1 = int(next(l for l in one.splitlines() if l.startswith("MACs")).split()[-1])
    macs2 = int(next(l for l in two.splitlines() if l.startswith("MACs")).split()[-1])
    assert macs2 == 2 * macs1


def test_complexity_rejects_batch_zero(capsys):
    assert main(["complexity", "--batch", "0"]) == 3
    assert capsys.readouterr().err == "contract error: batch must be at least 1, got 0\n"


def test_gradcheck_default_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    assert "worst_relative_error" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--set", "epochs=0"],
    ["complexity", "--set", "learning_rate=nan"],
], ids=["gradcheck", "complexity"])
def test_commands_that_never_train_range_check_their_config(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("contract error: ") and captured.err.count("\n") == 1


# -- process settings: frozen objects, heap policy, BLAS threads -----------------------


def test_main_freezes_the_objects_alive_at_start(capsys):
    # so that the collections at interpreter exit do not walk them
    gc.unfreeze()
    assert gc.get_freeze_count() == 0
    assert main(["complexity"]) == 0
    assert gc.get_freeze_count() > 0


def test_main_sets_the_glibc_heap_policy(monkeypatch, capsys):
    calls = []

    def mallopt(param, value):  # a function, so it takes argtypes like a ctypes one
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    assert main(["complexity"]) == 0
    # M_MMAP_THRESHOLD = -3 and M_TRIM_THRESHOLD = -1 in glibc's malloc.h
    assert calls == [(-3, 32 << 20), (-1, 256 << 20)]


def _no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                         ids=["no_glibc", "no_mallopt"])
def test_main_runs_without_glibc_mallopt(monkeypatch, capsys, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["complexity"]) == 0
    assert "MACs" in capsys.readouterr().out


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # on this scene the conv2d im2col matmul gives other float bits when
    # OpenBLAS splits it across two threads; main runs BLAS on one
    cube, labels = synthesize_cube(30, 30, 144, 15, 0.05, seed=1)
    write_cube(tmp_path / "scene.cube", cube)
    write_labels(tmp_path / "scene.lbl", labels)
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        model, report = tmp_path / f"{threads}.ckpt", tmp_path / f"{threads}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "ssnl.cli", "train", "--cube", str(tmp_path / "scene.cube"),
             "--labels", str(tmp_path / "scene.lbl"), "--out-model", str(model),
             "--out-report", str(report), "--epochs", "2", "--seed", "1", "--ratio", "0.1",
             "--set", "patch_size=7"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((model.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]


# -- one precedence for every command ---------------------------------------------------


@pytest.mark.parametrize("command, key, flag, base", [
    ("train", "seed", "--seed", 0),
    ("complexity", "bands", "--bands", 32),
    ("gradcheck", "seed", "--seed", 0),
], ids=["train", "complexity", "gradcheck"])
def test_flag_over_set_over_config_over_base(tmp_path, capsys, command, key, flag, base):
    argv, report = [command], tmp_path / "r.txt"
    if command == "train":
        synth, cube, labels = synth_args(tmp_path)
        assert main(synth) == 0
        argv = train_args(cube, labels, tmp_path / "m.ckpt", report, seed=None)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key}=11\n")
    layers = [["--config", str(cfg_file)], ["--set", f"{key}=12"], [flag, "13"]]
    seen = []
    for n in range(len(layers) + 1):
        capsys.readouterr()
        assert main(argv + sum(layers[:n], [])) == 0
        text = report.read_text() if command == "train" else capsys.readouterr().out
        seen.append(int(re.search(rf"\b{key}=(\d+)", text).group(1)))
    assert seen == [base, 11, 12, 13]


@pytest.mark.parametrize("argv, shown", [
    (["gradcheck", "--set", "seed=3"], "gradcheck seed=3 "),
    (["complexity", "--bands", "20", "--set", "bands=10"], " bands=20\n"),
], ids=["gradcheck", "complexity"])
def test_set_and_flag_reach_the_command(capsys, argv, shown):
    assert main(argv) == 0
    assert shown in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["eval", "--cube", "c", "--labels", "l", "--model", "m", "--ratio", "0.1",
     "--split-seed", "none"],
    ["complexity", "--bands", "none"],
    ["train", "--cube", "c", "--labels", "l", "--out-model", "m", "--out-report", "r",
     "--epochs", "x"],
], ids=["eval", "complexity", "train"])
def test_dedicated_flag_refuses_text_its_key_refuses(tmp_path, monkeypatch, capsys, argv):
    # "none" is --set text for an optional key, never a flag's value
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1


def test_unknown_flag_is_usage_error(capsys):
    assert main(["synth", "--bogus"]) == 1
    assert main(["frobnicate"]) == 1


def test_missing_file_is_io_error(tmp_path, capsys):
    code = main(["eval", "--cube", str(tmp_path / "none.cube"),
                 "--labels", str(tmp_path / "none.lbl"),
                 "--model", str(tmp_path / "none.ckpt"),
                 "--ratio", "0.1", "--split-seed", "0"])
    assert code == 2


# -- exit codes ---------------------------------------------------------------------

# each vocabulary starts with a well-formed value, drawn 2 times in 3, so most
# lines get past the parser and deep into their command
_IN = ["missing", "garbage", "dir", "cube", "labels", "model", "config"]  # input files
_OUT = ["fresh", "dir", "nodir"]  # output paths, never an input file
_OUT2 = ["fresh2", "dir", "nodir"]  # a command's second output: a fresh one is another file
_INTS = ["-1", "0", "1", "3", "0.5", "x", "", "none"]
_FLOATS = ["-1", "0", "0.5", "1", "nan", "inf", "x"]
_SETTINGS = ["hidden_dim=4"] + [
    f"{key}={value}" for key in
    ("epochs", "patch_size", "hidden_dim", "bands", "num_classes", "batch_size", "ratio",
     "clip_norm", "learning_rate", "beta1", "adam_eps", "patience", "min_delta",
     "activation", "augment", "seed", "split_seed", "warp_speed")
    for value in ("-1", "0", "1", "3", "0.5", "nan", "none", "tanh", "x")] + ["no_equals"]
_FLAGS = {
    "synth": {"--rows": ["8"] + _INTS, "--cols": ["8"] + _INTS, "--bands": ["6"] + _INTS,
              "--classes": ["3"] + _INTS, "--noise": ["0.05"] + _FLOATS,
              "--seed": ["1"] + _INTS, "--out-cube": _OUT, "--out-labels": _OUT2},
    # --epochs is always given, at most 1, so no run trains longer than one epoch
    "train": {"--cube": ["cube"] + _IN, "--labels": ["labels"] + _IN, "--out-model": _OUT,
              "--out-report": _OUT2, "--seed": ["1"] + _INTS, "--epochs": ["1", "0", "-1", "x"],
              "--ratio": ["0.2"] + _FLOATS, "--verbose": None, "--config": ["config"] + _IN,
              "--set": _SETTINGS},
    "eval": {"--cube": ["cube"] + _IN, "--labels": ["labels"] + _IN,
             "--model": ["model"] + _IN, "--ratio": ["0.2"] + _FLOATS,
             "--split-seed": ["0"] + _INTS},
    "map": {"--cube": ["cube"] + _IN, "--model": ["model"] + _IN, "--out-image": _OUT},
    "complexity": {"--bands": ["16"] + _INTS, "--classes": ["4"] + _INTS,
                   "--batch": ["2"] + _INTS, "--config": ["config"] + _IN, "--set": _SETTINGS},
    "gradcheck": {"--seed": ["1"] + _INTS, "--config": ["config"] + _IN, "--set": _SETTINGS},
}


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(sorted(_FLAGS) + ["frobnicate"]))
    argv = [command]
    for flag, vocabulary in _FLAGS.get(command, {}).items():
        if flag != "--epochs" and draw(st.integers(0, 7)) == 7:
            continue
        argv.append(flag)
        if vocabulary is not None:
            argv.append(vocabulary[0] if draw(st.integers(0, 2)) < 2
                        else draw(st.sampled_from(vocabulary)))
    if draw(st.integers(0, 9)) == 9:
        argv.append(draw(st.sampled_from(["--bogus", "stray", "--seed"])))
    return argv


@pytest.fixture(scope="module")
def exit_code_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("exit_codes")
    argv, cube, labels = synth_args(root)
    assert main(argv) == 0
    model = root / "m.ckpt"
    assert main(train_args(cube, labels, model, root / "r.txt")) == 0
    (root / "run.cfg").write_text("epochs=1\nhidden_dim=4\n# comment\n")
    (root / "garbage").write_bytes(b"garbage\n\x00\xff")
    (root / "out").mkdir()
    return {"cube": cube, "labels": labels, "model": model, "config": root / "run.cfg",
            "garbage": root / "garbage", "missing": root / "missing", "dir": root,
            "fresh": root / "out" / "file", "fresh2": root / "out" / "file2",
            "nodir": root / "absent" / "file"}


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_command_lines())
def test_every_command_line_ends_in_a_documented_exit_code(exit_code_files, argv):
    argv = [str(exit_code_files.get(token, token)) for token in argv]
    assert main(argv) in (0, 1, 2, 3, 4)
