"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The synthetic-task
criteria train twelve models (four ablation variants, three seeds), in a pool
of up to two worker processes; everything else is fast.
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from ssnl import (
    ModelConfig,
    TrainConfig,
    evaluate,
    scale_bands,
    split_samples,
    synthesize_cube,
    train,
)
from ssnl.cli import _keep_heap, _one_blas_thread, main
from ssnl.complexity import family_comparison, macs_per_patch, render_complexity_report
from ssnl.metrics import average_accuracy, kappa, overall_accuracy
from ssnl.train import gradient_check_model
from test_data import _variants

SEEDS = (101, 202, 303)

VARIANTS = {
    "full": {},
    "forward_spatial": {"backward_on": False},
    "backward_spatial": {"forward_on": False},
    "no_spatial": {"spatial_on": False},
}


def _passed(name):
    print(f"\nACCEPTANCE {name}: PASS")


def synthetic_task(seed):
    cube, labels = synthesize_cube(48, 48, 24, 4, noise_sigma=0.05, seed=seed)
    return scale_bands(cube), labels, split_samples(labels, 0.10, seed=seed)


def _process_settings():
    # a spawned worker starts from a fresh import: it applies main's process
    # settings itself, as the test process does
    _keep_heap()
    _one_blas_thread()


def _train_variant(key):
    variant, seed = key
    cube, labels, split = synthetic_task(seed)
    config = ModelConfig(bands=24, num_classes=4, patch_size=5, **VARIANTS[variant])
    start = time.perf_counter()
    params, report = train(cube, labels, split, config, TrainConfig(epochs=30, seed=seed))
    return key, {
        "oa": overall_accuracy(report.confusion),
        "kappa": kappa(report.confusion),
        "losses": report.losses,
        "seconds": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def variant_runs():
    """Train every (variant, seed) once, in up to two worker processes;
    shared by the synthetic criteria. A run is a pure function of its key, so
    the results do not depend on the worker that trains them."""
    keys = [(variant, seed) for variant in VARIANTS for seed in SEEDS]
    with ProcessPoolExecutor(min(2, os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn"),
                             initializer=_process_settings) as pool:
        return dict(pool.map(_train_variant, keys))


def test_gradient_integrity():
    config = ModelConfig(bands=6, num_classes=3, patch_size=3, hidden_dim=4,
                         spatial_channels=3, classifier_hidden=8)
    start = time.perf_counter()
    worst = gradient_check_model(config, seed=0)
    elapsed = time.perf_counter() - start
    assert worst < 1e-5, f"worst relative error {worst:.3e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    _passed(f"gradient integrity (worst {worst:.2e}, {elapsed:.1f}s)")


def test_synthetic_classification(variant_runs):
    total_seconds = 0.0
    for seed in SEEDS:
        run = variant_runs[("full", seed)]
        assert run["oa"] >= 0.95, f"seed {seed}: OA {run['oa']:.4f}"
        assert run["kappa"] >= 0.93, f"seed {seed}: kappa {run['kappa']:.4f}"
        assert all(np.isfinite(run["losses"])), f"seed {seed}: non-finite loss"
        total_seconds += run["seconds"]
    assert total_seconds < 600.0, f"three seeds took {total_seconds:.0f}s"
    oas = [variant_runs[("full", s)]["oa"] for s in SEEDS]
    _passed(
        f"synthetic classification (OA {min(oas):.4f}..{max(oas):.4f}, "
        f"{total_seconds:.0f}s)"
    )


def test_ablation_ordering(variant_runs):
    mean_oa = {
        variant: float(np.mean([variant_runs[(variant, s)]["oa"] for s in SEEDS]))
        for variant in VARIANTS
    }
    assert mean_oa["full"] >= mean_oa["forward_spatial"], mean_oa
    assert mean_oa["full"] >= mean_oa["backward_spatial"], mean_oa
    assert mean_oa["full"] >= mean_oa["no_spatial"], mean_oa
    for variant in ("forward_spatial", "backward_spatial", "no_spatial"):
        for seed in SEEDS:
            losses = variant_runs[(variant, seed)]["losses"]
            assert losses[-1] < losses[0], (variant, seed)
    ordered = " >= ".join(f"{variant}={mean_oa[variant]:.4f}"
                          for variant in mean_oa)
    _passed(f"ablation ordering ({ordered})")


def test_metric_oracles():
    hand = np.array([[45, 5], [15, 35]])
    assert abs(overall_accuracy(hand) - 0.80) < 1e-12
    assert abs(average_accuracy(hand) - 0.80) < 1e-12
    assert abs(kappa(hand) - 0.60) < 1e-12

    rng = np.random.default_rng(0)
    outer_checked = diagonal_checked = 0
    while outer_checked < 10_000:
        k = int(rng.integers(2, 6))
        row = rng.integers(0, 40, size=k)
        col = rng.integers(0, 40, size=k)
        cm = np.outer(row, col)
        if cm.sum() == 0 or (cm > 0).sum() == 1:
            continue  # degenerate single-cell convention, not the kappa=0 family
        assert kappa(cm) == 0.0
        outer_checked += 1
    while diagonal_checked < 10_000:
        k = int(rng.integers(2, 8))
        diag = rng.integers(0, 60, size=k)
        if (diag > 0).sum() < 2:
            continue
        assert kappa(np.diag(diag)) == 1.0
        diagonal_checked += 1
    _passed("metric oracles (hand triple + 2x10^4 exact families)")


def test_overfit_capacity():
    cube, labels = synthesize_cube(10, 10, 24, 4, noise_sigma=0.05, seed=7)
    cube = scale_bands(cube)
    split = split_samples(labels, 0.2, seed=7)
    assert len(split.train) == 20
    config = ModelConfig(bands=24, num_classes=4, patch_size=5)
    params, _ = train(cube, labels, split, config,
                      TrainConfig(epochs=200, seed=7, augment=False))
    oa = overall_accuracy(evaluate(params, config, cube, labels, split.train))
    assert oa == 1.0, f"train OA {oa}"
    _passed("overfit capacity (train OA == 1.0)")


def test_cli_determinism(tmp_path):
    cube = tmp_path / "scene.cube"
    labels = tmp_path / "scene.lbl"
    assert main(["synth", "--rows", "10", "--cols", "10", "--bands", "8",
                 "--classes", "3", "--noise", "0.05", "--seed", "5",
                 "--out-cube", str(cube), "--out-labels", str(labels)]) == 0
    fast = ["--set", "hidden_dim=8", "--set", "spatial_channels=4",
            "--set", "classifier_hidden=16", "--set", "patch_size=3",
            "--ratio", "0.2"]
    ckpts = []
    for tag in ("a", "b"):
        model = tmp_path / f"{tag}.ckpt"
        report = tmp_path / f"{tag}.txt"
        assert main(["train", "--cube", str(cube), "--labels", str(labels),
                     "--out-model", str(model), "--out-report", str(report),
                     "--epochs", "2", "--seed", "5", *fast]) == 0
        ckpts.append(model.read_bytes())
    assert ckpts[0] == ckpts[1], "checkpoints differ between identical runs"

    maps = []
    for tag in ("a", "b"):
        image = tmp_path / f"{tag}.ppm"
        assert main(["map", "--cube", str(cube), "--model", str(tmp_path / "a.ckpt"),
                     "--out-image", str(image)]) == 0
        maps.append(image.read_bytes())
    assert maps[0] == maps[1], "maps differ between identical runs"
    _passed("determinism (byte-identical checkpoints and maps)")


def test_split_fidelity():
    # a 15-class inventory with realistic urban-scene sizes; the first class
    # (1251 px) must yield 125 training pixels at ratio 0.10
    sizes = [1251, 1254, 697, 1244, 1242, 325, 1268, 1244, 1252, 1227,
             1235, 1233, 469, 428, 660]
    flat = np.zeros(123 * 123, dtype=np.int64)
    offset = 0
    for cls, size in enumerate(sizes, start=1):
        flat[offset:offset + size] = cls
        offset += size
    from ssnl.data import LabelRaster

    raster = LabelRaster(flat.reshape(123, 123))
    spec = split_samples(raster, 0.10, seed=0)
    n_train, n_test = (np.bincount(raster.labels[part[:, 0], part[:, 1]], minlength=len(sizes) + 1)
                       for part in (spec.train, spec.test))
    for cls, size in enumerate(sizes, start=1):
        expected = max(1, int(math.floor(0.10 * size)))
        assert n_train[cls] == expected, (cls, size)
        assert n_train[cls] + n_test[cls] == size
    assert n_train[1] == 125
    _passed("split fidelity (max(1, floor(0.1*n)) per class; 1251 -> 125)")


def test_complexity_scaling():
    config = ModelConfig(bands=24, num_classes=4, patch_size=5)

    def macs(batch):
        name, value = render_complexity_report(config, batch).splitlines()[1].split()
        assert name == "MACs"
        return int(value)

    one = macs(1)
    for batch in (2, 3, 8, 77):
        assert macs(batch) == batch * one

    sizes = [1, 3, 5, 7, 9, 11]
    values = [macs_per_patch(ModelConfig(bands=24, num_classes=4, patch_size=p))
              for p in sizes]
    areas = [p * p for p in sizes]
    slope_num = values[1] - values[0]
    slope_den = areas[1] - areas[0]
    for i in range(2, len(sizes)):
        assert (values[i] - values[0]) * slope_den == slope_num * (areas[i] - areas[0])

    comp = family_comparison(1, 15, 15, 200, 3)
    assert comp.attention_flops == 200 * comp.sequence_flops
    assert comp.conv_flops == 9 * comp.sequence_flops
    _passed("complexity scaling (batch-linear, p^2-affine, ratios CH and k^2)")


def test_augmentation_laws():
    rng = np.random.default_rng(3)
    patch = rng.standard_normal((5, 5, 6)).astype(np.float32)
    variants = _variants(patch)
    assert len(variants) == 6

    data = patch
    for _ in range(4):
        data = _variants(data)[2]
    np.testing.assert_array_equal(data, patch)

    np.testing.assert_array_equal(_variants(_variants(patch)[4])[4], patch)
    np.testing.assert_array_equal(_variants(_variants(patch)[5])[5], patch)
    _passed("augmentation laws (rot90^4 == id, flips involutive, count == 6)")
