"""Supervised training: Adam, cross-entropy from logits, deterministic epochs.

Every source of randomness is an explicit seed. Epoch shuffles draw from a
generator seeded by a splitmix-style mix of (seed, epoch), so the whole
trajectory is a pure function of (data, split, configs).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import HsiCube, LabelRaster, SplitSpec, augment, scene_windows
from .errors import ConfigError, ContractError, NumericalError, ShapeError
from .metrics import ConfusionMatrix
from .model import ModelConfig, ModelParams, init_model, model_forward, predict_pixels


@dataclass
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 5e-4
    epochs: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    augment: bool = True
    early_stop: bool = False
    patience: int = 20
    min_delta: float = 1e-5
    clip_norm: float | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning_rate must be finite and non-negative, "
                              f"got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0,1), got {getattr(self, name)}")
        if not self.adam_eps > 0:
            raise ConfigError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.patience < 1:
            raise ConfigError(f"patience must be at least 1, got {self.patience}")
        if not (math.isfinite(self.min_delta) and self.min_delta >= 0):
            raise ConfigError(f"min_delta must be finite and non-negative, "
                              f"got {self.min_delta}")


class AdamState:
    """First and second moments, one entry per element of ``params.flat``."""

    def __init__(self, params: ModelParams):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.t = 0


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    confusion: ConfusionMatrix | None = None
    train_seconds: float = 0.0
    test_seconds: float = 0.0

    @property
    def epochs_run(self) -> int:
        return len(self.losses)


def serialize_report(report: TrainReport, echo_lines: list[str] | None = None) -> str:
    """Plain text table, one ``epoch loss train_oa`` row per epoch.

    Contains no wall-clock figures, so re-running with identical inputs yields
    identical text.
    """
    lines = [f"# {line}" for line in (echo_lines or [])]
    lines.append("epoch loss train_oa")
    for i, (loss, acc) in enumerate(zip(report.losses, report.train_accuracy), start=1):
        lines.append(f"{i} {loss:.10e} {acc:.6f}")
    return "\n".join(lines) + "\n"


def cross_entropy(logits: ad.Tensor, labels) -> ad.Tensor:
    """Batch mean of -log softmax(logits)[label], computed from the logits.

    ``logits`` is (batch, classes) with ``labels`` an array of 1-based class
    ids, or one (classes,) row with a single id.
    """
    k = logits.shape[-1]
    labels = np.asarray(labels)
    bad = (labels < 1) | (labels > k)
    if bad.any():
        raise ContractError(f"label {labels[bad][0]} outside 1..{k}")
    return ad.cross_entropy(logits, labels - 1)


def _mix_seed(*values: int) -> int:
    """splitmix64-style mixing of integers into one 64-bit seed."""
    mask = (1 << 64) - 1
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = (h + (v & mask)) & mask
        z = h
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        h = (z ^ (z >> 31)) & mask
    return h


def adam_step(params: ModelParams, grad: np.ndarray, state: AdamState,
              config: TrainConfig) -> tuple[ModelParams, AdamState]:
    """One Adam update of ``params.flat`` in place, from the matching flat
    gradient (``params.flat_grad()``)."""
    finite = np.isfinite(grad)
    if not finite.all():
        names, sizes = zip(*((name, t.size) for name, t in params.named_tensors()))
        name = names[np.searchsorted(np.cumsum(sizes), np.argmin(finite), side="right")]
        raise NumericalError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    bias1 = 1.0 - config.beta1 ** state.t
    bias2 = 1.0 - config.beta2 ** state.t
    state.m *= config.beta1
    state.m += (1.0 - config.beta1) * grad
    state.v *= config.beta2
    state.v += (1.0 - config.beta2) * (grad * grad)
    m_hat = state.m / bias1
    v_hat = state.v / bias2
    params.flat -= (config.learning_rate * m_hat /
                    (np.sqrt(v_hat) + config.adam_eps)).astype(params.dtype)
    return params, state


def _clip_global_norm(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """``grad`` scaled down to global L2 norm ``max_norm`` if it is longer."""
    norm = float((grad.astype(np.float64) ** 2).sum()) ** 0.5
    return grad * (max_norm / norm) if norm > max_norm else grad


def _training_samples(cube: HsiCube, labels: LabelRaster, split: SplitSpec,
                      config: ModelConfig, use_augment: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every training window (and its augmented variants, when on, each
    pixel's variants together), in one (samples, p, p, bands) array, with the
    class id of each sample."""
    rows, cols = split.train.T
    samples = scene_windows(cube, config.patch_size)[rows, cols]
    classes = labels.labels[rows, cols]
    if not use_augment:
        return samples, classes
    variants = augment(samples)
    return variants.reshape((-1,) + samples.shape[1:]), np.repeat(classes, variants.shape[1])


def _check_raster(cube: HsiCube, labels: LabelRaster) -> None:
    if (labels.rows, labels.cols) != (cube.rows, cube.cols):
        raise ShapeError(f"labels are {labels.rows}x{labels.cols} but the cube is "
                         f"{cube.rows}x{cube.cols}")


def train(cube: HsiCube, labels: LabelRaster, split: SplitSpec,
          model_config: ModelConfig, train_config: TrainConfig,
          verbose: bool = False) -> tuple[ModelParams, TrainReport]:
    """Mini-batch Adam training over the split's training pixels.

    Augmentation (when on) expands the sample list sixfold once, before the
    first epoch. Each epoch reshuffles with a (seed, epoch)-mixed generator;
    the last partial batch is kept. Returns the trained parameters and a
    report holding per-epoch mean loss, per-epoch as-trained accuracy, and
    the confusion matrix of the split's test pixels.
    """
    _check_raster(cube, labels)
    if len(split.train) == 0:
        raise ConfigError("empty training split: no class has a labeled pixel")
    params = init_model(model_config, train_config.seed)
    state = AdamState(params)
    report = TrainReport()

    start = time.perf_counter()
    samples, sample_labels = _training_samples(
        cube, labels, split, model_config, train_config.augment
    )
    n = len(samples)
    best_loss = np.inf
    stale = 0
    for epoch in range(train_config.epochs):
        rng = np.random.default_rng(_mix_seed(train_config.seed, epoch))
        order = rng.permutation(n)
        epoch_loss = 0.0
        correct = 0
        for lo in range(0, n, train_config.batch_size):
            batch = order[lo:lo + train_config.batch_size]
            params.zero_grads()
            probs, logits = model_forward(samples[batch], params, model_config)
            batch_loss = cross_entropy(logits, sample_labels[batch])
            correct += int((np.argmax(probs.data, axis=-1) + 1 == sample_labels[batch]).sum())
            batch_loss.backward()
            value = batch_loss.item()
            if not np.isfinite(value):
                raise NumericalError(f"non-finite training loss at epoch {epoch + 1}")
            epoch_loss += value * len(batch)
            # the last references to this batch's graph: drop them, so it is
            # freed before the next batch builds its own
            del probs, logits, batch_loss
            grad = params.flat_grad()
            if train_config.clip_norm is not None:
                grad = _clip_global_norm(grad, train_config.clip_norm)
            adam_step(params, grad, state, train_config)
        mean_loss = epoch_loss / n
        report.losses.append(mean_loss)
        report.train_accuracy.append(correct / n)
        if verbose:
            print(f"epoch {epoch + 1}: loss {mean_loss:.6f} "
                  f"train_oa {correct / n:.4f}")
        if train_config.early_stop:
            if mean_loss < best_loss - train_config.min_delta:
                best_loss = mean_loss
                stale = 0
            else:
                stale += 1
                if stale >= train_config.patience:
                    break
    report.train_seconds = time.perf_counter() - start

    start = time.perf_counter()
    report.confusion = evaluate(params, model_config, cube, labels, split.test)
    report.test_seconds = time.perf_counter() - start
    return params, report


def gradient_check_model(config: ModelConfig, seed: int, step: float = 1e-5) -> float:
    """End-to-end 64-bit gradient check of the cross-entropy loss against
    central finite differences over every parameter; returns the worst
    relative error.

    The default step balances truncation against cancellation noise for a
    loss-scale objective: at 1e-6 the difference quotient loses ~5e-11
    absolute to rounding, which swamps the relative error of coordinates
    whose true gradient is ~1e-6.
    """
    params = init_model(config, seed, dtype=np.float64)
    rng = np.random.default_rng(_mix_seed(seed, 1))
    patch = rng.standard_normal(
        (config.patch_size, config.patch_size, config.bands)
    )
    label = 1 + int(rng.integers(config.num_classes))

    def fn(*_leaves):
        # grad_check perturbs the leaves in place, so params sees every step
        _, logits = model_forward(patch, params, config)
        return cross_entropy(logits, label)

    return ad.grad_check(fn, [t for _, t in params.named_tensors()], step=step)


def evaluate(params: ModelParams, config: ModelConfig, cube: HsiCube,
             labels: LabelRaster, coords) -> ConfusionMatrix:
    """Predict the labeled pixels ``coords`` ((n, 2) array or (row, col) pairs)
    and accumulate counts[truth][prediction]."""
    _check_raster(cube, labels)
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    outside = ((coords < 0) | (coords >= (labels.rows, labels.cols))).any(axis=1)
    if outside.any():
        row, col = coords[outside][0]
        raise ContractError(f"coordinate ({row},{col}) outside the "
                            f"{labels.rows}x{labels.cols} raster")
    truths = labels.labels[coords[:, 0], coords[:, 1]]
    bad = (truths < 1) | (truths > config.num_classes)
    if bad.any():
        (row, col), truth = coords[bad][0], truths[bad][0]
        if truth < 1:
            raise ContractError(f"coordinate ({row},{col}) is unlabeled")
        raise ContractError(
            f"coordinate ({row},{col}) has class {truth} beyond the model's "
            f"{config.num_classes} classes"
        )
    cm = ConfusionMatrix.zeros(config.num_classes)
    cm.add(truths, predict_pixels(cube, coords, params, config))
    return cm
