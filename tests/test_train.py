import importlib
import math
import weakref

import numpy as np
import pytest

from ssnl.autodiff import Tensor
from ssnl.data import augment, extract_window, split_samples, synthesize_cube
from ssnl.errors import ConfigError, ContractError, NumericalError
from ssnl.metrics import overall_accuracy
from ssnl.model import ModelConfig, init_model
from ssnl.train import (
    AdamState,
    TrainConfig,
    adam_step,
    cross_entropy,
    evaluate,
    serialize_report,
    train,
)


def tiny_model_config(**overrides):
    base = dict(bands=8, num_classes=2, patch_size=3, hidden_dim=4,
                spatial_channels=3, classifier_hidden=8)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_task(classes=2, noise=0.0, seed=0, rows=10, cols=8, bands=8):
    cube, labels = synthesize_cube(rows, cols, bands, classes, noise, seed)
    split = split_samples(labels, 0.2, seed=seed)
    return cube, labels, split


# -- cross entropy -----------------------------------------------------------------


def test_cross_entropy_certain_prediction_is_zero():
    logits = Tensor(np.array([500.0, 0.0, 0.0]))
    assert cross_entropy(logits, 1).item() == 0.0


def test_cross_entropy_uniform_is_log_k():
    logits = Tensor(np.full(4, 1.7))
    assert cross_entropy(logits, 3).item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_cross_entropy_from_logits_oracle():
    logits = Tensor(np.array([0.0, math.log(3.0)]))
    assert cross_entropy(logits, 1).item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_cross_entropy_rejects_bad_labels():
    logits = Tensor(np.zeros(3))
    with pytest.raises(ContractError):
        cross_entropy(logits, 0)
    with pytest.raises(ContractError):
        cross_entropy(logits, 4)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.standard_normal(5), requires_grad=True)
    cross_entropy(logits, 2).backward()
    z = np.exp(logits.data - logits.data.max())
    softmax = z / z.sum()
    onehot = np.eye(5)[1]
    np.testing.assert_allclose(logits.grad, softmax - onehot, atol=1e-12)


# -- adam --------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    cfg = tiny_model_config()
    params = init_model(cfg, seed=0)
    before = params.flat.copy()
    state = AdamState(params)
    adam_step(params, np.zeros_like(params.flat), state, TrainConfig())
    assert state.t == 1
    np.testing.assert_array_equal(params.flat, before)


def test_adam_single_step_hand_evaluated():
    # scalar parameter, g=1, t=1: bias-corrected m=v=1, step = lr / (1 + eps)
    cfg = tiny_model_config()
    params = init_model(cfg, seed=1)
    state = AdamState(params)
    tc = TrainConfig(learning_rate=5e-4)
    before = params.delta_raw.data.copy()
    params.delta_raw.grad = np.ones_like(params.delta_raw.data)
    adam_step(params, params.flat_grad(), state, tc)
    moved = before - params.delta_raw.data
    expected = tc.learning_rate / (1.0 + tc.adam_eps)
    np.testing.assert_allclose(moved, np.full_like(moved, expected), rtol=1e-6)


def test_adam_deterministic_trajectories():
    cfg = tiny_model_config()

    def run():
        params = init_model(cfg, seed=2)
        state = AdamState(params)
        rng = np.random.default_rng(3)
        tc = TrainConfig(learning_rate=1e-3)
        for _ in range(5):
            grad = rng.standard_normal(params.flat.shape).astype(np.float32)
            adam_step(params, grad, state, tc)
        return params.flat.copy()

    np.testing.assert_array_equal(run(), run())


def test_adam_rejects_non_finite_gradient():
    cfg = tiny_model_config()
    params = init_model(cfg, seed=3)
    before = params.flat.copy()
    state = AdamState(params)
    params.mix_fwd.grad = np.full_like(params.mix_fwd.data, np.nan)
    with pytest.raises(NumericalError) as exc:
        adam_step(params, params.flat_grad(), state, TrainConfig())
    assert "mix_fwd" in str(exc.value)
    np.testing.assert_array_equal(params.flat, before)


# -- train loop -----------------------------------------------------------------------


def test_train_zero_lr_is_identity_on_params():
    cube, labels, split = tiny_task()
    cfg = tiny_model_config()
    tc = TrainConfig(learning_rate=0.0, epochs=2, seed=4, augment=False,
                     batch_size=8)
    params, _ = train(cube, labels, split, cfg, tc)
    reference = init_model(cfg, seed=4)
    for (name, trained), (_, init) in zip(params.named_tensors(),
                                          reference.named_tensors()):
        np.testing.assert_array_equal(trained.data, init.data, err_msg=name)


def test_train_loss_decreases_on_noise_free_task():
    cube, labels, split = tiny_task(classes=2, noise=0.0, rows=12, cols=10)
    cfg = tiny_model_config()
    tc = TrainConfig(epochs=8, seed=5, augment=False, batch_size=8,
                     learning_rate=2e-3)
    _, report = train(cube, labels, split, cfg, tc)
    assert report.losses[-1] < report.losses[0]
    assert all(np.isfinite(report.losses))


def test_train_deterministic_reports():
    cube, labels, split = tiny_task()
    cfg = tiny_model_config()
    tc = TrainConfig(epochs=3, seed=6, augment=True, batch_size=8)

    _, r1 = train(cube, labels, split, cfg, tc)
    _, r2 = train(cube, labels, split, cfg, tc)
    assert r1.losses == r2.losses
    assert r1.train_accuracy == r2.train_accuracy
    np.testing.assert_array_equal(r1.confusion.counts, r2.confusion.counts)


def test_train_rejects_empty_split():
    cube, labels, split = tiny_task()
    split.train = split.train[:0]
    split.test = split.test[:0]
    with pytest.raises(ConfigError):
        train(cube, labels, split, tiny_model_config(), TrainConfig(epochs=1))


def test_train_report_has_one_row_per_epoch():
    cube, labels, split = tiny_task()
    tc = TrainConfig(epochs=4, seed=7, augment=False, batch_size=8)
    _, report = train(cube, labels, split, tiny_model_config(), tc)
    assert report.epochs_run == 4
    assert len(report.train_accuracy) == 4
    assert report.confusion.total == len(split.test)


def test_train_early_stop_can_shorten_run():
    cube, labels, split = tiny_task()
    tc = TrainConfig(epochs=50, seed=8, augment=False, batch_size=8,
                     learning_rate=1e-30, early_stop=True, patience=3)
    _, report = train(cube, labels, split, tiny_model_config(), tc)
    assert report.epochs_run <= 5


def test_train_frees_each_batch_graph_before_the_next(monkeypatch):
    # a batch's graph holds its activations and conv buffers; kept through the
    # next forward pass, it doubled the graph memory at training's peak
    train_module = importlib.import_module("ssnl.train")  # ssnl.train is the function
    forward, logits_seen = train_module.model_forward, []

    def recording_forward(*args):
        assert all(ref() is None for ref in logits_seen)
        probs, logits = forward(*args)
        logits_seen.append(weakref.ref(logits.data))
        return probs, logits

    monkeypatch.setattr(train_module, "model_forward", recording_forward)
    cube, labels, split = tiny_task()
    tc = TrainConfig(epochs=2, seed=9, augment=False, batch_size=4)
    train(cube, labels, split, tiny_model_config(), tc)
    assert len(logits_seen) > 2


def test_train_augmentation_expands_samples_sixfold():
    cube, labels, split = tiny_task()
    cfg = tiny_model_config()
    from ssnl.train import _training_samples

    plain, plain_labels = _training_samples(cube, labels, split, cfg, False)
    augmented, aug_labels = _training_samples(cube, labels, split, cfg, True)
    assert len(augmented) == 6 * len(plain)
    np.testing.assert_array_equal(aug_labels, np.repeat(plain_labels, 6))
    # pixel-major, variant-minor: pixel i's variants are samples 6i..6i+5
    for i, window in enumerate(plain):
        np.testing.assert_array_equal(augmented[6 * i:6 * i + 6], augment(window))
        row, col = split.train[i]
        np.testing.assert_array_equal(window, extract_window(cube, row, col, 3))
        assert plain_labels[i] == labels.labels[row, col]


def test_gradient_clipping_bounds_global_norm():
    from ssnl.train import _clip_global_norm

    grad = np.concatenate([np.full(4, 10.0), np.full(9, -10.0)])
    clipped = _clip_global_norm(grad, 5.0)
    assert math.sqrt((clipped ** 2).sum()) == pytest.approx(5.0, rel=1e-9)
    np.testing.assert_allclose(clipped / grad, np.full(13, 5.0 / math.sqrt(1300.0)))
    short = np.full(3, 0.1)
    assert _clip_global_norm(short, 5.0) is short


def test_serialize_report_round_structure():
    from ssnl.train import TrainReport

    report = TrainReport(losses=[0.5, 0.25], train_accuracy=[0.5, 1.0])
    text = serialize_report(report, echo_lines=["seed=1"])
    lines = text.splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1] == "epoch loss train_oa"
    assert lines[2].startswith("1 ") and lines[3].startswith("2 ")
    # identical inputs serialize identically
    assert text == serialize_report(report, echo_lines=["seed=1"])


# -- evaluate ---------------------------------------------------------------------------


def test_evaluate_constant_predictor_fills_one_column():
    cube, labels, split = tiny_task()
    cfg = tiny_model_config()
    params = init_model(cfg, seed=9, dtype=np.float64)
    params.classifier_w2.data = np.zeros_like(params.classifier_w2.data)
    params.classifier_b2.data = np.array([10.0, 0.0])
    cm = evaluate(params, cfg, cube, labels, split.test)
    assert cm.counts[:, 0].sum() == cm.total
    assert cm.counts[:, 1].sum() == 0
    assert cm.total == len(split.test)
    # a list of (row, col) pairs scores the same
    pairs = [(int(r), int(c)) for r, c in split.test]
    np.testing.assert_array_equal(evaluate(params, cfg, cube, labels, pairs).counts, cm.counts)


def test_evaluate_rejects_unlabeled_coordinate():
    cube, labels, split = tiny_task()
    labels.labels[0, 0] = 0
    cfg = tiny_model_config()
    params = init_model(cfg, seed=10)
    with pytest.raises(ContractError):
        evaluate(params, cfg, cube, labels, [(0, 0)])


def test_evaluate_rejects_coordinate_outside_raster():
    # a negative index would wrap to the far edge of the scene
    cube, labels, _ = tiny_task()
    cfg = tiny_model_config()
    params = init_model(cfg, seed=10)
    with pytest.raises(ContractError):
        evaluate(params, cfg, cube, labels, [(-1, 0)])

def test_overfit_small_training_set():
    # capacity check: a handful of patches, no augmentation, many epochs
    cube, labels, _ = tiny_task(rows=8, cols=6)
    split = split_samples(labels, 0.2, seed=11)
    cfg = tiny_model_config()
    tc = TrainConfig(epochs=60, seed=11, augment=False, batch_size=8,
                     learning_rate=5e-3)
    params, _ = train(cube, labels, split, cfg, tc)
    cm = evaluate(params, cfg, cube, labels, split.train)
    assert overall_accuracy(cm) == 1.0
