import itertools
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssnl import autodiff as ad
from ssnl import model as model_module
from ssnl.autodiff import Tensor
from ssnl.data import HsiCube, LabelRaster, _pad_scene, extract_window, standardize
from ssnl.errors import ConfigError, MagicError, ShapeError, SsnlError
from ssnl.model import (
    ModelConfig,
    _config_line,
    _parse_config_line,
    ModelParams,
    expected_shapes,
    init_model,
    load_model,
    model_forward,
    predict_pixels,
    save_model,
)
from ssnl.train import (AdamState, TrainConfig, adam_step, cross_entropy, evaluate,
                        gradient_check_model)


def small_config(**overrides):
    base = dict(bands=6, num_classes=3, patch_size=3, hidden_dim=4,
                spatial_channels=3, classifier_hidden=8)
    base.update(overrides)
    return ModelConfig(**base)


def _spectral(x_norm, params, config):
    # the spectral branch as model_forward runs it: both projections of the
    # (..., length, bands) pixels, then the window stage, to (..., hidden)
    return model_module._spectral_window(
        [(ad.matmul(x_norm, proj), kernel, modulation)
         for proj, kernel, modulation in model_module._directions(params, config)], config)


def _spatial(grid, params, config):
    # the spatial branch as model_forward runs it: the conv over a normalized
    # (..., p, p, bands) grid, then the window stage, to (..., channels)
    return model_module._spatial_pool(ad.conv2d(grid, params.spatial_kernels), params, config)


def random_patch(config, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (config.patch_size, config.patch_size, config.bands)
    )


# -- config validation -------------------------------------------------------------


def test_config_rejects_even_kernels():
    with pytest.raises(ConfigError):
        small_config(seq_kernel=2)
    with pytest.raises(ConfigError):
        small_config(spatial_kernel=4)


@pytest.mark.parametrize("name", ["bands", "hidden_dim", "seq_kernel",
                                  "spatial_channels", "spatial_kernel",
                                  "classifier_hidden"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_sizes_below_one(name, value):
    with pytest.raises(ConfigError, match=name):
        small_config(**{name: value})


def test_config_rejects_all_branches_off():
    with pytest.raises(ConfigError):
        small_config(forward_on=False, backward_on=False, spatial_on=False)


def test_config_feature_dim_follows_flags():
    assert small_config().feature_dim == 3 + 4
    assert small_config(spatial_on=False).feature_dim == 4
    assert small_config(forward_on=False, backward_on=False).feature_dim == 3


# -- init ---------------------------------------------------------------------------


def test_init_deterministic():
    cfg = small_config()
    a = init_model(cfg, seed=5)
    b = init_model(cfg, seed=5)
    for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        np.testing.assert_array_equal(ta.data, tb.data)


def test_init_norm_gain_is_ones_and_offsets_zero():
    params = init_model(small_config(), seed=0)
    np.testing.assert_array_equal(params.norm_gain.data, np.ones(6, dtype=np.float32))
    np.testing.assert_array_equal(params.norm_bias.data, np.zeros(6, dtype=np.float32))
    np.testing.assert_array_equal(params.delta_raw.data, np.zeros(4, dtype=np.float32))
    np.testing.assert_array_equal(params.classifier_b2.data, np.zeros(3, dtype=np.float32))


def test_init_projection_within_fan_in_bound():
    cfg = small_config()
    params = init_model(cfg, seed=1)
    bound = 1.0 / math.sqrt(cfg.bands)
    assert (np.abs(params.proj_fwd.data) <= bound).all()
    assert (np.abs(params.proj_bwd.data) <= bound).all()


def test_init_shapes_match_contract():
    cfg = small_config()
    params = init_model(cfg, seed=2)
    for name, tensor in params.named_tensors():
        assert tensor.shape == expected_shapes(cfg)[name], name


# -- normalize / project / reverse -----------------------------------------------------


def _first_op(patch, params):
    # the model's layer norm at init: standardized pixels, gain ones, bias zeros
    return Tensor(standardize(patch) * params.norm_gain.data + params.norm_bias.data)


def test_normalize_constant_spectrum_pixel_is_zero():
    cfg = small_config()
    params = init_model(cfg, seed=0, dtype=np.float64)
    out = _first_op(np.ones((3, 3, 6)), params)
    np.testing.assert_array_equal(out.data, np.zeros((3, 3, 6)))


def test_normalize_output_shape():
    # standardize keeps the shape and the dtype: a float32 scene stays float32
    patch = random_patch(small_config(patch_size=5))
    for dtype in (np.float32, np.float64):
        out = standardize(patch.astype(dtype))
        assert out.shape == (5, 5, 6) and out.dtype == dtype


def test_normalize_reads_a_batch_of_the_model_dtype_without_copying(monkeypatch):
    cfg = small_config()
    params = init_model(cfg, seed=0)
    batch = np.random.default_rng(3).standard_normal((4, 3, 3, 6)).astype(params.dtype)
    seen = []
    monkeypatch.setattr(model_module, "standardize",
                        lambda x: seen.append(x) or standardize(x))
    model_forward(batch, params, cfg)
    assert np.shares_memory(seen[0], batch)


def test_normalize_two_band_formula():
    cfg = ModelConfig(bands=2, num_classes=2, patch_size=1, hidden_dim=2,
                      spatial_channels=2, classifier_hidden=2, spatial_kernel=1)
    params = init_model(cfg, seed=0, dtype=np.float64)
    out = _first_op(np.array([[[0.0, 2.0]]]), params)
    np.testing.assert_array_equal(out.data, np.array([[[-1.0, 1.0]]]) / math.sqrt(1 + 1e-5))


def _quiet_modulation(params):
    # zero mix matrices and a hugely negative delta_raw (softplus -> exactly 0)
    # reduce each direction to tanh(f(conv(projected sequence)))
    hidden = params.mix_fwd.shape[0]
    params.mix_fwd.data = np.zeros((hidden, hidden))
    params.mix_bwd.data = np.zeros((hidden, hidden))
    params.delta_raw.data = np.full(hidden, -1e9)


def test_project_identity_weights():
    # an identity projection hands the normalized sequence to the direction unchanged
    cfg = small_config(hidden_dim=6, backward_on=False)
    params = init_model(cfg, seed=0, dtype=np.float64)
    _quiet_modulation(params)
    params.proj_fwd.data = np.eye(6)
    x_norm = np.random.default_rng(0).standard_normal((9, 6))
    out = _spectral(Tensor(x_norm), params, cfg)
    expected = _naive_direction(x_norm, params.kernel_fwd.data).mean(axis=1)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_project_zero_input():
    # zero input projects to zero whatever the weights, so each direction is
    # tanh of its modulation alone
    cfg = small_config()
    params = init_model(cfg, seed=0, dtype=np.float64)
    params.delta_raw.data = np.linspace(-1.0, 1.0, 4)
    out = _spectral(Tensor(np.zeros((9, 6))), params, cfg)
    delta = np.log1p(np.exp(params.delta_raw.data))
    expected = (np.tanh(params.mix_fwd.data @ delta)
                + np.tanh(params.mix_bwd.data @ delta))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_project_single_pixel_matmul_oracle():
    cfg = ModelConfig(bands=2, num_classes=2, patch_size=1, hidden_dim=2,
                      seq_kernel=1, spatial_channels=1, classifier_hidden=2,
                      spatial_kernel=1, backward_on=False)
    params = init_model(cfg, seed=0, dtype=np.float64)
    _quiet_modulation(params)
    params.proj_fwd.data = np.array([[2.0, 0.0], [0.0, 3.0]])
    params.kernel_fwd.data = np.ones((2, 1))
    out = _spectral(Tensor(np.array([[1.0, 0.0]])), params, cfg)
    silu_2 = 2.0 / (1.0 + math.exp(-2.0))
    np.testing.assert_allclose(out.data, [math.tanh(silu_2), 0.0], atol=1e-12)


def _one_direction_params(seed):
    # backward weights copied from the forward ones, so the two directions
    # differ only in the order they read the sequence
    params = init_model(small_config(), seed=seed, dtype=np.float64)
    params.proj_bwd.data = params.proj_fwd.data.copy()
    params.kernel_bwd.data = params.kernel_fwd.data.copy()
    params.mix_bwd.data = params.mix_fwd.data.copy()
    return params


def test_reverse_spectral_involution_and_order():
    # the backward direction reads the projected sequence last pixel first
    params = _one_direction_params(seed=2)
    fwd_cfg = small_config(backward_on=False)
    bwd_cfg = small_config(forward_on=False)
    x_norm = np.random.default_rng(1).standard_normal((9, 6))
    for seq, rev in ((x_norm, x_norm[::-1].copy()), (x_norm[::-1].copy(), x_norm)):
        np.testing.assert_allclose(
            _spectral(Tensor(seq), params, bwd_cfg).data,
            _spectral(Tensor(rev), params, fwd_cfg).data, atol=1e-12)


# -- bidirectional block -----------------------------------------------------------------


def _delta_kernels(params):
    k = params.kernel_fwd.shape[1]
    delta = np.zeros((params.kernel_fwd.shape[0], k), dtype=params.kernel_fwd.data.dtype)
    delta[:, k // 2] = 1.0
    params.kernel_fwd.data = delta.copy()
    params.kernel_bwd.data = delta.copy()


def _naive_direction(seq_rows, kernel):
    # (length, hidden) rows -> depthwise conv along the sequence, silu, tanh
    hidden, k = kernel.shape
    length = seq_rows.shape[0]
    seq = seq_rows.T
    conv = np.zeros((hidden, length))
    pad = (k - 1) // 2
    for i in range(length):
        for j in range(k):
            src = i + j - pad
            if 0 <= src < length:
                conv[:, i] += kernel[:, j] * seq[:, src]
    act = conv * (1.0 / (1.0 + np.exp(-conv)))
    return np.tanh(act)


def test_bi_network_modulation_vanishes():
    # without modulation the block is mean(tanh(f(conv(x)))) per direction
    cfg = small_config()
    params = init_model(cfg, seed=3, dtype=np.float64)
    _quiet_modulation(params)
    x_norm = Tensor(np.random.default_rng(1).standard_normal((9, 6)))
    combined = _spectral(x_norm, params, cfg)

    fwd = _naive_direction(x_norm.data @ params.proj_fwd.data, params.kernel_fwd.data)
    bwd = _naive_direction(
        (x_norm.data @ params.proj_bwd.data)[::-1], params.kernel_bwd.data
    )
    expected = fwd.mean(axis=1) + bwd.mean(axis=1)
    np.testing.assert_allclose(combined.data, expected, atol=1e-12)


def test_bi_network_zero_everything_gives_zero():
    cfg = small_config()
    params = init_model(cfg, seed=0, dtype=np.float64)
    params.kernel_fwd.data = np.zeros_like(params.kernel_fwd.data)
    params.kernel_bwd.data = np.zeros_like(params.kernel_bwd.data)
    params.mix_fwd.data = np.zeros_like(params.mix_fwd.data)
    params.mix_bwd.data = np.zeros_like(params.mix_bwd.data)
    params.delta_raw.data = np.full(4, -1e9)
    combined = _spectral(Tensor(np.zeros((9, 6))), params, cfg)
    np.testing.assert_array_equal(combined.data, np.zeros(4))


def test_bi_network_scalar_chain_hand_derived():
    # L=1, hidden=1, k=1: both directions compute tanh(silu(w*u) + a*d),
    # so the combined output is exactly twice that value
    cfg = ModelConfig(bands=1, num_classes=2, patch_size=1, hidden_dim=1,
                      seq_kernel=1, spatial_channels=1, spatial_kernel=1,
                      classifier_hidden=2)
    params = init_model(cfg, seed=0, dtype=np.float64)
    w, a, raw, u = 0.8, -1.3, 0.4, 1.7
    params.proj_fwd.data = np.array([[1.0]])
    params.proj_bwd.data = np.array([[1.0]])
    params.kernel_fwd.data = np.array([[w]])
    params.kernel_bwd.data = np.array([[w]])
    params.mix_fwd.data = np.array([[a]])
    params.mix_bwd.data = np.array([[a]])
    params.delta_raw.data = np.array([raw])
    combined = _spectral(Tensor(np.array([[u]])), params, cfg)
    d = math.log1p(math.exp(raw))
    f = (w * u) / (1.0 + math.exp(-(w * u)))
    expected = 2.0 * math.tanh(f + a * d)
    assert combined.data[0] == pytest.approx(expected, rel=1e-12)


def test_bi_network_disabled_direction_contributes_zero():
    cfg = small_config(backward_on=False)
    params = init_model(cfg, seed=4, dtype=np.float64)
    x_norm = Tensor(np.random.default_rng(2).standard_normal((9, 6)))
    combined = _spectral(x_norm, params, cfg)
    both = small_config()
    params_fwd_only = init_model(both, seed=4, dtype=np.float64)
    trace_probe = _spectral(x_norm, params_fwd_only, both)
    assert not np.array_equal(combined.data, trace_probe.data)
    # forward-only equals the full block minus the backward mean
    cfg_bwd = small_config(forward_on=False)
    bwd_only = _spectral(x_norm, init_model(cfg_bwd, seed=4, dtype=np.float64), cfg_bwd)
    np.testing.assert_allclose(combined.data + bwd_only.data, trace_probe.data, atol=1e-12)


def test_bi_network_reversal_invariance_with_delta_kernels():
    # spatial off + identity (delta) kernels: reversing the pixel sequence
    # swaps what the two paths see, and the order-invariant mean keeps
    # h_combined bitwise unchanged
    cfg = small_config(spatial_on=False)
    params = init_model(cfg, seed=5, dtype=np.float64)
    _delta_kernels(params)
    rng = np.random.default_rng(3)
    x_norm = rng.standard_normal((9, 6))
    a = _spectral(Tensor(x_norm), params, cfg)
    b = _spectral(Tensor(x_norm[::-1].copy()), params, cfg)
    np.testing.assert_array_equal(a.data, b.data)


def test_bi_network_palindrome_symmetry():
    # shared projections/kernels/mixes: on a palindromic sequence the two
    # direction means coincide bitwise
    params = _one_direction_params(seed=6)
    rng = np.random.default_rng(4)
    half = rng.standard_normal((4, 6))
    middle = rng.standard_normal((1, 6))
    x_norm = Tensor(np.vstack([half, middle, half[::-1]]))
    fwd_mean = _spectral(x_norm, params, small_config(backward_on=False))
    bwd_mean = _spectral(x_norm, params, small_config(forward_on=False))
    np.testing.assert_array_equal(fwd_mean.data, bwd_mean.data)


# -- spatial branch -------------------------------------------------------------------


def test_spatial_zero_patch_zero_bias_gives_zero():
    cfg = small_config()
    params = init_model(cfg, seed=0, dtype=np.float64)
    out = _spatial(Tensor(np.zeros((3, 3, 6))), params, cfg)
    np.testing.assert_array_equal(out.data, np.zeros(3))


def test_spatial_degenerate_one_by_one_patch():
    # pooling is a no-op for a 1x1 patch with 1x1 kernels: the branch is
    # silu(W @ spectrum + bias)
    cfg = ModelConfig(bands=4, num_classes=2, patch_size=1, hidden_dim=2,
                      spatial_channels=3, spatial_kernel=1, classifier_hidden=2)
    params = init_model(cfg, seed=7, dtype=np.float64)
    rng = np.random.default_rng(5)
    spectrum = rng.standard_normal(4)
    out = _spatial(Tensor(spectrum.reshape(1, 1, 4)), params, cfg)
    w = params.spatial_kernels.data.reshape(3, 4)
    pre = w @ spectrum + params.spatial_bias.data
    expected = pre / (1.0 + np.exp(-pre))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_spatial_constant_patch_conv_oracle():
    cfg = ModelConfig(bands=1, num_classes=2, patch_size=3, hidden_dim=2,
                      spatial_channels=1, spatial_kernel=3, classifier_hidden=2)
    params = init_model(cfg, seed=8, dtype=np.float64)
    params.spatial_kernels.data = np.ones((1, 1, 3, 3))
    params.spatial_bias.data = np.zeros(1)
    patch = np.full((3, 3, 1), 2.0)
    out = _spatial(Tensor(patch), params, cfg)
    # zero same-padding: corner sums 4 cells, edge 6, center 9
    conv = 2.0 * np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=float)
    act = conv / (1.0 + np.exp(-conv))
    assert out.data[0] == pytest.approx(act.mean(), rel=1e-12)


# -- full forward -----------------------------------------------------------------------


def test_forward_probabilities_sum_to_one():
    cfg = small_config()
    params = init_model(cfg, seed=9)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        probs, _ = model_forward(rng.standard_normal((3, 3, 6)), params, cfg)
        assert (probs.data > 0).all()
        assert abs(float(probs.data.sum()) - 1.0) < 1e-6


def test_forward_deterministic_bitwise():
    cfg = small_config()
    params = init_model(cfg, seed=10)
    patch = random_patch(cfg, seed=7)
    p1, _ = model_forward(patch, params, cfg)
    p2, _ = model_forward(patch, params, cfg)
    np.testing.assert_array_equal(p1.data, p2.data)


def test_forward_symmetric_logits_give_uniform():
    cfg = small_config(num_classes=2)
    params = init_model(cfg, seed=11, dtype=np.float64)
    params.classifier_w2.data = np.zeros_like(params.classifier_w2.data)
    params.classifier_b2.data = np.full(2, 3.3)
    probs, _ = model_forward(random_patch(cfg, seed=8), params, cfg)
    np.testing.assert_allclose(probs.data, [0.5, 0.5], atol=1e-12)


def test_forward_patch_mismatch_rejected():
    cfg = small_config()
    params = init_model(cfg, seed=0)
    with pytest.raises(ShapeError):
        model_forward(np.zeros((5, 5, 6)), params, cfg)
    with pytest.raises(ShapeError):
        model_forward(np.zeros((3, 3, 7)), params, cfg)


def test_forward_trace_shapes():
    cfg = small_config()
    params = init_model(cfg, seed=12)
    patch = random_patch(cfg, seed=9)
    probs, logits = model_forward(patch, params, cfg)
    assert probs.shape == logits.shape == (3,)
    assert abs(float(probs.data.sum()) - 1.0) < 1e-6
    np.testing.assert_array_equal(probs.data, ad.softmax(logits.data))
    x_norm = ad.reshape(_first_op(patch, params), (9, 6))
    assert _spectral(x_norm, params, cfg).shape == (4,)
    grid = Tensor(x_norm.data.reshape(3, 3, 6))
    assert _spatial(grid, params, cfg).shape == (3,)


def test_forward_ablation_shrinks_feature_vector():
    patch_seed = 13
    cfg_ns = small_config(spatial_on=False)
    params = init_model(cfg_ns, seed=1)
    assert params.classifier_w1.shape == (8, 4)
    probs, _ = model_forward(random_patch(cfg_ns, seed=patch_seed), params, cfg_ns)
    assert probs.shape == (3,)
    cfg_so = small_config(forward_on=False, backward_on=False)
    params = init_model(cfg_so, seed=1)
    assert params.classifier_w1.shape == (8, 3)
    probs, _ = model_forward(random_patch(cfg_so, seed=patch_seed), params, cfg_so)
    assert probs.shape == (3,)


@pytest.mark.parametrize("flags", [{}, {"spatial_on": False}, {"forward_on": False},
                                   {"backward_on": False}])
def test_batched_forward_and_gradients_match_per_patch(flags):
    # one (batch, p, p, bands) graph equals the per-patch graphs stacked:
    # the same logits, and the parameter gradients of the mean loss
    cfg = small_config(**flags)
    params = init_model(cfg, seed=21, dtype=np.float64)
    rng = np.random.default_rng(22)
    patches = rng.standard_normal((5, 3, 3, 6))
    labels = np.array([1, 3, 2, 2, 1])

    params.zero_grads()
    _, logits = model_forward(patches, params, cfg)
    cross_entropy(logits, labels).backward()
    batched = {name: t.grad_array().copy() for name, t in params.named_tensors()}

    singles = []
    summed = {name: np.zeros_like(t.data) for name, t in params.named_tensors()}
    for patch, label in zip(patches, labels):
        params.zero_grads()
        _, one = model_forward(patch, params, cfg)
        cross_entropy(one, int(label)).backward()
        singles.append(one.data)
        for name, t in params.named_tensors():
            summed[name] += t.grad_array() / len(patches)

    np.testing.assert_allclose(logits.data, np.stack(singles), rtol=1e-12, atol=0)
    for name in batched:
        scale = max(np.abs(summed[name]).max(), 1e-300)
        assert np.abs(batched[name] - summed[name]).max() <= 1e-12 * scale, name


# -- predict -------------------------------------------------------------------------


def _forced_logit_params(cfg, logits):
    params = init_model(cfg, seed=0, dtype=np.float64)
    params.classifier_w2.data = np.zeros_like(params.classifier_w2.data)
    params.classifier_b2.data = np.asarray(logits, dtype=np.float64)
    return params


def _scene(cfg, seed):
    # a 4 x 5 scene and every pixel of it
    cube = HsiCube(np.random.default_rng(seed).standard_normal((4, 5, cfg.bands)))
    return cube, np.argwhere(np.ones((4, 5), dtype=bool))


def test_predict_forced_logits():
    cfg = small_config(num_classes=2)
    params = _forced_logit_params(cfg, [0.0, 10.0])
    cube, pixels = _scene(cfg, seed=1)
    np.testing.assert_array_equal(predict_pixels(cube, pixels, params, cfg), 2)


def test_predict_tie_breaks_low():
    cfg = small_config()
    params = _forced_logit_params(cfg, [1.5, 1.5, 1.5])
    cube, pixels = _scene(cfg, seed=2)
    np.testing.assert_array_equal(predict_pixels(cube, pixels, params, cfg), 1)


def test_predict_shift_invariant():
    cfg = small_config()
    params = _forced_logit_params(cfg, [0.2, 1.9, -0.7])
    cube, pixels = _scene(cfg, seed=3)
    first = predict_pixels(cube, pixels, params, cfg)
    params.classifier_b2.data = params.classifier_b2.data + 100.0
    np.testing.assert_array_equal(predict_pixels(cube, pixels, params, cfg), first)
    np.testing.assert_array_equal(first, 2)


def test_inference_records_no_graph_node(monkeypatch):
    # predict_pixels runs every op on params.frozen(): neither a whole-scene
    # call nor evaluate makes a node that requires a gradient
    made, make = [], ad._make

    def recording_make(*args):
        out = make(*args)
        made.append(out.requires_grad)
        return out

    monkeypatch.setattr(ad, "_make", recording_make)
    cfg = small_config()
    params = init_model(cfg, seed=4)
    cube, pixels = _scene(cfg, seed=5)
    predict_pixels(cube, pixels, params, cfg)
    labels = LabelRaster(np.arange(20).reshape(4, 5) % cfg.num_classes + 1)
    evaluate(params, cfg, cube, labels, pixels)
    assert made and not any(made)
    assert all(t.grad is None for _, t in params.named_tensors())


def test_frozen_params_are_the_current_arrays_without_gradients():
    cfg = small_config()
    params = init_model(cfg, seed=6)
    # a rebound .data is detached from flat; the view follows the tensor
    params.classifier_b2.data = np.arange(3, dtype=params.dtype)
    view = params.frozen()
    assert view.dtype == params.dtype
    assert [name for name, _ in view.named_tensors()] == list(expected_shapes(cfg))
    for (name, t), (_, v) in zip(params.named_tensors(), view.named_tensors()):
        assert v.data is t.data and np.shares_memory(v.data, t.data), name
        assert getattr(view, name) is v and t.requires_grad and not v.requires_grad, name
    params.proj_fwd.data[0, 0] = 7.0  # an in-place write shows through the view
    assert view.proj_fwd.data[0, 0] == 7.0


# -- scene inference ---------------------------------------------------------------------


def _recorded_probabilities(monkeypatch):
    """Every batch of class probabilities predict_pixels classifies, in order."""
    seen, class_ids = [], model_module._class_ids

    def recording(probs):
        seen.append(probs.data.copy())
        return class_ids(probs)

    monkeypatch.setattr(model_module, "_class_ids", recording)
    return seen


_FLAG_SETS = [dict(zip(("forward_on", "backward_on", "spatial_on"), bits))
              for bits in itertools.product((True, False), repeat=3) if any(bits)]


@pytest.mark.parametrize("flags", _FLAG_SETS)
@pytest.mark.parametrize("rows, cols, p", [(19, 15, 3),   # one band; edge pixels
                                           (26, 15, 3),   # two bands
                                           (23, 5, 5),    # narrower than a chunk
                                           (2, 3, 5)])    # smaller than a patch
def test_predict_pixels_is_the_forward_pass_of_each_window(monkeypatch, flags, rows, cols, p):
    cfg = small_config(patch_size=p, spatial_kernel=3 if p == 3 else 5, **flags)
    params = init_model(cfg, seed=31, dtype=np.float64)
    # a gain and bias away from the identity: model_forward folds them into the
    # weights, predict_pixels scales the pixels by them
    rng = np.random.default_rng(33)
    params.norm_gain.data[...] = rng.uniform(0.5, 1.5, cfg.bands)
    params.norm_bias.data[...] = rng.uniform(-0.5, 0.5, cfg.bands)
    cube = HsiCube(np.random.default_rng(32).standard_normal((rows, cols, cfg.bands)))
    seen = _recorded_probabilities(monkeypatch)
    pixels = np.argwhere(np.ones((rows, cols), dtype=bool))
    ids = predict_pixels(cube, pixels, params, cfg)

    windows = np.stack([extract_window(cube, r, c, p) for r, c in pixels])
    probs, _ = model_forward(windows, params, cfg)
    np.testing.assert_allclose(np.concatenate(seen), probs.data, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(ids, np.argmax(probs.data, axis=1) + 1)


def test_predict_pixels_classes_do_not_depend_on_the_request(monkeypatch):
    # 30 x 31 pixels: three bands. A subset's batches, and so its classes, are
    # bitwise those of the whole-scene call, also when whole bands go unrequested
    cfg = small_config(patch_size=5, num_classes=4)
    params = init_model(cfg, seed=41)
    cube = HsiCube(np.random.default_rng(42).standard_normal((30, 31, cfg.bands)))
    pixels = np.argwhere(np.ones((30, 31), dtype=bool))
    # centre the logits, so that the classes vary over the scene
    _, logits = model_forward(np.stack([extract_window(cube, r, c, 5) for r, c in pixels]),
                              params, cfg)
    params.classifier_b2.data[...] = -logits.data.mean(axis=0)
    seen = _recorded_probabilities(monkeypatch)
    full = predict_pixels(cube, pixels, params, cfg)
    full_batches = list(seen)
    assert len(np.unique(full)) > 1
    rng = np.random.default_rng(43)
    band = model_module.BAND_CHUNKS * model_module.INFERENCE_CHUNK
    for subset in (rng.choice(len(pixels), 40, replace=False),   # scattered
                   np.arange(band + 3, band + 40),              # inside the second band only
                   np.array([len(pixels) - 1, 0])):             # the corners, out of order
        seen.clear()
        np.testing.assert_array_equal(predict_pixels(cube, pixels[subset], params, cfg),
                                      full[subset])
        chunks = np.flatnonzero(np.bincount(subset // model_module.INFERENCE_CHUNK))
        assert len(seen) == len(chunks)
        for chunk, probs in zip(chunks, seen):
            assert probs.tobytes() == full_batches[chunk].tobytes()


def test_predict_pixels_normalizes_each_padded_pixel_about_once(monkeypatch):
    # the pixel stage runs over bands of the padded scene, each with its p - 1
    # halo rows: not over every cell of every window (rows * cols * p * p)
    rows, cols, p = 30, 30, 7
    cfg = small_config(patch_size=p)
    params = init_model(cfg, seed=51)
    cube = HsiCube(np.random.default_rng(52).random((rows, cols, cfg.bands)))
    normalized = []
    _counting(monkeypatch, "standardize",
              lambda xhat: normalized.append(xhat.size // xhat.shape[-1]), model_module)
    predict_pixels(cube, np.argwhere(np.ones((rows, cols), dtype=bool)), params, cfg)
    band = model_module.BAND_CHUNKS * model_module.INFERENCE_CHUNK
    bands = -(-rows * cols // band)
    band_rows = -(-band // cols) + 1 + p - 1   # scene rows one band touches, with its halo
    overlap = bands * band_rows / (rows + p - 1)
    assert sum(normalized) <= overlap * (rows + p - 1) * (cols + p - 1) < rows * cols * p * p / 10


def test_flip_reverses_the_backward_kernel_not_the_sequence(monkeypatch):
    # the backward direction reads the sequence reversed through kernel_bwd's
    # taps reversed: a training pass and a two-band predict_pixels call flip
    # that (hidden, k) kernel once each, and no (batch, p*p, hidden) activation
    cfg = small_config(patch_size=5)
    params = init_model(cfg, seed=61)
    shapes, flip = [], ad.flip

    def recording(x, *args, **kwargs):
        shapes.append(x.shape)
        return flip(x, *args, **kwargs)

    monkeypatch.setattr(ad, "flip", recording)
    rng = np.random.default_rng(62)
    _, logits = model_forward(rng.standard_normal((4, 5, 5, cfg.bands)), params, cfg)
    cross_entropy(logits, np.array([1, 2, 3, 1])).backward()
    assert params.kernel_bwd.grad is not None
    cube = HsiCube(rng.standard_normal((9, 43, cfg.bands)))   # 387 pixels: two bands
    assert cube.rows * cube.cols > model_module.BAND_CHUNKS * model_module.INFERENCE_CHUNK
    predict_pixels(cube, np.argwhere(np.ones((9, 43), dtype=bool)), params, cfg)
    assert shapes == [(cfg.hidden_dim, cfg.seq_kernel)] * 2


def test_training_graph_holds_neither_the_batch_nor_its_normalized_pixels():
    # the layer norm's gain and bias fold into the spatial conv's and both
    # projections' weights, which read the standardized batch as data with a
    # ones channel: every node of a training step's graph needs a gradient,
    # and none holds the (8, 7, 7, 12) batch, its (8, 49, 12) normalized
    # pixels, or either with the ones channel
    cfg = small_config(bands=12, patch_size=7)
    params = init_model(cfg, seed=63)
    batch = np.random.default_rng(64).random((8, 7, 7, 12)).astype(params.dtype)
    _, logits = model_forward(batch, params, cfg)
    loss = cross_entropy(logits, np.arange(8) % cfg.num_classes + 1)
    nodes = list(ad._reverse_topo(loss))
    assert all(node.requires_grad for node in nodes)
    shapes = {node.shape for node in nodes}
    assert not shapes & {(8, 49, 12), (8, 7, 7, 12), (8, 49, 13), (8, 7, 7, 13)}
    loss.backward()
    assert all(t.grad is not None for _, t in params.named_tensors())


def _per_window_stage(cube, params, cfg):
    """Class probabilities of every run of a whole-scene call, by the window
    stage run on each gathered window: the band's ``_channel_taps`` rows and
    projections gathered per run, then ``ad._tap_sum``, ``_spatial_pool``,
    ``_spectral_window`` and ``_classify``, over the bands predict_pixels uses."""
    p, cols, chunk = cfg.patch_size, cube.cols, model_module.INFERENCE_CHUNK
    padded = _pad_scene(cube, p).astype(params.dtype)
    width, pixels = padded.shape[1], cube.rows * cols
    runs = -(-pixels // chunk)
    band = max(model_module.BAND_CHUNKS, -(-(p - 1) * cols // chunk))
    corner = np.arange(p)[:, None] * width + np.arange(p)
    params, out = params.frozen(), []
    directions = model_module._directions(params, cfg)
    for first in range(0, runs, band):
        top = first * chunk // cols
        bottom = (min((first + band) * chunk, pixels) - 1) // cols + p
        x_norm = (standardize(padded[top:bottom].reshape(-1, cfg.bands))
                  * params.norm_gain.data + params.norm_bias.data)
        projected = [(ad.matmul(x_norm, proj), kernel, modulation)
                     for proj, kernel, modulation in directions]
        taps = ad._channel_taps(x_norm, params.spatial_kernels.data)
        for c in range(first, min(first + band, runs)):
            run = np.arange(c * chunk, min((c + 1) * chunk, pixels))
            cells = ((run // cols - top) * width + run % cols)[:, None, None] + corner
            parts = []
            if cfg.spatial_on:
                parts.append(model_module._spatial_pool(Tensor(ad._tap_sum(taps[cells])),
                                                        params, cfg))
            if cfg.spectral_on:
                seq = cells.reshape(len(run), p * p)
                parts.append(model_module._spectral_window(
                    [(Tensor(z.data[seq]), kernel, modulation)
                     for z, kernel, modulation in projected], cfg))
            out.append(model_module._classify(parts, params, cfg)[0].data)
    return out


_WINDOW_GRID = list(itertools.product((1, 3, 5, 7), itertools.product((1, 3, 5), repeat=2),
                                      ("silu", "tanh"), (np.float32, np.float64)))


def test_predict_pixels_matches_the_per_window_stage_bitwise(monkeypatch):
    # the per-class tables sum the same products in the same order as the
    # convolutions of each gathered window, so not a bit may differ: every
    # patch size, kernels wider than the patch, both activations and dtypes,
    # each ablation, both ways of taking the window means. 7 x 55 pixels: two
    # bands, of 12 runs and 1. On the 13 x 3 and 9 x 1 scenes the flat plane
    # offsets of edge cells wrap to the next or previous plane row
    seen = _recorded_probabilities(monkeypatch)
    summed, _ = _mean_paths(monkeypatch)
    for i, (p, (seq_kernel, spatial_kernel), act, dtype) in enumerate(_WINDOW_GRID):
        start = len(summed)
        cfg = small_config(patch_size=p, seq_kernel=seq_kernel, spatial_kernel=spatial_kernel,
                           activation=act, hidden_dim=5, **_FLAG_SETS[i % len(_FLAG_SETS)])
        params = init_model(cfg, seed=i, dtype=dtype)
        rng = np.random.default_rng(i)
        params.flat[...] += 0.2 * rng.standard_normal(params.flat.size)   # non-zero biases and deltas
        for rows, cols in ((7, 55), (13, 3), (9, 1)):
            cube = HsiCube(rng.random((rows, cols, cfg.bands)))
            seen.clear()
            predict_pixels(cube, np.argwhere(np.ones((rows, cols), dtype=bool)), params, cfg)
            expected = _per_window_stage(cube, params, cfg)
            assert len(seen) == len(expected)
            for got, want in zip(seen, expected):
                assert got.dtype == dtype and got.tobytes() == want.tobytes(), (
                    rows, cols, p, seq_kernel, spatial_kernel, act)
        assert dtype == np.float32 or not any(summed[start:])   # float64 always gathers
    assert True in summed and False in summed


def _counting(monkeypatch, name, record, module=ad):
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        record(*args, **kwargs)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def _mean_paths(monkeypatch):
    """Per ``_class_means`` call, whether it summed its window means in float64
    (True) or gathered its windows for ``ad.mean`` (False); and every
    ``ad.mean`` call."""
    summed, means, class_means = [], [], model_module._class_means
    _counting(monkeypatch, "mean", lambda *args, **kwargs: means.append(args[0].shape))

    def recording(*args, **kwargs):
        before = len(means)
        out = class_means(*args, **kwargs)
        summed.append(len(means) == before)
        return out

    monkeypatch.setattr(model_module, "_class_means", recording)
    return summed, means


def _zero_channel_0(params):
    # channel 0 of every branch's class tables is then exactly 0, as silu(0 + 0)
    # and tanh(silu(0) + 0) are, a value no exact float64 sum may include
    params.spatial_kernels.data[0] = params.spatial_bias.data[0] = 0.0
    for proj, mix in ((params.proj_fwd, params.mix_fwd), (params.proj_bwd, params.mix_bwd)):
        proj.data[:, 0] = mix.data[0] = 0.0


@pytest.mark.parametrize("zero_channel", [False, True])
def test_predict_pixels_sums_float32_window_means_exactly(monkeypatch, zero_channel):
    # a float32 whole-scene call adds each branch's class tables into float64
    # window sums, exact on their narrow magnitude range, so it calls ad.mean
    # zero times; a channel held at exactly zero in every branch's tables
    # fails the range test, so every branch gathers its windows for ad.mean,
    # each window once, at most INFERENCE_CHUNK windows a call. Both give the
    # per-window stage's probabilities bitwise
    cfg = small_config(patch_size=5, hidden_dim=6)
    params = init_model(cfg, seed=81)
    rng = np.random.default_rng(82)
    params.flat[...] += 0.2 * rng.standard_normal(params.flat.size).astype(params.dtype)
    if zero_channel:
        _zero_channel_0(params)
    cube = HsiCube(rng.random((9, 43, cfg.bands)))   # 387 pixels: two bands
    seen = _recorded_probabilities(monkeypatch)
    summed, means = _mean_paths(monkeypatch)
    predict_pixels(cube, np.argwhere(np.ones((9, 43), dtype=bool)), params, cfg)
    assert summed == [not zero_channel] * 6   # three branches, two bands
    assert bool(means) == zero_channel
    assert all(shape[0] <= model_module.INFERENCE_CHUNK for shape in means)
    assert sum(shape[0] for shape in means) == (3 * 9 * 43 if zero_channel else 0)
    expected = _per_window_stage(cube, params, cfg)
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def test_predict_pixels_runs_each_window_chain_once_per_band_pixel_and_class(monkeypatch):
    # the per-cell state nodes see each band pixel once per boundary class and
    # channel (9 spatial classes for k = 3, 5 sequence classes for k = 3, an
    # activation and a tanh per direction, so a direction's node counts each
    # element twice), and the classifier's activation its hidden layer once per
    # window: not every cell of every window (rows * cols * p * p)
    rows, cols, p = 30, 30, 7
    cfg = small_config(patch_size=p)
    params = init_model(cfg, seed=53)
    cube = HsiCube(np.random.default_rng(54).random((rows, cols, cfg.bands)))
    band_pixels, elements = [], []
    _counting(monkeypatch, "standardize",
              lambda xhat: band_pixels.append(xhat.size // xhat.shape[-1]), model_module)
    _counting(monkeypatch, "activation", lambda kind, x, b, tanh_after=False:
              elements.append(x.size * (2 if tanh_after else 1)))
    predict_pixels(cube, np.argwhere(np.ones((rows, cols), dtype=bool)), params, cfg)
    width = 9 * cfg.spatial_channels + 2 * 5 * 2 * cfg.hidden_dim
    windows = rows * cols
    assert sum(elements) <= sum(band_pixels) * width + windows * cfg.classifier_hidden
    assert sum(band_pixels) * width < windows * p * p * (cfg.spatial_channels + 4 * cfg.hidden_dim)


def test_predict_pixels_bands_cover_the_halo_rows(monkeypatch):
    # a band holds at least p - 1 scene rows, so the p - 1 halo rows below it
    # at most about double the pixel stage's work, on a scene wider than the
    # 12 runs of 32 pixels a narrow scene's band holds (3.5 times at 12 runs)
    rows, cols, p = 145, 145, 7
    cfg = small_config(patch_size=p, hidden_dim=2, spatial_channels=2, classifier_hidden=2)
    params = init_model(cfg, seed=55)
    cube = HsiCube(np.random.default_rng(56).random((rows, cols, cfg.bands)))
    band_pixels = []
    _counting(monkeypatch, "standardize",
              lambda xhat: band_pixels.append(xhat.size // xhat.shape[-1]), model_module)
    predict_pixels(cube, np.argwhere(np.ones((rows, cols), dtype=bool)), params, cfg)
    assert sum(band_pixels) <= 2.2 * (rows + p - 1) * (cols + p - 1)


def _whole_scene_peak(rows: int, cols: int, zero_channel: bool = False) -> int:
    """tracemalloc peak of a second whole-scene call on a rows x cols x 144,
    p = 7 scene, hidden 64, 32 spatial channels (the first call's one-off
    allocations out of the way)."""
    cfg = ModelConfig(bands=144, num_classes=15, patch_size=7, hidden_dim=64,
                      spatial_channels=32, classifier_hidden=128)
    params = init_model(cfg, seed=71)
    if zero_channel:
        _zero_channel_0(params)
    cube = HsiCube(np.random.default_rng(72).random((rows, cols, cfg.bands)))
    pixels = np.argwhere(np.ones((rows, cols), dtype=bool))
    predict_pixels(cube, pixels, params, cfg)
    tracemalloc.start()
    try:
        predict_pixels(cube, pixels, params, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_pixels_peak_memory_on_the_wide_scene():
    # whole-scene inference of the 30 x 30 x 144, p = 7 benchmark scene holds
    # one class table and one float64 sum per window of one branch at a time.
    # The bound is the tracemalloc peak of the per-window design this
    # replaced, in which each run gathered its windows' per-tap outputs:
    # 4,990,378 bytes (numpy 2.4, Python 3.11)
    assert _whole_scene_peak(30, 30) <= 4_990_378


@pytest.mark.parametrize("zero_channel", [False, True])
def test_predict_pixels_peak_memory_on_a_tall_band_scene(zero_channel):
    # at p = 7 a scene 145 pixels wide takes bands of 28 runs, to cover the
    # p - 1 halo rows: the layer-normed pixels go once both projections and
    # the conv's per-tap outputs are taken, and the class tables add into
    # one float64 sum per window, a table at a time; where the sums are not
    # exact, they go before one branch's tables are stacked. The bound is
    # the tracemalloc peak of the design before that, which kept one
    # branch's tables and the layer-normed pixels alive: 12,504,410 bytes
    # (numpy 2.4, Python 3.11)
    assert _whole_scene_peak(40, 145, zero_channel) <= 12_504_410


# -- checkpoints ------------------------------------------------------------------------


def test_checkpoint_roundtrip_bits(tmp_path):
    cfg = small_config()
    params = init_model(cfg, seed=14)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_model(first, params, cfg)
    loaded, loaded_cfg = load_model(first)
    assert loaded_cfg == cfg
    save_model(second, loaded, loaded_cfg)
    assert first.read_bytes() == second.read_bytes()
    for (_, ta), (_, tb) in zip(params.named_tensors(), loaded.named_tensors()):
        np.testing.assert_array_equal(ta.data, tb.data)


@pytest.mark.parametrize("overrides", [
    dict(patch_size=5, hidden_dim=5, seq_kernel=5, spatial_channels=2,
         spatial_kernel=1, classifier_hidden=3, activation="tanh",
         forward_on=False, spatial_on=False),
    dict(backward_on=False),
])
def test_checkpoint_config_line_round_trips_every_field(overrides):
    cfg = small_config(**overrides)
    parsed = _parse_config_line(_config_line(cfg).rstrip(b"\n"), "m.ckpt")
    for f in fields(ModelConfig):
        want, got = getattr(cfg, f.name), getattr(parsed, f.name)
        assert got == want and type(got) is type(want), f.name


def test_checkpoint_config_line_rejects_bad_bool():
    line = _config_line(small_config()).rstrip(b"\n")
    assert line.endswith(b" 1")
    with pytest.raises(ShapeError, match="spatial_on"):
        _parse_config_line(line[:-1] + b"2", "m.ckpt")


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"WRONGMAG1\nx\n")
    with pytest.raises(MagicError):
        load_model(path)


def test_checkpoint_shape_mismatch(tmp_path):
    cfg = small_config()
    params = init_model(cfg, seed=15)
    path = tmp_path / "c.ckpt"
    save_model(path, params, cfg)
    raw = bytearray(path.read_bytes())
    # corrupt the first shape line ("6" -> "7"): norm_gain no longer matches
    shape_start = raw.index(b"\n", len(b"SSNLCKPT1\n")) + 1
    assert raw[shape_start:shape_start + 2] == b"6\n"
    raw[shape_start:shape_start + 1] = b"7"
    path.write_bytes(bytes(raw))
    with pytest.raises(ShapeError):
        load_model(path)


def test_checkpoint_truncated(tmp_path):
    from ssnl.errors import TruncatedError

    cfg = small_config()
    params = init_model(cfg, seed=16)
    path = tmp_path / "d.ckpt"
    save_model(path, params, cfg)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(TruncatedError):
        load_model(path)


def test_checkpoint_preserves_ablation_flags(tmp_path):
    cfg = small_config(backward_on=False)
    params = init_model(cfg, seed=17)
    path = tmp_path / "e.ckpt"
    save_model(path, params, cfg)
    _, loaded_cfg = load_model(path)
    assert loaded_cfg.backward_on is False and loaded_cfg.forward_on is True


@pytest.mark.parametrize("load", [False, True])
def test_param_tensors_are_views_of_flat(tmp_path, load):
    cfg = small_config()
    params = init_model(cfg, seed=4)
    if load:
        save_model(tmp_path / "m.ckpt", params, cfg)
        params, _ = load_model(tmp_path / "m.ckpt")
    offset = 0
    for name, shape in expected_shapes(cfg).items():
        tensor = getattr(params, name)
        size = math.prod(shape)
        assert tensor.shape == shape, name
        assert np.shares_memory(tensor.data, params.flat[offset:offset + size]), name
        np.testing.assert_array_equal(tensor.data.ravel(), params.flat[offset:offset + size])
        offset += size
    assert offset == params.flat.size
    before = {name: t.data.copy() for name, t in params.named_tensors()}
    rng = np.random.default_rng(5)
    grad = rng.standard_normal(params.flat.shape).astype(np.float32)
    adam_step(params, grad, AdamState(params), TrainConfig(learning_rate=1e-2))
    for name, tensor in params.named_tensors():
        assert not np.array_equal(tensor.data, before[name]), name


def test_flat_grad_places_leaf_grads_at_their_offsets_and_zeros_for_unreached():
    cfg = small_config(backward_on=False)
    params = init_model(cfg, seed=6)
    _, logits = model_forward(random_patch(cfg, seed=7), params, cfg)
    cross_entropy(logits, 1).backward()
    grad = params.flat_grad()
    assert grad.shape == params.flat.shape and grad.dtype == params.flat.dtype
    offset = 0
    for name, shape in expected_shapes(cfg).items():
        size = math.prod(shape)
        leaf_grad = getattr(params, name).grad
        if name in ("proj_bwd", "kernel_bwd", "mix_bwd"):
            assert leaf_grad is None, name
            assert not grad[offset:offset + size].any(), name
        else:
            np.testing.assert_array_equal(grad[offset:offset + size], leaf_grad.ravel())
        offset += size


def test_checkpoint_round_trip_keeps_flat_bitwise(tmp_path):
    cfg = small_config()
    params = init_model(cfg, seed=8)
    rng = np.random.default_rng(9)
    params.flat[...] = rng.standard_normal(params.flat.shape).astype(np.float32)
    save_model(tmp_path / "m.ckpt", params, cfg)
    loaded, loaded_cfg = load_model(tmp_path / "m.ckpt")
    assert loaded_cfg == cfg
    assert loaded.flat.dtype == np.float32
    assert loaded.flat.tobytes() == params.flat.tobytes()


_FUZZ_CONFIG = small_config(hidden_dim=2, spatial_channels=2, classifier_hidden=3)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A valid checkpoint's bytes and a scratch path for its edited copies."""
    folder = tmp_path_factory.mktemp("fuzz")
    save_model(folder / "base.ckpt", init_model(_FUZZ_CONFIG, seed=18), _FUZZ_CONFIG)
    return (folder / "base.ckpt").read_bytes(), folder / "edited.ckpt"


_edits = st.one_of(
    st.tuples(st.just("mutate"), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                                           min_size=1, max_size=4)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(edit=_edits)
def test_load_model_refuses_damaged_checkpoints_with_typed_errors(fuzz_files, edit):
    # byte-mutated, truncated and extended checkpoints load or raise SsnlError only
    base, path = fuzz_files
    raw = bytearray(base)
    kind, arg = edit
    if kind == "mutate":
        for pos, value in arg:
            raw[pos % len(raw)] = value
    elif kind == "truncate":
        del raw[arg % len(raw):]
    else:
        raw += arg
    path.write_bytes(bytes(raw))
    try:
        params, _ = load_model(path)
    except SsnlError:
        return
    assert np.isfinite(params.flat).all()


# -- end-to-end gradient check ------------------------------------------------------------


def test_end_to_end_gradient_check():
    cfg = small_config()
    assert gradient_check_model(cfg, seed=0) < 1e-5


def test_end_to_end_gradient_check_ablated():
    assert gradient_check_model(small_config(spatial_on=False), seed=1) < 1e-5
    assert gradient_check_model(small_config(backward_on=False), seed=2) < 1e-5
