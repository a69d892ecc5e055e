import math
import tracemalloc

import numpy as np
import pytest

from ssnl import autodiff as ad
from ssnl.autodiff import Tensor
from ssnl.data import standardize
from ssnl.errors import ConfigError, ContractError, ShapeError


# -- independent oracles -------------------------------------------------------


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def naive_conv1d(x, kernel):
    # depthwise sliding window over zero-padded input
    c, length = x.shape
    k = kernel.shape[1]
    pad = (k - 1) // 2
    out = np.zeros_like(x)
    for ch in range(c):
        for i in range(length):
            acc = 0.0
            for j in range(k):
                src = i + j - pad
                if 0 <= src < length:
                    acc += kernel[ch, j] * x[ch, src]
            out[ch, i] = acc
    return out


def naive_conv2d(x, kernels):
    cin, h, w = x.shape
    cout, _, k, _ = kernels.shape
    pad = (k - 1) // 2
    out = np.zeros((cout, h, w))
    for f in range(cout):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for c in range(cin):
                    for u in range(k):
                        for v in range(k):
                            si, sj = i + u - pad, j + v - pad
                            if 0 <= si < h and 0 <= sj < w:
                                acc += kernels[f, c, u, v] * x[c, si, sj]
                out[f, i, j] = acc
    return out


def channels_last(x):
    # the oracles above take (channels, h, w); conv2d takes (h, w, channels)
    return np.moveaxis(x, -3, -1)


def channels_first(x):
    return np.moveaxis(x, -1, -3)


def _dot(t, g):
    # <t, g> as a scalar tensor; the matmul adjoint is 1.0 * g, so backward
    # hands t exactly g as its output gradient
    return ad.matmul(ad.reshape(t, (t.size,)), Tensor(np.asarray(g, dtype=t.dtype).ravel()))


def _total(t):
    return _dot(t, np.ones(t.shape))


def _ones_channel(xhat):
    # the input of a folded weight: xhat with a ones channel appended
    return np.concatenate([xhat, np.ones(xhat.shape[:-1] + (1,), xhat.dtype)], axis=-1)


# -- matmul ---------------------------------------------------------------------


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    out = ad.matmul(Tensor(np.eye(3)), Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_matmul_matches_naive_oracle():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0], [6.0]])
    out = ad.matmul(Tensor(a), Tensor(b))
    np.testing.assert_array_equal(out.data, np.array([[17.0], [39.0]]))
    np.testing.assert_array_equal(out.data, naive_matmul(a, b))


def test_matmul_annihilator():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 3))
    out = ad.matmul(Tensor(a), Tensor(np.zeros((3, 2))))
    np.testing.assert_array_equal(out.data, np.zeros((4, 2)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_identity_associativity_exact():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    eye = np.eye(3)
    left = ad.matmul(ad.matmul(Tensor(a), Tensor(eye)), Tensor(b))
    right = ad.matmul(Tensor(a), ad.matmul(Tensor(eye), Tensor(b)))
    np.testing.assert_array_equal(left.data, right.data)


def test_matmul_vector_form():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    v = np.array([5.0, 6.0])
    out = ad.matmul(Tensor(a), Tensor(v))
    np.testing.assert_array_equal(out.data, naive_matmul(a, v[:, None])[:, 0])


# -- conv1d ----------------------------------------------------------------------


def test_conv1d_delta_kernel_is_identity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 7))
    kernel = np.tile([0.0, 1.0, 0.0], (4, 1))
    out = ad.conv1d(Tensor(x.T), Tensor(kernel))
    np.testing.assert_array_equal(out.data.T, x)


def test_conv1d_matches_hand_unrolled_oracle():
    x = np.array([[1.0, 2.0, 3.0]])
    kernel = np.array([[1.0, 1.0, 1.0]])
    out = ad.conv1d(Tensor(x.T), Tensor(kernel))
    np.testing.assert_array_equal(out.data.T, np.array([[3.0, 6.0, 5.0]]))
    np.testing.assert_array_equal(out.data.T, naive_conv1d(x, kernel))


def test_conv1d_zero_kernel():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 5))
    out = ad.conv1d(Tensor(x.T), Tensor(np.zeros((2, 3))))
    np.testing.assert_array_equal(out.data.T, np.zeros_like(x))


def test_conv1d_even_kernel_rejected():
    with pytest.raises(ConfigError):
        ad.conv1d(Tensor(np.zeros((5, 2))), Tensor(np.zeros((2, 4))))


def test_conv1d_channel_mismatch_rejected():
    with pytest.raises(ShapeError):
        ad.conv1d(Tensor(np.zeros((5, 2))), Tensor(np.zeros((3, 3))))


def test_conv1d_random_against_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = int(rng.integers(1, 5))
        length = int(rng.integers(1, 9))
        k = int(rng.choice([1, 3, 5]))
        x = rng.standard_normal((c, length))
        kernel = rng.standard_normal((c, k))
        out = ad.conv1d(Tensor(x.T), Tensor(kernel))
        np.testing.assert_allclose(out.data.T, naive_conv1d(x, kernel), atol=1e-12)


def test_conv1d_linearity():
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal((2, 3, 6))
    kernel = rng.standard_normal((3, 3))
    alpha, beta = 0.7, -1.3
    lhs = ad.conv1d(Tensor((alpha * x + beta * y).T), Tensor(kernel))
    rhs = alpha * ad.conv1d(Tensor(x.T), Tensor(kernel)).data + beta * ad.conv1d(
        Tensor(y.T), Tensor(kernel)
    ).data
    np.testing.assert_allclose(lhs.data, rhs, atol=1e-12)


def _tap_loop(a, taps):
    # a (..., length, channels) zero-padded along length, then tap j of taps
    # (k, channels) times the slice shifted by j, summed in tap order from zero
    k, length = len(taps), a.shape[-2]
    pad = [(0, 0)] * (a.ndim - 2) + [(k // 2, k // 2), (0, 0)]
    padded = np.pad(a, pad)
    out = np.zeros_like(a)
    for j in range(k):
        out += taps[j] * padded[..., j:j + length, :]
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv1d_contraction_is_bitwise_the_tap_loop(dtype):
    # same products summed in the same order, so not a bit may differ: forward
    # pass with the taps, input gradient with the taps reversed
    rng = np.random.default_rng(43)
    for shape in ((1, 4), (7, 3), (2, 3, 9, 5), (32, 25, 64)):
        for k in (1, 3, 5, 7):
            x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
            kernel = Tensor(rng.standard_normal((shape[-1], k)).astype(dtype),
                            requires_grad=True)
            out = ad.conv1d(x, kernel)
            g = rng.standard_normal(shape).astype(dtype)
            _dot(out, g).backward()
            taps = kernel.data.T
            assert out.data.dtype == x.grad.dtype == dtype
            np.testing.assert_array_equal(out.data, _tap_loop(x.data, taps))
            np.testing.assert_array_equal(x.grad, _tap_loop(g, taps[::-1]))


# -- conv2d ----------------------------------------------------------------------


def test_conv2d_one_by_one_identity():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 4, 4))
    kernels = np.ones((1, 1, 1, 1))
    out = ad.conv2d(Tensor(channels_last(x)), Tensor(kernels))
    np.testing.assert_array_equal(channels_first(out.data), x)


def test_conv2d_delta_kernel_identity():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 5, 5))
    kernels = np.zeros((1, 1, 3, 3))
    kernels[0, 0, 1, 1] = 1.0
    out = ad.conv2d(Tensor(channels_last(x)), Tensor(kernels))
    np.testing.assert_array_equal(channels_first(out.data), x)


def test_conv2d_matches_hand_unrolled_oracle():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    kernels = np.ones((1, 1, 3, 3))
    out = channels_first(ad.conv2d(Tensor(channels_last(x)), Tensor(kernels)).data)
    np.testing.assert_array_equal(out, np.array([[[10.0, 10.0], [10.0, 10.0]]]))
    np.testing.assert_array_equal(out, naive_conv2d(x, kernels))


def test_conv2d_even_kernel_rejected():
    with pytest.raises(ConfigError):
        ad.conv2d(Tensor(np.zeros((3, 3, 1))), Tensor(np.zeros((1, 1, 2, 2))))


def test_conv2d_random_against_oracle():
    rng = np.random.default_rng(9)
    for _ in range(10):
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        h = int(rng.integers(1, 6))
        w = int(rng.integers(1, 6))
        k = int(rng.choice([1, 3]))
        x = rng.standard_normal((cin, h, w))
        kernels = rng.standard_normal((cout, cin, k, k))
        out = ad.conv2d(Tensor(channels_last(x)), Tensor(kernels))
        np.testing.assert_allclose(channels_first(out.data), naive_conv2d(x, kernels), atol=1e-12)


def test_conv2d_linearity():
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal((2, 2, 4, 4))
    kernels = rng.standard_normal((3, 2, 3, 3))
    alpha, beta = 2.5, -0.5
    lhs = ad.conv2d(Tensor(channels_last(alpha * x + beta * y)), Tensor(kernels))
    rhs = alpha * ad.conv2d(Tensor(channels_last(x)), Tensor(kernels)).data + beta * ad.conv2d(
        Tensor(channels_last(y)), Tensor(kernels)
    ).data
    np.testing.assert_allclose(lhs.data, rhs, atol=1e-12)


# -- convolution adjoints -----------------------------------------------------------


def _assert_adjoint(conv, x, kernel, rng):
    # conv is bilinear, so with loss <conv(x, K), g> the three pairings
    # <conv(x, K), g>, <x, dx> and <K, dK> are one number
    xt, kt = Tensor(x, requires_grad=True), Tensor(kernel, requires_grad=True)
    out = conv(xt, kt)
    g = rng.standard_normal(out.shape)
    _dot(out, g).backward()
    value = float((out.data * g).sum())
    scale = float(np.abs(out.data * g).sum())
    for pair in ((x * xt.grad).sum(), (kernel * kt.grad).sum()):
        assert abs(float(pair) - value) <= 1e-12 * scale


def test_conv1d_adjoint_identities():
    rng = np.random.default_rng(41)
    for batch in ((), (3,), (2, 3)):
        for length in (1, 2, 5, 9):
            for k in (1, 3, 5):
                c = int(rng.integers(1, 5))
                x = rng.standard_normal(batch + (length, c))
                _assert_adjoint(ad.conv1d, x, rng.standard_normal((c, k)), rng)


def test_conv2d_adjoint_identities():
    rng = np.random.default_rng(42)
    for batch in ((), (1,), (3,)):
        for h, w in ((1, 1), (1, 4), (3, 2), (5, 5)):
            for k in (1, 3, 5):
                cin, cout = (int(v) for v in rng.integers(1, 4, size=2))
                x = rng.standard_normal(batch + (h, w, cin))
                _assert_adjoint(ad.conv2d, x, rng.standard_normal((cout, cin, k, k)), rng)


def test_conv2d_kernel_gradient_is_the_explicit_correlation():
    # dK[o, c, u, v] = sum over b, i, j of g[b, i, j, o] * xpad[b, i + u, j + v, c]
    rng = np.random.default_rng(43)
    for batch in ((), (3,)):
        for h, w in ((1, 1), (2, 3), (5, 4)):
            for k in (1, 3, 5):
                cin, cout = (int(v) for v in rng.integers(1, 4, size=2))
                x = rng.standard_normal(batch + (h, w, cin))
                kt = Tensor(rng.standard_normal((cout, cin, k, k)), requires_grad=True)
                out = ad.conv2d(Tensor(x), kt)
                g = rng.standard_normal(out.shape)
                _dot(out, g).backward()
                pad = k // 2
                xpad = np.pad(x.reshape((-1, h, w, cin)), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
                gb = g.reshape((-1, h, w, cout))
                want = np.zeros((cout, cin, k, k))
                scale = np.zeros((cout, cin, k, k))
                for u in range(k):
                    for v in range(k):
                        terms = np.einsum("bijo,bijc->bijoc", gb, xpad[:, u:u + h, v:v + w])
                        want[:, :, u, v] = terms.sum(axis=(0, 1, 2))
                        scale[:, :, u, v] = np.abs(terms).sum(axis=(0, 1, 2))
                assert (np.abs(kt.grad - want) <= 1e-12 * (scale + 1.0)).all()


def test_conv2d_keeps_no_columns_for_backward():
    # the im2col matrix of this input is 9x its size; the graph must hold
    # no more than the output and its own bookkeeping
    rng = np.random.default_rng(44)
    x = Tensor(rng.standard_normal((8, 7, 7, 144)).astype(np.float32), requires_grad=True)
    kernels = Tensor(rng.standard_normal((32, 144, 3, 3)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = ad.conv2d(x, kernels)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert live < 2 * y.data.nbytes


# -- the layer norm: data.standardize, then the gain and bias (ad.fold) ---------------


def test_layer_norm_constant_input_is_zero():
    np.testing.assert_array_equal(standardize(np.full(5, 3.7)), np.zeros(5))


def test_layer_norm_already_normalized():
    # the statistics' eps is fixed at 1e-5, so unit variance reads 1/sqrt(1 + 1e-5)
    x = np.array([1.0, -1.0])
    np.testing.assert_array_equal(standardize(x), x / math.sqrt(1 + 1e-5))


def test_layer_norm_direct_formula():
    # gain ones and bias zeros fold the identity to [I; 0], which the ones
    # channel reads exactly
    weight = ad.fold(Tensor(np.eye(2)), Tensor(np.ones(2)), Tensor(np.zeros(2)), 0)
    out = ad.matmul(_ones_channel(standardize(np.array([0.0, 2.0]))), weight)
    np.testing.assert_array_equal(out.data, np.array([-1.0, 1.0]) / math.sqrt(1 + 1e-5))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_forward_is_bitwise_the_var_form(dtype):
    rng = np.random.default_rng(21)
    x = (rng.standard_normal((4, 25, 24)) * rng.uniform(0.01, 100, (4, 25, 1))
         + rng.uniform(-50, 50, (4, 25, 1))).astype(dtype)
    gain, bias = rng.standard_normal(24).astype(dtype), rng.standard_normal(24).astype(dtype)
    mu = x.mean(axis=-1, keepdims=True)
    want = ((x - mu) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5))) * gain + bias
    got = standardize(x) * gain + bias   # predict_pixels' layer norm
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


def test_layer_norm_of_data_gives_the_same_gain_and_bias_gradients():
    # the gain and bias fold into matmul's and conv2d's weights, which read
    # data with a ones channel. The gain, bias and weight gradients are those
    # of the composed rule, where the scaled pixels are a graph node (the
    # identity folded), up to summation order
    rng = np.random.default_rng(22)
    bands = 7
    for p in (1, 5):
        for k in (1, 3):
            arrays = [rng.standard_normal((2, p * p, bands)) * 3.0 + 1.0,
                      rng.standard_normal(bands), rng.standard_normal(bands),
                      rng.standard_normal((bands, 4)), rng.standard_normal((3, bands, k, k))]
            g_proj, g_conv = rng.standard_normal((2, p * p, 4)), rng.standard_normal((2, p, p, 3))
            xhat = _ones_channel(standardize(arrays[0]))
            grads = []
            for composed in (True, False):
                gain, bias, proj, kernels = (Tensor(a, requires_grad=True) for a in arrays[1:])
                if composed:
                    x_norm = ad.matmul(xhat, ad.fold(Tensor(np.eye(bands)), gain, bias, 0))
                    spectral = ad.matmul(x_norm, proj)
                    spatial = ad.conv2d(ad.reshape(x_norm, (2, p, p, bands)), kernels)
                else:
                    spectral = ad.matmul(xhat, ad.fold(proj, gain, bias, 0))
                    spatial = ad.conv2d(xhat.reshape(2, p, p, bands + 1),
                                        ad.fold(kernels, gain, bias, 1))
                loss = ad.add(_dot(spectral, g_proj), _dot(spatial, g_conv))
                shapes = {node.shape for node in ad._reverse_topo(loss)}
                assert ((2, p * p, bands) in shapes) == composed
                loss.backward()
                grads.append([gain.grad, bias.grad, proj.grad, kernels.grad])
            for composed, folded in zip(*grads):
                assert np.abs(folded - composed).max() <= 1e-12 * np.abs(composed).max(), (p, k)


def test_layer_norm_gain_bias_shape_check():
    with pytest.raises(ShapeError):
        ad.fold(Tensor(np.zeros((4, 2))), Tensor(np.ones(3)), Tensor(np.zeros(4)), 0)


# -- activations -----------------------------------------------------------------


def test_activation_fixed_points():
    assert ad.activation("tanh", Tensor(np.array(0.0)), 0.0).item() == 0.0
    assert ad.activation("silu", Tensor(np.array(0.0)), 0.0).item() == 0.0
    for kind in ("silu", "tanh"):
        assert ad.activation(kind, Tensor(np.array(0.0)), 0.0, tanh_after=True).item() == 0.0


def test_tanh_asymptotes():
    out = ad.activation("tanh", Tensor(np.array([25.0, -25.0])), np.zeros(2))
    np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-9)


def test_activation_unknown_kind():
    with pytest.raises(ConfigError):
        ad.activation("relu", Tensor(np.zeros(2)), np.zeros(2))


def test_activation_bias_must_be_the_trailing_axes():
    with pytest.raises(ShapeError):
        ad.activation("silu", Tensor(np.zeros((3, 1))), np.zeros(4))


def test_softplus_positive_and_stable():
    out = ad.softplus(Tensor(np.array([-1e9, 0.0, 1e9])))
    assert out.data[0] == 0.0
    assert out.data[1] == pytest.approx(math.log(2.0))
    assert out.data[2] == pytest.approx(1e9)


def _where_sigmoid(d):
    # the stable two-branch form, kept as the oracle of ad._sigmoid
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bitwise_equals_where_form(dtype):
    rng = np.random.default_rng(0)
    info = np.finfo(dtype)
    scales = (1e-3, 1e-2, 0.1, 1, 10, 1e2, 1e3, 1e4)
    draws = [rng.standard_normal(50_000) * scale for scale in scales]
    edges = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
             info.smallest_normal, -info.smallest_normal, info.max, -info.max,
             np.inf, -np.inf]
    d = np.concatenate(draws + [np.array(edges)]).astype(dtype)
    got, want = ad._sigmoid(d), _where_sigmoid(d)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()
    assert np.isnan(ad._sigmoid(np.array([np.nan], dtype=dtype))).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softplus_gradient_is_bitwise_the_sigmoid(dtype):
    x = Tensor((np.random.default_rng(22).standard_normal(500) * 30).astype(dtype),
               requires_grad=True)
    _total(ad.softplus(x)).backward()
    assert x.grad.tobytes() == _where_sigmoid(x.data).tobytes()


# -- softmax ------------------------------------------------------------------------


def test_softmax_uniform_on_constant():
    out = ad.softmax(np.full(4, 2.5))
    np.testing.assert_allclose(out, np.full(4, 0.25), atol=1e-15)


def test_softmax_direct_formula():
    out = ad.softmax(np.array([0.0, math.log(3.0)]))
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(6)
    a = ad.softmax(x)
    b = ad.softmax(x + 17.5)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_positive_and_sums_to_one():
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = rng.standard_normal(int(rng.integers(1, 9))) * 10
        p = ad.softmax(x)
        assert (p > 0).all()
        assert abs(p.sum() - 1.0) < 1e-12


# -- backward -----------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    _total(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_constant_loss_leaves_zero_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = ad.add(Tensor(np.array(5.0), requires_grad=True), 2.0)
    loss.backward()
    np.testing.assert_array_equal(x.grad_array(), np.zeros(3))


def test_backward_fanout_adds_exactly():
    x = Tensor(np.ones(4), requires_grad=True)
    loss = ad.add(_total(x), _total(x))
    loss.backward()
    np.testing.assert_array_equal(x.grad, 2.0 * np.ones(4))


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        ad.add(x, 2.0).backward()


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(13)
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    x = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

    def fn(w_, x_):
        return _total(ad.activation("tanh", ad.matmul(w_, x_), np.zeros(2)))

    assert ad.grad_check(fn, [w, x], step=1e-6) < 1e-6


def test_backward_releases_interior_adjoints_only():
    rng = np.random.default_rng(17)

    def graph():
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
        hidden = ad.activation("tanh", ad.matmul(x, w), np.zeros(3))
        return w, x, hidden, _total(ad.mean(ad.softplus(hidden), axis=(0, 1)))

    w, x, hidden, loss = graph()
    loss.backward()
    assert hidden.grad is None
    assert loss.grad is not None

    # the same graph replayed without the release gives bitwise equal leaves
    rng = np.random.default_rng(17)
    w_ref, x_ref, _, loss_ref = graph()
    loss_ref.grad = np.ones((), dtype=loss_ref.data.dtype)
    for node in ad._reverse_topo(loss_ref):
        if node._backprop is not None and node.grad is not None:
            node._backprop(node.grad)
    np.testing.assert_array_equal(w.grad, w_ref.grad)
    np.testing.assert_array_equal(x.grad, x_ref.grad)


# -- grad_check ----------------------------------------------------------------------


def test_grad_check_linear_is_near_exact():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((3, 3))
    x = Tensor(rng.standard_normal(3), requires_grad=True)

    def fn(x_):
        return _total(ad.matmul(Tensor(a), x_))

    assert ad.grad_check(fn, [x]) < 1e-9


def test_grad_check_zero_function():
    x = Tensor(np.ones(4), requires_grad=True)

    def fn(x_):
        return ad.matmul(x_, Tensor(np.zeros(4)))

    assert ad.grad_check(fn, [x]) == 0.0


# -- per-op finite-difference property sweep -----------------------------------------


def _weighted(rng):
    # central differences at h=1e-6 carry ~1e-10 absolute noise on a
    # loss of order 1, so the readout must keep every gradient coordinate
    # generically O(1): a random-signed weighted sum, never a plain sum
    # (a plain sum is invariant to a softmax's inputs, for example);
    # weights come from a pre-drawn pool so the readout is pure
    pool = rng.choice([-1.0, 1.0], size=4096) * rng.uniform(0.6, 1.4, 4096)

    def readout(t):
        return _dot(t, pool[: t.size])

    return readout


class _Case:
    """One finite-difference case's generator, seeded from (seed, case name),
    so adding or removing a case leaves every other case's inputs as they
    were; its readout, its sizes and its leaves."""

    def __init__(self, seed, name):
        self.rng = rng = np.random.default_rng([seed, int.from_bytes(name.encode(), "little")])
        self.read = _weighted(rng)
        self.c, self.length, self.n, self.m, self.h, self.w = (
            int(rng.integers(lo, hi)) for lo, hi in ((1, 5), (1, 9), (2, 9), (1, 5), (1, 6), (1, 6)))
        self.k = int(rng.choice([1, 3]))

    def leaf(self, *shape, scale=1.0):
        return Tensor(self.rng.standard_normal(shape) * scale, requires_grad=True)

    def uniform(self, lo, hi, *shape):
        return Tensor(self.rng.uniform(lo, hi, shape), requires_grad=True)


def _folded(d):
    # the model's first op, a gain and bias on data, folded into the weights
    # of both of its consumers on an (m, 1) plane with a ones channel
    bands = int(d.rng.integers(3, 9))
    xhat = _ones_channel(d.rng.standard_normal((d.m, bands)))

    def fn(g, b, proj, kk):
        return ad.add(d.read(ad.matmul(xhat, ad.fold(proj, g, b, 0))),
                      d.read(ad.conv2d(xhat.reshape(d.m, 1, bands + 1), ad.fold(kk, g, b, 1))))

    return fn, [d.uniform(0.5, 1.5, bands), d.leaf(bands), d.leaf(bands, d.n),
                d.leaf(3, bands, d.k, d.k)]


def _activation_case(kind, tanh_after, batched):
    # the model's one nonlinear op, its (n,) bias a leaf, on (n,) or (2, m, n).
    # silu's inputs keep clear of its slope's zero near -1.28, where a
    # relative error has no scale
    def case(d):
        shape = (2, d.m, d.n) if batched else (d.n,)
        if kind == "silu":
            x, b = d.uniform(-0.5, 1.0, *shape), d.uniform(-0.4, 0.5, d.n)
        else:
            x, b = d.leaf(*shape, scale=0.6), d.leaf(d.n, scale=0.6)
        return (lambda x_, b_: d.read(ad.activation(kind, x_, b_, tanh_after)), [x, b])

    return case


def _cross_entropy_case(d):
    targets = d.rng.integers(d.n, size=d.m)
    return (lambda x: ad.cross_entropy(x, targets)), [d.leaf(d.m, d.n)]


_OP_CASES = {
    "matmul": lambda d: (lambda a, b: d.read(ad.matmul(a, b)),
                         [d.leaf(d.m, d.c), d.leaf(d.c, d.n)]),
    "conv1d": lambda d: (lambda x, kk: d.read(ad.conv1d(x, kk)),
                         [d.leaf(d.length, d.c), d.leaf(d.c, d.k)]),
    "conv2d": lambda d: (lambda x, kk: d.read(ad.conv2d(x, kk)),
                         [d.leaf(d.h, d.w, 2), d.leaf(3, 2, d.k, d.k)]),
    "affine_fold": _folded,
    **{f"{kind}{'_tanh_after' if after else ''}{'_batched' if batched else ''}":
       _activation_case(kind, after, batched)
       for kind in ("silu", "tanh") for after in (False, True) for batched in (False, True)},
    "softplus": lambda d: (lambda x: d.read(ad.softplus(x)), [d.leaf(d.n)]),
    "mean": lambda d: (lambda x: d.read(ad.mean(x, axis=0)), [d.leaf(d.m, d.n)]),
    "flip_concat": lambda d: (lambda a, b: d.read(ad.concat([ad.flip(a, 0), b])),
                              [d.leaf(d.n), d.leaf(d.m)]),
    # batch-first forms: leading axes carried through every op
    "cross_entropy": _cross_entropy_case,
    "batched_matmul": lambda d: (lambda a, b: d.read(ad.matmul(a, b)),
                                 [d.leaf(2, d.m, d.c), d.leaf(d.c, d.n)]),
    "batched_conv1d": lambda d: (lambda x, kk: d.read(ad.conv1d(x, kk)),
                                 [d.leaf(2, d.length, d.c), d.leaf(d.c, d.k)]),
    "batched_conv2d": lambda d: (lambda x, kk: d.read(ad.conv2d(x, kk)),
                                 [d.leaf(2, d.h, d.w, 2), d.leaf(3, 2, d.k, d.k)]),
    "bias_add": lambda d: (lambda x, b: d.read(ad.add(x, b)), [d.leaf(2, d.m, d.n), d.leaf(d.n)]),
    "batched_mean_concat": lambda d: (
        lambda a, b: d.read(ad.concat([ad.mean(a, axis=(-2, -1)), b])),
        [d.leaf(d.m, 3, d.h, d.w), d.leaf(d.m, 2)]),
}


def test_every_op_matches_finite_differences_across_seeds():
    failures = []
    for seed in range(100):
        for name, case in _OP_CASES.items():
            fn, inputs = case(_Case(1000 + seed, name))
            err = ad.grad_check(fn, inputs, step=1e-6)
            if err >= 1e-5:
                failures.append((seed, name, err))
    assert not failures, failures


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mean_bitwise_invariant_under_permutation(dtype):
    rng = np.random.default_rng(18)
    x = (rng.standard_normal((3, 5, 49)) * rng.uniform(0.01, 100, (3, 5, 1))).astype(dtype)
    base = ad.mean(Tensor(x), axis=-1).data
    whole = ad.mean(Tensor(x[1]), axis=(0, 1)).data
    for _ in range(20):
        perm = rng.permutation(49)
        np.testing.assert_array_equal(ad.mean(Tensor(x[..., perm]), axis=-1).data, base)
        flat = x[1].reshape(-1)[rng.permutation(5 * 49)].reshape(49, 5)
        np.testing.assert_array_equal(ad.mean(Tensor(flat), axis=(1, 0)).data, whole)
    # a row's mean does not depend on the batch it sits in
    np.testing.assert_array_equal(ad.mean(Tensor(x[2, 3]), axis=-1).data, base[2, 3])
    assert base.dtype == dtype


def _sorted_mean(x, axes):
    # the sort-then-sum form, kept as the oracle of ad.mean
    keep = tuple(i for i in range(x.ndim) if i not in axes)
    count = int(np.prod([x.shape[a] for a in axes]))
    rows = np.array(np.transpose(x, keep + axes).reshape(
        tuple(x.shape[i] for i in keep) + (count,)), dtype=np.float64)
    rows.sort(axis=-1)
    return np.asarray(rows.sum(axis=-1) / count, dtype=x.dtype)


def test_mean_exact_float64_sum_is_bitwise_the_sorted_sum():
    # tanh-range float32, as the model's sequence and pooling means see: the
    # magnitudes are narrow enough for an unsorted float64 sum to be exact
    rng = np.random.default_rng(19)
    for shape, axes in [((32, 25, 64), (1,)), ((32, 5, 5, 32), (1, 2)),
                        ((4, 49, 8), (0, 1, 2)), ((3, 9), (0, 1))]:
        x = np.tanh(rng.standard_normal(shape) * 2).astype(np.float32)
        count = int(np.prod([shape[a] for a in axes]))
        assert np.abs(x).max() * count < 2.0**29 * np.abs(x).min()
        want = _sorted_mean(x, axes)
        assert ad.mean(Tensor(x), axis=axes).data.tobytes() == want.tobytes()
        # permuted along the reduced axes, and each slot on its own
        perm = x[(slice(None),) * axes[0] + (rng.permutation(shape[axes[0]]),)]
        assert ad.mean(Tensor(perm), axis=axes).data.tobytes() == want.tobytes()
        if axes[0] > 0:
            alone = ad.mean(Tensor(x[-1:]), axis=axes).data
            assert alone.tobytes() == want[-1:].tobytes()
    # a float32 sum of the same values is not exact: the oracle tells them apart
    x = np.tanh(rng.standard_normal((64, 4096))).astype(np.float32)
    assert not np.array_equal(x.sum(axis=1) / 4096, _sorted_mean(x, (1,)))


def _gate_failing(kind):
    rng = np.random.default_rng(20)
    x = np.tanh(rng.standard_normal((6, 49))).astype(np.float32)
    if kind == "zeros":
        x[::2, ::3] = 0.0
    elif kind == "subnormals":
        x[:, ::4] = np.float32(1e-40) * rng.uniform(0.5, 1, (6, 13)).astype(np.float32)
    elif kind == "inf_nan":
        x[0, 3], x[1, 4], x[2, 5], x[2, 6], x[3, 7] = np.inf, -np.inf, np.inf, -np.inf, np.nan
    elif kind == "wide_range":
        x = (10.0 ** rng.uniform(-12, 3, (6, 49)) * rng.choice([-1, 1], (6, 49)))
        x = x.astype(np.float32)
    elif kind == "float32_tie":
        # the exact mean lies 7 * 2**-59 above a float32 rounding tie. numpy's
        # pairwise float64 sum adds the 2**-53 terms to the 1 one at a time,
        # loses each, and the mean rounds down; the sorted sum keeps them
        x = np.full((1, 64), 2.0**-23, np.float32)
        x[0, :3] = 1.0, 2.0**-24, 2.0**-22
        x[0, 8::8] = 2.0**-53
    elif kind == "float64":
        x = np.tanh(rng.standard_normal((6, 49)))
    return x


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("kind", ["zeros", "subnormals", "inf_nan", "wide_range",
                                  "float32_tie", "float64"])
def test_mean_gate_failing_input_sorts(kind):
    x = _gate_failing(kind)
    n, mag = x.shape[1], np.abs(x)
    assert x.dtype == np.float64 or not mag.max() * n < 2.0**29 * mag.min()
    want = _sorted_mean(x, (1,))
    if kind == "float32_tie":  # here an unsorted float64 sum is one ulp low
        plain = np.asarray(x.sum(axis=1, dtype=np.float64) / n, dtype=np.float32)
        assert plain < want
    assert ad.mean(Tensor(x), axis=-1).data.tobytes() == want.tobytes()
    for seed in range(5):
        perm = x[:, np.random.default_rng(seed).permutation(n)]
        assert ad.mean(Tensor(perm), axis=-1).data.tobytes() == want.tobytes()


# -- misc contracts --------------------------------------------------------------------


def test_elementwise_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.zeros((2, 2))), Tensor(np.zeros(4)))


def test_scalar_broadcast_allowed():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    out = ad.add(x, Tensor(np.array(1.5)))
    np.testing.assert_array_equal(out.data, np.full((2, 2), 2.5))
    _total(out).backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 2)))


def test_ops_keep_values_finite():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 5)) * 50
    for t in (
        ad.activation("silu", Tensor(x), np.zeros(5)),
        ad.activation("tanh", Tensor(x), np.zeros(5)),
        ad.softplus(Tensor(x)),
        ad.matmul(_ones_channel(standardize(x)),
                  ad.fold(Tensor(x.T), Tensor(np.ones(5)), Tensor(np.zeros(5)), 0)),
        Tensor(ad.softmax(x[0])),
    ):
        assert np.isfinite(t.data).all()


def test_determinism_same_graph_same_bits():
    def run():
        rng = np.random.default_rng(16)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((4, 3)))
        loss = _total(ad.activation("tanh", ad.matmul(w, x), np.zeros(3)))
        loss.backward()
        return loss.item(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)
