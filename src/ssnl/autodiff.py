"""Minimal dense-tensor reverse-mode automatic differentiation.

Each operation computes its value eagerly with numpy and, exactly when an
input requires a gradient, records a closure holding the local gradient rule
(inference runs on ``model.ModelParams.frozen`` and records nothing);
``Tensor.backward`` replays the recorded graph once in reverse topological
order, accumulating adjoints additively across fan-out. float64 is the
precision used by every gradient check; float32 is accepted for training speed.

Ops are batch-first and channels-last: they work on the trailing axes, with
channels on the last one, and carry any leading (batch) axes through, so one
patch and a mini-batch run the same code. ``conv1d`` takes (..., length,
channels) and ``conv2d`` takes ([batch,] h, w, channels). The only implicit
broadcasts are in the elementwise arithmetic, of a scalar or of a tensor's
trailing axes (a per-channel bias over positions and a batch).

Each convolution is written once. ``_windows`` zero-pads its input once and
returns the sliding-window view both convolutions read. For a zero same-padded
convolution, the input gradient convolves the output gradient with the kernel
flipped in space (for ``conv2d``, in and out channels swapped too), and the
kernel gradient correlates the output gradient with the input. ``conv1d``
computes each as one ``einsum`` over a window view, padding again in its
backward pass rather than keeping the padded copy; ``conv2d`` takes both from
the output gradient's im2col columns, so its forward pass keeps no columns.
``conv2d``'s forward pass is two steps: ``_channel_taps``, one GEMM of every
pixel with the (in, k*k*out) kernel matrix, gives each pixel's output through
each tap; ``_tap_sum`` adds, for each cell, the taps its neighbours send it.
The first step is per pixel, so scene inference (``model.predict_pixels``)
runs it once per scene pixel; it sums the taps itself, once per scene pixel
and boundary class, by the shifted sum it also uses for the sequence conv.

An input that needs no gradient gets none: ``_make`` links only the inputs
that need one, so data is never a graph node, and ``matmul`` and ``conv2d``
form no GEMM for a gradient nobody reads. ``fold`` puts the model's first op,
a learned ``gain`` and ``bias`` on data ``xhat`` (the standardized input), on
the weight side. By linearity ``(xhat * gain + bias) @ W`` is
``[xhat, 1] @ fold(W, gain, bias, 0)``: the consumers of the standardized
input take data with a ones channel appended, which carries the bias, and a
folded weight. In ``conv2d`` zero padding gives that channel the meaning of a
bias per pixel, since only in-window cells send their taps. With W viewed as
(in, rest), and gW and gc the first ``in`` rows and the last row of the
output gradient: ``dW = gain * gW + bias * gc``, ``d gain = (gW * W).sum(1)``
and ``d bias = W @ gc``. ``activation`` is the one nonlinear op: a bias, silu
or tanh, and optionally a tanh on top, as one node; every chain of the model
is one. ``softmax`` is a function of data, not a node.

``mean`` is exact, so it is order-invariant: each slot is summed in float64,
directly where that sum is provably exact (float32 input of a narrow
magnitude range), else after sorting. The logistic sigmoid in silu and in the
``softplus`` gradient is ``0.5 * tanh(0.5 * x) + 0.5``: four elementwise passes
over one new array, with no exp to overflow.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, ShapeError


def _as_array(data) -> np.ndarray:
    if type(data) is np.ndarray and data.dtype.kind == "f":
        return data
    arr = np.asarray(data)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """Dense n-d float array with a gradient slot and graph bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False, *, _parents=(), _backprop=None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backprop = _backprop

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def grad_array(self) -> np.ndarray:
        """Gradient of the last backward pass; zeros if this leaf was unreached."""
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # -- graph replay ------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        ``self`` must be scalar; each graph node is visited exactly once. An
        interior node's adjoint is released once it has been passed on, so only
        ``self`` and the leaves keep a ``grad``.
        """
        if self.data.shape != ():
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        self.grad = np.ones((), dtype=self.data.dtype)
        for node in _reverse_topo(self):
            if node._backprop is not None and node.grad is not None:
                node._backprop(node.grad)
                if node is not self:
                    node.grad = None


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _reverse_topo(root: Tensor):
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return reversed(order)


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _make(data, parents, backprop) -> Tensor:
    linked = tuple(p for p in parents if p.requires_grad)
    if linked:
        return Tensor(data, requires_grad=True, _parents=linked, _backprop=backprop)
    return Tensor(data)


def _check_trailing(name: str, a: Tensor, b: Tensor):
    # one shape must be the trailing axes of the other (a scalar has none)
    short, long = sorted((a.shape, b.shape), key=len)
    if long[len(long) - len(short):] != short:
        raise ShapeError(f"{name} shapes differ: {a.shape} vs {b.shape}")


def _lead_reduce(g: np.ndarray, shape) -> np.ndarray:
    # adjoint of a broadcast of `shape` over leading axes into `g.shape`
    if g.shape == shape:
        return g
    return np.asarray(g.sum(axis=tuple(range(g.ndim - len(shape)))), dtype=g.dtype)


# -- elementwise arithmetic --------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_trailing("add", a, b)
    out_data = a.data + b.data

    def backprop(g):
        _accum(a, _lead_reduce(g, a.shape))
        _accum(b, _lead_reduce(g, b.shape))

    return _make(out_data, (a, b), backprop)


# -- linear algebra -----------------------------------------------------------


def matmul(a, b) -> Tensor:
    """(..., k) @ (k, n) -> (..., n) and (..., k) @ (k,) -> (...); the leading
    axes fold into one matrix, so a batch costs a single BLAS call."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 1 or b.ndim not in (1, 2):
        raise ShapeError(f"matmul expects (..., k) @ (k, n) or (k,), got {a.shape} @ {b.shape}")
    k = b.shape[0]
    if a.shape[-1] != k:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    b2 = b.data.reshape(k, -1)
    a2 = a.data.reshape(-1, k)
    out_data = (a2 @ b2).reshape(a.shape[:-1] + b.shape[1:])

    def backprop(g):
        g2 = g.reshape(-1, b2.shape[1])
        if a.requires_grad:
            _accum(a, (g2 @ b2.T).reshape(a.shape))
        if b.requires_grad:
            _accum(b, (a2.T @ g2).reshape(b.shape))

    return _make(out_data, (a, b), backprop)


def fold(w, gain, bias, axis: int) -> Tensor:
    """The weight that ``w`` is on ``xhat * gain + bias``, for the input
    ``[xhat, 1]`` (a ones channel appended): ``w``'s input-channel slices
    along ``axis``, each scaled by its ``gain``, then one more slice,
    ``sum(bias * w)`` over them (see the module docstring)."""
    w, gain, bias = _coerce(w), _coerce(gain), _coerce(bias)
    n = w.shape[axis]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"fold gain/bias must be ({n},), got {gain.shape} and {bias.shape}")
    moved = w.data.swapaxes(0, axis)
    w2 = moved.reshape(n, -1)  # (in, rest)
    out2 = np.concatenate([gain.data[:, None] * w2, (bias.data @ w2)[None]])
    out_data = out2.reshape((n + 1,) + moved.shape[1:]).swapaxes(0, axis)

    def backprop(g):
        g2 = g.swapaxes(0, axis).reshape(n + 1, -1)
        gw, gc = g2[:n], g2[n]
        _accum(gain, (gw * w2).sum(axis=1))
        _accum(bias, w2 @ gc)
        dw = gain.data[:, None] * gw + bias.data[:, None] * gc
        _accum(w, dw.reshape(moved.shape).swapaxes(0, axis))

    return _make(out_data, (w, gain, bias), backprop)


# -- convolutions --------------------------------------------------------------


def _windows(a: np.ndarray, k: int, axes: tuple[int, ...]) -> np.ndarray:
    """Read-only view of the k-wide windows of ``a`` along ``axes`` (as trailing
    axes), over one copy zero-padded by k // 2 on each side of those axes."""
    pad = k // 2
    padded = np.zeros([n + 2 * pad * (i in axes) for i, n in enumerate(a.shape)], a.dtype)
    padded[tuple(slice(pad, pad + n) if i in axes else slice(None)
                 for i, n in enumerate(a.shape))] = a
    return sliding_window_view(padded, (k,) * len(axes), axis=axes)


def conv1d(x, kernel) -> Tensor:
    """Depthwise 1-d convolution along the length axis with zero same-padding.

    ``x`` is (..., length, channels), ``kernel`` is (channels, k) with k odd;
    each channel is convolved with its own kernel, output length equals input
    length (cross-correlation orientation).
    """
    x, kernel = _coerce(x), _coerce(kernel)
    if x.ndim < 2 or kernel.ndim != 2:
        raise ShapeError(f"conv1d expects (..., L, C) and (C, k), got {x.shape} and {kernel.shape}")
    if kernel.shape[1] % 2 == 0:
        raise ConfigError(f"conv1d kernel width must be odd, got {kernel.shape[1]}")
    if x.shape[-1] != kernel.shape[0]:
        raise ShapeError(
            f"conv1d channel counts differ: input {x.shape} vs kernel {kernel.shape}"
        )
    k, axes = kernel.shape[1], (x.ndim - 2,)
    # (k, channels): tap j weighs window slot j. A copy, not the transposed
    # view: einsum's inner loop is fast only when channels are unit-stride in
    # both operands, as they are in the windows
    taps = np.ascontiguousarray(kernel.data.T)
    out_data = np.einsum("...lcj,jc->...lc", _windows(x.data, k, axes), taps)

    def backprop(g):
        # pads again, so the padded copy is not kept between the passes
        windows = _windows(x.data, k, axes)  # (..., length, channels, k)
        rows = windows.shape[-3:]  # the leading axes merge without a copy
        _accum(kernel, np.einsum("blc,blcj->cj", g.reshape((-1,) + rows[:2]),
                                 windows.reshape((-1,) + rows)))
        _accum(x, np.einsum("...lcj,jc->...lc", _windows(g, k, axes), taps[::-1]))

    return _make(out_data, (x, kernel), backprop)


def _im2col(a: np.ndarray, k: int) -> np.ndarray:
    # (batch, h, w, c) -> one (batch*h*w, k*k*c) matrix, so a whole batch is
    # one matmul and every copy moves contiguous channel runs
    windows = _windows(a, k, (1, 2))  # (batch, h, w, c, k, k)
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k * k * a.shape[-1])


def _channel_taps(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """The per-pixel step of ``conv2d``: (..., in) -> (..., k, k, out), what
    each pixel sends through every tap, as one GEMM over all pixels."""
    cout, cin, k = kernels.shape[:3]
    mix = kernels.transpose(1, 2, 3, 0).reshape(cin, k * k * cout)
    return (x.reshape(-1, cin) @ mix).reshape(x.shape[:-1] + (k, k, cout))


def _tap_sum(taps: np.ndarray) -> np.ndarray:
    """The window step of ``conv2d``: (..., h, w, k, k, out) per-tap outputs to
    (..., h, w, out). Cell (i, j) adds tap (a, b) of cell (i + a - k//2,
    j + b - k//2), taps in raster order from zeros; a cell outside the grid
    adds nothing."""
    h, w, k = taps.shape[-5:-2]
    out = np.zeros(taps.shape[:-5] + (h, w, taps.shape[-1]), taps.dtype)
    for a, b in np.ndindex(k, k):
        di, dj = a - k // 2, b - k // 2
        if abs(di) < h and abs(dj) < w:
            out[..., max(-di, 0):h - max(di, 0), max(-dj, 0):w - max(dj, 0), :] += \
                taps[..., max(di, 0):h - max(-di, 0), max(dj, 0):w - max(-dj, 0), a, b, :]
    return out


def conv2d(x, kernels) -> Tensor:
    """Cross-channel 2-d convolution with zero same-padding.

    ``x`` is (batch, h, w, in_channels) or one (h, w, in_channels) plane;
    ``kernels`` is (out_channels, in_channels, k, k) with k odd. The output
    has out_channels in place of in_channels. The forward pass is
    ``_tap_sum(_channel_taps(x))``; the per-tap array is freed on return.
    """
    x, kernels = _coerce(x), _coerce(kernels)
    if x.ndim not in (3, 4) or kernels.ndim != 4:
        raise ShapeError(f"conv2d expects ([B,] h, w, C) and 4-d kernels, got {x.shape}, {kernels.shape}")
    if kernels.shape[2] != kernels.shape[3]:
        raise ShapeError(f"conv2d kernels must be square, got {kernels.shape}")
    if kernels.shape[2] % 2 == 0:
        raise ConfigError(f"conv2d kernel width must be odd, got {kernels.shape[2]}")
    if x.shape[-1] != kernels.shape[1]:
        raise ShapeError(
            f"conv2d channel counts differ: input {x.shape} vs kernels {kernels.shape}"
        )
    cout, cin, k = kernels.shape[:3]
    out_data = _tap_sum(_channel_taps(x.data, kernels.data))
    g_shape, rows = (-1,) + x.shape[-3:-1] + (cout,), x.data.reshape(-1, cin)

    def backprop(g):
        gcols = _im2col(g.reshape(g_shape), k)
        if x.requires_grad:
            flipped = kernels.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)
            _accum(x, (gcols @ flipped.reshape(k * k * cout, cin)).reshape(x.shape))
        if kernels.requires_grad:
            grad_k = gcols.T @ rows  # (k*k*out, in), taps in flipped order
            _accum(kernels, grad_k.reshape(k, k, cout, cin)[::-1, ::-1].transpose(2, 3, 0, 1))

    return _make(out_data, (x, kernels), backprop)


# -- the model's input and activations ------------------------------------------


def _sigmoid(d: np.ndarray) -> np.ndarray:
    # 0.5 * tanh(0.5 * d) + 0.5: four passes over one new array, and no exp
    # to overflow
    s = np.multiply(d, 0.5, out=np.empty_like(d))
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def _act(kind: str, d: np.ndarray) -> np.ndarray:
    """silu or tanh of ``d``, in one new array."""
    if kind == "tanh":
        return np.tanh(d, out=np.empty_like(d))
    s = _sigmoid(d)
    s *= d
    return s


def _slope(kind: str, d: np.ndarray | None, out: np.ndarray | None = None) -> np.ndarray:
    """The activation's slope at its input ``d``, in one new array; tanh's
    from its output ``out`` if given."""
    if kind == "silu":
        s = _sigmoid(d)
        slope = np.subtract(1.0, s)  # s * (1 + d * (1 - s))
        slope *= d
        slope += 1.0
        slope *= s
        return slope
    t = np.tanh(d) if out is None else out
    sq = np.multiply(t, t, out=np.empty_like(t))
    return np.subtract(1.0, sq, out=sq)


def activation(kind: str, x, b, tanh_after: bool = False) -> Tensor:
    """The named nonlinearity (``silu`` or ``tanh``) with a bias ``b`` over
    the trailing axes, as one node: ``act(x + b)``, or ``tanh(act(x) + b)``
    with ``tanh_after``. It keeps only ``x`` and its output, and backward
    recomputes the slope. Every pass after a first writes into an array the
    node allocated: never into ``x``, the output, the incoming gradient or an
    array already passed on."""
    if kind not in ("silu", "tanh"):
        raise ConfigError(f"unknown activation kind {kind!r}; expected silu or tanh")
    x, b = _coerce(x), _coerce(b)
    if x.shape[x.ndim - b.ndim:] != b.shape:  # the output is x's shape
        raise ShapeError(f"activation bias {b.shape} is not the trailing axes of {x.shape}")
    if tanh_after:
        out_data = _act(kind, x.data)
        out_data += b.data
        np.tanh(out_data, out=out_data)
    else:
        out_data = _act(kind, x.data + b.data)

    def backprop(g):
        gs = (_slope("tanh", None, out_data) if tanh_after
              else _slope(kind, x.data + b.data, out_data))
        gs *= g
        _accum(b, _lead_reduce(gs, b.shape))
        if tanh_after:  # into the new slope, not gs, which b's grad may now be
            slope = _slope(kind, x.data)
            slope *= gs
            gs = slope
        _accum(x, gs)

    return _make(out_data, (x, b), backprop)


def softplus(x) -> Tensor:
    """log(1 + exp(x)), evaluated stably; maps any real to a positive value."""
    x = _coerce(x)
    out_data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))

    def backprop(g):
        _accum(x, g * _sigmoid(x.data))

    return _make(out_data, (x,), backprop)


def softmax(x: np.ndarray) -> np.ndarray:
    """Exp-normalize the last axis of data via max subtraction; each row sums
    to one. Not a graph node: training differentiates ``cross_entropy``."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits, targets) -> Tensor:
    """Mean over rows of -log softmax(logits)[target], max-stabilized.

    ``logits`` is (batch, classes) with ``targets`` an integer array of
    0-based class indices, or one (classes,) row with an integer target.
    """
    x = _coerce(logits)
    if x.ndim not in (1, 2) or x.shape[-1] < 1:
        raise ShapeError(f"cross_entropy expects (classes,) or (batch, classes), got {x.shape}")
    rows = x.data.reshape(-1, x.shape[-1])
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if targets.shape != (rows.shape[0],):
        raise ShapeError(f"cross_entropy got {targets.size} targets for {rows.shape[0]} rows")
    if ((targets < 0) | (targets >= rows.shape[1])).any():
        raise ContractError(f"cross_entropy target outside [0, {rows.shape[1]})")
    picked = np.arange(rows.shape[0]), targets
    z = rows - rows.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1)
    out_data = np.asarray((np.log(total) - z[picked]).mean(), dtype=x.dtype)

    def backprop(g):
        gx = e / total[:, None]
        gx[picked] -= 1.0
        _accum(x, (gx * (g / rows.shape[0])).reshape(x.shape))

    return _make(out_data, (x,), backprop)


# -- reductions and shape ops ----------------------------------------------------


def _sum_is_exact(lo, hi, count: int) -> bool:
    """Whether a float64 sum of any ``count`` float32 values of magnitudes in
    [lo, hi] is exact in any order, so equal to the sorted sum.

    Each such value is a multiple of u, the ulp of ``lo``, which is below
    2**24 u. With hi * count < 2**29 lo, every partial sum is an integer below
    2**53 times u, which float64 holds exactly. Zeros, inf, NaN and wide
    ranges fail the test."""
    return float(hi) * count < 2.0**29 * float(lo)


def mean(x, axis=None) -> Tensor:
    """Arithmetic mean, order-invariant: each slot's values are summed exactly
    in float64 and divided, then cast back to the input dtype, so permuting the
    reduced axes, or the batch the slot sits in, leaves the result bitwise
    unchanged. The sum is a plain float64 sum where that is provably exact
    (float32 input of a narrow magnitude range), else a sum of sorted values.

    ``axis`` may be None (all elements, scalar result), an int, or a tuple.
    """
    x = _coerce(x)
    if axis is None:
        axes = tuple(range(x.ndim))
    elif isinstance(axis, int):
        axes = (axis % x.ndim,)
    else:
        axes = tuple(a % x.ndim for a in axis)
    keep = tuple(i for i in range(x.ndim) if i not in axes)
    count = int(np.prod([x.shape[a] for a in axes], dtype=np.int64))
    mag = np.abs(x.data) if x.dtype == np.float32 and x.size else None
    if mag is not None and _sum_is_exact(mag.min(), mag.max(), count):
        total = x.data.sum(axis=axes, dtype=np.float64)
    else:
        # C order keeps each slot's values contiguous, so the float64 sum runs
        # the same way over them whatever the layout of the input
        rows = np.array(np.transpose(x.data, keep + axes).reshape(
            tuple(x.shape[i] for i in keep) + (count,)), dtype=np.float64, order="C")
        rows.sort(axis=-1)
        total = rows.sum(axis=-1)
    out_data = np.asarray(total / count, dtype=x.dtype)

    def backprop(g):
        # a read-only view: the quotient is cast on the small array, not spread
        _accum(x, np.broadcast_to(np.expand_dims((g / count).astype(x.dtype), axes), x.shape))

    return _make(out_data, (x,), backprop)


def reshape(x, shape) -> Tensor:
    x = _coerce(x)
    out_data = x.data.reshape(shape)

    def backprop(g):
        _accum(x, g.reshape(x.shape))

    return _make(out_data, (x,), backprop)


def transpose(x) -> Tensor:
    x = _coerce(x)
    out_data = x.data.T

    def backprop(g):
        _accum(x, g.T)

    return _make(out_data, (x,), backprop)


def flip(x, axis: int = 0) -> Tensor:
    x = _coerce(x)
    out_data = np.flip(x.data, axis=axis).copy()

    def backprop(g):
        _accum(x, np.flip(g, axis=axis))

    return _make(out_data, (x,), backprop)


def concat(tensors) -> Tensor:
    """Concatenate along the last axis; the leading axes must agree."""
    tensors = [_coerce(t) for t in tensors]
    for t in tensors:
        if t.ndim < 1 or t.shape[:-1] != tensors[0].shape[:-1]:
            raise ShapeError(f"concat expects equal leading axes, got shape {t.shape} "
                             f"beside {tensors[0].shape}")
    out_data = np.concatenate([t.data for t in tensors], axis=-1)

    def backprop(g):
        offset = 0
        for t in tensors:
            width = t.shape[-1]
            _accum(t, g[..., offset:offset + width])
            offset += width

    return _make(out_data, tuple(tensors), backprop)


# -- checking -----------------------------------------------------------------


def grad_check(fn, inputs, step: float = 1e-6) -> float:
    """Worst relative error between tape gradients and central differences.

    ``fn`` must be a pure, deterministic function of the given leaf tensors
    returning a scalar tensor. The error denominator is
    ``max(1e-8, |analytic| + |numeric|)`` per coordinate.
    """
    inputs = list(inputs)
    for t in inputs:
        t.zero_grad()
    loss = fn(*inputs)
    loss.backward()
    analytic = [t.grad_array().copy() for t in inputs]

    worst = 0.0
    for t, ga in zip(inputs, analytic):
        if not t.requires_grad:
            continue
        for idx in np.ndindex(t.data.shape):
            orig = t.data[idx]
            t.data[idx] = orig + step
            up = fn(*inputs).item()
            t.data[idx] = orig - step
            down = fn(*inputs).item()
            t.data[idx] = orig
            numeric = (up - down) / (2.0 * step)
            a = float(ga[idx])
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
