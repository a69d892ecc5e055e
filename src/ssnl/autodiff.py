"""Minimal dense-tensor reverse-mode automatic differentiation.

Each operation computes its value eagerly with numpy and records a closure
holding the local gradient rule; ``Tensor.backward`` replays the recorded
graph once in reverse topological order, accumulating adjoints additively
across fan-out. float64 is the precision used by every gradient check;
float32 is accepted for training speed.

Ops are batch-first and channels-last: they work on the trailing axes, with
channels on the last one, and carry any leading (batch) axes through, so one
patch and a mini-batch run the same code. ``conv1d`` takes (..., length,
channels) and ``conv2d`` takes ([batch,] h, w, channels). The only implicit
broadcasts are in the elementwise arithmetic, of a scalar or of a tensor's
trailing axes (a per-channel bias over positions and a batch).

Each convolution is written once. ``_windows`` zero-pads its input once and
returns the sliding-window view both convolutions read. The input gradient of
a zero same-padded convolution is the same convolution of the output gradient
with the kernel flipped in space (for ``conv2d``, with in and out channels
swapped too), so each backward pass calls the routine its forward pass uses.
``conv1d`` is contractions over its window view: its forward pass, its input
gradient (taps reversed) and its kernel gradient are each one ``einsum``.

``mean`` is exact, so it is order-invariant: each slot is summed in float64,
directly where that sum is provably exact (float32 input of a narrow
magnitude range), else after sorting. The logistic sigmoid in ``silu`` and in the
``softplus`` gradient is computed from one ``exp(-|x|)``, which cannot
overflow; ``softplus`` keeps the one its forward pass computed.
"""

from __future__ import annotations

from contextvars import ContextVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, ShapeError

_grad_enabled: ContextVar[bool] = ContextVar("ssnl_grad_enabled", default=True)


class no_grad:
    """Context manager that suspends graph recording (inference fast path).

    Values are computed identically; only the bookkeeping is skipped. The flag
    is a context variable, so it holds in the thread that entered it; another
    thread keeps recording.
    """

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


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

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self):
        return tsum(self)


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
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backprop=backprop)
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


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_trailing("mul", a, b)
    out_data = a.data * b.data

    def backprop(g):
        _accum(a, _lead_reduce(g * b.data, a.shape))
        _accum(b, _lead_reduce(g * a.data, b.shape))

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
        _accum(a, (g2 @ b2.T).reshape(a.shape))
        _accum(b, (a2.T @ g2).reshape(b.shape))

    return _make(out_data, (a, b), backprop)


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
    windows = _windows(x.data, k, axes)  # (..., length, channels, k)
    # (k, channels): tap j weighs window slot j. A copy, not the transposed
    # view: einsum's inner loop is fast only when channels are unit-stride in
    # both operands, as they are in the windows
    taps = np.ascontiguousarray(kernel.data.T)
    out_data = np.einsum("...lcj,jc->...lc", windows, taps)

    def backprop(g):
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


def conv2d(x, kernels) -> Tensor:
    """Cross-channel 2-d convolution with zero same-padding.

    ``x`` is (batch, h, w, in_channels) or one (h, w, in_channels) plane;
    ``kernels`` is (out_channels, in_channels, k, k) with k odd. The output
    has out_channels in place of in_channels.
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
    xb = x.data.reshape((-1,) + x.shape[-3:])
    cout, cin, k = kernels.shape[:3]
    cols = _im2col(xb, k)
    kern2 = kernels.data.transpose(0, 2, 3, 1).reshape(cout, k * k * cin)
    out_data = (cols @ kern2.T).reshape(x.shape[:-1] + (cout,))

    def backprop(g):
        g2 = g.reshape(-1, cout)
        _accum(kernels, (g2.T @ cols).reshape(cout, k, k, cin).transpose(0, 3, 1, 2))
        flipped = kernels.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * cout, cin)
        gcols = _im2col(g.reshape(xb.shape[:-1] + (cout,)), k)
        _accum(x, (gcols @ flipped).reshape(x.shape))

    return _make(out_data, (x, kernels), backprop)


# -- normalization and activations ---------------------------------------------


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance, then
    apply elementwise gain and bias."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm gain/bias must be ({n},), got {gain.shape} and {bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    d = x.data - mu
    # np.var's own subtract, square, sum and divide, with d computed once
    var = np.mean(np.square(d), axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = d * inv
    out_data = xhat * gain.data + bias.data

    def backprop(g):
        lead = tuple(range(x.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=lead))
        _accum(bias, g.sum(axis=lead))
        gxhat = g * gain.data
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * (gxhat - m1 - xhat * m2))

    return _make(out_data, (x, gain, bias), backprop)


def _sigmoid(d: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # one exp that never overflows, e = exp(-|d|) (passed in when the caller
    # has it): 1/(1+e) for d >= 0, where max(e, 1) is 1, and e/(1+e) below
    if e is None:
        e = np.exp(-np.abs(d))
    return np.maximum(e, d >= 0) / (1.0 + e)


def silu(x) -> Tensor:
    x = _coerce(x)
    s = _sigmoid(x.data)
    out_data = x.data * s

    def backprop(g):
        _accum(x, g * (s * (1.0 + x.data * (1.0 - s))))

    return _make(out_data, (x,), backprop)


def tanh(x) -> Tensor:
    x = _coerce(x)
    t = np.tanh(x.data)

    def backprop(g):
        _accum(x, g * (1.0 - t * t))

    return _make(t, (x,), backprop)


_ACTIVATIONS = {"silu": silu, "tanh": tanh}


def activation(kind: str, x) -> Tensor:
    """Apply the named elementwise nonlinearity (``silu`` or ``tanh``)."""
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ConfigError(f"unknown activation kind {kind!r}; expected one of "
                          f"{sorted(_ACTIVATIONS)}") from None
    return fn(x)


def softplus(x) -> Tensor:
    """log(1 + exp(x)), evaluated stably; maps any real to a positive value."""
    x = _coerce(x)
    e = np.exp(-np.abs(x.data))
    out_data = np.maximum(x.data, 0.0) + np.log1p(e)

    def backprop(g):
        _accum(x, g * _sigmoid(x.data, e))

    return _make(out_data, (x,), backprop)


def softmax(x) -> Tensor:
    """Exp-normalize the last axis via max subtraction; each row sums to one."""
    x = _coerce(x)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"softmax expects a non-empty last axis, got shape {x.shape}")
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def backprop(g):
        _accum(x, p * (g - (g * p).sum(axis=-1, keepdims=True)))

    return _make(p, (x,), backprop)


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


def tsum(x) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    x = _coerce(x)
    out_data = np.asarray(x.data.sum(), dtype=x.dtype)

    def backprop(g):
        _accum(x, np.full_like(x.data, g))

    return _make(out_data, (x,), backprop)


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
    # Each float32 value is a multiple of u, the ulp of the smallest magnitude,
    # which is below 2**24 u. With max|x| * count < 2**29 min|x|, every partial
    # sum is an integer below 2**53 times u: exact in float64 in any order, so
    # equal to the sorted sum. Zeros, inf, NaN and wide ranges fail the test.
    if mag is not None and float(mag.max()) * count < 2.0**29 * float(mag.min()):
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
        expanded = np.expand_dims(g, axes) if g.ndim else g
        _accum(x, (np.broadcast_to(expanded, x.shape) / count).astype(x.dtype))

    return _make(out_data, (x,), backprop)


def reshape(x, shape) -> Tensor:
    x = _coerce(x)
    out_data = x.data.reshape(shape)

    def backprop(g):
        _accum(x, g.reshape(x.shape))

    return _make(out_data, (x,), backprop)


def transpose(x, axes=None) -> Tensor:
    x = _coerce(x)
    axes_t = tuple(axes) if axes is not None else tuple(reversed(range(x.ndim)))
    inverse = tuple(np.argsort(axes_t))
    out_data = np.transpose(x.data, axes_t)

    def backprop(g):
        _accum(x, np.transpose(g, inverse))

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
