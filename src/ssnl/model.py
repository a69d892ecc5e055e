"""Bidirectional spectral-spatial classifier over hyperspectral patches.

A patch is flattened to a sequence of per-pixel spectra, each standardized
(``data.standardize``) and scaled by a learned per-band gain and bias, and
linearly projected twice. One projection runs through a depthwise 1-d
convolution + activation in sequence order; the other runs through its own
kernel in reversed sequence order. Each direction gets an additive learned
modulation (a dense mix of softplus-positive per-channel deltas) inside a
tanh state update, then is mean-reduced over the sequence. In parallel, a
2-d convolutional branch pools the normalized patch plane into a spatial
descriptor. The concatenated descriptor feeds a one-hidden-layer softmax
classifier. Forward/backward/spatial branches can be disabled independently
for ablations; the classifier is dimensioned at init from those flags.

The reversal is carried by the kernel, not by the sequence: with zero
same-padding and an odd width, ``conv1d(flip(z), K) == flip(conv1d(z,
K[:, ::-1]))``, and every later step is per position or the order-invariant
mean, with a modulation that does not depend on the input. So the paper's two
directions are two independent forward blocks that differ only in their
parameters (``_directions``). An order-dependent state, such as a scan, would
break this; the model has none.

Every stage takes one patch or a batch of patches (a leading axis), channels
last: the pixel sequence is (..., p*p, bands), its projections (..., p*p,
hidden) and the spatial grid (..., p, p, bands), so per-channel biases and the
delta modulation add by trailing broadcast, with no transposes.
``model_forward`` returns the class probabilities and the logits; a caller that
needs an intermediate value calls the stage it comes from (``_spatial_pool``,
``_spectral_window``, ``_classify``).

The model splits into a pixel stage and a window stage. The pixel stage is
per pixel: the standardized spectrum's gain and bias, both projections, and
the spatial conv's channel mix (``autodiff._channel_taps``, one GEMM to
per-tap outputs). The statistics are data, computed outside the graph:
``model_forward`` standardizes its raw windows, ``train`` the scene once,
both with a ones channel appended (``_with_ones``), and ``predict_pixels``
each band of the padded scene. The window stage is the rest: each
direction's conv1d, activation, modulation, tanh and mean; the window-local
tap sum (``autodiff._tap_sum``), bias, activation and pool; the classifier.
``_forward`` (``model_forward``, and training) runs both on gathered
windows, the conv's two steps inside ``ad.conv2d``, the pixel stage of both
branches first. It folds the gain and bias into the conv's and the
projections' weights (``ad.fold``), which multiply the windows' ones channel
by the bias, so no scaled copy of the batch is made and the graph holds no
node of the batch. ``predict_pixels`` records no graph: it scales each
band's standardized pixels by the gain and bias in numpy. It runs the pixel
stage once per pixel of the padded scene, in fixed bands. Each per-cell
chain of the window stage depends only on the pixel and on the cell's
boundary class, which of its neighbours lie inside its window: one rule for
both convolutions (``_cell_classes``; at most 9 classes for the spatial conv
and 5 for the sequence conv at kernel width 3). So it runs once per band
pixel and class, on one sum of shifted per-tap terms (``_class_table``).
One routine per branch and band, ``_class_means``, takes the window means:
each class's table, shifted by each cell's offset, adds into one float64 sum
per window, exact where the tables' magnitude range allows it and so bitwise
``ad.mean``, with no window gathered; else ``ad.mean`` takes each
INFERENCE_CHUNK of gathered windows. Each run of INFERENCE_CHUNK windows is
classified as one batch.

Parameters live in one vector, ``ModelParams.flat``; each named tensor is a
view of its slice, in ``expected_shapes`` order, the one statement of that
order. Adam and the gradient clip update ``flat`` once per step. Assign values
in place (``t.data[...] = v``): rebinding ``t.data`` detaches it from ``flat``.

Checkpoint format: ASCII magic line ``SSNLCKPT1\\n``; one ASCII config line
with all ModelConfig fields space-separated in field order (bools as 0/1),
each read back by ``parse_field``, the same reader the CLI's ``--set`` uses;
then every parameter tensor in ``expected_shapes`` order, each as an ASCII
shape line followed by little-endian 32-bit floats, all of them finite.
"""

from __future__ import annotations

import copy
import math
from dataclasses import Field, dataclass, fields
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import HsiCube, _pad_scene, seeded_rng, standardize
from .errors import (ConfigError, ContractError, FormatError, MagicError, NumericalError,
                     ShapeError, TruncatedError)

CHECKPOINT_MAGIC = b"SSNLCKPT1\n"
INFERENCE_CHUNK = 32  # patches per batched inference forward
BAND_CHUNKS = 12      # least inference chunks per band of predict_pixels


@dataclass
class ModelConfig:
    bands: int
    num_classes: int
    patch_size: int = 5
    hidden_dim: int = 64
    seq_kernel: int = 3
    spatial_channels: int = 32
    spatial_kernel: int = 3
    classifier_hidden: int = 128
    activation: str = "silu"
    forward_on: bool = True
    backward_on: bool = True
    spatial_on: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name in ("bands", "hidden_dim", "seq_kernel", "spatial_channels",
                     "spatial_kernel", "classifier_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be at least 2")
        if self.patch_size % 2 == 0 or self.patch_size < 1:
            raise ConfigError(f"patch_size must be odd and positive, got {self.patch_size}")
        if self.seq_kernel % 2 == 0:
            raise ConfigError(f"seq_kernel must be odd, got {self.seq_kernel}")
        if self.spatial_kernel % 2 == 0:
            raise ConfigError(f"spatial_kernel must be odd, got {self.spatial_kernel}")
        if self.activation not in ("silu", "tanh"):
            raise ConfigError(f"activation must be silu or tanh, got {self.activation!r}")
        if not (self.forward_on or self.backward_on or self.spatial_on):
            raise ConfigError("at least one of forward/backward/spatial must be enabled")

    @property
    def spectral_on(self) -> bool:
        return self.forward_on or self.backward_on

    @property
    def feature_dim(self) -> int:
        """Classifier input width under the current ablation flags."""
        dim = 0
        if self.spatial_on:
            dim += self.spatial_channels
        if self.spectral_on:
            dim += self.hidden_dim
        return dim


def parse_field(f: Field, text: str):
    """Read one config field from text by its declared type: ``int``,
    ``float``, ``str``, ``bool`` (``0``/``1``/``true``/``false``), or
    ``... | None``, which also reads ``none``. Raises ValueError on text the
    type refuses."""
    kind = str(f.type)
    if kind.endswith(" | None"):
        if text.lower() == "none":
            return None
        kind = kind.removesuffix(" | None")
    if kind == "bool":
        if text.lower() not in ("0", "1", "true", "false"):
            raise ValueError(f"not a bool: {text!r}")
        return text.lower() in ("1", "true")
    return {"int": int, "float": float, "str": str}[kind](text)


class ModelParams:
    """Every learnable tensor, as autodiff leaves whose data are views of one
    vector, ``flat``, sliced in ``expected_shapes`` order (see the module
    docstring); ``frozen`` views them as leaves that need no gradient.

    All tensors exist regardless of ablation flags (so checkpoints are flag
    independent in layout); only the classifier input width follows the flags.
    """

    def __init__(self, flat: np.ndarray, config: ModelConfig):
        self.flat = flat
        self._tensors: dict[str, Tensor] = {}
        offset = 0
        for name, shape in expected_shapes(config).items():
            size = math.prod(shape)
            self._tensors[name] = Tensor(flat[offset:offset + size].reshape(shape),
                                        requires_grad=True)
            offset += size
        self.__dict__.update(self._tensors)

    def named_tensors(self):
        """(name, tensor) pairs in ``expected_shapes`` order."""
        return self._tensors.items()

    def frozen(self) -> ModelParams:
        """The same parameters as leaves that need no gradient, each on its
        tensor's current ``data`` (no copy): ops on them record no graph."""
        view = copy.copy(self)
        view._tensors = {name: Tensor(t.data) for name, t in self._tensors.items()}
        view.__dict__.update(view._tensors)
        return view

    @property
    def dtype(self):
        return self.flat.dtype

    def zero_grads(self):
        for t in self._tensors.values():
            t.zero_grad()

    def flat_grad(self) -> np.ndarray:
        """Every leaf's gradient in ``flat`` order; zeros for an unreached leaf."""
        return np.concatenate([t.grad_array().ravel() for t in self._tensors.values()])


def expected_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter tensor, in the one parameter order: the order of
    ``ModelParams.flat``, of ``init_model``'s draws and of the checkpoint."""
    ch, d = config.bands, config.hidden_dim
    s, hc, k = config.spatial_channels, config.classifier_hidden, config.num_classes
    return {
        "norm_gain": (ch,),
        "norm_bias": (ch,),
        "proj_fwd": (ch, d),          # projection feeding the forward path
        "proj_bwd": (ch, d),          # projection feeding the reversed path
        "kernel_fwd": (d, config.seq_kernel),  # depthwise sequence kernels
        "kernel_bwd": (d, config.seq_kernel),
        "mix_fwd": (d, d),            # modulation mix of each direction
        "mix_bwd": (d, d),
        "delta_raw": (d,),            # softplus-mapped to the positive deltas
        "spatial_kernels": (s, ch, config.spatial_kernel, config.spatial_kernel),
        "spatial_bias": (s,),
        "classifier_w1": (hc, config.feature_dim),
        "classifier_b1": (hc,),
        "classifier_w2": (k, hc),
        "classifier_b2": (k,),
    }


_FAN_IN = {
    "proj_fwd": lambda c: c.bands,
    "proj_bwd": lambda c: c.bands,
    "kernel_fwd": lambda c: c.seq_kernel,
    "kernel_bwd": lambda c: c.seq_kernel,
    "mix_fwd": lambda c: c.hidden_dim,
    "mix_bwd": lambda c: c.hidden_dim,
    "spatial_kernels": lambda c: c.bands * c.spatial_kernel ** 2,
    "classifier_w1": lambda c: c.feature_dim,
    "classifier_w2": lambda c: c.classifier_hidden,
}


def init_model(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Seed-deterministic initialization: weight matrices and kernels uniform in
    (-1/sqrt(fan_in), +1/sqrt(fan_in)); norm gain ones; deltas and biases zero."""
    config.validate()
    rng = seeded_rng(seed)
    arrays = []
    for name, shape in expected_shapes(config).items():
        if name in _FAN_IN:
            bound = 1.0 / np.sqrt(_FAN_IN[name](config))
            arrays.append(rng.uniform(-bound, bound, size=shape))
        elif name == "norm_gain":
            arrays.append(np.ones(shape))
        else:
            arrays.append(np.zeros(shape))
    return ModelParams(np.concatenate([a.ravel() for a in arrays]).astype(dtype), config)


# -- forward stages ------------------------------------------------------------------


def _patch_array(patch, config: ModelConfig, dtype) -> np.ndarray:
    arr = np.asarray(patch)
    want = (config.patch_size, config.patch_size, config.bands)
    if arr.ndim not in (3, 4) or arr.shape[-3:] != want:
        raise ShapeError(
            f"patch shape {arr.shape} does not match config {want} "
            f"or (batch, {want[0]}, {want[1]}, {want[2]})"
        )
    return arr.astype(dtype, copy=False)


def _directions(params: ModelParams, config: ModelConfig) -> list[tuple[Tensor, Tensor, Tensor]]:
    """(projection, kernel, modulation) of each enabled direction; the
    modulation, (hidden,), is the direction's mix of the softplus deltas. The
    backward direction reads the sequence last pixel first: it is the forward
    block with ``kernel_bwd``'s taps reversed, a (hidden, k) flip (see the
    module docstring)."""
    table = []
    if config.forward_on:
        table.append((params.proj_fwd, params.kernel_fwd, params.mix_fwd))
    if config.backward_on:
        table.append((params.proj_bwd, ad.flip(params.kernel_bwd, axis=-1), params.mix_bwd))
    return [(proj, kernel, ad.matmul(mix, ad.softplus(params.delta_raw)))
            for proj, kernel, mix in table]


def _spectral_window(blocks: list[tuple[Tensor, Tensor, Tensor]], config: ModelConfig) -> Tensor:
    """Window stage of the spectral block. Each (sequence, kernel, modulation)
    block, one direction's (..., p*p, hidden) window projections and weights,
    goes through a depthwise conv over the sequence, the state chain
    (activation, additive delta modulation, tanh: one graph node) and a mean
    over the sequence; the means are summed."""
    means = [ad.mean(ad.activation(config.activation, ad.conv1d(z, kernel), modulation,
                                   tanh_after=True), axis=-2)
             for z, kernel, modulation in blocks]
    return means[0] if len(means) == 1 else ad.add(*means)


def _spatial_pool(conv: Tensor, params: ModelParams, config: ModelConfig) -> Tensor:
    """Window stage of the spatial branch after the convolution: bias and
    activation (one graph node), then global average pooling of (..., p, p,
    channels)."""
    state = ad.activation(config.activation, conv, params.spatial_bias)
    return ad.mean(state, axis=(-3, -2))


def _classify(parts: list[Tensor], params: ModelParams,
              config: ModelConfig) -> tuple[Tensor, Tensor]:
    """The classifier on the concatenated descriptors: probabilities, logits."""
    h_final = parts[0] if len(parts) == 1 else ad.concat(parts)
    hidden = ad.activation(config.activation,
                           ad.matmul(h_final, ad.transpose(params.classifier_w1)),
                           params.classifier_b1)
    logits = ad.add(ad.matmul(hidden, ad.transpose(params.classifier_w2)),
                    params.classifier_b2)
    return Tensor(ad.softmax(logits.data)), logits


def model_forward(patch, params: ModelParams,
                  config: ModelConfig) -> tuple[Tensor, Tensor]:
    """Full pass on raw (band-scaled) input: ``patch`` is one (p, p, bands)
    patch or a (batch, p, p, bands) stack, standardized here pixel by pixel
    (``data.standardize``). Returns the softmax probabilities and the logits,
    (classes,) or (batch, classes)."""
    return _forward(_with_ones(standardize(_patch_array(patch, config, params.dtype))),
                    params, config)


def _with_ones(xhat: np.ndarray) -> np.ndarray:
    """``xhat`` with a ones channel appended to its last axis: the input
    ``[xhat, 1]`` that weights folded by ``ad.fold`` multiply."""
    return np.concatenate([xhat, np.ones(xhat.shape[:-1] + (1,), xhat.dtype)], axis=-1)


def _forward(xhat: np.ndarray, params: ModelParams,
             config: ModelConfig) -> tuple[Tensor, Tensor]:
    """``model_forward`` on standardized windows with a ones channel
    (``_with_ones``), ``xhat``, ([batch,] p, p, bands + 1): spatial branch and
    bidirectional spectral block, concatenation, one-hidden-layer classifier.
    The branches read ``xhat`` through weights folded with the gain and bias
    (``ad.fold``); the pixel stage of both runs first."""
    gain, bias = params.norm_gain, params.norm_bias
    conv = (ad.conv2d(xhat, ad.fold(params.spatial_kernels, gain, bias, 1))
            if config.spatial_on else None)
    seq = xhat.reshape(xhat.shape[:-3] + (config.patch_size ** 2, xhat.shape[-1]))
    blocks = [(ad.matmul(seq, ad.fold(proj, gain, bias, 0)), kernel, modulation)
              for proj, kernel, modulation in _directions(params, config)]
    parts = [] if conv is None else [_spatial_pool(conv, params, config)]
    if blocks:
        parts.append(_spectral_window(blocks, config))
    return _classify(parts, params, config)


def _class_ids(probs: Tensor) -> np.ndarray:
    """Class ids in 1..num_classes, ties to the lowest id. Overflow shows as
    non-finite probabilities, reported here as NumericalError, not as warnings."""
    if not np.isfinite(probs.data).all():
        raise NumericalError("non-finite class probabilities")
    return np.argmax(probs.data, axis=-1) + 1


def _cell_classes(p: int, width: int, neighbours) -> tuple[np.ndarray, list[tuple]]:
    """The boundary class of each cell of a p x p window in raster order, and
    one key per class, classes in order of first use. ``neighbours(i, j)``
    gives the (row, col) that each tap of cell (i, j) reads; the key holds,
    per tap, that cell's offset in a plane ``width`` pixels wide, or None where
    it lies outside the window."""
    first: dict = {}
    cell_class = [first.setdefault(tuple(
        (r - i) * width + c - j if 0 <= r < p and 0 <= c < p else None
        for r, c in neighbours(i, j)), len(first)) for i, j in np.ndindex(p, p)]
    return np.array(cell_class), list(first)


def _class_table(key: tuple, terms) -> np.ndarray:
    """The sums behind one branch's table of the boundary class ``key``: each
    plane pixel sums, from zeros in tap order, ``terms[m]`` (plane pixels,
    channels) at the key's offset of tap m, skipping None."""
    n = terms[0].shape[0]
    table = np.zeros(terms[0].shape, terms[0].dtype)
    for term, offset in zip(terms, key):
        if offset is not None:
            lo, hi = max(-offset, 0), n - max(offset, 0)
            table[lo:hi] += term[lo + offset:hi + offset]
    return table


def _class_means(classes, terms, origins: np.ndarray, corner: np.ndarray, chain) -> np.ndarray:
    """One branch's (windows, channels) window means, bitwise ``ad.mean``'s.
    ``origins`` holds the windows' plane origins, ascending. A window's cell at
    offset ``corner[k]`` reads, at its plane pixel, its class's table: ``chain``
    (the branch's state chain, giving a Tensor) of the ``_class_table``.

    Float32 tables are built one at a time, each added, shifted by each of its
    cells' offsets, into one float64 sum per plane origin from the first
    window's to the last's. Where ``ad._sum_is_exact`` holds over every value a
    window reads (for class c, the table's one slice from c's least cell offset
    to its greatest plus the span), the sums are exact in any order, so their
    means are ``ad.mean``'s. Else (float64, zeros, NaN, a wide range) any sums
    are freed, the tables are built into one stack, and ``ad.mean`` takes each
    INFERENCE_CHUNK of gathered windows, which bounds the gather's memory."""
    cell_class, keys = classes
    n, channels = terms[0].shape
    first, m = origins[0], origins[-1] - origins[0] + 1
    if terms[0].dtype == np.float32:
        sums, lo, hi = np.zeros((m, channels)), np.inf, 0.0
        for c, key in enumerate(keys):
            table = chain(_class_table(key, terms)).data
            offsets = first + corner[cell_class == c]
            for offset in offsets:
                sums += table[offset:offset + m]
            read = np.abs(table[offsets[0]:offsets[-1] + m], out=table[offsets[0]:offsets[-1] + m])
            lo, hi = np.minimum(lo, read.min()), np.maximum(hi, read.max())  # NaN stays
            del table, read
        if ad._sum_is_exact(lo, hi, corner.size):
            return (sums[origins - first] / corner.size).astype(np.float32)
        del sums
    rows = np.empty((len(keys) * n, channels), terms[0].dtype)
    for c, key in enumerate(keys):
        rows[c * n:(c + 1) * n] = chain(_class_table(key, terms)).data
    cells = cell_class * n + corner
    return np.concatenate([
        ad.mean(rows[origins[i:i + INFERENCE_CHUNK, None] + cells], axis=-2).data
        for i in range(0, origins.size, INFERENCE_CHUNK)])


def predict_pixels(cube: HsiCube, coords, params: ModelParams,
                   config: ModelConfig) -> np.ndarray:
    """Class ids of the scene pixels ``coords``, an (n, 2) array of (row, col).

    The scene is reflect-padded and cut into bands, each of fixed runs of
    INFERENCE_CHUNK pixels in raster order with the p - 1 padded rows below
    it. A band holds BAND_CHUNKS runs, or enough to cover p - 1 scene rows,
    so no pixel is in more than about two bands. Only bands that hold a
    requested pixel are computed.

    Every op runs on ``params.frozen()``, so none records a graph node. Per
    band, the pixel stage (standardization, gain and bias, the spatial conv's
    per-tap channel mix, both projections) runs once per pixel, and the
    normalized pixels go before the window stage. The window stage's per-cell
    chains (the spatial tap sum, bias and activation; each direction's
    sequence conv, activation, modulation and tanh) depend only on the pixel
    and on the cell's boundary class, the neighbours that lie inside its
    window, so they run once per (band pixel, class) into tables, one table
    alive at a time. Both convolutions are one sum over the band plane of
    per-tap terms, shifted by each kept tap's flat plane offset: the spatial
    conv's per-tap channel mix, and each direction's projection times each
    kernel tap. One ``_class_means`` call per branch takes the means of the
    band's wanted windows: a window adds its cells' table entries, in one
    exact float64 sum per window where the table values allow it, else
    ``ad.mean`` takes each INFERENCE_CHUNK of gathered windows. The two
    directions' means add once per band, and each run holding a requested
    pixel is classified as one batch. The kept taps of a cell
    that a window reads lie inside that window, so inside the plane: the cell
    sums the same products in the same order as ``model_forward``'s
    convolutions, and the probabilities are bitwise those of the window stage
    run on each gathered window. A cell whose offsets wrap to another plane
    row is never read.

    The float results of a GEMM or a batch may depend on the rows that share
    it; bands and runs come from the scene shape alone, so a pixel gets the
    same bits whichever pixels are requested: ``eval``, ``map`` and the test
    pass of ``train`` agree pixel for pixel. ``model_forward`` of the same
    windows agrees to float rounding, not bitwise."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    if ((coords < 0) | (coords >= (cube.rows, cube.cols))).any():
        raise ContractError(f"pixels outside the {cube.rows}x{cube.cols} raster")
    params = params.frozen()
    p, cols, chunk = config.patch_size, cube.cols, INFERENCE_CHUNK
    padded = _pad_scene(cube, p).astype(params.dtype, copy=False)
    width = padded.shape[1]
    corner = (np.arange(p)[:, None] * width + np.arange(p)).ravel()  # a window's cells
    ids = np.zeros(cube.rows * cols, dtype=np.int64)
    flat = coords[:, 0] * cols + coords[:, 1]
    wanted = np.bincount(flat // chunk, minlength=-(-ids.size // chunk)) > 0
    band = max(BAND_CHUNKS, -(-(p - 1) * cols // chunk))
    hs, hq = config.spatial_kernel // 2, config.seq_kernel // 2
    spatial = _cell_classes(p, width, lambda i, j: [
        (i + a, j + b) for a in range(-hs, hs + 1) for b in range(-hs, hs + 1)])
    sequence = _cell_classes(p, width, lambda i, j: [  # s + m in raster order, row to row
        divmod(i * p + j + m, p) for m in range(-hq, hq + 1)])
    with np.errstate(all="ignore"):
        directions = _directions(params, config)
        for first in range(0, wanted.size, band):
            band_chunks = first + np.flatnonzero(wanted[first:first + band])
            if not band_chunks.size:
                continue
            top = first * chunk // cols
            bottom = (min((first + band) * chunk, ids.size) - 1) // cols + p
            x_norm = (standardize(padded[top:bottom].reshape(-1, config.bands))
                      * params.norm_gain.data + params.norm_bias.data)
            taps = (ad._channel_taps(x_norm, params.spatial_kernels.data)
                    if config.spatial_on else None)
            projected = [x_norm @ proj.data for proj, _, _ in directions]
            del x_norm
            pixels = (band_chunks[:, None] * chunk + np.arange(chunk)).ravel()
            pixels = pixels[pixels < ids.size]
            origins = (pixels // cols - top) * width + pixels % cols
            parts = []
            if taps is not None:
                terms = taps.reshape(len(taps), -1, taps.shape[-1]).transpose(1, 0, 2)
                parts.append(_class_means(spatial, terms, origins, corner, partial(
                    ad.activation, config.activation, b=params.spatial_bias)))
                del taps, terms
            if directions:
                # (k, plane pixels, hidden) terms; a contiguous copy of the
                # taps, as the product is slow on a channel stride of k. Each
                # projection goes once its terms are made
                means = [_class_means(sequence, projected.pop(0)
                                      * np.ascontiguousarray(kernel.data.T)[:, None],
                                      origins, corner, partial(ad.activation, config.activation,
                                                               b=modulation, tanh_after=True))
                         for _, kernel, modulation in directions]
                parts.append(sum(means[1:], means[0]))
            for i in range(0, pixels.size, chunk):
                ids[pixels[i:i + chunk]] = _class_ids(
                    _classify([part[i:i + chunk] for part in parts], params, config)[0])
    return ids[flat]


# -- checkpoints ----------------------------------------------------------------------


def _config_line(config: ModelConfig) -> bytes:
    vals = [getattr(config, f.name) for f in fields(ModelConfig)]
    text = " ".join(str(int(v)) if isinstance(v, bool) else str(v) for v in vals)
    return (text + "\n").encode("ascii")


def _parse_config_line(line: bytes, path: str) -> ModelConfig:
    parts = line.split()
    names = [f.name for f in fields(ModelConfig)]
    if len(parts) != len(names):
        raise ShapeError(f"{path}: config line has {len(parts)} fields, expected {len(names)}")
    kwargs = {}
    for f, raw in zip(fields(ModelConfig), parts):
        text = raw.decode("ascii", "replace")
        try:
            kwargs[f.name] = parse_field(f, text)
        except ValueError:
            raise ShapeError(f"{path}: bad config field {f.name}={text!r}") from None
    return ModelConfig(**kwargs)


def save_model(path, params: ModelParams, config: ModelConfig) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(_config_line(config))
        for _, tensor in params.named_tensors():
            shape = " ".join(str(d) for d in tensor.shape)
            fh.write((shape + "\n").encode("ascii"))
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())


def load_model(path) -> tuple[ModelParams, ModelConfig]:
    with open(path, "rb") as fh:
        buf = fh.read()
    if not buf.startswith(CHECKPOINT_MAGIC):
        raise MagicError(f"{path}: bad magic, expected {CHECKPOINT_MAGIC!r}")
    offset = len(CHECKPOINT_MAGIC)
    end = buf.find(b"\n", offset)
    if end < 0:
        raise TruncatedError(f"{path}: missing config line")
    config = _parse_config_line(buf[offset:end], str(path))
    offset = end + 1

    payloads = []
    for name, want in expected_shapes(config).items():
        end = buf.find(b"\n", offset)
        if end < 0:
            raise TruncatedError(f"{path}: missing shape line for {name}")
        try:
            got = tuple(int(tok) for tok in buf[offset:end].split())
        except ValueError:
            raise ShapeError(f"{path}: shape line for {name} is not integers: "
                             f"{buf[offset:end]!r}") from None
        if got != want:
            raise ShapeError(f"{path}: {name} has shape {got}, expected {want}")
        offset = end + 1
        count = math.prod(want)
        if len(buf) - offset < count * 4:
            raise TruncatedError(f"{path}: truncated payload for {name}")
        payloads.append(np.frombuffer(buf, dtype="<f4", count=count, offset=offset))
        offset += count * 4
    if offset != len(buf):
        raise ShapeError(f"{path}: {len(buf) - offset} trailing bytes")
    flat = np.concatenate(payloads, dtype=np.float32)
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: non-finite parameter value")
    return ModelParams(flat, config), config
