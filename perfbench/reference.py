"""Independent float64 reference for the ssnl classifier.

Written from the file formats and the model description in the repository
README, not from the package's code. It reads cube, label and checkpoint
files itself, min-max scales the bands, extracts every window of a scene at
once with ``np.pad(mode="reflect")``, and evaluates all patches in one
batched float64 forward pass. The benchmark's correctness checks compare the
program's outputs against it.
"""

from __future__ import annotations

import colorsys
import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CONFIG_FIELDS = (
    "bands", "num_classes", "patch_size", "hidden_dim", "seq_kernel",
    "spatial_channels", "spatial_kernel", "classifier_hidden", "activation",
    "forward_on", "backward_on", "spatial_on",
)
TENSOR_NAMES = (
    "norm_gain", "norm_bias", "proj_fwd", "proj_bwd", "kernel_fwd",
    "kernel_bwd", "mix_fwd", "mix_bwd", "delta_raw", "spatial_kernels",
    "spatial_bias", "classifier_w1", "classifier_b1", "classifier_w2",
    "classifier_b2",
)
LAYER_NORM_EPS = 1e-5
CHUNK = 256  # patches per forward block; bounds the working set on wide spectra


# -- files ----------------------------------------------------------------------


def _header(buf: bytes, magic: bytes, path) -> tuple[list[bytes], int]:
    if not buf.startswith(magic):
        raise ValueError(f"{path}: bad magic, expected {magic!r}")
    end = buf.index(b"\n", len(magic))
    return buf[len(magic):end].split(), end + 1


def read_cube(path) -> np.ndarray:
    """(rows, cols, bands) float64 from a band-sequential ``HSICUBE1`` file."""
    buf = Path(path).read_bytes()
    dims, offset = _header(buf, b"HSICUBE1\n", path)
    rows, cols, bands = (int(d) for d in dims)
    if len(buf) - offset != rows * cols * bands * 4:
        raise ValueError(f"{path}: payload size does not match {rows}x{cols}x{bands}")
    flat = np.frombuffer(buf, dtype="<f4", offset=offset)
    return flat.reshape(bands, rows, cols).transpose(1, 2, 0).astype(np.float64)


def read_labels(path) -> np.ndarray:
    """(rows, cols) int64 class ids from a ``HSILBL1`` file."""
    buf = Path(path).read_bytes()
    dims, offset = _header(buf, b"HSILBL1\n", path)
    rows, cols = (int(d) for d in dims)
    if len(buf) - offset != rows * cols * 2:
        raise ValueError(f"{path}: payload size does not match {rows}x{cols}")
    return np.frombuffer(buf, dtype="<u2", offset=offset).reshape(rows, cols).astype(np.int64)


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Config fields and float64 parameter tensors of a ``SSNLCKPT1`` file."""
    buf = Path(path).read_bytes()
    fields, offset = _header(buf, b"SSNLCKPT1\n", path)
    if len(fields) != len(CONFIG_FIELDS):
        raise ValueError(f"{path}: config line has {len(fields)} fields")
    config = {}
    for name, raw in zip(CONFIG_FIELDS, fields):
        text = raw.decode("ascii")
        if name == "activation":
            config[name] = text
        elif name.endswith("_on"):
            config[name] = text == "1"
        else:
            config[name] = int(text)
    tensors = {}
    for name in TENSOR_NAMES:
        end = buf.index(b"\n", offset)
        shape = tuple(int(tok) for tok in buf[offset:end].split())
        offset = end + 1
        count = math.prod(shape)
        arr = np.frombuffer(buf, dtype="<f4", count=count, offset=offset)
        tensors[name] = arr.reshape(shape).astype(np.float64)
        offset += 4 * count
    if offset != len(buf):
        raise ValueError(f"{path}: {len(buf) - offset} trailing bytes")
    return config, tensors


def read_ppm(path) -> np.ndarray:
    """(rows, cols, 3) uint8 pixels of a binary P6 file with comment lines."""
    buf = Path(path).read_bytes()
    if not buf.startswith(b"P6\n"):
        raise ValueError(f"{path}: not a binary PPM")
    offset = 3
    while buf[offset:offset + 1] == b"#":
        offset = buf.index(b"\n", offset) + 1
    end = buf.index(b"\n", offset)
    cols, rows = (int(d) for d in buf[offset:end].split())
    end2 = buf.index(b"\n", end + 1)
    if buf[end + 1:end2] != b"255":
        raise ValueError(f"{path}: max value is not 255")
    pixels = buf[end2 + 1:]
    if len(pixels) != rows * cols * 3:
        raise ValueError(f"{path}: pixel payload does not match {rows}x{cols}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(rows, cols, 3)


# -- data preparation ------------------------------------------------------------------


def scale_bands(cube: np.ndarray) -> np.ndarray:
    """Per-band min-max scaling to [0, 1]; a constant band maps to zeros."""
    lo = cube.min(axis=(0, 1))
    span = cube.max(axis=(0, 1)) - lo
    return (cube - lo) / np.where(span > 0, span, 1.0)


def split(labels: np.ndarray, ratio: float, seed: int):
    """Stratified split: per class, in class order, a seeded permutation puts
    the first max(1, floor(ratio*n)) pixels in train, the rest in test.
    Returns two (n, 3) int arrays of (class, row, col)."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in range(1, int(labels.max()) + 1):
        coords = np.argwhere(labels == cls)
        if len(coords) == 0:
            continue
        shuffled = coords[rng.permutation(len(coords))]
        take = max(1, math.floor(ratio * len(coords)))
        for part, rows in ((train, shuffled[:take]), (test, shuffled[take:])):
            part.extend((cls, int(r), int(c)) for r, c in rows)
    return np.array(train, dtype=np.int64).reshape(-1, 3), np.array(test, dtype=np.int64).reshape(-1, 3)


def windows(cube: np.ndarray, p: int) -> np.ndarray:
    """(rows, cols, p, p, bands) view of every window, reflect-padded about
    the raster edges (edge pixel not duplicated)."""
    half = p // 2
    padded = np.pad(cube, ((half, half), (half, half), (0, 0)), mode="reflect")
    return sliding_window_view(padded, (p, p), axis=(0, 1)).transpose(0, 1, 3, 4, 2)


# -- model --------------------------------------------------------------------------------


def _activation(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "silu":
        return x * 0.5 * (1.0 + np.tanh(0.5 * x))  # x * sigmoid(x), overflow-free
    if kind == "tanh":
        return np.tanh(x)
    raise ValueError(f"unknown activation {kind!r}")


def _forward_block(x: np.ndarray, config: dict, t: dict[str, np.ndarray]) -> np.ndarray:
    n, p, _, bands = x.shape
    length = p * p
    act = config["activation"]
    seq = x.reshape(n, length, bands)
    mu = seq.mean(axis=-1, keepdims=True)
    var = seq.var(axis=-1, keepdims=True)
    y = (seq - mu) / np.sqrt(var + LAYER_NORM_EPS) * t["norm_gain"] + t["norm_bias"]

    features = []
    if config["spatial_on"]:
        kernels = t["spatial_kernels"]            # (out, in, k, k)
        k = kernels.shape[2]
        half = k // 2
        plane = np.pad(y.reshape(n, p, p, bands), ((0, 0), (half, half), (half, half), (0, 0)))
        conv = np.zeros((n, p, p, kernels.shape[0]))
        for u in range(k):
            for v in range(k):
                conv += plane[:, u:u + p, v:v + p, :] @ kernels[:, :, u, v].T
        features.append(_activation(act, conv + t["spatial_bias"]).mean(axis=(1, 2)))
    if config["forward_on"] or config["backward_on"]:
        delta = np.logaddexp(0.0, t["delta_raw"])  # softplus
        spectral = np.zeros((n, t["proj_fwd"].shape[1]))
        for on, suffix, reverse in ((config["forward_on"], "fwd", False),
                                    (config["backward_on"], "bwd", True)):
            if not on:
                continue
            z = y @ t["proj_" + suffix]              # (n, length, hidden)
            if reverse:
                z = z[:, ::-1, :]
            kernel = t["kernel_" + suffix]           # (hidden, k), zero same-padding
            half = kernel.shape[1] // 2
            zp = np.pad(z, ((0, 0), (half, half), (0, 0)))
            conv = sum(zp[:, j:j + length, :] * kernel[:, j] for j in range(kernel.shape[1]))
            hidden = np.tanh(_activation(act, conv) + t["mix_" + suffix] @ delta)
            spectral += hidden.mean(axis=1)
        features.append(spectral)

    h = np.concatenate(features, axis=1)
    hidden = _activation(act, h @ t["classifier_w1"].T + t["classifier_b1"])
    logits = hidden @ t["classifier_w2"].T + t["classifier_b2"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def forward(patches: np.ndarray, config: dict, tensors: dict[str, np.ndarray]) -> np.ndarray:
    """Class probabilities (n, num_classes) of (n, p, p, bands) patches."""
    blocks = [_forward_block(np.asarray(patches[i:i + CHUNK], dtype=np.float64), config, tensors)
              for i in range(0, len(patches), CHUNK)]
    return np.concatenate(blocks, axis=0)


def stage_macs(config: dict, tensors: dict[str, np.ndarray]) -> dict[str, int]:
    """Multiply-accumulates of one patch's forward pass, per model stage,
    taken from the checkpoint's tensor shapes."""
    length = config["patch_size"] ** 2
    bands, hidden = tensors["proj_fwd"].shape
    seq_k = tensors["kernel_fwd"].shape[1]
    out_ch, _, k, _ = tensors["spatial_kernels"].shape
    directions = int(config["forward_on"]) + int(config["backward_on"])
    spatial = int(config["spatial_on"])
    return {
        "projection": directions * length * bands * hidden,
        "seq_conv": directions * hidden * seq_k * length,
        "modulation": directions * tensors["mix_fwd"].size,
        "seq_mean": directions * hidden * length,
        "spatial_conv": spatial * out_ch * bands * k * k * length,
        "spatial_mean": spatial * out_ch * length,
        "classifier": tensors["classifier_w1"].size + tensors["classifier_w2"].size,
    }


SPECTRAL_STAGES = ("projection", "seq_conv", "modulation", "seq_mean")
SPATIAL_STAGES = ("spatial_conv", "spatial_mean")


# -- metrics and rendering --------------------------------------------------------------------


def class_colors(num_classes: int) -> np.ndarray:
    """(num_classes + 1, 3) uint8; class 0 black, class c at hue (c-1)*360/K."""
    colors = [(0, 0, 0)]
    for c in range(1, num_classes + 1):
        rgb = colorsys.hsv_to_rgb((c - 1) / num_classes, 1.0, 1.0)
        colors.append(tuple(round(255 * ch) for ch in rgb))
    return np.array(colors, dtype=np.uint8)


def scores(truth: np.ndarray, predicted: np.ndarray, num_classes: int) -> dict:
    """Confusion counts, OA, AA and Cohen's kappa of 1-based class ids."""
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (truth - 1, predicted - 1), 1)
    total = counts.sum()
    rows = counts.sum(axis=1)
    oa = np.trace(counts) / total
    aa = float(np.mean(counts.diagonal()[rows > 0] / rows[rows > 0]))
    pe = float((rows * counts.sum(axis=0)).sum()) / float(total) ** 2
    kappa = (oa - pe) / (1.0 - pe) if pe < 1.0 else float(oa == 1.0)
    return {"correct": counts.diagonal().copy(), "samples": rows, "oa": oa, "aa": aa,
            "kappa": kappa}
