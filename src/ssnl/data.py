"""Hyperspectral cubes, labels, synthetic scenes, splits, patches, augmentation.

A set of pixels (a split's train or test part) is an (n, 2) int64 array of
(row, col). Windows reflect about the raster edges by one rule, ``_reflect``,
for whole-scene windows, single windows and the rotation fill. One index
table, ``_variant_cells``, states the six geometric variants; ``PixelWindows``
gathers training samples in any variant by it, straight from the padded scene.

On-disk formats (both bit-exact round-trippable):

* Cube file — ASCII magic line ``HSICUBE1\\n``; ASCII header line
  ``<rows> <cols> <bands>\\n``; then rows*cols*bands little-endian IEEE-754
  32-bit floats in band-sequential order (band-major, then row, then col).
* Label file — ASCII magic ``HSILBL1\\n``; header ``<rows> <cols>\\n``; then
  rows*cols little-endian unsigned 16-bit ints, row-major. Label 0 means
  unlabeled/background and is never trained or scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    HeaderError,
    MagicError,
    TruncatedError,
)

CUBE_MAGIC = b"HSICUBE1\n"
LABEL_MAGIC = b"HSILBL1\n"


@dataclass
class HsiCube:
    """rows x cols x bands raster of reflectance values, stored as float32 like
    the cube file and the model."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 3:
            raise ContractError(f"cube values must be 3-d, got shape {self.values.shape}")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def bands(self) -> int:
        return self.values.shape[2]


@dataclass
class LabelRaster:
    """rows x cols class ids; 0 = unlabeled, 1..K = classes."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 2:
            raise ContractError(f"labels must be 2-d, got shape {self.labels.shape}")
        if self.labels.min() < 0:
            raise ContractError("labels must be non-negative")
        self.labels = self.labels.astype(np.int64)

    @property
    def rows(self) -> int:
        return self.labels.shape[0]

    @property
    def cols(self) -> int:
        return self.labels.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max())


@dataclass
class SplitSpec:
    """Train and test pixels as (n, 2) int64 arrays of (row, col), derived from
    (labels, ratio, seed). Each array is grouped by class in increasing order,
    and within a class keeps the seeded shuffle order."""

    train: np.ndarray
    test: np.ndarray


# -- file IO --------------------------------------------------------------------


def _parse_dims(line: bytes, count: int, path: str) -> tuple[int, ...]:
    parts = line.split()
    if len(parts) != count:
        raise HeaderError(f"{path}: expected {count} dimensions, got {line!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise HeaderError(f"{path}: non-integer dimension in {line!r}") from None
    if any(d <= 0 for d in dims):
        raise HeaderError(f"{path}: non-positive dimension in {line!r}")
    return dims


def _read_raster(path, magic: bytes, count: int, dtype: str):
    """The header dimensions and the flat ``dtype`` payload of a cube or label
    file, after checking the magic, the header and the payload size."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if not buf.startswith(magic):
        raise MagicError(f"{path}: bad magic, expected {magic!r}")
    end = buf.find(b"\n", len(magic)) + 1
    if end == 0:
        raise TruncatedError(f"{path}: header line missing newline")
    dims = _parse_dims(buf[len(magic):end], count, str(path))
    expected = math.prod(dims) * np.dtype(dtype).itemsize
    payload = len(buf) - end
    if payload < expected:
        raise TruncatedError(f"{path}: payload has {payload} bytes, expected {expected}")
    if payload > expected:
        raise HeaderError(f"{path}: {payload - expected} trailing bytes")
    # a view of the file's bytes: the payload is not copied
    return dims, np.frombuffer(buf, dtype=dtype, offset=end)


def write_cube(path, cube: HsiCube) -> None:
    payload = np.ascontiguousarray(
        cube.values.transpose(2, 0, 1), dtype="<f4"
    )  # band-major, then row, then col
    with open(path, "wb") as fh:
        fh.write(CUBE_MAGIC)
        fh.write(f"{cube.rows} {cube.cols} {cube.bands}\n".encode("ascii"))
        fh.write(payload.tobytes())


def load_cube(path) -> HsiCube:
    (rows, cols, bands), flat = _read_raster(path, CUBE_MAGIC, 3, "<f4")
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: payload holds non-finite values")
    return HsiCube(flat.reshape(bands, rows, cols).transpose(1, 2, 0))


def write_labels(path, raster: LabelRaster) -> None:
    if raster.labels.max() > np.iinfo(np.uint16).max:
        raise ContractError("label ids exceed the uint16 storage range")
    with open(path, "wb") as fh:
        fh.write(LABEL_MAGIC)
        fh.write(f"{raster.rows} {raster.cols}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(raster.labels, dtype="<u2").tobytes())


def load_labels(path) -> LabelRaster:
    dims, flat = _read_raster(path, LABEL_MAGIC, 2, "<u2")
    return LabelRaster(flat.reshape(dims))


# -- synthetic scenes --------------------------------------------------------------


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's generator of ``seed``; a negative seed is a ConfigError."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def synthesize_cube(
    rows: int, cols: int, bands: int, classes: int, noise_sigma: float, seed: int
) -> tuple[HsiCube, LabelRaster]:
    """Deterministic striped scene: class c fills a horizontal stripe and emits a
    Gaussian spectral bump centered at band c*bands/(classes+1), plus optional
    zero-mean Gaussian noise. Every pixel is labeled (1..classes). A noise that
    is negative, not finite, or takes a value beyond float32's range is a
    ConfigError."""
    if cols < 1:
        raise ConfigError(f"cols must be at least 1, got {cols}")
    if classes > rows:
        raise ConfigError(f"classes ({classes}) must not exceed rows ({rows})")
    if classes < 1:
        raise ConfigError("need at least one class")
    if bands < classes:
        raise ConfigError(f"bands ({bands}) must be at least classes ({classes})")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ConfigError(f"noise must be finite and non-negative, got {noise_sigma}")
    rng = seeded_rng(seed)
    row_idx = np.arange(rows)
    labels = (row_idx * classes // rows + 1).astype(np.int64)
    labels = np.repeat(labels[:, None], cols, axis=1)

    band_idx = np.arange(bands, dtype=np.float64)
    width = bands / (2.0 * (classes + 1))
    centers = np.array([c * bands / (classes + 1.0) for c in range(1, classes + 1)])
    spectra = np.exp(-0.5 * ((band_idx[None, :] - centers[:, None]) / width) ** 2)

    with np.errstate(over="ignore"):  # an overflow is refused below
        cube = HsiCube(spectra[labels - 1] + noise_sigma * rng.standard_normal(
            (rows, cols, bands)))
    if not np.isfinite(cube.values).all():
        raise ConfigError(f"noise {noise_sigma} gives values beyond float32's range")
    return cube, LabelRaster(labels)


# -- splitting ----------------------------------------------------------------------


def split_samples(labels: LabelRaster, ratio: float, seed: int) -> SplitSpec:
    """Stratified split: per class, a seeded shuffle puts the first
    max(1, floor(ratio*n)) pixels in train and the rest in test. A class with
    no pixel draws no shuffle and contributes no coordinate. A raster with no
    labeled pixel at all is refused."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"ratio must lie in (0,1), got {ratio}")
    if labels.num_classes == 0:
        raise ConfigError("no labeled pixel: every label is 0 (unlabeled)")
    rng = seeded_rng(seed)
    train = [np.empty((0, 2), dtype=np.int64)]
    test = [np.empty((0, 2), dtype=np.int64)]
    for cls in range(1, labels.num_classes + 1):
        coords = np.argwhere(labels.labels == cls)
        if len(coords) == 0:
            continue
        shuffled = coords[rng.permutation(len(coords))]
        take = max(1, int(math.floor(ratio * len(coords))))
        train.append(shuffled[:take])
        test.append(shuffled[take:])
    return SplitSpec(np.concatenate(train), np.concatenate(test))


# -- patches ------------------------------------------------------------------------


def _reflect(idx: np.ndarray, n: int) -> np.ndarray:
    """Fold indices into [0, n) by reflection about the end pixels, which are
    not duplicated (period 2n - 2); when n == 1 every index maps to 0. The one
    reflect rule of scene windows, single windows and the rotation fill."""
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * n - 2
    idx = idx % period
    return np.where(idx > n - 1, period - idx, idx)


def _pad_scene(cube: HsiCube, p: int) -> np.ndarray:
    """The cube reflect-padded by p // 2 on each side of both raster axes (the
    edge pixel is not duplicated), so the window centered at pixel (r, c) has
    its top-left cell at padded (r, c): the one copy that whole-scene
    inference and training gathers read windows from."""
    if p % 2 == 0:
        raise ConfigError(f"patch size must be odd, got {p}")
    half = p // 2
    return cube.values[np.ix_(_reflect(np.arange(-half, cube.rows + half), cube.rows),
                              _reflect(np.arange(-half, cube.cols + half), cube.cols))]


def extract_window(cube: HsiCube, row: int, col: int, p: int) -> np.ndarray:
    """p x p x bands window centered at (row, col) with reflect padding, gathered
    by reflected row and column indices (the rule ``_pad_scene`` pads by)."""
    if p % 2 == 0:
        raise ConfigError(f"patch size must be odd, got {p}")
    if not (0 <= row < cube.rows and 0 <= col < cube.cols):
        raise ContractError(f"center ({row},{col}) outside {cube.rows}x{cube.cols} raster")
    offsets = np.arange(p) - p // 2
    return cube.values[np.ix_(_reflect(row + offsets, cube.rows),
                              _reflect(col + offsets, cube.cols))]


# -- augmentation --------------------------------------------------------------------


AUGMENT_VARIANTS = 6


def _variant_cells(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The one statement of the geometric training variants of a p x p window:
    the source row and column, each (AUGMENT_VARIANTS, p, p), of every output
    cell of the original, the 45/90/135-degree rotations and the horizontal
    and vertical flips, in that order.

    A rotation reads the nearest cell of the inverse rotation about the patch
    center, reflected into the patch: exact permutations at 0 and 90 degrees,
    nearest-neighbor resampling with reflect fill at 45 and 135.
    """
    center = (p - 1) / 2.0
    ii, jj = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    di, dj = ii - center, jj - center
    rows, cols = [], []
    for degrees in (0.0, 45.0, 90.0, 135.0):
        cos_t, sin_t = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
        rows.append(_reflect(np.rint(center + cos_t * di + sin_t * dj).astype(np.int64), p))
        cols.append(_reflect(np.rint(center - sin_t * di + cos_t * dj).astype(np.int64), p))
    rows += [ii, p - 1 - ii]  # horizontal flip, vertical flip
    cols += [p - 1 - jj, jj]
    return np.stack(rows), np.stack(cols)


class PixelWindows:
    """The windows of a fixed set of pixels, each in any of the variants of
    ``_variant_cells``, gathered on demand from one reflect-padded copy of the cube.

    Cell (i, j) of pixel (r, c)'s window in a variant is the band vector at
    padded (r + row, c + col), where (row, col) is that variant's source cell
    in ``_variant_cells``. So one flat offset per pixel plus one per variant
    cell addresses every sample, and no window is stored between gathers.
    """

    def __init__(self, cube: HsiCube, coords: np.ndarray, p: int):
        padded = _pad_scene(cube, p)
        width = padded.shape[1]
        rows, cols = _variant_cells(p)
        self._band_vectors = padded.reshape(-1, cube.bands)
        self._cell_offsets = rows * width + cols
        self._origins = coords[:, 0] * width + coords[:, 1]

    def gather(self, pixels: np.ndarray, variants: np.ndarray) -> np.ndarray:
        """(n, p, p, bands): the window of pixel ``coords[pixels[k]]`` in variant
        ``variants[k]`` of ``_variant_cells``; variant 0 is the window itself."""
        offsets = self._origins[pixels, None, None] + self._cell_offsets[variants]
        return np.take(self._band_vectors, offsets, axis=0)


# -- scaling -------------------------------------------------------------------------


def scale_bands(cube: HsiCube) -> HsiCube:
    """Per-band min-max scaling to [0,1]; a constant band maps to zeros.
    The arithmetic runs in float64, in place on one float64 copy of the cube;
    the result is stored as float32."""
    v = cube.values.astype(np.float64)
    lo = v.min(axis=(0, 1))
    hi = v.max(axis=(0, 1))
    span = hi - lo
    v -= lo
    v /= np.where(span > 0, span, 1.0)
    return HsiCube(v)


def standardize(values: np.ndarray) -> np.ndarray:
    """Each pixel's spectrum, the last axis, minus its mean over the square root
    of its population variance plus 1e-5: the model's input before its gain and
    bias. A pixel's result depends only on that pixel. The statistics run, in
    place, on a C-ordered copy, since numpy sums a strided axis (a band-major
    cube's) in another order."""
    d = np.array(values, order="C")
    d -= d.mean(axis=-1, keepdims=True)
    # np.var's own subtract, square, sum and divide, with d computed once
    var = np.mean(np.square(d), axis=-1, keepdims=True)
    d *= 1.0 / np.sqrt(var + 1e-5)
    return d
