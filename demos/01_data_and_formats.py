"""Synthetic scenes, the cube/label file formats, and stratified splits.

Run:  python demos/01_data_and_formats.py
"""

import tempfile
from pathlib import Path

import numpy as np

from ssnl import (
    load_cube,
    load_labels,
    scale_bands,
    split_samples,
    synthesize_cube,
    write_cube,
    write_labels,
)

# A synthetic scene: horizontal class stripes, one Gaussian spectral bump per
# class, optional noise. Everything is a pure function of the seed.
cube, labels = synthesize_cube(rows=24, cols=20, bands=16, classes=4,
                               noise_sigma=0.05, seed=7)
print(f"cube: {cube.rows}x{cube.cols}x{cube.bands}, "
      f"values in [{cube.values.min():.3f}, {cube.values.max():.3f}]")
print(f"labels: {np.unique(labels.labels).tolist()} (0 would mean unlabeled)")

for cls in range(1, 5):
    mean_spectrum = cube.values[labels.labels == cls].mean(axis=0)
    print(f"class {cls}: spectral peak at band {np.argmax(mean_spectrum)}")

# Files round-trip bit-exactly: an ASCII magic + header, then little-endian
# float32 (band-sequential) or uint16 (row-major) payload.
scratch = tempfile.TemporaryDirectory()  # removed when the demo exits
workdir = Path(scratch.name)
cube_path = workdir / "scene.cube"
label_path = workdir / "scene.lbl"
write_cube(cube_path, cube)
write_labels(label_path, labels)
print(f"\ncube file starts with: {cube_path.read_bytes()[:24]!r}")
print(f"label file starts with: {label_path.read_bytes()[:16]!r}")

reloaded = load_cube(cube_path)
print("reload matches (to stored f32 precision):",
      np.array_equal(reloaded.values, cube.values.astype(np.float32)))
print("labels reload exactly:",
      np.array_equal(load_labels(label_path).labels, labels.labels))

# Per-band min-max scaling is idempotent and maps constant bands to zero.
scaled = scale_bands(reloaded)
print(f"\nscaled range: [{scaled.values.min():.1f}, {scaled.values.max():.1f}]")

# Stratified splitting: per class, a seeded shuffle sends the first
# max(1, floor(ratio * n)) pixels to train and the rest to test. A split is two
# (n, 2) arrays of (row, col), grouped by class in increasing order.
split = split_samples(labels, ratio=0.10, seed=3)
print(f"\nfirst training pixels (row, col): {split.train[:3].tolist()}")
pixels = np.bincount(labels.labels.ravel(), minlength=5)
trained = np.bincount(labels.labels[split.train[:, 0], split.train[:, 1]], minlength=5)
tested = np.bincount(labels.labels[split.test[:, 0], split.test[:, 1]], minlength=5)
for cls in range(1, 5):
    print(f"class {cls}: {pixels[cls]} px -> {trained[cls]} train / {tested[cls]} test")
print("train+test =", len(split.train) + len(split.test),
      "of", (labels.labels > 0).sum(), "labeled")
