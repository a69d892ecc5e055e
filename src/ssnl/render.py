"""Classification-map rendering as binary PPM (P6).

Class 0 renders black; class c of K takes the hue (c-1)*360/K at full
saturation and value, converted by ``colorsys.hsv_to_rgb`` and rounded to the
nearest of 256 levels. PPM is byte-deterministic and codec-free; convert
downstream if another container is needed.
"""

from __future__ import annotations

import colorsys

import numpy as np

from .errors import ContractError


def class_color(class_id: int, num_classes: int) -> tuple[int, int, int]:
    if class_id == 0:
        return (0, 0, 0)
    if not 1 <= class_id <= num_classes:
        raise ContractError(f"class id {class_id} outside 0..{num_classes}")
    rgb = colorsys.hsv_to_rgb((class_id - 1) / num_classes, 1.0, 1.0)
    return tuple(round(255 * ch) for ch in rgb)


def class_palette(num_classes: int) -> list[tuple[int, int, int]]:
    """Colors for ids 0..num_classes (index 0 is black)."""
    return [class_color(c, num_classes) for c in range(num_classes + 1)]


def render_class_map(class_ids: np.ndarray, num_classes: int) -> np.ndarray:
    """(rows, cols) class ids -> (rows, cols, 3) uint8 image."""
    ids = np.asarray(class_ids)
    if ids.ndim != 2:
        raise ContractError(f"class map must be 2-d, got shape {ids.shape}")
    palette = np.array(class_palette(num_classes), dtype=np.uint8)
    if ids.min() < 0 or ids.max() > num_classes:
        raise ContractError("class map contains ids outside 0..num_classes")
    return palette[ids]


def write_ppm(path, image: np.ndarray, comment: str | None = None) -> None:
    """Binary P6 file; the optional comment line is embedded after the magic."""
    img = np.asarray(image, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ContractError(f"PPM image must be (rows, cols, 3), got {img.shape}")
    rows, cols = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n".encode("ascii", "backslashreplace"))
        fh.write(f"{cols} {rows}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
