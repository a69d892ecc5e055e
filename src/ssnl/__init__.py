"""ssnl: spectral-spatial nonlinear classification of hyperspectral patches.

A desk-scale, fully deterministic library: a minimal reverse-mode autodiff
engine, band-sequential cube/label file formats, a synthetic-scene generator,
stratified splitting with patch extraction and geometric augmentation, the
bidirectional spectral + spatial patch classifier, Adam training with
cross-entropy, confusion-matrix metrics (OA/AA/kappa), an exact
parameter/MAC complexity accountant, and a scripting CLI.

The package namespace holds the documented workflow; every other name is
reachable through its submodule (``ssnl.data``, ``ssnl.model``, ...).
"""

from . import autodiff
from .complexity import (
    count_params,
    family_comparison,
    render_complexity_report,
)
from .data import (
    load_cube,
    load_labels,
    scale_bands,
    split_samples,
    synthesize_cube,
    write_cube,
    write_labels,
)
from .metrics import render_report
from .model import ModelConfig, load_model, predict_pixels, save_model
from .render import render_class_map, write_ppm
from .train import TrainConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "ModelConfig",
    "TrainConfig",
    "autodiff",
    "count_params",
    "evaluate",
    "family_comparison",
    "load_cube",
    "load_labels",
    "load_model",
    "predict_pixels",
    "render_class_map",
    "render_complexity_report",
    "render_report",
    "save_model",
    "scale_bands",
    "split_samples",
    "synthesize_cube",
    "train",
    "write_cube",
    "write_labels",
    "write_ppm",
]
