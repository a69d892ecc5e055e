"""Confusion-matrix scoring: overall accuracy, average accuracy, kappa.

The kappa numerator/denominator are formed in exact integer arithmetic, so
the two degenerate families are exact: a diagonal matrix with two or more
populated classes scores exactly 1, and any matrix that is the outer product
of its margins scores exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class ConfusionMatrix:
    """counts[truth][prediction] over class ids 1..K (index 0 is class 1)."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ContractError(f"confusion matrix must be square, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise ContractError("confusion matrix entries must be non-negative")

    @classmethod
    def zeros(cls, num_classes: int) -> "ConfusionMatrix":
        return cls(np.zeros((num_classes, num_classes), dtype=np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def add(self, truth, prediction, count=1):
        """Count ``count`` samples at (truth, prediction); each may be an
        array, and repeated pairs accumulate."""
        np.add.at(self.counts, (np.asarray(truth) - 1, np.asarray(prediction) - 1), count)


def _counts(cm) -> np.ndarray:
    if isinstance(cm, ConfusionMatrix):
        return cm.counts
    return ConfusionMatrix(cm).counts


def overall_accuracy(cm) -> float:
    counts = _counts(cm)
    total = int(counts.sum())
    if total == 0:
        raise ContractError("overall_accuracy of an empty confusion matrix")
    return int(np.trace(counts)) / total


def average_accuracy(cm) -> float:
    """Mean per-class recall; truth classes with zero samples are excluded."""
    counts = _counts(cm)
    row_sums = counts.sum(axis=1)
    populated = row_sums > 0
    if not populated.any():
        raise ContractError("average_accuracy with no populated truth class")
    recalls = counts.diagonal()[populated] / row_sums[populated]
    return float(recalls.mean())


def kappa(cm) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e).

    Degenerate case p_e == 1 (all mass in one row-column pair) returns 1 when
    agreement is perfect and 0 otherwise.
    """
    counts = _counts(cm)
    total = int(counts.sum())
    if total == 0:
        raise ContractError("kappa of an empty confusion matrix")
    trace = int(np.trace(counts))
    margin = sum(
        int(r) * int(c) for r, c in zip(counts.sum(axis=1), counts.sum(axis=0))
    )
    numerator = total * trace - margin     # total^2 * (p_o - p_e), exactly
    denominator = total * total - margin   # total^2 * (1 - p_e), exactly
    if denominator == 0:
        return 1.0 if trace == total else 0.0
    return numerator / denominator


def render_report(cm, class_names: list[str] | None = None) -> str:
    """Per-class accuracy table with an OA/AA/Kappa footer."""
    counts = _counts(cm)
    k = counts.shape[0]
    names = class_names or [f"Class {i + 1}" for i in range(k)]
    lines = [f"{'No.':<5}{'Class':<24}{'Correct':>9}{'Samples':>9}{'Acc (%)':>9}"]
    row_sums = counts.sum(axis=1)
    for i in range(k):
        correct = int(counts[i, i])
        n = int(row_sums[i])
        acc = f"{100.0 * correct / n:8.2f}" if n else "     n/a"
        lines.append(f"{i + 1:<5}{names[i]:<24}{correct:>9}{n:>9}{acc:>9}")
    lines.append("-" * 56)
    lines.append(f"OA    {100.0 * overall_accuracy(counts):.2f}%")
    lines.append(f"AA    {100.0 * average_accuracy(counts):.2f}%")
    lines.append(f"Kappa {kappa(counts):.4f}")
    return "\n".join(lines)
