import numpy as np
import pytest

from ssnl.errors import ContractError
from ssnl.metrics import (
    ConfusionMatrix,
    average_accuracy,
    kappa,
    overall_accuracy,
    render_report,
)

HAND_CM = np.array([[45, 5], [15, 35]])


def test_overall_accuracy_diagonal_is_one():
    assert overall_accuracy(np.diag([3, 7, 2])) == 1.0


def test_overall_accuracy_zero_diagonal_is_zero():
    assert overall_accuracy(np.array([[0, 4], [6, 0]])) == 0.0


def test_overall_accuracy_hand_derived():
    assert overall_accuracy(HAND_CM) == pytest.approx(0.80, abs=1e-12)


def test_average_accuracy_diagonal_is_one():
    assert average_accuracy(np.diag([1, 9, 4])) == 1.0


def test_average_accuracy_hand_derived():
    # per-row recall (0.9, 0.7) -> mean 0.8
    assert average_accuracy(HAND_CM) == pytest.approx(0.80, abs=1e-12)


def test_average_accuracy_skips_empty_rows():
    cm = np.array([[8, 2, 0], [0, 0, 0], [1, 0, 9]])
    assert average_accuracy(cm) == pytest.approx((0.8 + 0.9) / 2, abs=1e-12)


def test_kappa_perfect_diagonal():
    assert kappa(np.diag([10, 20, 5])) == 1.0


def test_kappa_rank_one_is_exactly_zero():
    assert kappa(np.array([[30, 30], [20, 20]])) == 0.0


def test_kappa_hand_derived():
    # p_o = 0.8, p_e = 0.5 -> kappa = 0.6
    assert kappa(HAND_CM) == pytest.approx(0.60, abs=1e-12)


def test_hand_triple_together():
    assert abs(overall_accuracy(HAND_CM) - 0.80) < 1e-12
    assert abs(average_accuracy(HAND_CM) - 0.80) < 1e-12
    assert abs(kappa(HAND_CM) - 0.60) < 1e-12


def test_empty_matrix_rejected():
    empty = np.zeros((2, 2), dtype=int)
    with pytest.raises(ContractError):
        overall_accuracy(empty)
    with pytest.raises(ContractError):
        average_accuracy(empty)
    with pytest.raises(ContractError):
        kappa(empty)


def test_kappa_degenerate_single_cell_convention():
    assert kappa(np.array([[7, 0], [0, 0]])) == 1.0   # all mass agrees
    assert kappa(np.array([[0, 7], [0, 0]])) == 0.0   # all mass disagrees


def test_kappa_outer_product_family_exact_zero():
    rng = np.random.default_rng(0)
    for _ in range(500):
        k = int(rng.integers(2, 6))
        row = rng.integers(0, 20, size=k)
        col = rng.integers(0, 20, size=k)
        if row.sum() == 0 or col.sum() == 0:
            continue
        cm = np.outer(row, col)
        if cm.sum() == 0 or (cm > 0).sum() == 1:
            # a single-cell matrix falls under the documented degenerate
            # p_e == 1 convention instead of the outer-product rule
            continue
        assert kappa(cm) == 0.0


def test_kappa_diagonal_family_exact_one():
    rng = np.random.default_rng(1)
    for _ in range(500):
        k = int(rng.integers(2, 8))
        diag = rng.integers(0, 50, size=k)
        if (diag > 0).sum() < 2:
            continue
        assert kappa(np.diag(diag)) == 1.0


def test_metric_ranges_on_random_matrices():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        k = int(rng.integers(2, 7))
        cm = rng.integers(0, 30, size=(k, k))
        if cm.sum() == 0:
            continue
        oa = overall_accuracy(cm)
        kp = kappa(cm)
        assert 0.0 <= oa <= 1.0
        assert -1.0 <= kp <= 1.0
        if cm.sum(axis=1).max() > 0:
            assert 0.0 <= average_accuracy(cm) <= 1.0


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        cm = rng.integers(0, 25, size=(k, k))
        if cm.sum() == 0 or (cm.sum(axis=1) == 0).any():
            continue
        perm = rng.permutation(k)
        permuted = cm[np.ix_(perm, perm)]
        assert overall_accuracy(permuted) == pytest.approx(overall_accuracy(cm), abs=1e-12)
        assert average_accuracy(permuted) == pytest.approx(average_accuracy(cm), abs=1e-12)
        assert kappa(permuted) == pytest.approx(kappa(cm), abs=1e-12)


def test_confusion_matrix_accumulation():
    cm = ConfusionMatrix.zeros(3)
    cm.add(1, 1)
    cm.add(1, 2)
    cm.add(3, 3, count=4)
    assert cm.total == 6
    assert cm.counts[0, 1] == 1 and cm.counts[2, 2] == 4
    # arrays of pairs: each pair counts once, repeats included
    cm.add(np.array([2, 2, 1, 2]), np.array([3, 3, 1, 3]))
    assert cm.total == 10
    assert cm.counts[1, 2] == 3 and cm.counts[0, 0] == 2


def test_confusion_matrix_rejects_negative_or_non_square():
    with pytest.raises(ContractError):
        ConfusionMatrix(np.array([[1, -1], [0, 2]]))
    with pytest.raises(ContractError):
        ConfusionMatrix(np.zeros((2, 3), dtype=int))


def test_render_report_layout():
    text = render_report(HAND_CM, class_names=["Grass", "Water"])
    lines = text.splitlines()
    assert "Grass" in lines[1] and "Water" in lines[2]
    assert lines[-3] == "OA    80.00%"
    assert lines[-2] == "AA    80.00%"
    assert lines[-1] == "Kappa 0.6000"
