import numpy as np
import pytest

from segtransfer.core import IGNORE
from segtransfer.errors import (
    DimensionMismatchError,
    NotBinaryError,
    OutOfRangeError,
    PredHasIgnoreError,
)
from segtransfer.metrics import ConfusionMatrix, accumulate, iou_per_class, summary


def shifted_square_fixture():
    """2x2 disease square, prediction shifted one pixel in x, four IGNORE
    background cells: disease intersection 2 / union 6 (IoU 1/3) and
    background 20/24 = 5/6 over the 26 evaluated pixels."""
    gt = np.zeros((5, 6), dtype=np.uint16)
    gt[1:3, 1:3] = 1
    gt[4, 0:4] = IGNORE
    pred = np.zeros((5, 6), dtype=np.uint16)
    pred[1:3, 2:4] = 1
    return pred, gt


class TestAccumulate:
    def test_identical_masks_diagonal(self):
        m = np.array([[0, 1], [1, 0]], dtype=np.uint16)
        cm = accumulate(ConfusionMatrix(2), m, m)
        np.testing.assert_array_equal(cm.counts, [[2, 0], [0, 2]])

    def test_all_ignore_gt_unchanged(self):
        cm = ConfusionMatrix(2)
        pred = np.zeros((2, 2), dtype=np.uint16)
        gt = np.full((2, 2), IGNORE, dtype=np.uint16)
        accumulate(cm, pred, gt)
        assert cm.counts.sum() == 0

    def test_hand_count(self):
        gt = np.array([[0], [1]], dtype=np.uint16)
        pred = np.array([[0], [0]], dtype=np.uint16)
        cm = accumulate(ConfusionMatrix(2), pred, gt)
        assert cm.counts[0, 0] == 1
        assert cm.counts[1, 0] == 1

    def test_pred_ignore_rejected(self):
        with pytest.raises(PredHasIgnoreError):
            accumulate(ConfusionMatrix(2),
                       np.full((1, 1), IGNORE, dtype=np.uint16),
                       np.zeros((1, 1), dtype=np.uint16))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            accumulate(ConfusionMatrix(2),
                       np.zeros((2, 2), dtype=np.uint16),
                       np.zeros((3, 3), dtype=np.uint16))

    def test_additive_over_splits(self):
        """Accumulating a concatenation equals summing per-part matrices."""
        rng = np.random.default_rng(0)
        preds = [rng.integers(0, 3, (6, 6)).astype(np.uint16) for _ in range(4)]
        gts = [rng.integers(0, 3, (6, 6)).astype(np.uint16) for _ in range(4)]
        whole = ConfusionMatrix(3)
        for p, g in zip(preds, gts):
            accumulate(whole, p, g)
        parts = ConfusionMatrix(3)
        for p, g in zip(preds[:2], gts[:2]):
            accumulate(parts, p, g)
        rest = ConfusionMatrix(3)
        for p, g in zip(preds[2:], gts[2:]):
            accumulate(rest, p, g)
        np.testing.assert_array_equal(whole.counts, parts.merge(rest).counts)


    @pytest.mark.parametrize("where", ["pred", "gt", "pred_under_gt_ignore"])
    def test_label_at_or_above_k_rejected(self, where):
        """A label >= K would be binned into another cell or overflow the
        matrix; it is a validation error, and nothing is counted."""
        pred = np.zeros((3, 3), dtype=np.uint16)
        gt = np.zeros((3, 3), dtype=np.uint16)
        if where == "gt":
            gt[1, 1] = 5
        else:
            pred[1, 1] = 2
            if where == "pred_under_gt_ignore":
                gt[1, 1] = IGNORE
        cm = ConfusionMatrix(2)
        with pytest.raises(OutOfRangeError):
            accumulate(cm, pred, gt)
        assert cm.counts.sum() == 0


class TestIou:
    def test_perfect(self):
        m = np.array([[0, 1]], dtype=np.uint16)
        cm = accumulate(ConfusionMatrix(2), m, m)
        np.testing.assert_allclose(iou_per_class(cm), [1.0, 1.0])

    def test_disjoint_binary(self):
        gt = np.array([[0, 1]], dtype=np.uint16)
        pred = np.array([[1, 0]], dtype=np.uint16)
        cm = accumulate(ConfusionMatrix(2), pred, gt)
        np.testing.assert_allclose(iou_per_class(cm), [0.0, 0.0])

    def test_shifted_square(self):
        pred, gt = shifted_square_fixture()
        cm = accumulate(ConfusionMatrix(2), pred, gt)
        ious = iou_per_class(cm)
        assert ious[1] == pytest.approx(1.0 / 3.0)
        assert ious[0] == pytest.approx(5.0 / 6.0)

    def test_undefined_class_excluded(self):
        gt = np.zeros((2, 2), dtype=np.uint16)
        pred = np.zeros((2, 2), dtype=np.uint16)
        cm = accumulate(ConfusionMatrix(3), pred, gt)
        ious = iou_per_class(cm)
        assert np.isnan(ious[1]) and np.isnan(ious[2])
        s = summary(cm)
        assert s["miou"] == pytest.approx(1.0)


class TestSummary:
    def test_perfect_binary(self):
        m = np.array([[0, 1]], dtype=np.uint16)
        cm = accumulate(ConfusionMatrix(2), m, m)
        s = summary(cm)
        assert (s["iou_n"], s["iou_d"], s["miou"]) == (1.0, 1.0, 1.0)

    def test_shifted_square_miou(self):
        pred, gt = shifted_square_fixture()
        cm = accumulate(ConfusionMatrix(2), pred, gt)
        assert summary(cm)["miou"] == pytest.approx(0.583333, abs=1e-4)

    def test_k3_has_no_binary_fields(self):
        m = np.array([[0, 1, 2]], dtype=np.uint16)
        cm = accumulate(ConfusionMatrix(3), m, m)
        s = summary(cm)
        assert "iou_n" not in s and "iou_d" not in s
        assert s["miou"] == pytest.approx(1.0)

    def test_k3_binary_fields_requested_raises(self):
        cm = ConfusionMatrix(3)
        with pytest.raises(NotBinaryError):
            summary(cm, require_binary=True)
