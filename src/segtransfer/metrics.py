"""IoU evaluation on a dataset-level confusion matrix.

Class 0 is the normal class and class 1 the disease class in the binary
summary.  Undefined classes (zero union) are excluded from the mean
rather than counted as zero.
"""

import numpy as np

from .core import IGNORE, as_label_mask
from .errors import (
    DimensionMismatchError,
    NotBinaryError,
    OutOfRangeError,
    PredHasIgnoreError,
)


class ConfusionMatrix:
    """K x K counts, rows = ground truth, cols = prediction."""

    def __init__(self, num_classes: int):
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if other.num_classes != self.num_classes:
            raise DimensionMismatchError("cannot merge matrices of different K")
        self.counts += other.counts
        return self


def accumulate(cm: ConfusionMatrix, pred, gt) -> ConfusionMatrix:
    """Add one prediction/ground-truth pair.  Predictions must be total
    (no IGNORE); ground-truth IGNORE pixels are excluded.  Every other
    label of either must be below the matrix's K."""
    pred = as_label_mask(pred)
    gt = as_label_mask(gt)
    if pred.shape != gt.shape:
        raise DimensionMismatchError(f"pred {pred.shape} vs gt {gt.shape}")
    if np.any(pred == IGNORE):
        raise PredHasIgnoreError("prediction contains IGNORE pixels")
    valid = gt != IGNORE
    codes = gt[valid].astype(np.int64)
    k = cm.num_classes
    for what, labels in (("prediction", pred), ("ground-truth", codes)):
        if labels.size and int(labels.max()) >= k:
            raise OutOfRangeError(f"{what} label {int(labels.max())} >= num_classes {k}")
    # gt * k + pred, in place: one call may cover a whole target set
    codes *= k
    codes += pred[valid]
    cm.counts += np.bincount(codes, minlength=k * k).reshape(k, k)
    return cm


def iou_per_class(cm: ConfusionMatrix) -> np.ndarray:
    """IoU_k = TP / (TP + FP + FN); NaN where the denominator is zero."""
    tp = np.diag(cm.counts).astype(np.float64)
    fp = cm.counts.sum(axis=0) - tp
    fn = cm.counts.sum(axis=1) - tp
    denom = tp + fp + fn
    out = np.full(cm.num_classes, np.nan)
    defined = denom > 0
    out[defined] = tp[defined] / denom[defined]
    return out


def summary(cm: ConfusionMatrix, require_binary: bool = False) -> dict:
    """Metric summary: per-class IoU, mean IoU over defined classes, and
    for binary matrices the normal/disease split."""
    ious = iou_per_class(cm)
    defined = ~np.isnan(ious)
    out = {
        "per_class": [None if np.isnan(v) else float(v) for v in ious],
        "miou": float(np.mean(ious[defined])) if defined.any() else None,
    }
    if cm.num_classes == 2:
        out["iou_n"] = out["per_class"][0]
        out["iou_d"] = out["per_class"][1]
    elif require_binary:
        raise NotBinaryError(f"iou_n/iou_d need K=2, matrix has K={cm.num_classes}")
    return out
