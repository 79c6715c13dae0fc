"""Per-class feature centroids and the centroid-alignment loss.

Centroids are accumulated across training as an exponentially-weighted
sum: after n updates the bank holds sum_x C^x * gamma^(n-x), realized by
the recurrence C <- gamma * C + C_new.  The alignment loss between the
source and target banks is squared-l2 plus alpha-weighted l1 per class.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidConfigError


@dataclass
class BatchCentroids:
    """Per-class centroids of one batch; counts record how many pixels of
    each class contributed (diagnostic only -- the divisor is always the
    total pixel count)."""

    values: np.ndarray  # (K, D)
    counts: np.ndarray  # (K,)


@dataclass
class CentroidBank:
    """Exponentially-weighted centroid accumulator for one dataset."""

    num_classes: int
    dim: int
    gamma: float
    centroids: np.ndarray = field(default=None)
    steps: int = 0

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise InvalidConfigError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.centroids is None:
            self.centroids = np.zeros((self.num_classes, self.dim))
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.shape != (self.num_classes, self.dim):
            raise DimensionMismatchError(
                f"centroids shape {self.centroids.shape} != ({self.num_classes}, {self.dim})")


def update_bank(bank: CentroidBank, batch: BatchCentroids) -> CentroidBank:
    """One accumulation step; returns a new bank, the input is untouched."""
    if batch.values.shape != bank.centroids.shape:
        raise DimensionMismatchError(
            f"batch centroids {batch.values.shape} != bank {bank.centroids.shape}")
    return CentroidBank(
        num_classes=bank.num_classes,
        dim=bank.dim,
        gamma=bank.gamma,
        centroids=bank.gamma * bank.centroids + batch.values,
        steps=bank.steps + 1,
    )


def srt_loss(bank_s: CentroidBank, bank_t: CentroidBank, alpha: float):
    """Alignment loss sum_k ||Cs_k - Ct_k||_2^2 + alpha * ||Cs_k - Ct_k||_1.

    Returns (loss, grad_s, grad_t) with grad_s = 2*d + alpha*sign(d),
    sign(0) = 0, and grad_t = -grad_s.
    """
    if bank_s.centroids.shape != bank_t.centroids.shape:
        raise DimensionMismatchError(
            f"banks disagree: {bank_s.centroids.shape} vs {bank_t.centroids.shape}")
    d = bank_s.centroids - bank_t.centroids
    loss = float((d ** 2).sum() + alpha * np.abs(d).sum())
    grad_s = 2.0 * d + alpha * np.sign(d)
    return loss, grad_s, -grad_s
