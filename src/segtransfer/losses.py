"""Loss values and analytic gradients, decoupled from any model.

The combined objective is L_C + L_S + eta * L_D + mu * L_SRT.  All
probabilities are clamped to [1e-7, 1 - 1e-7] before logs so saturated
toy models stay finite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import IGNORE, as_label_mask, as_prob_map, check_same_shape
from .errors import InvalidConfigError

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class LossWeights:
    eta: float = 0.3           # weight of the adversarial term
    mu: float = 10.0           # weight of the centroid-alignment term
    alpha: float = 1.0         # l1 weight inside the alignment loss
    lambda_global: float = 0.0  # selection reward reported inside the seg loss

    def __post_init__(self):
        for name in ("eta", "mu", "alpha", "lambda_global"):
            # an infinite or NaN weight would make a disabled term's 0.0 a NaN total
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InvalidConfigError(f"{name} must be finite and >= 0")


def _clamp(p):
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def classification_loss(pred: float, label: int):
    """Binary cross-entropy for one image-level prediction.

    Returns (loss, d loss / d pred).
    """
    p = float(np.clip(pred, PROB_CLAMP, 1.0 - PROB_CLAMP))
    y = float(label)
    loss = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    grad = -y / p + (1.0 - y) / (1.0 - p)
    return loss, grad


def segmentation_loss(p, m, lambda_global: float = 0.0):
    """Masked cross-entropy with the selection reward reported.

    loss = [ -sum over labeled pixels of log p[label]
             - lambda_global * (labeled pixel count) ] / (H*W)

    The reward term is constant at fixed labels, so the returned gradient
    (w.r.t. probabilities) is -1/p at each labeled pixel's class and 0
    elsewhere, divided by H*W.
    """
    p = as_prob_map(p)
    m = as_label_mask(m)
    check_same_shape(p, m, "probability map and label mask")
    h, w, _ = p.shape
    total = float(h * w)
    labeled = m != IGNORE
    grad = np.zeros_like(p)
    if not labeled.any():
        return 0.0, grad
    ys, xs = np.nonzero(labeled)
    cls = m[ys, xs].astype(np.int64)
    probs = _clamp(p[ys, xs, cls])
    loss = (-np.log(probs).sum() - lambda_global * ys.size) / total
    grad[ys, xs, cls] = -1.0 / (probs * total)
    return float(loss), grad


def discriminator_loss(d_src, d_tgt):
    """Binary cross-entropy for the domain discriminator.

    Convention: target-domain label 1, source-domain label 0, so
    loss = -mean log D(target) - mean log(1 - D(source)).  Returns
    (loss, grad wrt d_src, grad wrt d_tgt).
    """
    d_src = _clamp(np.asarray(d_src, dtype=np.float64))
    d_tgt = _clamp(np.asarray(d_tgt, dtype=np.float64))
    loss = float(-np.log(d_tgt).mean() - np.log(1.0 - d_src).mean())
    grad_tgt = -1.0 / (d_tgt * d_tgt.size)
    grad_src = 1.0 / ((1.0 - d_src) * d_src.size)
    return loss, grad_src, grad_tgt


def adversarial_loss_for_segmenter(d_tgt):
    """Segmenter-side adversarial term: push target predictions toward the
    source label, loss = -mean log(1 - D(target)).  Returns (loss, grad
    wrt d_tgt)."""
    d_tgt = _clamp(np.asarray(d_tgt, dtype=np.float64))
    loss = float(-np.log(1.0 - d_tgt).mean())
    grad = 1.0 / ((1.0 - d_tgt) * d_tgt.size)
    return loss, grad


def total_loss(l_c: float, l_s: float, l_d: float, l_srt: float, w: LossWeights) -> float:
    return l_c + l_s + w.eta * l_d + w.mu * l_srt
