"""Pseudo pixel-label assignment and superpixel-gated refinement.

Stage one assigns each pixel the class maximizing prob/threshold, kept
only when the winning probability strictly exceeds its class threshold;
everything else stays IGNORE.  Stage two fills IGNORE pixels by a
majority vote over their 8-neighborhood, counting only neighbors that
share the pixel's superpixel, and only when the winning vote count
exceeds 4.  The vote reads the stage-one mask, never the partly filled
output, so the result is independent of scan order.

Both stages are per pixel within a superpixel, so images stacked into one
tall map, with superpixel IDs offset to be distinct per image, get the
same labels as each image alone: no vote crosses an image border.
"""

import numpy as np

from .core import IGNORE, as_label_mask, as_prob_map, check_same_shape
from .errors import ClassMismatchError, DimensionMismatchError
from .thresholds import ClassThresholds

_NEIGHBOR_OFFSETS = [(-1, -1), (-1, 0), (-1, 1),
                     (0, -1), (0, 1),
                     (1, -1), (1, 0), (1, 1)]


def assign_initial(p, t: ClassThresholds) -> np.ndarray:
    """Closed-form per-pixel assignment.

    k* = argmax_k prob[k] / t[k] (ties to the lowest index); the pixel gets
    k* iff prob[k*] > t[k*], else IGNORE.
    """
    p = as_prob_map(p)
    if p.shape[2] != t.num_classes:
        raise ClassMismatchError(f"map has K={p.shape[2]}, thresholds have K={t.num_classes}")
    planes = np.moveaxis(p, -1, 0)
    thr = t.thresholds
    best = planes[0] / thr[0]
    selected = planes[0] > thr[0]
    mask = np.zeros(best.shape, dtype=np.uint16)
    for k in range(1, t.num_classes):
        ratio = planes[k] / thr[k]
        better = ratio > best
        np.copyto(mask, k, where=better)
        np.copyto(selected, planes[k] > thr[k], where=better)
        np.maximum(best, ratio, out=best)
    # a NaN ratio wins the argmax, and a NaN probability admits nothing
    selected &= ~np.isnan(best)
    mask[~selected] = IGNORE
    return mask


def refine_with_superpixels(m, sp) -> np.ndarray:
    """Fill IGNORE pixels by same-superpixel 8-neighborhood voting.

    Labeled pixels are never modified.  A pixel is filled with the class
    holding the most votes (ties to the lowest index) iff that count > 4.
    Out-of-bounds and IGNORE neighbors contribute no votes.

    Votes are counted only for the classes present.  Distinct classes
    vote with disjoint neighbors, so at most one class can hold more
    than 4 of the 8 votes, and no fill ever meets a tie.
    """
    m = as_label_mask(m)
    sp = np.asarray(sp)
    if m.shape != sp.shape:
        raise DimensionMismatchError(f"mask {m.shape} vs superpixel map {sp.shape}")
    h, w = m.shape
    out = m.copy()
    # np.bincount, not np.unique: its first call in a process costs ~10 ms
    classes = np.flatnonzero(np.bincount(m[m != IGNORE]))
    if not classes.size:
        return out

    pairs = []  # (destination window, source window, neighbor shares the superpixel)
    for dy, dx in _NEIGHBOR_OFFSETS:
        src = np.s_[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)]
        dst = np.s_[max(-dy, 0):h + min(-dy, 0), max(-dx, 0):w + min(-dx, 0)]
        pairs.append((dst, src, sp[src] == sp[dst]))
    unlabeled = m == IGNORE
    votes = np.empty((h, w), dtype=np.uint8)
    for c in classes.tolist():
        is_c = m == c
        votes.fill(0)
        for dst, src, same_sp in pairs:
            votes[dst] += is_c[src] & same_sp
        out[unlabeled & (votes > 4)] = c
    return out


def generate(p, t: ClassThresholds, sp) -> np.ndarray:
    """Initial assignment followed by one superpixel-gated refinement pass."""
    p = as_prob_map(p)
    check_same_shape(p, np.asarray(sp), "probability map and superpixel map")
    return refine_with_superpixels(assign_initial(p, t), sp)
