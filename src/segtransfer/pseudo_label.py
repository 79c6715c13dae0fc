"""Pseudo pixel-label assignment and superpixel-gated refinement.

Stage one assigns each pixel the class maximizing prob/threshold, kept
only when the winning probability strictly exceeds its class threshold;
everything else stays IGNORE.  Stage two fills IGNORE pixels by a
majority vote over their 8-neighborhood, counting only neighbors that
share the pixel's superpixel, and only when the winning vote count
exceeds 4.  The vote reads the stage-one mask, never the partly filled
output, so the result is independent of scan order.  Of the superpixel
map it reads only which neighbors share a superpixel: one byte per pixel
(neighbour_bits), with no bit across the map's border, so the bitmaps of
stacked images label each image as it is labelled alone.
"""

from typing import NamedTuple

import numpy as np

from .core import IGNORE, as_label_mask, as_prob_map
from .errors import ClassMismatchError, DimensionMismatchError
from .thresholds import ClassThresholds

# the (pixel, neighbor) windows of the 8 neighbors, row by row from the top left,
# from the pixel's and the neighbor's span along each axis, by the neighbor's offset
_SPANS = {-1: (np.s_[1:], np.s_[:-1]), 0: (np.s_[:], np.s_[:]), 1: (np.s_[:-1], np.s_[1:])}
_WINDOWS = [tuple(zip(_SPANS[y], _SPANS[x])) for y in (-1, 0, 1) for x in (-1, 0, 1) if y or x]

# a neighbour_bits map, told by its type from an ID map, which may be uint8 too
NeighbourBits = NamedTuple("NeighbourBits", [("bits", np.ndarray)])


def neighbour_bits(sp) -> np.ndarray:
    """(H, W) IDs -> uint8 whose bit j says if neighbor j of _WINDOWS is in the same superpixel."""
    sp = np.asarray(sp)
    if sp.ndim != 2:
        raise DimensionMismatchError(f"superpixel map must be (H, W), got shape {sp.shape}")
    bits = np.zeros(sp.shape, dtype=np.uint8)
    for j, (dst, src) in enumerate(_WINDOWS):
        bits[dst] |= (sp[src] == sp[dst]).view(np.uint8) << j
    return bits


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
    """Fill IGNORE pixels by same-superpixel 8-neighborhood voting; sp: IDs or NeighbourBits.

    Labeled pixels are never modified.  A pixel is filled with the class
    holding the most votes (ties to the lowest index) iff that count > 4.
    Out-of-bounds and IGNORE neighbors contribute no votes.

    Votes are counted only for the classes present.  Distinct classes
    vote with disjoint neighbors, so at most one class can hold more
    than 4 of the 8 votes, and no fill ever meets a tie.
    """
    m = as_label_mask(m)
    grid = sp.bits if isinstance(sp, NeighbourBits) else np.asarray(sp)
    if m.shape != grid.shape:
        raise DimensionMismatchError(f"mask {m.shape} vs superpixel map {grid.shape}")
    same = ([(grid[dst] & (1 << j)) != 0 for j, (dst, _) in enumerate(_WINDOWS)]
            if isinstance(sp, NeighbourBits) else [grid[src] == grid[dst] for dst, src in _WINDOWS])
    out = m.copy()
    unlabeled = m == IGNORE
    # np.bincount, not np.unique: a plain np.unique imports numpy.ma on its first call (~9 ms)
    for c in np.flatnonzero(np.bincount(m[~unlabeled])).tolist():
        is_c = m == c
        votes = np.zeros(m.shape, dtype=np.uint8)
        for (dst, src), shared in zip(_WINDOWS, same):
            votes[dst] += is_c[src] & shared
        out[unlabeled & (votes > 4)] = c
    return out


def generate(p, t: ClassThresholds, sp) -> np.ndarray:
    """Initial assignment, then one refinement pass with sp as in refine_with_superpixels."""
    return refine_with_superpixels(assign_initial(p, t), sp)
