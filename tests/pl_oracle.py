"""Channel-last reference versions of the pseudo-label layer.

These are the implementations the class-major ones in `segtransfer.core`,
`segtransfer.pseudo_label`, `segtransfer.thresholds` and
`segtransfer.toy_pipeline` replaced, kept
unchanged as the oracle they must match: reductions run over the last
(class) axis with `np.argmax` / `np.max`, and the refinement vote array
is sized by the largest label.
"""

import numpy as np

from segtransfer.core import IGNORE, as_label_mask, as_prob_map
from segtransfer.errors import (
    ClassMismatchError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidConfigError,
)
from segtransfer.thresholds import MIN_PROB, ClassThresholds

_NEIGHBOR_OFFSETS = [(-1, -1), (-1, 0), (-1, 1),
                     (0, -1), (0, 1),
                     (1, -1), (1, 0), (1, 1)]


def argmax_map(p) -> np.ndarray:
    p = as_prob_map(p)
    return np.argmax(p, axis=-1).astype(np.uint16)


def max_map(p) -> np.ndarray:
    p = as_prob_map(p)
    return np.max(p, axis=-1)


def assign_initial(p, t: ClassThresholds) -> np.ndarray:
    p = as_prob_map(p)
    if p.shape[2] != t.num_classes:
        raise ClassMismatchError(f"map has K={p.shape[2]}, thresholds have K={t.num_classes}")
    thr = t.thresholds
    ratio = p / thr[None, None, :]
    best = np.argmax(ratio, axis=-1)
    best_prob = np.take_along_axis(p, best[..., None], axis=-1)[..., 0]
    selected = best_prob > thr[best]
    mask = np.where(selected, best, IGNORE).astype(np.uint16)
    return mask


def refine_with_superpixels(m, sp) -> np.ndarray:
    m = as_label_mask(m)
    sp = np.asarray(sp)
    if m.shape != sp.shape:
        raise DimensionMismatchError(f"mask {m.shape} vs superpixel map {sp.shape}")
    h, w = m.shape
    frozen = m.copy()
    labeled = frozen != IGNORE
    if not labeled.any():
        return frozen

    num_classes = int(frozen[labeled].max()) + 1
    counts = np.zeros((h, w, num_classes), dtype=np.int32)
    for dy, dx in _NEIGHBOR_OFFSETS:
        ys0, ys1 = max(dy, 0), h + min(dy, 0)
        yd0, yd1 = max(-dy, 0), h + min(-dy, 0)
        xs0, xs1 = max(dx, 0), w + min(dx, 0)
        xd0, xd1 = max(-dx, 0), w + min(-dx, 0)
        nb_label = frozen[ys0:ys1, xs0:xs1]
        nb_sp = sp[ys0:ys1, xs0:xs1]
        same_sp = nb_sp == sp[yd0:yd1, xd0:xd1]
        for k in range(num_classes):
            counts[yd0:yd1, xd0:xd1, k] += ((nb_label == k) & same_sp).astype(np.int32)

    winner = np.argmax(counts, axis=-1)
    winner_count = np.take_along_axis(counts, winner[..., None], axis=-1)[..., 0]
    fill = (frozen == IGNORE) & (winner_count > 4)
    out = frozen.copy()
    out[fill] = winner[fill].astype(np.uint16)
    return out


def generate(p, t: ClassThresholds, sp) -> np.ndarray:
    return refine_with_superpixels(assign_initial(p, t), sp)


def determine_lambdas(maps, p: float) -> ClassThresholds:
    maps = [as_prob_map(m) for m in maps]
    if not maps:
        raise EmptyInputError("no probability maps given")
    if not (0.0 < p <= 1.0):
        raise InvalidConfigError(f"portion p must be in (0, 1], got {p}")
    num_classes = maps[0].shape[2]
    for m in maps:
        if m.shape[2] != num_classes:
            raise ClassMismatchError(f"maps disagree on K: {m.shape[2]} vs {num_classes}")

    gathered = [[] for _ in range(num_classes)]
    for m in maps:
        labels = argmax_map(m).ravel()
        confid = max_map(m).ravel()
        for k in range(num_classes):
            sel = confid[labels == k]
            if sel.size:
                gathered[k].append(sel)

    lambdas = np.zeros(num_classes, dtype=np.float64)
    for k in range(num_classes):
        if not gathered[k]:
            continue
        sm = np.sort(np.concatenate(gathered[k]))
        t_idx = int(np.floor((1.0 - p) * sm.size))
        t_idx = min(max(t_idx, 0), sm.size - 1)
        lambdas[k] = -np.log(max(sm[t_idx], MIN_PROB))
    return ClassThresholds(lambdas)


def refine_probs_by_classification(probs, lesion_prob) -> np.ndarray:
    q = np.asarray(probs, dtype=np.float64).copy()
    q[..., 1:] *= lesion_prob
    q /= q.sum(axis=-1, keepdims=True)
    return q
