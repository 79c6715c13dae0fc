"""Shared array conventions, validation, and derived prediction maps.

All spatial data is row-major numpy with channel-last layout:

* probability map -- (H, W, K) floats, per-pixel softmax vector
* label mask      -- (H, W) uint16 class indices, IGNORE = 65535 marks
                     pixels without supervision
* image           -- (H, W) or (H, W, C) uint8, C in {1, 3}
* feature map     -- (H, W, D) floats

Class indices are 0-based.  All operations here are pure functions.
Reductions over the classes run on the class-major (K, H, W) view
np.moveaxis(p, -1, 0), which is contiguous for the maps the segmenter
returns: numpy reduces a short last axis far more slowly than it combines
K whole planes.
"""

import json
import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NotNormalizedError,
    OutOfRangeError,
    ValidationError,
)

IGNORE = 65535
PROB_SUM_TOL = 1e-4


def as_prob_map(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 3:
        raise DimensionMismatchError(f"probability map must be (H, W, K), got shape {p.shape}")
    return p


def validate_prob_map(p) -> None:
    """Raise unless every value is finite and in [0, 1] and every pixel
    sums to 1 within PROB_SUM_TOL.  Range is checked before normalization
    so that e.g. (1.2, -0.2) reports the range violation.  NaN fails every
    comparison, so it is caught by its own check."""
    p = as_prob_map(p)
    finite = np.isfinite(p)
    if not finite.all():
        raise OutOfRangeError(f"probability {p[~finite].flat[0]} is not finite")
    if np.any(p < 0.0) or np.any(p > 1.0):
        bad = p[(p < 0.0) | (p > 1.0)].flat[0]
        raise OutOfRangeError(f"probability {bad} outside [0, 1]")
    sums = p.sum(axis=-1)
    dev = np.abs(sums - 1.0)
    if np.any(dev > PROB_SUM_TOL):
        worst = float(sums.flat[int(np.argmax(dev))])
        raise NotNormalizedError(f"pixel sum {worst} deviates from 1 by more than {PROB_SUM_TOL}")


def validate_label_mask(m, k, what: str) -> None:
    """Raise unless m is an integer or bool array whose every value is
    IGNORE or a label in [0, k); the error names m as `what`.  No
    temporary is larger than m."""
    m = np.asarray(m)
    if m.dtype.kind not in "biu":
        raise ValidationError(f"{what} has dtype {m.dtype}, not an integer one")
    # one or two reductions clear a mask without IGNORE
    if m.size and (m.max() >= k or m.dtype.kind == "i" and m.min() < 0):
        bad = m[((m < 0) | (m >= k)) & (m != IGNORE)]
        if bad.size:
            raise OutOfRangeError(f"{what} holds {bad[0]}, neither IGNORE nor a label in [0, {k})")


def _first_max(planes):
    """(K, ...) class-major planes -> (index of the first maximum as
    uint16, the maximum).

    Ties go to the lowest class by K strict `>` comparisons, each over
    one whole plane.  A NaN wins as in np.argmax (the first NaN) and
    propagates into the maximum as in np.max.
    """
    best = planes[0].copy()
    idx = np.zeros(best.shape, dtype=np.uint16)
    for k in range(1, planes.shape[0]):
        np.copyto(idx, k, where=planes[k] > best)
        np.maximum(best, planes[k], out=best)
    nan = np.isnan(best)
    if nan.any():
        idx[nan] = np.argmax(np.isnan(planes[:, nan]), axis=0)
    return idx, best


def argmax_map(p) -> np.ndarray:
    """Per-pixel index of the maximum probability; ties break to the
    lowest class index."""
    return _first_max(np.moveaxis(as_prob_map(p), -1, 0))[0]


def max_map(p) -> np.ndarray:
    """Per-pixel maximum probability."""
    return np.max(np.moveaxis(as_prob_map(p), -1, 0), axis=0)


def as_label_mask(m) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2:
        raise DimensionMismatchError(f"label mask must be (H, W), got shape {m.shape}")
    return m.astype(np.uint16, copy=False)


def check_same_shape(a, b, what="inputs") -> None:
    if a.shape[:2] != b.shape[:2]:
        raise DimensionMismatchError(f"{what} disagree: {a.shape[:2]} vs {b.shape[:2]}")


def cast_json_value(key, typ, value):
    """A JSON value read as typ (bool, int or float), or InvalidConfigError."""
    # bool("false"), int(1.7), float(True) and float("1") would silently
    # reinterpret the value, and NaN or an infinity passes every range check
    if typ is bool:
        ok, kind = isinstance(value, bool), "true or false"
    else:
        ok = (isinstance(value, int) and not isinstance(value, bool)
              or isinstance(value, float) and math.isfinite(value)
              and (typ is float or value.is_integer()))
        kind = "a finite number" if typ is float else "an integer"
    if ok:
        try:
            return typ(value)
        except OverflowError:  # float() of an int past the float range
            pass
    raise InvalidConfigError(f"{key} must be {kind}, got {json.dumps(value)}")
