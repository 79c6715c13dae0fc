"""Class-balance thresholds and the curriculum portion schedule.

For every class k, the threshold t_k = exp(-lambda_k) is the confidence
value ranked at the (1 - p) quantile of the max-probability distribution
of pixels predicted as k, gathered across the whole target set.  Applying
t_k with a strict inequality admits roughly the top fraction p of each
class's predictions, which keeps rare classes represented instead of
letting a single confident class dominate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ClassMismatchError, EmptyInputError, InvalidConfigError
from .core import _first_max, as_prob_map

# floor for gathered probabilities before the log, so degenerate softmax
# outputs cannot produce non-finite lambdas
MIN_PROB = 1e-12

# pixels handled at once outside a training step, here and in toy_pipeline
_BLOCK_PIXELS = 1 << 14


@dataclass(frozen=True)
class ClassThresholds:
    """Per-class selection parameters; thresholds[k] == exp(-lambdas[k])."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=np.float64)
        if lam.ndim != 1 or lam.size < 1:
            raise InvalidConfigError("lambdas must be a non-empty 1-D vector")
        if not np.all(np.isfinite(lam)) or np.any(lam < 0):
            raise InvalidConfigError("lambdas must be finite and >= 0")
        object.__setattr__(self, "lambdas", lam)

    @property
    def num_classes(self) -> int:
        return self.lambdas.shape[0]

    @property
    def thresholds(self) -> np.ndarray:
        return np.exp(-self.lambdas)

    def to_json_dict(self) -> dict:
        return {"K": self.num_classes, "lambdas": [float(v) for v in self.lambdas]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ClassThresholds":
        try:
            lam = np.asarray(doc["lambdas"], dtype=np.float64)
            k = int(doc["K"])
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidConfigError(f"malformed thresholds document: {e}")
        if k != lam.size:
            raise InvalidConfigError("thresholds document: K does not match lambdas length")
        return cls(lam)


@dataclass(frozen=True)
class CurriculumSchedule:
    """Selected-portion schedule: p grows linearly per epoch up to a cap."""

    p0: float = 0.25
    step: float = 0.05
    p_max: float = 0.55

    def __post_init__(self):
        if not (0.0 < self.p0 <= self.p_max <= 1.0):
            raise InvalidConfigError("schedule requires 0 < p0 <= p_max <= 1")
        if self.step < 0.0:
            raise InvalidConfigError("schedule step must be >= 0")


def portion_at(schedule: CurriculumSchedule, epoch: int) -> float:
    return min(schedule.p0 + schedule.step * epoch, schedule.p_max)


class ClassValues:
    """The max probability of every pixel predicted as each class, for up
    to `size` pixels gathered a block at a time, and the per-class
    quantile read from them.

    One buffer of `size` floats holds each class's values as one run, the
    runs in class order.  The order within a run, and so the order of the
    blocks, does not matter: a class's value is an order statistic of its
    run.
    """

    def __init__(self, num_classes: int, size: int):
        self.buffer = np.empty(size)
        self.bounds = [0] * (num_classes + 1)  # run k is buffer[bounds[k]:bounds[k + 1]]

    def add(self, labels, confid) -> None:
        """Gather one block: the predicted class of each pixel and its
        maximum probability, as _first_max returns them."""
        sels = [confid[labels == k] for k in range(len(self.bounds) - 1)]
        buf, bounds = self.buffer, self.bounds
        # from the last run down, each run moves right by the values added to
        # the runs before it: its first values move to its end, and its new
        # values fill the gap after it, so no more than a block ever moves
        shift = sum(sel.size for sel in sels)
        for k in reversed(range(len(sels))):
            shift -= sels[k].size
            start, end = bounds[k], bounds[k + 1]
            n = min(shift, end - start)
            buf[end + shift - n:end + shift] = buf[start:start + n]
            bounds[k + 1] = end + shift + sels[k].size
            buf[end + shift:bounds[k + 1]] = sels[k]

    def lambdas(self, p: float) -> ClassThresholds:
        """For each class, the value a full ascending sort of its values
        would put at floor((1 - p) * n), clamped to [0, n - 1], as
        lambda = -log(value); the runs are partitioned in place.  A class
        never predicted gets lambda 0 (threshold 1.0, which admits nothing
        under the strict inequality used downstream)."""
        lambdas = np.zeros(len(self.bounds) - 1, dtype=np.float64)
        for k in range(lambdas.size):
            run = self.buffer[self.bounds[k]:self.bounds[k + 1]]
            if run.size:
                t_idx = min(max(int(np.floor((1.0 - p) * run.size)), 0), run.size - 1)
                run.partition(t_idx)
                lambdas[k] = -np.log(max(run[t_idx], MIN_PROB))
        return ClassThresholds(lambdas)


def determine_lambdas(maps, p: float) -> ClassThresholds:
    """Compute per-class lambdas from predicted probability maps.

    For each class, gather the max probability of every pixel predicted as
    that class across all maps and read its quantile; see
    ClassValues.lambdas.  Each map is read in blocks of rows, so beyond
    the gathered values, one float per pixel, only a block's temporaries
    are allocated.
    """
    maps = [as_prob_map(m) for m in maps]
    if not maps:
        raise EmptyInputError("no probability maps given")
    if not (0.0 < p <= 1.0):
        raise InvalidConfigError(f"portion p must be in (0, 1], got {p}")
    num_classes = maps[0].shape[2]
    for m in maps:
        if m.shape[2] != num_classes:
            raise ClassMismatchError(f"maps disagree on K: {m.shape[2]} vs {num_classes}")

    values = ClassValues(num_classes, sum(m.shape[0] * m.shape[1] for m in maps))
    for m in maps:
        rows = max(1, _BLOCK_PIXELS // max(m.shape[1], 1))
        for r in range(0, m.shape[0], rows):
            values.add(*_first_max(np.moveaxis(m[r:r + rows], -1, 0)))
    return values.lambdas(p)
