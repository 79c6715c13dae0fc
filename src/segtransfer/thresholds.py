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


def determine_lambdas(maps, p: float) -> ClassThresholds:
    """Compute per-class lambdas from predicted probability maps.

    For each class, gather the max probability of every pixel predicted as
    that class across all maps, sort ascending, and read the value at index
    floor((1 - p) * n), clamped to [0, n - 1].  A class never predicted
    gets lambda 0 (threshold 1.0, which admits nothing under the strict
    inequality used downstream).
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

    gathered = [[] for _ in range(num_classes)]
    for m in maps:
        labels, confid = _first_max(np.moveaxis(m, -1, 0))
        for k in range(num_classes):
            sel = confid[labels == k]
            if sel.size:
                gathered[k].append(sel)

    lambdas = np.zeros(num_classes, dtype=np.float64)
    for k in range(num_classes):
        if not gathered[k]:
            continue
        sel = np.concatenate(gathered[k])
        t_idx = int(np.floor((1.0 - p) * sel.size))
        t_idx = min(max(t_idx, 0), sel.size - 1)
        # the value a full sort would put at t_idx
        lambdas[k] = -np.log(max(np.partition(sel, t_idx)[t_idx], MIN_PROB))
    return ClassThresholds(lambdas)
