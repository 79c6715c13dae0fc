"""Workloads of the benchmark: inputs, CLI calls and output checks.

Each workload is a closed loop with one client: the next CLI call starts
when the previous one has exited.  A run of a workload covers `cases`
inputs, each made from its own seed (`case_seed`), so that quality
metrics average over several datasets.  The program sees only the
generated files.

- train_full: CLI `train` on `gen-synth` data at the acceptance-c8
  configuration (32x32, 200 source / 100 target images, 15 epochs,
  lr 0.5, eta 0.01, mu 0.01) with pseudo labels, centroid alignment and
  adversarial alignment on.  The paper's full recipe; SLIC, the training
  step and the target forward share the time.
- train_bl: the same data with --no-pl --no-srt --no-adv.  Bypasses
  superpixel, thresholds, pseudo_label and the SRT/ADV gradient branches;
  nearly all time is the training step on all-IGNORE target masks.
- label_textured: CLI `thresholds` over benchmark-made probability maps,
  then CLI `pseudolabel` per image, on 128x128 target images with heavy
  texture (shift_noise 30).  Raw SLIC leaves thousands of 4-connected
  fragments per image, so connectivity enforcement dominates; there is no
  training to hide the TNSR reads and writes.
"""

import json
import math
import os
import shutil
import struct
from dataclasses import dataclass, field

import numpy as np

IGNORE = 65535
HERE = os.path.dirname(os.path.abspath(__file__))

# acceptance criterion c8 of the test suite trains with these values
C8_CONFIG = {"epochs": 15, "learning_rate": 0.5, "eta": 0.01, "mu": 0.01}
LABEL_CONFIG = {"image_size": 128, "source_count": 1, "target_count": 6, "shift_noise": 30.0}
LABEL_PORTION = 0.4  # --p of CLI thresholds
BASELINE_FLAGS = ("--no-pl", "--no-srt", "--no-adv")
LOSS_KEYS = ("L_C", "L_S", "L_D", "L_SRT", "L_disc", "total")
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "label"
    cases: int
    config: dict
    train_flags: tuple = ()
    check_reference: bool = True

    @property
    def use_pl(self):
        return "--no-pl" not in self.train_flags


WORKLOADS = {w.name: w for w in (
    Workload("train_full", "train", 2, C8_CONFIG),
    Workload("train_bl", "train", 4, C8_CONFIG, BASELINE_FLAGS),
    Workload("label_textured", "label", 2, LABEL_CONFIG),
)}

# the same workloads at toy sizes, for the smoke test
_TINY_TRAIN = {**C8_CONFIG, "image_size": 16, "source_count": 8, "target_count": 4,
               "epochs": 2, "n_segments": 16}
TINY = {w.name: w for w in (
    Workload("train_full", "train", 2, _TINY_TRAIN, check_reference=False),
    Workload("train_bl", "train", 2, _TINY_TRAIN, BASELINE_FLAGS, check_reference=False),
    Workload("label_textured", "label", 2, {**LABEL_CONFIG, "image_size": 32, "target_count": 2},
             check_reference=False),
)}


def case_seed(seed, i):
    """Seed of case i of a run; case 0 of seed 0 is the program's default."""
    return seed * 100 + i


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# TNSR files, read and written here rather than by the program under test

_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<u2"), 3: np.dtype("u1")}


def read_tnsr(path):
    """(dtype code, array) of a TNSR file; ValueError if malformed."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"TNSR" or len(data) < 7:
        raise ValueError(f"{path}: bad magic")
    _, code, ndim = struct.unpack("<BBB", data[4:7])
    if code not in _DTYPES or not 1 <= ndim <= 4 or len(data) < 7 + 4 * ndim:
        raise ValueError(f"{path}: bad header")
    dims = struct.unpack(f"<{ndim}I", data[7:7 + 4 * ndim])
    payload = data[7 + 4 * ndim:]
    if len(payload) != math.prod(dims) * _DTYPES[code].itemsize:
        raise ValueError(f"{path}: bad payload length")
    return code, np.frombuffer(payload, dtype=_DTYPES[code]).reshape(dims)


def write_tnsr_f32(path, arr):
    arr = np.ascontiguousarray(arr, dtype="<f4")
    header = b"TNSR" + struct.pack("<BBB", 1, 1, arr.ndim) + struct.pack(
        f"<{arr.ndim}I", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header + arr.tobytes())


# ---------------------------------------------------------------------------
# cases


@dataclass
class Outcome:
    """What one iteration of one case produced."""
    problems: list = field(default_factory=list)  # one list of strings per call
    quality: dict = field(default_factory=dict)   # miou, pl_precision


class Case:
    """One input set of a workload: set up once, iterated many times."""

    def __init__(self, workload, seed, directory):
        self.w = workload
        self.seed = seed
        self.dir = directory
        self.data = os.path.join(directory, "data")
        self.probs = os.path.join(directory, "probs")
        self.config = os.path.join(directory, "config.json")

    def setup(self, run_cli):
        """Generate the inputs; returns the failed call's log or None."""
        os.makedirs(self.dir, exist_ok=True)
        with open(self.config, "w") as fh:
            json.dump(self.w.config, fh)
        res = run_cli(["--quiet", "--config", self.config, "--seed", str(self.seed),
                       "gen-synth", self.data])
        if res.code != 0:
            return res.output
        if self.w.kind == "label":
            self._write_prob_maps()
        return None

    def _write_prob_maps(self):
        """Noisy two-class probability maps around the eval masks."""
        rng = np.random.default_rng([self.seed, 7])
        os.makedirs(self.probs, exist_ok=True)
        for name in self.target_names():
            _, gt = read_tnsr(os.path.join(self.data, "target_eval", "masks", name + ".tnsr"))
            logit = np.where(gt == 1, 1.5, -1.5) + rng.normal(0.0, 1.5, gt.shape)
            p1 = 1.0 / (1.0 + np.exp(-logit))
            write_tnsr_f32(os.path.join(self.probs, name + ".tnsr"),
                           np.stack([1.0 - p1, p1], axis=-1))

    def target_names(self):
        with open(os.path.join(self.data, "target", "labels.json")) as fh:
            return json.load(fh)["files"]

    def calls(self, out):
        """CLI argument lists of one iteration writing under `out`."""
        base = ["--quiet", "--config", self.config, "--seed", str(self.seed)]
        if self.w.kind == "train":
            return [base + ["train", self.data, "--out", out, *self.w.train_flags]]
        thr = os.path.join(out, "thresholds.json")
        calls = [base + ["thresholds", self.probs, "--p", repr(LABEL_PORTION), "--out", thr]]
        for name in self.target_names():
            calls.append(base + ["pseudolabel", os.path.join(self.probs, name + ".tnsr"), thr,
                                 os.path.join(self.data, "target", "images", name + ".tnsr"),
                                 "--out", os.path.join(out, "masks", name + ".tnsr")])
        return calls

    def prepare(self, out):
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(os.path.join(out, "masks") if self.w.kind == "label" else out)

    def check(self, out, codes, reference=None):
        """Check an iteration's outputs; every check holds for any seed.

        With `reference` (seed 0 at full size) the per-epoch mIoU of a train
        workload, or the per-image precision of a label workload, must match
        the recorded values to REL_TOL relative: reordered float sums may
        move them, changed behaviour may not.
        """
        problems = [[f"exit code {c}"] if c != 0 else [] for c in codes]
        if self.w.kind == "train":
            quality = self._check_train(out, problems[0])
        else:
            quality = self._check_label(out, problems)
        series = quality.pop("series", None)
        if reference is not None and not (
                series is not None and len(series) == len(reference)
                and all(_close(g, r) for g, r in zip(series, reference))):
            problems[-1].append(f"{series} differs from the reference {reference}")
        return Outcome(problems, quality)

    # -- train --------------------------------------------------------------

    def _check_train(self, out, problems):
        try:
            records = _read_log(os.path.join(out, "log.jsonl"))
        except (OSError, ValueError) as e:
            problems.append(f"log.jsonl: {e}")
            return {}
        if [r.get("epoch") for r in records] != list(range(self.w.config["epochs"])):
            problems.append(f"log.jsonl epochs {[r.get('epoch') for r in records]}")
        for r in records:
            for key in LOSS_KEYS + ("lr",):
                if not _finite(r.get(key)):
                    problems.append(f"epoch {r.get('epoch')}: {key}={r.get(key)!r}")
            for key in ("miou", "p", "pl_fraction"):
                if not (_finite(r.get(key)) and 0.0 <= r[key] <= 1.0):
                    problems.append(f"epoch {r.get('epoch')}: {key}={r.get(key)!r}")
        try:
            with open(os.path.join(out, "log.csv")) as fh:
                csv_lines = fh.read().splitlines()
            if not csv_lines or not csv_lines[0].startswith("epoch,") \
                    or len(csv_lines) != len(records) + 1:
                problems.append("log.csv does not match log.jsonl")
        except OSError as e:
            problems.append(f"log.csv: {e}")

        names = self.target_names()
        masks, gts = [], []
        for name in names:
            try:
                code, mask = read_tnsr(os.path.join(out, "pseudo_labels", name + ".tnsr"))
                _, gt = read_tnsr(os.path.join(self.data, "target_eval", "masks", name + ".tnsr"))
            except (OSError, ValueError) as e:
                problems.append(f"pseudo label {name}: {e}")
                return {}
            if code != 2 or mask.shape != gt.shape:
                problems.append(f"pseudo label {name}: dtype code {code}, shape {mask.shape}")
            elif not np.isin(mask, (0, 1, IGNORE)).all():
                problems.append(f"pseudo label {name}: values outside {{0, 1, IGNORE}}")
            elif not self.w.use_pl and (mask != IGNORE).any():
                problems.append(f"pseudo label {name}: labelled pixels with --no-pl")
            masks.append(mask)
            gts.append(gt)
        if problems:
            return {}

        quality = {"miou": records[-1]["miou"], "series": [r["miou"] for r in records]}
        if self.w.use_pl:
            quality["pl_precision"] = _precision(masks, gts)
            if quality["pl_precision"] is None:
                problems.append("final pseudo labels label no pixel")
                return {}
        else:
            try:
                quality["pl_precision"] = self._argmax_accuracy(out, names, gts)
            except (OSError, ValueError) as e:
                problems.append(f"segmenter model: {e}")
                return {}
        return quality

    def _argmax_accuracy(self, out, names, gts):
        """Share of target pixels the final segmenter labels correctly: the
        precision of labelling every pixel with its argmax, which is what
        the baseline would hand to self-training."""
        code, weights = read_tnsr(os.path.join(out, "models", "segmenter.tnsr"))
        if code != 1 or weights.shape != (5, 2) or not np.isfinite(weights).all():
            raise ValueError(f"dtype code {code}, shape {weights.shape}")
        correct = total = 0
        for name, gt in zip(names, gts):
            _, img = read_tnsr(os.path.join(self.data, "target", "images", name + ".tnsr"))
            pred = np.argmax(_pixel_features(img) @ weights.astype(np.float64), axis=-1)
            correct += int((pred == gt).sum())
            total += gt.size
        return correct / total

    # -- label --------------------------------------------------------------

    def _check_label(self, out, problems):
        try:
            with open(os.path.join(out, "thresholds.json")) as fh:
                doc = json.load(fh)
            lambdas = np.asarray(doc["lambdas"], dtype=np.float64)
            if doc["K"] != 2 or lambdas.shape != (2,) or not (
                    np.isfinite(lambdas).all() and (lambdas >= 0).all()):
                raise ValueError(f"bad thresholds {doc}")
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems[0].append(f"thresholds.json: {e}")
            return {}
        thr = np.exp(-lambdas)

        masks, gts, precisions = [], [], []
        for i, name in enumerate(self.target_names(), start=1):
            try:
                code, mask = read_tnsr(os.path.join(out, "masks", name + ".tnsr"))
                _, probs = read_tnsr(os.path.join(self.probs, name + ".tnsr"))
                _, gt = read_tnsr(os.path.join(self.data, "target_eval", "masks", name + ".tnsr"))
            except (OSError, ValueError) as e:
                problems[i].append(f"mask {name}: {e}")
                continue
            if code != 2 or mask.shape != gt.shape:
                problems[i].append(f"mask {name}: dtype code {code}, shape {mask.shape}")
                continue
            if not np.isin(mask, (0, 1, IGNORE)).all():
                problems[i].append(f"mask {name}: values outside {{0, 1, IGNORE}}")
                continue
            # refinement only fills IGNORE pixels, so every pixel the closed-form
            # assignment admits keeps its class
            p = probs.astype(np.float64)
            best = np.argmax(p / thr, axis=-1)
            admitted = np.take_along_axis(p, best[..., None], axis=-1)[..., 0] > thr[best]
            if not np.array_equal(mask[admitted], best[admitted]):
                problems[i].append(f"mask {name}: admitted pixels changed class")
                continue
            masks.append(mask)
            gts.append(gt)
            precisions.append(_precision([mask], [gt]))
        if any(problems):
            return {}
        return {"miou": _labelled_miou(masks, gts), "pl_precision": _precision(masks, gts),
                "series": precisions}


# ---------------------------------------------------------------------------
# helpers


def _read_log(path):
    records = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("record is not an object")
            records.append(rec)
    if not records:
        raise ValueError("no records")
    return records


def _finite(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _close(got, want):
    return _finite(got) and abs(got - want) <= REL_TOL * abs(want)


def _precision(masks, gts):
    """Share of labelled pixels whose label matches the eval mask."""
    labelled = sum(int((m != IGNORE).sum()) for m in masks)
    correct = sum(int(((m != IGNORE) & (m == g)).sum()) for m, g in zip(masks, gts))
    return correct / labelled if labelled else None


def _labelled_miou(masks, gts, k=2):
    """Mean IoU over classes, counting only the pixels a mask labels."""
    cm = np.zeros((k, k), dtype=np.int64)
    for m, g in zip(masks, gts):
        sel = m != IGNORE
        cm += np.bincount(g[sel].astype(np.int64) * k + m[sel], minlength=k * k).reshape(k, k)
    tp = np.diag(cm)
    denom = cm.sum(axis=0) + cm.sum(axis=1) - tp
    defined = denom > 0
    return float(np.mean(tp[defined] / denom[defined])) if defined.any() else None


def _pixel_features(img):
    """The toy segmenter's features plus bias, (H, W, 5), for grayscale
    images: intensity, row, column, 3x3 zero-padded local mean, 1."""
    h, w = img.shape
    norm = img.astype(np.float64) / 255.0
    padded = np.pad(norm, 1)
    local = np.zeros((h, w))
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            local += padded[dy:dy + h, dx:dx + w]
    ys = np.broadcast_to((np.arange(h) / max(h - 1, 1))[:, None], (h, w))
    xs = np.broadcast_to((np.arange(w) / max(w - 1, 1))[None, :], (h, w))
    return np.stack([norm, ys, xs, local / 9.0, np.ones((h, w))], axis=-1)
