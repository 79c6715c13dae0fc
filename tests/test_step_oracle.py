"""The stacked, class-major training step must reproduce the per-image
loop implementation in `step_oracle` to rounding: its sums run in
another order, so losses, gradients and candidate banks agree to 1e-12
relative, and a short training run agrees to 1e-9 with byte-identical
pseudo labels."""

from typing import NamedTuple

import numpy as np
import pytest

import step_oracle as oracle
from feature_oracle import pixel_features
from segtransfer.core import IGNORE
from segtransfer.errors import DimensionMismatchError, EmptyInputError, OutOfRangeError
from segtransfer.losses import LossWeights
from segtransfer.toy_pipeline import (
    SynthConfig,
    ToyModels,
    TrainConfig,
    backward_all,
    batch_forward,
    gen_synthetic,
    init_models,
    train,
)
from segtransfer.transfer import CentroidBank

RTOL = 1e-12


def assert_close(got, want, rtol=RTOL):
    """Elementwise agreement relative to the largest entry of `want`; an
    exact zero must stay exactly zero."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    scale = np.abs(want).max() if want.size else 0.0
    if scale == 0.0:
        assert np.all(got == 0.0)
    else:
        assert np.abs(got - want).max() <= rtol * scale


def random_models(dim, k, seed):
    rng = np.random.default_rng(seed)
    return ToyModels(*(w + rng.normal(0.0, 0.5, w.shape) for w in init_models(dim, k, seed)))


def random_banks(k, seed):
    rng = np.random.default_rng(seed + 1)
    return [CentroidBank(num_classes=k, dim=k, gamma=0.7,
                         centroids=rng.normal(size=(k, k)), steps=2) for _ in range(2)]


class Batch(NamedTuple):
    """The step's stacked inputs in batch_forward's argument order, the
    n_s source images first."""
    feats: np.ndarray   # (B, H, W, D)
    masks: np.ndarray   # (B, H, W) uint16
    labels: np.ndarray  # (B,)
    pooled: np.ndarray  # (B, D)
    n_s: int

    def lists(self) -> oracle.BatchData:
        """The same images in the oracle's per-image list form."""
        n = self.n_s
        return oracle.BatchData(
            src_feats=list(self.feats[:n]), src_masks=list(self.masks[:n]),
            src_labels=list(self.labels[:n]), tgt_feats=list(self.feats[n:]),
            tgt_masks=list(self.masks[n:]), tgt_labels=list(self.labels[n:]))


def stacked(feats, masks, labels, n_s) -> Batch:
    """A Batch whose pooled inputs are the mean of each image's feats."""
    feats = np.asarray(feats, dtype=np.float64)
    pooled = feats.reshape(len(feats), -1, feats.shape[-1]).mean(axis=1)
    return Batch(feats, np.asarray(masks, dtype=np.uint16), np.asarray(labels), pooled, n_s)


def make_batch(k=2, n_s=2, n_t=2, size=8, tgt_masks="mixed", seed=0) -> Batch:
    """A synthetic batch: source images with their masks, target images
    with random masks that are labelled ("full"), all IGNORE ("ignore")
    or labelled at about 60% of pixels ("mixed")."""
    data = gen_synthetic(SynthConfig(image_size=size, num_classes=k, source_count=n_s,
                                     target_count=n_t, seed=seed))
    rng = np.random.default_rng(seed)
    masks = []
    for _ in range(n_t):
        if tgt_masks == "ignore":
            m = np.full((size, size), IGNORE, dtype=np.uint16)
        else:
            m = rng.integers(0, k, (size, size)).astype(np.uint16)
            if tgt_masks == "mixed":
                m[rng.random((size, size)) < 0.4] = IGNORE
        masks.append(m)
    images = [*data["source"]["images"], *data["target"]["images"]]
    return stacked([pixel_features(im) for im in images], [*data["source"]["masks"], *masks],
                   [*data["source"]["image_labels"], *data["target"]["image_labels"]], n_s)


def assert_step_matches(models, batch, banks, weights, use_adv, use_srt):
    got = batch_forward(models, *batch, *banks, weights, use_adv=use_adv, use_srt=use_srt)
    want = oracle.batch_forward(models, batch.lists(), *banks, weights,
                                use_adv=use_adv, use_srt=use_srt)
    assert got.losses.keys() == want.losses.keys()
    for key in want.losses:
        assert_close(got.losses[key], want.losses[key])
    for a, b in ((got.new_bank_s, want.new_bank_s), (got.new_bank_t, want.new_bank_t)):
        assert a.steps == b.steps and a.gamma == b.gamma
        assert_close(a.centroids, b.centroids)
    g_got, g_want = backward_all(models, got)._asdict(), oracle.backward_all(models, want)
    assert g_got.keys() == g_want.keys()
    for key in g_want:
        assert_close(g_got[key], g_want[key])


@pytest.mark.parametrize("tgt_masks", ["mixed", "ignore", "full"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("use_srt", [False, True])
@pytest.mark.parametrize("use_adv", [False, True])
def test_step_matches_oracle(use_adv, use_srt, k, tgt_masks):
    batch = make_batch(k=k, tgt_masks=tgt_masks, seed=k)
    models = random_models(batch.feats.shape[3], k, seed=10 + k)
    weights = LossWeights(eta=0.3, mu=2.0, alpha=0.5, lambda_global=0.1)
    assert_step_matches(models, batch, random_banks(k, k), weights, use_adv, use_srt)


@pytest.mark.parametrize("n_s,n_t", [(3, 1), (1, 4), (4, 2)])
def test_unequal_domain_counts(n_s, n_t):
    batch = make_batch(n_s=n_s, n_t=n_t, seed=n_s * 10 + n_t)
    models = random_models(batch.feats.shape[3], 2, seed=n_s)
    assert_step_matches(models, batch, random_banks(2, n_t), LossWeights(), True, True)


@pytest.mark.parametrize("uniform_weights", [False, True])
def test_constant_probability_ties_pick_first_pixel(uniform_weights):
    """A constant image gives every pixel the same softmax, so the max
    statistic ties everywhere; its gradient must go to the first pixel,
    as np.argmax picks it."""
    batch = make_batch(n_s=2, n_t=2, tgt_masks="ignore", seed=3)
    batch.feats[batch.n_s] = 0.5
    batch = stacked(batch.feats, batch.masks, batch.labels, batch.n_s)
    models = random_models(batch.feats.shape[3], 2, seed=3)
    if uniform_weights:
        models.segmenter[:] = 0.0  # every pixel of every image ties
    weights = LossWeights(eta=1.0, mu=0.0)
    assert_step_matches(models, batch, random_banks(2, 3), weights, True, False)


def test_label_out_of_range_rejected():
    batch = make_batch(seed=1)
    batch.masks[batch.n_s, 0, 0] = 2
    models = random_models(batch.feats.shape[3], 2, seed=1)
    with pytest.raises(DimensionMismatchError):
        batch_forward(models, *batch, *random_banks(2, 1), LossWeights())


@pytest.mark.parametrize("overrides", [
    {},
    {"use_pl": False, "use_srt": False, "use_adv": False},
    {"refine_by_classification": True, "gate_by_image_label": True},
])
def test_train_matches_oracle_loop(overrides):
    """10 source images in batches of 4 leave a short last batch; the
    target side wraps around its 6 images."""
    data = gen_synthetic(SynthConfig(image_size=12, source_count=10, target_count=6,
                                     seed=2))
    cfg = TrainConfig(epochs=3, learning_rate=0.5, seed=2, gamma=0.7,
                      weights=LossWeights(eta=0.3, mu=1.0), **overrides)
    got, want = train(cfg, data), oracle.train(cfg, data)
    assert len(got.log) == len(want.log) == 3
    for a, b in zip(got.log, want.log):
        assert a.keys() == b.keys()
        for key in b:
            if isinstance(b[key], float) and b[key] != 0.0:
                assert abs(a[key] - b[key]) <= 1e-9 * abs(b[key]), key
            else:
                assert a[key] == b[key], key
    assert len(got.pseudo_masks) == len(want.pseudo_masks)
    for a, b in zip(got.pseudo_masks, want.pseudo_masks):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for a, b in zip(got.models, want.models):
        assert_close(a, b, rtol=1e-9)


@pytest.mark.parametrize("field", ["feats", "masks", "labels", "pooled"])
def test_mismatched_sizes_rejected(field):
    """Transposed feats or masks hold as many pixels as the others but
    would pair features with the wrong labels; labels or pooled one row
    short miss an image."""
    batch = make_batch(seed=4)
    batch = batch._replace(feats=batch.feats[:, :6], masks=batch.masks[:, :6])
    bad = {"feats": batch.feats.transpose(0, 2, 1, 3), "masks": batch.masks.transpose(0, 2, 1),
           "labels": batch.labels[:-1], "pooled": batch.pooled[:-1]}[field]
    models = random_models(batch.feats.shape[3], 2, seed=4)
    with pytest.raises(DimensionMismatchError):
        batch_forward(models, *batch._replace(**{field: bad}), *random_banks(2, 4),
                      LossWeights())


def test_train_rejects_mixed_image_sizes():
    data = gen_synthetic(SynthConfig(image_size=8, source_count=2, target_count=2, seed=4))
    data["target"]["images"][1] = data["target"]["images"][1][:, :6]
    with pytest.raises(DimensionMismatchError):
        train(TrainConfig(epochs=1, use_pl=False), data)


@pytest.mark.parametrize("domain,key,edit", [
    ("source", "masks", "short"),
    ("source", "masks", "resized"),
    ("source", "image_labels", "short"),
    ("source", "image_labels", "long"),
    ("target", "image_labels", "short"),
    ("target", "image_labels", "long"),
])
def test_train_rejects_per_image_lists_of_wrong_length(domain, key, edit):
    """One label array spans both domains, so a long source list would
    shift every target label; a short one would leave images unlabelled."""
    data = gen_synthetic(SynthConfig(image_size=8, source_count=3, target_count=2, seed=4))
    edits = {"short": lambda v: v[:-1], "long": lambda v: [*v, 0],
             "resized": lambda v: [v[0][:, :6], *v[1:]]}
    data[domain][key] = edits[edit](data[domain][key])
    with pytest.raises(DimensionMismatchError):
        train(TrainConfig(epochs=1, use_pl=False), data)


@pytest.mark.parametrize("label", [2, -1, "1", True, 0.5, 1.0])
def test_train_rejects_image_labels_other_than_0_or_1(label):
    data = gen_synthetic(SynthConfig(image_size=8, source_count=3, target_count=2, seed=4))
    data["target"]["image_labels"][1] = label
    with pytest.raises(OutOfRangeError):
        train(TrainConfig(epochs=1, use_pl=False), data)


def test_train_rejects_an_empty_source_set():
    data = gen_synthetic(SynthConfig(image_size=8, source_count=1, target_count=2, seed=4))
    for key in ("images", "masks", "image_labels"):
        data["source"][key] = []
    with pytest.raises(EmptyInputError):
        train(TrainConfig(epochs=1, use_pl=False), data)
