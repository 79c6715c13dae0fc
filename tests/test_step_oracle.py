"""The stacked, class-major training step must reproduce the per-image
loop implementation in `step_oracle` to rounding: its sums run in
another order, so losses, gradients and candidate banks agree to 1e-12
relative, and a short training run agrees to 1e-9 with byte-identical
pseudo labels."""

import numpy as np
import pytest

import step_oracle as oracle
from segtransfer.core import IGNORE
from segtransfer.errors import DimensionMismatchError
from segtransfer.losses import LossWeights
from segtransfer.toy_pipeline import (
    BatchData,
    SynthConfig,
    TrainConfig,
    backward_all,
    batch_forward,
    gen_synthetic,
    init_models,
    pixel_features,
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
    models = init_models(dim, k, seed)
    rng = np.random.default_rng(seed)
    for m in (models.segmenter, models.classifier, models.discriminator):
        m.weights = m.weights + rng.normal(0.0, 0.5, m.weights.shape)
    return models


def random_banks(k, seed):
    rng = np.random.default_rng(seed + 1)
    return [CentroidBank(num_classes=k, dim=k, gamma=0.7,
                         centroids=rng.normal(size=(k, k)), steps=2) for _ in range(2)]


def make_batch(k=2, n_s=2, n_t=2, size=8, tgt_masks="mixed", seed=0):
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
    return BatchData(
        src_feats=[pixel_features(im) for im in data["source"]["images"]],
        src_masks=data["source"]["masks"],
        src_labels=data["source"]["image_labels"],
        tgt_feats=[pixel_features(im) for im in data["target"]["images"]],
        tgt_masks=masks,
        tgt_labels=data["target"]["image_labels"],
    )


def assert_step_matches(models, batch, banks, weights, use_adv, use_srt):
    got = batch_forward(models, batch, *banks, weights, use_adv=use_adv, use_srt=use_srt)
    want = oracle.batch_forward(models, batch, *banks, weights,
                                use_adv=use_adv, use_srt=use_srt)
    assert got.losses.keys() == want.losses.keys()
    for key in want.losses:
        assert_close(got.losses[key], want.losses[key])
    for a, b in ((got.new_bank_s, want.new_bank_s), (got.new_bank_t, want.new_bank_t)):
        assert a.steps == b.steps and a.gamma == b.gamma
        assert_close(a.centroids, b.centroids)
    g_got, g_want = backward_all(models, got), oracle.backward_all(models, want)
    assert g_got.keys() == g_want.keys()
    for key in g_want:
        assert_close(g_got[key], g_want[key])


@pytest.mark.parametrize("tgt_masks", ["mixed", "ignore", "full"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("use_srt", [False, True])
@pytest.mark.parametrize("use_adv", [False, True])
def test_step_matches_oracle(use_adv, use_srt, k, tgt_masks):
    batch = make_batch(k=k, tgt_masks=tgt_masks, seed=k)
    models = random_models(batch.src_feats[0].shape[2], k, seed=10 + k)
    weights = LossWeights(eta=0.3, mu=2.0, alpha=0.5, lambda_global=0.1)
    assert_step_matches(models, batch, random_banks(k, k), weights, use_adv, use_srt)


@pytest.mark.parametrize("n_s,n_t", [(3, 1), (1, 4), (4, 2)])
def test_unequal_domain_counts(n_s, n_t):
    batch = make_batch(n_s=n_s, n_t=n_t, seed=n_s * 10 + n_t)
    models = random_models(batch.src_feats[0].shape[2], 2, seed=n_s)
    assert_step_matches(models, batch, random_banks(2, n_t), LossWeights(), True, True)


def test_stacked_fields_and_pooled():
    """Array fields and a precomputed pooled array give the same step as
    per-image lists."""
    batch = make_batch(k=3, n_s=3, n_t=2, seed=5)
    models = random_models(batch.src_feats[0].shape[2], 3, seed=5)
    feats = np.stack([*batch.src_feats, *batch.tgt_feats])
    stacked = BatchData(
        src_feats=feats[:3], src_masks=np.stack(batch.src_masks),
        src_labels=np.asarray(batch.src_labels), tgt_feats=feats[3:],
        tgt_masks=np.stack(batch.tgt_masks), tgt_labels=np.asarray(batch.tgt_labels),
        pooled=feats.reshape(5, -1, feats.shape[-1]).mean(axis=1),
    )
    assert_step_matches(models, stacked, random_banks(3, 5), LossWeights(), True, True)


@pytest.mark.parametrize("uniform_weights", [False, True])
def test_constant_probability_ties_pick_first_pixel(uniform_weights):
    """A constant image gives every pixel the same softmax, so the max
    statistic ties everywhere; its gradient must go to the first pixel,
    as np.argmax picks it."""
    batch = make_batch(n_s=2, n_t=2, tgt_masks="ignore", seed=3)
    flat = np.full_like(batch.tgt_feats[0], 0.5)
    batch.tgt_feats[0] = flat
    models = random_models(flat.shape[2], 2, seed=3)
    if uniform_weights:
        models.segmenter.weights[:] = 0.0  # every pixel of every image ties
    weights = LossWeights(eta=1.0, mu=0.0)
    assert_step_matches(models, batch, random_banks(2, 3), weights, True, False)


def test_label_out_of_range_rejected():
    batch = make_batch(seed=1)
    batch.tgt_masks[0] = batch.tgt_masks[0].copy()
    batch.tgt_masks[0][0, 0] = 2
    models = random_models(batch.src_feats[0].shape[2], 2, seed=1)
    with pytest.raises(DimensionMismatchError):
        batch_forward(models, batch, *random_banks(2, 1), LossWeights())


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
    for a, b in ((got.models.segmenter, want.models.segmenter),
                 (got.models.classifier, want.models.classifier),
                 (got.models.discriminator, want.models.discriminator)):
        assert_close(a.weights, b.weights, rtol=1e-9)


@pytest.mark.parametrize("field", ["tgt_feats", "tgt_masks"])
def test_mismatched_sizes_rejected(field):
    """A transposed image or mask holds as many pixels as the others but
    would pair features with the wrong labels."""
    data = gen_synthetic(SynthConfig(image_size=8, source_count=2, target_count=2, seed=4))
    batch = BatchData(
        src_feats=[pixel_features(im[:6]) for im in data["source"]["images"]],
        src_masks=[m[:6] for m in data["source"]["masks"]],
        src_labels=data["source"]["image_labels"],
        tgt_feats=[pixel_features(im[:6]) for im in data["target"]["images"]],
        tgt_masks=[m[:6] for m in data["target"]["eval_masks"]],
        tgt_labels=data["target"]["image_labels"],
    )
    if field == "tgt_feats":
        batch.tgt_feats[1] = pixel_features(data["target"]["images"][1][:, :6])
    else:
        batch.tgt_masks[1] = data["target"]["eval_masks"][1][:, :6]
    models = random_models(batch.src_feats[0].shape[2], 2, seed=4)
    with pytest.raises(DimensionMismatchError):
        batch_forward(models, batch, *random_banks(2, 4), LossWeights())


def test_train_rejects_mixed_image_sizes():
    data = gen_synthetic(SynthConfig(image_size=8, source_count=2, target_count=2, seed=4))
    data["target"]["images"][1] = data["target"]["images"][1][:, :6]
    with pytest.raises(DimensionMismatchError):
        train(TrainConfig(epochs=1, use_pl=False), data)
