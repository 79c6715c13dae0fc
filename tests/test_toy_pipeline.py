import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from segtransfer import toy_pipeline
from segtransfer.core import IGNORE, validate_prob_map
from segtransfer.errors import DimensionMismatchError, OutOfRangeError, ValidationError
from segtransfer.losses import LossWeights
from segtransfer.superpixel import SlicParams
from segtransfer.toy_pipeline import (
    _FeatureBuilder,
    SynthConfig,
    TrainConfig,
    batch_forward,
    gen_synthetic,
    gradcheck,
    init_models,
    segmenter_forward,
    stack_dataset,
    train,
)
from segtransfer.transfer import CentroidBank
from feature_oracle import pixel_features
from step_oracle import _with_bias
from test_step_oracle import make_batch


def built_features(img):
    """The pixel features of one (H, W) or (H, W, C) image, from train's builder."""
    img = np.asarray(img).reshape(*np.shape(img)[:2], -1)
    return _FeatureBuilder(1, *img.shape)(img[None])[0]


class TestPixelFeatures:
    def test_feature_dim(self):
        for channels in (1, 3):
            img = np.zeros((8, 8, channels), dtype=np.uint8)
            assert built_features(img).shape == (8, 8, 2 * channels + 2)

    def test_constant_image_varies_only_in_coords(self):
        img = np.full((6, 6), 200, dtype=np.uint8)
        f = built_features(img)
        # intensity channel constant
        assert np.ptp(f[..., 0]) == 0.0
        # coordinate channels vary
        assert np.ptp(f[..., 1]) > 0 and np.ptp(f[..., 2]) > 0

    def test_center_local_mean_of_single_dot(self):
        img = np.zeros((3, 3), dtype=np.uint8)
        img[1, 1] = 255
        f = built_features(img)
        assert f[1, 1, 3] == pytest.approx(1.0 / 9.0)


class TestSegmenterForward:
    def test_zero_weights_uniform(self):
        img = np.random.default_rng(0).integers(0, 255, (5, 5), dtype=np.uint8)
        f = pixel_features(img)
        models = init_models(f.shape[2], 3, 0)
        models.segmenter[:] = 0.0
        probs = segmenter_forward(models.segmenter, f)
        np.testing.assert_allclose(probs, 1.0 / 3.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        f = rng.random((4, 4, 4))
        models = init_models(4, 2, 1)
        probs = segmenter_forward(models.segmenter, f)
        shifted = models._replace(segmenter=models.segmenter + 3.7)  # same shift every logit
        np.testing.assert_allclose(
            segmenter_forward(shifted.segmenter, f), probs, atol=1e-12)

    def test_wrong_feature_dim(self):
        seg = np.zeros((5, 2))  # weights for D = 4
        with pytest.raises(DimensionMismatchError, match="feature dim 3"):
            segmenter_forward(seg, np.zeros((2, 2, 3)))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        f = rng.random((3, 4, 4))
        models = init_models(4, 3, 2)
        w = models.segmenter
        flat = f.reshape(-1, 4)
        logits = flat @ w[:-1] + w[-1]
        expect = np.exp(logits) / np.exp(logits).sum(-1, keepdims=True)
        probs = segmenter_forward(models.segmenter, f)
        np.testing.assert_allclose(probs.reshape(-1, 3), expect, atol=1e-12)
        validate_prob_map(probs)


class TestGenSynthetic:
    def test_deterministic(self):
        cfg = SynthConfig(image_size=16, source_count=5, target_count=4, seed=9)
        a = gen_synthetic(cfg)
        b = gen_synthetic(cfg)
        for dom in ("source", "target"):
            for x, y in zip(a[dom]["images"], b[dom]["images"]):
                np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a["source"]["masks"][0], b["source"]["masks"][0])

    def test_label_consistency(self):
        cfg = SynthConfig(image_size=16, source_count=40, target_count=10, seed=3)
        data = gen_synthetic(cfg)
        labels = data["source"]["image_labels"]
        assert 0 in labels and 1 in labels
        for mask, label in zip(data["source"]["masks"], labels):
            if label == 0:
                assert np.all(mask == 0)
            else:
                assert np.any(mask != 0)

    def test_target_masks_only_in_eval(self):
        data = gen_synthetic(SynthConfig(image_size=8, source_count=1,
                                         target_count=1, seed=0))
        assert "masks" not in data["target"]
        assert "eval_masks" in data["target"]

    def test_zero_shift_same_distribution(self):
        """With no domain shift the two domains match in mean intensity
        within 2% over 100 images per side."""
        cfg = SynthConfig(image_size=16, source_count=100, target_count=100,
                          shift_brightness=0.0, shift_noise=0.0, seed=5)
        data = gen_synthetic(cfg)
        mean_s = np.mean([im.mean() for im in data["source"]["images"]])
        mean_t = np.mean([im.mean() for im in data["target"]["images"]])
        assert abs(mean_s - mean_t) / mean_s < 0.02


class TestBackwardAll:
    def test_zero_weight_symmetric_classifier_gradient(self):
        """With zero weights every prediction is 0.5; on a label-balanced
        batch the bias and coordinate feature components (constant across
        images) cancel exactly."""
        batch = make_batch(seed=1)._replace(labels=np.array([0, 1, 1, 0]))
        models = init_models(batch.feats.shape[3], 2, 0)
        models.classifier[:] = 0.0
        banks = CentroidBank(num_classes=2, dim=2, gamma=0.7)
        g = batch_forward(models, *batch, banks, banks, LossWeights())[3].classifier
        assert g[-1] == pytest.approx(0.0, abs=1e-12)   # bias
        assert g[1] == pytest.approx(0.0, abs=1e-12)    # row coordinate
        assert g[2] == pytest.approx(0.0, abs=1e-12)    # column coordinate

    def test_eta_mu_zero_reduces_to_supervised(self):
        """With eta = mu = 0 and an all-IGNORE target, segmenter gradients
        equal those of the source-only supervised loss."""
        batch = make_batch(seed=2)
        n_s = batch.n_s
        batch.masks[n_s:] = IGNORE
        models = init_models(batch.feats.shape[3], 2, 3)
        banks = CentroidBank(num_classes=2, dim=2, gamma=0.7)
        w = LossWeights(eta=0.0, mu=0.0)
        g_full = batch_forward(models, *batch, banks, banks, w)[3].segmenter

        g_manual = np.zeros_like(models.segmenter)
        for feats, mask in zip(batch.feats[:n_s], batch.masks[:n_s]):
            probs = segmenter_forward(models.segmenter, feats)
            hw = mask.size
            flat_p = probs.reshape(hw, 2)
            onehot = np.zeros((hw, 2))
            onehot[np.arange(hw), mask.ravel().astype(np.int64)] = 1.0
            g_z = (flat_p - onehot) / (hw * n_s)
            g_manual += _with_bias(feats.reshape(hw, -1)).T @ g_z
        np.testing.assert_allclose(g_full, g_manual, atol=1e-12)

    def test_gradcheck_multiple_seeds(self):
        for seed in range(3):
            report = gradcheck(seed)
            assert report["max"] < 1e-4, f"seed {seed}: {report}"


class TestTrain:
    def small_data(self, seed=0, shift=60.0):
        return gen_synthetic(SynthConfig(image_size=12, source_count=8,
                                         target_count=6, seed=seed,
                                         shift_brightness=shift))

    def test_zero_epochs(self, monkeypatch):
        """A run with no epoch makes no superpixel map, and its pseudo
        labels stay all IGNORE."""
        def refuse(*args):
            raise AssertionError("_superpixel_bits ran for a run with 0 epochs")

        monkeypatch.setattr(toy_pipeline, "_superpixel_bits", refuse)
        data = self.small_data()
        cfg = TrainConfig(epochs=0, seed=0)
        res = train(cfg, data)
        assert res.log == []
        assert (res.pseudo_masks == IGNORE).all()
        init = init_models(pixel_features(data["source"]["images"][0]).shape[2], 2, 0)
        np.testing.assert_array_equal(res.models.segmenter, init.segmenter)

    @pytest.mark.parametrize("use_adv", [False, True])
    def test_no_pseudo_array_without_pseudo_labels(self, use_adv):
        """Without pseudo labels train allocates no (N_t, H, W) array: its
        pseudo masks are a read-only all-IGNORE view, one value for all rows."""
        cfg = TrainConfig(epochs=1, learning_rate=0.3, seed=0, use_pl=False, use_adv=use_adv)
        masks = train(cfg, self.small_data()).pseudo_masks
        assert masks.shape == (6, 12, 12) and masks.dtype == np.uint16
        assert (masks == IGNORE).all()
        assert masks.strides[0] == 0 and not masks.flags.writeable

    def test_deterministic_logs(self):
        data = self.small_data(seed=4)
        cfg = TrainConfig(epochs=2, learning_rate=0.3, seed=4)
        a = train(cfg, data).log
        b = train(cfg, data).log
        assert a == b

    def test_pl_fraction_tracks_portion(self):
        data = self.small_data(seed=5)
        cfg = TrainConfig(epochs=3, learning_rate=0.1, seed=5)
        log = train(cfg, data).log
        for rec in log:
            assert rec["pl_fraction"] <= rec["p"] + 0.15
        assert log[0]["p"] == 0.25 and log[1]["p"] == pytest.approx(0.30)

    def test_disabled_terms_are_inert(self):
        """use_pl/use_srt/use_adv off means the respective losses vanish,
        the segmenter follows the source-only path and the discriminator
        keeps its initial weights bit for bit: its gradient is exactly
        zero, so one update statement serves every model."""
        data = self.small_data(seed=6)
        cfg = TrainConfig(epochs=2, learning_rate=0.3, seed=6,
                          use_pl=False, use_srt=False, use_adv=False)
        res = train(cfg, data)
        for rec in res.log:
            assert rec["L_D"] == 0.0
            assert rec["L_SRT"] == 0.0
            assert rec["pl_fraction"] == 0.0
        init = init_models(4, 2, 6)
        assert res.models.discriminator.tobytes() == init.discriminator.tobytes()

    def test_zero_shift_losses_close(self):
        """With no domain shift the source and target supervised losses
        coincide in expectation at init."""
        from segtransfer.losses import segmentation_loss
        losses_s, losses_t = [], []
        for seed in range(3):
            data = gen_synthetic(SynthConfig(image_size=16, source_count=30,
                                             target_count=30, seed=seed,
                                             shift_brightness=0.0, shift_noise=0.0))
            models = init_models(4, 2, seed)
            for im, mask in zip(data["source"]["images"], data["source"]["masks"]):
                probs = segmenter_forward(models.segmenter, pixel_features(im))
                losses_s.append(segmentation_loss(probs, mask)[0])
            for im, mask in zip(data["target"]["images"], data["target"]["eval_masks"]):
                probs = segmenter_forward(models.segmenter, pixel_features(im))
                losses_t.append(segmentation_loss(probs, mask)[0])
        ms, mt = np.mean(losses_s), np.mean(losses_t)
        assert abs(ms - mt) / ms < 0.05

    def test_zero_learning_rate_is_a_no_op(self):
        # equal domain sizes so every image is visited once per epoch and
        # the frozen-weight epoch averages must repeat exactly
        data = gen_synthetic(SynthConfig(image_size=12, source_count=8,
                                         target_count=8, seed=8))
        cfg = TrainConfig(epochs=2, learning_rate=0.0, seed=8, use_pl=False)
        res = train(cfg, data)
        init = init_models(4, 2, 8)
        np.testing.assert_array_equal(res.models.segmenter, init.segmenter)
        np.testing.assert_array_equal(res.models.classifier, init.classifier)
        # with frozen weights and frozen pseudo labels the loss repeats
        assert res.log[0]["L_S"] == res.log[1]["L_S"]
        assert res.log[0]["L_C"] == res.log[1]["L_C"]

    def test_probs_stay_valid_during_training(self):
        data = self.small_data(seed=7)
        cfg = TrainConfig(epochs=2, learning_rate=0.5, seed=7)
        res = train(cfg, data)
        for im in data["target"]["images"]:
            probs = segmenter_forward(res.models.segmenter, pixel_features(im))
            validate_prob_map(probs)


class TestPerBatchFeatures:
    """train keeps no array of all images' pixel features: each batch and
    each block of the target pass is featurised from the images."""

    def test_each_target_image_forwarded_once_per_pass(self, monkeypatch):
        """With blocks of two 8x8 images, every target pass forwards the 5
        target images in 3 blocks, each image exactly once and in order,
        and the outputs match those of a single block bit for bit.  With
        pseudo labels there is an initial pass and two per epoch, without
        them one per epoch."""
        data = gen_synthetic(SynthConfig(image_size=8, source_count=4, target_count=5, seed=1))
        want = np.concatenate([pixel_features(im) for im in data["target"]["images"]])
        for use_pl, passes in ((True, 7), (False, 3)):
            cfg = TrainConfig(epochs=3, learning_rate=0.5, seed=1, use_pl=use_pl,
                              refine_by_classification=True, slic=SlicParams(n_segments=4))
            whole = train(cfg, data)

            forwarded = []

            def recording(seg, feats, *rest):
                forwarded.append(np.array(feats))
                return segmenter_forward(seg, feats, *rest)

            with monkeypatch.context() as patch:
                patch.setattr(toy_pipeline, "_BLOCK_PIXELS", 2 * 8 * 8)
                patch.setattr(toy_pipeline, "segmenter_forward", recording)
                blocked = train(cfg, data)
            # a step never calls the forward
            assert [len(f) for f in forwarded] == [16, 16, 8] * passes
            for i in range(0, len(forwarded), 3):
                assert np.concatenate(forwarded[i:i + 3]).tobytes() == want.tobytes()
            assert blocked.log == whole.log
            assert blocked.pseudo_masks.tobytes() == whole.pseudo_masks.tobytes()
            for a, b in zip(blocked.models, whole.models):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("channels", [1, 3])
    def test_pooled_features_in_blocks_the_builder_holds(self, channels):
        """A builder holding 3 images, fewer than a block of _BLOCK_PIXELS
        and not a divisor of the 11 images, pools them in blocks of 3, and
        each image's mean is the bytes a fresh builder gives its block."""
        n, h, w, cap = 11, 9, 7, 3
        assert cap < toy_pipeline._block_images(h, w) and n % cap
        images = np.random.default_rng(channels).integers(0, 256, (n, h, w, channels), np.uint8)
        got = toy_pipeline._pooled_features(images, _FeatureBuilder(cap, h, w, channels))
        want = [_FeatureBuilder(len(b), h, w, channels)(b).reshape(len(b), h * w, -1).mean(axis=1)
                for b in (images[i:i + cap] for i in range(0, n, cap))]
        assert got.shape == (n, 2 * channels + 2)
        assert got.tobytes() == np.concatenate(want).tobytes()

    def test_peak_allocation_below_the_feature_array(self):
        """Training on 400 source images of 16x16 allocates, at its peak,
        less than the (N, H, W, D) float64 array of all their features."""
        n_src, n_tgt, side = 400, 8, 16
        data = gen_synthetic(SynthConfig(image_size=side, source_count=n_src,
                                         target_count=n_tgt, seed=3))
        feature_bytes = (n_src + n_tgt) * side * side * 4 * 8
        cfg = TrainConfig(epochs=1, learning_rate=0.5, seed=3)
        tracemalloc.start()
        try:
            train(cfg, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < feature_bytes

    def test_peak_allocation_below_the_target_map(self, monkeypatch):
        """With pseudo labels on 400 target images of 16x16, train's
        allocation never rises above what it holds once its inputs,
        models and superpixels are built by as much as the (K, N*H*W)
        float64 probability map of all target images: no pass keeps that
        map.  Blocks of 4 images make a block as small a part of the
        target set as one 256x256 image is of 100."""
        n_src, n_tgt, side = 8, 400, 16
        data = gen_synthetic(SynthConfig(image_size=side, source_count=n_src,
                                         target_count=n_tgt, seed=3))
        map_bytes = 2 * n_tgt * side * side * 8
        cfg = TrainConfig(epochs=2, learning_rate=0.5, seed=3, slic=SlicParams(n_segments=16))
        # SLIC is slow under tracemalloc: its maps are made before tracing starts
        superpixels = toy_pipeline._superpixel_bits(data["target"]["images"], cfg.slic)
        held = []

        def after_setup(images, params):
            out = superpixels.copy()
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(toy_pipeline, "_superpixel_bits", after_setup)
        monkeypatch.setattr(toy_pipeline, "_BLOCK_PIXELS", 4 * side * side)
        tracemalloc.start()
        try:
            train(cfg, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(held) == 1
        assert peak - held[0] < map_bytes


class TestSkippedTargetRows:
    """Without ADV, a target image whose pseudo mask is all IGNORE adds
    nothing to any gradient: a step featurises and forwards the target
    rows of its batch if and only if ADV or pseudo labels are on."""

    def steps(self, monkeypatch, cfg, data):
        """Per step: (rows passed to the feature builder, images in the
        batch, source images)."""
        built, steps = [], []
        build, step = toy_pipeline._FeatureBuilder.__call__, toy_pipeline.batch_forward

        def counting_build(self, images):
            built.append(len(images))
            return build(self, images)

        def recording_step(models, feats, masks, labels, pooled, n_s, *args, **kwargs):
            assert len(feats) == built[-1]
            steps.append((built[-1], len(labels), n_s))
            return step(models, feats, masks, labels, pooled, n_s, *args, **kwargs)

        monkeypatch.setattr(toy_pipeline._FeatureBuilder, "__call__", counting_build)
        monkeypatch.setattr(toy_pipeline, "batch_forward", recording_step)
        train(cfg, data)
        assert len(steps) == 2 * 3  # 10 source images in batches of 4, 2 epochs
        return steps

    def data(self):
        return gen_synthetic(SynthConfig(image_size=8, source_count=10, target_count=6, seed=1))

    @pytest.mark.parametrize("use_adv", [False, True])
    def test_all_ignore_masks(self, monkeypatch, use_adv):
        cfg = TrainConfig(epochs=2, learning_rate=0.5, seed=1, use_pl=False, use_adv=use_adv)
        for rows, n_img, n_s in self.steps(monkeypatch, cfg, self.data()):
            assert n_img == 2 * n_s
            assert rows == (n_img if use_adv else n_s)

    def test_pseudo_labels_bring_every_batch_in(self, monkeypatch):
        """The rule is the run's: with pseudo labels on and ADV off, every
        step forwards all its rows, even when every pseudo mask is all
        IGNORE."""
        monkeypatch.setattr(toy_pipeline, "generate",
                            lambda probs, thr, sp: np.full(probs.shape[:2], IGNORE, np.uint16))
        cfg = TrainConfig(epochs=2, learning_rate=0.5, seed=1, use_adv=False,
                          slic=SlicParams(n_segments=4))
        for rows, n_img, n_s in self.steps(monkeypatch, cfg, self.data()):
            assert rows == n_img == 2 * n_s


DOMAINS = (("source", "masks"), ("target", "eval_masks"))


class TestStackDataset:
    """One array form from disk to step: stack_dataset stacks each domain
    once, a stacked dataset passes through it uncopied, and train gives
    the same bytes on either form."""

    def data(self, seed=2):
        return gen_synthetic(SynthConfig(image_size=12, source_count=10, target_count=6,
                                         seed=seed))

    def test_each_domain_stacked_once(self):
        data = self.data()
        stacked = stack_dataset(data)
        assert stacked["num_classes"] == data["num_classes"]
        for domain, mask_key in DOMAINS:
            part, got = data[domain], stacked[domain]
            assert got.keys() == part.keys()
            assert got["images"].dtype == np.uint8
            assert got["images"].tobytes() == np.stack(part["images"]).tobytes()
            assert got["images"].shape == (len(part["images"]), 12, 12, 1)
            assert got[mask_key].dtype == np.uint16
            assert got[mask_key].tobytes() == np.stack(part[mask_key]).tobytes()
            assert got["image_labels"].tolist() == part["image_labels"]

    def test_stacked_entries_pass_through_uncopied(self):
        stacked = stack_dataset(self.data())
        colour = {"source": {"images": np.zeros((3, 5, 6, 3), dtype=np.uint8),
                             "masks": np.zeros((3, 5, 6), dtype=np.uint16),
                             "image_labels": np.array([0, 1, 1])},
                  "target": {"images": np.ones((2, 5, 6, 3), dtype=np.uint8),
                             "eval_masks": np.ones((2, 5, 6), dtype=np.uint16),
                             "image_labels": np.array([1, 0])},
                  "num_classes": 2}
        for given in (stacked, colour):
            again = stack_dataset(given)
            for domain, mask_key in DOMAINS:
                for key in ("images", mask_key, "image_labels"):
                    a, b = again[domain][key], given[domain][key]
                    assert np.shares_memory(a, b), (domain, key)
                    assert a.shape == b.shape and a.dtype == b.dtype

    def test_grey_stack_gets_a_channel_axis_as_a_view(self):
        data = stack_dataset(self.data())
        for domain, _ in DOMAINS:
            data[domain]["images"] = data[domain]["images"][..., 0]
        again = stack_dataset(data)
        for domain, _ in DOMAINS:
            assert again[domain]["images"].shape[1:] == (12, 12, 1)
            assert np.shares_memory(again[domain]["images"], data[domain]["images"])

    @pytest.mark.parametrize("edit,error", [
        (lambda d: d["source"].update(image_labels=d["source"]["image_labels"] * 1.0),
         OutOfRangeError),
        (lambda d: d["target"].update(image_labels=d["target"]["image_labels"] == 1),
         OutOfRangeError),
        (lambda d: d["source"].update(masks=d["source"]["masks"][:-1]), DimensionMismatchError),
        (lambda d: d["target"].update(eval_masks=d["target"]["eval_masks"][:, :6]),
         DimensionMismatchError),
        (lambda d: d["target"].update(images=d["target"]["images"][:, :6]),
         DimensionMismatchError),
        (lambda d: d["target"].update(image_labels=d["target"]["image_labels"][1:]),
         DimensionMismatchError),
    ])
    def test_stacked_form_checked_as_lists_are(self, edit, error):
        """Float or bool label arrays, and arrays of the wrong length or
        size, are rejected as the per-image lists are."""
        data = stack_dataset(self.data())
        edit(data)
        with pytest.raises(error):
            stack_dataset(data)

    @pytest.mark.parametrize("overrides", [
        {},
        {"use_pl": False, "use_srt": False, "use_adv": False},
        {"refine_by_classification": True, "gate_by_image_label": True},
    ])
    def test_train_on_lists_equals_train_on_stack(self, overrides):
        data = self.data()
        cfg = TrainConfig(epochs=3, learning_rate=0.5, seed=2, slic=SlicParams(n_segments=9),
                          **overrides)
        a, b = train(cfg, data), train(cfg, stack_dataset(data))
        assert a.log == b.log
        assert a.pseudo_masks.dtype == b.pseudo_masks.dtype == np.uint16
        assert a.pseudo_masks.tobytes() == b.pseudo_masks.tobytes()
        for x, y in zip(a.models, b.models):
            assert x.tobytes() == y.tobytes()

    def test_train_drops_the_per_image_lists(self, monkeypatch):
        """Once it has stacked them, train holds neither the per-image lists
        nor their arrays: at its first step, with the caller's references
        gone, they have been freed."""
        class Images(list):  # a list that takes weak references
            pass

        data = self.data()
        refs = []
        for domain, _ in DOMAINS:
            part = data[domain]
            for key in part:
                part[key] = Images(part[key])
                refs.append(weakref.ref(part[key]))
                if key != "image_labels":  # the labels are ints
                    refs.append(weakref.ref(part[key][0]))
        alive = []
        real = toy_pipeline.batch_forward

        def first_step(*args, **kwargs):
            if not alive:
                for domain, _ in DOMAINS:
                    data[domain].clear()
                gc.collect()
                alive.append([r() is not None for r in refs])
            return real(*args, **kwargs)
        monkeypatch.setattr(toy_pipeline, "batch_forward", first_step)
        train(TrainConfig(epochs=1, slic=SlicParams(n_segments=9)), data)
        assert alive == [[False] * len(refs)]


def widened(mask, dtype, value):
    """A copy of mask as dtype, with `value` at its first pixel."""
    out = np.array(mask, dtype=dtype)
    out[0, 0] = value
    return out


class TestMaskLabels:
    """stack_dataset, train's one gate, checks every mask before any work:
    an integer or bool array of IGNORE and labels in [0, K), or an error
    that names the domain and the image.  A wider mask is never narrowed
    into range (-1 into IGNORE, 65536 into class 0, 1.7 into class 1)."""

    @pytest.mark.parametrize("epochs", [0, 1])
    @pytest.mark.parametrize("domain,key,i,dtype,value,error,message", [
        ("target", "eval_masks", 1, np.uint16, 5, OutOfRangeError, "target mask 1 holds 5,"),
        ("source", "masks", 2, np.uint16, 7, OutOfRangeError, "source mask 2 holds 7,"),
        ("source", "masks", 3, np.int64, -1, OutOfRangeError, "source mask 3 holds -1,"),
        ("target", "eval_masks", 0, np.int64, 65536, OutOfRangeError,
         "target mask 0 holds 65536,"),
        ("source", "masks", 1, np.float64, 1.7, ValidationError,
         "source mask 1 has dtype float64"),
    ])
    def test_rejected_before_any_work(self, monkeypatch, epochs, domain, key, i, dtype, value,
                                      error, message):
        data = gen_synthetic(SynthConfig(image_size=8, source_count=4, target_count=3, seed=1))
        data[domain][key][i] = widened(data[domain][key][i], dtype, value)
        calls = []
        real = toy_pipeline._superpixel_bits
        monkeypatch.setattr(toy_pipeline, "_superpixel_bits",
                            lambda *args: calls.append(args) or real(*args))
        cfg = TrainConfig(epochs=epochs, seed=1, slic=SlicParams(n_segments=4))
        with pytest.raises(error, match=message):
            train(cfg, data)
        assert calls == []

    def test_wide_and_bool_masks_train_as_uint16(self):
        """Integer and bool masks whose values are labels or IGNORE give
        the bytes of the same masks as uint16."""
        data = gen_synthetic(SynthConfig(image_size=8, source_count=4, target_count=3, seed=1))
        wide = gen_synthetic(SynthConfig(image_size=8, source_count=4, target_count=3, seed=1))
        data["source"]["masks"][0] = widened(data["source"]["masks"][0], np.uint16, IGNORE)
        wide["source"]["masks"] = [widened(m, np.int64, IGNORE) if j == 0 else m.astype(np.int8)
                                   for j, m in enumerate(wide["source"]["masks"])]
        wide["target"]["eval_masks"] = [m.astype(bool) for m in wide["target"]["eval_masks"]]
        cfg = TrainConfig(epochs=2, learning_rate=0.5, seed=1, slic=SlicParams(n_segments=4))
        a, b = train(cfg, data), train(cfg, wide)
        assert a.log == b.log
        assert a.pseudo_masks.tobytes() == b.pseudo_masks.tobytes()
        for x, y in zip(a.models, b.models):
            assert x.tobytes() == y.tobytes()
