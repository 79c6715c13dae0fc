import numpy as np
import pytest

from segtransfer.core import IGNORE
from segtransfer.errors import InvalidConfigError
from segtransfer.losses import (
    LossWeights,
    adversarial_loss_for_segmenter,
    classification_loss,
    discriminator_loss,
    segmentation_loss,
    total_loss,
)

from test_core import random_prob_map


def central_diff(f, x, step=1e-5):
    return (f(x + step) - f(x - step)) / (2 * step)


class TestClassificationLoss:
    def test_confident_correct(self):
        loss, _ = classification_loss(1.0 - 1e-9, 1)
        assert loss < 1e-6

    def test_maximal_uncertainty(self):
        for label in (0, 1):
            loss, _ = classification_loss(0.5, label)
            assert loss == pytest.approx(np.log(2))

    def test_hand_case(self):
        loss, _ = classification_loss(0.25, 1)
        assert loss == pytest.approx(-np.log(0.25))

    def test_gradient(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = float(rng.uniform(0.05, 0.95))
            y = int(rng.integers(0, 2))
            _, grad = classification_loss(p, y)
            fd = central_diff(lambda q: classification_loss(q, y)[0], p)
            assert abs(grad - fd) / max(abs(fd), 1e-6) < 1e-4


class TestSegmentationLoss:
    def test_all_ignore(self):
        p = np.full((2, 2, 2), 0.5)
        m = np.full((2, 2), IGNORE, dtype=np.uint16)
        loss, grad = segmentation_loss(p, m, 0.5)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_perfect_prediction(self):
        p = np.array([[[1.0, 0.0]]])
        m = np.array([[0]], dtype=np.uint16)
        loss, _ = segmentation_loss(p, m, 0.0)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_uncertain_pixel(self):
        p = np.array([[[0.5, 0.5]]])
        m = np.array([[1]], dtype=np.uint16)
        loss, _ = segmentation_loss(p, m, 0.0)
        assert loss == pytest.approx(np.log(2))

    def test_lambda_reward_reported_but_not_differentiated(self):
        p = np.array([[[0.5, 0.5]], [[0.9, 0.1]]])
        m = np.array([[1], [IGNORE]], dtype=np.uint16)
        base, grad0 = segmentation_loss(p, m, 0.0)
        rewarded, grad1 = segmentation_loss(p, m, 2.0)
        assert rewarded == pytest.approx(base - 2.0 * 1 / 2.0)
        np.testing.assert_array_equal(grad0, grad1)

    def test_fully_labeled_equals_mean_cross_entropy(self):
        rng = np.random.default_rng(1)
        p = random_prob_map(rng, 5, 4, 3)
        m = rng.integers(0, 3, (5, 4)).astype(np.uint16)
        loss, _ = segmentation_loss(p, m, 0.0)
        expect = -np.mean(np.log(np.take_along_axis(
            p, m[..., None].astype(np.int64), axis=-1)))
        assert loss == pytest.approx(expect)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        p = random_prob_map(rng, 4, 4, 3)
        m = rng.integers(0, 3, (4, 4)).astype(np.uint16)
        m[rng.random((4, 4)) < 0.3] = IGNORE
        _, grad = segmentation_loss(p, m, 0.7)
        step = 1e-6
        for y, x, c in [(0, 0, 0), (1, 2, 1), (3, 3, 2), (2, 1, 0)]:
            hi = p.copy()
            hi[y, x, c] += step
            lo = p.copy()
            lo[y, x, c] -= step
            fd = (segmentation_loss(hi, m, 0.7)[0] - segmentation_loss(lo, m, 0.7)[0]) \
                / (2 * step)
            assert abs(grad[y, x, c] - fd) / max(abs(fd), 1e-6) < 1e-4


class TestDiscriminatorLoss:
    def test_uninformative(self):
        loss, _, _ = discriminator_loss([0.5], [0.5])
        assert loss == pytest.approx(2 * np.log(2))

    def test_perfect_discrimination(self):
        loss, _, _ = discriminator_loss([1e-9], [1.0 - 1e-9])
        assert loss < 1e-6

    def test_hand_case(self):
        loss, _, _ = discriminator_loss([0.3], [0.8])
        assert loss == pytest.approx(-np.log(0.8) - np.log(0.7))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        d_src = rng.uniform(0.1, 0.9, 3)
        d_tgt = rng.uniform(0.1, 0.9, 4)
        _, g_src, g_tgt = discriminator_loss(d_src, d_tgt)
        step = 1e-6
        for i in range(3):
            hi, lo = d_src.copy(), d_src.copy()
            hi[i] += step
            lo[i] -= step
            fd = (discriminator_loss(hi, d_tgt)[0] - discriminator_loss(lo, d_tgt)[0]) \
                / (2 * step)
            assert abs(g_src[i] - fd) / max(abs(fd), 1e-6) < 1e-4
        for j in range(4):
            hi, lo = d_tgt.copy(), d_tgt.copy()
            hi[j] += step
            lo[j] -= step
            fd = (discriminator_loss(d_src, hi)[0] - discriminator_loss(d_src, lo)[0]) \
                / (2 * step)
            assert abs(g_tgt[j] - fd) / max(abs(fd), 1e-6) < 1e-4


class TestAdversarialLoss:
    def test_half(self):
        loss, _ = adversarial_loss_for_segmenter([0.5])
        assert loss == pytest.approx(np.log(2))

    def test_already_source_like(self):
        loss, _ = adversarial_loss_for_segmenter([1e-9])
        assert loss < 1e-6

    def test_hand_case(self):
        loss, _ = adversarial_loss_for_segmenter([0.8])
        assert loss == pytest.approx(-np.log(0.2))

    def test_gradient(self):
        rng = np.random.default_rng(4)
        d = rng.uniform(0.1, 0.9, 5)
        _, grad = adversarial_loss_for_segmenter(d)
        step = 1e-6
        for i in range(5):
            hi, lo = d.copy(), d.copy()
            hi[i] += step
            lo[i] -= step
            fd = (adversarial_loss_for_segmenter(hi)[0]
                  - adversarial_loss_for_segmenter(lo)[0]) / (2 * step)
            assert abs(grad[i] - fd) / max(abs(fd), 1e-6) < 1e-4


class TestTotalLoss:
    def test_all_zero(self):
        assert total_loss(0, 0, 0, 0, LossWeights()) == 0.0

    def test_weighted_combination(self):
        w = LossWeights(eta=0.3, mu=10.0)
        assert total_loss(1, 2, 3, 4, w) == pytest.approx(43.9)

    def test_zero_weights_reduce(self):
        w = LossWeights(eta=0.0, mu=0.0)
        assert total_loss(1.5, 2.5, 99, 99, w) == pytest.approx(4.0)

    @pytest.mark.parametrize("name", ["eta", "mu", "alpha", "lambda_global"])
    @pytest.mark.parametrize("value", [-1.0, float("inf"), float("nan")])
    def test_weights_finite_and_non_negative(self, name, value):
        """A disabled term adds weight * 0.0 to the total: exactly +0.0 for
        a finite weight, NaN for an infinite one."""
        with pytest.raises(InvalidConfigError, match=f"{name} must be finite and >= 0"):
            LossWeights(**{name: value})
