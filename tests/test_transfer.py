import numpy as np
import pytest

from segtransfer.core import IGNORE
from segtransfer.errors import DimensionMismatchError, InvalidConfigError
from segtransfer.transfer import (
    BatchCentroids,
    CentroidBank,
    srt_loss,
    update_bank,
)
from step_oracle import batch_centroids


class TestBatchCentroids:
    def test_hand_case_total_divisor(self):
        feats = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])  # 2x1 pixels, D=2
        mask = np.array([[0], [1]], dtype=np.uint16)
        bc = batch_centroids(feats, mask, 2)
        np.testing.assert_allclose(bc.values, [[0.5, 0.0], [0.0, 0.5]])
        np.testing.assert_array_equal(bc.counts, [1, 1])

    def test_all_ignore(self):
        feats = np.ones((3, 3, 4))
        mask = np.full((3, 3), IGNORE, dtype=np.uint16)
        bc = batch_centroids(feats, mask, 2)
        np.testing.assert_array_equal(bc.values, np.zeros((2, 4)))

    def test_single_class_full_mass(self):
        v = np.array([2.0, -1.0, 0.5])
        feats = np.broadcast_to(v, (4, 4, 3)).copy()
        mask = np.zeros((4, 4), dtype=np.uint16)
        bc = batch_centroids(feats, mask, 2)
        np.testing.assert_allclose(bc.values[0], v)
        np.testing.assert_allclose(bc.values[1], 0.0)

    def test_linear_in_features(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(5, 5, 3))
        mask = rng.integers(0, 2, (5, 5)).astype(np.uint16)
        a = batch_centroids(feats, mask, 2).values
        b = batch_centroids(2.5 * feats, mask, 2).values
        np.testing.assert_allclose(b, 2.5 * a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            batch_centroids(np.ones((2, 2, 3)), np.zeros((3, 3), dtype=np.uint16), 2)


class TestUpdateBank:
    def test_first_update_equals_batch(self):
        bank = CentroidBank(num_classes=1, dim=2, gamma=0.7)
        v = np.array([[1.5, -0.5]])
        out = update_bank(bank, BatchCentroids(v, np.array([4])))
        np.testing.assert_allclose(out.centroids, v)
        assert out.steps == 1
        # input untouched
        np.testing.assert_array_equal(bank.centroids, 0.0)

    def test_two_step_hand_case(self):
        """gamma 0.7, history 1.0 then 0.5 -> 1.0*0.7 + 0.5 = 1.2."""
        bank = CentroidBank(num_classes=1, dim=1, gamma=0.7)
        bank = update_bank(bank, BatchCentroids(np.array([[1.0]]), np.array([1])))
        bank = update_bank(bank, BatchCentroids(np.array([[0.5]]), np.array([1])))
        assert bank.centroids[0, 0] == pytest.approx(1.2)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.7, 0.99])
    def test_recurrence_equals_direct_sum(self, gamma):
        """The recurrence reproduces sum_x C^x * gamma^(n-x)."""
        rng = np.random.default_rng(1)
        n, k, d = 200, 2, 3
        history = [rng.normal(size=(k, d)) for _ in range(n)]
        bank = CentroidBank(num_classes=k, dim=d, gamma=gamma)
        for c in history:
            bank = update_bank(bank, BatchCentroids(c, np.zeros(k, dtype=np.int64)))
        direct = np.zeros((k, d))
        for x, c in enumerate(history, start=1):
            direct += c * gamma ** (n - x)
        scale = max(np.abs(direct).max(), 1e-30)
        assert np.abs(bank.centroids - direct).max() / scale < 1e-9


class TestSrtLoss:
    def bank(self, values, gamma=0.7):
        values = np.asarray(values, dtype=np.float64)
        return CentroidBank(num_classes=values.shape[0], dim=values.shape[1],
                            gamma=gamma, centroids=values, steps=1)

    def test_identical_banks_zero(self):
        b = self.bank([[1.0, 2.0], [3.0, 4.0]])
        loss, gs, gt = srt_loss(b, self.bank([[1.0, 2.0], [3.0, 4.0]]), 1.0)
        assert loss == 0.0
        np.testing.assert_array_equal(gs, 0.0)
        np.testing.assert_array_equal(gt, 0.0)

    def test_hand_case(self):
        loss, gs, gt = srt_loss(self.bank([[1.0]]), self.bank([[0.5]]), 1.0)
        assert loss == pytest.approx(0.75)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = self.bank(rng.normal(size=(3, 2)))
            b = self.bank(rng.normal(size=(3, 2)))
            loss, _, _ = srt_loss(a, b, 0.5)
            assert loss > 0.0

    def test_symmetry_up_to_gradient_sign(self):
        rng = np.random.default_rng(3)
        a = self.bank(rng.normal(size=(2, 4)))
        b = self.bank(rng.normal(size=(2, 4)))
        l1, gs1, gt1 = srt_loss(a, b, 1.0)
        l2, gs2, gt2 = srt_loss(b, a, 1.0)
        assert l1 == pytest.approx(l2)
        np.testing.assert_allclose(gs2, -gs1)
        np.testing.assert_allclose(gt2, -gt1)

    def test_gradient_matches_finite_differences(self):
        """Central differences at points bounded away from the l1 kink."""
        rng = np.random.default_rng(4)
        vals_s = rng.normal(size=(2, 3))
        vals_t = vals_s + np.where(rng.normal(size=(2, 3)) > 0, 1.0, -1.0) * \
            rng.uniform(0.2, 1.0, (2, 3))
        alpha = 0.7
        _, gs, gt = srt_loss(self.bank(vals_s), self.bank(vals_t), alpha)
        step = 1e-5
        for grad, vals, other, is_source in ((gs, vals_s, vals_t, True),
                                             (gt, vals_t, vals_s, False)):
            fd = np.zeros_like(vals)
            for idx in np.ndindex(*vals.shape):
                hi = vals.copy()
                hi[idx] += step
                lo = vals.copy()
                lo[idx] -= step
                if is_source:
                    l_hi, _, _ = srt_loss(self.bank(hi), self.bank(other), alpha)
                    l_lo, _, _ = srt_loss(self.bank(lo), self.bank(other), alpha)
                else:
                    l_hi, _, _ = srt_loss(self.bank(other), self.bank(hi), alpha)
                    l_lo, _, _ = srt_loss(self.bank(other), self.bank(lo), alpha)
                fd[idx] = (l_hi - l_lo) / (2 * step)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
            assert rel.max() < 1e-4


class TestShapeAndRangeChecks:
    @pytest.mark.parametrize("gamma", [1.0, -0.1])
    def test_bank_gamma_in_range(self, gamma):
        with pytest.raises(InvalidConfigError, match="gamma must be in"):
            CentroidBank(num_classes=2, dim=2, gamma=gamma)

    def test_bank_centroids_match_their_shape(self):
        with pytest.raises(DimensionMismatchError, match=r"centroids shape \(2, 3\)"):
            CentroidBank(num_classes=2, dim=2, gamma=0.5, centroids=np.zeros((2, 3)))

    def test_update_needs_the_bank_shape(self):
        bank = CentroidBank(num_classes=2, dim=2, gamma=0.5)
        with pytest.raises(DimensionMismatchError, match="batch centroids"):
            update_bank(bank, BatchCentroids(np.zeros((3, 2)), np.zeros(3)))

    def test_srt_needs_banks_of_one_shape(self):
        a = CentroidBank(num_classes=2, dim=2, gamma=0.5)
        b = CentroidBank(num_classes=2, dim=3, gamma=0.5)
        with pytest.raises(DimensionMismatchError, match="banks disagree"):
            srt_loss(a, b, 1.0)
