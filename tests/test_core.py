import numpy as np
import pytest

from segtransfer.core import argmax_map, max_map, validate_prob_map
from segtransfer.errors import NotNormalizedError, OutOfRangeError


def random_prob_map(rng, h, w, k):
    raw = rng.random((h, w, k)) + 1e-3
    return raw / raw.sum(axis=-1, keepdims=True)


class TestValidateProbMap:
    def test_symmetric_valid(self):
        validate_prob_map(np.array([[[0.5, 0.5]]]))

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            validate_prob_map(np.array([[[0.7, 0.7]]]))

    def test_out_of_range_wins_over_normalization(self):
        # sums to 1.0 exactly but carries an invalid value
        with pytest.raises(OutOfRangeError):
            validate_prob_map(np.array([[[1.2, -0.2]]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN fails every comparison, so the range check alone let it pass
        with pytest.raises(OutOfRangeError):
            validate_prob_map(np.array([[[0.5, 0.5], [bad, 0.5]]]))

    def test_tolerance_boundary(self):
        validate_prob_map(np.array([[[0.5, 0.50005]]]))
        with pytest.raises(NotNormalizedError):
            validate_prob_map(np.array([[[0.5, 0.5005]]]))


class TestArgmaxMax:
    def test_unique_max(self):
        p = np.array([[[0.2, 0.5, 0.3]]])
        assert argmax_map(p)[0, 0] == 1
        assert max_map(p)[0, 0] == 0.5

    def test_tie_breaks_low(self):
        assert argmax_map(np.array([[[0.5, 0.5]]]))[0, 0] == 0

    def test_uniform_max(self):
        assert max_map(np.array([[[0.25] * 4]]))[0, 0] == 0.25

    def test_two_pixel_hand_case(self):
        p = np.array([[[0.9, 0.1]], [[0.3, 0.7]]])
        np.testing.assert_array_equal(argmax_map(p).ravel(), [0, 1])
        np.testing.assert_allclose(max_map(p).ravel(), [0.9, 0.7])

    def test_argmax_value_equals_max(self):
        """At every pixel, the probability at the argmax class is the max."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_prob_map(rng, 6, 5, int(rng.integers(2, 6)))
            am = argmax_map(p)
            mm = max_map(p)
            picked = np.take_along_axis(p, am[..., None].astype(np.int64), axis=-1)[..., 0]
            np.testing.assert_array_equal(picked, mm)

    def test_argmax_scale_invariant(self):
        """Scaling all per-pixel values by one positive constant leaves the
        argmax unchanged (pre-normalization inputs)."""
        rng = np.random.default_rng(12)
        p = rng.random((7, 7, 4))
        for c in (0.1, 3.0, 250.0):
            np.testing.assert_array_equal(argmax_map(p), argmax_map(c * p))
