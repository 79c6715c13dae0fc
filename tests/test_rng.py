"""SplitMix64.shuffled draws all its uniforms in one call; it must give
the permutations, and leave the stream where, the one-draw-per-swap loop
below does."""

import numpy as np
import pytest

from segtransfer.rng import SplitMix64


def shuffled_loop(rng: SplitMix64, n: int) -> np.ndarray:
    """Reference: Fisher-Yates with one integers() call per swap."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.integers(0, i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [0, 1, 2, 3, 100, 200])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
def test_shuffled_matches_loop(n, seed):
    a, b = SplitMix64(seed).spawn(100), SplitMix64(seed).spawn(100)
    for _ in range(3):  # consecutive calls, as train makes per epoch
        got, want = a.shuffled(n), shuffled_loop(b, n)
        assert got.dtype == want.dtype and got.shape == (n,)
        np.testing.assert_array_equal(got, want)
    # the next draw after the calls is unchanged
    assert a.uniform() == b.uniform()


def test_shuffled_is_a_permutation():
    perm = SplitMix64(3).shuffled(1000)
    np.testing.assert_array_equal(np.sort(perm), np.arange(1000))
