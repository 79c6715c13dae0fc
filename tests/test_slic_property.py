"""Property test: on small random images of any shape, 1xN and Nx1
included, and any n_segments up to H*W, SLIC reproduces the loop oracle
byte for byte, its IDs are dense, and with connectivity enforced every
segment is 4-connected."""

import numpy as np
import pytest

import slic_oracle as oracle
from segtransfer.superpixel import SlicParams, slic

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _is_4_connected(mask) -> bool:
    """Whether the True pixels of a 2-D mask form one 4-connected region."""
    ys, xs = np.nonzero(mask)
    seen = np.zeros_like(mask)
    seen[ys[0], xs[0]] = True
    stack = [(ys[0], xs[0])]
    while stack:
        y, x = stack.pop()
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if (0 <= ny < mask.shape[0] and 0 <= nx < mask.shape[1]
                    and mask[ny, nx] and not seen[ny, nx]):
                seen[ny, nx] = True
                stack.append((ny, nx))
    return int(seen.sum()) == len(ys)


@st.composite
def cases(draw):
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    shape = (h, w) if draw(st.booleans()) else (h, w, 3)
    seed = draw(st.integers(0, 2**32 - 1))
    img = np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)
    params = SlicParams(n_segments=draw(st.integers(1, h * w)),
                        compactness=draw(st.sampled_from([0.5, 10.0, 40.0])),
                        iterations=draw(st.integers(1, 4)),
                        enforce_connectivity=draw(st.booleans()))
    return img, params


def _one_segment_per_pixel(shape):
    img = np.random.default_rng(sum(shape)).integers(0, 256, shape, dtype=np.uint8)
    return img, SlicParams(n_segments=shape[0] * shape[1])


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(case=cases())
# n_segments == H*W on the degenerate shapes, which random draws seldom hit
@hypothesis.example(case=_one_segment_per_pixel((1, 9)))
@hypothesis.example(case=_one_segment_per_pixel((9, 1)))
@hypothesis.example(case=_one_segment_per_pixel((1, 1)))
@hypothesis.example(case=_one_segment_per_pixel((3, 4, 3)))
def test_slic_matches_oracle_with_dense_connected_ids(case):
    img, params = case
    got, got_e = slic(img, params, return_energies=True)
    want, want_e = oracle.slic(img, params, return_energies=True)
    assert got.dtype == want.dtype == np.int32
    assert got.shape == img.shape[:2]
    assert got.tobytes() == want.tobytes()
    assert got_e == want_e
    ids = np.unique(got)
    np.testing.assert_array_equal(ids, np.arange(len(ids)))
    if params.enforce_connectivity:
        assert all(_is_4_connected(got == i) for i in ids)
