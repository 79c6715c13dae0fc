"""The vectorised SLIC must reproduce the loop implementation in
`slic_oracle` exactly: byte-identical maps and bit-identical energies."""

import numpy as np
import pytest

import slic_oracle as oracle
from segtransfer import superpixel
from segtransfer.superpixel import SlicParams, enforce_connectivity, slic
from segtransfer.toy_pipeline import SynthConfig, gen_synthetic


def _assert_same_slic(img, params):
    got, got_e = slic(img, params, return_energies=True)
    want, want_e = oracle.slic(img, params, return_energies=True)
    assert got.dtype == want.dtype == np.int32
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got_e == want_e  # exact float equality, iteration by iteration


def _assert_same_connectivity(sp, min_size):
    got = enforce_connectivity(sp, min_size)
    want = oracle.enforce_connectivity(sp, min_size)
    assert got.dtype == want.dtype == np.int32
    assert got.tobytes() == want.tobytes()


def _noise(side, seed):
    return np.random.default_rng(seed).integers(0, 256, (side, side, 3), dtype=np.uint8)


def _structured(side, seed, shift_noise=0.0):
    data = gen_synthetic(SynthConfig(image_size=side, source_count=1, target_count=1,
                                     shift_noise=shift_noise, seed=seed))
    return data["target"]["images"][0]


def test_c6_images_match_oracle():
    data = gen_synthetic(SynthConfig(image_size=32, source_count=10,
                                     target_count=10, seed=106))
    for img in data["source"]["images"] + data["target"]["images"]:
        _assert_same_slic(img, SlicParams())


@pytest.mark.parametrize("side", [32, 64, 128])
def test_noise_images_match_oracle(side):
    _assert_same_slic(_noise(side, side), SlicParams())


@pytest.mark.parametrize("side", [32, 64])
def test_structured_images_match_oracle(side):
    _assert_same_slic(_structured(side, side), SlicParams())


def test_textured_128_matches_oracle():
    """Heavy texture leaves thousands of fragments for connectivity."""
    _assert_same_slic(_structured(128, 7, shift_noise=30.0), SlicParams())


@pytest.mark.parametrize("shape", [(1, 37), (37, 1), (1, 1), (2, 1)])
def test_one_pixel_wide_images_match_oracle(shape):
    img = np.random.default_rng(3).integers(0, 256, shape, dtype=np.uint8)
    for n in sorted({1, max(1, shape[0] * shape[1] // 4), shape[0] * shape[1]}):
        _assert_same_slic(img, SlicParams(n_segments=n))


@pytest.mark.parametrize("shape", [(5, 7), (4, 4), (3, 9)])
def test_one_segment_per_pixel_matches_oracle(shape):
    img = np.random.default_rng(4).integers(0, 256, shape + (3,), dtype=np.uint8)
    _assert_same_slic(img, SlicParams(n_segments=shape[0] * shape[1]))


def test_uniform_image_ties_match_oracle():
    """All distances tie on a flat image; ties go to the highest center."""
    img = np.full((12, 12), 128, dtype=np.uint8)
    for n in (4, 9, 16, 144):
        _assert_same_slic(img, SlicParams(n_segments=n))


def test_chunked_assignment_matches_oracle(monkeypatch):
    """Many small center chunks must merge with the same tie rule."""
    monkeypatch.setattr(superpixel, "_ASSIGN_CHUNK", 50)
    _assert_same_slic(_noise(24, 5), SlicParams(n_segments=30))
    _assert_same_slic(np.full((8, 8), 90, dtype=np.uint8), SlicParams(n_segments=16))


def test_without_connectivity_matches_oracle():
    _assert_same_slic(_noise(32, 6), SlicParams(enforce_connectivity=False))


def test_perturb_seeds_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(50):
        h, w = (int(v) for v in rng.integers(1, 9, 2))
        grad = rng.integers(0, 4, (h, w)).astype(np.float64)  # many ties
        seeds = np.stack([rng.integers(0, h, 20), rng.integers(0, w, 20)], axis=1)
        np.testing.assert_array_equal(superpixel._perturb_seeds(seeds, grad),
                                      oracle._perturb_seeds(seeds, grad))


def test_random_label_maps_match_oracle():
    rng = np.random.default_rng(9)
    for _ in range(200):
        h, w = (int(v) for v in rng.integers(1, 16, 2))
        sp = rng.integers(0, int(rng.integers(1, 6)), (h, w))
        comp, n = superpixel._connected_components(sp)
        want_comp, want_n = oracle._connected_components(sp)
        assert n == want_n
        assert comp.tobytes() == want_comp.tobytes()
        for min_size in (1, 2, 4, 9):
            _assert_same_connectivity(sp, min_size)


def test_snake_component_matches_oracle():
    """A single serpentine component needs many union-find rounds."""
    sp = np.zeros((15, 15), dtype=np.int32)
    sp[1::4, :-1] = 1
    sp[3::4, 1:] = 1
    _assert_same_connectivity(sp, 4)
    _assert_same_connectivity(sp, 200)


def test_raw_slic_fragments_match_oracle():
    raw = slic(_noise(64, 10), SlicParams(enforce_connectivity=False))
    for min_size in (1, 10, 40):
        _assert_same_connectivity(raw, min_size)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_enforce_connectivity_empty_map(shape):
    out = enforce_connectivity(np.zeros(shape, dtype=np.int32), 3)
    assert out.shape == shape
    assert out.dtype == np.int32
