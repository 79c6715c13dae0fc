import numpy as np
import pytest

from segtransfer.errors import DimensionMismatchError, TooManySegmentsError
from segtransfer.superpixel import (
    SlicParams,
    enforce_connectivity,
    rgb_to_lab,
    slic,
)


def flood_fill_connected(sp):
    """True iff every segment is one 4-connected region."""
    h, w = sp.shape
    seen = np.zeros((h, w), dtype=bool)
    seen_segments = set()
    for sy in range(h):
        for sx in range(w):
            if seen[sy, sx]:
                continue
            seg = sp[sy, sx]
            if seg in seen_segments:
                return False
            seen_segments.add(seg)
            stack = [(sy, sx)]
            seen[sy, sx] = True
            while stack:
                y, x = stack.pop()
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and not seen[ny, nx] \
                            and sp[ny, nx] == seg:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
    return True


class TestRgbToLab:
    def test_black(self):
        lab = rgb_to_lab(np.zeros((1, 1, 3), dtype=np.uint8))
        assert lab[0, 0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_white(self):
        lab = rgb_to_lab(np.full((1, 1, 3), 255, dtype=np.uint8))
        assert lab[0, 0, 0] == pytest.approx(100.0, abs=0.1)

    def test_mid_gray_neutral(self):
        lab = rgb_to_lab(np.full((1, 1, 3), 119, dtype=np.uint8))
        assert abs(lab[0, 0, 1]) < 0.5
        assert abs(lab[0, 0, 2]) < 0.5

    def test_grayscale_replication(self):
        g = np.full((2, 2), 119, dtype=np.uint8)
        rgb = np.full((2, 2, 3), 119, dtype=np.uint8)
        np.testing.assert_allclose(rgb_to_lab(g), rgb_to_lab(rgb))


    @pytest.mark.parametrize("shape", [(4, 4, 2), (4, 4, 4), (2, 4, 4, 3)])
    def test_channels_must_be_1_or_3(self, shape):
        with pytest.raises(DimensionMismatchError, match=r"image must be \(H, W\)"):
            rgb_to_lab(np.zeros(shape, dtype=np.uint8))


class TestSlic:
    def test_single_segment(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 255, (9, 14), dtype=np.uint8)
        sp = slic(img, SlicParams(n_segments=1))
        np.testing.assert_array_equal(np.unique(sp), [0])

    def test_uniform_quadrants(self):
        img = np.full((4, 4), 128, dtype=np.uint8)
        sp = slic(img, SlicParams(n_segments=4))
        expected = np.array([[0, 0, 1, 1],
                             [0, 0, 1, 1],
                             [2, 2, 3, 3],
                             [2, 2, 3, 3]])
        np.testing.assert_array_equal(sp, expected)

    def test_color_edge_dominates(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        img[:, 4:] = 255
        sp = slic(img, SlicParams(n_segments=2, compactness=0.1))
        assert np.all(sp[:, :4] == sp[0, 0])
        assert np.all(sp[:, 4:] == sp[0, 4])
        assert sp[0, 0] != sp[0, 4]

    def test_too_many_segments(self):
        with pytest.raises(TooManySegmentsError):
            slic(np.zeros((2, 2), dtype=np.uint8), SlicParams(n_segments=5))

    @pytest.mark.parametrize("shape", [(), (0,), (5,)])
    def test_fewer_than_two_dims_rejected(self, shape):
        """An image of rank 0 or 1 gets rgb_to_lab's error, not a failed
        unpacking of its shape."""
        img = np.zeros(shape, dtype=np.uint8)
        with pytest.raises(DimensionMismatchError, match=r"image must be \(H, W\)"):
            slic(img, SlicParams(n_segments=1))

    def test_coverage_and_connectivity_on_noise_images(self):
        """Coverage and connectivity hold even on unstructured noise."""
        rng = np.random.default_rng(1)
        for trial in range(4):
            img = rng.integers(0, 255, (24, 24), dtype=np.uint8)
            sp = slic(img, SlicParams(n_segments=30))
            n = int(sp.max()) + 1
            assert np.array_equal(np.unique(sp), np.arange(n))  # coverage, dense ids
            assert flood_fill_connected(sp)

    def test_invariants_on_structured_images(self):
        """Segment-count bound and per-iteration energy descent on the
        synthetic image family (the count bound and the descent of the
        non-squared cost are properties of structured images, not of iid
        noise)."""
        from segtransfer.toy_pipeline import SynthConfig, gen_synthetic
        data = gen_synthetic(SynthConfig(image_size=24, source_count=4,
                                         target_count=2, seed=2))
        params = SlicParams(n_segments=30)
        for img in data["source"]["images"] + data["target"]["images"]:
            sp, energies = slic(img, params, return_energies=True)
            n = int(sp.max()) + 1
            assert 0.5 * params.n_segments <= n <= 1.5 * params.n_segments
            assert flood_fill_connected(sp)
            for a, b in zip(energies, energies[1:]):
                assert b <= a + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 255, (16, 16), dtype=np.uint8)
        np.testing.assert_array_equal(slic(img), slic(img))


class TestEnforceConnectivity:
    def test_already_connected_unchanged(self):
        sp = np.array([[0, 0, 1], [0, 0, 1], [2, 2, 2]])
        out = enforce_connectivity(sp, 2)
        # identical partition up to renumbering
        assert len(np.unique(out)) == 3
        for seg in np.unique(sp):
            region = sp == seg
            assert len(np.unique(out[region])) == 1

    def test_orphan_absorbed(self):
        sp = np.zeros((3, 3), dtype=np.int32)
        sp[1, 1] = 7
        out = enforce_connectivity(sp, 2)
        assert len(np.unique(out)) == 1

    def test_islands_merge_to_most_adjacent(self):
        # segment 5 pixel touches segment 0 on three sides, segment 1 on one
        sp = np.array([
            [0, 0, 0, 1],
            [0, 5, 1, 1],
            [0, 0, 1, 1],
        ])
        out = enforce_connectivity(sp, 2)
        assert out[1, 1] == out[0, 0]
        assert out[1, 1] != out[0, 3]

    def test_split_segments_stay_connected(self):
        # one ID in two disconnected parts, both large enough to survive
        sp = np.array([
            [0, 1, 0],
            [0, 1, 0],
            [0, 1, 0],
        ])
        out = enforce_connectivity(sp, 2)
        assert flood_fill_connected(out)
        assert len(np.unique(out)) == 3
