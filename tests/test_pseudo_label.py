import numpy as np
import pytest

from segtransfer.core import IGNORE
from segtransfer.errors import ClassMismatchError, DimensionMismatchError
from segtransfer.pseudo_label import (
    NeighbourBits,
    assign_initial,
    generate,
    neighbour_bits,
    refine_with_superpixels,
)
from segtransfer.thresholds import ClassThresholds

from test_core import random_prob_map


def thresholds_from(values):
    return ClassThresholds(-np.log(np.asarray(values, dtype=np.float64)))


def brute_force_assign(p, lambdas):
    """Independent oracle: per pixel choose the candidate from {each class,
    none} minimizing -log(prob) - lambda, keeping a class only when its
    cost is strictly negative."""
    h, w, k = p.shape
    out = np.full((h, w), IGNORE, dtype=np.uint16)
    for y in range(h):
        for x in range(w):
            best_cost = 0.0
            best_cls = IGNORE
            for cls in range(k):
                cost = -np.log(max(p[y, x, cls], 1e-300)) - lambdas[cls]
                if cost < best_cost:
                    best_cost = cost
                    best_cls = cls
            out[y, x] = best_cls
    return out


class TestAssignInitial:
    def test_all_thresholds_one_selects_nothing(self):
        rng = np.random.default_rng(0)
        p = random_prob_map(rng, 5, 5, 3)
        t = ClassThresholds(np.zeros(3))
        assert np.all(assign_initial(p, t) == IGNORE)

    def test_hand_case(self):
        p = np.array([[[0.8, 0.2]]])
        t = thresholds_from([0.5, 0.5])
        assert assign_initial(p, t)[0, 0] == 0

    def test_class_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ClassMismatchError):
            assign_initial(random_prob_map(rng, 2, 2, 3), thresholds_from([0.5, 0.5]))

    def test_matches_brute_force(self):
        """Randomized equivalence against the per-pixel objective oracle."""
        rng = np.random.default_rng(2)
        for _ in range(25):
            k = int(rng.integers(2, 6))
            p = random_prob_map(rng, 8, 8, k)
            lam = rng.uniform(0.0, 1.5, k)
            t = ClassThresholds(lam)
            np.testing.assert_array_equal(assign_initial(p, t),
                                          brute_force_assign(p, lam))

    def test_never_selects_at_or_below_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_prob_map(rng, 8, 8, 3)
            t = ClassThresholds(rng.uniform(0.0, 1.0, 3))
            mask = assign_initial(p, t)
            sel = mask != IGNORE
            ys, xs = np.nonzero(sel)
            cls = mask[ys, xs].astype(np.int64)
            assert np.all(p[ys, xs, cls] > t.thresholds[cls])


def algorithm_oracle(mask, sp):
    """Literal re-implementation of the refinement pass: per-pixel loops
    over a frozen copy, 8-neighborhood vote gated by the superpixel ID,
    fill only when the winning count exceeds 4."""
    h, w = mask.shape
    frozen = mask.copy()
    out = mask.copy()
    num_classes = 0
    labeled = frozen[frozen != IGNORE]
    if labeled.size == 0:
        return out
    num_classes = int(labeled.max()) + 1
    for y in range(h):
        for x in range(w):
            if frozen[y, x] != IGNORE:
                continue
            counts = []
            for cls in range(num_classes):
                c = 0
                for ny in range(y - 1, y + 2):
                    for nx in range(x - 1, x + 2):
                        if not (0 <= ny < h and 0 <= nx < w):
                            continue
                        if frozen[ny, nx] == cls and sp[y, x] == sp[ny, nx]:
                            c += 1
                counts.append(c)
            winner = int(np.argmax(counts))
            if counts[winner] > 4:
                out[y, x] = winner
    return out


class TestRefineWithSuperpixels:
    def make_center_case(self, neighbor_label_count, superpixel_split=None):
        mask = np.full((3, 3), IGNORE, dtype=np.uint16)
        filled = 0
        for y in range(3):
            for x in range(3):
                if (y, x) == (1, 1):
                    continue
                if filled < neighbor_label_count:
                    mask[y, x] = 1
                    filled += 1
        sp = np.zeros((3, 3), dtype=np.int32)
        if superpixel_split is not None:
            for (y, x) in superpixel_split:
                sp[y, x] = 1
        return mask, sp

    def test_eight_votes_fill(self):
        mask, sp = self.make_center_case(8)
        out = refine_with_superpixels(mask, sp)
        assert out[1, 1] == 1

    def test_four_votes_do_not_fill(self):
        mask, sp = self.make_center_case(4)
        out = refine_with_superpixels(mask, sp)
        assert out[1, 1] == IGNORE

    def test_five_votes_fill(self):
        mask, sp = self.make_center_case(5)
        out = refine_with_superpixels(mask, sp)
        assert out[1, 1] == 1

    def test_superpixel_gate_blocks_votes(self):
        # all 8 neighbors labeled but only 4 share the center's superpixel
        mask, _ = self.make_center_case(8)
        sp = np.zeros((3, 3), dtype=np.int32)
        for (y, x) in [(0, 0), (0, 1), (0, 2), (1, 0)]:
            sp[y, x] = 1
        out = refine_with_superpixels(mask, sp)
        assert out[1, 1] == IGNORE

    def test_label_conservative(self):
        """Every labeled input pixel keeps its value."""
        rng = np.random.default_rng(4)
        for _ in range(10):
            mask = rng.integers(0, 4, (10, 10)).astype(np.uint16)
            mask[rng.random((10, 10)) < 0.5] = IGNORE
            sp = rng.integers(0, 5, (10, 10))
            out = refine_with_superpixels(mask, sp)
            keep = mask != IGNORE
            np.testing.assert_array_equal(out[keep], mask[keep])
            # one pass never unfills
            assert np.all((out != IGNORE) | (mask == IGNORE))

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mask = rng.integers(0, 3, (12, 12)).astype(np.uint16)
            mask[rng.random((12, 12)) < 0.6] = IGNORE
            sp = rng.integers(0, 4, (12, 12))
            np.testing.assert_array_equal(refine_with_superpixels(mask, sp),
                                          algorithm_oracle(mask, sp))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            refine_with_superpixels(np.zeros((3, 3), dtype=np.uint16),
                                    np.zeros((4, 4), dtype=np.int32))


class TestGenerate:
    def test_thresholds_one_gives_all_ignore(self):
        rng = np.random.default_rng(6)
        p = random_prob_map(rng, 6, 6, 2)
        sp = np.zeros((6, 6), dtype=np.int32)
        out = generate(p, ClassThresholds(np.zeros(2)), sp)
        assert np.all(out == IGNORE)

    def test_equals_two_stage_composition(self):
        rng = np.random.default_rng(7)
        p = random_prob_map(rng, 9, 9, 3)
        t = ClassThresholds(rng.uniform(0, 1, 3))
        sp = rng.integers(0, 6, (9, 9))
        expected = refine_with_superpixels(assign_initial(p, t), sp)
        np.testing.assert_array_equal(generate(p, t, sp), expected)

    def test_matches_full_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = random_prob_map(rng, 16, 16, 2)
            lam = rng.uniform(0.0, 1.0, 2)
            t = ClassThresholds(lam)
            sp = rng.integers(0, 8, (16, 16))
            expected = algorithm_oracle(brute_force_assign(p, lam), sp)
            np.testing.assert_array_equal(generate(p, t, sp), expected)


class TestSuperpixelForms:
    """refine_with_superpixels and generate take an ID map or its
    NeighbourBits; only the type tells them apart."""

    def test_neighbour_bits_in_window_order(self):
        # bit j is neighbor j, row by row from the top left: in a 2x2
        # superpixel, the top-left pixel shares right (4), down (6) and down-right (7)
        np.testing.assert_array_equal(neighbour_bits(np.zeros((2, 2), dtype=np.int32)),
                                      [[0b11010000, 0b01101000], [0b00010110, 0b00001011]])
        np.testing.assert_array_equal(neighbour_bits([[0, 1], [0, 1]]),
                                      [[0b01000000, 0b01000000], [0b00000010, 0b00000010]])

    def center_case(self):
        """Every pixel but the center admitted as class 1 under thresholds
        0.8; the center, at 0.5/0.5, stays IGNORE until refined."""
        p = np.zeros((3, 3, 2))
        p[..., 1] = 0.9
        p[..., 0] = 0.1
        p[1, 1] = 0.5
        return p, thresholds_from([0.8, 0.8])

    def test_bare_uint8_map_is_read_as_ids(self):
        """All zeros as IDs is one superpixel, so the center gets 8 votes;
        as a bitmap it would gate every vote out."""
        p, t = self.center_case()
        zeros = np.zeros((3, 3), dtype=np.uint8)
        mask = assign_initial(p, t)
        assert mask[1, 1] == IGNORE
        assert refine_with_superpixels(mask, zeros)[1, 1] == 1
        assert generate(p, t, zeros)[1, 1] == 1
        assert refine_with_superpixels(mask, NeighbourBits(zeros))[1, 1] == IGNORE
        assert generate(p, t, NeighbourBits(zeros))[1, 1] == IGNORE

    def test_ids_and_their_bits_agree(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = random_prob_map(rng, 12, 12, 3)
            t = ClassThresholds(rng.uniform(0, 1, 3))
            sp = rng.integers(0, 4, (12, 12)).astype(np.uint8)
            want = generate(p, t, sp.astype(np.int64))
            np.testing.assert_array_equal(generate(p, t, sp), want)
            np.testing.assert_array_equal(generate(p, t, NeighbourBits(neighbour_bits(sp))), want)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (9,), (3, 3, 1)])
    def test_bits_of_another_shape_raise(self, shape):
        p, t = self.center_case()
        bits = NeighbourBits(np.zeros(shape, dtype=np.uint8))
        with pytest.raises(DimensionMismatchError):
            refine_with_superpixels(assign_initial(p, t), bits)
        with pytest.raises(DimensionMismatchError):
            generate(p, t, bits)

    @pytest.mark.parametrize("shape", [(), (9,), (3, 3, 1)])
    def test_id_map_not_2d_raises(self, shape):
        with pytest.raises(DimensionMismatchError):
            neighbour_bits(np.zeros(shape, dtype=np.int32))
        with pytest.raises(DimensionMismatchError):
            refine_with_superpixels(np.zeros((3, 3), dtype=np.uint16), np.zeros(shape, dtype=np.int32))
