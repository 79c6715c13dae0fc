import tracemalloc

import numpy as np
import pytest

from segtransfer.core import IGNORE, argmax_map, max_map
from segtransfer.errors import ClassMismatchError, EmptyInputError, InvalidConfigError
from segtransfer.pseudo_label import assign_initial
from segtransfer.thresholds import (
    ClassThresholds,
    ClassValues,
    CurriculumSchedule,
    determine_lambdas,
    portion_at,
)

from test_core import random_prob_map


class TestPortionSchedule:
    def test_start(self):
        assert portion_at(CurriculumSchedule(), 0) == 0.25

    def test_epoch_three(self):
        assert portion_at(CurriculumSchedule(), 3) == pytest.approx(0.40)

    def test_cap(self):
        assert portion_at(CurriculumSchedule(), 10) == 0.55

    def test_invalid(self):
        with pytest.raises(InvalidConfigError):
            CurriculumSchedule(p0=0.6, step=0.05, p_max=0.55)


class TestDetermineLambdas:
    def test_two_pixel_hand_trace(self):
        m = np.array([[[0.9, 0.1]], [[0.3, 0.7]]])
        thr = determine_lambdas([m], 0.5)
        np.testing.assert_allclose(thr.lambdas, [-np.log(0.9), -np.log(0.7)])

    def test_quantile_index_and_empty_class(self):
        # class-0 max probs sorted [0.5, 0.6, 0.7, 0.8], class 1 never argmax
        probs = np.array([0.5, 0.6, 0.7, 0.8])
        m = np.stack([probs, 1.0 - probs], axis=-1).reshape(4, 1, 2)
        thr = determine_lambdas([m], 0.25)
        assert thr.lambdas[0] == pytest.approx(-np.log(0.8))
        assert thr.lambdas[1] == 0.0
        assert thr.thresholds[1] == 1.0

    def test_never_predicted_class_threshold_one(self):
        rng = np.random.default_rng(0)
        m = random_prob_map(rng, 4, 4, 3)
        m[..., 2] = 0.0
        m /= m.sum(-1, keepdims=True)
        thr = determine_lambdas([m], 0.4)
        assert thr.thresholds[2] == 1.0

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            determine_lambdas([], 0.5)
        rng = np.random.default_rng(1)
        with pytest.raises(ClassMismatchError):
            determine_lambdas([random_prob_map(rng, 2, 2, 2),
                               random_prob_map(rng, 2, 2, 3)], 0.5)
        with pytest.raises(InvalidConfigError):
            determine_lambdas([random_prob_map(rng, 2, 2, 2)], 0.0)

    def test_selection_fraction_bound(self):
        """Applying the thresholds with the strict inequality back to the
        same maps selects, per class with n_k predicted pixels, a count
        within [p*n_k - c_k - 1, p*n_k + c_k], c_k counting value ties at
        the quantile index."""
        rng = np.random.default_rng(2)
        for trial in range(30):
            k = int(rng.integers(2, 6))
            maps = [random_prob_map(rng, int(rng.integers(4, 12)),
                                    int(rng.integers(4, 12)), k)
                    for _ in range(int(rng.integers(1, 4)))]
            p = float(rng.uniform(0.1, 1.0))
            thr = determine_lambdas(maps, p)
            labels = np.concatenate([argmax_map(m).ravel() for m in maps])
            confid = np.concatenate([max_map(m).ravel() for m in maps])
            for cls in range(k):
                sel = confid[labels == cls]
                n_k = sel.size
                if n_k == 0:
                    continue
                sm = np.sort(sel)
                t_idx = min(max(int(np.floor((1.0 - p) * n_k)), 0), n_k - 1)
                ties = int((sel == sm[t_idx]).sum())
                count = int((sel > thr.thresholds[cls]).sum())
                assert p * n_k - ties - 1 <= count <= p * n_k + ties

    def test_monotone_in_p(self):
        """Raising p never raises a predicted class's threshold."""
        rng = np.random.default_rng(3)
        maps = [random_prob_map(rng, 8, 8, 3) for _ in range(3)]
        prev = None
        for p in (0.1, 0.25, 0.4, 0.55, 0.8, 1.0):
            thr = determine_lambdas(maps, p).thresholds
            if prev is not None:
                assert np.all(thr <= prev + 1e-15)
            prev = thr

    def test_order_independent(self):
        """Map iteration order cannot change the result."""
        rng = np.random.default_rng(4)
        maps = [random_prob_map(rng, 6, 6, 4) for _ in range(5)]
        a = determine_lambdas(maps, 0.4)
        b = determine_lambdas(list(reversed(maps)), 0.4)
        np.testing.assert_array_equal(a.lambdas, b.lambdas)

    def test_selected_count_monotone_in_p(self):
        """On fixed predictions the number of selected pixels never drops
        as the curriculum portion grows."""
        rng = np.random.default_rng(5)
        maps = [random_prob_map(rng, 10, 10, 2) for _ in range(2)]
        prev = -1
        for p in (0.2, 0.35, 0.5, 0.7):
            thr = determine_lambdas(maps, p)
            count = sum(int((assign_initial(m, thr) != IGNORE).sum()) for m in maps)
            assert count >= prev
            prev = count


    @pytest.mark.parametrize("tall", [True, False])
    def test_allocates_less_than_the_maps(self, tall):
        """Reading 16 maps of 64x64, or one tall map of them all, with one
        class predicted at most pixels: the values gathered (one float per
        pixel) and a block's temporaries stay below the maps' own bytes."""
        rng = np.random.default_rng(6)
        raw = rng.random((16, 64, 64, 2))
        raw[..., 0] += 0.5
        raw /= raw.sum(axis=-1, keepdims=True)
        maps = [np.concatenate(raw)] if tall else list(raw)
        want = determine_lambdas([m.copy() for m in maps], 0.4)
        tracemalloc.start()
        try:
            got = determine_lambdas(maps, 0.4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < raw.nbytes
        np.testing.assert_array_equal(got.lambdas, want.lambdas)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_class_values_blocks_in_any_order(self, k):
        """ClassValues reads the lambdas of determine_lambdas whatever the
        order and the split of the blocks it gathers, an empty block
        included; each class's run holds exactly that class's values."""
        rng = np.random.default_rng(7 + k)
        m = random_prob_map(rng, 30, 7, k)
        want = determine_lambdas([m], 0.3).lambdas
        labels, confid = argmax_map(m), max_map(m)
        for rows in ([0, 30], [0, 1, 2, 30], [0, 11, 11, 12, 29, 30]):
            for order in (1, -1):
                values = ClassValues(k, m.shape[0] * m.shape[1])
                for r0, r1 in list(zip(rows, rows[1:]))[::order]:
                    values.add(labels[r0:r1], confid[r0:r1])
                for c in range(k):
                    run = values.buffer[values.bounds[c]:values.bounds[c + 1]]
                    np.testing.assert_array_equal(np.sort(run), np.sort(confid[labels == c]))
                np.testing.assert_array_equal(values.lambdas(0.3).lambdas, want)


class TestClassThresholds:
    def test_consistency_invariant(self):
        thr = ClassThresholds(np.array([0.0, 0.5, 2.0]))
        np.testing.assert_allclose(thr.thresholds, np.exp(-thr.lambdas), rtol=1e-9)
        assert np.all(thr.thresholds > 0) and np.all(thr.thresholds <= 1)

    def test_json_roundtrip(self):
        thr = ClassThresholds(np.array([0.1, 0.7]))
        back = ClassThresholds.from_json_dict(thr.to_json_dict())
        np.testing.assert_array_equal(back.lambdas, thr.lambdas)

    @pytest.mark.parametrize("doc", [
        {"K": 2.7, "lambdas": [0.1, 0.2]},
        {"K": "2", "lambdas": [0.1, 0.2]},
        {"K": True, "lambdas": [0.1]},
        {"K": 2, "lambdas": ["0.1", True]},
        {"K": 2, "lambdas": [0.1, None]},
        {"K": 1, "lambdas": 0.1},
        {"lambdas": [0.1]},
        {"K": 0, "lambdas": []},
        [2, [0.1, 0.2]],
    ])
    def test_json_rejects_what_it_would_reinterpret(self, doc):
        """K must be an integer and lambdas a list of numbers: 2.7, "2" and
        true are not read as 2 or 1, nor "0.1" and true as 0.1 and 1.0."""
        with pytest.raises(InvalidConfigError):
            ClassThresholds.from_json_dict(doc)

    def test_json_accepts_integral_numbers(self):
        """As in the config, an integral float is an integer and an integer
        a float."""
        thr = ClassThresholds.from_json_dict({"K": 2.0, "lambdas": [0, 0.5]})
        assert thr.lambdas.dtype == np.float64 and thr.lambdas.tolist() == [0.0, 0.5]

    def test_rejects_negative(self):
        with pytest.raises(InvalidConfigError):
            ClassThresholds(np.array([-0.1]))
