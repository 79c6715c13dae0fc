"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).  Tolerances
are fixed here, not configurable.
"""

import json
import time

import numpy as np

from segtransfer.cli import main as cli_main
from segtransfer.core import IGNORE, argmax_map, max_map
from segtransfer.losses import (
    LossWeights,
    adversarial_loss_for_segmenter,
    classification_loss,
    discriminator_loss,
    segmentation_loss,
)
from segtransfer.metrics import ConfusionMatrix, accumulate, summary
from segtransfer.pseudo_label import assign_initial, refine_with_superpixels
from segtransfer.superpixel import SlicParams, slic
from segtransfer.thresholds import ClassThresholds, determine_lambdas
from segtransfer.toy_pipeline import (
    SynthConfig,
    TrainConfig,
    gen_synthetic,
    gradcheck,
    train,
)
from segtransfer.transfer import BatchCentroids, CentroidBank, srt_loss, update_bank

from test_metrics import shifted_square_fixture
from test_pseudo_label import algorithm_oracle
from test_superpixel import flood_fill_connected


def _verdict(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _random_prob_map(rng, h, w, k):
    raw = rng.random((h, w, k)) + 1e-3
    return raw / raw.sum(axis=-1, keepdims=True)


def test_c1_pseudo_label_oracle_equivalence():
    """assign_initial vs brute-force minimization of the per-pixel
    objective over the K+1 candidate assignments, 100 random instances."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    mismatches = 0
    for _ in range(100):
        k = int(rng.choice([2, 3, 5]))
        h = int(rng.integers(8, 33))
        w = int(rng.integers(8, 33))
        p = _random_prob_map(rng, h, w, k)
        lam = rng.uniform(0.0, 2.0, k)
        got = assign_initial(p, ClassThresholds(lam))
        # independent route: enumerate candidate costs in log space
        costs = -np.log(p) - lam[None, None, :]
        best = np.argmin(costs, axis=-1)
        best_cost = np.take_along_axis(costs, best[..., None], axis=-1)[..., 0]
        expect = np.where(best_cost < 0.0, best, IGNORE).astype(np.uint16)
        mismatches += int((got != expect).sum())
    elapsed = time.time() - t0
    _verdict(1, mismatches == 0 and elapsed < 10.0,
             f"0 mismatches required, saw {mismatches}; {elapsed:.1f}s (limit 10s)")


def test_c2_threshold_selection_fraction():
    """Per-class selected-pixel counts after determine_lambdas +
    assign_initial stay inside the tie-adjusted bound around p * n_k."""
    t0 = time.time()
    rng = np.random.default_rng(102)
    violations = 0
    checked = 0
    for p_target in (0.25, 0.4, 0.55):
        for _ in range(10):
            maps = [_random_prob_map(rng, int(rng.integers(8, 25)),
                                     int(rng.integers(8, 25)), 2)
                    for _ in range(int(rng.integers(1, 4)))]
            thr = determine_lambdas(maps, p_target)
            masks = [assign_initial(m, thr) for m in maps]
            labels = np.concatenate([argmax_map(m).ravel() for m in maps])
            confid = np.concatenate([max_map(m).ravel() for m in maps])
            selected = np.concatenate([m.ravel() for m in masks])
            for cls in range(2):
                n_k = int((labels == cls).sum())
                if n_k == 0:
                    continue
                checked += 1
                sel = confid[labels == cls]
                sm = np.sort(sel)
                t_idx = min(max(int(np.floor((1.0 - p_target) * n_k)), 0), n_k - 1)
                ties = int((sel == sm[t_idx]).sum())
                count = int((selected == cls).sum())
                if not (p_target * n_k - ties - 1 <= count <= p_target * n_k + ties):
                    violations += 1
    elapsed = time.time() - t0
    _verdict(2, violations == 0 and elapsed < 10.0,
             f"{checked} class counts checked, {violations} outside the bound; "
             f"{elapsed:.1f}s (limit 10s)")


def test_c3_refinement_oracle():
    """refine_with_superpixels vs the independent step-by-step
    re-implementation on 100 random 16x16 instances, plus the 4/5-vote
    boundary fixtures."""
    rng = np.random.default_rng(103)
    mismatches = 0
    for _ in range(100):
        mask = rng.integers(0, 3, (16, 16)).astype(np.uint16)
        mask[rng.random((16, 16)) < 0.6] = IGNORE
        sp = rng.integers(0, 6, (16, 16))
        got = refine_with_superpixels(mask, sp)
        mismatches += int((got != algorithm_oracle(mask, sp)).sum())

    def center_case(n_labeled):
        m = np.full((3, 3), IGNORE, dtype=np.uint16)
        filled = 0
        for y in range(3):
            for x in range(3):
                if (y, x) != (1, 1) and filled < n_labeled:
                    m[y, x] = 1
                    filled += 1
        return refine_with_superpixels(m, np.zeros((3, 3), dtype=np.int32))[1, 1]

    boundary_ok = center_case(4) == IGNORE and center_case(5) == 1
    _verdict(3, mismatches == 0 and boundary_ok,
             f"oracle mismatches {mismatches}; 4-vote stays IGNORE and "
             f"5-vote fills: {boundary_ok}")


def test_c4_centroid_recurrence_direct_sum():
    """Recurrence bank equals the explicit exponentially-weighted sum
    after 1000 updates, relative deviation < 1e-9."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for gamma in (0.0, 0.5, 0.7, 0.99):
        n, k, d = 1000, 3, 4
        history = rng.normal(size=(n, k, d))
        bank = CentroidBank(num_classes=k, dim=d, gamma=gamma)
        for x in range(n):
            bank = update_bank(bank, BatchCentroids(history[x], np.zeros(k, dtype=np.int64)))
        weights = gamma ** np.arange(n - 1, -1, -1, dtype=np.float64)
        direct = np.tensordot(weights, history, axes=(0, 0))
        rel = np.abs(bank.centroids - direct).max() / max(np.abs(direct).max(), 1e-30)
        worst = max(worst, rel)
    _verdict(4, worst < 1e-9, f"max relative deviation {worst:.2e} (limit 1e-9)")


def test_c5_gradient_checks():
    """Every analytic gradient matches central finite differences with
    max relative error < 1e-4 over 10 seeds."""
    t0 = time.time()
    worst = 0.0

    def fd(f, x, step=1e-5):
        return (f(x + step) - f(x - step)) / (2 * step)

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-6)

    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        # losses module
        p = float(rng.uniform(0.1, 0.9))
        y = int(rng.integers(0, 2))
        worst = max(worst, rel(classification_loss(p, y)[1],
                               fd(lambda q: classification_loss(q, y)[0], p)))
        probs = _random_prob_map(rng, 4, 4, 3)
        mask = rng.integers(0, 3, (4, 4)).astype(np.uint16)
        _, grad = segmentation_loss(probs, mask, 0.3)
        yy, xx = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        cc = int(mask[yy, xx])
        step = 1e-6
        hi, lo = probs.copy(), probs.copy()
        hi[yy, xx, cc] += step
        lo[yy, xx, cc] -= step
        fd_val = (segmentation_loss(hi, mask, 0.3)[0]
                  - segmentation_loss(lo, mask, 0.3)[0]) / (2 * step)
        worst = max(worst, rel(grad[yy, xx, cc], fd_val))

        d_s = float(rng.uniform(0.1, 0.9))
        d_t = float(rng.uniform(0.1, 0.9))
        _, g_s, g_t = discriminator_loss([d_s], [d_t])
        worst = max(worst, rel(g_s[0], fd(lambda q: discriminator_loss([q], [d_t])[0], d_s)))
        worst = max(worst, rel(g_t[0], fd(lambda q: discriminator_loss([d_s], [q])[0], d_t)))
        _, g_a = adversarial_loss_for_segmenter([d_t])
        worst = max(worst, rel(g_a[0], fd(lambda q: adversarial_loss_for_segmenter([q])[0], d_t)))

        # srt_loss away from the l1 kink
        vals_s = rng.normal(size=(2, 3))
        delta = np.where(rng.normal(size=(2, 3)) > 0, 1.0, -1.0) * rng.uniform(0.2, 1.0, (2, 3))
        vals_t = vals_s + delta
        bank_s = CentroidBank(num_classes=2, dim=3, gamma=0.7, centroids=vals_s, steps=1)
        bank_t = CentroidBank(num_classes=2, dim=3, gamma=0.7, centroids=vals_t, steps=1)
        _, gs, _ = srt_loss(bank_s, bank_t, 0.8)
        i, j = int(rng.integers(0, 2)), int(rng.integers(0, 3))
        hi_v, lo_v = vals_s.copy(), vals_s.copy()
        hi_v[i, j] += 1e-5
        lo_v[i, j] -= 1e-5
        fd_val = (srt_loss(CentroidBank(2, 3, 0.7, hi_v, 1), bank_t, 0.8)[0]
                  - srt_loss(CentroidBank(2, 3, 0.7, lo_v, 1), bank_t, 0.8)[0]) / 2e-5
        worst = max(worst, rel(gs[i, j], fd_val))

        # full toy backward across all three parameter blocks
        report = gradcheck(seed)
        worst = max(worst, report["max"])

    elapsed = time.time() - t0
    _verdict(5, worst < 1e-4 and elapsed < 60.0,
             f"max relative error {worst:.2e} (limit 1e-4); {elapsed:.1f}s (limit 60s)")


def test_c6_slic_invariants():
    """Coverage, post-enforcement 4-connectivity, segment count within
    +/-50% of requested, and non-increasing assignment energy on 20
    synthetic images."""
    data = gen_synthetic(SynthConfig(image_size=32, source_count=10,
                                     target_count=10, seed=106))
    images = data["source"]["images"] + data["target"]["images"]
    params = SlicParams()
    ok = True
    detail = []
    for img in images:
        sp, energies = slic(img, params, return_energies=True)
        n = int(sp.max()) + 1
        if not np.array_equal(np.unique(sp), np.arange(n)):
            ok = False
            detail.append("coverage")
        if not (0.5 * params.n_segments <= n <= 1.5 * params.n_segments):
            ok = False
            detail.append(f"count {n}")
        if not flood_fill_connected(sp):
            ok = False
            detail.append("connectivity")
        if any(b > a + 1e-9 for a, b in zip(energies, energies[1:])):
            ok = False
            detail.append("energy")
    _verdict(6, ok, "20 images: coverage, connectivity, count in [50, 150], "
                    "energy non-increasing" + ("" if ok else f"; failures: {detail}"))


def test_c7_metrics_fixtures():
    """Shifted-square fixture values and confusion-matrix additivity."""
    pred, gt = shifted_square_fixture()
    cm = accumulate(ConfusionMatrix(2), pred, gt)
    s = summary(cm)
    fixture_ok = abs(s["iou_d"] - 1.0 / 3.0) < 1e-9 and abs(s["miou"] - 0.583333) < 1e-4

    rng = np.random.default_rng(107)
    additive_ok = True
    for _ in range(5):
        preds = [rng.integers(0, 2, (8, 8)).astype(np.uint16) for _ in range(6)]
        gts = [rng.integers(0, 2, (8, 8)).astype(np.uint16) for _ in range(6)]
        cut = int(rng.integers(1, 6))
        whole = ConfusionMatrix(2)
        for p, g in zip(preds, gts):
            accumulate(whole, p, g)
        left = ConfusionMatrix(2)
        for p, g in zip(preds[:cut], gts[:cut]):
            accumulate(left, p, g)
        right = ConfusionMatrix(2)
        for p, g in zip(preds[cut:], gts[cut:]):
            accumulate(right, p, g)
        if not np.array_equal(whole.counts, left.counts + right.counts):
            additive_ok = False
    _verdict(7, fixture_ok and additive_ok,
             f"IoU_d 1/3 and mIoU 0.5833 within 1e-4: {fixture_ok}; "
             f"additivity over random splits: {additive_ok}")


def test_c8_directional_experiment():
    """On default synthetic data (32x32, 200 source / 100 target, 15
    epochs), mean target mIoU over 5 seeds orders Full > BL+AL > BL with
    Full - BL >= 2 points.  Loss trade-offs are scaled to the toy models
    (eta 0.01, mu 0.01, learning rate 0.5); the curriculum, schedule, and
    all structural defaults are untouched."""
    t0 = time.time()
    seeds = [0, 1, 2, 3, 4]
    weights = LossWeights(eta=0.01, mu=0.01, alpha=1.0, lambda_global=0.0)

    def run(data, seed, use_pl, use_srt, use_adv):
        cfg = TrainConfig(epochs=15, learning_rate=0.5, seed=seed,
                          weights=weights, use_pl=use_pl, use_srt=use_srt,
                          use_adv=use_adv)
        return train(cfg, data).log[-1]["miou"]

    results = {"BL": [], "BL+AL": [], "Full": []}
    for seed in seeds:
        data = gen_synthetic(SynthConfig(seed=seed))
        results["BL"].append(run(data, seed, False, False, False))
        results["BL+AL"].append(run(data, seed, False, False, True))
        results["Full"].append(run(data, seed, True, True, True))
    means = {k: float(np.mean(v)) for k, v in results.items()}
    elapsed = time.time() - t0
    ok = (means["Full"] > means["BL+AL"] > means["BL"]
          and means["Full"] - means["BL"] >= 0.02
          and elapsed < 300.0)
    _verdict(8, ok,
             f"mIoU means BL {means['BL']:.4f} < BL+AL {means['BL+AL']:.4f} "
             f"< Full {means['Full']:.4f}, Full-BL "
             f"{means['Full'] - means['BL']:+.4f} (need >= +0.02); "
             f"{elapsed:.0f}s (limit 300s)")


def test_c9_cmd_train_determinism(tmp_path):
    """cmd_train with a fixed config and seed writes byte-identical logs
    across two runs."""
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as fh:
        json.dump({"image_size": 12, "source_count": 6, "target_count": 4,
                   "epochs": 2, "learning_rate": 0.3, "n_segments": 9,
                   "seed": 11}, fh)
    data_dir = str(tmp_path / "data")
    assert cli_main(["--config", str(cfg_path), "--quiet", "gen-synth", data_dir]) == 0
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli_main(["--config", str(cfg_path), "--quiet", "train", data_dir,
                     "--out", out_a]) == 0
    assert cli_main(["--config", str(cfg_path), "--quiet", "train", data_dir,
                     "--out", out_b]) == 0
    same = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        for name in ("log.jsonl", "log.csv"))
    _verdict(9, same, "log.jsonl and log.csv byte-identical across runs")
