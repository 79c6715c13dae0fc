"""Channel-last reference versions of the pseudo-label layer.

These are the implementations the class-major ones in `segtransfer.core`,
`segtransfer.pseudo_label`, `segtransfer.thresholds` and
`segtransfer.toy_pipeline` replaced, kept
unchanged as the oracle they must match: reductions run over the last
(class) axis with `np.argmax` / `np.max`, and the refinement vote array
is sized by the largest label.

`train` is the training loop whose target pass the streamed one in
`segtransfer.toy_pipeline.train` replaced, kept unchanged: each epoch
fills one tall (N*H, W, K) map of all target images (`_target_probs`),
then runs thresholds, pseudo labels and evaluation over all of it.  Its
threshold, pseudo-label and argmax calls resolve to the reference
versions above.  Each of its steps forwards every image of the batch, so
it also checks that train's steps, which leave out target images with
nothing to read when ADV is off, give the same bits.
"""

import numpy as np

from segtransfer.core import IGNORE, as_label_mask, as_prob_map
from segtransfer.errors import (
    ClassMismatchError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidConfigError,
)
from segtransfer.metrics import ConfusionMatrix, accumulate, summary
from segtransfer.rng import SplitMix64
from segtransfer.superpixel import slic
from segtransfer.thresholds import MIN_PROB, ClassThresholds, portion_at
from segtransfer.toy_pipeline import (
    TrainConfig,
    TrainResult,
    ToyModels,
    _block_images,
    _FeatureBuilder,
    _all_ignore,
    _logistic,
    _pooled_features,
    batch_forward,
    init_models,
    segmenter_forward,
    stack_dataset,
)
from segtransfer.transfer import CentroidBank

_NEIGHBOR_OFFSETS = [(-1, -1), (-1, 0), (-1, 1),
                     (0, -1), (0, 1),
                     (1, -1), (1, 0), (1, 1)]


def offset_stack(sps):
    """Stack superpixel maps into one tall map with per-image IDs made
    distinct, so that no superpixel spans two images."""
    out, offset = [], 0
    for sp in sps:
        out.append(sp + offset)
        offset += int(sp.max()) + 1
    return np.concatenate(out)


def argmax_map(p) -> np.ndarray:
    p = as_prob_map(p)
    return np.argmax(p, axis=-1).astype(np.uint16)


def max_map(p) -> np.ndarray:
    p = as_prob_map(p)
    return np.max(p, axis=-1)


def assign_initial(p, t: ClassThresholds) -> np.ndarray:
    p = as_prob_map(p)
    if p.shape[2] != t.num_classes:
        raise ClassMismatchError(f"map has K={p.shape[2]}, thresholds have K={t.num_classes}")
    thr = t.thresholds
    ratio = p / thr[None, None, :]
    best = np.argmax(ratio, axis=-1)
    best_prob = np.take_along_axis(p, best[..., None], axis=-1)[..., 0]
    selected = best_prob > thr[best]
    mask = np.where(selected, best, IGNORE).astype(np.uint16)
    return mask


def refine_with_superpixels(m, sp) -> np.ndarray:
    m = as_label_mask(m)
    sp = np.asarray(sp)
    if m.shape != sp.shape:
        raise DimensionMismatchError(f"mask {m.shape} vs superpixel map {sp.shape}")
    h, w = m.shape
    frozen = m.copy()
    labeled = frozen != IGNORE
    if not labeled.any():
        return frozen

    num_classes = int(frozen[labeled].max()) + 1
    counts = np.zeros((h, w, num_classes), dtype=np.int32)
    for dy, dx in _NEIGHBOR_OFFSETS:
        ys0, ys1 = max(dy, 0), h + min(dy, 0)
        yd0, yd1 = max(-dy, 0), h + min(-dy, 0)
        xs0, xs1 = max(dx, 0), w + min(dx, 0)
        xd0, xd1 = max(-dx, 0), w + min(-dx, 0)
        nb_label = frozen[ys0:ys1, xs0:xs1]
        nb_sp = sp[ys0:ys1, xs0:xs1]
        same_sp = nb_sp == sp[yd0:yd1, xd0:xd1]
        for k in range(num_classes):
            counts[yd0:yd1, xd0:xd1, k] += ((nb_label == k) & same_sp).astype(np.int32)

    winner = np.argmax(counts, axis=-1)
    winner_count = np.take_along_axis(counts, winner[..., None], axis=-1)[..., 0]
    fill = (frozen == IGNORE) & (winner_count > 4)
    out = frozen.copy()
    out[fill] = winner[fill].astype(np.uint16)
    return out


def generate(p, t: ClassThresholds, sp) -> np.ndarray:
    return refine_with_superpixels(assign_initial(p, t), sp)


def determine_lambdas(maps, p: float) -> ClassThresholds:
    maps = [as_prob_map(m) for m in maps]
    if not maps:
        raise EmptyInputError("no probability maps given")
    if not (0.0 < p <= 1.0):
        raise InvalidConfigError(f"portion p must be in (0, 1], got {p}")
    num_classes = maps[0].shape[2]
    for m in maps:
        if m.shape[2] != num_classes:
            raise ClassMismatchError(f"maps disagree on K: {m.shape[2]} vs {num_classes}")

    gathered = [[] for _ in range(num_classes)]
    for m in maps:
        labels = argmax_map(m).ravel()
        confid = max_map(m).ravel()
        for k in range(num_classes):
            sel = confid[labels == k]
            if sel.size:
                gathered[k].append(sel)

    lambdas = np.zeros(num_classes, dtype=np.float64)
    for k in range(num_classes):
        if not gathered[k]:
            continue
        sm = np.sort(np.concatenate(gathered[k]))
        t_idx = int(np.floor((1.0 - p) * sm.size))
        t_idx = min(max(t_idx, 0), sm.size - 1)
        lambdas[k] = -np.log(max(sm[t_idx], MIN_PROB))
    return ClassThresholds(lambdas)


def refine_probs_by_classification(probs, lesion_prob) -> np.ndarray:
    q = np.asarray(probs, dtype=np.float64).copy()
    q[..., 1:] *= lesion_prob
    q /= q.sum(axis=-1, keepdims=True)
    return q


def _target_probs(models, images, pooled, refine, features) -> np.ndarray:
    """Probability map of the target images under the current weights,
    stacked into one tall (N*H, W, K) map: a transposed view of a
    class-major (K, N*H*W) array.  The images are forwarded in blocks of
    whole images, featurised by `features`."""
    n, h, w = images.shape[:3]
    k = models.segmenter.shape[1]
    probs = np.empty((k, n * h * w))
    if refine:
        preds = _logistic(pooled, models.classifier)
    block = _block_images(h, w)
    for i in range(0, n, block):
        feats = features(images[i:i + block])
        b = len(feats)
        p = segmenter_forward(models.segmenter, feats.reshape(b * h, w, -1))
        if refine:
            p = refine_probs_by_classification(p, np.repeat(preds[i:i + b], h)[:, None, None])
        probs[:, i * h * w:(i + b) * h * w] = p.reshape(-1, k).T
    return probs.T.reshape(n * h, w, k)


def train(cfg: TrainConfig, data: dict) -> TrainResult:
    """Run the full curriculum on a gen_synthetic-style dataset.

    Each domain needs at least one image, all images must share one
    size, each domain's per-image lists must hold one entry per image,
    and every image-level label must be the integer 0 or 1.  The images
    (uint8 in practice), their mean-pooled classifier inputs, masks and
    image-level labels are each one array over all images, source first,
    built once; the target rows of the masks hold the current pseudo
    labels.  No array holds the pixel features of all images: a step
    gathers its batch from these arrays by one index array and builds
    the batch's features from its images.  The target images are handled
    as one tall (N*H, W) map: each epoch makes one threshold pass, one
    pseudo-label pass and one evaluation over all of them, after a
    forward that fills the map a block of whole images at a time.
    """
    k = int(data["num_classes"])
    data = stack_dataset(data)
    src, tgt = data["source"], data["target"]
    images = np.concatenate([src["images"], tgt["images"]])
    masks = np.concatenate([src["masks"], _all_ignore(tgt["eval_masks"].shape)])
    labels = np.concatenate([src["image_labels"], tgt["image_labels"]])
    pooled = _pooled_features(images)
    n_img, h, w, c = images.shape
    n_tgt = len(tgt["images"])
    n_src = n_img - n_tgt
    tgt_images, tgt_pooled = images[n_src:], pooled[n_src:]
    # one buffer serves every batch and every block of the target pass
    features = _FeatureBuilder(max(2 * min(cfg.batch_size, n_src),
                                   min(_block_images(h, w), n_tgt)), h, w, c)
    eval_tall = np.concatenate(tgt["eval_masks"])
    pseudo_tall = masks[n_src:].reshape(n_tgt * h, w)  # a view: writes land in masks

    models = init_models(pooled.shape[1], k, cfg.seed)
    rng = SplitMix64(cfg.seed).spawn(100)

    sp_tall = probs_t = None
    if cfg.use_pl:
        # images never change, so the spatial priors are computed once
        sp_tall = offset_stack([slic(im, cfg.slic) for im in tgt["images"]])
        probs_t = _target_probs(models, tgt_images, tgt_pooled,
                                cfg.refine_by_classification, features)
        if cfg.gate_by_image_label:
            negative_rows = np.repeat(labels[n_src:] == 0, h)[:, None]

    bank_s = CentroidBank(num_classes=k, dim=k, gamma=cfg.gamma)
    bank_t = CentroidBank(num_classes=k, dim=k, gamma=cfg.gamma)

    step = 0
    log = []

    for epoch in range(cfg.epochs):
        p = portion_at(cfg.schedule, epoch)

        if cfg.use_pl:
            # probs_t holds the maps of the current weights: the previous
            # epoch's evaluation, or the initial forward
            thr = determine_lambdas([probs_t], p)
            pseudo_tall[:] = generate(probs_t, thr, sp_tall)
            if cfg.gate_by_image_label:
                # images labelled healthy keep no lesion pixel (IGNORE >= 1 too)
                pseudo_tall[negative_rows & (pseudo_tall >= 1)] = IGNORE
        pl_fraction = int((pseudo_tall != IGNORE).sum()) / float(pseudo_tall.size)

        order_s = rng.shuffled(n_src)
        order_t = rng.shuffled(n_tgt)
        sums = {"L_C": 0.0, "L_S": 0.0, "L_D": 0.0, "L_SRT": 0.0,
                "L_disc": 0.0, "total": 0.0}
        n_batches = 0
        last_lr = cfg.learning_rate
        for b0 in range(0, n_src, cfg.batch_size):
            sel_s = order_s[b0:b0 + cfg.batch_size]
            # the target side walks order_t in step with the source side, wrapping
            sel_t = order_t[np.arange(b0, b0 + len(sel_s)) % n_tgt]
            idx = np.concatenate([sel_s, n_src + sel_t])
            # the features live in a reused buffer, spent before the next build
            losses, bank_s, bank_t, grads = batch_forward(
                models, features(images[idx]), masks[idx], labels[idx], pooled[idx],
                len(sel_s), bank_s, bank_t, cfg.weights,
                use_adv=cfg.use_adv, use_srt=cfg.use_srt)

            lr = cfg.learning_rate * cfg.lr_decay_rate ** (step // cfg.lr_decay_step)
            last_lr = lr
            # without use_adv the discriminator's gradient is exactly zero
            models = ToyModels(*(w - lr * g for w, g in zip(models, grads)))
            step += 1
            n_batches += 1
            for key in sums:
                sums[key] += losses[key]

        del probs_t  # free the last maps before the forward allocates new ones
        probs_t = _target_probs(models, tgt_images, tgt_pooled,
                                cfg.refine_by_classification, features)
        cm = accumulate(ConfusionMatrix(k), argmax_map(probs_t), eval_tall)
        m = summary(cm)

        record = {
            "epoch": epoch,
            "p": float(p),
            "pl_fraction": float(pl_fraction),
            "lr": float(last_lr),
            "miou": m["miou"],
        }
        if "iou_n" in m:
            record["iou_n"] = m["iou_n"]
            record["iou_d"] = m["iou_d"]
        for key in ("L_C", "L_S", "L_D", "L_SRT", "L_disc", "total"):
            record[key] = float(sums[key]) / max(n_batches, 1)
        log.append(record)

    return TrainResult(models=models, bank_s=bank_s, bank_t=bank_t,
                       log=log, pseudo_masks=masks[n_src:])
