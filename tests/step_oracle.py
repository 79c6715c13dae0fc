"""Reference training step: the original per-image loop implementations
of the batch forward, the analytic backward, the target forward and the
training loop that drives them.

`segtransfer.toy_pipeline` replaces these with one stacked, class-major
step over the whole batch; it must match this module to rounding (its
sums run in another order).  The per-image model forwards the loops call
are kept here in their original form too.
"""

from dataclasses import dataclass

import numpy as np

from segtransfer.core import IGNORE, argmax_map
from segtransfer.errors import DimensionMismatchError
from segtransfer.losses import (
    LossWeights,
    adversarial_loss_for_segmenter,
    classification_loss,
    discriminator_loss,
    segmentation_loss,
    total_loss,
)
from segtransfer.metrics import ConfusionMatrix, accumulate, summary
from segtransfer.pseudo_label import generate
from segtransfer.rng import SplitMix64
from segtransfer.superpixel import slic
from segtransfer.thresholds import determine_lambdas, portion_at
from segtransfer.toy_pipeline import (
    TrainResult,
    _all_ignore,
    _sigmoid,
    init_models,
    pixel_features,
    refine_probs_by_classification,
)
from segtransfer.transfer import BatchCentroids, CentroidBank, batch_centroids, srt_loss, update_bank


@dataclass
class BatchData:
    """One optimization step's worth of images, pre-featurized.

    feats are (H, W, D); masks are (H, W) uint16 (pseudo labels for the
    target side); labels are binary image-level labels.
    """
    src_feats: list
    src_masks: list
    src_labels: list
    tgt_feats: list
    tgt_masks: list
    tgt_labels: list


def _with_bias(feats_flat):
    n = feats_flat.shape[0]
    return np.concatenate([feats_flat, np.ones((n, 1))], axis=1)


# ---------------------------------------------------------------------------
# per-image forwards


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def segmenter_forward(seg, feats) -> np.ndarray:
    """Per-pixel affine map + softmax -> (H, W, K) probability map."""
    feats = np.asarray(feats, dtype=np.float64)
    h, w, d = feats.shape
    if d + 1 != seg.weights.shape[0]:
        raise DimensionMismatchError(
            f"feature dim {d} incompatible with weights {seg.weights.shape}")
    logits = _with_bias(feats.reshape(h * w, d)) @ seg.weights
    return _softmax(logits).reshape(h, w, seg.num_classes)


def classifier_forward(clf, feats):
    """Mean-pool features then logistic.  Returns (pred, pooled)."""
    feats = np.asarray(feats, dtype=np.float64)
    pooled = feats.reshape(-1, feats.shape[-1]).mean(axis=0)
    z = pooled @ clf.weights[:-1] + clf.weights[-1]
    return float(_sigmoid(z)), pooled


def prob_map_stats(probs) -> np.ndarray:
    """Pooled statistics of a softmax map: per-class mean, max, and
    spatial variance, concatenated to a (3K,) vector."""
    flat = probs.reshape(-1, probs.shape[-1])
    return np.concatenate([flat.mean(axis=0), flat.max(axis=0), flat.var(axis=0)])


def discriminator_forward(disc, probs):
    """Logistic over pooled softmax statistics.  Returns (score, stats)."""
    stats = prob_map_stats(probs)
    z = stats @ disc.weights[:-1] + disc.weights[-1]
    return float(_sigmoid(z)), stats


# ---------------------------------------------------------------------------
# batch forward / backward


@dataclass
class ForwardState:
    losses: dict
    new_bank_s: CentroidBank
    new_bank_t: CentroidBank
    # intermediates for backward
    src_probs: list
    tgt_probs: list
    src_pooled: list
    tgt_pooled: list
    src_cls: list
    tgt_cls: list
    src_disc: list
    tgt_disc: list
    srt_grads: tuple
    batch: BatchData
    weights: LossWeights
    use_adv: bool
    use_srt: bool


def batch_forward(models, batch: BatchData, bank_s: CentroidBank,
                  bank_t: CentroidBank, weights: LossWeights,
                  use_adv: bool = True, use_srt: bool = True) -> ForwardState:
    """Forward all images of one batch and assemble every loss term.

    Candidate banks are the old banks advanced by this batch's centroids;
    they are returned for the caller to commit after the gradient step.
    """
    k = models.segmenter.num_classes
    n_s, n_t = len(batch.src_feats), len(batch.tgt_feats)

    src_probs, src_pooled, src_cls, src_disc = [], [], [], []
    l_c = l_s = 0.0
    cent_s = np.zeros((k, k))
    for feats, mask, label in zip(batch.src_feats, batch.src_masks, batch.src_labels):
        probs = segmenter_forward(models.segmenter, feats)
        pred, pooled = classifier_forward(models.classifier, feats)
        l_c += classification_loss(pred, label)[0] / n_s
        l_s += segmentation_loss(probs, mask, weights.lambda_global)[0] / n_s
        cent_s += batch_centroids(probs, mask, k).values / n_s
        d, _ = discriminator_forward(models.discriminator, probs)
        src_probs.append(probs)
        src_pooled.append(pooled)
        src_cls.append(pred)
        src_disc.append(d)

    tgt_probs, tgt_pooled, tgt_cls, tgt_disc = [], [], [], []
    cent_t = np.zeros((k, k))
    for feats, mask, label in zip(batch.tgt_feats, batch.tgt_masks, batch.tgt_labels):
        probs = segmenter_forward(models.segmenter, feats)
        pred, pooled = classifier_forward(models.classifier, feats)
        l_c += classification_loss(pred, label)[0] / n_t
        l_s += segmentation_loss(probs, mask, weights.lambda_global)[0] / n_t
        cent_t += batch_centroids(probs, mask, k).values / n_t
        d, _ = discriminator_forward(models.discriminator, probs)
        tgt_probs.append(probs)
        tgt_pooled.append(pooled)
        tgt_cls.append(pred)
        tgt_disc.append(d)

    new_bank_s = update_bank(bank_s, BatchCentroids(cent_s, np.zeros(k, dtype=np.int64)))
    new_bank_t = update_bank(bank_t, BatchCentroids(cent_t, np.zeros(k, dtype=np.int64)))

    if use_srt:
        l_srt, grad_cs, grad_ct = srt_loss(new_bank_s, new_bank_t, weights.alpha)
    else:
        l_srt, grad_cs, grad_ct = 0.0, np.zeros((k, k)), np.zeros((k, k))

    if use_adv:
        l_adv, _ = adversarial_loss_for_segmenter(np.array(tgt_disc))
        l_disc, _, _ = discriminator_loss(np.array(src_disc), np.array(tgt_disc))
    else:
        l_adv, l_disc = 0.0, 0.0

    eta = weights.eta if use_adv else 0.0
    mu = weights.mu if use_srt else 0.0
    losses = {
        "L_C": l_c,
        "L_S": l_s,
        "L_D": l_adv,
        "L_SRT": l_srt,
        "L_disc": l_disc,
        "total": total_loss(l_c, l_s, l_adv, l_srt,
                            LossWeights(eta, mu, weights.alpha, weights.lambda_global)),
    }
    return ForwardState(
        losses=losses, new_bank_s=new_bank_s, new_bank_t=new_bank_t,
        src_probs=src_probs, tgt_probs=tgt_probs,
        src_pooled=src_pooled, tgt_pooled=tgt_pooled,
        src_cls=src_cls, tgt_cls=tgt_cls,
        src_disc=src_disc, tgt_disc=tgt_disc,
        srt_grads=(grad_cs, grad_ct), batch=batch, weights=weights,
        use_adv=use_adv, use_srt=use_srt,
    )


def _softmax_jacobian_chain(probs_flat, g_probs):
    """d loss / d logits given d loss / d probs, per pixel."""
    inner = (g_probs * probs_flat).sum(axis=1, keepdims=True)
    return probs_flat * (g_probs - inner)


def _seg_image_grad(feats, probs, mask, k, domain_n, mu, srt_grad,
                    eta_dcoef, disc_w):
    """d (L_S + eta*L_adv + mu*L_SRT) / d logits for one image, times the
    domain averaging factor, returned as a (D+1, K) weight gradient."""
    h, w = mask.shape
    hw = h * w
    flat_p = probs.reshape(hw, k)
    flat_m = mask.ravel()
    labeled = flat_m != IGNORE

    g_z = np.zeros((hw, k))
    # masked cross-entropy: softmax composite
    if labeled.any():
        idx = np.nonzero(labeled)[0]
        cls = flat_m[idx].astype(np.int64)
        onehot = np.zeros((idx.size, k))
        onehot[np.arange(idx.size), cls] = 1.0
        g_z[idx] += (flat_p[idx] - onehot) / (hw * domain_n)

    # terms that differentiate through the raw probabilities
    g_p = np.zeros((hw, k))
    if mu != 0.0 and labeled.any():
        g_p[idx] += mu * srt_grad[cls] / (hw * domain_n)
    if eta_dcoef != 0.0:
        w_mean = disc_w[0:k]
        w_max = disc_w[k:2 * k]
        w_var = disc_w[2 * k:3 * k]
        mean_k = flat_p.mean(axis=0)
        g_p += eta_dcoef * (w_mean / hw)[None, :]
        arg = np.argmax(flat_p, axis=0)
        g_p[arg, np.arange(k)] += eta_dcoef * w_max
        g_p += eta_dcoef * w_var[None, :] * 2.0 * (flat_p - mean_k[None, :]) / hw
    if np.any(g_p):
        g_z += _softmax_jacobian_chain(flat_p, g_p)

    fb = _with_bias(feats.reshape(hw, -1))
    return fb.T @ g_z


def backward_all(models, state: ForwardState) -> dict:
    """Analytic gradients of the combined objective.

    Returns {"classifier", "segmenter", "discriminator"}: the classifier
    block carries d L_C, the segmenter block d (L_S + eta*L_adv +
    mu*L_SRT) with the discriminator frozen, and the discriminator block
    d L_disc with the segmenter outputs frozen -- the standard
    alternating scheme for the adversarial pair.
    """
    batch, weights = state.batch, state.weights
    k = models.segmenter.num_classes
    n_s, n_t = len(batch.src_feats), len(batch.tgt_feats)
    eta = weights.eta if state.use_adv else 0.0
    mu = weights.mu if state.use_srt else 0.0
    grad_cs, grad_ct = state.srt_grads
    disc_w = models.discriminator.weights[:-1]

    g_w1 = np.zeros_like(models.classifier.weights)
    for pred, pooled, label in zip(state.src_cls, state.src_pooled, batch.src_labels):
        g_w1 += (pred - label) / n_s * np.concatenate([pooled, [1.0]])
    for pred, pooled, label in zip(state.tgt_cls, state.tgt_pooled, batch.tgt_labels):
        g_w1 += (pred - label) / n_t * np.concatenate([pooled, [1.0]])

    g_w2 = np.zeros_like(models.segmenter.weights)
    for feats, probs, mask in zip(batch.src_feats, state.src_probs, batch.src_masks):
        g_w2 += _seg_image_grad(feats, probs, mask, k, n_s, mu, grad_cs, 0.0, disc_w)
    for feats, probs, mask, d in zip(batch.tgt_feats, state.tgt_probs,
                                     batch.tgt_masks, state.tgt_disc):
        eta_dcoef = eta * d / n_t if state.use_adv else 0.0
        g_w2 += _seg_image_grad(feats, probs, mask, k, n_t, mu, grad_ct,
                                eta_dcoef, disc_w)

    g_wd = np.zeros_like(models.discriminator.weights)
    if state.use_adv:
        for probs, d in zip(state.tgt_probs, state.tgt_disc):
            stats = prob_map_stats(probs)
            g_wd += (d - 1.0) / n_t * np.concatenate([stats, [1.0]])
        for probs, d in zip(state.src_probs, state.src_disc):
            stats = prob_map_stats(probs)
            g_wd += d / n_s * np.concatenate([stats, [1.0]])

    return {"classifier": g_w1, "segmenter": g_w2, "discriminator": g_wd}


# ---------------------------------------------------------------------------
# training


def _target_probs(models, feats_list, cls_preds, refine):
    out = []
    for feats, pred in zip(feats_list, cls_preds):
        probs = segmenter_forward(models.segmenter, feats)
        if refine:
            probs = refine_probs_by_classification(probs, pred)
        out.append(probs)
    return out


def train(cfg, data: dict) -> TrainResult:
    """Run the full curriculum on a gen_synthetic-style dataset."""
    k = int(data["num_classes"])
    src, tgt = data["source"], data["target"]
    n_src, n_tgt = len(src["images"]), len(tgt["images"])

    src_feats = [pixel_features(im) for im in src["images"]]
    tgt_feats = [pixel_features(im) for im in tgt["images"]]
    feature_dim = src_feats[0].shape[2]
    shape = src_feats[0].shape[:2]

    models = init_models(feature_dim, k, cfg.seed)
    rng = SplitMix64(cfg.seed).spawn(100)

    slic_maps = None
    if cfg.use_pl:
        # images never change, so the spatial priors are computed once
        slic_maps = [slic(im, cfg.slic) for im in tgt["images"]]

    bank_s = CentroidBank(num_classes=k, dim=k, gamma=cfg.gamma)
    bank_t = CentroidBank(num_classes=k, dim=k, gamma=cfg.gamma)

    step = 0
    log = []
    pseudo_masks = [_all_ignore(shape) for _ in range(n_tgt)]

    for epoch in range(cfg.epochs):
        p = portion_at(cfg.schedule, epoch)

        cls_preds = [classifier_forward(models.classifier, f)[0] for f in tgt_feats]
        if cfg.use_pl:
            probs_all = _target_probs(models, tgt_feats, cls_preds,
                                      cfg.refine_by_classification)
            thr = determine_lambdas(probs_all, p)
            pseudo_masks = []
            for j in range(n_tgt):
                m = generate(probs_all[j], thr, slic_maps[j])
                if cfg.gate_by_image_label and tgt["image_labels"][j] == 0:
                    m = m.copy()
                    m[(m != IGNORE) & (m >= 1)] = IGNORE
                pseudo_masks.append(m)
        else:
            pseudo_masks = [_all_ignore(shape) for _ in range(n_tgt)]
        selected = sum(int((m != IGNORE).sum()) for m in pseudo_masks)
        pl_fraction = selected / float(n_tgt * shape[0] * shape[1])

        order_s = rng.shuffled(n_src)
        order_t = rng.shuffled(n_tgt)
        sums = {"L_C": 0.0, "L_S": 0.0, "L_D": 0.0, "L_SRT": 0.0,
                "L_disc": 0.0, "total": 0.0}
        n_batches = 0
        pos_t = 0
        last_lr = cfg.learning_rate
        for b0 in range(0, n_src, cfg.batch_size):
            sel_s = order_s[b0:b0 + cfg.batch_size]
            sel_t = [order_t[(pos_t + i) % n_tgt] for i in range(len(sel_s))]
            pos_t += len(sel_s)
            batch = BatchData(
                src_feats=[src_feats[i] for i in sel_s],
                src_masks=[src["masks"][i] for i in sel_s],
                src_labels=[src["image_labels"][i] for i in sel_s],
                tgt_feats=[tgt_feats[j] for j in sel_t],
                tgt_masks=[pseudo_masks[j] for j in sel_t],
                tgt_labels=[tgt["image_labels"][j] for j in sel_t],
            )
            state = batch_forward(models, batch, bank_s, bank_t, cfg.weights,
                                  use_adv=cfg.use_adv, use_srt=cfg.use_srt)
            grads = backward_all(models, state)

            lr = cfg.learning_rate * cfg.lr_decay_rate ** (step // cfg.lr_decay_step)
            last_lr = lr
            models.segmenter.weights = models.segmenter.weights - lr * grads["segmenter"]
            models.classifier.weights = models.classifier.weights - lr * grads["classifier"]
            if cfg.use_adv:
                models.discriminator.weights = (
                    models.discriminator.weights - lr * grads["discriminator"])
            bank_s, bank_t = state.new_bank_s, state.new_bank_t
            step += 1
            n_batches += 1
            for key in sums:
                sums[key] += state.losses[key]

        cls_preds = [classifier_forward(models.classifier, f)[0] for f in tgt_feats]
        eval_probs = _target_probs(models, tgt_feats, cls_preds,
                                   cfg.refine_by_classification)
        cm = ConfusionMatrix(k)
        for probs, gt in zip(eval_probs, tgt["eval_masks"]):
            accumulate(cm, argmax_map(probs), gt)
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
                       log=log, pseudo_masks=pseudo_masks)
