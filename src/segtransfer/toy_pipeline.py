"""Desk-scale two-domain training loop with hand-written gradients.

Three tiny models stand in for the full architecture: a per-pixel affine
softmax segmenter over handcrafted pixel features, a logistic classifier
over mean-pooled features, and a logistic domain discriminator over
pooled statistics of the segmentation softmax map.  The loop runs the
full curriculum: per-epoch class-balance thresholds, superpixel-refined
pseudo labels, exponentially-weighted centroid alignment (computed on
the softmax outputs, the toy analog of penultimate features), and
output-space adversarial alignment.

A training step takes one layout: arrays stacked along axis 0, the
source images first, then the target ones -- pixel features
(B, H, W, D), masks (B, H, W), image-level labels (B,) and mean-pooled
features (B, D).  `train` keeps each of these as one array over all
images and gathers every batch from them by one index array.

Gradients flow into the alignment loss only through the newest batch
centroid (weight gamma^0 = 1); the accumulated history is a constant
buffer, so backpropagation never unrolls across steps.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import IGNORE, argmax_map
from .errors import DimensionMismatchError, EmptyInputError, InvalidConfigError
from .losses import (
    PROB_CLAMP,
    LossWeights,
    adversarial_loss_for_segmenter,
    discriminator_loss,
    total_loss,
)
from .metrics import ConfusionMatrix, accumulate, summary
from .pseudo_label import generate
from .rng import SplitMix64
from .superpixel import SlicParams, slic
from .thresholds import CurriculumSchedule, determine_lambdas, portion_at
from .transfer import BatchCentroids, CentroidBank, srt_loss, update_bank

LESION_RATE = 0.75
BACKGROUND_NOISE = 8.0
WEIGHT_INIT_SCALE = 0.1
GRADCHECK_SIZE = 8  # side of gradcheck's images
GRADCHECK_IMAGES = 2  # images per domain in gradcheck


# ---------------------------------------------------------------------------
# configs and models


@dataclass(frozen=True)
class SynthConfig:
    image_size: int = 32
    num_classes: int = 2
    source_count: int = 200
    target_count: int = 100
    shift_brightness: float = 60.0
    shift_noise: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if self.image_size < 8:
            raise InvalidConfigError("image_size must be >= 8")
        if self.source_count < 1 or self.target_count < 1:
            raise InvalidConfigError("domain counts must be >= 1")
        if self.num_classes < 2:
            raise InvalidConfigError("num_classes must be >= 2")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    batch_size: int = 4
    learning_rate: float = 1e-4
    lr_decay_rate: float = 0.7
    lr_decay_step: int = 950
    weights: LossWeights = field(default_factory=LossWeights)
    schedule: CurriculumSchedule = field(default_factory=CurriculumSchedule)
    gamma: float = 0.7
    seed: int = 0
    use_pl: bool = True
    use_srt: bool = True
    use_adv: bool = True
    refine_by_classification: bool = False
    gate_by_image_label: bool = False
    slic: SlicParams = field(default_factory=SlicParams)

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise InvalidConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.learning_rate < 0 or self.lr_decay_step < 1:
            raise InvalidConfigError("learning_rate must be >= 0 and lr_decay_step >= 1")
        if not (0.0 < self.lr_decay_rate <= 1.0):
            raise InvalidConfigError("lr_decay_rate must be in (0, 1]")
        if not (0.0 <= self.gamma < 1.0):
            raise InvalidConfigError("gamma must be in [0, 1)")


@dataclass
class ToySegmenter:
    weights: np.ndarray  # (D+1, K), last row is the bias

    @property
    def num_classes(self):
        return self.weights.shape[1]


@dataclass
class ToyClassifier:
    weights: np.ndarray  # (D+1,)


@dataclass
class ToyDiscriminator:
    weights: np.ndarray  # (3K+1,), over per-class mean/max/variance stats


@dataclass
class ToyModels:
    segmenter: ToySegmenter
    classifier: ToyClassifier
    discriminator: ToyDiscriminator


def init_models(feature_dim: int, num_classes: int, seed: int) -> ToyModels:
    rng = SplitMix64(seed)
    w2 = WEIGHT_INIT_SCALE * rng.spawn(11).normal((feature_dim + 1, num_classes))
    w1 = WEIGHT_INIT_SCALE * rng.spawn(12).normal((feature_dim + 1,))
    wd = WEIGHT_INIT_SCALE * rng.spawn(13).normal((3 * num_classes + 1,))
    return ToyModels(ToySegmenter(w2), ToyClassifier(w1), ToyDiscriminator(wd))


# ---------------------------------------------------------------------------
# features and forward passes


def pixel_features(img) -> np.ndarray:
    """Handcrafted per-pixel features, dim D = 2*channels + 2.

    Layout: per-channel intensity / 255, normalized row, normalized
    column, then per-channel 3x3 local mean (zero padded, fixed divisor
    9).
    """
    img = np.asarray(img)
    if img.ndim == 2:
        img = img[..., None]
    h, w, c = img.shape
    norm = img.astype(np.float64) / 255.0
    ys = (np.arange(h, dtype=np.float64) / max(h - 1, 1))[:, None]
    xs = (np.arange(w, dtype=np.float64) / max(w - 1, 1))[None, :]
    padded = np.zeros((h + 2, w + 2, c))
    padded[1:-1, 1:-1] = norm
    local = np.zeros((h, w, c))
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            local += padded[dy:dy + h, dx:dx + w]
    local /= 9.0
    feats = np.concatenate([
        norm,
        np.broadcast_to(ys, (h, w))[..., None],
        np.broadcast_to(xs, (h, w))[..., None],
        local,
    ], axis=2)
    return feats


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _check_feature_dim(seg: ToySegmenter, d: int):
    if d + 1 != seg.weights.shape[0]:
        raise DimensionMismatchError(
            f"feature dim {d} incompatible with weights {seg.weights.shape}")


def _class_major_probs(seg: ToySegmenter, feats_flat) -> np.ndarray:
    """(N, D) features -> (K, N) softmax probabilities.

    Class-major, so that every reduction over the K classes or over the
    pixels of one image runs along long contiguous rows.
    """
    z = seg.weights[:-1].T @ feats_flat.T
    z += seg.weights[-1][:, None]
    z -= z.max(axis=0)
    np.exp(z, out=z)
    z /= z.sum(axis=0)
    return z


def segmenter_forward(seg: ToySegmenter, feats) -> np.ndarray:
    """Per-pixel affine map + softmax -> (H, W, K) probability map (a
    transposed view of the class-major result)."""
    feats = np.asarray(feats, dtype=np.float64)
    h, w, d = feats.shape
    _check_feature_dim(seg, d)
    return _class_major_probs(seg, feats.reshape(h * w, d)).T.reshape(h, w, seg.num_classes)


def _map_stats(probs) -> np.ndarray:
    """(K, B, HW) class-major maps -> (B, 3K) discriminator inputs: per
    class the spatial mean, max and variance of each map."""
    return np.concatenate([probs.mean(axis=2), probs.max(axis=2), probs.var(axis=2)]).T


def refine_probs_by_classification(probs, lesion_prob) -> np.ndarray:
    """Scale every lesion-class channel by the image-level lesion
    probability and renormalize.  Toy, flag-gated approximation of the
    classification-probability refinement; applied at prediction time
    only, never inside the training loss path.  lesion_prob is a float
    or array broadcastable to (H, W, 1), e.g. one value per row of a
    tall map of stacked images.  Returns a channel-last view of a
    class-major copy, so the renormalizing sum runs over whole planes."""
    q = np.array(np.moveaxis(np.asarray(probs, dtype=np.float64), -1, 0))
    out = np.moveaxis(q, 0, -1)
    out[..., 1:] *= lesion_prob
    q /= q.sum(axis=0)
    return out


# ---------------------------------------------------------------------------
# batch forward / backward


def _domain_sum(per_image, image_n) -> float:
    """sum_i per_image[i] / image_n[i], added image by image in batch
    order, so a batch's loss depends only on its images' own terms."""
    return float(np.cumsum(per_image / image_n)[-1])


@dataclass
class ForwardState:
    """Losses, candidate banks, and the intermediates of backward_all.

    Image arrays hold the n_s source images first, then the target ones;
    pixel arrays are class-major over the images' stacked pixels.
    """
    losses: dict
    new_bank_s: CentroidBank
    new_bank_t: CentroidBank
    n_s: int
    image_n: np.ndarray  # (B,) size of each image's domain, n_s or n_t
    feats: np.ndarray    # (B*HW, D)
    probs: np.ndarray    # (K, B*HW) segmenter softmax
    pixel_w: np.ndarray  # (B*HW,) 1 / (HW * image_n) where labeled, else 0
    target: np.ndarray   # (K, B*HW) one-hot labels times pixel_w
    pooled: np.ndarray   # (B, D) classifier inputs
    labels: np.ndarray   # (B,) image-level labels
    cls: np.ndarray      # (B,) classifier outputs
    stats: np.ndarray    # (B, 3K) discriminator inputs; None without use_adv
    disc: np.ndarray     # (B,) discriminator outputs; None without use_adv
    srt_grads: tuple
    eta: float           # weights.eta, 0 without use_adv
    mu: float            # weights.mu, 0 without use_srt


def batch_forward(models: ToyModels, feats, masks, labels, pooled, n_s: int,
                  bank_s: CentroidBank, bank_t: CentroidBank, weights: LossWeights,
                  use_adv: bool = True, use_srt: bool = True) -> ForwardState:
    """Forward all images of one batch and assemble every loss term.

    The inputs are stacked along axis 0, the n_s source images first,
    then the target ones: feats (B, H, W, D), masks (B, H, W) uint16
    (pseudo labels on the target side), binary image-level labels (B,)
    and the mean-pooled feats (B, D).  Every loss is the mean over each
    domain's images of a per-image term.  Candidate banks are the old
    banks advanced by this batch's centroids; they are returned for the
    caller to commit after the gradient step.
    """
    k = models.segmenter.num_classes
    n_img, h, w, d = feats.shape
    n_t = n_img - n_s
    if np.shape(masks) != (n_img, h, w) or len(labels) != n_img or len(pooled) != n_img:
        raise DimensionMismatchError("a batch's masks, labels and pooled must match its feats")
    _check_feature_dim(models.segmenter, d)
    hw = h * w
    feats = feats.astype(np.float64, copy=False).reshape(n_img * hw, d)
    mask = masks.astype(np.uint16, copy=False).ravel()
    image_n = np.repeat([float(n_s), float(n_t)], [n_s, n_t])
    labels = np.asarray(labels, dtype=np.float64)

    w1 = models.classifier.weights
    cls = _sigmoid(pooled @ w1[:-1] + w1[-1])
    pc = np.clip(cls, PROB_CLAMP, 1.0 - PROB_CLAMP)
    l_c = _domain_sum(-(labels * np.log(pc) + (1.0 - labels) * np.log(1.0 - pc)), image_n)

    probs = _class_major_probs(models.segmenter, feats)

    # masked cross-entropy over each image's H*W pixels
    labeled = mask != IGNORE
    if np.any(labeled & (mask >= k)):
        raise DimensionMismatchError(f"label {int(mask[labeled].max())} >= num_classes {k}")
    onehot = mask == np.arange(k)[:, None]  # IGNORE matches no class
    per_image = labeled.reshape(n_img, hw)
    pixel_w = (per_image / (hw * image_n)[:, None]).ravel()
    target = onehot * pixel_w
    p_label = np.clip((probs * onehot).sum(axis=0), PROB_CLAMP, 1.0 - PROB_CLAMP)
    nll = (-np.log(p_label) * labeled).reshape(n_img, hw)
    l_s = _domain_sum((nll.sum(axis=1) - weights.lambda_global * per_image.sum(axis=1)) / hw,
                      image_n)

    # per-class sums of the softmax over labeled pixels, over H*W
    split = n_s * hw
    cent_s = target[:, :split] @ probs[:, :split].T
    cent_t = target[:, split:] @ probs[:, split:].T
    new_bank_s = update_bank(bank_s, BatchCentroids(cent_s, np.zeros(k, dtype=np.int64)))
    new_bank_t = update_bank(bank_t, BatchCentroids(cent_t, np.zeros(k, dtype=np.int64)))

    if use_srt:
        l_srt, grad_cs, grad_ct = srt_loss(new_bank_s, new_bank_t, weights.alpha)
    else:
        l_srt, grad_cs, grad_ct = 0.0, np.zeros((k, k)), np.zeros((k, k))

    stats = disc = None
    if use_adv:
        stats = _map_stats(probs.reshape(k, n_img, hw))
        wd = models.discriminator.weights
        disc = _sigmoid(stats @ wd[:-1] + wd[-1])
        l_adv, _ = adversarial_loss_for_segmenter(disc[n_s:])
        l_disc, _, _ = discriminator_loss(disc[:n_s], disc[n_s:])
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
        n_s=n_s, image_n=image_n, feats=feats, probs=probs, pixel_w=pixel_w,
        target=target, pooled=pooled, labels=labels, cls=cls, stats=stats,
        disc=disc, srt_grads=(grad_cs, grad_ct), eta=eta, mu=mu,
    )


def backward_all(models: ToyModels, state: ForwardState) -> dict:
    """Analytic gradients of the combined objective.

    Returns {"classifier", "segmenter", "discriminator"}: the classifier
    block carries d L_C, the segmenter block d (L_S + eta*L_adv +
    mu*L_SRT) with the discriminator frozen, and the discriminator block
    d L_disc with the segmenter outputs frozen -- the standard
    alternating scheme for the adversarial pair.
    """
    n_s, eta, mu = state.n_s, state.eta, state.mu
    probs, target = state.probs, state.target
    k, n_pix = probs.shape
    n_img = state.image_n.size
    n_t, hw = n_img - n_s, n_pix // n_img
    split = n_s * hw

    g_cls = (state.cls - state.labels) / state.image_n
    g_w1 = np.append(g_cls @ state.pooled, g_cls.sum())

    # d / d logits of the masked cross-entropy (softmax composite) ...
    g_z = probs * state.pixel_w - target
    # ... plus the terms that differentiate through the probabilities
    if mu != 0.0 or eta != 0.0:
        g_p = np.zeros((k, n_pix))
        if mu != 0.0:
            grad_cs, grad_ct = state.srt_grads
            g_p[:, :split] = mu * (grad_cs.T @ target[:, :split])
            g_p[:, split:] = mu * (grad_ct.T @ target[:, split:])
        if eta != 0.0:
            disc_w = models.discriminator.weights[:-1]
            w_mean = disc_w[0:k, None, None]
            w_max = disc_w[k:2 * k, None]
            w_var = disc_w[2 * k:3 * k, None, None]
            coef = (eta * state.disc[n_s:] / n_t)[None, :, None]  # (1, n_t, 1)
            p_t = probs.reshape(k, n_img, hw)[:, n_s:]
            g_t = g_p.reshape(k, n_img, hw)[:, n_s:]  # a view: writes land in g_p
            mean = state.stats[n_s:, :k].T[..., None]
            g_t += coef * (w_mean / hw)
            arg = p_t.argmax(axis=2)  # first maximum on ties, as np.argmax
            g_t[np.arange(k)[:, None], np.arange(n_t), arg] += coef[..., 0] * w_max
            g_t += coef * w_var * 2.0 * (p_t - mean) / hw
        g_z += probs * (g_p - (g_p * probs).sum(axis=0))

    g_w2 = np.vstack([state.feats.T @ g_z.T, g_z.sum(axis=1)])

    g_wd = np.zeros_like(models.discriminator.weights)
    if state.disc is not None:
        g_d = np.concatenate([state.disc[:n_s], state.disc[n_s:] - 1.0]) / state.image_n
        g_wd = np.append(g_d @ state.stats, g_d.sum())

    return {"classifier": g_w1, "segmenter": g_w2, "discriminator": g_wd}


# ---------------------------------------------------------------------------
# synthetic data


def _gen_image(rng: SplitMix64, size: int, num_classes: int,
               shift_b: float, shift_n: float):
    base = 70.0 + 40.0 * rng.uniform()
    a1 = -15.0 + 30.0 * rng.uniform()
    a2 = -15.0 + 30.0 * rng.uniform()
    yy, xx = np.meshgrid(np.arange(size) / size, np.arange(size) / size, indexing="ij")
    img = base + a1 * yy + a2 * xx + BACKGROUND_NOISE * rng.normal((size, size))
    mask = np.zeros((size, size), dtype=np.uint16)

    has_lesion = rng.uniform() < LESION_RATE
    if has_lesion:
        cls = rng.integers(1, num_classes) if num_classes > 2 else 1
        cy = (0.25 + 0.5 * rng.uniform()) * size
        cx = (0.25 + 0.5 * rng.uniform()) * size
        ry = size / 8.0 + (size / 8.0) * rng.uniform()
        rx = size / 8.0 + (size / 8.0) * rng.uniform()
        theta = np.pi * rng.uniform()
        level = 160.0 + 50.0 * rng.uniform() + 15.0 * (cls - 1)
        py, px = np.meshgrid(np.arange(size, dtype=np.float64),
                             np.arange(size, dtype=np.float64), indexing="ij")
        dy, dx = py - cy, px - cx
        u = dy * np.cos(theta) + dx * np.sin(theta)
        v = -dy * np.sin(theta) + dx * np.cos(theta)
        inside = (u / ry) ** 2 + (v / rx) ** 2 <= 1.0
        lesion_noise = BACKGROUND_NOISE * rng.normal((size, size))
        img = np.where(inside, level + lesion_noise, img)
        mask[inside] = cls

    img = img + shift_b + shift_n * rng.normal((size, size))
    img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return img, mask, int(has_lesion)


def _gen_domain(rng: SplitMix64, cfg: SynthConfig, count: int,
                shift_b: float, shift_n: float):
    images, masks, labels = [], [], []
    for _ in range(count):
        img, mask, label = _gen_image(rng, cfg.image_size, cfg.num_classes,
                                      shift_b, shift_n)
        images.append(img)
        masks.append(mask)
        labels.append(label)
    return images, masks, labels


def gen_synthetic(cfg: SynthConfig) -> dict:
    """Two-domain synthetic dataset.

    Source carries usable pixel masks; target masks are returned under
    "eval_masks" and must only ever be read by evaluation code.
    """
    root = SplitMix64(cfg.seed)
    s_img, s_mask, s_lab = _gen_domain(root.spawn(1), cfg, cfg.source_count, 0.0, 0.0)
    t_img, t_mask, t_lab = _gen_domain(root.spawn(2), cfg, cfg.target_count,
                                       cfg.shift_brightness, cfg.shift_noise)
    return {
        "source": {"images": s_img, "masks": s_mask, "image_labels": s_lab},
        "target": {"images": t_img, "image_labels": t_lab, "eval_masks": t_mask},
        "num_classes": cfg.num_classes,
    }


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    models: ToyModels
    bank_s: CentroidBank
    bank_t: CentroidBank
    log: list
    pseudo_masks: np.ndarray  # (N_t, H, W) uint16, the last epoch's pseudo labels


def _all_ignore(shape):
    return np.full(shape, IGNORE, dtype=np.uint16)


def _stack_features(images) -> np.ndarray:
    """pixel_features of every image, written in place into one
    (N, H, W, D) array."""
    first = pixel_features(images[0])
    feats = np.empty((len(images),) + first.shape)
    feats[0] = first
    for i in range(1, len(images)):
        f = pixel_features(images[i])
        if f.shape != first.shape:
            raise DimensionMismatchError(
                f"image {i} has shape {f.shape[:2]}, image 0 {first.shape[:2]}")
        feats[i] = f
    return feats


def _target_probs(models, tall_feats, pooled, refine):
    """Probability map of the target images, stacked into one tall
    (N*H, W, K) map, under the current weights."""
    probs = segmenter_forward(models.segmenter, tall_feats)
    if refine:
        w = models.classifier.weights
        preds = _sigmoid(pooled @ w[:-1] + w[-1])
        rows = tall_feats.shape[0] // pooled.shape[0]
        probs = refine_probs_by_classification(probs, np.repeat(preds, rows)[:, None, None])
    return probs


def _tall_superpixels(images, params) -> np.ndarray:
    """SLIC of each image, stacked into one tall map, with every image's
    IDs offset past those of the images above it, so that no superpixel
    spans two images."""
    maps = [slic(im, params) for im in images]
    offset = 0
    for m in maps:
        m += offset
        offset = int(m.max()) + 1
    return np.concatenate(maps)


def train(cfg: TrainConfig, data: dict) -> TrainResult:
    """Run the full curriculum on a gen_synthetic-style dataset.

    All images must share one size, and each domain's per-image lists
    must hold one entry per image.  Features, their mean-pooled
    classifier inputs, masks and image-level labels are each one array
    over all images, source first, built once; the target rows of the
    masks hold the current pseudo labels.  A step gathers its batch from
    these arrays by one index array.  The target images are handled as
    one tall (N*H, W) map: each epoch makes one forward, one threshold
    pass, one pseudo-label pass and one evaluation over all of them.
    """
    k = int(data["num_classes"])
    src, tgt = data["source"], data["target"]
    n_src, n_tgt = len(src["images"]), len(tgt["images"])
    if n_tgt == 0:
        raise EmptyInputError("training needs at least one target image")

    feats = _stack_features([*src["images"], *tgt["images"]])
    n_img, h, w, feature_dim = feats.shape
    for name, given, n in (("source", src["masks"], n_src),
                           ("target eval", tgt["eval_masks"], n_tgt)):
        if len(given) != n or any(np.shape(m) != (h, w) for m in given):
            raise DimensionMismatchError(f"every {name} image needs a mask of its size")
    if len(src["image_labels"]) != n_src or len(tgt["image_labels"]) != n_tgt:
        raise DimensionMismatchError("every image needs one image-level label")
    pooled = feats.reshape(n_img, -1, feature_dim).mean(axis=1)
    tgt_tall, tgt_pooled = feats[n_src:].reshape(n_tgt * h, w, feature_dim), pooled[n_src:]
    eval_tall = np.concatenate(tgt["eval_masks"])
    labels = np.array([*src["image_labels"], *tgt["image_labels"]], dtype=np.float64)
    masks = _all_ignore((n_img, h, w))
    masks[:n_src] = src["masks"]
    pseudo_tall = masks[n_src:].reshape(n_tgt * h, w)  # a view: writes land in masks

    models = init_models(feature_dim, k, cfg.seed)
    rng = SplitMix64(cfg.seed).spawn(100)

    sp_tall = probs_t = None
    if cfg.use_pl:
        # images never change, so the spatial priors are computed once
        sp_tall = _tall_superpixels(tgt["images"], cfg.slic)
        probs_t = _target_probs(models, tgt_tall, tgt_pooled, cfg.refine_by_classification)
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
            state = batch_forward(models, feats[idx], masks[idx], labels[idx], pooled[idx],
                                  len(sel_s), bank_s, bank_t, cfg.weights,
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

        del probs_t  # free the last maps before the forward allocates new ones
        probs_t = _target_probs(models, tgt_tall, tgt_pooled, cfg.refine_by_classification)
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


# ---------------------------------------------------------------------------
# gradient checking


def _fd_grad(f, x, step=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f()
        x[idx] = orig - step
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * step)
        it.iternext()
    return g


def _rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def gradcheck(seed: int = 0) -> dict:
    """Compare backward_all against central finite differences on a small
    random instance.  Returns max relative error per parameter block."""
    synth = SynthConfig(image_size=GRADCHECK_SIZE, num_classes=2,
                        source_count=GRADCHECK_IMAGES, target_count=GRADCHECK_IMAGES,
                        seed=seed)
    data = gen_synthetic(synth)
    k = 2
    rng = SplitMix64(seed).spawn(999)

    feats = _stack_features([*data["source"]["images"], *data["target"]["images"]])
    dim = feats.shape[3]
    models = init_models(dim, k, seed + 1)
    models.segmenter.weights += 0.2 * rng.normal(models.segmenter.weights.shape)
    models.classifier.weights += 0.2 * rng.normal(models.classifier.weights.shape)
    models.discriminator.weights += 0.2 * rng.normal(models.discriminator.weights.shape)

    # fixed pseudo masks with some IGNORE pixels
    masks = _all_ignore(feats.shape[:3])
    masks[:GRADCHECK_IMAGES] = data["source"]["masks"]
    for m in masks[GRADCHECK_IMAGES:]:
        raw = rng.integers(0, k + 1, (GRADCHECK_SIZE, GRADCHECK_SIZE))
        m[:] = np.where(raw == k, IGNORE, raw)

    weights = LossWeights(eta=0.3, mu=10.0, alpha=1.0, lambda_global=0.1)
    bank_s = CentroidBank(num_classes=k, dim=k, gamma=0.7,
                          centroids=rng.normal((k, k)), steps=3)
    bank_t = CentroidBank(num_classes=k, dim=k, gamma=0.7,
                          centroids=rng.normal((k, k)), steps=3)
    labels = np.array([*data["source"]["image_labels"], *data["target"]["image_labels"]])
    batch = (feats, masks, labels, feats.reshape(len(feats), -1, dim).mean(axis=1),
             GRADCHECK_IMAGES)

    def fwd():
        return batch_forward(models, *batch, bank_s, bank_t, weights)

    grads = backward_all(models, fwd())
    fd_cls = _fd_grad(lambda: fwd().losses["L_C"], models.classifier.weights)
    fd_seg = _fd_grad(
        lambda: (lambda s: s.losses["L_S"] + weights.eta * s.losses["L_D"]
                 + weights.mu * s.losses["L_SRT"])(fwd()),
        models.segmenter.weights)
    fd_disc = _fd_grad(lambda: fwd().losses["L_disc"], models.discriminator.weights)

    report = {
        "classifier": _rel_err(grads["classifier"], fd_cls),
        "segmenter": _rel_err(grads["segmenter"], fd_seg),
        "discriminator": _rel_err(grads["discriminator"], fd_disc),
    }
    report["max"] = max(report.values())
    return report
