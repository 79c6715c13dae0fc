"""Desk-scale two-domain training loop with hand-written gradients.

Three tiny models stand in for the full architecture: a per-pixel affine
softmax segmenter over handcrafted pixel features, a logistic classifier
over mean-pooled features, and a logistic domain discriminator over
pooled statistics of the segmentation softmax map.  The loop runs the
full curriculum: per-epoch class-balance thresholds, superpixel-refined
pseudo labels, exponentially-weighted centroid alignment (computed on
the softmax outputs, the toy analog of penultimate features), and
output-space adversarial alignment.  The models are plain weight
arrays, each with its bias last, held by one `ToyModels` named tuple;
`backward_all` returns the gradients as a `ToyModels` too.

A training step takes one layout: arrays stacked along axis 0, the
source images first, then the target ones -- pixel features
(B, H, W, D), masks (B, H, W), image-level labels (B,) and mean-pooled
features (B, D).  `train` keeps the images as one (N, H, W, C) uint8
stack, and the masks, labels and pooled features as one array each over
all images; it gathers every batch from them by one index array and
builds the batch's pixel features from its images, since they are a
pure function of them.  No array holds every image's features, nor
every target image's probability map: each pass over the target images
forwards them in blocks of whole images, at most _BLOCK_PIXELS pixels
each, and hands each block to the evaluation, the threshold values and
the pseudo labels before the next is built.  With pseudo labels an
epoch makes two such passes, one without.

Gradients flow into the alignment loss only through the newest batch
centroid (weight gamma^0 = 1); the accumulated history is a constant
buffer, so backpropagation never unrolls across steps.
"""

import mmap
import os
import signal
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import IGNORE, _first_max
from .errors import (DimensionMismatchError, EmptyInputError, InvalidConfigError,
                     OutOfRangeError)
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
from .thresholds import _BLOCK_PIXELS, ClassValues, CurriculumSchedule, portion_at
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


class ToyModels(NamedTuple):
    """The weights of the three toy models, each with its bias last."""
    segmenter: np.ndarray      # (D+1, K)
    classifier: np.ndarray     # (D+1,), over mean-pooled features
    discriminator: np.ndarray  # (3K+1,), over per-class mean/max/variance stats


def init_models(feature_dim: int, num_classes: int, seed: int) -> ToyModels:
    rng = SplitMix64(seed)
    w2 = WEIGHT_INIT_SCALE * rng.spawn(11).normal((feature_dim + 1, num_classes))
    w1 = WEIGHT_INIT_SCALE * rng.spawn(12).normal((feature_dim + 1,))
    wd = WEIGHT_INIT_SCALE * rng.spawn(13).normal((3 * num_classes + 1,))
    return ToyModels(w2, w1, wd)


# ---------------------------------------------------------------------------
# features and forward passes


def _block_images(h: int, w: int) -> int:
    """Whole (H, W) images per block of at most _BLOCK_PIXELS pixels, at least 1."""
    return max(1, _BLOCK_PIXELS // (h * w))


class _FeatureBuilder:
    """Pixel features of up to `capacity` images of one (H, W, C) shape,
    built into buffers that every call reuses: a call's result is
    overwritten by the next call.

    Feature layout, dim D = 2*C + 2: per-channel intensity / 255,
    normalized row, normalized column, then per-channel 3x3 local mean
    (zero padded, fixed divisor 9).  The images lie on one flat zero
    canvas, each row followed by a zero column and each image by a zero
    row, so each of the nine 3x3 terms is one shifted slice of it; the
    coordinate channels are written once.
    """

    def __init__(self, capacity: int, h: int, w: int, c: int):
        self.shape = (h, w, c)
        row = w + 1
        size = capacity * (h + 1) * row  # canvas entries of `capacity` images
        # a zero row above the first image, and slack for the corner shifts
        self.canvas = np.zeros((size + 2 * row + 2, c))
        self.grid = self.canvas[row + 1:row + 1 + size].reshape(capacity, h + 1, row, c)
        self.local = np.empty((size, c))
        # where each (dy, dx) term starts on the canvas
        self.shifts = [dy * row + dx for dy in (0, 1, 2) for dx in (0, 1, 2)]
        self.out = np.empty((capacity, h, w, 2 * c + 2))
        self.out[..., c] = (np.arange(h, dtype=np.float64) / max(h - 1, 1))[:, None]
        self.out[..., c + 1] = np.arange(w, dtype=np.float64) / max(w - 1, 1)

    def __call__(self, images) -> np.ndarray:
        """(B, H, W, C) images, B <= capacity -> (B, H, W, D) float64."""
        b = len(images)
        h, w, c = self.shape
        norm = self.grid[:b, :h, :w]
        np.divide(images, 255.0, out=norm, dtype=np.float64)
        n = b * (h + 1) * (w + 1)
        s = self.shifts
        local = self.local[:n]
        # the nine terms are added in (dy, dx) order, starting from the first
        np.add(self.canvas[s[0]:s[0] + n], self.canvas[s[1]:s[1] + n], out=local)
        for o in s[2:]:
            local += self.canvas[o:o + n]
        local /= 9.0
        out = self.out[:b]
        out[..., :c] = norm
        out[..., c + 2:] = local.reshape(b, h + 1, w + 1, c)[:, :h, :w]
        return out


def stack_features(images) -> np.ndarray:
    """Pixel features of a (B, H, W, C) image stack -> (B, H, W, 2C+2)
    float64; see _FeatureBuilder for the layout."""
    images = np.asarray(images)
    return _FeatureBuilder(*images.shape)(images)


def pixel_features(img) -> np.ndarray:
    """Pixel features of one (H, W) or (H, W, C) image -> (H, W, 2C+2)."""
    img = np.asarray(img)
    if img.ndim == 2:
        img = img[..., None]
    return stack_features(img[None])[0]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _logistic(x, w) -> np.ndarray:
    """Logistic regression with weights w, bias last, over the rows of x."""
    return _sigmoid(x @ w[:-1] + w[-1])


def _check_feature_dim(seg, d: int):
    if d + 1 != seg.shape[0]:
        raise DimensionMismatchError(f"feature dim {d} incompatible with weights {seg.shape}")


def _class_major_probs(seg, feats_flat) -> np.ndarray:
    """(N, D) features -> (K, N) softmax probabilities.

    Class-major, so that every reduction over the K classes or over the
    pixels of one image runs along long contiguous rows.
    """
    z = seg[:-1].T @ feats_flat.T
    z += seg[-1][:, None]
    z -= z.max(axis=0)
    np.exp(z, out=z)
    z /= z.sum(axis=0)
    return z


def segmenter_forward(seg, feats) -> np.ndarray:
    """Per-pixel affine map with (D+1, K) weights seg + softmax -> (H, W,
    K) probability map (a transposed view of the class-major result)."""
    feats = np.asarray(feats, dtype=np.float64)
    h, w, d = feats.shape
    _check_feature_dim(seg, d)
    return _class_major_probs(seg, feats.reshape(h * w, d)).T.reshape(h, w, seg.shape[1])


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
    k = models.segmenter.shape[1]
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

    cls = _logistic(pooled, models.classifier)
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
        disc = _logistic(stats, models.discriminator)
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


def backward_all(models: ToyModels, state: ForwardState) -> ToyModels:
    """Analytic gradients of the combined objective.

    Returns them as a ToyModels: the classifier block carries d L_C,
    the segmenter block d (L_S + eta*L_adv + mu*L_SRT) with the
    discriminator frozen, and the discriminator block d L_disc with the
    segmenter outputs frozen -- the standard alternating scheme for the
    adversarial pair.
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
            disc_w = models.discriminator[:-1]
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

    g_wd = np.zeros_like(models.discriminator)
    if state.disc is not None:
        g_d = np.concatenate([state.disc[:n_s], state.disc[n_s:] - 1.0]) / state.image_n
        g_wd = np.append(g_d @ state.stats, g_d.sum())

    return ToyModels(g_w2, g_w1, g_wd)


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


def _stack_inputs(data):
    """Check a gen_synthetic-style dataset and stack its step inputs along
    axis 0, the source images first: images (N, H, W, C) in their own
    dtype (uint8 in practice), masks (N, H, W) whose target rows are all
    IGNORE, image-level labels (N,) and mean-pooled pixel features (N, D),
    built a block of images at a time."""
    src, tgt = data["source"], data["target"]
    n_src, n_tgt = len(src["images"]), len(tgt["images"])
    if n_src == 0 or n_tgt == 0:
        raise EmptyInputError("training needs at least one source and one target image")
    images = [np.asarray(im) for im in (*src["images"], *tgt["images"])]
    images = [im[..., None] if im.ndim == 2 else im for im in images]
    for i, im in enumerate(images):
        if im.shape != images[0].shape:
            raise DimensionMismatchError(
                f"image {i} has shape {im.shape}, image 0 {images[0].shape}")
    images = np.stack(images)
    n_img, h, w, c = images.shape
    for name, given, n in (("source", src["masks"], n_src),
                           ("target eval", tgt["eval_masks"], n_tgt)):
        if len(given) != n or any(np.shape(m) != (h, w) for m in given):
            raise DimensionMismatchError(f"every {name} image needs a mask of its size")
    if len(src["image_labels"]) != n_src or len(tgt["image_labels"]) != n_tgt:
        raise DimensionMismatchError("every image needs one image-level label")
    labels = [*src["image_labels"], *tgt["image_labels"]]
    for y in labels:
        # True, "1" and 0.5 would pass a float conversion
        if isinstance(y, bool) or not isinstance(y, (int, np.integer)) or y not in (0, 1):
            raise OutOfRangeError(f"image-level label {y!r} is not the integer 0 or 1")
    masks = _all_ignore((n_img, h, w))
    masks[:n_src] = src["masks"]
    block = _block_images(h, w)
    features = _FeatureBuilder(min(block, n_img), h, w, c)
    pooled = np.empty((n_img, 2 * c + 2))
    for i in range(0, n_img, block):
        feats = features(images[i:i + block])
        pooled[i:i + block] = feats.reshape(len(feats), h * w, -1).mean(axis=1)
    return images, masks, np.array(labels, dtype=np.float64), pooled


def _target_blocks(models, images, pooled, refine, features):
    """Forward the target images under the current weights in blocks of
    whole images, featurised by `features`.  Yields, for each block, the
    slice of the images it holds and their probability maps stacked into
    one tall (B*H, W, K) map, a transposed view of a class-major array."""
    n, h, w = images.shape[:3]
    if refine:
        preds = _logistic(pooled, models.classifier)
    block = _block_images(h, w)
    for i in range(0, n, block):
        feats = features(images[i:i + block])
        b = len(feats)
        p = segmenter_forward(models.segmenter, feats.reshape(b * h, w, -1))
        if refine:
            p = refine_probs_by_classification(p, np.repeat(preds[i:i + b], h)[:, None, None])
        yield slice(i, i + b), p


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where it cannot say (as where it cannot fork)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _tall_superpixels(images, params) -> np.ndarray:
    """SLIC of each image, stacked into one tall map, with every image's
    IDs offset past those of the images above it, so that no superpixel
    spans two images.

    The images are split into contiguous ranges, one per CPU and at most
    one per image.  This process runs the first; each other runs in a
    forked child that writes its maps into a shared mmap made before the
    fork.  A range whose child did not exit 0 is run again here, so its
    error surfaces as in a serial run.  No map depends on the split.
    """
    n = len(images)
    h, w = np.shape(images[0])[:2]
    maps = np.frombuffer(mmap.mmap(-1, max(1, n * h * w * 4)), dtype=np.int32,
                         count=n * h * w).reshape(n, h, w)
    ranges = np.array_split(np.arange(n), max(1, min(n, _cpu_count())))

    def fill(r):
        for i in ranges[r]:
            maps[i] = slic(images[i], params)

    children, failed = {}, []
    try:
        for r in range(1, len(ranges)):
            pid = os.fork()
            if pid == 0:
                # never return into the caller, nor flush its stdio buffers
                try:
                    fill(r)
                    os._exit(0)
                finally:
                    os._exit(1)
            children[pid] = r
        fill(0)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, r in children.items():
            if os.waitpid(pid, 0)[1] != 0:
                failed.append(r)
    for r in failed:
        fill(r)
    maps[1:] += np.cumsum(maps.max(axis=(1, 2)) + 1)[:-1, None, None]
    return maps.reshape(n * h, w)


def _scan_targets(models, target_pass, p=None, cm=None, eval_masks=None):
    """Forward the target images and read every block's per-pixel argmax
    and maximum: with a portion p, gather them per class and return the
    thresholds they give at p (else None); with a confusion matrix cm,
    add the argmax against the block's eval masks to it."""
    n, h, w = target_pass[0].shape[:3]
    values = None if p is None else ClassValues(models.segmenter.shape[1], n * h * w)
    for s, probs in _target_blocks(models, *target_pass):
        pred, confid = _first_max(np.moveaxis(probs, -1, 0))
        if cm is not None:
            accumulate(cm, pred, np.concatenate(eval_masks[s]))
        if values is not None:
            values.add(pred, confid)
    return None if values is None else values.lambdas(p)


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
    the batch's features from its images.  Nor does any array hold every
    target image's probability map: each pass over the target images
    forwards them in blocks of whole images and hands each block to its
    consumers before building the next.  The evaluation pass ending an
    epoch feeds the confusion matrix and, but for the last epoch, the
    values of the next epoch's thresholds; with pseudo labels, each epoch
    opens with a pass that labels every block under those thresholds, the
    same weights giving the same bits, and an initial pass gathers the
    first epoch's values.  The superpixel maps are made once, by one
    process per CPU this one may use (see _tall_superpixels).  Blocks
    hold whole images and no superpixel spans two, so every output equals
    that of one pass over all target images at once.
    """
    k = int(data["num_classes"])
    tgt = data["target"]
    images, masks, labels, pooled = _stack_inputs(data)
    n_img, h, w, c = images.shape
    n_tgt = len(tgt["images"])
    n_src = n_img - n_tgt
    pseudo = masks[n_src:]  # a view: writes land in masks
    # one buffer serves every batch and every block of the target pass
    features = _FeatureBuilder(max(2 * min(cfg.batch_size, n_src),
                                   min(_block_images(h, w), n_tgt)), h, w, c)
    target_pass = (images[n_src:], pooled[n_src:], cfg.refine_by_classification, features)

    models = init_models(pooled.shape[1], k, cfg.seed)
    rng = SplitMix64(cfg.seed).spawn(100)

    if cfg.use_pl:
        # images never change, so the spatial priors are computed once
        sp = _tall_superpixels(tgt["images"], cfg.slic).reshape(n_tgt, h, w)
        negative = (labels[n_src:] == 0)[:, None, None]

    bank_s = CentroidBank(num_classes=k, dim=k, gamma=cfg.gamma)
    bank_t = CentroidBank(num_classes=k, dim=k, gamma=cfg.gamma)

    step = 0
    log = []

    for epoch in range(cfg.epochs):
        p = portion_at(cfg.schedule, epoch)

        n_labelled = 0
        if cfg.use_pl:
            if epoch == 0:
                thr = _scan_targets(models, target_pass, p)
            for s, probs in _target_blocks(models, *target_pass):
                block = generate(probs, thr, sp[s].reshape(-1, w)).reshape(-1, h, w)
                if cfg.gate_by_image_label:
                    # images labelled healthy keep no lesion pixel (IGNORE >= 1 too)
                    block[negative[s] & (block >= 1)] = IGNORE
                pseudo[s] = block
                n_labelled += np.count_nonzero(block != IGNORE)
        pl_fraction = n_labelled / float(pseudo.size)

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
            # the features live in a reused buffer: state is spent before the next build
            state = batch_forward(models, features(images[idx]), masks[idx], labels[idx],
                                  pooled[idx], len(sel_s), bank_s, bank_t, cfg.weights,
                                  use_adv=cfg.use_adv, use_srt=cfg.use_srt)
            grads = backward_all(models, state)

            lr = cfg.learning_rate * cfg.lr_decay_rate ** (step // cfg.lr_decay_step)
            last_lr = lr
            # without use_adv the discriminator's gradient is exactly zero
            models = ToyModels(*(w - lr * g for w, g in zip(models, grads)))
            bank_s, bank_t = state.new_bank_s, state.new_bank_t
            step += 1
            n_batches += 1
            for key in sums:
                sums[key] += state.losses[key]

        # the evaluation pass also reads the next epoch's thresholds: no
        # step comes between it and the next pseudo-label pass
        p_next = (portion_at(cfg.schedule, epoch + 1)
                  if cfg.use_pl and epoch + 1 < cfg.epochs else None)
        cm = ConfusionMatrix(k)
        thr = _scan_targets(models, target_pass, p_next, cm, tgt["eval_masks"])
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

    images, masks, labels, pooled = _stack_inputs(data)
    feats = stack_features(images)
    models = init_models(feats.shape[3], k, seed + 1)
    for w in models:
        w += 0.2 * rng.normal(w.shape)

    # fixed pseudo masks with some IGNORE pixels
    for m in masks[GRADCHECK_IMAGES:]:
        raw = rng.integers(0, k + 1, (GRADCHECK_SIZE, GRADCHECK_SIZE))
        m[:] = np.where(raw == k, IGNORE, raw)

    weights = LossWeights(eta=0.3, mu=10.0, alpha=1.0, lambda_global=0.1)
    bank_s = CentroidBank(num_classes=k, dim=k, gamma=0.7,
                          centroids=rng.normal((k, k)), steps=3)
    bank_t = CentroidBank(num_classes=k, dim=k, gamma=0.7,
                          centroids=rng.normal((k, k)), steps=3)
    batch = (feats, masks, labels, pooled, GRADCHECK_IMAGES)

    def fwd():
        return batch_forward(models, *batch, bank_s, bank_t, weights)

    grads = backward_all(models, fwd())
    fd_cls = _fd_grad(lambda: fwd().losses["L_C"], models.classifier)
    fd_seg = _fd_grad(
        lambda: (lambda s: s.losses["L_S"] + weights.eta * s.losses["L_D"]
                 + weights.mu * s.losses["L_SRT"])(fwd()),
        models.segmenter)
    fd_disc = _fd_grad(lambda: fwd().losses["L_disc"], models.discriminator)

    report = {
        "classifier": _rel_err(grads.classifier, fd_cls),
        "segmenter": _rel_err(grads.segmenter, fd_seg),
        "discriminator": _rel_err(grads.discriminator, fd_disc),
    }
    report["max"] = max(report.values())
    return report
