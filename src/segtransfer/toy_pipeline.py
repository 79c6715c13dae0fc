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
`batch_forward` runs a training step and returns the gradients as a
`ToyModels` too.

A training step takes one layout: arrays stacked along axis 0, the
source images first, then the target ones -- pixel features
(B, H, W, D), masks (B, H, W), image-level labels (B,) and mean-pooled
features (B, D).  The data takes one form too, from `stack_dataset` on:
each domain's images, masks (eval masks on the target side) and labels
are one array each along axis 0, the images (N, H, W, C) uint8.  `train`
adds each domain's pooled features and an (N_t, H, W) array of pseudo
labels, gathers each batch's rows into buffers of the run and builds the
batch's pixel features from its images, since they are a pure function
of them.  No array holds every image's features, nor every target
image's probability map: each pass over the target images forwards them
in blocks of whole images, at most _BLOCK_PIXELS pixels each, and hands
each block to the evaluation, the threshold values and the pseudo labels
before the next is built.  With pseudo labels an epoch makes two such
passes, one without.

A step forwards only the images that can carry a pixel gradient: the
segmentation loss and the centroids read labelled pixels only, and only
ADV reads every target pixel.  So with ADV off, a target image whose
mask is all IGNORE adds exactly zero to every loss and gradient but the
classifier's, and a step forwards its target rows only if one of their
masks holds a label.  Leaving out only that trailing block keeps every
sum's terms in place, so the outputs keep their bits.

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
)
from .metrics import ConfusionMatrix, accumulate, summary
from .pseudo_label import NeighbourBits, generate, neighbour_bits
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


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _logistic(x, w) -> np.ndarray:
    """Logistic regression with weights w, bias last, over the rows of x."""
    return _sigmoid(x @ w[:-1] + w[-1])


def _check_feature_dim(seg, d: int):
    if d + 1 != seg.shape[0]:
        raise DimensionMismatchError(f"feature dim {d} incompatible with weights {seg.shape}")


def _class_major_probs(seg, feats_flat, out=None, col=None) -> np.ndarray:
    """(N, D) features -> (K, N) softmax probabilities, into `out` if
    given, with `col` an (N,) scratch row if given.

    Class-major, so that every reduction over the K classes or over the
    pixels of one image runs along long contiguous rows.
    """
    z = np.matmul(seg[:-1].T, feats_flat.T, out=out)
    z += seg[-1][:, None]
    z -= np.max(z, axis=0, out=col)
    np.exp(z, out=z)
    z /= np.sum(z, axis=0, out=col)
    return z


def segmenter_forward(seg, feats, work=None) -> np.ndarray:
    """Per-pixel affine map with (D+1, K) weights seg + softmax -> (H, W,
    K) probability map (a transposed view of the class-major result),
    written into the step buffers `work` if given."""
    feats = np.asarray(feats, dtype=np.float64)
    h, w, d = feats.shape
    _check_feature_dim(seg, d)
    out, col = (None, None) if work is None else (work[0][:, :h * w], work[6][:h * w])
    return _class_major_probs(seg, feats.reshape(h * w, d), out, col).T.reshape(h, w, -1)


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
# the training step


def _domain_sum(per_image, image_n) -> float:
    """sum_i per_image[i] / image_n[i], added image by image in batch
    order, so a batch's loss depends only on its images' own terms."""
    return float(np.cumsum(per_image / image_n)[-1])


def _step_buffers(k: int, n_pix: int) -> tuple:
    """A run's per-pixel step arrays for up to n_pix pixels: probs, target,
    g_z, g_p and onehot (K, n_pix), pixel_w, col and labeled (n_pix,)."""
    return (*np.empty((4, k, n_pix)), np.empty((k, n_pix), bool),
            *np.empty((2, n_pix)), np.empty(n_pix, bool))


def batch_forward(models: ToyModels, feats, masks, labels, pooled, n_s: int,
                  bank_s: CentroidBank, bank_t: CentroidBank, weights: LossWeights,
                  use_adv: bool = True, use_srt: bool = True, work: tuple = None):
    """One training step: every loss, the candidate banks and the gradients.

    The inputs are stacked along axis 0, the n_s source images first:
    binary image-level labels (B,) and mean-pooled features (B, D) of all
    B images, pixel features (B_f, H, W, D) and masks (B_f, H, W) uint16
    (pseudo labels on the target side) of the first B_f.  B_f is B, or
    n_s when use_adv is off and every target mask is all IGNORE, as such
    images add exactly zero to every term but L_C.  Each loss is the mean
    over each domain's images of a per-image term.  Returns (losses,
    new_bank_s, new_bank_t, grads): the old banks advanced by this batch's
    centroids, for the caller to commit after the gradient step, and a
    ToyModels of d L_C, d (L_S + eta*L_adv + mu*L_SRT) with the
    discriminator frozen, and d L_disc with the segmenter outputs frozen.
    The per-pixel arrays live in `work` (from _step_buffers if None).
    """
    seg, k = models.segmenter, models.segmenter.shape[1]
    n_img = len(labels)
    n_f, h, w, d = feats.shape
    n_t = n_img - n_s
    if (np.shape(masks) != (n_f, h, w) or len(pooled) != n_img
            or n_f != n_img and (n_f != n_s or use_adv)):
        raise DimensionMismatchError("a batch's masks, labels and pooled must match its feats")
    _check_feature_dim(seg, d)
    hw, n_pix, split = h * w, n_f * h * w, n_s * h * w
    work = work or _step_buffers(k, n_img * hw)
    probs, target, g_z, g_p, onehot, pixel_w, col, labeled = (a[..., :n_pix] for a in work)
    # the bias gradient sums g_z over all B images' pixels, so that its
    # pairwise sum pairs the terms as if no image were left out
    g_z_all = work[2][:, :n_img * hw]
    feats = feats.astype(np.float64, copy=False).reshape(n_pix, d)
    mask = masks.astype(np.uint16, copy=False).reshape(n_pix)
    image_n = np.repeat([float(n_s), float(n_t)], [n_s, n_t])
    labels = np.asarray(labels, dtype=np.float64)

    cls = _logistic(pooled, models.classifier)
    pc = np.clip(cls, PROB_CLAMP, 1.0 - PROB_CLAMP)
    l_c = _domain_sum(-(labels * np.log(pc) + (1.0 - labels) * np.log(1.0 - pc)), image_n)

    _class_major_probs(seg, feats, probs, col)

    # masked cross-entropy over each image's H*W pixels
    np.not_equal(mask, IGNORE, out=labeled)
    np.equal(mask, np.arange(k, dtype=np.uint16)[:, None], out=onehot)  # IGNORE: no class
    per_image = labeled.reshape(n_f, hw)
    n_labeled = per_image.sum(axis=1)
    if np.count_nonzero(onehot) != n_labeled.sum():  # a labeled pixel of no class
        raise DimensionMismatchError(f"label {int(mask[labeled].max())} >= num_classes {k}")
    np.divide(per_image, (hw * image_n[:n_f])[:, None], out=pixel_w.reshape(n_f, hw))
    np.multiply(onehot, pixel_w, out=target)
    nll = np.sum(np.multiply(probs, onehot, out=g_z), axis=0, out=col)  # p of the label
    np.negative(np.log(np.clip(nll, PROB_CLAMP, 1.0 - PROB_CLAMP, out=nll), out=nll), out=nll)
    nll *= labeled
    # an image left out adds the 0.0 of an all-IGNORE mask
    l_s = np.zeros(n_img)
    l_s[:n_f] = (nll.reshape(n_f, hw).sum(axis=1) - weights.lambda_global * n_labeled) / hw
    l_s = _domain_sum(l_s, image_n)

    # per-class sums of the softmax over labeled pixels, over H*W; with
    # the target images left out, the target sum is over no pixel: zero
    cent_s = target[:, :split] @ probs[:, :split].T
    cent_t = target[:, split:] @ probs[:, split:].T
    new_bank_s = update_bank(bank_s, BatchCentroids(cent_s, np.zeros(k, dtype=np.int64)))
    new_bank_t = update_bank(bank_t, BatchCentroids(cent_t, np.zeros(k, dtype=np.int64)))

    l_srt, grad_cs, grad_ct = (srt_loss(new_bank_s, new_bank_t, weights.alpha) if use_srt
                               else (0.0, None, None))
    l_adv = l_disc = 0.0
    if use_adv:
        # per class the spatial mean, max and variance of each image's map
        p3 = probs.reshape(k, n_img, hw)
        mean = p3.sum(axis=2) / hw
        dev = np.subtract(p3, mean[..., None], out=g_z.reshape(k, n_img, hw))
        var = np.square(dev, out=g_p.reshape(k, n_img, hw)).sum(axis=2) / hw
        stats = np.concatenate([mean, p3.max(axis=2), var]).T
        disc = _logistic(stats, models.discriminator)
        l_adv, _ = adversarial_loss_for_segmenter(disc[n_s:])
        l_disc, _, _ = discriminator_loss(disc[:n_s], disc[n_s:])

    eta = weights.eta if use_adv else 0.0
    mu = weights.mu if use_srt else 0.0
    losses = {"L_C": l_c, "L_S": l_s, "L_D": l_adv, "L_SRT": l_srt, "L_disc": l_disc,
              "total": l_c + l_s + eta * l_adv + mu * l_srt}

    g_cls = (cls - labels) / image_n
    g_w1 = np.concatenate([g_cls @ pooled, [g_cls.sum()]])

    # d / d probabilities of the terms that differentiate through them
    if mu != 0.0:
        np.matmul(grad_cs.T, target[:, :split], out=g_p[:, :split])
        np.matmul(grad_ct.T, target[:, split:], out=g_p[:, split:])
        g_p *= mu
    elif eta != 0.0:
        g_p.fill(0.0)
    if eta != 0.0:
        disc_w = models.discriminator[:-1]
        w_mean = disc_w[0:k, None, None]
        w_max = disc_w[k:2 * k, None]
        w_var = disc_w[2 * k:3 * k, None, None]
        coef = (eta * disc[n_s:] / n_t)[None, :, None]  # (1, n_t, 1)
        p_t = p3[:, n_s:]
        g_t = g_p.reshape(k, n_img, hw)[:, n_s:]  # a view: writes land in g_p
        dev_t = dev[:, n_s:]  # p_t minus its spatial mean
        g_t += coef * (w_mean / hw)
        arg = p_t.argmax(axis=2)  # first maximum on ties, as np.argmax
        g_t[np.arange(k)[:, None], np.arange(n_t), arg] += coef[..., 0] * w_max
        dev_t *= coef * w_var * 2.0
        dev_t /= hw
        g_t += dev_t
    # d / d logits of the masked cross-entropy (softmax composite) ...
    np.multiply(probs, pixel_w, out=g_z)
    g_z -= target
    # ... plus the softmax Jacobian applied to g_p
    if mu != 0.0 or eta != 0.0:
        g_p -= np.sum(np.multiply(g_p, probs, out=target), axis=0, out=col)
        g_p *= probs
        g_z += g_p

    g_z_all[:, n_pix:] = 0.0  # the terms of the images left out
    g_w2 = np.concatenate([feats.T @ g_z.T, g_z_all.sum(axis=1)[None]])

    g_wd = np.zeros_like(models.discriminator)
    if use_adv:
        g_d = np.concatenate([disc[:n_s], disc[n_s:] - 1.0]) / image_n
        g_wd = np.append(g_d @ stats, g_d.sum())

    return losses, new_bank_s, new_bank_t, ToyModels(g_w2, g_w1, g_wd)


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


def stack_dataset(data) -> dict:
    """Check a gen_synthetic-style dataset and return its schema with each
    domain stacked once along axis 0: images (N, H, W, C) (uint8 in
    practice), masks or eval masks (N, H, W) uint16 and image-level labels
    (N,), each the integer 0 or 1.  Stacked entries pass uncopied."""
    if len(data["source"]["images"]) == 0 or len(data["target"]["images"]) == 0:
        raise EmptyInputError("training needs at least one source and one target image")
    out, shape = {"num_classes": data["num_classes"]}, None
    for domain, mask_key in (("source", "masks"), ("target", "eval_masks")):
        part = data[domain]
        images = [np.asarray(im) for im in part["images"]]
        images = [im[..., None] if im.ndim == 2 else im for im in images]
        shape = shape or images[0].shape
        for i, im in enumerate(images):
            if im.shape != shape:
                raise DimensionMismatchError(
                    f"{domain} image {i} has shape {im.shape}, not {shape}")
        n, masks, labels = len(images), part[mask_key], part["image_labels"]
        if len(masks) != n or any(np.shape(m) != shape[:2] for m in masks):
            raise DimensionMismatchError(f"every {domain} image needs a mask of its size")
        if len(labels) != n:
            raise DimensionMismatchError("every image needs one image-level label")
        for y in labels:
            # True, "1" and 0.5 would pass a float conversion
            if isinstance(y, bool) or not isinstance(y, (int, np.integer)) or y not in (0, 1):
                raise OutOfRangeError(f"image-level label {y!r} is not the integer 0 or 1")
        stack = part["images"] if isinstance(part["images"], np.ndarray) else np.stack(images)
        out[domain] = {"images": stack.reshape(n, *shape),
                       mask_key: np.asarray(masks, dtype=np.uint16),
                       "image_labels": np.asarray(labels)}
    return out


def _pooled_features(images) -> np.ndarray:
    """(N, H, W, C) images -> (N, D) mean-pooled pixel features, a block at a time."""
    n, h, w, c = images.shape
    block = _block_images(h, w)
    # a builder of its own, freed on return: freeing a buffer of 512 KB or
    # more raises glibc's mmap threshold, so that the target passes'
    # temporaries then come from the heap, not fresh mmaps (sharing
    # train's builder measured slower in CLI runs)
    features = _FeatureBuilder(min(block, n), h, w, c)
    pooled = np.empty((n, 2 * c + 2))
    for i in range(0, n, block):
        feats = features(images[i:i + block])
        pooled[i:i + block] = feats.reshape(len(feats), h * w, -1).mean(axis=1)
    return pooled


def _target_blocks(models, images, pooled, refine, features, work):
    """Forward the target images under the current weights in blocks of
    whole images, featurised by `features`.  Yields, for each block, the
    slice of the images it holds and their probability maps stacked into
    one tall (B*H, W, K) map, a transposed view of a class-major array in
    the step buffers `work`, overwritten by the next block."""
    n, h, w = images.shape[:3]
    if refine:
        preds = _logistic(pooled, models.classifier)
    block = _block_images(h, w)
    for i in range(0, n, block):
        feats = features(images[i:i + block])
        b = len(feats)
        p = segmenter_forward(models.segmenter, feats.reshape(b * h, w, -1), work)
        if refine:
            p = refine_probs_by_classification(p, np.repeat(preds[i:i + b], h)[:, None, None])
        yield slice(i, i + b), p


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where it cannot say (as where it cannot fork)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _superpixel_bits(images, params) -> np.ndarray:
    """The (N, H, W) uint8 neighbour_bits of each image's SLIC map.

    The images are split into contiguous ranges, one per CPU and at most
    one per image.  This process runs the first; each other runs in a
    forked child that writes its maps into a shared mmap made before the
    fork.  A range whose child did not exit 0, or could not be forked,
    is run here afterwards, so its error surfaces as in a serial run.  No
    map depends on the split.
    """
    n = len(images)
    h, w = np.shape(images[0])[:2]
    maps = np.ndarray((n, h, w), np.uint8, mmap.mmap(-1, max(1, n * h * w)))
    ranges = np.array_split(np.arange(n), max(1, min(n, _cpu_count())))

    def fill(r):
        for i in ranges[r]:
            maps[i] = neighbour_bits(slic(images[i], params))

    children, failed = {}, []
    try:
        for r in range(1, len(ranges)):
            try:
                pid = os.fork()
            except OSError:  # say EAGAIN: the range runs here, as a failed child's
                failed.append(r)
                continue
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
    return maps


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
            accumulate(cm, pred, eval_masks[s].reshape(-1, w))
        if values is not None:
            values.add(pred, confid)
    return None if values is None else values.lambdas(p)


def train(cfg: TrainConfig, data: dict) -> TrainResult:
    """Run the full curriculum on a gen_synthetic-style dataset.

    The dataset is checked and stacked by stack_dataset, which copies
    nothing when it is stacked already; train keeps no other reference to
    it.  Each domain keeps its images (uint8 in practice) and masks, the
    target side its eval masks and an (N_t, H, W) array of the current
    pseudo labels; the image-level labels and the mean-pooled classifier
    inputs, built once, are one small array each over both domains.  No
    array holds the pixel features of all images: a step gathers its rows
    into buffers of the run and builds the batch's features from its
    images, the target ones only if ADV is on or one of their pseudo
    masks holds a label (see batch_forward).  Nor does any array hold every
    target image's probability map: each pass over the target images
    forwards them in blocks of whole images and hands each block to its
    consumers before building the next.  The evaluation pass ending an
    epoch feeds the confusion matrix and, but for the last epoch, the
    values of the next epoch's thresholds; with pseudo labels, each epoch
    opens with a pass that labels every block under those thresholds, the
    same weights giving the same bits, and an initial pass gathers the
    first epoch's values.  The superpixel priors, a byte per pixel, are
    made once by one process per CPU this one may use (_superpixel_bits).
    Blocks hold whole images and no vote crosses an image's border, so
    every output equals that of one pass over all target images at once.
    """
    data = stack_dataset(data)
    k, src, tgt = int(data["num_classes"]), data["source"], data["target"]
    n_src, h, w, c = src["images"].shape
    n_tgt = len(tgt["images"])
    pseudo = _all_ignore((n_tgt, h, w))
    pooled = np.concatenate([_pooled_features(src["images"]), _pooled_features(tgt["images"])])
    # whether each target image's pseudo mask holds a label
    has_label = np.zeros(n_tgt, dtype=bool)
    # one set of buffers serves every batch and every block of the target pass
    cap = min(cfg.batch_size, n_src)
    n_cap = max(2 * cap, min(_block_images(h, w), n_tgt))  # images
    features, work = _FeatureBuilder(n_cap, h, w, c), _step_buffers(k, n_cap * h * w)
    target_pass = (tgt["images"], pooled[n_src:], cfg.refine_by_classification, features, work)
    # each batch's inputs, source rows first, gathered into buffers of the run
    images_b = np.empty((2 * cap, h, w, c), dtype=src["images"].dtype)
    masks_b = np.empty((2 * cap, h, w), dtype=np.uint16)
    labels = np.concatenate([src["image_labels"], tgt["image_labels"]])

    models = init_models(pooled.shape[1], k, cfg.seed)
    rng = SplitMix64(cfg.seed).spawn(100)

    if cfg.use_pl:
        # images never change, so the spatial priors are computed once
        sp = _superpixel_bits(tgt["images"], cfg.slic)
        negative = (tgt["image_labels"] == 0)[:, None, None]

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
                block = generate(probs, thr, NeighbourBits(sp[s].reshape(-1, w))).reshape(-1, h, w)
                if cfg.gate_by_image_label:
                    # images labelled healthy keep no lesion pixel (IGNORE >= 1 too)
                    block[negative[s] & (block >= 1)] = IGNORE
                pseudo[s] = block
                labelled = (block != IGNORE).reshape(len(block), -1)
                has_label[s] = labelled.any(axis=1)
                n_labelled += np.count_nonzero(labelled)
        pl_fraction = n_labelled / float(pseudo.size)

        order_s = rng.shuffled(n_src)
        # the target side walks its order in step with the source side, wrapping
        order_t = rng.shuffled(n_tgt)[np.arange(n_src) % n_tgt]
        sums = {"L_C": 0.0, "L_S": 0.0, "L_D": 0.0, "L_SRT": 0.0,
                "L_disc": 0.0, "total": 0.0}
        n_batches = 0
        last_lr = cfg.learning_rate
        for b0 in range(0, n_src, cfg.batch_size):
            sel_s, sel_t = order_s[b0:b0 + cfg.batch_size], order_t[b0:b0 + cfg.batch_size]
            n_s = len(sel_s)
            # the target rows go forward only where a gradient can read them
            n_f = 2 * n_s if cfg.use_adv or has_label[sel_t].any() else n_s
            # mode="clip" writes straight into out, which "raise" would buffer
            np.take(src["images"], sel_s, axis=0, out=images_b[:n_s], mode="clip")
            np.take(src["masks"], sel_s, axis=0, out=masks_b[:n_s], mode="clip")
            if n_f > n_s:
                np.take(tgt["images"], sel_t, axis=0, out=images_b[n_s:n_f], mode="clip")
                np.take(pseudo, sel_t, axis=0, out=masks_b[n_s:n_f], mode="clip")
            rows = np.concatenate([sel_s, n_src + sel_t])
            # the features live in a reused buffer, spent before the next build
            losses, bank_s, bank_t, grads = batch_forward(
                models, features(images_b[:n_f]), masks_b[:n_f], labels[rows], pooled[rows],
                n_s, bank_s, bank_t, cfg.weights, cfg.use_adv, cfg.use_srt, work)

            lr = cfg.learning_rate * cfg.lr_decay_rate ** (step // cfg.lr_decay_step)
            last_lr = lr
            # without use_adv the discriminator's gradient is exactly zero
            models = ToyModels(*(w - lr * g for w, g in zip(models, grads)))
            step += 1
            n_batches += 1
            for key in sums:
                sums[key] += losses[key]

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
                       log=log, pseudo_masks=pseudo)


# ---------------------------------------------------------------------------
# gradient checking


def _fd_grad(f, x, step=1e-5):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + step
        hi = f()
        x[idx] = orig - step
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * step)
    return g


def _rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def gradcheck(seed: int = 0) -> dict:
    """Compare batch_forward's gradients against central finite
    differences of its losses on a small random instance.  Returns max
    relative error per parameter block."""
    synth = SynthConfig(image_size=GRADCHECK_SIZE, num_classes=2,
                        source_count=GRADCHECK_IMAGES, target_count=GRADCHECK_IMAGES,
                        seed=seed)
    data = stack_dataset(gen_synthetic(synth))
    src, tgt, k = data["source"], data["target"], 2
    rng = SplitMix64(seed).spawn(999)

    images = np.concatenate([src["images"], tgt["images"]])
    feats = _FeatureBuilder(*images.shape)(images)
    models = init_models(feats.shape[3], k, seed + 1)
    for w in models:
        w += 0.2 * rng.normal(w.shape)

    # fixed pseudo masks with some IGNORE pixels
    raw = rng.integers(0, k + 1, tgt["eval_masks"].shape)
    masks = np.concatenate([src["masks"], np.where(raw == k, IGNORE, raw)])
    labels = np.concatenate([src["image_labels"], tgt["image_labels"]])

    weights = LossWeights(eta=0.3, mu=10.0, alpha=1.0, lambda_global=0.1)
    banks = [CentroidBank(num_classes=k, dim=k, gamma=0.7, centroids=rng.normal((k, k)),
                          steps=3) for _ in range(2)]  # source, then target
    batch = (feats, masks, labels, _pooled_features(images), GRADCHECK_IMAGES, *banks, weights)
    grads = batch_forward(models, *batch)[3]

    def losses():
        return batch_forward(models, *batch)[0]

    fd_cls = _fd_grad(lambda: losses()["L_C"], models.classifier)
    fd_seg = _fd_grad(lambda: (lambda v: v["L_S"] + weights.eta * v["L_D"]
                               + weights.mu * v["L_SRT"])(losses()), models.segmenter)
    fd_disc = _fd_grad(lambda: losses()["L_disc"], models.discriminator)

    report = {
        "classifier": _rel_err(grads.classifier, fd_cls),
        "segmenter": _rel_err(grads.segmenter, fd_seg),
        "discriminator": _rel_err(grads.discriminator, fd_disc),
    }
    report["max"] = max(report.values())
    return report
