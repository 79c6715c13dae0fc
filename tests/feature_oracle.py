"""Reference pixel features: the original per-image builder.

`segtransfer.toy_pipeline._FeatureBuilder` replaces it with one builder
over a stack of images, laid out on a flat zero canvas; its features
must equal this function's bit for bit.
"""

import numpy as np


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
