"""From-scratch SLIC superpixel segmentation.

Local k-means in the joint CIELAB + position space: centers start on a
regular grid with spacing S = sqrt(H*W / n_segments), each assignment
pass only searches a 2Sx2S window around every center, and the distance
is D = sqrt(d_lab^2 + (d_xy / S)^2 * m^2) with compactness m.  A final
pass merges 4-connected fragments smaller than S^2/4 into the neighbor
they share the most boundary with.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    OutOfRangeError,
    TooManySegmentsError,
)

# sRGB (D65) linear RGB -> XYZ
_RGB_TO_XYZ = np.array([
    [0.4124564, 0.3575761, 0.1804375],
    [0.2126729, 0.7151522, 0.0721750],
    [0.0193339, 0.1191920, 0.9503041],
])
_WHITE = _RGB_TO_XYZ.sum(axis=1)  # reference white = matrix row sums


@dataclass(frozen=True)
class SlicParams:
    n_segments: int = 100
    compactness: float = 10.0
    iterations: int = 10
    enforce_connectivity: bool = True

    def __post_init__(self):
        if self.n_segments < 1:
            raise InvalidConfigError("n_segments must be >= 1")
        if self.compactness <= 0:
            raise InvalidConfigError("compactness must be > 0")
        if self.iterations < 1:
            raise InvalidConfigError("iterations must be >= 1")


def _bad_image(shape) -> DimensionMismatchError:
    return DimensionMismatchError(f"image must be (H, W) or (H, W, {{1,3}}), got {shape}")


def rgb_to_lab(img) -> np.ndarray:
    """sRGB uint8 -> CIELAB (D65).  Grayscale inputs are replicated to
    three channels first."""
    img = np.asarray(img)
    if img.ndim == 2:
        img = img[..., None]
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise _bad_image(img.shape)
    if img.shape[2] == 1:
        img = np.repeat(img, 3, axis=2)

    c = img.astype(np.float64) / 255.0
    linear = np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)
    xyz = linear @ _RGB_TO_XYZ.T
    t = xyz / _WHITE
    delta = 6.0 / 29.0
    f = np.where(t > delta ** 3, np.cbrt(t), t / (3 * delta ** 2) + 4.0 / 29.0)
    lab = np.empty_like(xyz)
    lab[..., 0] = 116.0 * f[..., 1] - 16.0
    lab[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
    lab[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return lab


def _grid_shape(h: int, w: int, n_segments: int):
    """Rows/cols of the seed grid whose product best matches n_segments.

    Row counts come from floor/ceil of H/S, column counts from both W/S
    and n/rows so the product stays near n even for skewed aspect ratios;
    ties prefer the layout with more columns so wide splits break
    horizontally.
    """
    s = np.sqrt(h * w / n_segments)
    ny_cands = {min(h, max(1, int(np.floor(h / s)))), min(h, max(1, int(np.ceil(h / s))))}
    best = None
    for ny in ny_cands:
        nx_cands = {
            min(w, max(1, int(np.floor(w / s)))),
            min(w, max(1, int(np.ceil(w / s)))),
            min(w, max(1, int(np.floor(n_segments / ny)))),
            min(w, max(1, int(np.ceil(n_segments / ny)))),
        }
        for nx in nx_cands:
            key = (abs(ny * nx - n_segments), -nx, ny)
            if best is None or key < best[0]:
                best = (key, ny, nx)
    return best[1], best[2]


def _seed_positions(h, w, ny, nx):
    ys = np.minimum((np.arange(ny) + 0.5) * h / ny, h - 1).astype(np.int64)
    xs = np.minimum((np.arange(nx) + 0.5) * w / nx, w - 1).astype(np.int64)
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    return np.stack([yy.ravel(), xx.ravel()], axis=1)


def _gradient_magnitude(lab):
    """Squared lab-space gradient with clamped borders."""
    p = np.pad(lab, ((1, 1), (1, 1), (0, 0)), mode="edge")
    return (((p[2:, 1:-1] - p[:-2, 1:-1]) ** 2).sum(-1)
            + ((p[1:-1, 2:] - p[1:-1, :-2]) ** 2).sum(-1))


def _perturb_seeds(seeds, grad):
    """Move each seed to the strictly lowest-gradient spot in its 3x3
    neighborhood (row-major scan; the seed stays put on ties)."""
    h, w = grad.shape
    d = np.array([-1, 0, 1])
    ys = seeds[:, 0, None, None] + d[None, :, None]  # (n, 3, 1)
    xs = seeds[:, 1, None, None] + d[None, None, :]  # (n, 1, 3)
    inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    vals = np.where(inside, grad[ys.clip(0, h - 1), xs.clip(0, w - 1)], np.inf)
    vals = vals.reshape(len(seeds), 9)
    first_min = vals.argmin(axis=1)  # argmin keeps the first of equal minima
    move = vals[np.arange(len(seeds)), first_min] < grad[seeds[:, 0], seeds[:, 1]]
    out = seeds.copy()
    out[move, 0] += first_min[move] // 3 - 1
    out[move, 1] += first_min[move] % 3 - 1
    return out


def slic(img, params: SlicParams = SlicParams(), return_energies: bool = False):
    """Segment an image into superpixels.

    Returns an (H, W) int32 map with dense segment IDs.  With
    return_energies=True also returns the per-iteration total assignment
    cost, measured as the sum of squared D over all pixels with the
    centers in force during that assignment.  The squared form is the
    objective the mean-based center update minimizes, so it is the
    quantity that descends.  A float image that holds a NaN or an
    infinity raises OutOfRangeError before any work.
    """
    img = np.asarray(img)
    if img.ndim < 2:  # rgb_to_lab rejects it too, but only after shape[:2] is read
        raise _bad_image(img.shape)
    h, w = img.shape[:2]
    if params.n_segments > h * w:
        raise TooManySegmentsError(f"{params.n_segments} segments requested for {h * w} pixels")
    if img.dtype.kind == "f" and not np.isfinite(img).all():
        raise OutOfRangeError("image holds a NaN or infinite value")

    lab = rgb_to_lab(img)
    s = np.sqrt(h * w / params.n_segments)
    ny, nx = _grid_shape(h, w, params.n_segments)
    seeds = _seed_positions(h, w, ny, nx)
    seeds = _perturb_seeds(seeds, _gradient_magnitude(lab))

    n_centers = seeds.shape[0]
    centers = np.empty((n_centers, 5))  # l, a, b, y, x
    centers[:, :3] = lab[seeds[:, 0], seeds[:, 1]]
    centers[:, 3:] = seeds.astype(np.float64)

    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    m2_over_s2 = (params.compactness / s) ** 2
    chans = [np.ascontiguousarray(lab[..., k]).ravel() for k in range(3)]
    feats = [chans[0], chans[1], chans[2], yy.ravel(), xx.ravel()]
    energies = []

    dist = np.empty((h, w))
    labels = np.empty((h, w), dtype=np.int32)
    for _ in range(params.iterations):
        _assign(chans, centers, s, m2_over_s2, dist, labels)

        uncovered = labels < 0
        if uncovered.any():
            uy, ux = np.nonzero(uncovered)
            d_lab2 = ((lab[uy, ux, None, :] - centers[None, :, :3]) ** 2).sum(-1)
            d_xy2 = ((uy[:, None] - centers[None, :, 3]) ** 2
                     + (ux[:, None] - centers[None, :, 4]) ** 2)
            d_all = np.sqrt(d_lab2 + d_xy2 * m2_over_s2)
            pick = d_all.shape[1] - 1 - np.argmin(d_all[:, ::-1], axis=1)
            labels[uy, ux] = pick
            dist[uy, ux] = d_all[np.arange(len(pick)), pick]

        if return_energies:
            energies.append(float((dist ** 2).sum()))

        flat = labels.ravel()
        # bincount adds in pixel order from 0.0, as np.add.at would
        sums = np.stack([np.bincount(flat, weights=f, minlength=n_centers) for f in feats], axis=1)
        counts = np.bincount(flat, minlength=n_centers).astype(np.float64)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]

    if params.enforce_connectivity:
        labels = enforce_connectivity(labels, max(1, int(s * s / 4)))
    else:
        labels = _densify(labels)
    if return_energies:
        return labels, energies
    return labels


# Upper bound on (center, window pixel) entries evaluated at once: each
# temporary of an assignment pass stays at 1 MiB whatever the image size.
_ASSIGN_CHUNK = 1 << 17


def _assign(chans, centers, s, m2_over_s2, dist, labels):
    """One SLIC assignment pass, in place on the (H, W) `dist` and `labels`.

    A pixel is a candidate for center c iff it lies in c's window
    [floor(cy - S), floor(cy + S)] x [floor(cx - S), floor(cx + S)].  Each
    pixel takes its nearest candidate; on equal distances the highest
    center index wins, which is what visiting centers in order and
    updating on `d <= dist` gives (with symmetric seed grids it is what
    splits an even uniform image into equal quadrants).  The windows are
    gathered as a padded (centers, wy, wx) block in chunks of centers,
    which only bound memory: `dist` takes each chunk's minimum, then each
    candidate at the new `dist` raises the label to its center.  Later
    chunks hold higher centers, so no merge pass is needed.  Pixels no
    window covers keep dist inf and label -1.
    """
    h, w = dist.shape
    dist, labels = dist.reshape(-1), labels.reshape(-1)  # views
    dist.fill(np.inf)
    labels.fill(-1)
    cy, cx = centers[:, 3], centers[:, 4]
    r0 = np.maximum(0, np.floor(cy - s).astype(np.int64))
    r1 = np.minimum(h, np.floor(cy + s).astype(np.int64) + 1)
    c0 = np.maximum(0, np.floor(cx - s).astype(np.int64))
    c1 = np.minimum(w, np.floor(cx + s).astype(np.int64) + 1)
    # centers are means of pixel coordinates, so no window is empty
    wy, wx = int((r1 - r0).max()), int((c1 - c0).max())
    rows = r0[:, None] + np.arange(wy)
    cols = c0[:, None] + np.arange(wx)
    row_ok, col_ok = rows < r1[:, None], cols < c1[:, None]
    rows, cols = np.minimum(rows, h - 1), np.minimum(cols, w - 1)
    dy2 = (rows - cy[:, None]) ** 2
    dx2 = (cols - cx[:, None]) ** 2
    ids = np.arange(len(centers), dtype=np.int32)
    step = max(1, _ASSIGN_CHUNK // (wy * wx))
    for a in range(0, len(centers), step):
        sl = slice(a, a + step)
        valid = row_ok[sl, :, None] & col_ok[sl, None, :]
        pix = rows[sl, :, None] * w + cols[sl, None, :]
        cl, ca, cb = (centers[sl, k, None, None] for k in range(3))
        d_lab2 = ((chans[0][pix] - cl) ** 2 + (chans[1][pix] - ca) ** 2
                  + (chans[2][pix] - cb) ** 2)
        d_xy2 = dy2[sl, :, None] + dx2[sl, None, :]
        d = np.sqrt(d_lab2 + d_xy2 * m2_over_s2)[valid]
        pix = pix[valid]
        cid = np.broadcast_to(ids[sl, None, None], valid.shape)[valid]
        np.minimum.at(dist, pix, d)
        hit = d == dist[pix]
        np.maximum.at(labels, pix[hit], cid[hit])


def _densify(labels):
    """Renumber segment IDs to 0..n-1 in row-major first-occurrence order."""
    flat = labels.ravel()
    _, first = np.unique(flat, return_index=True)
    order = flat[np.sort(first)]
    remap = np.empty(int(flat.max()) + 1, dtype=np.int32)
    remap[order] = np.arange(order.size, dtype=np.int32)
    return remap[flat].reshape(labels.shape)


def _connected_components(labels):
    """4-connected components of equal-ID regions, numbered in row-major
    discovery order.  Returns (component map, component count).

    Run-based labelling: horizontal runs of equal IDs are the nodes, runs
    in consecutive rows that overlap with equal IDs are the edges, and a
    vectorised union-find joins each component under its lowest run.
    Runs are numbered in row-major order, so ranking those roots numbers
    the components by their first pixel.
    """
    h, w = labels.shape
    flat = labels.ravel()
    start = np.ones(h * w, dtype=bool)
    start[1:] = flat[1:] != flat[:-1]
    start[::w] = True
    run = (np.cumsum(start) - 1).reshape(h, w)
    # one edge per pair of overlapping runs: skip a column whose left
    # neighbour already links the same two runs
    link = labels[:-1] == labels[1:]
    up, down = run[:-1], run[1:]
    link[:, 1:] &= ~(link[:, :-1] & (up[:, 1:] == up[:, :-1]) & (down[:, 1:] == down[:, :-1]))
    parent = _union_find(int(run[-1, -1]) + 1, up[link], down[link])
    is_root = parent == np.arange(parent.size)
    rank = (np.cumsum(is_root) - 1).astype(np.int32)
    return rank[parent][run], int(is_root.sum())


def _union_find(n, a, b):
    """Roots of n nodes joined by the edges (a, b): every node ends up
    pointing at the lowest node of its component.  Each round hooks the
    higher root of every edge whose ends still differ onto the lowest root
    it touches, then jumps pointers until all nodes point at roots.
    Parents only decrease, so no cycle can form."""
    parent = np.arange(n)
    while a.size:
        ra, rb = parent[a], parent[b]
        pending = ra != rb
        a, b, ra, rb = a[pending], b[pending], ra[pending], rb[pending]
        if not a.size:
            break
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return parent


def enforce_connectivity(sp, min_size: int) -> np.ndarray:
    """Merge 4-connected components smaller than min_size into the
    adjacent component they share the most boundary with (ties to the
    lowest component ID), then renumber densely.

    Every output segment is one 4-connected component by construction.
    """
    sp = np.asarray(sp)
    if sp.size == 0:
        return np.zeros(sp.shape, dtype=np.int32)
    comp, n = _connected_components(sp)

    sizes = np.bincount(comp.ravel(), minlength=n).tolist()
    shares = [dict() for _ in range(n)]
    for a, b, cnt in zip(*_boundary_counts(comp, n)):
        shares[a][b] = cnt
        shares[b][a] = cnt

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    changed = True
    while changed:
        changed = False
        for i in range(n):
            r = find(i)
            if sizes[r] >= min_size or not shares[r]:
                continue
            target = max(shares[r].items(), key=lambda kv: (kv[1], -kv[0]))[0]
            # merge r into target: keep the smaller id as the root so ties
            # stay deterministic across passes
            root = min(r, target)
            other = max(r, target)
            parent[other] = root
            sizes[root] += sizes[other]
            # shares is symmetric, so other's neighbours are its own keys
            for nb, cnt in shares[other].items():
                del shares[nb][other]
                if nb != root:
                    shares[root][nb] = shares[root].get(nb, 0) + cnt
                    shares[nb][root] = shares[nb].get(root, 0) + cnt
            shares[other] = {}
            changed = True

    # a root is the lowest component of its segment, hence the first one
    # met in row-major order: ranking the roots renumbers densely
    roots = np.array([find(i) for i in range(n)])
    rank = np.cumsum(roots == np.arange(n)) - 1
    return rank.astype(np.int32)[roots][comp]


def _boundary_counts(comp, n):
    """Unordered 4-adjacent component pairs (a < b) and the number of
    edges each pair shares, as three lists."""
    pairs = []
    for x, y in ((comp[:, :-1], comp[:, 1:]), (comp[:-1, :], comp[1:, :])):
        diff = x != y
        x, y = x[diff].astype(np.int64), y[diff].astype(np.int64)
        pairs.append(np.minimum(x, y) * n + np.maximum(x, y))
    keys, counts = np.unique(np.concatenate(pairs), return_counts=True)
    return (keys // n).tolist(), (keys % n).tolist(), counts.tolist()
