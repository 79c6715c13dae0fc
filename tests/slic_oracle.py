"""Reference SLIC: the original loop implementations of seed
perturbation, per-center window assignment, flood-fill component
labelling, boundary counting and connectivity enforcement.

`segtransfer.superpixel` replaces these with vectorised versions that
must give byte-identical maps and bit-identical energies; this module
is the oracle they are tested against.  It is slow (seconds per
textured 128x128 image), so tests use it on small inputs.
"""

import numpy as np

from segtransfer.errors import TooManySegmentsError
from segtransfer.superpixel import (
    SlicParams,
    _densify,
    _gradient_magnitude,
    _grid_shape,
    _seed_positions,
    rgb_to_lab,
)


def _perturb_seeds(seeds, grad):
    """Move each seed to the strictly lowest-gradient spot in its 3x3
    neighborhood (row-major scan; the seed stays put on ties)."""
    h, w = grad.shape
    out = seeds.copy()
    for i, (cy, cx) in enumerate(seeds):
        best = grad[cy, cx]
        by, bx = cy, cx
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                y, x = cy + dy, cx + dx
                if 0 <= y < h and 0 <= x < w and grad[y, x] < best:
                    best = grad[y, x]
                    by, bx = y, x
        out[i] = (by, bx)
    return out


def slic(img, params: SlicParams = SlicParams(), return_energies: bool = False):
    """Segment an image into superpixels (see `superpixel.slic`)."""
    img = np.asarray(img)
    h, w = img.shape[:2]
    if params.n_segments > h * w:
        raise TooManySegmentsError(f"{params.n_segments} segments requested for {h * w} pixels")

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
    energies = []

    labels = np.zeros((h, w), dtype=np.int32)
    for _ in range(params.iterations):
        dist = np.full((h, w), np.inf)
        labels.fill(-1)
        for c in range(n_centers):
            cl, ca, cb, cy, cx = centers[c]
            r0 = max(0, int(np.floor(cy - s)))
            r1 = min(h, int(np.floor(cy + s)) + 1)
            c0 = max(0, int(np.floor(cx - s)))
            c1 = min(w, int(np.floor(cx + s)) + 1)
            if r0 >= r1 or c0 >= c1:
                continue
            win = lab[r0:r1, c0:c1]
            d_lab2 = ((win[..., 0] - cl) ** 2 + (win[..., 1] - ca) ** 2
                      + (win[..., 2] - cb) ** 2)
            d_xy2 = (yy[r0:r1, c0:c1] - cy) ** 2 + (xx[r0:r1, c0:c1] - cx) ** 2
            d = np.sqrt(d_lab2 + d_xy2 * m2_over_s2)
            # <= lets the later center claim ties; with symmetric seed grids
            # this is what splits an even uniform image into equal quadrants
            upd = d <= dist[r0:r1, c0:c1]
            dist[r0:r1, c0:c1][upd] = d[upd]
            labels[r0:r1, c0:c1][upd] = c

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

        energies.append(float((dist ** 2).sum()))

        flat = labels.ravel()
        feats = np.concatenate([lab.reshape(-1, 3), yy.reshape(-1, 1), xx.reshape(-1, 1)], axis=1)
        sums = np.zeros((n_centers, 5))
        np.add.at(sums, flat, feats)
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


def _connected_components(labels):
    """4-connected components of equal-ID regions, numbered in row-major
    discovery order.  Returns (component map, component count)."""
    h, w = labels.shape
    comp = np.full((h, w), -1, dtype=np.int32)
    n = 0
    for sy in range(h):
        for sx in range(w):
            if comp[sy, sx] >= 0:
                continue
            seg = labels[sy, sx]
            stack = [(sy, sx)]
            comp[sy, sx] = n
            while stack:
                y, x = stack.pop()
                if y > 0 and comp[y - 1, x] < 0 and labels[y - 1, x] == seg:
                    comp[y - 1, x] = n
                    stack.append((y - 1, x))
                if y + 1 < h and comp[y + 1, x] < 0 and labels[y + 1, x] == seg:
                    comp[y + 1, x] = n
                    stack.append((y + 1, x))
                if x > 0 and comp[y, x - 1] < 0 and labels[y, x - 1] == seg:
                    comp[y, x - 1] = n
                    stack.append((y, x - 1))
                if x + 1 < w and comp[y, x + 1] < 0 and labels[y, x + 1] == seg:
                    comp[y, x + 1] = n
                    stack.append((y, x + 1))
            n += 1
    return comp, n


def enforce_connectivity(sp, min_size: int) -> np.ndarray:
    """Merge 4-connected components smaller than min_size into the
    adjacent component they share the most boundary with (ties to the
    lowest component ID), then renumber densely.

    Every output segment is one 4-connected component by construction.
    """
    sp = np.asarray(sp)
    comp, n = _connected_components(sp)

    sizes = np.bincount(comp.ravel(), minlength=n).astype(np.int64)
    shares = [dict() for _ in range(n)]
    for a, b in _boundary_pairs(comp):
        shares[a][b] = shares[a].get(b, 0) + 1
        shares[b][a] = shares[b].get(a, 0) + 1

    parent = np.arange(n)

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
            best_share, best_root = 0, -1
            for nb, cnt in shares[r].items():
                if cnt > best_share or (cnt == best_share and (best_root < 0 or nb < best_root)):
                    best_share, best_root = cnt, nb
            target = best_root
            # merge r into target: keep the smaller id as the root so ties
            # stay deterministic across passes
            root = min(r, target)
            other = max(r, target)
            parent[other] = root
            sizes[root] += sizes[other]
            merged = shares[root]
            for nb, cnt in shares[other].items():
                if nb == root:
                    continue
                merged[nb] = merged.get(nb, 0) + cnt
            merged.pop(other, None)
            shares[other] = {}
            for j in range(n):
                if shares[j]:
                    if other in shares[j]:
                        cnt = shares[j].pop(other)
                        if j != root:
                            shares[j][root] = shares[j].get(root, 0) + cnt
            shares[root].pop(root, None)
            changed = True

    roots = np.array([find(i) for i in range(n)], dtype=np.int32)
    return _densify(roots[comp])


def _boundary_pairs(comp):
    """Unordered 4-adjacent component pairs, one per shared edge."""
    pairs = []
    right = comp[:, :-1] != comp[:, 1:]
    for y, x in zip(*np.nonzero(right)):
        pairs.append((int(comp[y, x]), int(comp[y, x + 1])))
    down = comp[:-1, :] != comp[1:, :]
    for y, x in zip(*np.nonzero(down)):
        pairs.append((int(comp[y, x]), int(comp[y + 1, x])))
    return pairs
