"""Deterministic random number generation.

Every random draw in the package funnels through :class:`SplitMix64`, a
64-bit split-mix counter generator.  Output is a pure function of
(seed, draw index), so runs reproduce bit-identically across platforms
and numpy versions.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z):
    """SplitMix64 finalizer on a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _mix_int(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based splitmix64 stream.

    State advances by the golden-ratio increment per draw; outputs are the
    mixed counter values.  Vectorized draws and sequential draws produce
    the same stream.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def spawn(self, key: int) -> "SplitMix64":
        """Derive an independent child stream for a fixed integer key."""
        return SplitMix64(_mix_int(self._state ^ _mix_int((key + 1) * _GOLDEN)))

    def raw(self, n: int) -> np.ndarray:
        """Next n raw uint64 words."""
        idx = np.arange(1, n + 1, dtype=np.uint64)
        ks = np.uint64(self._state) + np.uint64(_GOLDEN) * idx
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return _mix(ks)

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform floats in [0, 1) with 53-bit resolution."""
        n = int(np.prod(shape)) if shape else 1
        u = (self.raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        return u.reshape(shape) if shape else float(u[0])

    def normal(self, shape=()) -> np.ndarray:
        """Standard normals via Box-Muller."""
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        # u1 in (0, 1] so log() is finite
        u1 = ((self.raw(m) >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
        u2 = (self.raw(m) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(shape) if shape else float(z[0])

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Integers in [low, high).  Uses the 53-bit uniform, so any modulo
        bias is below 2**-53 for the ranges used here."""
        u = self.uniform(shape if shape else (1,))
        out = (low + np.floor(u * (high - low))).astype(np.int64)
        out = np.minimum(out, high - 1)
        return out if shape else int(out[0])

    def shuffled(self, n: int) -> np.ndarray:
        """A Fisher-Yates permutation of range(n).

        Swap i (for i = n-1 down to 1) exchanges positions i and j, with
        j drawn as integers(0, i + 1) would draw it.  All n - 1 uniforms
        come from one call; only the swaps run one by one.
        """
        perm = list(range(n))
        if n > 1:
            i = np.arange(n - 1, 0, -1)
            js = np.minimum(np.floor(self.uniform((n - 1,)) * (i + 1)).astype(np.int64), i)
            for a, b in zip(range(n - 1, 0, -1), js.tolist()):
                perm[a], perm[b] = perm[b], perm[a]
        return np.array(perm, dtype=int)
