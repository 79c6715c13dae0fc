"""SLIC maps and energies at 256², where the oracle is too slow, pinned
to digests recorded before the assignment folded its chunks straight
into the map; and the padded gradient against the oracle's rolls."""

import hashlib

import numpy as np
import pytest

import slic_oracle as oracle
from segtransfer import superpixel
from segtransfer.superpixel import SlicParams, slic
from segtransfer.toy_pipeline import SynthConfig, gen_synthetic


def _target_256():
    cfg = SynthConfig(image_size=256, source_count=1, target_count=1, seed=256)
    return gen_synthetic(cfg)["target"]["images"][0]


def _noise_256():
    return np.random.default_rng(256).integers(0, 256, (256, 256, 3), dtype=np.uint8)


# At 256² and 100 segments a window spans at least 51 x 51 pixels, so the
# default chunk holds at most 50 of the 100 centers: every pass takes
# several chunks, and a tie across chunks has to resolve as within one.
RECORDED = {
    "target": (
        _target_256,
        "30a585b5a017d3b004f068cb4ee41bf4cc91cb1f3c028e2bdd1b5df3e0117cec",
        [2308166.4281174876, 1904739.1687778565, 1858165.8342552455, 1843110.0680094485,
         1835648.2976236003, 1831498.9087237376, 1829111.3122706104, 1827543.5280374135,
         1826482.4041116848, 1825659.940571572],
    ),
    "noise": (
        _noise_256,
        "d427d32b869b8301e1676f32c6bfc612f4823b34497ab07494b88fdf7a25f7b6",
        [201656425.3463214, 130873763.56933971, 119508281.50579101, 115277649.38207418,
         113063204.70935585, 111318408.49305259, 110264038.30773227, 109156963.18182081,
         108656175.80433673, 107984495.13059628],
    ),
}


def test_default_chunk_splits_a_256_pass():
    assert superpixel._ASSIGN_CHUNK // 51 ** 2 < SlicParams().n_segments


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_256_map_and_energies_match_recording(name):
    make, digest, energies = RECORDED[name]
    labels, got = slic(make(), SlicParams(), return_energies=True)
    assert labels.dtype == np.int32 and labels.shape == (256, 256)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == digest
    assert got == energies  # exact float equality, iteration by iteration


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (5, 7)])
def test_gradient_magnitude_matches_oracle(shape):
    lab = np.random.default_rng(shape[0] * 10 + shape[1]).normal(0, 40, shape + (3,))
    got = superpixel._gradient_magnitude(lab)
    want = oracle._gradient_magnitude(lab)
    assert got.dtype == want.dtype and got.shape == want.shape == shape
    assert got.tobytes() == want.tobytes()
