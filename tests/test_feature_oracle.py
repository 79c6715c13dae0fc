"""The stacked feature builder must reproduce the per-image builder in
`feature_oracle` bit for bit, for every image of a stack, whatever the
stack's size, image shape, channel count and pixel values."""

import numpy as np
import pytest

from feature_oracle import pixel_features as oracle_features
from segtransfer.toy_pipeline import _FeatureBuilder, SynthConfig, gen_synthetic

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def assert_matches_oracle(images):
    """A builder of the stack's size, a larger one reused and one per
    image all give the oracle's bytes."""
    images = np.asarray(images)
    want = np.stack([oracle_features(im) for im in images])
    got = _FeatureBuilder(*images.shape)(images)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    builder = _FeatureBuilder(len(images) + 2, *images.shape[1:])
    for _ in range(2):  # a second call reuses the buffers of the first
        assert builder(images).tobytes() == want.tobytes()
        assert builder(images[1:]).tobytes() == want[1:].tobytes()
    single = _FeatureBuilder(1, *images.shape[1:])
    for im, f in zip(images, want):
        assert single(im[None])[0].tobytes() == f.tobytes()


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (1, 2), (5, 6), (16, 16)])
@pytest.mark.parametrize("count", [1, 4])
def test_random_stacks(channels, shape, count):
    rng = np.random.default_rng(count * 100 + channels)
    assert_matches_oracle(rng.integers(0, 256, (count, *shape, channels), dtype=np.uint8))


@pytest.mark.parametrize("value", [0, 255])
@pytest.mark.parametrize("channels", [1, 3])
def test_constant_extremes(value, channels):
    assert_matches_oracle(np.full((3, 4, 5, channels), value, dtype=np.uint8))


def test_extremes_next_to_each_other():
    img = np.zeros((2, 6, 6, 1), dtype=np.uint8)
    img[0, ::2, ::3] = 255
    img[1, 1::2] = 255
    assert_matches_oracle(img)


def test_two_dimensional_image():
    """A (H, W) image is featurised as its (H, W, 1) form."""
    img = np.random.default_rng(3).integers(0, 256, (5, 9), dtype=np.uint8)
    got = _FeatureBuilder(1, 5, 9, 1)(img[None, ..., None])[0]
    assert got.tobytes() == oracle_features(img).tobytes()


def test_synthetic_images():
    data = gen_synthetic(SynthConfig(image_size=12, source_count=5, target_count=3, seed=2))
    images = np.stack([*data["source"]["images"], *data["target"]["images"]])[..., None]
    assert_matches_oracle(images)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    count=st.integers(1, 5),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    channels=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    extreme=st.sampled_from([None, 0, 255]),
)
def test_property_matches_oracle(count, h, w, channels, seed, extreme):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, (count, h, w, channels), dtype=np.uint8)
    if extreme is not None:
        images[rng.random(images.shape) < 0.5] = extreme
    assert_matches_oracle(images)
