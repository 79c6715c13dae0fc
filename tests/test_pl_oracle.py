"""The class-major pseudo-label layer must reproduce the channel-last
versions in `pl_oracle` exactly: same masks, same lambdas, same argmax
and maximum maps, ties and NaN included.  A tall map of stacked images
with offset superpixel IDs must label every image as it is labelled
alone, and `train`, streaming its target passes block by block, must
write what the oracle's loop over one tall target map writes."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import pl_oracle as oracle
import step_oracle
from segtransfer import toy_pipeline
from segtransfer.core import IGNORE, argmax_map, max_map
from segtransfer.errors import DimensionMismatchError, EmptyInputError
from segtransfer.pseudo_label import (
    NeighbourBits,
    assign_initial,
    generate,
    neighbour_bits,
    refine_with_superpixels,
)
from segtransfer.superpixel import SlicParams, slic
from segtransfer.thresholds import ClassThresholds, determine_lambdas
from segtransfer.toy_pipeline import (
    SynthConfig,
    TrainConfig,
    _superpixel_bits,
    gen_synthetic,
    train,
)

SHAPES = [(1, 9), (9, 1), (1, 1), (6, 7), (12, 5)]


def prob_map(rng, h, w, k, layout="channel_last", ties=False):
    """A random softmax-like map.  ties draws from three levels, so many
    pixels have several maximal classes; layout "forward" returns the
    transposed view of a class-major array, as segmenter_forward does."""
    raw = rng.integers(1, 4, (k, h, w)).astype(np.float64) if ties else rng.random((k, h, w))
    raw /= raw.sum(axis=0)
    if layout == "forward":
        return raw.reshape(k, h * w).T.reshape(h, w, k)
    return np.ascontiguousarray(np.moveaxis(raw, 0, -1))


def random_mask(rng, h, w, classes, ignore_frac):
    m = rng.choice(np.asarray(classes, dtype=np.uint16), size=(h, w))
    m[rng.random((h, w)) < ignore_frac] = IGNORE
    return m


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("layout", ["channel_last", "forward"])
@pytest.mark.parametrize("ties", [False, True])
def test_argmax_and_max_match_oracle(k, layout, ties):
    rng = np.random.default_rng(k)
    for h, w in SHAPES + [(0, 4)]:
        p = prob_map(rng, h, w, k, layout, ties)
        got, want = argmax_map(p), oracle.argmax_map(p)
        assert got.dtype == want.dtype == np.uint16
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(max_map(p), oracle.max_map(p))


@pytest.mark.parametrize("k", [2, 3])
def test_nan_follows_numpy(k):
    """np.argmax picks the first NaN and np.max returns NaN."""
    rng = np.random.default_rng(10 + k)
    p = prob_map(rng, 6, 6, k)
    p[rng.random((6, 6, k)) < 0.2] = np.nan
    np.testing.assert_array_equal(argmax_map(p), oracle.argmax_map(p))
    np.testing.assert_array_equal(max_map(p), oracle.max_map(p))
    np.testing.assert_array_equal(assign_initial(p, ClassThresholds(np.full(k, 0.5))),
                                  oracle.assign_initial(p, ClassThresholds(np.full(k, 0.5))))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("layout", ["channel_last", "forward"])
def test_assign_initial_matches_oracle(k, layout):
    rng = np.random.default_rng(20 + k)
    for h, w in SHAPES:
        for ties in (False, True):
            p = prob_map(rng, h, w, k, layout, ties)
            lambda_sets = [rng.uniform(0.0, 2.0, k), np.zeros(k),
                           np.full(k, -np.log(0.5)),  # equal thresholds keep ties
                           np.concatenate([rng.uniform(0.0, 1.0, k - 1), [0.0]])]
            for lam in lambda_sets:
                t = ClassThresholds(lam)
                np.testing.assert_array_equal(assign_initial(p, t), oracle.assign_initial(p, t))


def test_assign_initial_ratio_ties_go_to_lowest_class():
    """Equal thresholds make ratio ties exactly where probabilities tie;
    unnormalized levels above the threshold keep the tied pixels."""
    rng = np.random.default_rng(25)
    t = ClassThresholds(np.full(3, -np.log(0.5)))
    assert assign_initial(np.array([[[0.6, 0.6, 0.1]]]), t)[0, 0] == 0
    p = rng.integers(1, 4, (9, 9, 3)) / 4.0
    np.testing.assert_array_equal(assign_initial(p, t), oracle.assign_initial(p, t))


def test_assign_initial_class_never_predicted():
    rng = np.random.default_rng(30)
    p = prob_map(rng, 8, 8, 3)
    p[..., 2] = 1e-9
    p /= p.sum(axis=-1, keepdims=True)
    t = ClassThresholds(rng.uniform(0.0, 1.0, 3))
    got = assign_initial(p, t)
    np.testing.assert_array_equal(got, oracle.assign_initial(p, t))
    assert not np.any(got == 2)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("lam", [0.7, 740.0, 800.0])  # t normal, subnormal and 0
def test_assign_initial_at_the_threshold(k, lam):
    """Class w, holding p at 0, prev(t), t, next(t) or NaN against its
    threshold t, is kept iff p > t; every other class holds 0.1 under
    exp(-0.7), a ratio of 0.2, so it is never kept."""
    for w in range(k):
        lambdas = np.full(k, 0.7)
        lambdas[w] = lam
        t = ClassThresholds(lambdas)
        tw = t.thresholds[w]
        values = np.array([0.0, np.nextafter(tw, -1.0), tw, np.nextafter(tw, 2.0), np.nan])
        p = np.full((len(values), 1, k), 0.1)
        p[:, 0, w] = values
        with np.errstate(all="ignore"):
            got, want = assign_initial(p, t), oracle.assign_initial(p, t)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got[:, 0], np.where(values > tw, w, IGNORE))


@pytest.mark.parametrize("classes", [[0, 1], [0, 1, 2], [0, 3, 7], [5]])
@pytest.mark.parametrize("ignore_frac", [0.0, 0.4, 0.7, 1.0])
def test_refine_matches_oracle(classes, ignore_frac):
    rng = np.random.default_rng(len(classes) * 10 + int(ignore_frac * 10))
    for h, w in SHAPES + [(16, 16), (0, 3)]:
        for n_sp in (1, 3, 12):
            m = random_mask(rng, h, w, classes, ignore_frac)
            sp = rng.integers(0, n_sp, (h, w))
            got = refine_with_superpixels(m, sp)
            assert got.dtype == np.uint16
            np.testing.assert_array_equal(got, oracle.refine_with_superpixels(m, sp))


def test_refine_does_not_write_its_input():
    rng = np.random.default_rng(40)
    m = random_mask(rng, 10, 10, [0, 1], 0.5)
    before = m.copy()
    refine_with_superpixels(m, np.zeros((10, 10), dtype=np.int32))
    np.testing.assert_array_equal(m, before)


def test_refine_large_label_is_cheap():
    """The vote array is sized by the classes present, not by the largest
    label: the oracle would ask for (64, 64, 65535) int32, about 1 GiB."""
    m = np.full((64, 64), IGNORE, dtype=np.uint16)
    m[:3, :3] = 65534
    m[1, 1] = IGNORE
    m[10:13, 10:13] = 2
    m[11, 11] = IGNORE
    sp = np.zeros((64, 64), dtype=np.int32)
    tracemalloc.start()
    try:
        out = refine_with_superpixels(m, sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert out[1, 1] == 65534 and out[11, 11] == 2
    expected = m.copy()
    expected[1, 1], expected[11, 11] = 65534, 2
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p", [0.05, 0.3, 0.55, 1.0])
def test_determine_lambdas_matches_oracle(k, p):
    rng = np.random.default_rng(50 + k)
    for ties in (False, True):
        single = [[prob_map(rng, h, w, k, "forward", ties)] for h, w in SHAPES]
        mixed = [[prob_map(rng, h, w, k, layout, ties)
                  for (h, w), layout in zip(SHAPES, ["forward", "channel_last"] * 3)]]
        for maps in single + mixed:
            got = determine_lambdas(maps, p).lambdas
            np.testing.assert_array_equal(got, oracle.determine_lambdas(maps, p).lambdas)


def test_determine_lambdas_class_never_predicted():
    rng = np.random.default_rng(60)
    maps = [prob_map(rng, 5, 5, 3) for _ in range(3)]
    for m in maps:
        m[..., 1] = 0.0
        m /= m.sum(axis=-1, keepdims=True)
    got = determine_lambdas(maps, 0.4).lambdas
    np.testing.assert_array_equal(got, oracle.determine_lambdas(maps, 0.4).lambdas)
    assert got[1] == 0.0


def test_determine_lambdas_tall_map_equals_list():
    rng = np.random.default_rng(61)
    maps = [prob_map(rng, 6, 5, 3, ties=True) for _ in range(7)]
    for p in (0.1, 0.5, 1.0):
        np.testing.assert_array_equal(determine_lambdas([np.concatenate(maps)], p).lambdas,
                                      determine_lambdas(maps, p).lambdas)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("layout", ["channel_last", "forward"])
def test_refine_probs_by_classification_matches_oracle(k, layout):
    rng = np.random.default_rng(40 + k)
    for h, w in SHAPES + [(0, 4), (24, 8)]:
        p = prob_map(rng, h, w, k, layout)
        before = p.copy()
        for lesion in (0.3, 1.0, rng.random((h, 1, 1)), rng.random((h, w, 1))):
            got = toy_pipeline.refine_probs_by_classification(p, lesion)
            want = oracle.refine_probs_by_classification(p, lesion)
            assert got.shape == want.shape == (h, w, k)
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(p, before)


def test_superpixel_bits_of_each_image():
    data = gen_synthetic(SynthConfig(image_size=12, source_count=1, target_count=4, seed=3))
    images = data["target"]["images"]
    params = SlicParams(n_segments=9)
    bits = _superpixel_bits(images, params)
    assert bits.dtype == np.uint8 and bits.shape == (len(images), 12, 12)
    for i, im in enumerate(images):
        np.testing.assert_array_equal(bits[i], neighbour_bits(slic(im, params)))


def bits_block(sps):
    """The NeighbourBits of stacked images' maps, as train hands a block to generate."""
    return NeighbourBits(np.concatenate([neighbour_bits(sp) for sp in sps]))


def superpixel_maps(rng, n, h, w):
    """n maps of random IDs, some speckled and some in tiles, so that some
    pixels keep most of their neighbors and others few."""
    yy, xx = np.mgrid[:h, :w]
    return [rng.integers(0, rng.integers(1, 5), (h, w)) if i % 2 else
            (yy // rng.integers(2, 9)) * w + xx // rng.integers(2, 9) for i in range(n)]


@pytest.mark.parametrize("side", [16, 32, 64])
@pytest.mark.parametrize("ignore_frac", [0.0, 0.25, 0.5, 0.75, 0.9, 1.0])
def test_bits_of_stacked_images_match_the_offset_tall_map(side, ignore_frac):
    """A block spanning several images votes with the stacked per-image
    bitmaps exactly as the oracle votes on the offset int32 tall map."""
    rng = np.random.default_rng(side + int(100 * ignore_frac))
    k = 3
    for _ in range(5):
        n = int(rng.integers(2, 6))
        sps = superpixel_maps(rng, n, side, side)
        tall = oracle.offset_stack(sps).astype(np.int32)
        m = random_mask(rng, n * side, side, range(k), ignore_frac)
        want = oracle.refine_with_superpixels(m, tall)
        np.testing.assert_array_equal(refine_with_superpixels(m, bits_block(sps)), want)
        p = prob_map(rng, n * side, side, k, "forward")
        t = ClassThresholds(rng.uniform(0.0, 1.5, k))
        np.testing.assert_array_equal(generate(p, t, bits_block(sps)), oracle.generate(p, t, tall))


@pytest.mark.parametrize("h,w", [(1, 1), (1, 9), (9, 1), (6, 7)])
def test_bits_on_degenerate_maps_match_the_oracle(h, w):
    """1-pixel-wide images, one superpixel per image, and one superpixel
    per pixel (n_segments == H*W), where no bit is set and nothing fills."""
    rng = np.random.default_rng(h * 10 + w)
    n = 3
    img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    own = np.arange(h * w, dtype=np.int32).reshape(h, w)
    cases = {"one superpixel": [np.zeros((h, w), np.int32)] * n,
             "one per pixel": [own] * n,
             "slic at n_segments == H*W": [slic(img, SlicParams(n_segments=h * w))] * n}
    assert not neighbour_bits(own).any()
    for name, sps in cases.items():
        for ignore_frac in (0.0, 0.5, 0.9, 1.0):
            m = random_mask(rng, n * h, w, [0, 1, 2], ignore_frac)
            got = refine_with_superpixels(m, bits_block(sps))
            np.testing.assert_array_equal(
                got, oracle.refine_with_superpixels(m, oracle.offset_stack(sps)), err_msg=name)
            if name == "one per pixel":
                np.testing.assert_array_equal(got, m)


@pytest.mark.parametrize("use_pl", [True, False])
def test_train_target_passes_per_epoch(monkeypatch, use_pl):
    """Each pass over the target images forwards all of them once, in
    order (here in one block).  Without pseudo labels an epoch makes one
    pass, the evaluation.  With them it makes two, the pseudo-label pass
    and the evaluation, and an initial pass gathers the first epoch's
    threshold values: one threshold reading, pseudo-label block and
    evaluation block per epoch."""
    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("segmenter_forward", "generate", "accumulate"):
        count(toy_pipeline, name)
    count(toy_pipeline.ClassValues, "lambdas")
    data = gen_synthetic(SynthConfig(image_size=8, source_count=4, target_count=5, seed=1))
    result = train(TrainConfig(epochs=3, use_pl=use_pl, slic=SlicParams(n_segments=4)), data)
    want = {"segmenter_forward": 7, "lambdas": 3, "generate": 3, "accumulate": 3}
    if not use_pl:
        want = {"segmenter_forward": 3, "accumulate": 3}
    assert calls == want
    assert len(result.pseudo_masks) == 5
    assert all(m.shape == (8, 8) and m.dtype == np.uint16 for m in result.pseudo_masks)


def suppress_class(num, monkeypatch):
    """Make init_models, in train and in the oracle, give class `num` a
    bias so low that no pixel is ever predicted as it."""
    original = toy_pipeline.init_models

    def init(*args):
        models = original(*args)
        models.segmenter[-1, num] -= 50.0
        return models
    monkeypatch.setattr(toy_pipeline, "init_models", init)
    monkeypatch.setattr(oracle, "init_models", init)


STREAM_CASES = {
    # name: (synth, train config, target image labels or None)
    "blocks": (dict(source_count=6, target_count=5), {}, None),
    "k3": (dict(num_classes=3, source_count=6, target_count=5), {}, None),
    "refine_gate": (dict(source_count=6, target_count=5),
                    dict(refine_by_classification=True, gate_by_image_label=True),
                    [0, 1, 0, 1, 1]),
    # at 12x12 the gate removes lesion labels; each block has its own healthy rows
    "gate": (dict(image_size=12, source_count=8, target_count=5),
             dict(gate_by_image_label=True, slic=SlicParams(n_segments=9)), [0, 0, 1, 1, 0]),
    "never_predicted": (dict(source_count=6, target_count=5), {}, None),
    "small_target": (dict(source_count=9, target_count=2), {}, None),
    "no_pl": (dict(source_count=6, target_count=5), dict(use_pl=False), None),
    # without ADV, train leaves out target rows whose masks hold no label
    "no_adv": (dict(source_count=6, target_count=5), dict(use_adv=False), None),
    "bl": (dict(source_count=6, target_count=5),
           dict(use_pl=False, use_srt=False, use_adv=False), None),
}


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_streamed_target_pass_matches_tall_map_oracle(monkeypatch, case):
    """train, forwarding the target images in blocks of two (the last one
    partial), writes the logs, pseudo masks and weights of the oracle's
    loop over one tall map of all target images, byte for byte."""
    synth, overrides, target_labels = STREAM_CASES[case]
    synth = {"image_size": 8, **synth}
    data = gen_synthetic(SynthConfig(seed=2, **synth))
    if target_labels is not None:
        data["target"]["image_labels"] = target_labels
    lambdas = []
    if case == "never_predicted":
        data["num_classes"] = 3
        suppress_class(2, monkeypatch)
        read = toy_pipeline.ClassValues.lambdas

        def recorded(self, p):
            lambdas.append(read(self, p).lambdas)
            return ClassThresholds(lambdas[-1])
        monkeypatch.setattr(toy_pipeline.ClassValues, "lambdas", recorded)
    cfg = TrainConfig(**{"epochs": 3, "batch_size": 4, "learning_rate": 0.5, "seed": 2,
                         "slic": SlicParams(n_segments=4), **overrides})
    want = oracle.train(cfg, data)
    if case == "gate":
        ungated = oracle.train(dataclasses.replace(cfg, gate_by_image_label=False), data)
        assert ungated.log != want.log
    monkeypatch.setattr(toy_pipeline, "_BLOCK_PIXELS", 2 * synth["image_size"] ** 2)
    got = train(cfg, data)
    assert json.dumps(got.log, sort_keys=True) == json.dumps(want.log, sort_keys=True)
    assert got.pseudo_masks.tobytes() == want.pseudo_masks.tobytes()
    for a, b in zip(got.models, want.models):
        assert a.tobytes() == b.tobytes()
    if case == "never_predicted":
        assert len(lambdas) == 3 and all(lam[2] == 0.0 for lam in lambdas)
    if overrides.get("use_pl", True):
        assert np.any(got.pseudo_masks != IGNORE)


def test_gate_by_image_label_matches_oracle():
    """Healthy-labelled images lose their lesion pseudo labels, as in the
    per-image loop; without the gate some of them keep lesion pixels."""
    data = gen_synthetic(SynthConfig(image_size=12, source_count=8, target_count=6, seed=5))
    data["target"]["image_labels"] = [0, 1, 0, 1, 0, 0]
    healthy = [j for j, y in enumerate(data["target"]["image_labels"]) if y == 0]
    cfg = TrainConfig(epochs=2, learning_rate=0.5, seed=5, gate_by_image_label=True)
    got, want = train(cfg, data), step_oracle.train(cfg, data)
    for a, b in zip(got.pseudo_masks, want.pseudo_masks):
        assert a.tobytes() == b.tobytes()
    assert all(not np.any((got.pseudo_masks[j] >= 1) & (got.pseudo_masks[j] != IGNORE))
               for j in healthy)
    ungated = train(TrainConfig(epochs=2, learning_rate=0.5, seed=5), data)
    assert any(np.any((ungated.pseudo_masks[j] >= 1) & (ungated.pseudo_masks[j] != IGNORE))
               for j in healthy)


def test_train_checks_target_inputs():
    data = gen_synthetic(SynthConfig(image_size=8, source_count=2, target_count=2, seed=4))
    data["target"]["eval_masks"][1] = data["target"]["eval_masks"][1][:, :6]
    with pytest.raises(DimensionMismatchError):
        train(TrainConfig(epochs=1), data)
    for key in ("images", "image_labels", "eval_masks"):
        data["target"][key] = []
    with pytest.raises(EmptyInputError):
        train(TrainConfig(epochs=1), data)


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    n=st.integers(1, 5), h=st.integers(1, 6), w=st.integers(1, 6), k=st.integers(2, 3),
    n_sp=st.integers(1, 4), ties=st.booleans(), seed=st.integers(0, 2**32 - 1),
)
def test_tall_generate_equals_per_image(n, h, w, k, n_sp, ties, seed):
    """Refinement never votes across an image border once IDs are offset,
    and permuting the images permutes the output."""
    rng = np.random.default_rng(seed)
    probs = [prob_map(rng, h, w, k, "forward", ties) for _ in range(n)]
    # raw IDs overlap between images, so un-offset they would join across borders
    sps = [rng.integers(0, n_sp, (h, w)) for _ in range(n)]
    t = ClassThresholds(rng.uniform(0.0, 1.5, k))
    per_image = [generate(p, t, sp) for p, sp in zip(probs, sps)]

    tall = generate(np.concatenate(probs), t, oracle.offset_stack(sps))
    np.testing.assert_array_equal(tall, np.concatenate(per_image))

    order = rng.permutation(n)
    permuted = generate(np.concatenate([probs[i] for i in order]), t,
                        oracle.offset_stack([sps[i] for i in order]))
    np.testing.assert_array_equal(permuted.reshape(n, h, w), tall.reshape(n, h, w)[order])
    np.testing.assert_array_equal(tall, oracle.generate(np.concatenate(probs), t,
                                                        oracle.offset_stack(sps)))
