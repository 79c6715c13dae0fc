import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from segtransfer import cli, tensorio, toy_pipeline
from segtransfer.cli import main
from segtransfer.core import IGNORE

from test_metrics import shifted_square_fixture


def write_config(path, **kv):
    with open(path, "w") as fh:
        json.dump(kv, fh)
    return str(path)


@pytest.fixture()
def tiny_dataset(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", image_size=12, source_count=6,
                       target_count=4, epochs=2, learning_rate=0.3,
                       n_segments=9, seed=7)
    data_dir = str(tmp_path / "data")
    assert main(["--config", cfg, "--quiet", "gen-synth", data_dir]) == 0
    return cfg, data_dir, tmp_path


class TestGenSynth:
    def test_layout_and_weak_supervision(self, tiny_dataset):
        _, data_dir, _ = tiny_dataset
        assert sorted(os.listdir(os.path.join(data_dir, "source", "images"))) == \
            [f"im_{i:04d}.tnsr" for i in range(6)]
        assert len(os.listdir(os.path.join(data_dir, "source", "masks"))) == 6
        # no mask files anywhere under the target training subtree
        for root, _, files in os.walk(os.path.join(data_dir, "target")):
            assert all(not f.endswith(".tnsr") or "images" in root for f in files)
        assert not os.path.isdir(os.path.join(data_dir, "target", "masks"))
        assert len(os.listdir(os.path.join(data_dir, "target_eval", "masks"))) == 4
        assert os.path.exists(os.path.join(data_dir, "config.json"))

    def test_byte_identical_regeneration(self, tiny_dataset, tmp_path):
        cfg, data_dir, _ = tiny_dataset
        other = str(tmp_path / "data2")
        assert main(["--config", cfg, "--quiet", "gen-synth", other]) == 0
        for sub in ("source/images", "source/masks", "target/images",
                    "target_eval/masks"):
            for name in os.listdir(os.path.join(data_dir, sub)):
                a = Path(data_dir, sub, name).read_bytes()
                b = Path(other, sub, name).read_bytes()
                assert a == b, f"{sub}/{name} differs"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "bad.json", image_size=12, typo_key=3)
        assert main(["--config", cfg, "gen-synth", str(tmp_path / "x")]) == 2


class TestThresholdsCmd:
    def make_probs(self, tmp_path, n=3, k=2):
        d = tmp_path / "probs"
        d.mkdir()
        rng = np.random.default_rng(5)
        for i in range(n):
            raw = rng.random((8, 8, k)) + 1e-3
            p = (raw / raw.sum(-1, keepdims=True)).astype(np.float32)
            tensorio.write_tensor(d / f"p{i}.tnsr", p, tensorio.DTYPE_F32)
        return str(d)

    def test_writes_reloadable_json(self, tmp_path):
        d = self.make_probs(tmp_path)
        out = str(tmp_path / "thr.json")
        assert main(["--quiet", "thresholds", d, "--p", "0.4", "--out", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["K"] == 2 and len(doc["lambdas"]) == 2

    def test_uniform_map(self, tmp_path):
        d = tmp_path / "u"
        d.mkdir()
        p = np.full((4, 4, 2), 0.5, dtype=np.float32)
        tensorio.write_tensor(d / "u.tnsr", p, tensorio.DTYPE_F32)
        out = str(tmp_path / "thr.json")
        assert main(["--quiet", "thresholds", str(d), "--p", "0.5",
                     "--out", out]) == 0
        doc = json.loads(Path(out).read_text())
        # every pixel argmaxes to class 0 at 0.5; class 1 never predicted
        assert doc["lambdas"][0] == pytest.approx(np.log(2.0))
        assert doc["lambdas"][1] == 0.0

    def test_p_out_of_range(self, tmp_path):
        d = self.make_probs(tmp_path)
        assert main(["--quiet", "thresholds", d, "--p", "1.5",
                     "--out", str(tmp_path / "t.json")]) == 2

    def test_empty_dir(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["--quiet", "thresholds", str(d), "--p", "0.5",
                     "--out", str(tmp_path / "t.json")]) == 2

    def test_nan_map_rejected(self, tmp_path):
        d = self.make_probs(tmp_path)
        p = tensorio.read_tensor(os.path.join(d, "p1.tnsr"))
        p[2, 3, 0] = np.nan
        tensorio.write_tensor(os.path.join(d, "p1.tnsr"), p, tensorio.DTYPE_F32)
        out = str(tmp_path / "t.json")
        assert main(["--quiet", "thresholds", d, "--p", "0.4", "--out", out]) == 2
        assert not os.path.exists(out)

    def test_printed_selection_fractions(self, tmp_path, capsys):
        from segtransfer.pseudo_label import assign_initial
        from segtransfer.thresholds import ClassThresholds
        d = self.make_probs(tmp_path, n=3, k=3)
        out = str(tmp_path / "thr.json")
        assert main(["thresholds", d, "--p", "0.4", "--out", out]) == 0
        thr = ClassThresholds.from_json_dict(json.loads(Path(out).read_text()))
        masks = [assign_initial(tensorio.read_tensor(os.path.join(d, f"p{i}.tnsr"))
                                .astype(np.float64), thr) for i in range(3)]
        total = sum(m.size for m in masks)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        for k in range(3):
            frac = sum(int((m == k).sum()) for m in masks) / total
            assert lines[1 + k] == (f"  class {k}: threshold {thr.thresholds[k]:.6f}, "
                                    f"selected {frac:.4f} of all pixels")


class TestSlicCmd:
    def test_writes_u16_map(self, tiny_dataset, tmp_path):
        _, data_dir, _ = tiny_dataset
        img = os.path.join(data_dir, "target", "images", "im_0000.tnsr")
        out = str(tmp_path / "sp.tnsr")
        assert main(["--quiet", "slic", img, "--out", out, "--n-segments", "9"]) == 0
        sp = tensorio.read_tensor(out)
        assert sp.dtype == np.dtype("<u2")
        assert sp.shape == (12, 12)

    def test_deterministic(self, tiny_dataset, tmp_path):
        _, data_dir, _ = tiny_dataset
        img = os.path.join(data_dir, "target", "images", "im_0001.tnsr")
        a, b = str(tmp_path / "a.tnsr"), str(tmp_path / "b.tnsr")
        main(["--quiet", "slic", img, "--out", a, "--n-segments", "9"])
        main(["--quiet", "slic", img, "--out", b, "--n-segments", "9"])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    @pytest.mark.parametrize("blob", [
        # four dims of 2**16 and no payload: their int64 product wraps to 0
        b"TNSR" + bytes([1, tensorio.DTYPE_U8, 4]) + (65536).to_bytes(4, "little") * 4,
        tensorio.tensor_bytes(np.zeros(0, dtype=np.uint8)),  # a valid 1-D tensor
    ], ids=["dims-overflow", "1-d-image"])
    def test_malformed_image_is_exit_2(self, tmp_path, capfd, blob):
        img = tmp_path / "img.tnsr"
        img.write_bytes(blob)
        out = tmp_path / "sp.tnsr"
        capfd.readouterr()
        assert main(["--quiet", "slic", str(img), "--out", str(out)]) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


    @pytest.mark.parametrize("width,code", [(65534, 0), (65535, 2)])
    def test_segments_past_the_map_format(self, tmp_path, capfd, width, code):
        """On a uniform 1-pixel-high image every pixel is a segment: 65534
        segments fit the u16 map beside IGNORE, 65535 exit 2 unwritten."""
        img = tmp_path / "flat.tnsr"
        tensorio.write_tensor(img, np.zeros((1, width), dtype=np.uint8))
        cfg = write_config(tmp_path / "c.json", n_segments=width, slic_iterations=1)
        out = tmp_path / "sp.tnsr"
        capfd.readouterr()
        assert main(["--quiet", "--config", cfg, "slic", str(img), "--out", str(out)]) == code
        if code:
            assert capfd.readouterr().err == \
                "error: 65535 segments exceed the 16-bit map format\n"
            assert not out.exists()
        else:
            assert int(tensorio.read_tensor(out).max()) == 65533


class TestPseudolabelCmd:
    def test_pipeline_matches_library(self, tiny_dataset, tmp_path):
        cfg, data_dir, _ = tiny_dataset
        img_path = os.path.join(data_dir, "target", "images", "im_0000.tnsr")
        rng = np.random.default_rng(3)
        raw = rng.random((12, 12, 2)) + 1e-3
        probs = (raw / raw.sum(-1, keepdims=True)).astype(np.float32)
        probs_path = str(tmp_path / "probs.tnsr")
        tensorio.write_tensor(probs_path, probs, tensorio.DTYPE_F32)
        thr_path = str(tmp_path / "thr.json")
        Path(thr_path).write_text(json.dumps({"K": 2, "lambdas": [0.4, 0.4]}))
        out = str(tmp_path / "mask.tnsr")
        assert main(["--config", cfg, "--quiet", "pseudolabel", probs_path,
                     thr_path, img_path, "--out", out]) == 0

        from segtransfer.cli import _build, load_config
        from segtransfer.pseudo_label import generate
        from segtransfer.superpixel import SlicParams, slic
        from segtransfer.thresholds import ClassThresholds
        img = tensorio.read_tensor(img_path)
        sp = slic(img, _build(SlicParams, load_config(cfg)))
        expect = generate(probs.astype(np.float64), ClassThresholds(np.array([0.4, 0.4])), sp)
        np.testing.assert_array_equal(tensorio.read_tensor(out), expect)

    def test_all_one_thresholds_all_ignore(self, tiny_dataset, tmp_path):
        cfg, data_dir, _ = tiny_dataset
        img_path = os.path.join(data_dir, "target", "images", "im_0000.tnsr")
        probs = np.full((12, 12, 2), 0.5, dtype=np.float32)
        probs_path = str(tmp_path / "p.tnsr")
        tensorio.write_tensor(probs_path, probs, tensorio.DTYPE_F32)
        thr_path = str(tmp_path / "t.json")
        Path(thr_path).write_text(json.dumps({"K": 2, "lambdas": [0.0, 0.0]}))
        out = str(tmp_path / "m.tnsr")
        assert main(["--config", cfg, "--quiet", "pseudolabel", probs_path,
                     thr_path, img_path, "--out", out]) == 0
        assert np.all(tensorio.read_tensor(out) == IGNORE)

    @pytest.mark.parametrize("text", [
        '{"K": 2, "lambdas": [0.4, 0.4]',
        b'\xff\xfe',
        '{"K": 2.7, "lambdas": [0.4, 0.4]}',
        '{"K": "2", "lambdas": [0.4, 0.4]}',
        '{"K": true, "lambdas": [0.4]}',
        '{"K": 2, "lambdas": ["0.1", true]}',
    ])
    def test_malformed_thresholds_rejected(self, tiny_dataset, tmp_path, capfd, text):
        """A thresholds file that is not JSON, or whose K or lambdas would
        have to be reinterpreted, is exit 2 with one error line, as the
        config is."""
        cfg, data_dir, _ = tiny_dataset
        img_path = os.path.join(data_dir, "target", "images", "im_0000.tnsr")
        probs_path = str(tmp_path / "p.tnsr")
        tensorio.write_tensor(probs_path, np.full((12, 12, 2), 0.5, dtype=np.float32),
                              tensorio.DTYPE_F32)
        thr_path = tmp_path / "t.json"
        if isinstance(text, bytes):
            thr_path.write_bytes(text)
        else:
            thr_path.write_text(text)
        out = str(tmp_path / "m.tnsr")
        capfd.readouterr()
        assert main(["--config", cfg, "--quiet", "pseudolabel", probs_path,
                     str(thr_path), img_path, "--out", out]) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not os.path.exists(out)

    def test_k_must_match_lambdas(self, tiny_dataset, tmp_path, capfd):
        cfg, data_dir, _ = tiny_dataset
        img_path = os.path.join(data_dir, "target", "images", "im_0000.tnsr")
        probs_path = str(tmp_path / "p.tnsr")
        tensorio.write_tensor(probs_path, np.full((12, 12, 2), 0.5, dtype=np.float32),
                              tensorio.DTYPE_F32)
        thr_path = str(tmp_path / "t.json")
        Path(thr_path).write_text(json.dumps({"K": 3, "lambdas": [0.4, 0.4]}))
        out = str(tmp_path / "m.tnsr")
        capfd.readouterr()
        assert main(["--config", cfg, "--quiet", "pseudolabel", probs_path,
                     thr_path, img_path, "--out", out]) == 2
        assert capfd.readouterr().err == \
            "error: thresholds document: K does not match lambdas length\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probs_rejected(self, tiny_dataset, tmp_path, bad):
        cfg, data_dir, _ = tiny_dataset
        img_path = os.path.join(data_dir, "target", "images", "im_0000.tnsr")
        probs = np.full((12, 12, 2), 0.5, dtype=np.float32)
        probs[0, 0] = (bad, 0.5)
        probs_path = str(tmp_path / "p.tnsr")
        tensorio.write_tensor(probs_path, probs, tensorio.DTYPE_F32)
        thr_path = str(tmp_path / "t.json")
        Path(thr_path).write_text(json.dumps({"K": 2, "lambdas": [0.4, 0.4]}))
        out = str(tmp_path / "m.tnsr")
        assert main(["--config", cfg, "--quiet", "pseudolabel", probs_path,
                     thr_path, img_path, "--out", out]) == 2
        assert not os.path.exists(out)


def write_float_mask(path, bad):
    """Overwrite a mask with a float32 one whose values are not class codes."""
    mask = tensorio.read_tensor(path).astype(np.float32)
    mask[0, :2] = (1.7, 0.2) if bad == "fraction" else np.nan
    tensorio.write_tensor(path, mask, tensorio.DTYPE_F32)


class TestTrainCmd:
    def assert_rejected(self, cfg, data_dir, out):
        """Exit 2, and no run directory left behind."""
        assert main(["--config", cfg, "--quiet", "train", data_dir, "--out", out,
                     "--epochs", "1"]) == 2
        assert not os.path.exists(out)

    def test_outputs_and_zero_epochs(self, tiny_dataset, tmp_path):
        cfg, data_dir, _ = tiny_dataset
        out = str(tmp_path / "run0")
        assert main(["--config", cfg, "--quiet", "train", data_dir, "--out", out,
                     "--epochs", "0"]) == 0
        assert Path(out, "log.jsonl").read_text() == ""
        csv_lines = Path(out, "log.csv").read_text().splitlines()
        assert len(csv_lines) == 1 and csv_lines[0].startswith("epoch,")

    def test_zero_epochs_on_images_too_small_for_slic(self, tmp_path):
        """8x8 images hold fewer pixels than the default 100 segments, yet
        a run with 0 epochs never runs SLIC: it exits 0 and writes one
        all-IGNORE pseudo mask per target image."""
        cfg = write_config(tmp_path / "cfg.json", image_size=8, source_count=4,
                           target_count=3, seed=1)
        data_dir, out = str(tmp_path / "data"), tmp_path / "run"
        assert main(["--config", cfg, "--quiet", "gen-synth", data_dir]) == 0
        assert main(["--config", cfg, "--quiet", "train", data_dir, "--out", str(out),
                     "--epochs", "0"]) == 0
        names = sorted(os.listdir(out / "pseudo_labels"))
        assert len(names) == 3
        for name in names:
            assert (tensorio.read_tensor(str(out / "pseudo_labels" / name)) == IGNORE).all()

    def test_training_outputs(self, tiny_dataset, tmp_path):
        cfg, data_dir, _ = tiny_dataset
        out = str(tmp_path / "run1")
        assert main(["--config", cfg, "--quiet", "train", data_dir, "--out", out]) == 0
        lines = Path(out, "log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[-1])
        for key in ("L_C", "L_S", "L_D", "L_SRT", "total", "miou"):
            assert key in rec
        assert os.path.exists(os.path.join(out, "models", "segmenter.tnsr"))
        assert len(os.listdir(os.path.join(out, "pseudo_labels"))) == 4
        # centroid banks: K x D matrix plus sidecar with gamma and steps
        bank = tensorio.read_tensor(os.path.join(out, "models", "centroids_source.tnsr"))
        assert bank.shape == (2, 2)
        side = json.loads(Path(out, "models", "centroids_source.json").read_text())
        assert side["gamma"] == 0.7 and side["steps"] > 0

    @pytest.mark.parametrize("name", ["../../../outside", "..", "", "a/b", "a\\b"])
    def test_dataset_names_stay_inside(self, tiny_dataset, tmp_path, name):
        cfg, data_dir, _ = tiny_dataset
        # a readable tensor where "../../../outside" would resolve
        src = os.path.join(data_dir, "target", "images", "im_0000.tnsr")
        with open(src, "rb") as fh, open(tmp_path / "outside.tnsr", "wb") as out:
            out.write(fh.read())
        labels_path = Path(data_dir, "target", "labels.json")
        doc = json.loads(labels_path.read_text())
        doc["files"][0] = name
        labels_path.write_text(json.dumps(doc))
        self.assert_rejected(cfg, data_dir, str(tmp_path / "run"))

    @pytest.mark.parametrize("sub", ["source", "target"])
    @pytest.mark.parametrize("edit", ["short", "long"])
    def test_image_labels_must_match_files(self, tiny_dataset, tmp_path, sub, edit):
        """A labels.json with one image label per file or bust: exit 2, not
        a traceback, and no shifted labels."""
        cfg, data_dir, _ = tiny_dataset
        labels_path = Path(data_dir, sub, "labels.json")
        doc = json.loads(labels_path.read_text())
        labels = doc["image_labels"]
        doc["image_labels"] = labels[:-1] if edit == "short" else [*labels, 0]
        labels_path.write_text(json.dumps(doc))
        self.assert_rejected(cfg, data_dir, str(tmp_path / "run"))

    @pytest.mark.parametrize("label", [2, -1, "1", True, 0.5])
    def test_image_labels_must_be_0_or_1(self, tiny_dataset, tmp_path, label):
        """1 - label would go negative in the classifier's cross-entropy."""
        cfg, data_dir, _ = tiny_dataset
        labels_path = Path(data_dir, "source", "labels.json")
        doc = json.loads(labels_path.read_text())
        doc["image_labels"][0] = label
        labels_path.write_text(json.dumps(doc))
        self.assert_rejected(cfg, data_dir, str(tmp_path / "run"))

    @pytest.mark.parametrize("sub", ["source", "target"])
    @pytest.mark.parametrize("text", [
        '{"files": ["im_0000"]}',
        '{"image_labels": [0]}',
        '["im_0000", 0]',
        '{"files": "im_0000", "image_labels": [0]}',
        '{"files": ["im_0000"], "image_labels": 0}',
        '{"files": null, "image_labels": null}',
        '{"files": [',
    ])
    def test_malformed_labels_json(self, tiny_dataset, tmp_path, sub, text):
        """labels.json must be an object whose files and image_labels are
        lists: anything else is exit 2, not a traceback or an I/O error."""
        cfg, data_dir, _ = tiny_dataset
        Path(data_dir, sub, "labels.json").write_text(text)
        self.assert_rejected(cfg, data_dir, str(tmp_path / "run"))

    def test_empty_source_set(self, tiny_dataset, tmp_path):
        cfg, data_dir, _ = tiny_dataset
        Path(data_dir, "source", "labels.json").write_text('{"files": [], "image_labels": []}')
        self.assert_rejected(cfg, data_dir, str(tmp_path / "run"))

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_too_many_segments(self, tiny_dataset, tmp_path, capfd, monkeypatch, n_workers):
        """SLIC's error, met in every worker, is reported once, by the caller
        alone, and no worker is left behind."""
        cfg, data_dir, _ = tiny_dataset
        monkeypatch.setattr(toy_pipeline, "_cpu_count", lambda: n_workers)
        cfg = write_config(tmp_path / "segs.json", **{**json.loads(Path(cfg).read_text()),
                                                     "n_segments": 12 * 12 + 1})
        capfd.readouterr()
        self.assert_rejected(cfg, data_dir, str(tmp_path / "run"))
        out, err = capfd.readouterr()
        assert out == ""
        assert err == "error: 145 segments requested for 144 pixels\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_train_reads_the_arrays_it_loads(self, tiny_dataset, tmp_path, monkeypatch):
        """The dataset is loaded as stack_dataset's arrays, not per-image
        lists, and train reads those arrays, not copies of them."""
        cfg, data_dir, _ = tiny_dataset
        loaded, read = [], []
        real_load, real_pool = cli._load_dataset, toy_pipeline._pooled_features
        monkeypatch.setattr(cli, "_load_dataset",
                            lambda path: loaded.append(real_load(path)) or loaded[-1])
        monkeypatch.setattr(toy_pipeline, "_pooled_features",
                            lambda images, features:
                            read.append(images) or real_pool(images, features))
        assert main(["--config", cfg, "--quiet", "train", data_dir,
                     "--out", str(tmp_path / "run")]) == 0
        (data, names), = loaded
        assert names == [f"im_{i:04d}" for i in range(4)]
        for domain, mask_key, n in (("source", "masks", 6), ("target", "eval_masks", 4)):
            part = data[domain]
            assert part["images"].shape == (n, 12, 12, 1) and part["images"].dtype == np.uint8
            assert part[mask_key].shape == (n, 12, 12) and part[mask_key].dtype == np.uint16
            assert isinstance(part["image_labels"], np.ndarray)
            assert part["image_labels"].shape == (n,)
        assert [np.shares_memory(images, data[domain]["images"])
                for images, domain in zip(read, ("source", "target"))] == [True, True]

    def test_load_holds_each_array_once(self, tiny_dataset):
        """Each file is read straight into its row of its domain's stacks:
        the load's traced peak is the arrays it returns and one file, plus
        the Python objects of the label documents, paths and array headers,
        and never a second copy of the data."""
        _, data_dir, _ = tiny_dataset
        largest = max(os.path.getsize(os.path.join(root, f))
                      for root, _, files in os.walk(data_dir) for f in files)
        cli._load_dataset(data_dir)  # first-call allocations are not the load's
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            data, _ = cli._load_dataset(data_dir)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        nbytes = sum(arr.nbytes for domain in ("source", "target")
                     for arr in data[domain].values())
        assert peak < nbytes + largest + 6 * 1024

    @pytest.mark.parametrize("sub,name,shape,code,message", [
        ("source/images", "im_0003", (12, 10), tensorio.DTYPE_U8,
         "source: {} has shape (12, 10, 1), not (12, 12, 1)"),
        ("target_eval/masks", "im_0001", (10, 12), tensorio.DTYPE_U16,
         "target: {} has shape (10, 12), not (12, 12)"),
        ("target/images", "im_0002", (12, 12), tensorio.DTYPE_U16,
         "target: {} is uint16, not uint8"),
    ], ids=["image size", "mask size", "image dtype"])
    def test_file_unlike_its_domain_rejected(self, tiny_dataset, tmp_path, capfd, monkeypatch,
                                             sub, name, shape, code, message):
        """An image or mask of another size than its domain's first image,
        or an image of another TNSR dtype, exits 2 with one line naming
        the domain and the file, before SLIC runs."""
        cfg, data_dir, _ = tiny_dataset

        def refuse(*args):
            raise AssertionError("_superpixel_bits ran on a rejected dataset")

        monkeypatch.setattr(toy_pipeline, "_superpixel_bits", refuse)
        path = os.path.join(data_dir, sub, name + ".tnsr")
        tensorio.write_tensor(path, np.zeros(shape), code)
        capfd.readouterr()
        self.assert_rejected(cfg, data_dir, str(tmp_path / "run"))
        assert capfd.readouterr().err == "error: " + message.format(path) + "\n"

    @pytest.mark.parametrize("edit", ["u8 eval masks", "image with a channel axis"])
    def test_equivalent_files_train_alike(self, tiny_dataset, tmp_path, edit):
        """u8 eval masks widen losslessly, and an (H, W, 1) image is the
        (H, W) one: either trains to the same bytes as the files gen-synth
        wrote."""
        cfg, data_dir, _ = tiny_dataset
        runs = [str(tmp_path / "before"), str(tmp_path / "after")]
        assert main(["--config", cfg, "--quiet", "train", data_dir, "--out", runs[0]]) == 0
        if edit == "u8 eval masks":
            for path in Path(data_dir, "target_eval", "masks").iterdir():
                tensorio.write_tensor(path, tensorio.read_tensor(path), tensorio.DTYPE_U8)
        else:
            path = Path(data_dir, "source", "images", "im_0002.tnsr")
            tensorio.write_tensor(path, tensorio.read_tensor(path)[..., None])
        assert main(["--config", cfg, "--quiet", "train", data_dir, "--out", runs[1]]) == 0
        trees = [{p.relative_to(run): p.read_bytes() for p in Path(run).rglob("*") if p.is_file()}
                 for run in runs]
        assert trees[0] == trees[1]

    def test_ablation_flags(self, tiny_dataset, tmp_path):
        cfg, data_dir, _ = tiny_dataset
        out = str(tmp_path / "run2")
        assert main(["--config", cfg, "--quiet", "train", data_dir, "--out", out,
                     "--no-pl", "--no-srt", "--no-adv"]) == 0
        rec = json.loads(Path(out, "log.jsonl").read_text().splitlines()[-1])
        assert rec["L_D"] == 0.0 and rec["L_SRT"] == 0.0 and rec["pl_fraction"] == 0.0

    def test_eval_class_missing_from_source_masks(self, tiny_dataset, tmp_path):
        """K comes from the source masks; an eval mask with a larger class
        is a validation error (exit 2), not a traceback."""
        cfg, data_dir, _ = tiny_dataset
        path = os.path.join(data_dir, "target_eval", "masks", "im_0000.tnsr")
        gt = tensorio.read_tensor(path).copy()
        gt[0, 0] = 5
        tensorio.write_tensor(path, gt, tensorio.DTYPE_U16)
        self.assert_rejected(cfg, data_dir, str(tmp_path / "run"))

    @pytest.mark.parametrize("sub", ["source/masks", "target_eval/masks"])
    @pytest.mark.parametrize("bad", ["fraction", "nan"])
    def test_float_masks_rejected(self, tiny_dataset, tmp_path, sub, bad):
        """Only integer-coded masks are labels: a float32 mask holding 1.7
        and 0.2 would train as classes 1 and 0, and a NaN would crash the
        class count (exit 1)."""
        cfg, data_dir, _ = tiny_dataset
        write_float_mask(os.path.join(data_dir, sub, "im_0001.tnsr"), bad)
        self.assert_rejected(cfg, data_dir, str(tmp_path / "run"))

    @pytest.mark.parametrize("epochs", ["0", "1"])
    @pytest.mark.parametrize("code,value,message", [
        (tensorio.DTYPE_U16, 5, "target mask 2 holds 5, neither IGNORE nor a label in [0, 2)"),
        (tensorio.DTYPE_U8, 255,
         "target mask 2 holds 255, neither IGNORE nor a label in [0, 2)"),
        (tensorio.DTYPE_F32, 1.7, "a label mask must be u8 or u16, not float32"),
    ])
    def test_eval_mask_checked_before_any_work(self, tiny_dataset, tmp_path, capfd, monkeypatch,
                                               epochs, code, value, message):
        """Whatever --epochs is, a target_eval mask holding a class the
        source masks lack, or of a float dtype, exits 2 with one line
        naming it, before SLIC runs, and leaves no run directory."""
        cfg, data_dir, _ = tiny_dataset
        calls = []
        monkeypatch.setattr(toy_pipeline, "_superpixel_bits", lambda *args: calls.append(args))
        path = os.path.join(data_dir, "target_eval", "masks", "im_0002.tnsr")
        gt = tensorio.read_tensor(path).astype(np.float32)
        gt[0, 0] = value
        tensorio.write_tensor(path, gt, code)
        out = str(tmp_path / "run")
        capfd.readouterr()
        assert main(["--config", cfg, "--quiet", "train", data_dir, "--out", out,
                     "--epochs", epochs]) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not os.path.exists(out)
        assert calls == []

    def test_byte_identical_logs(self, tiny_dataset, tmp_path):
        cfg, data_dir, _ = tiny_dataset
        out_a, out_b = str(tmp_path / "ra"), str(tmp_path / "rb")
        assert main(["--config", cfg, "--quiet", "train", data_dir, "--out", out_a]) == 0
        assert main(["--config", cfg, "--quiet", "train", data_dir, "--out", out_b]) == 0
        for name in ("log.jsonl", "log.csv"):
            assert Path(out_a, name).read_bytes() == Path(out_b, name).read_bytes()


class TestEvalCmd:
    def test_identical_masks(self, tiny_dataset, tmp_path, capsys):
        _, data_dir, _ = tiny_dataset
        gt = os.path.join(data_dir, "target_eval", "masks")
        assert main(["--quiet", "eval", gt, gt]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["miou"] == 1.0

    def test_shifted_square_fixture(self, tmp_path, capsys):
        pred, gt = shifted_square_fixture()
        pd, gd = tmp_path / "pred", tmp_path / "gt"
        pd.mkdir()
        gd.mkdir()
        tensorio.write_tensor(pd / "a.tnsr", pred, tensorio.DTYPE_U16)
        tensorio.write_tensor(gd / "a.tnsr", gt, tensorio.DTYPE_U16)
        assert main(["--quiet", "eval", str(pd), str(gd)]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["miou"] == pytest.approx(0.583333, abs=1e-4)

    @pytest.mark.parametrize("side", ["pred", "gt"])
    @pytest.mark.parametrize("bad", ["fraction", "nan"])
    def test_float_masks_rejected(self, tiny_dataset, tmp_path, capsys, side, bad):
        """A float32 mask is exit 2 on either side: 1.7 and 0.2 are not
        classes 1 and 0, and a NaN is not a traceback."""
        _, data_dir, _ = tiny_dataset
        gt = os.path.join(data_dir, "target_eval", "masks")
        pred = tmp_path / "pred"
        pred.mkdir()
        for name in os.listdir(gt):
            tensorio.write_tensor(pred / name, tensorio.read_tensor(os.path.join(gt, name)),
                                  tensorio.DTYPE_U16)
        bad_dir = str(pred) if side == "pred" else gt
        write_float_mask(os.path.join(bad_dir, "im_0001.tnsr"), bad)
        assert main(["--quiet", "eval", str(pred), gt]) == 2
        assert capsys.readouterr().out == ""

    def test_u8_masks_accepted(self, tmp_path, capsys):
        pred, gt = shifted_square_fixture()
        pd, gd = tmp_path / "pred", tmp_path / "gt"
        pd.mkdir()
        gd.mkdir()
        tensorio.write_tensor(pd / "a.tnsr", pred.astype(np.uint8), tensorio.DTYPE_U8)
        tensorio.write_tensor(gd / "a.tnsr", gt, tensorio.DTYPE_U16)
        assert main(["--quiet", "eval", str(pd), str(gd)]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["miou"] == pytest.approx(0.583333, abs=1e-4)

    def test_differing_file_sets(self, tiny_dataset, tmp_path, capsys):
        _, data_dir, _ = tiny_dataset
        gt = os.path.join(data_dir, "target_eval", "masks")
        pred = tmp_path / "pred"
        pred.mkdir()
        tensorio.write_tensor(pred / "im_0000.tnsr",
                              tensorio.read_tensor(os.path.join(gt, "im_0000.tnsr")))
        assert main(["--quiet", "eval", str(pred), gt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: prediction and ground-truth file sets differ\n"

    def test_out_writes_the_printed_line(self, tiny_dataset, tmp_path, capsys):
        _, data_dir, _ = tiny_dataset
        gt = os.path.join(data_dir, "target_eval", "masks")
        out = tmp_path / "miou.json"
        assert main(["--quiet", "eval", gt, gt, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_text() == printed
        assert json.loads(printed)["miou"] == 1.0

    def test_empty_dirs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        assert main(["--quiet", "eval", str(a), str(b)]) == 2

    def test_missing_directory_is_io_error(self, tmp_path):
        assert main(["--quiet", "eval", str(tmp_path / "nope"),
                     str(tmp_path / "nope2")]) == 3


class TestGradcheckCmd:
    def test_exit_zero(self):
        assert main(["--quiet", "gradcheck"]) == 0

    def test_reports_blocks(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        for block in ("classifier", "segmenter", "discriminator"):
            assert block in out

    def test_deterministic_per_seed(self):
        from segtransfer.toy_pipeline import gradcheck
        assert gradcheck(3) == gradcheck(3)

    def test_failure_is_exit_4(self, monkeypatch, capsys):
        report = {"classifier": 1e-9, "segmenter": 2e-3, "discriminator": 1e-9, "max": 2e-3}
        monkeypatch.setattr(cli, "gradcheck", lambda *seed: report)
        assert main(["--quiet", "gradcheck"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numeric failure: gradient check failed: max relative error 2.000e-03\n"
