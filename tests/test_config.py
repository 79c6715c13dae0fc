"""The CLI's flat config: defaults derived from the config dataclasses,
flags that override keys by name, and values the casts must not
silently reinterpret."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from segtransfer import tensorio
from segtransfer.cli import CONFIG_DEFAULTS, _build, load_config, main
from segtransfer.superpixel import SlicParams, slic
from segtransfer.toy_pipeline import TrainConfig

from test_cli import tiny_dataset, write_config  # noqa: F401  (fixture)

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# train's echoed config for a file that sets epochs 5, seed 7 and use_pl
# true, run with --epochs 1 --seed 4 --no-pl
ECHOED_CONFIG = """{
  "alpha": 1.0,
  "batch_size": 4,
  "compactness": 10.0,
  "enforce_connectivity": true,
  "epochs": 1,
  "eta": 0.3,
  "gamma": 0.7,
  "gate_by_image_label": false,
  "image_size": 12,
  "lambda_global": 0.0,
  "learning_rate": 0.3,
  "lr_decay_rate": 0.7,
  "lr_decay_step": 950,
  "mu": 10.0,
  "n_segments": 9,
  "num_classes": 2,
  "p0": 0.25,
  "p_max": 0.55,
  "p_step": 0.05,
  "refine_by_classification": false,
  "seed": 4,
  "shift_brightness": 60.0,
  "shift_noise": 4.0,
  "slic_iterations": 10,
  "source_count": 6,
  "target_count": 4,
  "use_adv": true,
  "use_pl": false,
  "use_srt": true
}
"""


def readme_config_table():
    """{key: default} from the README's configuration table; a row with
    one default gives it to every key of the row."""
    text = Path(README).read_text()
    section = text.split("### Configuration", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        keys_cell, default_cell = (c.strip() for c in line.strip("|").split("|")[:2])
        keys = re.findall(r"`([^`]+)`", keys_cell)
        defaults = [json.loads(d.strip()) for d in default_cell.split(",")]
        if len(defaults) == 1:
            defaults *= len(keys)
        assert len(defaults) == len(keys), line
        rows.extend(zip(keys, defaults))
    return rows


class TestDefaults:
    def test_readme_table_matches_derived_defaults(self):
        rows = readme_config_table()
        keys = [k for k, _ in rows]
        assert len(keys) == len(set(keys)), "a key is listed twice"
        assert set(keys) == set(CONFIG_DEFAULTS)
        for key, default in rows:
            derived = CONFIG_DEFAULTS[key]
            assert type(default) is type(derived) and default == derived, key

    def test_defaults_build_the_default_dataclasses(self):
        assert _build(TrainConfig, CONFIG_DEFAULTS) == TrainConfig()
        assert _build(SlicParams, CONFIG_DEFAULTS) == SlicParams()

    def test_renamed_keys(self):
        cfg = load_config(None, {"p_step": 0.1, "slic_iterations": 3})
        tcfg = _build(TrainConfig, cfg)
        assert tcfg.schedule.step == 0.1 and tcfg.slic.iterations == 3
        assert "step" not in CONFIG_DEFAULTS and "iterations" not in CONFIG_DEFAULTS


class TestOverrides:
    def test_override_beats_file_key(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", epochs=5, n_segments=4)
        got = load_config(cfg, {"epochs": 2, "n_segments": None, "out": "x", "quiet": True})
        # None leaves the file key; keys that are not config keys are ignored
        assert got["epochs"] == 2 and got["n_segments"] == 4
        assert "out" not in got and "quiet" not in got

    def test_slic_flag_beats_file_key(self, tiny_dataset, tmp_path):
        _, data_dir, _ = tiny_dataset
        img = os.path.join(data_dir, "target", "images", "im_0000.tnsr")
        file_key = write_config(tmp_path / "f.json", n_segments=30, compactness=50.0)
        a, b = str(tmp_path / "a.tnsr"), str(tmp_path / "b.tnsr")
        assert main(["--quiet", "--config", file_key, "slic", img, "--out", a,
                     "--n-segments", "9", "--compactness", "5"]) == 0
        assert main(["--quiet", "slic", img, "--out", b,
                     "--n-segments", "9", "--compactness", "5"]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()
        expect = _build(SlicParams, {**CONFIG_DEFAULTS, "n_segments": 9, "compactness": 5.0})
        np.testing.assert_array_equal(tensorio.read_tensor(a),
                                      slic(tensorio.read_tensor(img), expect))

    def test_echoed_config_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", image_size=12, source_count=6,
                           target_count=4, epochs=5, learning_rate=0.3,
                           n_segments=9, seed=7, use_pl=True)
        data_dir, out = str(tmp_path / "data"), str(tmp_path / "run")
        assert main(["--quiet", "--config", cfg, "gen-synth", data_dir]) == 0
        assert main(["--quiet", "--config", cfg, "--seed", "4", "train", data_dir,
                     "--out", out, "--epochs", "1", "--no-pl"]) == 0
        assert Path(out, "config.json").read_text() == ECHOED_CONFIG
        rec = json.loads(Path(out, "log.jsonl").read_text())
        assert rec["epoch"] == 0 and rec["pl_fraction"] == 0.0


class TestNoSilentCasts:
    @pytest.mark.parametrize("raw", [b'{"epochs": 1', b'\xff\xfe{}'])
    def test_config_that_is_not_json(self, tmp_path, raw):
        """A truncated document, or bytes that are not UTF-8: exit 2, not
        a traceback."""
        cfg = tmp_path / "c.json"
        cfg.write_bytes(raw)
        assert main(["--quiet", "--config", str(cfg), "gen-synth", str(tmp_path / "d")]) == 2
        assert not os.path.exists(tmp_path / "d")

    @pytest.mark.parametrize("doc", [
        {"use_pl": "false"}, {"use_srt": 0}, {"enforce_connectivity": 1},
        {"refine_by_classification": None},
    ])
    def test_bool_needs_json_boolean(self, tmp_path, doc):
        cfg = write_config(tmp_path / "c.json", **doc)
        assert main(["--quiet", "--config", cfg, "gen-synth", str(tmp_path / "d")]) == 2
        assert not os.path.exists(tmp_path / "d")

    @pytest.mark.parametrize("doc", [
        {"epochs": 1.7}, {"epochs": True}, {"n_segments": 9.5}, {"seed": False},
        {"image_size": float("inf")}, {"batch_size": float("nan")}, {"epochs": "1"},
    ])
    def test_int_needs_integral_number(self, tmp_path, doc):
        cfg = write_config(tmp_path / "c.json", **doc)
        assert main(["--quiet", "--config", cfg, "gen-synth", str(tmp_path / "d")]) == 2
        assert not os.path.exists(tmp_path / "d")

    @pytest.mark.parametrize("doc", [
        {"shift_noise": True}, {"shift_noise": "4"}, {"learning_rate": float("nan")},
        {"eta": float("inf")}, {"mu": float("-inf")}, {"compactness": None},
    ])
    def test_float_needs_finite_number(self, tmp_path, doc):
        cfg = write_config(tmp_path / "c.json", **doc)
        assert main(["--quiet", "--config", cfg, "gen-synth", str(tmp_path / "d")]) == 2
        assert not os.path.exists(tmp_path / "d")

    def test_train_rejects_strings_and_non_finite(self, tiny_dataset, tmp_path, capsys):
        """Each of these once trained: the strings were echoed as written,
        and a NaN learning rate wrote NaN into every loss of the log."""
        _, data_dir, _ = tiny_dataset
        runs = [(["--config", write_config(tmp_path / "c0.json", shift_noise=True,
                                           epochs="1")], []),
                (["--config", write_config(tmp_path / "c1.json",
                                           learning_rate=float("nan"))], []),
                ([], ["--learning-rate", "nan"])]
        for i, (before, after) in enumerate(runs):
            out = str(tmp_path / f"run{i}")
            assert main(["--quiet", *before, "train", data_dir, "--out", out, *after]) == 2
            assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert "shift_noise must be a finite number, got true" in err
        assert "learning_rate must be a finite number, got NaN" in err

    def test_train_rejects_both(self, tiny_dataset, tmp_path, capsys):
        _, data_dir, _ = tiny_dataset
        for i, doc in enumerate(({"use_pl": "false"}, {"epochs": 1.7})):
            cfg = write_config(tmp_path / f"c{i}.json", **doc)
            out = str(tmp_path / f"run{i}")
            assert main(["--quiet", "--config", cfg, "train", data_dir, "--out", out]) == 2
            assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert 'use_pl must be true or false, got "false"' in err
        assert "epochs must be an integer, got 1.7" in err

    def test_integral_float_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", epochs=2.0, image_size=12.0)
        tcfg = _build(TrainConfig, load_config(cfg))
        assert tcfg.epochs == 2 and type(tcfg.epochs) is int
        assert main(["--quiet", "--config", cfg, "gen-synth", str(tmp_path / "d")]) == 0

    @pytest.mark.parametrize("key,value", [("learning_rate", 10 ** 400), ("eta", -10 ** 400)])
    def test_float_past_float_range(self, tmp_path, capsys, key, value):
        """A JSON integer too large for a float names its key, where it
        once exited with Python's "int too large to convert to float"."""
        cfg = write_config(tmp_path / "c.json", **{key: value})
        assert main(["--quiet", "--config", cfg, "gen-synth", str(tmp_path / "d")]) == 2
        assert not os.path.exists(tmp_path / "d")
        assert capsys.readouterr().err == f"error: {key} must be a finite number, got {value}\n"

    @pytest.mark.parametrize("text", ["[1]", "3", '"epochs"', "null"])
    def test_config_must_be_an_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["--quiet", "--config", str(cfg), "gen-synth", str(tmp_path / "d")]) == 2
        assert not os.path.exists(tmp_path / "d")
        assert capsys.readouterr().err == "error: config must be a flat JSON object\n"


# one value per invariant that a config dataclass checks, and its message
INVARIANTS = [
    ({"image_size": 7}, "image_size must be >= 8"),
    ({"source_count": 0}, "domain counts must be >= 1"),
    ({"target_count": 0}, "domain counts must be >= 1"),
    ({"num_classes": 1}, "num_classes must be >= 2"),
    ({"epochs": -1}, "epochs must be >= 0 and batch_size >= 1"),
    ({"batch_size": 0}, "epochs must be >= 0 and batch_size >= 1"),
    ({"learning_rate": -0.1}, "learning_rate must be >= 0 and lr_decay_step >= 1"),
    ({"lr_decay_step": 0}, "learning_rate must be >= 0 and lr_decay_step >= 1"),
    ({"lr_decay_rate": 0.0}, "lr_decay_rate must be in (0, 1]"),
    ({"lr_decay_rate": 1.5}, "lr_decay_rate must be in (0, 1]"),
    ({"gamma": 1.0}, "gamma must be in [0, 1)"),
    ({"gamma": -0.1}, "gamma must be in [0, 1)"),
    ({"n_segments": 0}, "n_segments must be >= 1"),
    ({"compactness": 0.0}, "compactness must be > 0"),
    ({"slic_iterations": 0}, "iterations must be >= 1"),
    ({"eta": -1.0}, "eta must be finite and >= 0"),
    ({"mu": -1.0}, "mu must be finite and >= 0"),
    ({"alpha": -1.0}, "alpha must be finite and >= 0"),
    ({"lambda_global": -1.0}, "lambda_global must be finite and >= 0"),
    ({"p_step": -0.05}, "schedule step must be >= 0"),
    ({"p0": 0.0}, "schedule requires 0 < p0 <= p_max <= 1"),
]


@pytest.mark.parametrize("doc,message", INVARIANTS, ids=[str(d) for d, _ in INVARIANTS])
def test_config_invariants_exit_2_unwritten(tmp_path, capsys, doc, message):
    """Every invariant of SynthConfig, TrainConfig, SlicParams,
    LossWeights and CurriculumSchedule is checked when the config loads:
    exit 2 with one error line, and no output written."""
    cfg = write_config(tmp_path / "c.json", **doc)
    out = tmp_path / "d"
    assert main(["--quiet", "--config", cfg, "gen-synth", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()
