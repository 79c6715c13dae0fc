"""A float image holding a NaN or an infinity is rejected before SLIC does
any work, by the library and by CLI `slic` and `pseudolabel`."""

import json

import numpy as np
import pytest

from segtransfer import tensorio
from segtransfer.cli import main
from segtransfer.errors import OutOfRangeError
from segtransfer.superpixel import SlicParams, slic


def _image(channels, dtype, bad):
    shape = (12, 12) if channels is None else (12, 12, channels)
    img = np.random.default_rng(0).uniform(0, 255, shape).astype(dtype)
    img[3, 5] = bad
    return img


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("channels", [None, 1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_non_finite_image_rejected(bad, channels, dtype):
    # pytest turns numpy warnings into errors, so a check that came after
    # any arithmetic on the image would fail with a RuntimeWarning instead
    with pytest.raises(OutOfRangeError):
        slic(_image(channels, dtype, bad), SlicParams(n_segments=9))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_finite_float_image_equals_its_uint8(dtype):
    img = np.random.default_rng(1).integers(0, 256, (12, 12, 3), dtype=np.uint8)
    want = slic(img, SlicParams(n_segments=9))
    assert slic(img.astype(dtype), SlicParams(n_segments=9)).tobytes() == want.tobytes()


def _nan_image(tmp_path, channels):
    path = tmp_path / "img.tnsr"
    tensorio.write_tensor(path, _image(channels, np.float32, np.nan), tensorio.DTYPE_F32)
    return str(path)


def _assert_one_error_line(capfd):
    captured = capfd.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("channels", [None, 3])
def test_cli_slic_exit_2(tmp_path, capfd, channels):
    img = _nan_image(tmp_path, channels)
    out = tmp_path / "sp.tnsr"
    capfd.readouterr()
    assert main(["slic", img, "--out", str(out), "--n-segments", "9"]) == 2
    _assert_one_error_line(capfd)
    assert not out.exists()


@pytest.mark.parametrize("channels", [None, 3])
def test_cli_pseudolabel_exit_2(tmp_path, capfd, channels):
    img = _nan_image(tmp_path, channels)
    probs = tmp_path / "probs.tnsr"
    tensorio.write_tensor(probs, np.full((12, 12, 2), 0.5, dtype=np.float32), tensorio.DTYPE_F32)
    thr = tmp_path / "thr.json"
    thr.write_text(json.dumps({"K": 2, "lambdas": [0.4, 0.4]}))
    out = tmp_path / "mask.tnsr"
    capfd.readouterr()
    assert main(["pseudolabel", str(probs), str(thr), img, "--out", str(out)]) == 2
    _assert_one_error_line(capfd)
    assert not out.exists()
