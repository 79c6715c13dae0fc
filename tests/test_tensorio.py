import numpy as np
import pytest

from segtransfer import tensorio
from segtransfer.errors import TensorFormatError


class TestRoundTrip:
    def test_float32(self, tmp_path):
        arr = np.random.default_rng(0).random((4, 5, 3)).astype(np.float32)
        path = tmp_path / "t.tnsr"
        tensorio.write_tensor(path, arr, tensorio.DTYPE_F32)
        back = tensorio.read_tensor(path)
        assert back.dtype == np.dtype("<f4")
        np.testing.assert_array_equal(back, arr)

    def test_uint16_mask(self, tmp_path):
        arr = np.array([[0, 1], [65535, 3]], dtype=np.uint16)
        path = tmp_path / "m.tnsr"
        tensorio.write_tensor(path, arr, tensorio.DTYPE_U16)
        np.testing.assert_array_equal(tensorio.read_tensor(path), arr)

    def test_uint8_image(self, tmp_path):
        arr = np.random.default_rng(1).integers(0, 256, (7, 9), dtype=np.uint8)
        path = tmp_path / "i.tnsr"
        tensorio.write_tensor(path, arr, tensorio.DTYPE_U8)
        np.testing.assert_array_equal(tensorio.read_tensor(path), arr)

    def test_bytes_roundtrip_bit_exact(self):
        arr = np.random.default_rng(2).random((3, 3)).astype(np.float32)
        blob = tensorio.tensor_bytes(arr)
        back = tensorio.tensor_from_bytes(blob)
        assert tensorio.tensor_bytes(back) == blob

    def test_1d_and_4d(self, tmp_path):
        for shape in ((6,), (2, 3, 2, 2)):
            arr = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
            path = tmp_path / "x.tnsr"
            tensorio.write_tensor(path, arr)
            np.testing.assert_array_equal(tensorio.read_tensor(path), arr)


class TestHeaderLayout:
    def test_exact_bytes(self):
        arr = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        blob = tensorio.tensor_bytes(arr, tensorio.DTYPE_U8)
        assert blob[:4] == b"TNSR"
        assert blob[4] == 1          # version
        assert blob[5] == 3          # dtype u8
        assert blob[6] == 2          # ndim
        assert blob[7:15] == (2).to_bytes(4, "little") * 2
        assert blob[15:] == bytes([1, 2, 3, 4])

    def test_payload_is_tightly_packed(self):
        arr = np.zeros((2, 2), dtype=np.float32)
        blob = tensorio.tensor_bytes(arr)
        assert len(blob) == 4 + 3 + 8 + 16


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(TensorFormatError):
            tensorio.tensor_from_bytes(b"NOPE" + bytes(20))

    def test_truncated_payload(self):
        arr = np.zeros((2, 2), dtype=np.uint8)
        blob = tensorio.tensor_bytes(arr)
        with pytest.raises(TensorFormatError):
            tensorio.tensor_from_bytes(blob[:-1])

    def test_bad_version(self):
        arr = np.zeros(2, dtype=np.uint8)
        blob = bytearray(tensorio.tensor_bytes(arr))
        blob[4] = 9
        with pytest.raises(TensorFormatError):
            tensorio.tensor_from_bytes(bytes(blob))

    def test_range_check_for_unsigned(self):
        with pytest.raises(TensorFormatError):
            tensorio.tensor_bytes(np.array([-1, 2]), tensorio.DTYPE_U16)

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "a.tnsr"
        tensorio.write_tensor(path, np.zeros(3, dtype=np.uint8))
        leftovers = [p for p in tmp_path.iterdir() if p.name != "a.tnsr"]
        assert leftovers == []


class TestNoSilentNarrowing:
    @pytest.mark.parametrize("value", [np.nan, 1.5, -0.25, np.inf])
    @pytest.mark.parametrize("code", [tensorio.DTYPE_U16, tensorio.DTYPE_U8])
    def test_unsigned_rejects_nan_and_fractions(self, value, code):
        with pytest.raises(TensorFormatError):
            tensorio.tensor_bytes(np.array([0.0, value]), code)

    def test_unsigned_accepts_integral_floats(self):
        blob = tensorio.tensor_bytes(np.array([0.0, 3.0, 65535.0]), tensorio.DTYPE_U16)
        np.testing.assert_array_equal(tensorio.tensor_from_bytes(blob), [0, 3, 65535])

    @pytest.mark.parametrize("value", [1e39, -3.5e38])
    def test_float32_rejects_finite_overflow(self, value):
        with pytest.raises(TensorFormatError):
            tensorio.tensor_bytes(np.array([1.0, value]))

    def test_float32_keeps_non_finite_values(self):
        arr = np.array([np.nan, np.inf, -np.inf, 1e-50])
        back = tensorio.tensor_from_bytes(tensorio.tensor_bytes(arr, tensorio.DTYPE_F32))
        np.testing.assert_array_equal(back, arr.astype(np.float32))
