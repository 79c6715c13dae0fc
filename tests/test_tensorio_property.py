"""Property test: a TNSR file cut anywhere short of its end, or with one
byte appended, is rejected as malformed, for every dtype and rank."""

import numpy as np
import pytest

from segtransfer import tensorio
from segtransfer.errors import TensorFormatError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DTYPES = {tensorio.DTYPE_U8: np.uint8, tensorio.DTYPE_U16: np.uint16,
          tensorio.DTYPE_F32: np.float32}


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    code=st.sampled_from(sorted(DTYPES)),
    shape=st.lists(st.integers(0, 4), min_size=1, max_size=4),
    extra=st.integers(0, 255),
    seed=st.integers(0, 2**32 - 1),
)
def test_truncated_or_padded_file_rejected(code, shape, extra, seed):
    arr = (255 * np.random.default_rng(seed).random(shape)).astype(DTYPES[code])
    blob = tensorio.tensor_bytes(arr, code)
    np.testing.assert_array_equal(tensorio.tensor_from_bytes(blob), arr)
    for cut in range(len(blob)):
        with pytest.raises(TensorFormatError):
            tensorio.tensor_from_bytes(blob[:cut])
    with pytest.raises(TensorFormatError):
        tensorio.tensor_from_bytes(blob + bytes([extra]))
