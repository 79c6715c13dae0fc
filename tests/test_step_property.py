"""Property test: on random shapes, masks and weights the stacked step
agrees with the per-image oracle to 1e-12 relative."""

import numpy as np
import pytest

from segtransfer.core import IGNORE
from segtransfer.losses import LossWeights
from segtransfer.toy_pipeline import ToyModels, init_models
from segtransfer.transfer import CentroidBank
from test_step_oracle import assert_step_matches, stacked

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    h=st.integers(1, 6), w=st.integers(1, 6), d=st.integers(1, 5), k=st.integers(2, 4),
    n_s=st.integers(1, 4), n_t=st.integers(1, 4),
    ignore_frac=st.sampled_from([0.0, 0.5, 1.0]),
    use_adv=st.booleans(), use_srt=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_step_matches_oracle(h, w, d, k, n_s, n_t, ignore_frac, use_adv, use_srt,
                                     seed):
    rng = np.random.default_rng(seed)

    def masks(n):
        out = rng.integers(0, k, (n, h, w)).astype(np.uint16)
        out[rng.random((n, h, w)) < ignore_frac] = IGNORE
        return out

    src = rng.random((n_s, h, w, d)), masks(n_s), rng.integers(0, 2, n_s)
    tgt = rng.random((n_t, h, w, d)), masks(n_t), rng.integers(0, 2, n_t)
    batch = stacked(*map(np.concatenate, zip(src, tgt)), n_s)
    models = ToyModels(*(rng.normal(0.0, 1.0, w.shape) for w in init_models(d, k, 0)))
    banks = [CentroidBank(num_classes=k, dim=k, gamma=0.7,
                          centroids=rng.normal(size=(k, k)), steps=1) for _ in range(2)]
    weights = LossWeights(eta=float(rng.uniform(0, 2)), mu=float(rng.uniform(0, 5)),
                          alpha=float(rng.uniform(0, 2)),
                          lambda_global=float(rng.uniform(0, 1)))
    assert_step_matches(models, batch, banks, weights, use_adv, use_srt)
