"""Generator structure, moment sanity at 3-sigma, and determinism."""

import hashlib

import numpy as np
import pytest

from relconf.core import ConfigError
from relconf.dgp import (
    LONG_N,
    LONG_P,
    SMALL_N,
    SUITES,
    _long_block,
    gen_long,
    gen_setting,
    gen_small,
)

# sha256 of each suite's rows, queries and labels (``_suite_digest``) for
# seeds 0, 1 and 7, recorded when gen_small and gen_long each had their own
# loop; every byte-stable CSV and golden file is drawn from these suites
RECORDED_DIGESTS = {
    "small": {
        0: "d9547e936605e88d195e7b422e39ae3cca44cac28f67c3e17ff34f8e87fbcf2c",
        1: "234137d4a11e83ff353acdfb5803ee5de2c7cdefea76bd9459ba841f737b2a1a",
        7: "6b73b9992e048665bbfd7d36596e17e3c834a9a28264cee846522298f2e8af1f",
    },
    "long": {
        0: "fa4a05561e29ec12d3daccac6501c4ec8470be416374bfd1b627e3a22676117c",
        1: "dc0f4d9dca1caca31dca2fbdd257b1485428cea018cfd8206715548914730716",
        7: "45770ef21d10df8991bf49b6e1729db1dafc9dace8aa6bffb8c1be748bcd3355",
    },
}


def _suite_digest(out) -> str:
    h = hashlib.sha256()
    h.update(out.dataset.x.tobytes())
    h.update(out.dataset.y.tobytes())
    for q in out.queries:
        h.update(q.x0.tobytes())
        h.update(repr(q.y0).encode())
    h.update(repr(out.setting_labels).encode())
    h.update(repr(out.query_labels).encode())
    return h.hexdigest()


@pytest.mark.parametrize("suite", ["small", "long"])
def test_suites_match_recorded_digests(suite):
    for seed, digest in RECORDED_DIGESTS[suite].items():
        assert _suite_digest(SUITES[suite](seed)) == digest, f"{suite} seed {seed}"


class TestSmallSuite:
    def test_shape_and_labels(self):
        out = gen_small(seed=7)
        assert out.dataset.n == 750
        assert out.dataset.p == 2
        assert out.setting_labels == ("A",) * 250 + ("B",) * 250 + ("C",) * 250
        assert out.query_labels == ("A", "B", "C")
        assert len(out.queries) == 3
        assert all(q.y0 is not None for q in out.queries)

    def test_setting_a_first_feature_mean(self):
        # x1 ~ Normal(1, 1): sample mean within 3/sqrt(250) of 1
        for seed in (0, 1, 2):
            out = gen_small(seed)
            x1 = out.dataset.x[:250, 0]
            assert abs(x1.mean() - 1.0) <= 3.0 / np.sqrt(250)

    def test_setting_b_second_feature_spread(self):
        # x2 ~ Normal(2, 2): sample sd within 3*2/sqrt(2n) of 2
        for seed in (0, 1, 2):
            out = gen_small(seed)
            x2 = out.dataset.x[250:500, 1]
            assert abs(x2.std(ddof=1) - 2.0) <= 3.0 * 2.0 / np.sqrt(2 * 250)

    def test_setting_c_noise_grows_with_first_feature(self):
        # residual spread in the top x1 quartile beats the bottom quartile
        wins = 0
        for seed in range(200):
            d, _ = gen_setting("C", seed=seed)
            resid = d.y - (0.5 * d.x[:, 0] ** 2 + 0.33 * d.x[:, 1])
            q1, q3 = np.quantile(d.x[:, 0], [0.25, 0.75])
            lo = resid[d.x[:, 0] <= q1]
            hi = resid[d.x[:, 0] >= q3]
            if hi.std(ddof=1) > lo.std(ddof=1):
                wins += 1
        assert wins >= 190

    def test_deterministic_in_seed(self):
        a, b = gen_small(11), gen_small(11)
        np.testing.assert_array_equal(a.dataset.x, b.dataset.x)
        np.testing.assert_array_equal(a.dataset.y, b.dataset.y)
        for qa, qb in zip(a.queries, b.queries):
            np.testing.assert_array_equal(qa.x0, qb.x0)
            assert qa.y0 == qb.y0

    def test_seeds_differ(self):
        assert not np.array_equal(gen_small(1).dataset.y, gen_small(2).dataset.y)

    def test_single_setting_helper(self):
        d, q = gen_setting("A", seed=3)
        assert (d.n, d.p) == (SMALL_N, 2)
        assert q.p == 2 and q.y0 is not None
        with pytest.raises(ConfigError):
            gen_setting("Z", seed=3)


class TestLongSuite:
    def test_shape_and_labels(self):
        out = gen_long(seed=5)
        assert out.dataset.n == 300
        assert out.dataset.p == LONG_P
        assert out.setting_labels.count("DGP_1") == LONG_N
        assert out.setting_labels.count("DGP_2") == LONG_N
        assert out.setting_labels.count("DGP_3") == LONG_N
        assert len(out.queries) == 15
        assert out.query_labels.count("DGP_2") == 5

    def test_exactly_ten_null_coefficients_per_block(self):
        rng = np.random.default_rng(0)
        for x_mean, beta_mean in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
            x, y, x0, y0, beta = _long_block(rng, x_mean, beta_mean)
            assert beta.shape == (12,)
            np.testing.assert_array_equal(beta[2:], np.zeros(10))
            assert np.all(beta[:2] != 0.0)
            np.testing.assert_allclose(y - x @ beta, y - x[:, :2] @ beta[:2])

    def test_mean_shift_block(self):
        # feature grand mean of the shifted block within 3/sqrt(1200) of 1
        for seed in (0, 1, 2):
            out = gen_long(seed)
            block = out.dataset.x[100:200]
            assert abs(block.mean() - 1.0) <= 3.0 / np.sqrt(1200)

    def test_deterministic_in_seed(self):
        a, b = gen_long(9), gen_long(9)
        np.testing.assert_array_equal(a.dataset.x, b.dataset.x)
        np.testing.assert_array_equal(a.dataset.y, b.dataset.y)
