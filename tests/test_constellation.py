import numpy as np
import pytest

from turbowdm.constellation import (
    L_MAX,
    NU2_FLOOR_REL,
    ConstellationError,
    bit_probs_from_llrs,
    build_constellation,
    extrinsic_llrs,
    hard_decide,
    map_bits,
    soft_stats,
    symbol_priors,
)


@pytest.fixture(scope="module")
def qam16():
    return build_constellation(16)


def brute_force_llrs(s_hat, mu, nu2, prior_llrs, c):
    """Exhaustive linear-domain marginalization oracle for one instant."""
    lik = np.exp(-np.abs(s_hat - mu * c.points) ** 2 / nu2)
    p1 = 1.0 / (1.0 + np.exp(-prior_llrs))
    p0 = 1.0 - p1
    out = np.empty(c.q)
    for l in range(c.q):
        num = den = 0.0
        for k in range(c.order):
            w = 1.0
            for r in range(c.q):
                if r == l:
                    continue
                w *= p1[r] if c.bit_labels[k, r] else p0[r]
            if c.bit_labels[k, l]:
                num += lik[k] * w
            else:
                den += lik[k] * w
        out[l] = np.log(num / den)
    return out


def reference_extrinsic_llrs(estimates, scale, noise_var, prior_llrs, c, l_max=L_MAX):
    """The full-grid demapper: log-domain sums over the (m, M) symbol grid,
    with bit l's own prior taken out of each symbol's weight."""
    s_hat = np.atleast_1d(np.asarray(estimates, dtype=complex))
    m = s_hat.size
    q = c.q
    mu = np.broadcast_to(np.asarray(scale, dtype=float), (m,))
    nu2 = np.asarray(noise_var, dtype=float)
    if np.any(nu2 <= 0):
        nu2 = np.maximum(nu2, NU2_FLOOR_REL * c.energy)
    nu2 = np.broadcast_to(nu2, (m,))
    loglik = -(np.abs(s_hat[:, None] - mu[:, None] * c.points[None, :]) ** 2)
    loglik /= nu2[:, None]
    if prior_llrs is None:
        lw_bit = np.zeros((m, q, 2))
    else:
        logp0, logp1 = bit_probs_from_llrs(np.asarray(prior_llrs, float).reshape(m, q))
        lw_bit = np.stack([logp0, logp1], axis=-1)  # (m, q, 2)
    b = c.bit_labels
    w_total = np.zeros((m, c.order))
    for r in range(q):
        w_total += lw_bit[:, r, b[:, r]]

    def logsumexp_masked(metric, mask):
        sub = metric[:, mask]
        mx = sub.max(axis=1)
        return mx + np.log(np.sum(np.exp(sub - mx[:, None]), axis=1))

    out = np.empty((m, q))
    for l in range(q):
        metric = loglik + w_total - lw_bit[:, l, b[:, l]]
        out[:, l] = logsumexp_masked(metric, b[:, l] == 1) - logsumexp_masked(
            metric, b[:, l] == 0
        )
    return np.clip(out, -l_max, l_max)


ORDERS = [4, 16, 64, 256]


class TestBuildConstellation:
    def test_qpsk_points(self, qpsk):
        expect = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        for e in expect:
            assert np.min(np.abs(qpsk.points - e)) < 1e-12
        assert abs(qpsk.energy - 1.0) < 1e-12

    @pytest.mark.parametrize("order,q", [(4, 2), (16, 4), (64, 6), (256, 8)])
    def test_unit_energy_and_q(self, order, q):
        c = build_constellation(order)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12
        assert c.q == q
        assert len(np.unique(np.round(c.points, 9))) == order

    def test_gray_adjacency_256(self):
        # every pair of nearest neighbors differs in exactly one label bit
        c = build_constellation(256)
        dmin = np.sqrt(2.0 * 3.0 / (256 - 1))
        n_adj = 0
        for a in range(256):
            for b in range(a + 1, 256):
                if abs(c.points[a] - c.points[b]) < dmin * 1.001:
                    n_adj += 1
                    assert np.sum(c.bit_labels[a] != c.bit_labels[b]) == 1
        assert n_adj == 2 * 16 * 15

    def test_unsupported_order(self):
        with pytest.raises(ConstellationError):
            build_constellation(8)


def reference_symbol_priors(llrs, c):
    """The full-grid soft mapper: an (m, M) table of symbol priors from
    (m, q) bit L-values, each row normalized to 1."""
    logp0, logp1 = bit_probs_from_llrs(np.asarray(llrs, dtype=float))
    b = c.bit_labels.astype(float)  # (M, q)
    logp = logp1 @ b.T + logp0 @ (1.0 - b.T)  # (m, M)
    logp -= logp.max(axis=1, keepdims=True)
    p = np.exp(logp)
    return p / p.sum(axis=1, keepdims=True)


def joint(priors):
    """(..., M) symbol priors from per-axis (..., 2, sqrt(M)) ones: point
    i*sqrt(M) + k has I level i and Q level k."""
    p_i, p_q = priors[..., 0, :], priors[..., 1, :]
    return (p_i[..., :, None] * p_q[..., None, :]).reshape(*priors.shape[:-2], -1)


class TestSymbolPriors:
    def test_zero_llrs_uniform(self, qpsk):
        p = symbol_priors(np.zeros(2), qpsk)
        assert p.shape == (2, 2)
        np.testing.assert_allclose(joint(p), 0.25, atol=1e-12)

    def test_saturated_llrs_point_mass(self, qam16):
        l = np.full(4, 40.0)
        p = joint(symbol_priors(l, qam16))
        target = np.nonzero((qam16.bit_labels == 1).all(axis=1))[0][0]
        assert p[target] > 1 - 1e-9

    def test_qpsk_partial(self, qpsk):
        # L = (ln 3, 0): split 0.75/0.25 along bit 1, 0.5/0.5 along bit 2
        p = joint(symbol_priors(np.array([np.log(3.0), 0.0]), qpsk))
        b = qpsk.bit_labels
        assert abs(p[b[:, 0] == 1].sum() - 0.75) < 1e-12
        assert abs(p[b[:, 1] == 1].sum() - 0.5) < 1e-12

    def test_normalization(self, qam16):
        rng = np.random.default_rng(0)
        p = symbol_priors(rng.normal(0, 10, (50, 4)), qam16)
        assert p.shape == (50, 2, 4)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(joint(p).sum(axis=-1), 1.0, atol=1e-12)

    def test_point_mass_roundtrip(self, qam16):
        # saturated L-values of one label recover that point mass
        for k in (0, 5, 15):
            l = 40.0 * (2.0 * qam16.bit_labels[k].astype(float) - 1.0)
            p = joint(symbol_priors(l, qam16))
            assert p[k] > 1 - 1e-9

    def test_length_mismatch(self, qpsk):
        for shape in [(3,), (5, 3), (2, 5, 4), ()]:
            with pytest.raises(ConstellationError):
                symbol_priors(np.zeros(shape), qpsk)


class TestSoftStats:
    def test_uniform(self, qam16):
        p = np.full((1, 2, 4), 1 / 4)
        mean, var = soft_stats(p, qam16)
        assert abs(mean[0]) < 1e-12
        assert abs(var[0] - 1.0) < 1e-12

    def test_point_mass(self, qam16):
        p = np.zeros((1, 2, 4))
        p[0, 0, 1] = p[0, 1, 3] = 1.0  # point 7 = 1 * 4 + 3
        mean, var = soft_stats(p, qam16)
        assert abs(mean[0] - qam16.points[7]) < 1e-12
        assert var[0] < 1e-12

    def test_qpsk_one_bit_known(self, qpsk):
        # bit 1 certain (+), bit 2 unknown: mean on the positive real axis
        p = symbol_priors(np.array([[40.0, 0.0]]), qpsk)
        mean, var = soft_stats(p, qpsk)
        assert abs(mean[0] - 1.0 / np.sqrt(2)) < 1e-9
        assert abs(var[0] - 0.5) < 1e-9

    def test_phase_rotation_invariance(self, qam16):
        rng = np.random.default_rng(1)
        p = symbol_priors(rng.normal(0, 2, (20, 4)), qam16)
        mean, var = soft_stats(p, qam16)
        rot = np.exp(1j * 0.7)
        c_rot = build_constellation(16)
        object.__setattr__(c_rot, "points", qam16.points * rot)
        mean_r, var_r = soft_stats(p, c_rot)
        np.testing.assert_allclose(mean_r, mean * rot, atol=1e-12)
        np.testing.assert_allclose(var_r, var, atol=1e-12)


class TestPerAxisSoftStats:
    """Per-axis priors and statistics against the full-grid soft mapper."""

    @staticmethod
    def llrs(kind, c, rng):
        shape = (2, 500, c.q)
        if kind == "random":
            return rng.normal(0, 4, shape)
        # saturated: every bit at or beyond the clip, either sign
        return rng.choice([-1.0, 1.0], shape) * rng.uniform(L_MAX, 1e3, shape)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("kind", ["random", "saturated"])
    def test_matches_full_grid(self, order, kind):
        c = build_constellation(order)
        rng = np.random.default_rng(40 + order)
        llrs = self.llrs(kind, c, rng)
        p = symbol_priors(llrs, c)
        assert p.shape == (2, 500, 2, c.axis_levels.size)
        table = reference_symbol_priors(llrs.reshape(-1, c.q), c).reshape(2, 500, -1)
        np.testing.assert_allclose(joint(p), table, atol=1e-12, rtol=0)
        mean, var = soft_stats(p, c)
        want_mean = table @ c.points
        want_var = np.maximum(table @ np.abs(c.points) ** 2 - np.abs(want_mean) ** 2, 0.0)
        np.testing.assert_allclose(mean, want_mean, atol=1e-12, rtol=0)
        np.testing.assert_allclose(var, want_var, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("order", ORDERS)
    def test_slices_match_whole_frame_bits(self, order):
        # the turbo loop takes the statistics a chunk of symbols at a time:
        # any slice of the symbols, one symbol per polarization included,
        # gives the bits of one call on the whole frame
        c = build_constellation(order)
        p = symbol_priors(self.llrs("random", c, np.random.default_rng(70 + order)), c)
        whole = soft_stats(p, c)
        for lo, hi in [(0, 1), (7, 8), (499, 500), (3, 10), (0, 500)]:
            for part, want in zip(soft_stats(p[:, lo:hi], c), whole):
                assert np.array_equal(part, want[:, lo:hi])


class TestExtrinsicLlrs:
    def test_qpsk_closed_form(self, qpsk):
        # real-axis bit LLR is 2*sqrt(2)*a for mu=1, nu2=1
        for a in (-0.9, -0.2, 0.4, 1.3):
            out, _ = extrinsic_llrs(np.array([a + 0j]), 1.0, 1.0, None, qpsk)
            assert abs(out[0, 0] - 2.0 * np.sqrt(2.0) * a) < 1e-9

    def test_midpoint_symmetry(self, qam16):
        out, _ = extrinsic_llrs(np.array([0.0 + 0j]), 1.0, 0.5, None, qam16)
        # bit 0 splits the I axis symmetrically at 0
        assert abs(out[0, 0]) < 1e-9

    @pytest.mark.parametrize("order", [4, 16])
    def test_brute_force_oracle(self, order):
        c = build_constellation(order)
        rng = np.random.default_rng(2)
        m = 200
        s_hat = rng.normal(0, 1, m) + 1j * rng.normal(0, 1, m)
        mu = rng.uniform(0.3, 1.0, m)
        nu2 = rng.uniform(0.05, 1.0, m)
        priors = rng.normal(0, 2, (m, c.q))
        out, _ = extrinsic_llrs(s_hat, mu, nu2, priors, c)
        for i in range(m):
            ref = brute_force_llrs(s_hat[i], mu[i], nu2[i], priors[i], c)
            np.testing.assert_allclose(out[i], ref, atol=1e-9)

    def test_own_prior_excluded(self, qam16):
        # shifting the prior L of bit l leaves L_e(b^l) unchanged
        rng = np.random.default_rng(3)
        s_hat = np.array([0.3 - 0.2j])
        priors = rng.normal(0, 1, (1, 4))
        base, _ = extrinsic_llrs(s_hat, 0.8, 0.3, priors, qam16)
        for l in range(4):
            shifted = priors.copy()
            shifted[0, l] += 5.0
            out, _ = extrinsic_llrs(s_hat, 0.8, 0.3, shifted, qam16)
            assert abs(out[0, l] - base[0, l]) < 1e-9

    def test_clipping(self, qpsk):
        out, _ = extrinsic_llrs(np.array([100.0 + 0j]), 1.0, 1e-3, None, qpsk)
        assert np.all(np.abs(out) <= 40.0)

    def test_noise_floor(self, qpsk):
        out, _ = extrinsic_llrs(np.array([0.5 + 0j]), 1.0, 0.0, None, qpsk)
        assert np.all(np.isfinite(out))


class TestPerAxisDemapper:
    """The per-axis demapper against the full-grid reference."""

    @staticmethod
    def channel(c, m, rng, spread=0.0):
        mu = rng.uniform(0.3, 1.0, m)
        s = c.points[rng.integers(0, c.order, m)]
        noise = rng.normal(0, 0.3, m) + 1j * rng.normal(0, 0.3, m)
        far = rng.uniform(-spread, spread, m) + 1j * rng.uniform(-spread, spread, m)
        return mu * s + noise + far, mu

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("per_symbol", [False, True])
    @pytest.mark.parametrize("with_priors", [False, True])
    def test_matches_full_grid(self, order, per_symbol, with_priors):
        c = build_constellation(order)
        rng = np.random.default_rng(order)
        m = 2000
        s_hat, mu = self.channel(c, m, rng)
        nu2 = rng.uniform(0.01, 1.0, m)
        if not per_symbol:
            mu, nu2 = 0.7, 0.2
        priors = rng.normal(0, 4, (m, c.q)) if with_priors else None
        args = (s_hat, mu, nu2, priors, c)
        for l_max in (L_MAX, np.inf):
            got, _ = extrinsic_llrs(*args, l_max=l_max)
            want = reference_extrinsic_llrs(*args, l_max=l_max)
            np.testing.assert_allclose(got, want, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("order", ORDERS)
    def test_zero_noise_variance_floored(self, order):
        c = build_constellation(order)
        rng = np.random.default_rng(10 + order)
        m = 1000
        s_hat, mu = self.channel(c, m, rng)
        priors = rng.normal(0, 4, (m, c.q))
        nu2 = np.where(rng.random(m) < 0.5, 0.0, 0.1)
        for nv in (0.0, nu2):
            got, _ = extrinsic_llrs(s_hat, mu, nv, priors, c)
            want = reference_extrinsic_llrs(s_hat, mu, nv, priors, c)
            np.testing.assert_allclose(got, want, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("l_max", [L_MAX, np.inf])
    def test_saturated(self, order, l_max):
        # nu2 = 1e-4 and symbols up to 3 outside the grid: |L| reaches ~1e5
        c = build_constellation(order)
        rng = np.random.default_rng(20 + order)
        m = 1000
        s_hat, mu = self.channel(c, m, rng, spread=3.0)
        priors = rng.normal(0, 4, (m, c.q))
        for p in (None, priors):
            got, _ = extrinsic_llrs(s_hat, mu, 1e-4, p, c, l_max=l_max)
            want = reference_extrinsic_llrs(s_hat, mu, 1e-4, p, c, l_max=l_max)
            np.testing.assert_allclose(got, want, atol=1e-9, rtol=0)
            assert np.max(np.abs(want)) >= min(l_max, 1e4)

    @pytest.mark.parametrize("with_priors", [False, True])
    def test_leading_dimensions_match_rows(self, with_priors):
        # one call for both polarizations gives each row's own call, bit for
        # bit, in both L-value sets
        c = build_constellation(64)
        rng = np.random.default_rng(50)
        s_hat, mu = self.channel(c, 600, rng)
        s_hat, mu = s_hat.reshape(2, 300), mu.reshape(2, 300)
        nu2 = rng.uniform(0.01, 1.0, (2, 300))
        priors = rng.normal(0, 4, (2, 300, c.q)) if with_priors else None
        got = extrinsic_llrs(s_hat, mu, nu2, priors, c)
        assert [g.shape for g in got] == [(2, 300, c.q)] * 2
        for p in range(2):
            row = extrinsic_llrs(s_hat[p], mu[p], nu2[p], None if priors is None else priors[p], c)
            for a, b in zip(got, row):
                np.testing.assert_array_equal(a[p], b)

    @pytest.mark.parametrize("chunk", [1, 7, 1201])
    @pytest.mark.parametrize("per_symbol", [False, True])
    @pytest.mark.parametrize("with_priors", [False, True])
    def test_chunks_match_one_whole_frame_pass(self, chunk, per_symbol, with_priors):
        # a caller that demaps one symbol per polarization, a non-divisor of
        # the 600 symbols or more than them per call gets one whole-frame
        # call's bits in both L-value sets; the priors are a strided view,
        # as the turbo loop passes them
        c = build_constellation(256)
        rng = np.random.default_rng(60)
        s_hat, mu = self.channel(c, 1200, rng)
        s_hat, mu = s_hat.reshape(2, 600), mu.reshape(2, 600)
        nu2 = rng.uniform(0.01, 1.0, (2, 600))
        if not per_symbol:
            mu, nu2 = 0.7, 0.2
        priors = rng.normal(0, 4, (2, 605, c.q))[:, 5:] if with_priors else None
        args = (s_hat, mu, nu2, priors)
        whole = extrinsic_llrs(*args, c)
        for lo in range(0, 600, chunk):
            at = slice(lo, lo + chunk)
            part = extrinsic_llrs(*(a if np.ndim(a) < 2 else a[:, at] for a in args), c)
            for a, b in zip(part, whole):
                assert np.array_equal(a, b[:, at])

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("per_symbol", [False, True])
    def test_prior_free_matches_a_call_without_priors(self, order, per_symbol):
        # the turbo loop reads the GMI off the prior-free L-values of its
        # one call with priors: they are a call without priors, bit for
        # bit, and the full-grid reference without priors
        c = build_constellation(order)
        rng = np.random.default_rng(80 + order)
        m = 1000
        s_hat, mu = self.channel(c, m, rng)
        nu2 = rng.uniform(0.01, 1.0, m)
        if not per_symbol:
            mu, nu2 = 0.7, 0.2
        priors = rng.normal(0, 4, (m, c.q))
        extrinsic, prior_free = extrinsic_llrs(s_hat, mu, nu2, priors, c)
        alone, same = extrinsic_llrs(s_hat, mu, nu2, None, c)
        assert same is alone
        assert np.array_equal(prior_free, alone)
        assert not np.array_equal(extrinsic, prior_free)
        want = reference_extrinsic_llrs(s_hat, mu, nu2, None, c)
        np.testing.assert_allclose(prior_free, want, atol=1e-9, rtol=0)

    def test_axis_structure(self):
        for order in ORDERS:
            c = build_constellation(order)
            side = c.axis_levels.size
            assert side**2 == order and np.all(np.diff(c.axis_levels) > 0)
            assert c.axis_labels.shape == (side, c.q // 2)
            grid = c.points.reshape(side, side)  # [I level, Q level]
            np.testing.assert_array_equal(grid.real.T, np.tile(c.axis_levels, (side, 1)))
            np.testing.assert_array_equal(grid.imag, np.tile(c.axis_levels, (side, 1)))
            labels = c.bit_labels.reshape(side, side, c.q)
            np.testing.assert_array_equal(labels[:, 0, : c.q // 2], c.axis_labels)
            np.testing.assert_array_equal(labels[0, :, c.q // 2 :], c.axis_labels)


class TestMapping:
    def test_map_demap_roundtrip(self, qam16):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 400).astype(np.uint8)
        sym = map_bits(bits, qam16)
        idx = hard_decide(sym, qam16)
        np.testing.assert_array_equal(qam16.bit_labels[idx].ravel(), bits)

    @pytest.mark.parametrize("order", ORDERS)
    def test_hard_decide_matches_argmin(self, order):
        # the grid spans about ±1.2; many points fall well outside it
        c = build_constellation(order)
        rng = np.random.default_rng(30 + order)
        s = rng.uniform(-3, 3, 20_000) + 1j * rng.uniform(-3, 3, 20_000)
        want = np.argmin(np.abs(s[:, None] - c.points[None, :]), axis=1)
        np.testing.assert_array_equal(hard_decide(s, c), want)
