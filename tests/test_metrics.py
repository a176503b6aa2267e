import numpy as np
import pytest

from turbowdm.constellation import build_constellation, extrinsic_llrs, map_bits
from turbowdm.metrics import (
    MetricsError,
    MetricsRecord,
    effective_snr,
    gmi_bits_per_2d,
    post_fec_ber,
    read_records_ndjson,
    write_records_ndjson,
)


class TestEffectiveSnr:
    def test_constant_relative_error(self):
        s = np.exp(1j * np.linspace(0, 6, 500))
        assert abs(effective_snr(s, s * 1.1) - 20.0) < 1e-9

    def test_exact_estimates_capped(self):
        s = np.ones(10, dtype=complex)
        assert effective_snr(s, s) == 60.0

    def test_awgn_consistency(self):
        # ratio-of-means estimator matches the configured noise power
        rng = np.random.default_rng(0)
        m = 10**6
        c = build_constellation(4)
        s = c.points[rng.integers(0, 4, m)]
        sigma2 = 0.1
        noise = np.sqrt(sigma2 / 2) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        assert abs(effective_snr(s, s + noise) - 10.0) < 0.1

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        e = 0.1 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
        rot = np.exp(1j * 1.2)
        a = effective_snr(s, s + e)
        b = effective_snr(s * rot, (s + e) * rot)
        assert abs(a - b) < 1e-9

    def test_empty(self):
        with pytest.raises(MetricsError):
            effective_snr(np.array([]), np.array([]))


def gauss_hermite_gmi(order: int, snr_db: float, n_nodes: int = 40) -> float:
    """2D Gauss-Hermite quadrature oracle for Gray-QAM GMI on AWGN."""
    c = build_constellation(order)
    sigma2 = 10 ** (-snr_db / 10.0)
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    # complex noise samples n = sigma*(x + jy), weights w_x*w_y/pi
    xx, yy = np.meshgrid(nodes, nodes)
    ww = np.outer(weights, weights).ravel() / np.pi
    nn = np.sqrt(sigma2) * (xx.ravel() + 1j * yy.ravel())
    total = 0.0
    for k in range(order):
        y = c.points[k] + nn
        # exact log-likelihood ratios per bit at each noise sample
        d = -np.abs(y[:, None] - c.points[None, :]) ** 2 / sigma2
        for l in range(c.q):
            b = c.bit_labels[:, l]
            num = _lse(d[:, b == 1])
            den = _lse(d[:, b == 0])
            llr = num - den
            sgn = 1.0 if c.bit_labels[k, l] else -1.0
            total += np.sum(ww * np.logaddexp(0.0, -sgn * llr)) / np.log(2.0)
    return c.q - total / order


def _lse(a):
    mx = a.max(axis=1)
    return mx + np.log(np.exp(a - mx[:, None]).sum(axis=1))


class TestGmi:
    def test_saturated_correct(self):
        q = 6
        bits = np.random.default_rng(2).integers(0, 2, (100, q))
        llrs = 40.0 * (2.0 * bits - 1.0)
        assert abs(gmi_bits_per_2d(llrs, bits) - q) < 1e-9

    def test_zero_llrs(self):
        bits = np.zeros((50, 4))
        assert abs(gmi_bits_per_2d(np.zeros((50, 4)), bits)) < 1e-12

    @pytest.mark.parametrize("order,snr_db", [(16, 10.0), (64, 16.0)])
    def test_monte_carlo_vs_quadrature(self, order, snr_db):
        c = build_constellation(order)
        rng = np.random.default_rng(3)
        m = 200_000
        bits = rng.integers(0, 2, (m, c.q)).astype(np.uint8)
        s = map_bits(bits.ravel(), c)
        sigma2 = 10 ** (-snr_db / 10.0)
        y = s + np.sqrt(sigma2 / 2) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        llrs, _ = extrinsic_llrs(y, 1.0, sigma2, None, c, l_max=300.0)
        est = gmi_bits_per_2d(llrs, bits)
        ref = gauss_hermite_gmi(order, snr_db)
        assert abs(est - ref) < 0.02

    def test_shape_mismatch(self):
        with pytest.raises(MetricsError):
            gmi_bits_per_2d(np.zeros((3, 2)), np.zeros((3, 3)))


class TestPostFecBer:
    def test_perfect(self):
        bits = np.zeros((2, 14, 16), dtype=np.uint8)
        ber, counted = post_fec_ber(bits, bits)
        assert ber == 0.0
        assert counted == 2 * 14 * 16

    def test_single_flip(self):
        k = 16384
        ref = np.zeros((2, 14, k), dtype=np.uint8)
        dec = ref.copy()
        dec[0, 2, 3] = 1
        ber, _ = post_fec_ber(dec, ref)
        assert abs(ber - 1.0 / (14 * 2 * k)) < 1e-15


class TestRecordSerialization:
    def test_roundtrip(self, tmp_path):
        recs = [
            MetricsRecord(
                launch_power_dbm=2.0, n_spans=10, mode="dbp_turbo",
                turbo_iteration=i, seed=42, post_fec_ber=1e-3 * i,
                snr_db=20.0 + i, gmi_bits_per_4d_symbol=20.5,
                n_bits_counted=1000, trial=0,
            )
            for i in range(3)
        ]
        nd = tmp_path / "r.ndjson"
        write_records_ndjson(nd, recs)
        assert read_records_ndjson(nd) == recs
