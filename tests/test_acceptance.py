"""End-to-end acceptance checks.

Each test class pins one system-level guarantee: demapper and GMI
estimators against independently coded oracles, the adaptive estimators
against closed-form solutions, the propagation engine against fiber-optics
closed forms, and the full simulation campaign against the qualitative
behavior expected of nonlinearity-compensating receivers.  Time budgets
are asserted alongside the numerical tolerances.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from turbowdm.constellation import build_constellation, extrinsic_llrs, map_bits
from turbowdm.fec import frame_order
from turbowdm.fiber import FiberParams, dbp, propagate_link
from turbowdm.harness import (
    _load_code,
    load_config,
    optimal_launch_power,
    run_campaign,
    run_trial,
)
from turbowdm.metrics import effective_snr, gmi_bits_per_2d
from turbowdm.turbo import lmmse_equalize, rls_estimate, turbo_loop
from turbowdm.waveform import DualPolSignal, build_frame, matched_filter, rrc_shape

from conftest import copied, mimo_channel, qpsk_stream

DELAY = 1  # decision delay (L + 1) // 2 at rls_estimate's default memory L = 2

# --------------------------------------------------------------------------
# shared synthetic-channel helpers


def apply_channel(s, h, delay, noise_var=0.0, rng=None, rotation=None):
    """r_o[i] = rot[i] * sum_{p,n} conj(h[o,p,n]) s_p[i+d-n] + AWGN."""
    m = s.shape[1]
    r = np.zeros((2, m), dtype=complex)
    for n in range(h.shape[2]):
        shift = delay - n  # r[i] takes s[i + shift] through tap n
        lo, hi = max(0, -shift), min(m, m - shift)
        r[:, lo:hi] += np.conj(h[:, :, n]) @ s[:, lo + shift : hi + shift]
    if rotation is not None:
        r *= rotation
    if noise_var:
        r += np.sqrt(noise_var / 2.0) * (
            rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape)
        )
    return r


# --------------------------------------------------------------------------
# 1. extrinsic demapper vs exhaustive marginalization


def marginalization_oracle(s_hat, mu, nu2, priors, c):
    """Probability-domain exhaustive marginalization over all symbols.

    For bit l the likelihood of each symbol is weighted by the priors of
    the other bits of that symbol only; the ratio of the two bit-partition
    sums is the extrinsic L-value.
    """
    m = s_hat.size
    lik = np.exp(
        -np.abs(s_hat[:, None] - mu[:, None] * c.points[None, :]) ** 2
        / nu2[:, None]
    )
    p1 = 1.0 / (1.0 + np.exp(-priors))  # (m, q)
    b = c.bit_labels
    w = np.ones((m, c.order))
    for j in range(c.q):
        w *= np.where(b[None, :, j] == 1, p1[:, j, None], 1.0 - p1[:, j, None])
    out = np.empty((m, c.q))
    for l in range(c.q):
        own = np.where(b[None, :, l] == 1, p1[:, l, None], 1.0 - p1[:, l, None])
        t = lik * w / own
        out[:, l] = np.log(t[:, b[:, l] == 1].sum(axis=1)) - np.log(
            t[:, b[:, l] == 0].sum(axis=1)
        )
    return out


class TestExtrinsicDemapperOracle:
    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_matches_exhaustive_marginalization(self, order):
        t0 = time.perf_counter()
        c = build_constellation(order)
        m = 10_000
        rng = np.random.default_rng(order)
        s = c.points[rng.integers(0, order, m)]
        mu = rng.uniform(0.5, 1.0, m)
        nu2 = rng.uniform(0.1, 0.6, m)
        s_hat = mu * s + np.sqrt(nu2 / 2.0) * (
            rng.standard_normal(m) + 1j * rng.standard_normal(m)
        )
        priors = np.clip(rng.normal(0.0, 3.0, (m, c.q)), -8.0, 8.0)
        got, _ = extrinsic_llrs(s_hat, mu, nu2, priors, c, l_max=np.inf)
        want = marginalization_oracle(s_hat, mu, nu2, priors, c)
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=0.0)
        assert time.perf_counter() - t0 < 10.0

    def test_no_priors_case(self):
        c = build_constellation(16)
        m = 2000
        rng = np.random.default_rng(5)
        s_hat = rng.normal(0, 1, m) + 1j * rng.normal(0, 1, m)
        mu = np.full(m, 0.8)
        nu2 = np.full(m, 0.3)
        got, _ = extrinsic_llrs(s_hat, mu, nu2, None, c, l_max=np.inf)
        want = marginalization_oracle(s_hat, mu, nu2, np.zeros((m, c.q)), c)
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=0.0)

    def test_no_priors_case_256qam(self):
        t0 = time.perf_counter()
        c = build_constellation(256)
        m = 2000
        rng = np.random.default_rng(6)
        s = c.points[rng.integers(0, 256, m)]
        mu = rng.uniform(0.5, 1.0, m)
        nu2 = rng.uniform(0.005, 0.05, m)
        s_hat = mu * s + np.sqrt(nu2 / 2.0) * (
            rng.standard_normal(m) + 1j * rng.standard_normal(m)
        )
        got, _ = extrinsic_llrs(s_hat, mu, nu2, None, c, l_max=np.inf)
        want = marginalization_oracle(s_hat, mu, nu2, np.zeros((m, c.q)), c)
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=0.0)
        assert time.perf_counter() - t0 < 10.0


# --------------------------------------------------------------------------
# 2. LMMSE closed forms


class TestLmmseClosedForms:
    def test_scalar_wiener_solution(self):
        # one tap, no priors: s_hat = sig2 * conj(c) * r / (sig2|c|^2 + sn2)
        t0 = time.perf_counter()
        m = 256
        rng = np.random.default_rng(20)
        r = rng.normal(0, 1, (2, m)) + 1j * rng.normal(0, 1, (2, m))
        coeff = np.array([0.8 * np.exp(0.3j), 1.1 * np.exp(-0.7j)])
        track = np.zeros((m, 2, 2, 1), dtype=complex)
        track[:, 0, 0] = np.conj(coeff[0])
        track[:, 1, 1] = np.conj(coeff[1])
        sn2 = 0.37
        s_hat, mu, nu2 = lmmse_equalize(
            r, track, np.zeros((2, m), complex), np.ones((2, m)), sn2, np.arange(m)
        )
        for p in range(2):
            g = np.abs(coeff[p]) ** 2
            expect = np.conj(coeff[p]) * r[p] / (g + sn2)
            np.testing.assert_allclose(s_hat[p], expect, atol=1e-12)
            np.testing.assert_allclose(mu[p], g / (g + sn2), atol=1e-12)
            np.testing.assert_allclose(
                nu2[p], mu[p] - mu[p] ** 2, atol=1e-12
            )
        assert time.perf_counter() - t0 < 10.0

    @pytest.mark.parametrize("memory", range(7))
    def test_perfect_priors_reach_matched_filter_bound(self, memory):
        # the rows r_{j-d} .. r_{j+L-d} (N1 = d, N2 = L-d) hold all of s_j's
        # energy, so with every other symbol known the estimate reaches the
        # matched-filter bound. Polarization-diagonal channel: with
        # cross-polarization taps the co-instant symbol of the other
        # polarization is itself an interferer, and the joint estimate sits
        # strictly below the single-polarization matched-filter bound
        t0 = time.perf_counter()
        d = (memory + 1) // 2
        m, lp1 = 150_000, memory + 1
        s = qpsk_stream(m, 21)
        rng = np.random.default_rng(22 + memory)
        h = np.zeros((2, 2, lp1), dtype=complex)
        for p in range(2):
            h[p, p] = 0.3 * (rng.standard_normal(lp1) + 1j * rng.standard_normal(lp1))
            h[p, p, d] += 0.9
        sn2 = 0.02
        r = apply_channel(s, h, d, sn2, rng)
        track = np.broadcast_to(h, (m, 2, 2, lp1))
        # 5000 instants at a time, each on a slice that holds every row and
        # symbol its window reads, so it sees the same window as in one call;
        # this bounds the memory of the slices' tap tracks
        chunk, pad = 5000, 2 * memory + 1
        s_hat, mu = np.empty((2, m), dtype=complex), np.empty((2, m))
        for lo in range(0, m, chunk):
            a, b = max(lo - pad, 0), min(lo + chunk + pad, m)
            keep = np.arange(lo, min(lo + chunk, m))
            s_hat[:, keep], mu[:, keep], _ = lmmse_equalize(
                r[:, a:b], track[a:b], s[:, a:b], np.zeros((2, b - a)), sn2, keep - a
            )
        for p in range(2):
            mfb_db = 10.0 * np.log10(np.sum(np.abs(h[:, p, :]) ** 2) / sn2)
            snr_db = effective_snr(s[p], s_hat[p] / mu[p])
            assert abs(snr_db - mfb_db) < 0.05
        assert time.perf_counter() - t0 < 10.0


# --------------------------------------------------------------------------
# 3. RLS channel estimator


class TestRlsEstimator:
    def test_unit_forgetting_matches_batch_least_squares(self):
        # lam = 1 solves the delta-regularized normal equations exactly
        t0 = time.perf_counter()
        delta = 0.01
        m = 3000
        s = qpsk_stream(m, 30)
        h = mimo_channel()
        rng = np.random.default_rng(31)
        r = apply_channel(s, h, DELAY, 1e-3, rng)
        _, taps, _ = rls_estimate(r, s, forgetting=1.0, delta=delta)
        umat = np.zeros((m, 6), dtype=complex)
        for i in range(m):
            idx = i + DELAY - np.arange(3)
            v = np.zeros((2, 3), dtype=complex)
            ok = (idx >= 0) & (idx < m)
            v[:, ok] = s[:, idx[ok]]
            umat[i] = v.ravel()
        gram = umat.conj().T @ umat + delta * np.eye(6)
        for o in range(2):
            expect = np.conj(np.linalg.solve(gram, umat.conj().T @ r[o]))
            np.testing.assert_allclose(
                taps[o].ravel(), expect, atol=1e-8, rtol=0.0
            )
        assert time.perf_counter() - t0 < 30.0

    def test_static_channel_nmse(self):
        # tap NMSE <= -25 dB after 500 symbols at 30 dB SNR
        t0 = time.perf_counter()
        m = 500
        s = qpsk_stream(m, 32)
        h = mimo_channel()
        clean = apply_channel(s, h, DELAY)
        sn2 = np.mean(np.abs(clean) ** 2) / 1000.0
        rng = np.random.default_rng(33)
        r = clean + np.sqrt(sn2 / 2.0) * (
            rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
        )
        _, taps, _ = rls_estimate(r, s)
        nmse = np.sum(np.abs(taps - h) ** 2) / np.sum(np.abs(h) ** 2)
        assert 10.0 * np.log10(nmse) <= -25.0
        assert time.perf_counter() - t0 < 30.0

    def test_rotating_channel_tracking_nmse(self):
        # slow common phase rotation tracked to <= -20 dB tap NMSE
        t0 = time.perf_counter()
        m = 4000
        s = qpsk_stream(m, 34)
        h = mimo_channel()
        rot = np.exp(1j * 2.0 * np.pi * 5e-5 * np.arange(m))
        rng = np.random.default_rng(35)
        sn2 = 0.01
        r = apply_channel(s, h, DELAY, sn2, rng, rotation=rot)
        est, _, _ = rls_estimate(r, s, forgetting=0.99)  # (m, 2, 2, L+1)
        truth = h[None] * np.conj(rot)[:, None, None, None]
        tail = slice(m - 1000, m)
        nmse = np.sum(np.abs(est[tail] - truth[tail]) ** 2) / np.sum(
            np.abs(truth[tail]) ** 2
        )
        assert 10.0 * np.log10(nmse) <= -20.0
        assert time.perf_counter() - t0 < 30.0


# --------------------------------------------------------------------------
# 4. propagation physics


class TestPropagationPhysics:
    def test_cw_nonlinear_phase(self):
        t0 = time.perf_counter()
        p = FiberParams(alpha_db_per_km=0.0, dispersion_ps_nm_km=0.0, step_m=1000.0)
        power = 2e-3
        amp = np.sqrt(power / 2.0)
        n = 256
        sig = DualPolSignal(fields=np.full((2, n), amp, dtype=complex), sample_rate=64e9)
        out = propagate_link(copied(sig), p, 1, ase=False)
        expect = -(8.0 / 9.0) * p.gamma_per_w_m * power * p.span_km * 1e3
        np.testing.assert_allclose(np.angle(out.fields / sig.fields), expect, atol=1e-3)
        assert time.perf_counter() - t0 < 120.0

    def test_gaussian_pulse_broadening(self):
        t0 = time.perf_counter()
        p = FiberParams(alpha_db_per_km=0.0, gamma_per_w_km=0.0, step_m=5000.0)
        fs = 256e9
        n = 1 << 14
        t = (np.arange(n) - n / 2) / fs
        t_in = 20e-12
        field = np.exp(-(t**2) / (2.0 * t_in**2)).astype(complex)
        sig = DualPolSignal(fields=np.stack([field, field]), sample_rate=fs)
        out = propagate_link(sig, p, 1, ase=False)
        z = p.span_km * 1e3
        expect = t_in * np.sqrt(1.0 + (p.beta2_s2_per_m * z / t_in**2) ** 2)
        inten = np.abs(out.fields[0]) ** 2
        mean = np.sum(t * inten) / np.sum(inten)
        rms = np.sqrt(np.sum((t - mean) ** 2 * inten) / np.sum(inten))
        assert abs(rms * np.sqrt(2.0) - expect) / expect < 0.01
        assert time.perf_counter() - t0 < 120.0

    def test_lossless_energy_conservation(self):
        t0 = time.perf_counter()
        p = FiberParams(alpha_db_per_km=0.0, step_m=500.0)
        rng = np.random.default_rng(40)
        n = 4096
        spec = np.zeros((2, n), dtype=complex)
        band = 300
        for q in range(2):
            live = np.r_[0:band, n - band : n]
            spec[q, live] = rng.normal(0, 1, 2 * band) + 1j * rng.normal(
                0, 1, 2 * band
            )
        fields = np.fft.ifft(spec, axis=1)
        fields *= np.sqrt(5e-3 / np.mean(np.abs(fields) ** 2) / 2.0)
        sig = DualPolSignal(fields=fields, sample_rate=128e9)
        out = propagate_link(copied(sig), p, 1, ase=False)
        assert abs(out.power() - sig.power()) / sig.power() < 1e-6
        assert time.perf_counter() - t0 < 120.0

    def test_single_channel_dbp_inversion(self):
        # noiseless 10x50 km link; coarse 10 km backpropagation steps
        t0 = time.perf_counter()
        c = build_constellation(64)
        rng = np.random.default_rng(41)
        n_sym = 4096
        bits = rng.integers(0, 2, (2, 2, n_sym * c.q // 2)).astype(np.uint8)
        frame = build_frame(bits, np.arange(n_sym * c.q), 0, c, 0.0, seed=41, symbol_rate=32e9)
        sig = rrc_shape(frame, 4, 0.1)
        p_w = 10 ** (2.0 / 10.0) * 1e-3  # 2 dBm launch
        sig = dataclasses.replace(sig, fields=sig.fields * np.sqrt(p_w / sig.power()))
        p = FiberParams(step_m=1000.0)
        rx = propagate_link(sig, p, n_spans=10, ase=False)
        rec = matched_filter(dbp(rx, p, 10, 10e3), 0.1, 32e9)
        est = rec.fields[:, ::4]
        keep = slice(200, n_sym - 200)
        evm = []
        for q in range(2):
            ref = frame.symbols[q, keep]
            g = np.vdot(ref, est[q, keep]) / np.vdot(ref, ref)
            err = est[q, keep] / g - ref
            evm.append(
                10.0
                * np.log10(np.mean(np.abs(err) ** 2) / np.mean(np.abs(ref) ** 2))
            )
        assert max(evm) < -30.0
        assert time.perf_counter() - t0 < 120.0


# --------------------------------------------------------------------------
# 5. GMI estimator vs Gauss-Hermite quadrature


def gauss_hermite_gmi(order, snr_db, n_nodes=40):
    """Quadrature oracle for Gray-QAM GMI on the AWGN channel."""
    c = build_constellation(order)
    sigma2 = 10 ** (-snr_db / 10.0)
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    xx, yy = np.meshgrid(nodes, nodes)
    ww = np.outer(weights, weights).ravel() / np.pi
    nn = np.sqrt(sigma2) * (xx.ravel() + 1j * yy.ravel())

    def lse(a):
        mx = a.max(axis=1)
        return mx + np.log(np.exp(a - mx[:, None]).sum(axis=1))

    total = 0.0
    for k in range(order):
        y = c.points[k] + nn
        d = -np.abs(y[:, None] - c.points[None, :]) ** 2 / sigma2
        for l in range(c.q):
            b = c.bit_labels[:, l]
            llr = lse(d[:, b == 1]) - lse(d[:, b == 0])
            sgn = 1.0 if c.bit_labels[k, l] else -1.0
            total += np.sum(ww * np.logaddexp(0.0, -sgn * llr)) / np.log(2.0)
    return c.q - total / order


class TestGmiOracle:
    @pytest.mark.parametrize(
        "order,snr_points",
        [
            (16, (6.0, 8.0, 10.0, 12.0, 14.0)),
            (64, (12.0, 14.0, 16.0, 18.0, 20.0)),
        ],
    )
    def test_monte_carlo_matches_quadrature(self, order, snr_points):
        t0 = time.perf_counter()
        c = build_constellation(order)
        rng = np.random.default_rng(50)
        m = 200_000
        bits = rng.integers(0, 2, (m, c.q)).astype(np.uint8)
        s = map_bits(bits.ravel(), c)
        noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for snr_db in snr_points:
            sigma2 = 10 ** (-snr_db / 10.0)
            y = s + np.sqrt(sigma2 / 2.0) * noise
            llrs, _ = extrinsic_llrs(y, 1.0, sigma2, None, c, l_max=300.0)
            est = gmi_bits_per_2d(llrs, bits)
            ref = gauss_hermite_gmi(order, snr_db)
            assert abs(est - ref) < 0.02, f"{order}-QAM at {snr_db} dB"
        assert time.perf_counter() - t0 < 60.0


# --------------------------------------------------------------------------
# 6. synthetic end-to-end turbo gain


def synthetic_turbo_input():
    """(received, frame, code): a seeded 3-tap time-varying ISI channel at an
    operating point where the plain demapper leaves residual post-FEC errors."""
    c = build_constellation(4)
    code = _load_code("rate45_n2048")
    rng = np.random.default_rng(60)
    words = np.array([
        [code.encode(rng.integers(0, 2, code.k).astype(np.uint8)) for _ in range(6)]
        for _ in range(2)
    ])
    # three training blocks, as in the presets
    frame = build_frame(words, frame_order(code.n, 6, 0), 3, c, 0.05, seed=60, symbol_rate=32e9)
    m = frame.n_instants
    rot = np.exp(1j * 2.0 * np.pi * 1e-6 * np.arange(m))
    r = apply_channel(
        frame.symbols, mimo_channel(), DELAY, 0.12,
        np.random.default_rng(61), rotation=rot,
    )
    return r, frame, code


@pytest.fixture(scope="module")
def synthetic_turbo_run():
    r, frame, code = synthetic_turbo_input()
    t0 = time.perf_counter()
    recs = turbo_loop(r, frame, 4, code)
    return recs, time.perf_counter() - t0


class TestSyntheticTurboGain:
    def test_operating_point(self, synthetic_turbo_run):
        recs, _ = synthetic_turbo_run
        assert 1e-3 <= recs[0].post_fec_ber <= 1e-1

    def test_ber_non_increasing(self, synthetic_turbo_run):
        recs, _ = synthetic_turbo_run
        bers = [r.post_fec_ber for r in recs]
        assert all(b1 <= b0 for b0, b1 in zip(bers, bers[1:]))

    def test_tenfold_improvement_by_iteration_3(self, synthetic_turbo_run):
        recs, _ = synthetic_turbo_run
        by_it3 = min(
            r.post_fec_ber for r in recs if r.turbo_iteration <= 3
        )
        assert by_it3 <= recs[0].post_fec_ber / 10.0

    def test_snr_gain_at_saturation(self, synthetic_turbo_run):
        recs, _ = synthetic_turbo_run
        assert recs[-1].snr_db >= recs[0].snr_db + 0.3

    def test_runtime(self, synthetic_turbo_run):
        _, elapsed = synthetic_turbo_run
        assert elapsed < 300.0

    def test_stop_rule_reads_no_transmitted_symbols(self, synthetic_turbo_run):
        # the loop stops on the receiver's own evidence: with the symbols
        # sent at the decoded instants unknown (NaN, so every SNR it reports
        # is NaN), it ends at the same iteration with the same decodes
        recs, _ = synthetic_turbo_run
        r, frame, code = synthetic_turbo_input()
        frame.symbols[:, frame.data_positions[frame.n_known_data :]] = np.nan
        blind = turbo_loop(r, frame, 4, code)
        assert len(recs) == len(blind) == 4
        assert all(np.isnan(b.snr_db) for b in blind)
        for b, rec in zip(blind, recs):
            assert (b.post_fec_ber, b.gmi_bits_per_4d_symbol) == (
                rec.post_fec_ber, rec.gmi_bits_per_4d_symbol,
            )


# --------------------------------------------------------------------------
# 7 & 8. desk-scale fiber campaign

CAMPAIGN_JOBS = os.cpu_count() or 1


@pytest.fixture(scope="module")
def desk_campaign():
    cfg = load_config("desk.cfg")
    t0 = time.perf_counter()
    records, summary, failures = run_campaign(cfg, jobs=CAMPAIGN_JOBS)
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    return cfg, records, summary, elapsed


@pytest.fixture(scope="module")
def bypass_campaign():
    cfg = dataclasses.replace(
        load_config("desk.cfg"),
        bypass_sync_dsp=True,
        modes=("dbp", "dbp_turbo"),
    )
    t0 = time.perf_counter()
    records, summary, failures = run_campaign(cfg, jobs=CAMPAIGN_JOBS)
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    return cfg, records, summary, elapsed


def peak_rows(cfg, summary):
    return {
        mode: optimal_launch_power(summary, mode, cfg.span_list[0])
        for mode in cfg.modes
    }


class TestDeskCampaign:
    def test_mode_ordering_at_optimal_power(self, desk_campaign):
        cfg, _, summary, _ = desk_campaign
        peaks = peak_rows(cfg, summary)
        assert (
            peaks["edc"]["snr_db"]
            < peaks["dbp"]["snr_db"]
            < peaks["dbp_turbo"]["snr_db"]
        )

    def test_turbo_gain_at_optimal_power(self, desk_campaign):
        cfg, _, summary, _ = desk_campaign
        peaks = peak_rows(cfg, summary)
        gain = peaks["dbp_turbo"]["snr_db"] - peaks["dbp"]["snr_db"]
        assert gain >= 0.2, f"turbo gain over DBP only {gain:.3f} dB"

    def test_power_curves_unimodal(self, desk_campaign):
        cfg, _, summary, _ = desk_campaign
        from turbowdm.harness import final_iteration_rows

        rows = final_iteration_rows(summary)
        for mode in cfg.modes:
            curve = sorted(
                (r["power_dbm"], r["snr_db"]) for r in rows if r["mode"] == mode
            )
            snrs = [s for _, s in curve]
            k = int(np.argmax(snrs))
            assert 0 < k < len(snrs) - 1, f"{mode}: maximum not interior"
            assert all(a < b for a, b in zip(snrs[: k + 1], snrs[1 : k + 1]))
            assert all(a > b for a, b in zip(snrs[k:], snrs[k + 1 :]))

    def test_gain_saturates_within_five_iterations(self, desk_campaign):
        cfg, _, summary, _ = desk_campaign
        peaks = peak_rows(cfg, summary)
        p_star = peaks["dbp_turbo"]["power_dbm"]
        curve = sorted(
            (r["iteration"], r["snr_db"])
            for r in summary
            if r["mode"] == "dbp_turbo" and r["power_dbm"] == p_star
        )
        assert curve[-1][0] <= 5
        if len(curve) > 1:
            assert abs(curve[-1][1] - curve[-2][1]) < 0.05

    def test_runtime(self, desk_campaign):
        _, _, _, elapsed = desk_campaign
        assert elapsed <= 1800.0


class TestFrontEndBypassComparison:
    def test_bypass_overestimates_turbo_gain(self, desk_campaign, bypass_campaign):
        cfg, _, summary, _ = desk_campaign
        bcfg, _, bsummary, _ = bypass_campaign
        enabled = peak_rows(cfg, summary)
        bypassed = peak_rows(bcfg, bsummary)
        gain_enabled = (
            enabled["dbp_turbo"]["snr_db"] - enabled["dbp"]["snr_db"]
        )
        gain_bypassed = (
            bypassed["dbp_turbo"]["snr_db"] - bypassed["dbp"]["snr_db"]
        )
        assert gain_bypassed > gain_enabled

    def test_runtime(self, bypass_campaign):
        _, _, _, elapsed = bypass_campaign
        assert elapsed <= 1800.0


# --------------------------------------------------------------------------
# 9. determinism


class TestDeterminism:
    def test_rerun_is_byte_identical(self, desk_campaign):
        cfg, records, summary, _ = desk_campaign
        power = peak_rows(cfg, summary)["edc"]["power_dbm"]
        rerun = run_trial(cfg, power, cfg.span_list[0], ("edc",), 0)
        original = [
            r
            for r in records
            if r.mode == "edc" and r.launch_power_dbm == power and r.trial == 0
        ]
        assert [r.to_json_line().encode() for r in rerun] == [
            r.to_json_line().encode() for r in original
        ]
