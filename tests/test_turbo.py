import numpy as np
import pytest
from scipy.signal import lfilter

from turbowdm import turbo
from turbowdm.constellation import NU2_FLOOR_REL, build_constellation, extrinsic_llrs
from turbowdm.fec import LdpcCode, frame_order
from turbowdm.metrics import effective_snr
from turbowdm.turbo import (
    SlidingWindowConfig,
    TurboError,
    lmmse_equalize,
    rls_estimate,
    turbo_loop,
)
from turbowdm.waveform import build_frame


@pytest.fixture(scope="module")
def qpsk():
    return build_constellation(4)


@pytest.fixture(scope="module")
def code():
    return LdpcCode.bundled("rate45_n2048")


def mimo_channel():
    """Static 2x2 ISI channel taps, main tap at the decision delay."""
    h = np.zeros((2, 2, 3), dtype=complex)
    h[0, 0] = [0.3, 0.85, 0.2j]
    h[1, 1] = [0.25j, 0.9, 0.15]
    h[0, 1] = [0.05, 0.1, 0.02]
    h[1, 0] = [0.0, 0.08j, 0.05]
    return h


def apply_channel(s, h, delay, noise_var=0.0, rng=None):
    """r_o[i] = sum_{p,n} conj(h[o,p,n]) s_p[i+d-n] + AWGN."""
    m = s.shape[1]
    lp1 = h.shape[2]
    r = np.zeros((2, m), dtype=complex)
    for i in range(m):
        idx = i + delay - np.arange(lp1)
        v = np.zeros((2, lp1), dtype=complex)
        ok = (idx >= 0) & (idx < m)
        v[:, ok] = s[:, idx[ok]]
        r[:, i] = np.einsum("opn,pn->o", np.conj(h), v)
    if noise_var:
        r += np.sqrt(noise_var / 2.0) * (
            rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape)
        )
    return r


def qpsk_stream(m, seed):
    rng = np.random.default_rng(seed)
    re = rng.integers(0, 2, (2, m)) * 2 - 1
    im = rng.integers(0, 2, (2, m)) * 2 - 1
    return (re + 1j * im) / np.sqrt(2.0)


def reference_permutations(n, nb, seed):
    """Block b of an interleaved frame is codeword b permuted by
    ``default_rng(seed + b).permutation(n)``: the layout ``frame_order``
    encodes, kept here independently of it."""
    return [np.random.default_rng(seed + b).permutation(n) for b in range(nb)]


def reference_deinterleave(stream, n, seed=0):
    """Codeword-order copy of an interleaved stream of whole blocks."""
    out = np.empty_like(stream)
    for b, perm in enumerate(reference_permutations(n, stream.size // n, seed)):
        out[b * n + perm] = stream[b * n : (b + 1) * n]
    return out


def encoded_frame(c, code, n_blocks, seed, pilot_rate=0.05, n_train_blocks=3):
    """Frame of random codewords, interleaved with seed 0."""
    rng = np.random.default_rng(seed)
    words = np.array([
        [code.encode(rng.integers(0, 2, code.k).astype(np.uint8)) for _ in range(n_blocks)]
        for _ in range(2)
    ])
    return build_frame(
        words, frame_order(code.n, n_blocks, 0), n_train_blocks, c, pilot_rate, seed,
        symbol_rate=32e9,
    )


def true_info_bits(frame, code):
    """(2, nb*k) transmitted info bits of an ``encoded_frame``."""
    return np.array([
        reference_deinterleave(bits, code.n).reshape(-1, code.n)[:, code.info_positions].ravel()
        for bits in frame.coded_bits
    ])


def static_track(h, m):
    return np.tile(h, (m, 1, 1, 1))


def reference_rls(received, means, cfg, initial_taps):
    """Per-symbol RLS recursion on the inverse correlation matrix, with the
    estimator's skip rule: the reference for the closed form."""
    m = received.shape[1]
    lam, lp1 = cfg.forgetting, cfg.channel_memory + 1
    sigma = np.eye(2 * lp1, dtype=complex) / cfg.rls_delta
    h = initial_taps.reshape(2, 2 * lp1).astype(complex)
    track = np.empty((m, 2, 2 * lp1), dtype=complex)
    errors = np.empty((2, m), dtype=complex)
    for i in range(m):
        idx = i + cfg.delay - np.arange(lp1)
        ok = (idx >= 0) & (idx < m)
        v = np.zeros((2, lp1), dtype=complex)
        v[:, ok] = means[:, idx[ok]]
        u = v.ravel()
        track[i] = h
        e = received[:, i] - np.conj(h) @ u
        errors[:, i] = e
        if np.sum(np.abs(u) ** 2) <= 1e-3 * lp1:
            continue
        su = sigma @ u
        gain = su / (lam + np.real(np.vdot(u, su)))
        sigma = (sigma - np.outer(gain, np.conj(su))) / lam
        sigma = 0.5 * (sigma + sigma.conj().T)
        h = h + np.conj(e)[:, None] * gain[None, :]
    return track.reshape(m, 2, 2, lp1), h.reshape(2, 2, lp1), errors


def lfilter_rls(received, means, cfg, initial_taps):
    """The closed form with R and p run through scipy.signal.lfilter, as it
    stood before the in-place recursion: the bit-for-bit reference."""
    m = received.shape[1]
    lp1 = cfg.channel_memory + 1
    dim = 2 * lp1
    h0 = initial_taps.reshape(2, dim).astype(complex)
    regs = turbo._regressors(means, cfg)
    keep = np.sum(np.abs(regs) ** 2, axis=1) > 1e-3 * lp1
    u = regs[keep]
    stats = np.concatenate(
        [u[:, :, None] * np.conj(u[:, None, :]),
         u[:, :, None] * np.conj(received[:, keep].T)[:, None, :]],
        axis=2,
    )
    lam = cfg.forgetting
    init = cfg.rls_delta * np.concatenate([np.eye(dim), h0.T], axis=1)
    stats, _ = lfilter([1.0], [1.0, -lam], stats, axis=0, zi=lam * init[None])
    solved = np.linalg.solve(stats[:, :, :dim], stats[:, :, dim:])
    after = np.concatenate([h0[None], solved.transpose(0, 2, 1)])
    track = after[np.cumsum(keep) - keep]
    errors = received - np.einsum("mok,mk->om", np.conj(track), regs)
    return track.reshape(m, 2, 2, lp1), after[-1].reshape(2, 2, lp1), errors


def reference_lmmse(received, track, means, variances, n1, n2, mem, noise_var,
                    symbol_energy=1.0):
    """The equalizer with rows r_{j-d-N1} .. r_{j-d+N2} counted from
    i0 = j - d, as it stood before the rows were counted from s_j's own row:
    the reference for the window gathers."""
    m = received.shape[1]
    nw = n1 + n2 + 1
    wwin = nw + mem  # symbol window width per polarization
    d = (mem + 1) // 2
    sig2 = symbol_energy

    c = np.conj(track)  # channel coefficients c_n = conj(h_n)

    # banded window matrix H (m, 2N, 2W): rows are received samples
    # r_{i0-N1..i0+N2} with i0 = j - d; columns are symbols s_{j-N1-L..j+N2}
    hmat = np.zeros((m, 2 * nw, 2 * wwin), dtype=complex)
    j = np.arange(m)
    i0 = j - d
    for row in range(nw):
        for n in range(mem + 1):
            col = row + mem - n  # position of s_{t-n} within the window
            ci = np.clip(i0 - n1 + row, 0, m - 1)  # taps at the row's instant
            for o in range(2):
                for p in range(2):
                    hmat[:, o * nw + row, p * wwin + col] = c[ci, o, p, n]

    # windowed means/variances; outside the frame: mean 0, variance sig2
    def window(arr, fill):
        out = np.full((m, 2 * wwin), fill, dtype=arr.dtype)
        for p in range(2):
            for t in range(wwin):
                idx = j - n1 - mem + t  # symbol index s_{j-N1-L+t}
                valid = (idx >= 0) & (idx < m)
                out[valid, p * wwin + t] = arr[p, idx[valid]]
        return out

    sbar = window(means.astype(complex), 0.0)
    svar = window(variances.astype(float), sig2)
    center = n1 + mem  # window position of s_j
    sbar[:, center] = 0.0
    sbar[:, wwin + center] = 0.0
    svar[:, center] = sig2
    svar[:, wwin + center] = sig2

    # r window with zero padding outside the frame
    rwin = np.zeros((m, 2 * nw), dtype=complex)
    for p in range(2):
        for t in range(nw):
            idx = i0 - n1 + t
            valid = (idx >= 0) & (idx < m)
            rwin[valid, p * nw + t] = received[p, idx[valid]]

    # A = H R H^H + sigma_n^2 I ; b = H e sig2 (response to the center symbol)
    hr = hmat * svar[:, None, :]
    a = hr @ hmat.conj().transpose(0, 2, 1)
    a += noise_var * np.eye(2 * nw)[None]
    hsel = np.stack([hmat[:, :, center], hmat[:, :, wwin + center]], axis=-1)
    w = np.linalg.solve(a, hsel * sig2)  # (m, 2N, 2)

    resid = rwin - np.einsum("mrc,mc->mr", hmat, sbar)
    s_hat = np.einsum("mrp,mr->pm", np.conj(w), resid)

    mu_full = np.einsum("mrp,mrk->mpk", np.conj(w), hsel)  # (m, 2, 2)
    mu = np.clip(np.real(np.einsum("mpp->pm", mu_full)), 0.0, 1.0)
    nu2 = np.maximum(mu * sig2 - mu**2 * sig2, NU2_FLOOR_REL * sig2)
    return s_hat, mu, nu2


def assert_same_bits(a, b):
    """Equal as uint8 views, so -0.0 != 0.0 and NaN payloads count."""
    np.testing.assert_array_equal(
        np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8)
    )


def test_frame_order_matches_block_interleavers():
    # the order, the interleaved bits and the known instants of a frame
    # against the per-block permutations and a per-instant count; at
    # 64-QAM a symbol straddles the end of the training region
    n, nb, n_train, seed = 98, 6, 2, 17
    perms = reference_permutations(n, nb, seed)
    order = frame_order(n, nb, seed)
    np.testing.assert_array_equal(order, np.concatenate([b * n + p for b, p in enumerate(perms)]))
    words = np.random.default_rng(0).integers(0, 2, (2, nb, n)).astype(np.uint8)
    for c in (build_constellation(4), build_constellation(64)):
        frame = build_frame(words, order, n_train, c, 0.05, seed=1)
        assert frame.order is order and frame.n_train_blocks == n_train
        for p in range(2):
            want = np.concatenate([words[p, b, perm] for b, perm in enumerate(perms)])
            np.testing.assert_array_equal(frame.coded_bits[p], want)
            np.testing.assert_array_equal(reference_deinterleave(want, n, seed), words[p].ravel())
        # a data instant is known when its first bit lies in a training block
        known = frame.pilot_mask.copy()
        for j, t in enumerate(frame.data_positions):
            known[t] = c.q * j < n_train * n
        np.testing.assert_array_equal(frame.known_mask, known)
        assert frame.known_mask.sum() > frame.pilot_mask.sum()


class TestConfig:
    def test_window_and_delay(self):
        cfg = SlidingWindowConfig(n1=1, n2=3, channel_memory=2)
        assert cfg.n_window == 5
        assert cfg.delay == 1

    def test_invalid_window(self):
        with pytest.raises(TurboError):
            SlidingWindowConfig(n1=-1)

    def test_invalid_forgetting(self):
        with pytest.raises(TurboError):
            SlidingWindowConfig(forgetting=1.5)


class TestRls:
    def test_matches_batch_least_squares(self):
        # lam = 1: RLS solves the same normal equations as batch LS
        cfg = SlidingWindowConfig(forgetting=1.0, rls_delta=0.01)
        m = 3000
        s = qpsk_stream(m, 0)
        h = mimo_channel()
        rng = np.random.default_rng(1)
        r = apply_channel(s, h, cfg.delay, 1e-4, rng)
        _, taps, _ = rls_estimate(r, s, cfg)
        vmat = np.zeros((m, 6), dtype=complex)
        for i in range(m):
            idx = i + cfg.delay - np.arange(3)
            v = np.zeros((2, 3), dtype=complex)
            ok = (idx >= 0) & (idx < m)
            v[:, ok] = s[:, idx[ok]]
            vmat[i] = v.ravel()
        for o in range(2):
            g, *_ = np.linalg.lstsq(vmat, r[o], rcond=None)
            np.testing.assert_allclose(
                taps[o], np.conj(g).reshape(2, 3), atol=2e-3
            )

    def test_static_channel_convergence(self):
        cfg = SlidingWindowConfig()
        m = 4000
        s = qpsk_stream(m, 2)
        h = mimo_channel()
        rng = np.random.default_rng(3)
        sn2 = 0.02
        r = apply_channel(s, h, cfg.delay, sn2, rng)
        _, taps, err = rls_estimate(r, s, cfg)
        assert np.max(np.abs(taps - h)) < 0.05
        tail = np.mean(np.abs(err[:, -500:]) ** 2)
        assert abs(tail - sn2) < 0.5 * sn2

    def test_tracks_rotating_channel(self):
        # slow common phase rotation: prediction error stays near the
        # noise floor instead of growing with the accumulated phase
        cfg = SlidingWindowConfig()
        m = 4000
        s = qpsk_stream(m, 4)
        h = mimo_channel()
        rng = np.random.default_rng(5)
        sn2 = 0.01
        rot = np.exp(1j * 2.0 * np.pi * 5e-5 * np.arange(m))
        r_static = apply_channel(s, h, cfg.delay, 0.0)
        r = r_static * rot + np.sqrt(sn2 / 2.0) * (
            rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
        )
        _, _, err = rls_estimate(r, s, cfg)
        tail = np.mean(np.abs(err[:, -1000:]) ** 2)
        assert tail < 5.0 * sn2

    def test_skips_uninformative_regressors(self):
        # long stretches of zero means must not destabilize the estimator
        cfg = SlidingWindowConfig()
        m = 3000
        s = qpsk_stream(m, 6)
        means = s.copy()
        means[:, 500:2500] = 0.0
        h = mimo_channel()
        rng = np.random.default_rng(7)
        r = apply_channel(s, h, cfg.delay, 0.01, rng)
        track, taps, err = rls_estimate(r, means, cfg)
        assert np.all(np.isfinite(track))
        assert np.all(np.isfinite(taps))
        assert np.mean(np.abs(err[:, -200:]) ** 2) < 0.1

    @pytest.mark.parametrize("stretch", [False, True])
    @pytest.mark.parametrize("memory", [0, 2, 4])
    @pytest.mark.parametrize("delta", [0.01, 1.0])
    @pytest.mark.parametrize("lam", [1.0, 0.99, 0.9])
    def test_matches_recursive_rls(self, lam, delta, memory, stretch):
        # the closed form equals the per-symbol recursion it replaces; the
        # stretch of zero, then near-zero, means exercises the skip rule
        cfg = SlidingWindowConfig(
            channel_memory=memory, forgetting=lam, rls_delta=delta
        )
        m, lp1 = 2000, memory + 1
        rng = np.random.default_rng(memory)
        h = 0.1 * (rng.standard_normal((2, 2, lp1))
                   + 1j * rng.standard_normal((2, 2, lp1)))
        h[0, 0, cfg.delay] += 0.9
        h[1, 1, cfg.delay] += 0.9
        s = qpsk_stream(m, 20 + memory)
        r = apply_channel(s, h, cfg.delay, 0.01, rng)
        means = s.copy()
        if stretch:
            means[:, 600:800] = 0.0
            means[:, 800:1000] *= 0.01
        track, taps, err = rls_estimate(r, means, cfg)
        ref_track, ref_taps, ref_err = reference_rls(r, means, cfg, np.zeros_like(h))
        np.testing.assert_allclose(track, ref_track, rtol=0, atol=1e-10)
        np.testing.assert_allclose(taps, ref_taps, rtol=0, atol=1e-10)
        np.testing.assert_allclose(err, ref_err, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kept", [None, 0, 1])
    @pytest.mark.parametrize("lam", [0.95, 0.99, 1.0])
    def test_matches_lfilter_bits(self, lam, kept):
        # the in-place recursion does lfilter's product and sum per entry;
        # at memory 0 a frame of zero means keeps no instant, and one
        # nonzero mean keeps exactly one
        memory = 2 if kept is None else 0
        cfg = SlidingWindowConfig(channel_memory=memory, forgetting=lam)
        m, lp1 = 1500, memory + 1
        rng = np.random.default_rng(31)
        h = 0.1 * (rng.standard_normal((2, 2, lp1)) + 1j * rng.standard_normal((2, 2, lp1)))
        h[0, 0, cfg.delay] += 0.9
        h[1, 1, cfg.delay] += 0.9
        s = qpsk_stream(m, 32)
        r = apply_channel(s, h, cfg.delay, 0.01, rng)
        means = s.copy()
        if kept is not None:
            means[:] = 0.0
            means[:, 700:700 + kept] = s[:, 700:700 + kept]
            regs = turbo._regressors(means, cfg)
            assert np.sum(np.sum(np.abs(regs) ** 2, axis=1) > 1e-3 * lp1) == kept
        got = rls_estimate(r, means, cfg)
        ref = lfilter_rls(r, means, cfg, np.zeros_like(h))
        for a, b in zip(got, ref):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("lam", [1.0, 0.99])
    def test_zero_start_reaches_least_squares_level(self, lam):
        # started from zero taps, the taps after the first n = 300 updates
        # (instants 0..299, all kept) are as close to a static channel as
        # least squares over those instants can be; the desk preset's
        # training region alone spans 1,078 instants. With unit-energy white
        # regressors the LS tap error per output pol is sigma^2 tr(R^-1),
        # about dim sigma^2 / n for dim = 2(L+1); exponential weighting
        # replaces n by n_eff = (sum lam^k)^2 / sum lam^2k. The zero start
        # enters only through the regulariser delta lam^n |h|^2, whose bias
        # on the taps is about delta lam^n |h| / sum lam^k, under 1e-4 here.
        # The factor 3 covers the spread of the squared error, a chi-square
        # with 2 * 2 * dim = 24 real degrees of freedom over both output
        # pols (its 99.9th percentile is 2.1 times its mean).
        cfg = SlidingWindowConfig(forgetting=lam)
        m, n, sn2 = 4000, 300, 0.01
        s = qpsk_stream(m, 8)
        h = mimo_channel()
        rng = np.random.default_rng(9)
        r = apply_channel(s, h, cfg.delay, sn2, rng)
        track, _, _ = rls_estimate(r, s, cfg)
        dim = 2 * (cfg.channel_memory + 1)
        w = lam ** np.arange(n)
        n_eff = np.sum(w) ** 2 / np.sum(w**2)
        ls_error = 2 * dim * sn2 / n_eff  # both output pols
        assert np.sum(np.abs(track[n] - h) ** 2) < 3.0 * ls_error


class TestLmmse:
    def test_scalar_wiener_closed_form(self):
        # unit memoryless channel with sigma_n^2 = 1: w = mu = 0.5, nu2 = 0.25
        m = 64
        s = qpsk_stream(m, 10)
        cfg = SlidingWindowConfig(n1=0, n2=0, channel_memory=0)
        track = static_track(np.eye(2, dtype=complex)[:, :, None], m)
        s_hat, mu, nu2 = lmmse_equalize(
            s, track, np.zeros((2, m), complex), np.ones((2, m)), cfg, 1.0
        )
        np.testing.assert_allclose(s_hat, 0.5 * s, atol=1e-12)
        np.testing.assert_allclose(mu, 0.5, atol=1e-12)
        np.testing.assert_allclose(nu2, 0.25, atol=1e-12)

    def test_genie_priors_reach_matched_filter_bound(self):
        cfg = SlidingWindowConfig()
        m = 4000
        s = qpsk_stream(m, 11)
        h = mimo_channel()
        rng = np.random.default_rng(12)
        sn2 = 0.02
        r = apply_channel(s, h, cfg.delay, sn2, rng)
        track = static_track(h, m)
        s_hat, mu, _ = lmmse_equalize(r, track, s, np.zeros((2, m)), cfg, sn2)
        for p in range(2):
            mfb_db = 10.0 * np.log10(np.sum(np.abs(h[:, p, :]) ** 2) / sn2)
            snr_db = effective_snr(s[p], s_hat[p] / mu[p])
            assert abs(snr_db - mfb_db) < 0.3

    def test_priors_improve_over_blind(self):
        cfg = SlidingWindowConfig()
        m = 4000
        s = qpsk_stream(m, 13)
        h = mimo_channel()
        rng = np.random.default_rng(14)
        sn2 = 0.02
        r = apply_channel(s, h, cfg.delay, sn2, rng)
        track = static_track(h, m)
        blind, mu0, _ = lmmse_equalize(
            r, track, np.zeros((2, m), complex), np.ones((2, m)), cfg, sn2
        )
        genie, mu1, _ = lmmse_equalize(r, track, s, np.zeros((2, m)), cfg, sn2)
        for p in range(2):
            a = effective_snr(s[p], blind[p] / mu0[p])
            b = effective_snr(s[p], genie[p] / mu1[p])
            assert b > a + 1.0

    def test_phase_equivariance(self):
        cfg = SlidingWindowConfig()
        m = 500
        s = qpsk_stream(m, 15)
        h = mimo_channel()
        rng = np.random.default_rng(16)
        r = apply_channel(s, h, cfg.delay, 0.02, rng)
        track = static_track(h, m)
        base, mu, nu2 = lmmse_equalize(
            r, track, np.zeros((2, m), complex), np.ones((2, m)), cfg, 0.02
        )
        rot = np.exp(0.7j)
        out, mu_r, nu2_r = lmmse_equalize(
            r * rot, track, np.zeros((2, m), complex), np.ones((2, m)), cfg, 0.02
        )
        np.testing.assert_allclose(out, rot * base, atol=1e-12)
        np.testing.assert_allclose(mu_r, mu, atol=1e-12)
        np.testing.assert_allclose(nu2_r, nu2, atol=1e-12)

    def test_equivalent_awgn_variance_relation(self):
        # nu2 = mu*sig2 - mu^2*sig2 by construction, floored away from zero
        cfg = SlidingWindowConfig()
        m = 300
        s = qpsk_stream(m, 17)
        h = mimo_channel()
        rng = np.random.default_rng(18)
        r = apply_channel(s, h, cfg.delay, 0.05, rng)
        _, mu, nu2 = lmmse_equalize(
            r, static_track(h, m), np.zeros((2, m), complex), np.ones((2, m)),
            cfg, 0.05,
        )
        np.testing.assert_allclose(nu2, np.maximum(mu - mu**2, 1e-9), atol=1e-12)
        assert np.all((mu >= 0.0) & (mu <= 1.0))

    @pytest.mark.parametrize("memory", range(7))
    def test_matches_delay_anchored_reference(self, memory):
        # rows r_{j-N1} .. r_{j+N2} are the reference's rows for the bounds
        # (N1-d, N2+d); N1 runs up to 2+d, so both every window with
        # N1, N2 in {0, 1, 2} and every reference window (N1, N2) in
        # {0, 1, 2}^2 that keeps s_j's row (N2 >= d) are covered
        d = (memory + 1) // 2
        for m in (3, 300):  # 3 instants: shorter than every window here
            rng = np.random.default_rng(100 * memory + m)
            cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            r, means = cplx(2, m), cplx(2, m)
            track = cplx(m, 2, 2, memory + 1)
            variances = rng.random((2, m))
            for n1 in range(3 + d):
                for n2 in range(3):
                    cfg = SlidingWindowConfig(n1=n1, n2=n2, channel_memory=memory)
                    got = lmmse_equalize(r, track, means, variances, cfg, 0.1, 1.3)
                    want = reference_lmmse(
                        r, track, means, variances, n1 - d, n2 + d, memory, 0.1, 1.3
                    )
                    for a, b in zip(got, want):
                        assert_same_bits(a, b)

    def test_chunks_match_one_whole_frame_pass(self, monkeypatch):
        # two whole chunks and a one-instant tail, at L = 6 with the
        # covering window (3, 3); each chunk's windows read the whole frame
        m = 2 * turbo.LMMSE_CHUNK + 1
        cfg = SlidingWindowConfig(n1=3, n2=3, channel_memory=6)
        rng = np.random.default_rng(20)
        cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        r, means, track = cplx(2, m), cplx(2, m), cplx(m, 2, 2, 7)
        variances = rng.random((2, m))
        args = (r, track, means, variances, cfg, 0.1, 1.3)
        chunked = lmmse_equalize(*args)
        monkeypatch.setattr(turbo, "LMMSE_CHUNK", m)
        for a, b in zip(chunked, lmmse_equalize(*args)):
            assert_same_bits(a, b)

    def test_track_length_mismatch(self):
        cfg = SlidingWindowConfig()
        s = qpsk_stream(10, 19)
        with pytest.raises(TurboError):
            lmmse_equalize(
                s, static_track(mimo_channel(), 9),
                np.zeros((2, 10), complex), np.ones((2, 10)), cfg, 0.1,
            )


@pytest.fixture(scope="module")
def hard_run(qpsk, code):
    # noise chosen so plain demapping fails but the first turbo
    # iteration decodes cleanly
    frame = encoded_frame(qpsk, code, 6, seed=0)
    cfg = SlidingWindowConfig(n_turbo_iters=4)
    rng = np.random.default_rng(1)
    r = apply_channel(frame.symbols, mimo_channel(), cfg.delay, 0.12, rng)
    return turbo_loop(r, frame, cfg, code), frame


class TestTurboLoop:
    def test_iterations_fix_decoding(self, hard_run):
        res, _ = hard_run
        assert res.records[0].post_fec_ber > 1e-3
        assert res.records[-1].post_fec_ber == 0.0

    def test_snr_gain(self, hard_run):
        res, _ = hard_run
        assert res.records[-1].snr_db > res.records[0].snr_db + 1.5

    def test_gmi_improves(self, hard_run):
        res, _ = hard_run
        assert (
            res.records[-1].gmi_bits_per_4d_symbol
            > res.records[0].gmi_bits_per_4d_symbol + 0.2
        )

    def test_final_bits_match_transmitted(self, hard_run, qpsk, code):
        res, frame = hard_run
        np.testing.assert_array_equal(res.hard_bits, true_info_bits(frame, code))

    def test_early_exit_on_saturation(self, qpsk, code):
        frame = encoded_frame(qpsk, code, 6, seed=2)
        cfg = SlidingWindowConfig(n_turbo_iters=5)
        rng = np.random.default_rng(3)
        r = apply_channel(frame.symbols, mimo_channel(), cfg.delay, 0.05, rng)
        res = turbo_loop(r, frame, cfg, code)
        assert len(res.records) < 6
        assert res.records[-1].post_fec_ber == 0.0

    def test_zero_iterations_single_record(self, qpsk, code):
        frame = encoded_frame(qpsk, code, 6, seed=4)
        cfg = SlidingWindowConfig(n_turbo_iters=0)
        rng = np.random.default_rng(5)
        r = apply_channel(frame.symbols, mimo_channel(), cfg.delay, 0.05, rng)
        res = turbo_loop(r, frame, cfg, code)
        assert len(res.records) == 1
        assert res.records[0].turbo_iteration == 0

    def test_shape_mismatch(self, qpsk, code):
        frame = encoded_frame(qpsk, code, 6, seed=6)
        cfg = SlidingWindowConfig()
        with pytest.raises(TurboError):
            turbo_loop(np.zeros((2, 7), complex), frame, cfg, code)


@pytest.fixture(scope="module")
def noisy_training_run(qpsk, code):
    # the first 200 symbols of training block 0 arrive as pure noise, so a
    # decode of that block could not pass parity
    frame = encoded_frame(qpsk, code, 6, seed=2)
    cfg = SlidingWindowConfig(n_turbo_iters=5)
    rng = np.random.default_rng(3)
    r = apply_channel(frame.symbols, mimo_channel(), cfg.delay, 0.05, rng)
    pos = frame.data_positions[frame.block_of_data_symbol() == 0][:200]
    r[:, pos] = rng.standard_normal((2, 200)) + 1j * rng.standard_normal((2, 200))
    return turbo_loop(r, frame, cfg, code), frame


class TestLoopPolicy:
    @pytest.mark.parametrize("n_train", [1, 3])
    def test_decodes_only_unknown_blocks(self, qpsk, code, monkeypatch, n_train):
        calls = []
        real_decode = turbo.decode

        def counting_decode(*args, **kwargs):
            calls.append(1)
            return real_decode(*args, **kwargs)

        monkeypatch.setattr(turbo, "decode", counting_decode)
        frame = encoded_frame(qpsk, code, 6, seed=4, n_train_blocks=n_train)
        cfg = SlidingWindowConfig(n_turbo_iters=2)
        rng = np.random.default_rng(5)
        r = apply_channel(frame.symbols, mimo_channel(), cfg.delay, 0.05, rng)
        res = turbo_loop(r, frame, cfg, code)
        assert len(res.records) == 3
        assert len(calls) == 2 * (frame.n_blocks - n_train) * len(res.records)

    def test_stops_although_training_block_is_noise(self, noisy_training_run):
        res, _ = noisy_training_run
        assert len(res.records) < 6
        assert res.records[-1].post_fec_ber == 0.0

    def test_boundary_symbol_feeds_decoder(self, code, monkeypatch):
        # at 64-QAM a 2048-bit block is not a whole number of symbols: the
        # symbol whose first bits end training block 0 also starts block 1,
        # so it must be demapped for block 1's decode
        c = build_constellation(64)
        frame = encoded_frame(c, code, 3, seed=8, n_train_blocks=1)
        rng = np.random.default_rng(9)
        r = frame.symbols + 0.05 * (
            rng.standard_normal((2, frame.n_instants))
            + 1j * rng.standard_normal((2, frame.n_instants))
        )
        inputs = []
        real_decode = turbo.decode

        def recording_decode(llrs, *args):
            inputs.append(llrs.copy())
            return real_decode(llrs, *args)

        monkeypatch.setattr(turbo, "decode", recording_decode)
        cfg = SlidingWindowConfig(n_turbo_iters=0)
        turbo_loop(r, frame, cfg, code)
        pil = frame.pilot_mask
        sigma_n2 = np.mean(np.abs(r[:, pil] - frame.symbols[:, pil]) ** 2)
        n = frame.block_len
        j = n // c.q  # the straddling symbol
        assert (c.q * j // n, (c.q * j + c.q - 1) // n) == (0, 1)
        for p in range(2):
            bits = extrinsic_llrs(r[p, ~pil], 1.0, sigma_n2, None, c).ravel()
            blocks = reference_deinterleave(bits, n).reshape(-1, n)
            for b in range(1, frame.n_blocks):
                got = inputs[p * (frame.n_blocks - 1) + b - 1]
                assert_same_bits(got, blocks[b])

    def test_training_bits_are_the_known_bits(self, noisy_training_run, code):
        res, frame = noisy_training_run
        known = frame.n_train_blocks * code.k
        np.testing.assert_array_equal(
            res.hard_bits[:, :known], true_info_bits(frame, code)[:, :known]
        )
