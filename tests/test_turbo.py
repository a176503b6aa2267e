import numpy as np
import pytest
from scipy.signal import lfilter

from turbowdm import harness, turbo
from turbowdm.constellation import (
    L_MAX, NU2_FLOOR_REL, build_constellation, extrinsic_llrs, map_bits,
)
from turbowdm.fec import frame_order
from turbowdm.harness import _load_code, load_config
from turbowdm.metrics import IterationMetrics, effective_snr, gmi_bits_per_2d, post_fec_ber
from turbowdm.turbo import TurboError, lmmse_equalize, rls_estimate, turbo_loop
from turbowdm.waveform import build_frame

from conftest import mimo_channel, peak_over_returned, qpsk_stream

DELAY = 1  # decision delay (L + 1) // 2 at rls_estimate's default memory L = 2


@pytest.fixture(scope="module")
def code():
    return _load_code("rate45_n2048")


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


def static_track(h, m):
    return np.tile(h, (m, 1, 1, 1))


def reference_rls(received, means, memory, lam, initial_taps, delta):
    """Per-symbol RLS recursion on the inverse correlation matrix, with the
    estimator's skip rule: the reference for the closed form."""
    m = received.shape[1]
    lp1 = memory + 1
    sigma = np.eye(2 * lp1, dtype=complex) / delta
    h = initial_taps.reshape(2, 2 * lp1).astype(complex)
    track = np.empty((m, 2, 2 * lp1), dtype=complex)
    errors = np.empty((2, m), dtype=complex)
    for i in range(m):
        idx = i + (memory + 1) // 2 - np.arange(lp1)
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


def lfilter_rls(received, means, memory, lam, initial_taps, delta):
    """The closed form with R and p run through scipy.signal.lfilter, as it
    stood before the in-place recursion: the bit-for-bit reference."""
    m = received.shape[1]
    lp1 = memory + 1
    dim = 2 * lp1
    h0 = initial_taps.reshape(2, dim).astype(complex)
    regs = turbo._regressors(means, memory)
    keep = np.sum(np.abs(regs) ** 2, axis=1) > 1e-3 * lp1
    u = regs[keep]
    stats = np.concatenate(
        [u[:, :, None] * np.conj(u[:, None, :]),
         u[:, :, None] * np.conj(received[:, keep].T)[:, None, :]],
        axis=2,
    )
    init = delta * np.concatenate([np.eye(dim), h0.T], axis=1)
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
        frame = build_frame(words, order, n_train, c, 0.05, seed=1, symbol_rate=32e9)
        assert frame.order is order and frame.n_train_blocks == n_train
        for p in range(2):
            want = np.concatenate([words[p, b, perm] for b, perm in enumerate(perms)])
            np.testing.assert_array_equal(frame.coded_bits[p], want)
            np.testing.assert_array_equal(reference_deinterleave(want, n, seed), words[p].ravel())
        # a data instant is known when its last bit lies in a training block
        known = frame.pilot_mask.copy()
        for j, t in enumerate(frame.data_positions):
            known[t] = c.q * j + c.q - 1 < n_train * n
        np.testing.assert_array_equal(frame.known_mask, known)
        assert frame.known_mask.sum() > frame.pilot_mask.sum()


class TestRls:
    def test_matches_batch_least_squares(self):
        # lam = 1: RLS solves the same normal equations as batch LS
        m = 3000
        s = qpsk_stream(m, 0)
        h = mimo_channel()
        rng = np.random.default_rng(1)
        r = apply_channel(s, h, DELAY, 1e-4, rng)
        _, taps, _ = rls_estimate(r, s, forgetting=1.0)
        vmat = np.zeros((m, 6), dtype=complex)
        for i in range(m):
            idx = i + DELAY - np.arange(3)
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
        m = 4000
        s = qpsk_stream(m, 2)
        h = mimo_channel()
        rng = np.random.default_rng(3)
        sn2 = 0.02
        r = apply_channel(s, h, DELAY, sn2, rng)
        _, taps, err = rls_estimate(r, s)
        assert np.max(np.abs(taps - h)) < 0.05
        tail = np.mean(np.abs(err[:, -500:]) ** 2)
        assert abs(tail - sn2) < 0.5 * sn2

    def test_tracks_rotating_channel(self):
        # slow common phase rotation: prediction error stays near the
        # noise floor instead of growing with the accumulated phase
        m = 4000
        s = qpsk_stream(m, 4)
        h = mimo_channel()
        rng = np.random.default_rng(5)
        sn2 = 0.01
        rot = np.exp(1j * 2.0 * np.pi * 5e-5 * np.arange(m))
        r_static = apply_channel(s, h, DELAY, 0.0)
        r = r_static * rot + np.sqrt(sn2 / 2.0) * (
            rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
        )
        _, _, err = rls_estimate(r, s)
        tail = np.mean(np.abs(err[:, -1000:]) ** 2)
        assert tail < 5.0 * sn2

    def test_skips_uninformative_regressors(self):
        # long stretches of zero means must not destabilize the estimator
        m = 3000
        s = qpsk_stream(m, 6)
        means = s.copy()
        means[:, 500:2500] = 0.0
        h = mimo_channel()
        rng = np.random.default_rng(7)
        r = apply_channel(s, h, DELAY, 0.01, rng)
        track, taps, err = rls_estimate(r, means)
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
        m, lp1, d = 2000, memory + 1, (memory + 1) // 2
        rng = np.random.default_rng(memory)
        h = 0.1 * (rng.standard_normal((2, 2, lp1))
                   + 1j * rng.standard_normal((2, 2, lp1)))
        h[0, 0, d] += 0.9
        h[1, 1, d] += 0.9
        s = qpsk_stream(m, 20 + memory)
        r = apply_channel(s, h, d, 0.01, rng)
        means = s.copy()
        if stretch:
            means[:, 600:800] = 0.0
            means[:, 800:1000] *= 0.01
        track, taps, err = rls_estimate(r, means, memory=memory, forgetting=lam, delta=delta)
        ref_track, ref_taps, ref_err = reference_rls(
            r, means, memory, lam, np.zeros_like(h), delta
        )
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
        m, lp1, d = 1500, memory + 1, (memory + 1) // 2
        rng = np.random.default_rng(31)
        h = 0.1 * (rng.standard_normal((2, 2, lp1)) + 1j * rng.standard_normal((2, 2, lp1)))
        h[0, 0, d] += 0.9
        h[1, 1, d] += 0.9
        s = qpsk_stream(m, 32)
        r = apply_channel(s, h, d, 0.01, rng)
        means = s.copy()
        if kept is not None:
            means[:] = 0.0
            means[:, 700:700 + kept] = s[:, 700:700 + kept]
            regs = turbo._regressors(means, memory)
            assert np.sum(np.sum(np.abs(regs) ** 2, axis=1) > 1e-3 * lp1) == kept
        got = rls_estimate(r, means, memory=memory, forgetting=lam, delta=0.01)
        ref = lfilter_rls(r, means, memory, lam, np.zeros_like(h), 0.01)
        for a, b in zip(got, ref):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("memory", [0, 2])
    @pytest.mark.parametrize("chunk", [1, 333, 1501])
    def test_chunks_match_one_whole_frame_pass(self, monkeypatch, chunk, memory):
        # one instant, a non-divisor of the frame or more than the frame per
        # pass gives the two-pass default's bits. Skipped instants straddle
        # the pass edges 333 and 1024, and from 1300 on no instant is kept,
        # so the last passes carry [R | p] and the taps through
        m, lp1, d = 1500, memory + 1, (memory + 1) // 2
        rng = np.random.default_rng(33)
        h = 0.1 * (rng.standard_normal((2, 2, lp1)) + 1j * rng.standard_normal((2, 2, lp1)))
        h[0, 0, d] += 0.9
        h[1, 1, d] += 0.9
        s = qpsk_stream(m, 34)
        r = apply_channel(s, h, d, 0.01, rng)
        means = s.copy()
        means[:, 320:350] = 0.0
        means[:, 1010:1040] *= 0.01
        means[:, 1300:] = 0.0
        args = (r, means, memory, 0.95)
        default = rls_estimate(*args)
        monkeypatch.setattr(turbo, "CHUNK", chunk)
        for a, b in zip(rls_estimate(*args), default):
            assert_same_bits(a, b)

    def test_memory_does_not_grow_with_the_frame(self):
        # the returned track and errors take 224 B per instant at L = 2; the
        # whole-frame [R | p] stack and its solve took 7.9 times that
        m = 40000
        s = qpsk_stream(m, 35)
        r = apply_channel(s, mimo_channel(), DELAY, 0.01, np.random.default_rng(36))
        _, ratio = peak_over_returned(rls_estimate, r, s)
        assert ratio < 2.0

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
        m, n, sn2 = 4000, 300, 0.01
        s = qpsk_stream(m, 8)
        h = mimo_channel()
        rng = np.random.default_rng(9)
        r = apply_channel(s, h, DELAY, sn2, rng)
        track, _, _ = rls_estimate(r, s, forgetting=lam)
        dim = 2 * (2 + 1)  # memory L = 2
        w = lam ** np.arange(n)
        n_eff = np.sum(w) ** 2 / np.sum(w**2)
        ls_error = 2 * dim * sn2 / n_eff  # both output pols
        assert np.sum(np.abs(track[n] - h) ** 2) < 3.0 * ls_error


class TestLmmse:
    def test_scalar_wiener_closed_form(self):
        # unit memoryless channel with sigma_n^2 = 1: w = mu = 0.5, nu2 = 0.25
        m = 64
        s = qpsk_stream(m, 10)
        track = static_track(np.eye(2, dtype=complex)[:, :, None], m)
        s_hat, mu, nu2 = lmmse_equalize(
            s, track, np.zeros((2, m), complex), np.ones((2, m)), 1.0, np.arange(m)
        )
        np.testing.assert_allclose(s_hat, 0.5 * s, atol=1e-12)
        np.testing.assert_allclose(mu, 0.5, atol=1e-12)
        np.testing.assert_allclose(nu2, 0.25, atol=1e-12)

    def test_genie_priors_reach_matched_filter_bound(self):
        m = 4000
        s = qpsk_stream(m, 11)
        h = mimo_channel()
        rng = np.random.default_rng(12)
        sn2 = 0.02
        r = apply_channel(s, h, DELAY, sn2, rng)
        track = static_track(h, m)
        s_hat, mu, _ = lmmse_equalize(r, track, s, np.zeros((2, m)), sn2, np.arange(m))
        for p in range(2):
            mfb_db = 10.0 * np.log10(np.sum(np.abs(h[:, p, :]) ** 2) / sn2)
            snr_db = effective_snr(s[p], s_hat[p] / mu[p])
            assert abs(snr_db - mfb_db) < 0.3

    def test_priors_improve_over_blind(self):
        m = 4000
        s = qpsk_stream(m, 13)
        h = mimo_channel()
        rng = np.random.default_rng(14)
        sn2 = 0.02
        r = apply_channel(s, h, DELAY, sn2, rng)
        track = static_track(h, m)
        every = np.arange(m)
        blind, mu0, _ = lmmse_equalize(
            r, track, np.zeros((2, m), complex), np.ones((2, m)), sn2, every
        )
        genie, mu1, _ = lmmse_equalize(r, track, s, np.zeros((2, m)), sn2, every)
        for p in range(2):
            a = effective_snr(s[p], blind[p] / mu0[p])
            b = effective_snr(s[p], genie[p] / mu1[p])
            assert b > a + 1.0

    def test_phase_equivariance(self):
        m = 500
        s = qpsk_stream(m, 15)
        h = mimo_channel()
        rng = np.random.default_rng(16)
        r = apply_channel(s, h, DELAY, 0.02, rng)
        track = static_track(h, m)
        every = np.arange(m)
        base, mu, nu2 = lmmse_equalize(
            r, track, np.zeros((2, m), complex), np.ones((2, m)), 0.02, every
        )
        rot = np.exp(0.7j)
        out, mu_r, nu2_r = lmmse_equalize(
            r * rot, track, np.zeros((2, m), complex), np.ones((2, m)), 0.02, every
        )
        np.testing.assert_allclose(out, rot * base, atol=1e-12)
        np.testing.assert_allclose(mu_r, mu, atol=1e-12)
        np.testing.assert_allclose(nu2_r, nu2, atol=1e-12)

    def test_equivalent_awgn_variance_relation(self):
        # nu2 = mu*sig2 - mu^2*sig2 by construction, floored away from zero
        m = 300
        s = qpsk_stream(m, 17)
        h = mimo_channel()
        rng = np.random.default_rng(18)
        r = apply_channel(s, h, DELAY, 0.05, rng)
        _, mu, nu2 = lmmse_equalize(
            r, static_track(h, m), np.zeros((2, m), complex), np.ones((2, m)),
            0.05, np.arange(m),
        )
        np.testing.assert_allclose(nu2, np.maximum(mu - mu**2, 1e-9), atol=1e-12)
        assert np.all((mu >= 0.0) & (mu <= 1.0))

    @pytest.mark.parametrize("memory", range(7))
    def test_matches_delay_anchored_reference(self, memory):
        # the rows r_{j-d} .. r_{j+L-d} that s_j reaches are the reference's
        # rows for the bounds (0, L), counted from r_{j-d}. A subset of the
        # instants, unsorted or empty, gets the whole frame's bits at those
        # instants
        for m in (3, 300):  # 3 instants: shorter than the window from L = 2 on
            rng = np.random.default_rng(100 * memory + m)
            cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            r, means = cplx(2, m), cplx(2, m)
            track = cplx(m, 2, 2, memory + 1)
            variances = rng.random((2, m))
            subsets = (np.arange(m), rng.permutation(m)[: m // 2 + 1], np.arange(0))
            want = reference_lmmse(r, track, means, variances, 0, memory, memory, 0.1, 1.3)
            for instants in subsets:
                got = lmmse_equalize(r, track, means, variances, 0.1, instants, 1.3)
                for a, b in zip(got, want):
                    assert_same_bits(a, b[:, instants])

    def test_chunks_match_one_whole_frame_pass(self):
        # two whole chunks and a one-instant tail, at L = 6 with its
        # window (3, 3), asked for in the turbo loop's passes: each pass's
        # windows read the whole frame, and the passes give one whole-frame
        # call's bits
        m = 2 * turbo.CHUNK + 1
        rng = np.random.default_rng(20)
        cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        r, means, track = cplx(2, m), cplx(2, m), cplx(m, 2, 2, 7)
        variances = rng.random((2, m))
        args = (r, track, means, variances, 0.1)
        passes = [
            lmmse_equalize(*args, np.arange(lo, min(lo + turbo.CHUNK, m)), 1.3)
            for lo in range(0, m, turbo.CHUNK)
        ]
        for a, b in zip(zip(*passes), lmmse_equalize(*args, np.arange(m), 1.3)):
            assert_same_bits(np.concatenate(a, axis=1), b)

    def test_track_length_mismatch(self):
        s = qpsk_stream(10, 19)
        with pytest.raises(TurboError):
            lmmse_equalize(
                s, static_track(mimo_channel(), 9),
                np.zeros((2, 10), complex), np.ones((2, 10)), 0.1, np.arange(9),
            )

    @pytest.mark.parametrize("instants", [[0, 10], [-1, 3]])
    def test_instants_outside_frame_rejected(self, instants):
        s = qpsk_stream(10, 19)
        with pytest.raises(TurboError, match="outside the frame"):
            lmmse_equalize(
                s, static_track(mimo_channel(), 10),
                np.zeros((2, 10), complex), np.ones((2, 10)), 0.1, np.array(instants),
            )


@pytest.fixture(scope="module")
def hard_input(qpsk, code):
    # noise chosen so plain demapping fails but the first turbo
    # iteration decodes cleanly
    frame = encoded_frame(qpsk, code, 6, seed=0)
    rng = np.random.default_rng(1)
    return apply_channel(frame.symbols, mimo_channel(), DELAY, 0.12, rng), frame


@pytest.fixture(scope="module")
def hard_run(hard_input, code):
    r, frame = hard_input
    return turbo_loop(r, frame, 4, code), frame


class TestTurboLoop:
    def test_iterations_fix_decoding(self, hard_run):
        recs, _ = hard_run
        assert recs[0].post_fec_ber > 1e-3
        assert recs[-1].post_fec_ber == 0.0

    def test_snr_gain(self, hard_run):
        recs, _ = hard_run
        assert recs[-1].snr_db > recs[0].snr_db + 1.5

    def test_gmi_improves(self, hard_run):
        recs, _ = hard_run
        assert (
            recs[-1].gmi_bits_per_4d_symbol
            > recs[0].gmi_bits_per_4d_symbol + 0.2
        )

    def test_early_exit_on_saturation(self, qpsk, code):
        frame = encoded_frame(qpsk, code, 6, seed=2)
        rng = np.random.default_rng(3)
        r = apply_channel(frame.symbols, mimo_channel(), DELAY, 0.05, rng)
        recs = turbo_loop(r, frame, 5, code)
        assert len(recs) < 6
        assert recs[-1].post_fec_ber == 0.0

    def test_zero_iterations_single_record(self, qpsk, code):
        frame = encoded_frame(qpsk, code, 6, seed=4)
        rng = np.random.default_rng(5)
        r = apply_channel(frame.symbols, mimo_channel(), DELAY, 0.05, rng)
        recs = turbo_loop(r, frame, 0, code)
        assert len(recs) == 1
        assert recs[0].turbo_iteration == 0

    def test_shape_mismatch(self, qpsk, code):
        frame = encoded_frame(qpsk, code, 6, seed=6)
        with pytest.raises(TurboError):
            turbo_loop(np.zeros((2, 7), complex), frame, 5, code)

    @pytest.mark.parametrize("chunk", [1, 333, 6469])
    def test_chunks_match_one_whole_frame_pass(
        self, hard_input, hard_run, code, monkeypatch, chunk
    ):
        # one symbol, a non-divisor of the frame or more than the 6,468
        # instants per pass gives the records of the default passes; one
        # iteration after iteration 0 runs every chunked stage
        r, frame = hard_input
        monkeypatch.setattr(turbo, "CHUNK", chunk)
        assert turbo_loop(r, frame, 1, code) == hard_run[0][:2]

    @pytest.mark.parametrize("chunk", [1000, 6469])
    def test_each_pass_equalizes_and_demaps_its_chunk_once(
        self, hard_input, code, monkeypatch, chunk
    ):
        # every iteration asks the LMMSE and then the demapper for each
        # chunk of decoded symbols in turn, at most CHUNK per polarization:
        # iteration 0 demaps the received symbols, later ones the LMMSE's
        # estimates, and no second demapper call serves the GMI
        r, frame = hard_input
        decoded_pos = frame.data_positions[frame.n_known_data :]
        asked, equalized, demapped = [], [], []
        real_lmmse, real_demap = turbo.lmmse_equalize, turbo.cst.extrinsic_llrs

        def recording_lmmse(*args, **kw):
            asked.append(args[5].copy())
            out = real_lmmse(*args, **kw)
            equalized.append(out[0].copy())
            return out

        def recording_demap(estimates, *args):
            demapped.append(estimates.copy())
            return real_demap(estimates, *args)

        monkeypatch.setattr(turbo, "CHUNK", chunk)
        monkeypatch.setattr(turbo, "lmmse_equalize", recording_lmmse)
        monkeypatch.setattr(turbo.cst, "extrinsic_llrs", recording_demap)
        recs = turbo_loop(r, frame, 2, code)
        passes = -(-decoded_pos.size // chunk)
        assert len(demapped) == passes * len(recs)
        assert len(asked) == passes * (len(recs) - 1)
        assert max(a.size for a in asked) <= chunk
        assert all(d.shape[0] == 2 and d.shape[1] <= chunk for d in demapped)
        np.testing.assert_array_equal(
            np.concatenate(asked), np.tile(decoded_pos, len(recs) - 1)
        )
        np.testing.assert_array_equal(
            np.concatenate(demapped, axis=1),
            np.concatenate([r[:, decoded_pos], *equalized], axis=1),
        )

    def test_frame_without_pilots_rejected(self, qpsk, code, monkeypatch):
        # the noise variance comes from the pilots: without them every
        # metric read NaN, so the loop refuses before any stage runs
        frame = encoded_frame(qpsk, code, 6, seed=6, pilot_rate=0.0)
        assert not frame.pilot_mask.any()
        monkeypatch.setattr(turbo.cst, "extrinsic_llrs", lambda *a: pytest.fail("demapped"))
        with pytest.raises(TurboError, match="no pilots"):
            turbo_loop(frame.symbols, frame, 1, code)


@pytest.fixture(scope="module")
def noisy_training_run(qpsk, code):
    # the first 200 symbols of training block 0 arrive as pure noise, so a
    # decode of that block could not pass parity
    frame = encoded_frame(qpsk, code, 6, seed=2)
    rng = np.random.default_rng(3)
    r = apply_channel(frame.symbols, mimo_channel(), DELAY, 0.05, rng)
    pos = frame.data_positions[:200]
    r[:, pos] = rng.standard_normal((2, 200)) + 1j * rng.standard_normal((2, 200))
    return turbo_loop(r, frame, 5, code), frame


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
        rng = np.random.default_rng(5)
        r = apply_channel(frame.symbols, mimo_channel(), DELAY, 0.05, rng)
        recs = turbo_loop(r, frame, 2, code)
        assert len(recs) == 3
        assert len(calls) == 2 * (frame.n_blocks - n_train) * len(recs)
        # the metrics count every decoded block, the last one included
        n_decoded = frame.n_blocks - n_train
        assert {r.n_bits_counted for r in recs} == {2 * n_decoded * code.k}

    def test_stops_although_training_block_is_noise(self, noisy_training_run):
        recs, _ = noisy_training_run
        assert len(recs) < 6
        assert recs[-1].post_fec_ber == 0.0

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
        turbo_loop(r, frame, 0, code)
        pil = frame.pilot_mask
        sigma_n2 = np.mean(np.abs(r[:, pil] - frame.symbols[:, pil]) ** 2)
        n = frame.block_len
        j = n // c.q  # the straddling symbol
        assert (c.q * j // n, (c.q * j + c.q - 1) // n) == (0, 1)
        for p in range(2):
            bits = extrinsic_llrs(r[p, ~pil], 1.0, sigma_n2, None, c)[0].ravel()
            blocks = reference_deinterleave(bits, n).reshape(-1, n)
            for b in range(1, frame.n_blocks):
                got = inputs[p * (frame.n_blocks - 1) + b - 1]
                assert_same_bits(got, blocks[b])

    def test_straddling_symbol_is_unknown_and_demapped(self, code, monkeypatch):
        # the symbol that ends training block 0 also carries bits of block 1:
        # the receiver does not know it, so no stage pins it to its true
        # value, and the demapper reads it for block 1's decode
        c = build_constellation(64)
        frame = encoded_frame(c, code, 3, seed=8, n_train_blocks=1)
        n = frame.block_len
        j = n // c.q  # the straddling symbol
        assert (c.q * j // n, (c.q * j + c.q - 1) // n) == (0, 1)
        t = frame.data_positions[j]
        assert frame.known_mask[frame.data_positions[j - 1]] and not frame.known_mask[t]
        rng = np.random.default_rng(9)
        r = frame.symbols + 0.05 * (
            rng.standard_normal((2, frame.n_instants))
            + 1j * rng.standard_normal((2, frame.n_instants))
        )
        demapped = []
        real_demap = turbo.cst.extrinsic_llrs

        def recording_demap(estimates, *args):
            demapped.append(estimates.copy())
            return real_demap(estimates, *args)

        monkeypatch.setattr(turbo.cst, "extrinsic_llrs", recording_demap)
        turbo_loop(r, frame, 0, code)
        demapped = np.concatenate(demapped, axis=1)
        np.testing.assert_array_equal(demapped, r[:, ~frame.known_mask])
        assert np.all(np.isin(r[:, t], demapped))

    def test_equalizes_only_the_decoded_instants(self, code, monkeypatch):
        # each iteration after 0 asks the LMMSE for the data instants after
        # the known prefix, the straddling symbol first, and for no other
        c = build_constellation(64)
        frame = encoded_frame(c, code, 3, seed=8, n_train_blocks=1)
        rng = np.random.default_rng(9)
        r = frame.symbols + 0.05 * (
            rng.standard_normal((2, frame.n_instants))
            + 1j * rng.standard_normal((2, frame.n_instants))
        )
        asked = []
        real_lmmse = turbo.lmmse_equalize

        def recording_lmmse(received, track, means, variances, noise_var, instants, **kw):
            asked.append(instants.copy())
            return real_lmmse(received, track, means, variances, noise_var, instants, **kw)

        monkeypatch.setattr(turbo, "lmmse_equalize", recording_lmmse)
        recs = turbo_loop(r, frame, 2, code)
        assert len(recs) == 3
        np.testing.assert_array_equal(
            np.concatenate(asked), np.tile(frame.data_positions[frame.n_known_data :], 2)
        )


def composed_loop(received, frame, n_iters, code):
    """The loop built from turbo's public steps with today's choices: the
    pilot residuals' noise variance and no priors at iteration 0, then soft
    symbols, RLS estimate, LMMSE and decode on the decoder's L-values, and
    the stop on parity and a decision-scored SNR that moved < 0.01 dB."""
    pil, nt = frame.pilot_mask, frame.n_train_blocks
    noise_var = max(float(np.mean(np.abs(received[:, pil] - frame.symbols[:, pil]) ** 2)), 1e-12)
    sent = frame.symbols[:, frame.data_positions[frame.n_known_data :]]
    sent_bits = frame.coded_bits.reshape(2, -1, frame.constellation.q)[:, frame.n_known_data :]
    to_code = np.argsort(frame.order).reshape(frame.n_blocks, frame.block_len)
    true_info = frame.coded_bits[:, to_code][:, nt:, code.info_positions]
    records, priors, last = [], None, None
    for it in range(n_iters + 1):
        if it == 0:
            est, extrinsic, prior_free = turbo.equalize_demap(received, frame, noise_var)
        else:
            means, variances = turbo.soft_symbols(priors, frame)
            track, noise_var = turbo.estimate(received, frame, means)
            est, extrinsic, prior_free = turbo.equalize_demap(
                received, frame, noise_var, priors, track, means, variances
            )
        priors, info, ok = turbo.decode_blocks(extrinsic, frame, code)
        ber, n_bits = post_fec_ber(info, true_info)
        gmi = sum(gmi_bits_per_2d(llrs, bits) for llrs, bits in zip(prior_free, sent_bits))
        records.append(IterationMetrics(
            turbo_iteration=it, post_fec_ber=ber, snr_db=effective_snr(sent, est),
            gmi_bits_per_4d_symbol=gmi, n_bits_counted=n_bits,
        ))
        if ok and it >= 2:
            decisions = map_bits(priors > 0, frame.constellation).reshape(2, -1)
            if abs(effective_snr(decisions, est) - effective_snr(decisions, last)) < 0.01:
                break
        last = est
    return records


@pytest.fixture(scope="module")
def desk_loop_input():
    # what receive() hands the loop on trial 0's dbp_turbo channel at +4 dBm
    cfg = load_config("desk.cfg")
    seed = harness.cell_seed(cfg.base_seed, 4.0, 10, "dbp_turbo", 0)
    selected, frame = harness.channel(cfg, 4.0, 10, seed)
    inputs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "turbo_loop", lambda *args: inputs.append(args) or [])
        harness.receive(cfg, selected, frame, 10, "dbp_turbo")
    return inputs[0]


class TestPublicSteps:
    """turbo_loop is a composition of soft_symbols, estimate,
    equalize_demap and decode_blocks: a probe that recomposes them gets the
    loop's records until it changes one of today's choices."""

    def test_composed_steps_match_the_loop_that_stops_early(self, hard_input, hard_run, code):
        r, frame = hard_input
        recs = composed_loop(r, frame, 4, code)
        assert len(recs) < 5  # the stop rule ends it before the budget
        assert recs == hard_run[0]

    def test_composed_steps_match_the_loop_on_a_desk_channel(self, desk_loop_input):
        received, frame, n_iters, code = desk_loop_input
        recs = composed_loop(received, frame, n_iters, code)
        assert len(recs) == n_iters + 1 == 6
        assert recs == turbo_loop(received, frame, n_iters, code)

    def test_decode_blocks_returns_training_bits_certain(self, code):
        # the straddling symbol of a 64-QAM frame carries training bits among
        # the decoded instants' bits, and the receiver knows them
        c = build_constellation(64)
        frame = encoded_frame(c, code, 3, seed=8, n_train_blocks=1)
        nd = frame.n_data - frame.n_known_data
        app, info, _ = turbo.decode_blocks(np.zeros((2, nd, c.q)), frame, code)
        bits = frame.coded_bits.reshape(2, -1, c.q)[:, frame.n_known_data :]
        train = frame.order.reshape(-1, c.q)[frame.n_known_data :] < code.n
        assert train.any() and not train.all()
        np.testing.assert_array_equal(app[:, train], np.where(bits[:, train] == 1, L_MAX, -L_MAX))
        assert info.shape == (2, frame.n_blocks - 1, code.k)
