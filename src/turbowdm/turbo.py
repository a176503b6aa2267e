"""Adaptive turbo equalization: RLS channel estimation tracking the
time-varying 2x2 ISI, a sliding-window MIMO SISO LMMSE equalizer using
symbol priors, and the iteration loop with the SISO LDPC decoder.

Channel convention: the received symbol stream r is modeled per
polarization pair as r_i = sum_n conj(h_n) * s_{i+d-n} + noise, n = 0..L,
with decision delay d = floor((L+1)/2), so the main tap h_d multiplies s_i
and both pre- and post-cursor ISI are covered. ``rls_estimate`` tracks
memory L = 2 with forgetting factor 0.99 by default. s_j thus reaches the
rows r_{j-d} .. r_{j+L-d}, and the equalizer estimates s_j from exactly
those L + 1 rows, with L read off the tap track (Tuechler, Singer &
Koetter, "Minimum mean squared error equalization using a priori
information", IEEE Trans. Signal Process. 50(3), 2002).
"""

from __future__ import annotations

import numpy as np

from . import constellation as cst
from .constellation import L_MAX
from .fec import LdpcCode, decode
from .metrics import IterationMetrics, effective_snr, gmi_bits_per_2d, post_fec_ber
from .waveform import SymbolFrame

# Instants or symbols per pass of the turbo receiver: the RLS filters and
# solves the frame this many instants at a time, and each iteration
# equalizes and demaps the decoded symbols, and turns their priors into
# soft statistics, this many at a time. No symbol's result depends on the
# pass it falls in, so memory does not grow with the frame. The largest
# per-instant temporaries are the RLS's [R | p] rows, 2(L+1) x 2(L+2)
# complex, 768 B at L = 2, and the LMMSE's window matrices over N = L + 1
# rows and W = 2L + 1 symbols per polarization with their products, 21 kB
# at L = 6.
CHUNK = 1024


class TurboError(RuntimeError):
    pass


def _gather(arr: np.ndarray, idx: np.ndarray, fill) -> np.ndarray:
    """``arr`` along its last axis at ``idx`` (broadcast against the other
    axes), and ``fill`` where ``idx`` falls outside that axis."""
    size = arr.shape[-1]
    out = np.take_along_axis(arr, np.clip(idx, 0, size - 1), axis=-1)
    np.copyto(out, fill, where=(idx < 0) | (idx >= size))
    return out


def _regressors(means: np.ndarray, memory: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """(hi - lo, 2(L+1)) joint regressors for memory L at the instants
    lo .. hi - 1 (all by default): row i holds s_mean_p(i+d-n) for input
    polarization p and tap n = 0..L, zero outside the frame."""
    hi = means.shape[1] if hi is None else hi
    idx = np.arange(lo, hi)[:, None, None] + (memory + 1) // 2 - np.arange(memory + 1)
    return _gather(means[None], idx, 0.0).reshape(hi - lo, -1)


def rls_estimate(
    received: np.ndarray,
    means: np.ndarray,
    memory: int = 2,
    forgetting: float = 0.99,
    delta: float = 0.01,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponentially weighted RLS tracking of the 2x2 channel taps of
    memory L = ``memory``, with forgetting factor lam = ``forgetting``.

    ``received`` and ``means`` are (2, m): symbol-rate samples and the soft
    symbol means aligned to them (pilot means pinned to the pilot symbols).
    Returns (track, taps, errors): the (m, 2, 2, L+1) pre-update taps
    [instant, out pol, in pol, tap] that predict each sample, the (2, 2, L+1)
    taps after the last update, and the (2, m) a-priori prediction errors.

    RLS started from the inverse correlation I/delta and zero taps is
    exponentially weighted least squares with the regulariser
    delta lam^i |h|^2 (Haykin, Adaptive Filter Theory, RLS chapter): the
    taps after the i-th update solve R_i h = p_i, where R_i =
    lam R_{i-1} + u_i u_i^H and p_i = lam p_{i-1} + u_i conj(r_i) are
    first-order recursions over the instants the skip rule keeps, started
    from R_0 = delta I and p_0 = 0. [R | p] carries across the frame, so
    the estimator owns its passes: it filters and solves ``CHUNK`` instants
    at a time, each pass starting from the [R | p] and the taps the last
    one left, and memory beyond the returned arrays does not grow with the
    frame.
    """
    m = received.shape[1]
    lp1 = memory + 1
    dim = 2 * lp1
    lam = forgetting
    track = np.empty((m, 2, dim), dtype=complex)
    errors = np.empty((2, m), dtype=complex)
    # [R | p] and the taps after the last kept instant so far
    last, taps = delta * np.eye(dim, dim + 2), np.zeros((2, dim), dtype=complex)
    for lo in range(0, m, CHUNK):
        hi = min(lo + CHUNK, m)
        regs = _regressors(means, memory, lo, hi)
        # near-zero regressors (uninformative priors) carry no tap information;
        # filtering them in would only make R and p forget what came before
        keep = np.sum(np.abs(regs) ** 2, axis=1) > 1e-3 * lp1
        u = regs[keep]
        # (kept + 1, dim, dim + 2): the last [R | p], then the increments
        stats = np.empty((len(u) + 1, dim, dim + 2), dtype=complex)
        stats[0] = last
        np.multiply(u[:, :, None], np.conj(u[:, None, :]), out=stats[1:, :, :dim])
        np.multiply(
            u[:, :, None], np.conj(received[:, lo:hi][:, keep].T)[:, None, :],
            out=stats[1:, :, dim:],
        )
        # in place, row i becomes increment_i + lam * row_{i-1}: the one
        # product and one sum per entry of scipy.signal.lfilter's direct
        # form, same bits
        for prev, row in zip(stats[:-1], stats[1:]):
            row += lam * prev
        solved = np.linalg.solve(stats[1:, :, :dim], stats[1:, :, dim:])
        # (kept + 1, 2, dim): the last taps, then the taps after each update
        after = np.concatenate([taps[None], solved.transpose(0, 2, 1)])
        # each instant predicts with the taps left by the last kept instant
        # before it
        track[lo:hi] = after[np.cumsum(keep) - keep]
        errors[:, lo:hi] = received[:, lo:hi] - np.einsum(
            "mok,mk->om", np.conj(track[lo:hi]), regs
        )
        last, taps = stats[-1].copy(), after[-1].copy()
    return track.reshape(m, 2, 2, lp1), taps.reshape(2, 2, lp1), errors


def lmmse_equalize(
    received: np.ndarray,
    track: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    noise_var: float,
    instants: np.ndarray,
    symbol_energy: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sliding-window MIMO 2x2 LMMSE estimation with symbol priors, at the
    frame instants ``instants`` (in any order).

    s_j is estimated from the N = L + 1 rows r_{j-d} .. r_{j+L-d} that it
    reaches, which hold the symbols s_{j-L} .. s_{j+L}; L is the memory of
    the (m, 2, 2, L+1) tap track of ``rls_estimate``. The windowed channel
    matrix takes each row's taps from that track (the first or last
    instant's taps beyond the frame), the prior mean of
    s_j is excluded from the interference cancellation while its variance
    entry is the blind symbol energy, and the Wiener solution is obtained by
    a direct Hermitian solve. Beyond the frame, rows are zero and symbols
    have mean 0 and the blind symbol energy as variance. No instant's solve
    depends on another's, so all of ``instants`` are solved in one pass and
    the caller bounds its memory by how many it asks for.

    Returns (estimates, scale mu, noise nu2), each (2, len(instants)).
    """
    m = received.shape[1]
    if track.shape[0] != m:
        raise TurboError("tap track does not cover all instants")
    if np.any((instants < 0) | (instants >= m)):
        raise TurboError("instants outside the frame")
    mem = track.shape[-1] - 1
    d = (mem + 1) // 2
    nw = mem + 1  # rows per polarization
    wwin = nw + mem  # symbol window width per polarization
    sig2 = symbol_energy
    center = mem  # window position of s_j
    # banded window matrix H (2N, 2W) per instant: row i, symbol s_t takes
    # tap n = i + d - t, that is n = row + L - col within the window, from
    # the taps at the row's instant
    band = np.arange(nw)[:, None, None] + mem - np.arange(wwin)  # (N, 1, W)

    j = instants[:, None, None]
    mc = j.shape[0]
    rows = j - d + np.arange(nw)  # (mc, 1, N) row instants
    syms = j - mem + np.arange(wwin)  # (mc, 1, W) symbol indices
    hmat = _gather(
        np.conj(track[np.clip(rows[:, 0], 0, m - 1)]).transpose(0, 2, 1, 3, 4),
        band[None, None],
        0.0,
    )  # (mc, 2, N, 2, W)
    hsel = hmat[..., center].reshape(mc, 2 * nw, 2)  # response to s_j
    hmat = hmat.reshape(mc, 2 * nw, 2 * wwin)

    sbar = _gather(means[None], syms, 0.0)  # (mc, 2, W)
    svar = _gather(variances[None], syms, sig2)
    sbar[..., center] = 0.0
    svar[..., center] = sig2
    sbar, svar = sbar.reshape(mc, 2 * wwin), svar.reshape(mc, 2 * wwin)
    rwin = _gather(received[None], rows, 0.0).reshape(mc, 2 * nw)

    # A = H R H^H + sigma_n^2 I ; b = H e sig2 (response to the center symbol)
    hr = hmat * svar[:, None, :]
    a = hr @ hmat.conj().transpose(0, 2, 1)
    a += noise_var * np.eye(2 * nw)[None]
    w = np.linalg.solve(a, hsel * sig2)  # (mc, 2N, 2)

    resid = rwin - np.einsum("mrc,mc->mr", hmat, sbar)
    s_hat = np.einsum("mrp,mr->pm", np.conj(w), resid)
    mu_full = np.einsum("mrp,mrk->mpk", np.conj(w), hsel)  # (mc, 2, 2)
    mu = np.clip(np.real(np.einsum("mpp->pm", mu_full)), 0.0, 1.0)
    nu2 = np.maximum(mu * sig2 - mu**2 * sig2, cst.NU2_FLOOR_REL * sig2)
    return s_hat, mu, nu2


def soft_symbols(priors: np.ndarray, frame: SymbolFrame) -> tuple[np.ndarray, np.ndarray]:
    """(2, m) symbol means and variances: the known instants pinned to
    their symbols, and the decoded ones from ``priors``, the (2, decoded
    instants, q) L-values of their bits, ``CHUNK`` symbols at a time."""
    c, pos = frame.constellation, frame.data_positions[frame.n_known_data :]
    means, variances = frame.symbols.copy(), np.zeros(frame.symbols.shape)
    for lo in range(0, pos.size, CHUNK):
        pr = cst.symbol_priors(priors[:, lo : lo + CHUNK], c)
        means[:, pos[lo : lo + CHUNK]], variances[:, pos[lo : lo + CHUNK]] = cst.soft_stats(pr, c)
    return means, variances


def estimate(
    received: np.ndarray, frame: SymbolFrame, means: np.ndarray
) -> tuple[np.ndarray, float]:
    """(track, noise_var): the RLS tap track from the symbol ``means``, and
    the noise variance from its errors at the pilots, where the means are exact."""
    track, _, errors = rls_estimate(received, means)
    return track, max(float(np.mean(np.abs(errors[:, frame.pilot_mask]) ** 2)), 1e-12)


def equalize_demap(
    received: np.ndarray, frame: SymbolFrame, noise_var: float, priors: np.ndarray | None = None,
    track: np.ndarray | None = None, means: np.ndarray | None = None,
    variances: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equalize and demap the decoded instants, ``CHUNK`` at a time: the
    LMMSE on the tap ``track`` with the ``soft_symbols`` statistics, or,
    without one, the received symbols with mu = 1; the demapper weighs each
    estimate once with its bits' ``priors``, if any. Returns (estimates
    scaled by 1/mu, extrinsic, prior_free) of the decoded instants."""
    c, pos = frame.constellation, frame.data_positions[frame.n_known_data :]
    est = np.empty((2, pos.size), dtype=complex)
    extrinsic, prior_free = np.empty((2, pos.size, c.q)), np.empty((2, pos.size, c.q))
    for lo in range(0, pos.size, CHUNK):
        at = slice(lo, lo + CHUNK)
        s_hat, mu, nu2 = received[:, pos[at]], 1.0, noise_var
        if track is not None:
            s_hat, mu, nu2 = lmmse_equalize(
                received, track, means, variances, noise_var, pos[at], symbol_energy=c.energy
            )
        extrinsic[:, at], prior_free[:, at] = cst.extrinsic_llrs(
            s_hat, mu, nu2, None if priors is None else priors[:, at], c
        )
        est[:, at] = s_hat / np.where(mu > 1e-6, mu, 1.0)
    return est, extrinsic, prior_free


def decode_blocks(
    extrinsic: np.ndarray, frame: SymbolFrame, code: LdpcCode
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Decode the blocks after the training blocks from the ``extrinsic``
    L-values (L = ln P(1)/P(0)) of the decoded instants' bits. Returns
    (app, info, ok): their a-posteriori L-values, shaped as ``extrinsic``
    and certain for training bits, the (2, decoded blocks, k) info bits,
    and whether every decoded block passed parity."""
    n, nb, nt = frame.block_len, frame.n_blocks, frame.n_train_blocks
    decoded = frame.order[frame.n_known_data * frame.constellation.q :]  # code-domain indices
    app = np.empty((2, nb * n))  # in code order: decoder inputs, then outputs
    app[:, decoded] = extrinsic.reshape(2, -1)
    train = frame.order < nt * n
    app[:, frame.order[train]] = np.where(frame.coded_bits[:, train] == 1, L_MAX, -L_MAX)
    info, ok = np.empty((2, nb - nt, code.k), dtype=np.uint8), True
    for p in range(2):
        for b in range(nt, nb):
            block = app[p, b * n : (b + 1) * n]
            block[:], hard, passed, _ = decode(block, code)
            info[p, b - nt], ok = hard[code.info_positions], ok and passed
    return app[:, decoded].reshape(extrinsic.shape), info, ok


def turbo_loop(
    received: np.ndarray, frame: SymbolFrame, n_iters: int, code: LdpcCode
) -> list[IterationMetrics]:
    """Run the equalize/decode loop on ``received``, the front end's
    symbol-rate output aligned to ``frame``, and return what each iteration
    measures, in order. Iteration 0 equalizes with the pilot residuals'
    noise variance and no priors; up to ``n_iters`` more run every step on
    the decoder's L-values. BER counts the decoded blocks, and SNR and GMI
    the decoded instants. From iteration 2 on, the loop stops once every
    decoded block passes parity and the output's SNR, scored against the
    decoder's decisions, moved by less than 0.01 dB."""
    received = np.asarray(received, dtype=complex)
    if received.shape != frame.symbols.shape:
        raise TurboError(f"received shape {received.shape} != {frame.symbols.shape}")
    pilot = frame.pilot_mask
    if not pilot.any():
        raise TurboError("frame has no pilots to estimate the noise variance from")
    sent = frame.symbols[:, frame.data_positions[frame.n_known_data :]]
    sent_bits = frame.coded_bits.reshape(2, -1, frame.constellation.q)[:, frame.n_known_data :]
    # the (2, decoded blocks, k) info bits the decoder must return
    true_info = frame.coded_bits[:, np.argsort(frame.order)].reshape(2, frame.n_blocks, -1)
    true_info = true_info[:, frame.n_train_blocks :, code.info_positions]
    # iteration 0's noise variance: the pilot residuals of the unequalized stream
    noise_var = max(float(np.mean(np.abs((received - frame.symbols)[:, pilot]) ** 2)), 1e-12)
    records: list[IterationMetrics] = []
    priors = track = means = variances = None
    for it in range(n_iters + 1):
        if it > 0:
            means, variances = soft_symbols(priors, frame)
            track, noise_var = estimate(received, frame, means)
        est, extrinsic, prior_free = equalize_demap(
            received, frame, noise_var, priors, track, means, variances
        )
        track = None  # rebuilt each iteration: free it before the decode
        priors, info, all_ok = decode_blocks(extrinsic, frame, code)
        ber, n_bits = post_fec_ber(info, true_info)
        gmi4d = sum(map(gmi_bits_per_2d, prior_free, sent_bits))
        records.append(IterationMetrics(
            turbo_iteration=it, post_fec_ber=ber, snr_db=effective_snr(sent, est),
            gmi_bits_per_4d_symbol=gmi4d, n_bits_counted=n_bits,
        ))
        # stop once parity holds and the output, scored on the decisions, saturated
        if all_ok and it >= 2:
            decisions = cst.map_bits(priors > 0, frame.constellation).reshape(2, -1)
            if abs(effective_snr(decisions, est) - effective_snr(decisions, last_est)) < 0.01:
                break
        last_est = est
    return records
