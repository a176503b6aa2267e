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

from dataclasses import dataclass

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


@dataclass(frozen=True)
class TurboConfig:
    """The dbp_turbo receiver's iteration budget: at most ``n_turbo_iters``
    equalize/decode iterations after iteration 0."""

    n_turbo_iters: int = 5

    def __post_init__(self):
        if self.n_turbo_iters < 0:
            raise TurboError("n_turbo_iters must be nonnegative")


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


def turbo_loop(
    received: np.ndarray,
    frame: SymbolFrame,
    n_iters: int,
    code: LdpcCode,
) -> list[IterationMetrics]:
    """Run the iterative equalize/decode loop on one frame and return what
    each iteration run measures, in order.

    ``received`` is the symbol-rate dual-pol output of the front-end DSP,
    aligned to the frame. Iteration 0 bypasses the equalizer and demaps the
    received symbols under a scalar AWGN assumption; up to ``n_iters``
    subsequent iterations feed decoder soft output to the RLS channel
    estimator and the LMMSE equalizer, then demap its output with the
    updated priors. Each iteration equalizes and demaps the decoded
    symbols ``CHUNK`` at a time, and demaps each once: the demapper's
    prior-free L-values give the GMI.

    Only the blocks after the frame's training blocks are decoded: the
    receiver knows the training blocks, and their certain L-values stand in
    for a decode. The data instants after the frame's ``n_known_data`` carry
    the decoded bits, and only they are equalized, demapped and measured:
    BER counts the decoded blocks, and SNR and GMI the decoded instants. The
    loop stops from iteration 2 on once every decoded block passes parity
    and the equalizer output's SNR, scored against the decoder's decisions
    and not the transmitted symbols, moved by less than 0.01 dB.
    """
    m = frame.n_instants
    received = np.asarray(received, dtype=complex)
    if received.shape != (2, m):
        raise TurboError(f"received shape {received.shape} != (2, {m})")
    pilot = frame.pilot_mask
    if not pilot.any():
        raise TurboError("frame has no pilots to estimate the noise variance from")
    c = frame.constellation
    q = c.q
    nb, n, n_train_blocks = frame.n_blocks, frame.block_len, frame.n_train_blocks
    to_code = np.argsort(frame.order).reshape(nb, n)  # (block, code bit) -> frame bit

    # the data instants after the known prefix carry a bit of a decoded
    # block; the loop equalizes, demaps, decodes and measures them
    decoded = slice(frame.n_known_data, None)
    decoded_pos = frame.data_positions[decoded]
    decoded_bits = frame.coded_bits.reshape(2, -1, q)[:, decoded]

    # noise variance from pilot residuals of the unequalized stream
    sigma_n2 = float(np.mean(np.abs(received[:, pilot] - frame.symbols[:, pilot]) ** 2))

    code_bits = frame.coded_bits[:, to_code]
    # (2, decoded blocks, k) info bits the decoder must return
    true_info = code_bits[:, n_train_blocks:, code.info_positions]
    # the receiver knows the training blocks, so it decodes only the others;
    # the known bits' a-posteriori L-values (L = ln P(1)/P(0)) are certain
    app = np.empty((2, nb, n))
    app[:, :n_train_blocks] = np.where(code_bits[:, :n_train_blocks] == 1, L_MAX, -L_MAX)

    records: list[IterationMetrics] = []
    priors = None  # (2, decoded symbols, q) decoder L-values of their bits
    nd = decoded_pos.size
    # iteration 0 takes the received symbols with mu = 1 and the pilot noise
    # variance; the rows of training-only symbols in llrs stay unread
    s_hat, mu, nu2 = received[:, decoded_pos], np.ones((2, nd)), max(sigma_n2, 1e-12)
    llrs = np.empty((2, frame.n_data, q))
    extrinsic, prior_free = llrs[:, decoded], np.empty((2, nd, q))

    for it in range(n_iters + 1):
        if it > 0:
            if it == 1:  # the known entries are certain; the priors set the others
                means, variances = frame.symbols.copy(), np.zeros((2, m))
            for lo in range(0, nd, CHUNK):
                at = decoded_pos[lo : lo + CHUNK]
                pr = cst.symbol_priors(priors[:, lo : lo + CHUNK], c)
                means[:, at], variances[:, at] = cst.soft_stats(pr, c)
            track, _, rls_err = rls_estimate(received, means)
            # refresh the noise estimate from the pilot-position residuals,
            # where the regression means are exact
            sigma_n2 = max(float(np.mean(np.abs(rls_err[:, pilot]) ** 2)), 1e-12)

        for lo in range(0, nd, CHUNK):
            at = slice(lo, lo + CHUNK)
            if it > 0:
                s_hat[:, at], mu[:, at], nu2 = lmmse_equalize(
                    received, track, means, variances, sigma_n2, decoded_pos[at],
                    symbol_energy=c.energy,
                )
            extrinsic[:, at], prior_free[:, at] = cst.extrinsic_llrs(
                s_hat[:, at], mu[:, at], nu2, None if priors is None else priors[:, at], c
            )

        track = rls_err = None  # rebuilt each iteration: free them before the decode
        # decode the blocks the receiver does not know
        dec_info = np.empty_like(true_info)
        all_ok = True
        for p in range(2):
            for b in range(n_train_blocks, nb):
                app[p, b], hard, ok, _ = decode(llrs.reshape(2, -1)[p, to_code[b]], code)
                dec_info[p, b - n_train_blocks] = hard[code.info_positions]
                all_ok &= ok

        ber, n_bits = post_fec_ber(dec_info, true_info)
        est = s_hat / np.where(mu > 1e-6, mu, 1.0)
        gmi4d = sum(map(gmi_bits_per_2d, prior_free, decoded_bits))
        records.append(IterationMetrics(
            turbo_iteration=it,
            post_fec_ber=ber,
            snr_db=effective_snr(frame.symbols[:, decoded_pos], est),
            gmi_bits_per_4d_symbol=gmi4d,
            n_bits_counted=n_bits,
        ))
        priors = app.reshape(2, -1)[:, frame.order[frame.n_known_data * q :]].reshape(2, nd, q)
        # stop once the decoded blocks pass parity and the equalizer output,
        # scored against the decoder's own decisions, has saturated
        if all_ok and it >= 2:
            decisions = cst.map_bits(priors > 0, c).reshape(2, -1)
            if abs(effective_snr(decisions, est) - effective_snr(decisions, last_est)) < 0.01:
                break
            del decisions  # free it before the next iteration's passes
        last_est = est
    return records
