"""Adaptive turbo equalization: RLS channel estimation tracking the
time-varying 2x2 ISI, a sliding-window MIMO SISO LMMSE equalizer using
symbol priors, and the iteration loop with the SISO LDPC decoder.

Channel convention: the received symbol stream r is modeled per
polarization pair as r_i = sum_n conj(h_n) * s_{i+d-n} + noise, n = 0..L,
with decision delay d = floor((L+1)/2), so the main tap h_d multiplies s_i
and both pre- and post-cursor ISI are covered. s_j thus reaches rows
r_{j-d} .. r_{j+L-d}, and the equalizer estimates s_j from rows
r_{j-N1} .. r_{j+N2} around its own row r_j (Tuechler, Singer & Koetter,
"Minimum mean squared error equalization using a priori information",
IEEE Trans. Signal Process. 50(3), 2002).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constellation as cst
from .constellation import L_MAX
from .fec import LdpcCode, decode
from .metrics import IterationMetrics, effective_snr, gmi_bits_per_2d, post_fec_ber
from .waveform import SymbolFrame


class TurboError(RuntimeError):
    pass


# instants per LMMSE pass: the window matrices take 2N x 2W entries per
# instant, 21 kB at L = 6 with the covering window (3, 3)
LMMSE_CHUNK = 1024


@dataclass(frozen=True)
class SlidingWindowConfig:
    """Equalizer window of N = N1+N2+1 rows, N1 before and N2 after s_j's
    own row (it covers s_j's whole span when N1 >= d and N2 >= L-d),
    channel memory L, RLS forgetting factor and regularization delta (the
    RLS starts from zero taps with the regulariser delta lam^i |h|^2), and
    turbo iteration count."""

    n1: int = 1
    n2: int = 1
    channel_memory: int = 2  # L
    forgetting: float = 0.99
    n_turbo_iters: int = 5
    rls_delta: float = 0.01

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise TurboError("window bounds must be nonnegative")
        if self.channel_memory < 0:
            raise TurboError("channel_memory must be nonnegative")
        if not 0 < self.forgetting <= 1:
            raise TurboError("forgetting factor must be in (0, 1]")
        if self.n_turbo_iters < 0:
            raise TurboError("n_turbo_iters must be nonnegative")
        if not self.rls_delta > 0:
            raise TurboError("rls_delta must be positive")

    @property
    def n_window(self) -> int:
        return self.n1 + self.n2 + 1

    @property
    def delay(self) -> int:
        return (self.channel_memory + 1) // 2


def _gather(arr: np.ndarray, idx: np.ndarray, fill) -> np.ndarray:
    """``arr`` along its last axis at ``idx`` (broadcast against the other
    axes), and ``fill`` where ``idx`` falls outside that axis."""
    size = arr.shape[-1]
    out = np.take_along_axis(arr, np.clip(idx, 0, size - 1), axis=-1)
    np.copyto(out, fill, where=(idx < 0) | (idx >= size))
    return out


def _regressors(means: np.ndarray, cfg: SlidingWindowConfig) -> np.ndarray:
    """(m, 2(L+1)) joint regressors: row i holds s_mean_p(i+d-n) for input
    polarization p and tap n = 0..L, zero outside the frame."""
    m = means.shape[1]
    idx = np.arange(m)[:, None, None] + cfg.delay - np.arange(cfg.channel_memory + 1)
    return _gather(means[None], idx, 0.0).reshape(m, -1)


def rls_estimate(
    received: np.ndarray,
    means: np.ndarray,
    cfg: SlidingWindowConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponentially weighted RLS tracking of the 2x2 channel taps.

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
    from R_0 = delta I and p_0 = 0.
    """
    m = received.shape[1]
    lp1 = cfg.channel_memory + 1
    dim = 2 * lp1
    regs = _regressors(means, cfg)
    # near-zero regressors (uninformative priors) carry no tap information;
    # filtering them in would only make R and p forget what came before
    keep = np.sum(np.abs(regs) ** 2, axis=1) > 1e-3 * lp1
    u = regs[keep]
    # (kept + 1, dim, dim + 2): [R_0 | p_0], then the [R | p] increments
    stats = np.empty((len(u) + 1, dim, dim + 2), dtype=complex)
    stats[0] = cfg.rls_delta * np.eye(dim, dim + 2)
    np.multiply(u[:, :, None], np.conj(u[:, None, :]), out=stats[1:, :, :dim])
    np.multiply(u[:, :, None], np.conj(received[:, keep].T)[:, None, :], out=stats[1:, :, dim:])
    # in place, row i becomes increment_i + lam * row_{i-1}: the one product
    # and one sum per entry of scipy.signal.lfilter's direct form, same bits
    lam = cfg.forgetting
    for prev, row in zip(stats[:-1], stats[1:]):
        row += lam * prev
    solved = np.linalg.solve(stats[1:, :, :dim], stats[1:, :, dim:])
    # (kept + 1, 2, dim): the zero taps, then the taps after each update
    after = np.concatenate([np.zeros((1, 2, dim)), solved.transpose(0, 2, 1)])
    # each instant predicts with the taps left by the last kept instant before it
    track = after[np.cumsum(keep) - keep]
    errors = received - np.einsum("mok,mk->om", np.conj(track), regs)
    return track.reshape(m, 2, 2, lp1), after[-1].reshape(2, 2, lp1), errors


def lmmse_equalize(
    received: np.ndarray,
    track: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    cfg: SlidingWindowConfig,
    noise_var: float,
    symbol_energy: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sliding-window MIMO 2x2 LMMSE estimation with symbol priors.

    s_j is estimated from the rows r_{j-N1} .. r_{j+N2}, which hold the
    symbols s_{j-N1+d-L} .. s_{j+N2+d}. The windowed channel matrix takes
    each row's taps from the (m, 2, 2, L+1) tap track of ``rls_estimate``
    (the first or last instant's taps beyond the frame), the prior mean of
    s_j is excluded from the interference cancellation while its variance
    entry is the blind symbol energy, and the Wiener solution is obtained by
    a direct Hermitian solve. Beyond the frame, rows are zero and symbols
    have mean 0 and the blind symbol energy as variance. The instants are
    solved ``LMMSE_CHUNK`` at a time, so memory does not grow with the frame.

    Returns (estimates (2, m), scale mu (2, m), noise nu2 (2, m)).
    """
    m = received.shape[1]
    if track.shape[0] != m:
        raise TurboError("tap track does not cover all instants")
    n1, mem, nw, d = cfg.n1, cfg.channel_memory, cfg.n_window, cfg.delay
    wwin = nw + mem  # symbol window width per polarization
    sig2 = symbol_energy
    center = n1 + mem - d  # window position of s_j
    # banded window matrix H (2N, 2W) per instant: row i, symbol s_t takes
    # tap n = i + d - t, that is n = row + L - col within the window, from
    # the taps at the row's instant
    band = np.arange(nw)[:, None, None] + mem - np.arange(wwin)  # (N, 1, W)
    track_h = np.conj(track)

    s_hat = np.empty((2, m), dtype=complex)
    mu = np.empty((2, m))
    for lo in range(0, m, LMMSE_CHUNK):
        j = np.arange(lo, min(lo + LMMSE_CHUNK, m))[:, None, None]
        mc = j.shape[0]
        rows = j - n1 + np.arange(nw)  # (mc, 1, N) row instants
        syms = j - n1 + d - mem + np.arange(wwin)  # (mc, 1, W) symbol indices
        hmat = _gather(
            track_h[np.clip(rows[:, 0], 0, m - 1)].transpose(0, 2, 1, 3, 4),
            band[None, None],
            0.0,
        )  # (mc, 2, N, 2, W)
        hsel = hmat[..., center].reshape(mc, 2 * nw, 2)  # response to s_j
        hmat = hmat.reshape(mc, 2 * nw, 2 * wwin)

        sbar = _gather(means[None], syms, 0.0)  # (mc, 2, W)
        svar = _gather(variances[None], syms, sig2)
        sbar[..., center] = 0.0
        svar[..., center] = sig2
        sbar, svar = sbar.reshape(mc, -1), svar.reshape(mc, -1)
        rwin = _gather(received[None], rows, 0.0).reshape(mc, -1)

        # A = H R H^H + sigma_n^2 I ; b = H e sig2 (response to the center symbol)
        hr = hmat * svar[:, None, :]
        a = hr @ hmat.conj().transpose(0, 2, 1)
        a += noise_var * np.eye(2 * nw)[None]
        w = np.linalg.solve(a, hsel * sig2)  # (mc, 2N, 2)

        resid = rwin - np.einsum("mrc,mc->mr", hmat, sbar)
        s_hat[:, lo : lo + mc] = np.einsum("mrp,mr->pm", np.conj(w), resid)
        mu_full = np.einsum("mrp,mrk->mpk", np.conj(w), hsel)  # (mc, 2, 2)
        mu[:, lo : lo + mc] = np.real(np.einsum("mpp->pm", mu_full))

    mu = np.clip(mu, 0.0, 1.0)
    nu2 = np.maximum(mu * sig2 - mu**2 * sig2, cst.NU2_FLOOR_REL * sig2)
    return s_hat, mu, nu2


@dataclass
class TurboResult:
    hard_bits: np.ndarray  # (2, nb*k) info bits, final iteration
    records: list[IterationMetrics]  # one per iteration run


def turbo_loop(
    received: np.ndarray,
    frame: SymbolFrame,
    cfg: SlidingWindowConfig,
    code: LdpcCode,
    decoder_iters: int = 50,
) -> TurboResult:
    """Run the iterative equalize/decode loop on one frame.

    ``received`` is the symbol-rate dual-pol output of the front-end DSP,
    aligned to the frame. Iteration 0 bypasses the equalizer and demaps the
    received symbols under a scalar AWGN assumption; subsequent iterations
    feed decoder soft output to the RLS channel estimator and the LMMSE
    equalizer, then demap its output with the updated priors.

    Only the blocks after the frame's training blocks are decoded: the
    receiver knows the training blocks, and their info bits and certain
    L-values stand in for a decode. BER, SNR and GMI count only the
    frame's ``counted_blocks``. The loop stops from iteration 2
    on once every decoded block passes parity and the SNR moved by less than
    0.01 dB.
    """
    m = frame.n_instants
    received = np.asarray(received)
    if received.shape != (2, m):
        raise TurboError(f"received shape {received.shape} != (2, {m})")
    c = frame.constellation
    q = c.q
    nb, n, n_train_blocks = frame.n_blocks, frame.block_len, frame.n_train_blocks
    data_pos = frame.data_positions
    pilot = frame.pilot_mask
    to_code = np.argsort(frame.order)

    # receiver-known region: pilots plus the data-aided training blocks
    known = frame.known_mask
    train_data = known[data_pos]
    unknown_pos = data_pos[~train_data]

    # symbols that carry a bit of a decoded block (the last bit decides)
    decoded_data = (q * np.arange(data_pos.size) + q - 1) // n >= n_train_blocks
    decoded_pos = data_pos[decoded_data]
    counted = frame.counted_blocks
    block = frame.block_of_data_symbol()
    counted_data = (counted.start <= block) & (block < counted.stop)
    counted_pos = data_pos[counted_data]

    # noise variance from pilot residuals of the unequalized stream
    pil_res = received[:, pilot] - frame.symbols[:, pilot]
    sigma_n2 = float(np.mean(np.abs(pil_res) ** 2))

    code_bits = frame.coded_bits[:, to_code].reshape(2, nb, n)
    true_info = code_bits[:, :, code.info_positions]  # (2, nb, k)
    # the receiver knows the training blocks, so it decodes only the others;
    # the known bits' a-posteriori L-values (L = ln P(1)/P(0)) are certain
    known_app = np.where(code_bits[:, :n_train_blocks] == 1, L_MAX, -L_MAX)

    result = TurboResult(None, [])
    prior_blocks = None  # (2, nb, n) L-values in deinterleaved (code) domain

    for it in range(cfg.n_turbo_iters + 1):
        if it == 0:
            s_hat = received
            mu = np.ones((2, m))
            nu2 = np.full((2, m), max(sigma_n2, 1e-12))
        else:
            means = np.empty((2, m), dtype=complex)
            variances = np.empty((2, m))
            prior_sym = prior_blocks.reshape(2, -1)[:, frame.order].reshape(2, -1, q)
            for p in range(2):
                pr = cst.symbol_priors(prior_sym[p, ~train_data], c)
                means[p, unknown_pos], variances[p, unknown_pos] = cst.soft_stats(pr, c)
            means[:, known] = frame.symbols[:, known]
            variances[:, known] = 0.0
            track, _, rls_err = rls_estimate(received, means, cfg)
            # refresh the noise estimate from the pilot-position residuals,
            # where the regression means are exact
            sigma_n2 = max(float(np.mean(np.abs(rls_err[:, pilot]) ** 2)), 1e-12)
            s_hat, mu, nu2 = lmmse_equalize(
                received, track, means, variances, cfg, sigma_n2,
                symbol_energy=c.energy,
            )

        # demap the symbols the decoder reads (the rows of training-only
        # symbols stay unread); GMI reads no-prior L-values of the counted
        # symbols, which iteration 0, having no priors, already has
        llrs = np.empty((2, data_pos.size, q))
        for p in range(2):
            prior = None if it == 0 else prior_sym[p, decoded_data]
            llrs[p, decoded_data] = cst.extrinsic_llrs(
                s_hat[p, decoded_pos], mu[p, decoded_pos], nu2[p, decoded_pos], prior, c
            )
        llrs_noprior = llrs[:, counted_data] if it == 0 else np.stack([
            cst.extrinsic_llrs(
                s_hat[p, counted_pos], mu[p, counted_pos], nu2[p, counted_pos], None, c
            )
            for p in range(2)
        ])

        # decode the blocks the receiver does not know
        dec_info = true_info.copy()
        app = np.empty((2, nb, n))
        app[:, :n_train_blocks] = known_app
        all_ok = True
        blocks = llrs.reshape(2, -1)[:, to_code].reshape(2, nb, n)
        for p in range(2):
            for b in range(n_train_blocks, nb):
                app[p, b], hard, ok, _ = decode(blocks[p, b], code, decoder_iters)
                dec_info[p, b] = hard[code.info_positions]
                all_ok &= ok

        ber, n_bits = post_fec_ber(dec_info[:, counted], true_info[:, counted])
        bias = np.where(mu[:, counted_pos] > 1e-6, mu[:, counted_pos], 1.0)
        s_ref = frame.symbols[:, counted_pos]
        s_cnt = s_hat[:, counted_pos] / bias
        gmi4d = sum(
            gmi_bits_per_2d(
                llrs_noprior[p],
                frame.coded_bits[p].reshape(-1, q)[counted_data],
            )
            for p in range(2)
        )
        rec = IterationMetrics(
            turbo_iteration=it,
            post_fec_ber=ber,
            snr_db=effective_snr(s_ref, s_cnt),
            gmi_bits_per_4d_symbol=gmi4d,
            n_bits_counted=n_bits,
        )
        result.records.append(rec)
        result.hard_bits = dec_info.reshape(2, -1)
        prior_blocks = app
        # stop once the decoded blocks pass parity and the equalizer SNR has
        # saturated
        if all_ok and it >= 2:
            if abs(rec.snr_db - result.records[-2].snr_db) < 0.01:
                break
    return result
