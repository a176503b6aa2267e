"""Receiver DSP between matched filter and turbo equalizer: pilot-based
T/2-spaced MIMO 2x2 NLMS equalization and decision-directed PLL carrier
phase recovery."""

from __future__ import annotations

import math

import numpy as np

from .waveform import DualPolSignal, SymbolFrame


class SyncError(RuntimeError):
    pass


def nlms_equalize(
    signal: DualPolSignal,
    frame: SymbolFrame,
    n_taps: int = 13,
    step_size: float = 0.05,
) -> np.ndarray:
    """Fractionally spaced MIMO 2x2 NLMS equalizer, one output per symbol,
    on a signal whose sample ``sps*i`` carries symbol instant ``i`` (``sps``
    samples per symbol of the frame), as the matched filter delivers it.

    The ``n_taps`` taps per input start as a centred unit pass-through and
    are updated only where the transmitted symbol is known
    (``frame.known_mask``): at the pilots and over the training blocks.
    Returns shape (2, n_instants).
    """
    if n_taps < 1 or n_taps % 2 == 0:
        raise SyncError("n_taps must be odd and positive")
    sps = int(round(signal.sample_rate / frame.symbol_rate))
    # normalize to unit average power per polarization pair
    scale = np.sqrt(signal.power() / 2.0)
    half = n_taps // 2
    rx = np.pad(signal.fields / scale, ((0, 0), (half, half)))
    n_sym = frame.n_instants
    update = frame.known_mask
    out = np.empty((2, n_sym), dtype=complex)
    w = np.zeros((2, 2, n_taps), dtype=complex)  # [out, in, tap]
    w[0, 0, half] = w[1, 1, half] = 1.0
    in_power = np.mean(np.abs(rx) ** 2)
    for i in range(n_sym):
        # regression window centered on the symbol's sample
        u = rx[:, i * sps : i * sps + n_taps][:, ::-1]  # (2, n_taps)
        y0 = np.sum(np.conj(w[0]) * u)
        y1 = np.sum(np.conj(w[1]) * u)
        out[0, i], out[1, i] = y0, y1
        if update[i]:
            norm = np.sum(np.abs(u) ** 2) + 1e-6  # eps: keeps an all-zero window finite
            e0 = frame.symbols[0, i] - y0
            e1 = frame.symbols[1, i] - y1
            g = (step_size / norm) * u
            w[0] += np.conj(e0) * g
            w[1] += np.conj(e1) * g
    with np.errstate(over="ignore", invalid="ignore"):
        out_power = np.mean(np.abs(out) ** 2)
    if not np.isfinite(out_power) or out_power > 10.0 * max(in_power, 1e-30):
        raise SyncError("NLMS diverged: output power exceeds 10x input")
    return out


_SLIP_PILOTS = 16  # pilots per block of the cycle-slip rule


def count_slips(out: np.ndarray, frame: SymbolFrame) -> int:
    """Cycle slips in a corrected frame: the phase of the pilots against the
    phase track, averaged over blocks of ``_SLIP_PILOTS`` pilots, steps to
    another quarter turn and stays there for at least two blocks."""
    k = _SLIP_PILOTS
    nb = int(frame.pilot_mask.sum()) // k
    z = out[:, frame.pilot_mask] * np.conj(frame.pilot_symbols())
    phase = np.angle(z[:, : nb * k].reshape(2, nb, k).sum(axis=2))
    quarter = np.round(phase / (np.pi / 2)).astype(int) % 4
    held = quarter[:, 1:] == quarter[:, :-1]
    return sum(int(np.count_nonzero(np.diff(q[h]))) for q, h in zip(quarter[:, 1:], held))


def pll_gains(loop_bw_norm: float) -> tuple[float, float]:
    """Proportional and integral gains of the critically damped (damping 1)
    second-order loop with normalized bandwidth ``loop_bw_norm``."""
    wn = 2.0 * loop_bw_norm / 1.25  # 1.25 = z + 1/(4z) at z = 1
    return 2.0 * wn, wn * wn


def ddpll(
    symbols: np.ndarray,
    frame: SymbolFrame,
    loop_bw_norm: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray]:
    """Carrier phase recovery from zero phase, one loop per polarization,
    pilot-aided at pilot instants and decided on the frame's constellation
    elsewhere. Returns (corrected symbols, phase track (2, n));
    ``count_slips`` counts slips."""
    c = frame.constellation
    kp, ki = pll_gains(loop_bw_norm)
    n = symbols.shape[1]
    out = np.empty_like(symbols)
    track = np.empty((2, n))
    a = c.axis_levels
    n_lv, step = a.size, float(a[1] - a[0])

    def level(x: float) -> int:  # hard_decide's per-axis rule, on a scalar
        return min(max(math.ceil(x / step + n_lv / 2) - 1, 0), n_lv - 1)

    for p in range(2):
        theta = acc = 0.0
        for i in range(n):
            v = symbols[p, i] * np.exp(-1j * theta)
            out[p, i] = v
            track[p, i] = theta
            if frame.pilot_mask[i]:
                ref = frame.symbols[p, i]
            else:
                ref = c.points[level(v.real) * n_lv + level(v.imag)]
            err = float(np.angle(v * np.conj(ref)))
            acc += ki * err
            theta += kp * err + acc
    return out, track
