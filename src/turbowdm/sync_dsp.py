"""Receiver DSP between matched filter and turbo equalizer: pilot-based
T/2-spaced MIMO 2x2 NLMS equalization and decision-directed PLL carrier
phase recovery."""

from __future__ import annotations

import cmath
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
    # windows[:, i] is instant i's regression window, centred on its sample
    windows = np.lib.stride_tricks.sliding_window_view(rx, n_taps, axis=1)
    windows = windows[:, : sps * n_sym : sps, ::-1]
    out = np.empty((2, n_sym), dtype=complex)
    w = np.zeros((2, 2, n_taps), dtype=complex)  # [out, in, tap]
    w[0, 0, half] = w[1, 1, half] = 1.0
    in_power = np.mean(np.abs(rx) ** 2)
    start = 0
    for i in [*np.flatnonzero(frame.known_mask).tolist(), n_sym]:
        # the taps are fixed from one update to the next: the outputs up to
        # the next known instant in one batch, each a sum over its
        # contiguous (2, n_taps) product, as one instant alone would be
        u = np.ascontiguousarray(windows[:, start : i + 1].transpose(1, 0, 2))
        out[:, start : i + 1] = np.sum(np.conj(w)[:, None] * u, axis=(2, 3))
        if i < n_sym:
            u = windows[:, i]
            norm = np.sum(np.abs(u) ** 2) + 1e-6  # eps: keeps an all-zero window finite
            e = frame.symbols[:, i] - out[:, i]
            w += np.conj(e)[:, None, None] * ((step_size / norm) * u)
        start = i + 1
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
    z = out[:, frame.pilot_mask] * np.conj(frame.symbols[:, frame.pilot_mask])
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
    a = c.axis_levels
    n_lv, step = a.size, float(a[1] - a[0])
    points = c.points.tolist()
    pilot = frame.pilot_mask.tolist()

    def level(x: float) -> int:  # hard_decide's per-axis rule, on a scalar
        return min(max(math.ceil(x / step + n_lv / 2) - 1, 0), n_lv - 1)

    # the loop runs on Python scalars; the phase error keeps np.arctan2,
    # whose rounding math.atan2 does not always match
    out = np.empty_like(symbols)
    track = np.empty(symbols.shape)
    for p in range(2):
        theta = acc = 0.0
        out_p, track_p = [], []
        for x, known, pil in zip(symbols[p].tolist(), frame.symbols[p].tolist(), pilot):
            v = x * cmath.exp(-1j * theta)
            out_p.append(v)
            track_p.append(theta)
            ref = known if pil else points[level(v.real) * n_lv + level(v.imag)]
            z = v * ref.conjugate()
            err = float(np.arctan2(z.imag, z.real))
            acc += ki * err
            theta += kp * err + acc
        out[p], track[p] = out_p, track_p
    return out, track
