"""Receiver DSP between matched filter and turbo equalizer: frame
alignment, pilot-based T/2-spaced MIMO 2x2 NLMS equalization, and
decision-directed PLL carrier phase recovery."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constellation import Constellation
from .waveform import DualPolSignal, SymbolFrame


class SyncError(RuntimeError):
    pass


@dataclass
class NlmsState:
    """2x2 MIMO FIR taps at T/2 spacing plus the adaptation parameters."""

    n_taps: int = 13
    step_size: float = 0.05
    eps: float = 1e-6
    taps: np.ndarray = field(default=None)  # (2, 2, n_taps): [out, in, tap]

    def __post_init__(self):
        if self.n_taps % 2 == 0:
            raise SyncError("n_taps must be odd")
        if self.taps is None:
            t = np.zeros((2, 2, self.n_taps), dtype=complex)
            t[0, 0, self.n_taps // 2] = 1.0
            t[1, 1, self.n_taps // 2] = 1.0
            self.taps = t


def coarse_align(signal: DualPolSignal, frame: SymbolFrame, sps: int = 2) -> DualPolSignal:
    """Align the received waveform so sample ``sps*i`` corresponds to symbol
    instant ``i``, using cross-correlation against the known pilot sequence."""
    n_sym = frame.n_instants
    need = n_sym * sps
    ref = np.zeros((2, need), dtype=complex)
    pil = frame.pilot_mask
    ref[:, np.nonzero(pil)[0] * sps] = frame.symbols[:, pil]
    n = max(len(signal), need)
    fa = np.fft.fft(signal.fields, n)
    fa *= np.conj(np.fft.fft(ref, n))
    score = np.sum(np.abs(np.fft.ifft(fa)), axis=0)
    lag = int(np.argmax(score))
    rolled = np.roll(signal.fields, -lag, axis=-1) if lag else signal.fields
    pad = need - rolled.shape[1]
    if pad > 0:
        rolled = np.pad(rolled, ((0, 0), (0, pad)))
    return DualPolSignal(fields=rolled[:, :need], sample_rate=signal.sample_rate)


def nlms_equalize(
    signal: DualPolSignal,
    frame: SymbolFrame,
    state: NlmsState | None = None,
    align: bool = True,
) -> np.ndarray:
    """Fractionally spaced MIMO 2x2 NLMS equalizer, one output per symbol.

    Taps are updated only where the transmitted symbol is known
    (``frame.known_mask``): at the pilots and over the training blocks.
    Returns shape (2, n_instants).
    """
    if state is None:
        state = NlmsState()
    sps = int(round(signal.sample_rate / frame.symbol_rate))
    if align:
        signal = coarse_align(signal, frame, sps)
    # normalize to unit average power per polarization pair
    scale = np.sqrt(signal.power() / 2.0)
    rx = signal.fields / scale
    n_sym = frame.n_instants
    nt = state.n_taps
    half = nt // 2
    rx = np.pad(rx, ((0, 0), (half, half)))
    update = frame.known_mask
    out = np.empty((2, n_sym), dtype=complex)
    w = state.taps
    mu, eps = state.step_size, state.eps
    in_power = np.mean(np.abs(rx) ** 2)
    for i in range(n_sym):
        # regression window centered on the symbol's sample
        u = rx[:, i * sps : i * sps + nt][:, ::-1]  # (2, nt)
        y0 = np.sum(np.conj(w[0]) * u)
        y1 = np.sum(np.conj(w[1]) * u)
        out[0, i], out[1, i] = y0, y1
        if update[i]:
            norm = np.sum(np.abs(u) ** 2) + eps
            e0 = frame.symbols[0, i] - y0
            e1 = frame.symbols[1, i] - y1
            g = (mu / norm) * u
            w[0] += np.conj(e0) * g
            w[1] += np.conj(e1) * g
    with np.errstate(over="ignore", invalid="ignore"):
        out_power = np.mean(np.abs(out) ** 2)
    if not np.isfinite(out_power) or out_power > 10.0 * max(in_power, 1e-30):
        raise SyncError("NLMS diverged: output power exceeds 10x input")
    state.taps = w
    return out


_SLIP_PILOTS = 16  # pilots per block of the cycle-slip rule


def _count_slips(out: np.ndarray, frame: SymbolFrame) -> int:
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


@dataclass
class DdpllState:
    """Second-order phase-locked loop state, one branch per polarization,
    and the count of cycle slips seen so far."""

    loop_bw_norm: float = 1e-3
    damping: float = 1.0
    phase: np.ndarray = field(default=None)
    integrator: np.ndarray = field(default=None)
    slips: int = field(default=0, init=False)

    def __post_init__(self):
        if self.phase is None:
            self.phase = np.zeros(2)
        if self.integrator is None:
            self.integrator = np.zeros(2)

    @property
    def gains(self) -> tuple[float, float]:
        z = self.damping
        wn = 2.0 * self.loop_bw_norm / (z + 1.0 / (4.0 * z))
        return 2.0 * z * wn, wn * wn


def ddpll(
    symbols: np.ndarray,
    frame: SymbolFrame,
    c: Constellation,
    state: DdpllState | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Carrier phase recovery: pilot-aided at pilot instants, decision
    directed elsewhere. Returns (corrected symbols, phase track (2, n)).
    ``state.slips`` counts the quarter-turn steps of the pilots' phase
    against the track that persist (``_count_slips``): the loop then holds
    a rotated copy of the constellation."""
    if state is None:
        state = DdpllState()
    kp, ki = state.gains
    n = symbols.shape[1]
    out = np.empty_like(symbols)
    track = np.empty((2, n))
    a = c.axis_levels
    n_lv, step = a.size, float(a[1] - a[0])

    def level(x: float) -> int:  # hard_decide's per-axis rule, on a scalar
        return min(max(math.ceil(x / step + n_lv / 2) - 1, 0), n_lv - 1)

    for p in range(2):
        theta = state.phase[p]
        acc = state.integrator[p]
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
        state.phase[p] = theta
        state.integrator[p] = acc
    state.slips += _count_slips(out, frame)
    return out, track
