"""Symbol framing with pilots, RRC shaping/matched filtering, FFT
resampling, WDM multiplexing and channel-of-interest extraction."""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .constellation import Constellation, hard_decide, map_bits


class WaveformError(ValueError):
    pass


@dataclass
class DualPolSignal:
    """Sampled dual-polarization complex waveform: ``fields`` has shape
    (2, n), row 0 the x and row 1 the y polarization."""

    fields: np.ndarray
    sample_rate: float

    def __post_init__(self):
        if self.fields.ndim != 2 or self.fields.shape[0] != 2:
            raise WaveformError(f"fields shape {self.fields.shape} is not (2, n)")
        if self.sample_rate <= 0:
            raise WaveformError("sample_rate must be positive")

    def __len__(self) -> int:
        return self.fields.shape[1]

    def power(self) -> float:
        """Total average power, both polarizations."""
        return float(np.mean(np.sum(np.abs(self.fields) ** 2, axis=0)))

    def scaled(self, factor: float) -> "DualPolSignal":
        return replace(self, fields=self.fields * factor)


@dataclass
class SymbolFrame:
    """Dual-pol symbol sequence and its layout: constellation, pilot mask,
    interleaver order, training region and counted blocks.

    ``symbols`` has shape (2, n_instants). Pilots are co-located across
    polarizations; data instant j of a polarization carries interleaved
    coded bits q*j .. q*j+q-1 of that polarization's bit stream (q bits
    per point of ``constellation``), whose position i carries bit
    ``order[i] % block_len`` of codeword ``order[i] // block_len``. The
    receiver knows the first ``n_train_blocks`` codewords.
    """

    symbols: np.ndarray
    pilot_mask: np.ndarray
    coded_bits: np.ndarray  # (2, n_blocks * n) interleaved coded bits
    order: np.ndarray  # code-domain index of each interleaved bit, fec.frame_order
    n_blocks: int
    block_len: int
    n_train_blocks: int
    constellation: Constellation
    symbol_rate: float

    @property
    def n_instants(self) -> int:
        return self.symbols.shape[1]

    @property
    def data_positions(self) -> np.ndarray:
        return np.nonzero(~self.pilot_mask)[0]

    @property
    def n_data(self) -> int:
        return int(np.sum(~self.pilot_mask))

    @property
    def counted_blocks(self) -> slice:
        """Blocks the metrics count: those after the training blocks, but
        not the last, which trailing filter transients reach."""
        return slice(self.n_train_blocks, self.n_blocks - 1)

    @property
    def known_mask(self) -> np.ndarray:
        """Instants whose symbols the receiver knows: the pilots and the
        data instants of the training blocks."""
        known = self.pilot_mask.copy()
        training = self.block_of_data_symbol() < self.n_train_blocks
        known[self.data_positions[training]] = True
        return known

    def data_symbols(self) -> np.ndarray:
        return self.symbols[:, ~self.pilot_mask]

    def pilot_symbols(self) -> np.ndarray:
        return self.symbols[:, self.pilot_mask]

    def block_of_data_symbol(self) -> np.ndarray:
        """FEC block index of each data instant (index of its first bit)."""
        return (np.arange(self.n_data) * self.constellation.q) // self.block_len


def pilot_positions(n_data: int, pilot_rate: float) -> np.ndarray:
    """Boolean mask over instants: fixed-stride pilots between data symbols."""
    if pilot_rate == 0:
        return np.zeros(n_data, dtype=bool)
    stride = int(round(1.0 / pilot_rate))
    if stride < 2:
        raise WaveformError(f"pilot rate {pilot_rate} leaves no data between pilots")
    # each pilot opens a run of stride - 1 data instants, so n_data data
    # symbols take ceil(n_data / (stride - 1)) pilots
    total = n_data - (-n_data // (stride - 1))
    mask = np.zeros(total, dtype=bool)
    mask[::stride] = True
    return mask


def build_frame(
    codewords: np.ndarray,
    order: np.ndarray,
    n_train_blocks: int,
    c: Constellation,
    pilot_rate: float,
    seed: int,
    symbol_rate: float = 32e9,
) -> SymbolFrame:
    """Assemble the dual-pol symbol frame from the (2, n_blocks, n)
    codewords in code order: interleave them by ``order``, which must
    permute each block within itself (``fec.frame_order`` draws one), map
    them, and insert seeded pilot symbols at a fixed stride. The first
    ``n_train_blocks`` codewords are training blocks; at least one block
    after them and before the last must be left to count."""
    codewords = np.asarray(codewords, dtype=np.uint8)
    if codewords.ndim != 3 or codewords.shape[0] != 2:
        raise WaveformError("expected (2, n_blocks, n) codewords")
    _, n_blocks, block_len = codewords.shape
    total_bits = n_blocks * block_len
    if total_bits % c.q:
        raise WaveformError("coded bit count not divisible by q")
    order = np.asarray(order)
    if order.shape != (total_bits,):
        raise WaveformError(f"order has shape {order.shape}, not ({total_bits},)")
    if not 0 <= n_train_blocks <= n_blocks - 2:
        raise WaveformError("need 0 <= n_train_blocks <= n_blocks - 2")
    coded_bits = codewords.reshape(2, -1)[:, order]
    mask = pilot_positions(total_bits // c.q, pilot_rate)
    rng = np.random.default_rng(seed)
    n_pilots = int(mask.sum())
    symbols = np.empty((2, mask.size), dtype=complex)
    symbols[:, ~mask] = map_bits(coded_bits, c).reshape(2, -1)
    # one draw per polarization keeps the seeded pilot sequences
    symbols[:, mask] = c.points[[rng.integers(0, c.order, n_pilots) for _ in range(2)]]
    return SymbolFrame(
        symbols=symbols,
        pilot_mask=mask,
        coded_bits=coded_bits,
        order=order,
        n_blocks=n_blocks,
        block_len=block_len,
        n_train_blocks=n_train_blocks,
        constellation=c,
        symbol_rate=symbol_rate,
    )


def extract_data_bits(frame: SymbolFrame) -> np.ndarray:
    """Invert the frame's data/bit alignment from its own symbols (round-trip
    check helper): nearest-point demap of the data instants."""
    c = frame.constellation
    idx = hard_decide(frame.data_symbols(), c)
    return c.bit_labels[idx].reshape(2, -1)


@functools.cache
def rrc_taps(samples_per_symbol: int, rolloff: float, span_symbols: int = 64) -> np.ndarray:
    """Unit-energy root-raised-cosine FIR taps, built once per argument set
    and shared read-only."""
    if not 0 < rolloff <= 1:
        raise WaveformError(f"invalid rolloff {rolloff}")
    if samples_per_symbol < 2:
        raise WaveformError("need at least 2 samples/symbol")
    sps = samples_per_symbol
    n = span_symbols * sps
    t = (np.arange(-n // 2, n // 2 + 1)) / sps  # in symbol periods
    a = rolloff
    taps = np.empty_like(t)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-9:
            taps[i] = 1.0 - a + 4.0 * a / np.pi
        elif abs(abs(ti) - 1.0 / (4.0 * a)) < 1e-9:
            taps[i] = (a / np.sqrt(2.0)) * (
                (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * a))
                + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * a))
            )
        else:
            num = np.sin(np.pi * ti * (1 - a)) + 4 * a * ti * np.cos(np.pi * ti * (1 + a))
            den = np.pi * ti * (1 - (4 * a * ti) ** 2)
            taps[i] = num / den
    taps /= np.sqrt(np.sum(taps**2))
    taps.setflags(write=False)
    return taps


def upsample_filter(taps: np.ndarray, x: np.ndarray, up: int) -> np.ndarray:
    """Complex ``x`` upsampled by ``up`` (zeros stuffed along the last axis)
    and filtered with the real ``taps``, bit for bit
    ``scipy.signal.upfirdn(taps, x, up)``: polyphase, output j*up + t sums
    x[j-i] * taps[i*up + t] from the oldest input sample to the newest,
    starting from 0, as upfirdn does."""
    per_phase = -(-len(taps) // up)
    # complex taps: the product is upfirdn's complex one, without a cast
    padded = np.zeros(per_phase * up, dtype=complex)
    padded[: len(taps)] = taps
    n_x = x.shape[-1]
    n_j = n_x + per_phase - 1
    xpad = np.zeros((*x.shape[:-1], n_j + per_phase - 1), dtype=complex)
    xpad[..., per_phase - 1 : per_phase - 1 + n_x] = x
    # one phase at a time keeps the accumulator in cache at 16 sps
    acc = np.zeros((up, *x.shape[:-1], n_j), dtype=complex)
    term = np.empty_like(acc[0])
    for acc_t, taps_t in zip(acc, padded.reshape(per_phase, up).T):  # taps_t[i] = taps[i*up + t]
        for k, tap in enumerate(taps_t[::-1]):  # i = per_phase - 1 - k
            acc_t += np.multiply(xpad[..., k : k + n_j], tap, out=term)
    out = np.moveaxis(acc, 0, -1).reshape(*x.shape[:-1], n_j * up)
    return out[..., : (n_x - 1) * up + len(taps)]


def rrc_shape(
    frame: SymbolFrame,
    samples_per_symbol: int,
    rolloff: float,
    span_symbols: int = 64,
) -> DualPolSignal:
    """Upsample and pulse-shape the frame; output is delay-compensated so
    sample ``i*sps`` corresponds to symbol instant ``i``."""
    g = rrc_taps(samples_per_symbol, rolloff, span_symbols)
    delay = (len(g) - 1) // 2
    v = upsample_filter(g, frame.symbols, samples_per_symbol)
    return DualPolSignal(
        fields=v[:, delay : delay + frame.n_instants * samples_per_symbol],
        sample_rate=samples_per_symbol * frame.symbol_rate,
    )


def matched_filter(
    signal: DualPolSignal,
    rolloff: float,
    span_symbols: int = 64,
    symbol_rate: float = 32e9,
) -> DualPolSignal:
    sps = signal.sample_rate / symbol_rate
    if abs(sps - round(sps)) > 1e-9:
        raise WaveformError("sample rate is not an integer multiple of symbol rate")
    g = rrc_taps(int(round(sps)), rolloff, span_symbols)
    delay = (len(g) - 1) // 2
    # np.convolve, not upsample_filter at up=1: the two sum in a different order
    full = np.apply_along_axis(np.convolve, -1, signal.fields, g)
    return replace(signal, fields=full[:, delay : delay + len(signal)])


def fft_resample(signal: DualPolSignal, new_sample_rate: float) -> DualPolSignal:
    """Spectral resampling to a commensurate sample rate."""
    ratio = new_sample_rate / signal.sample_rate
    n = len(signal)
    n_new = int(round(n * ratio))
    if abs(n * ratio - n_new) > 1e-6:
        raise WaveformError("resampling ratio not commensurate with signal length")
    h = min(n, n_new) // 2
    out = np.zeros((2, n_new), dtype=complex)
    # row by row and in place: a (2, n) transform allocates scratch for both
    # rows at once, which sets the peak memory at paper-sized lengths
    for v, spec_new in zip(signal.fields, out):
        spec = np.fft.fft(v)
        spec_new[:h] = spec[:h]
        spec_new[-h:] = spec[-h:]
        np.fft.ifft(spec_new, out=spec_new)
    out *= n_new / n
    return replace(signal, fields=out, sample_rate=new_sample_rate)


def wdm_mux(channels: list[DualPolSignal], spacing_hz: float) -> DualPolSignal:
    """Sum of frequency-shifted channels with the center channel at 0 Hz."""
    if not channels:
        raise WaveformError("no channels")
    fs = channels[0].sample_rate
    n = max(len(ch) for ch in channels)
    if any(abs(ch.sample_rate - fs) > 1e-6 for ch in channels):
        raise WaveformError("channels must share a sample rate")
    n_ch = len(channels)
    if (n_ch - 1) * spacing_hz >= fs:
        raise WaveformError("aggregate WDM band exceeds the sampling bandwidth")
    t = np.arange(n) / fs
    out = np.zeros((2, n), dtype=complex)
    center = (n_ch - 1) / 2.0
    for i, ch in enumerate(channels):
        f = (i - center) * spacing_hz
        tone = np.exp(2j * np.pi * f * t)
        out[:, : len(ch)] += ch.fields * tone[: len(ch)]
    return DualPolSignal(fields=out, sample_rate=fs)


def select_channel(
    signal: DualPolSignal,
    offset_hz: float,
    bandwidth_hz: float,
    out_sample_rate: float | None = None,
    transition_hz: float | None = None,
) -> DualPolSignal:
    """Band-pass filter around ``offset_hz``, downconvert to baseband, and
    resample. The filter is flat in its passband with a raised-cosine
    transition to the stopband."""
    fs = signal.sample_rate
    if bandwidth_hz >= fs:
        raise WaveformError("bandwidth exceeds sample rate")
    if transition_hz is None:
        transition_hz = 0.15 * bandwidth_hz
    n = len(signal)
    t = np.arange(n) / fs
    f = np.fft.fftfreq(n, d=1.0 / fs)
    half = bandwidth_hz / 2.0
    af = np.abs(f)
    mask = np.zeros(n)
    mask[af <= half] = 1.0
    trans = (af > half) & (af < half + transition_hz)
    mask[trans] = 0.5 * (1.0 + np.cos(np.pi * (af[trans] - half) / transition_hz))
    shift = np.exp(-2j * np.pi * offset_hz * t)
    fields = signal.fields * shift
    # row by row and in place, as in fft_resample
    for v in fields:
        np.fft.fft(v, out=v)
        v *= mask
        np.fft.ifft(v, out=v)
    out = DualPolSignal(fields=fields, sample_rate=fs)
    if out_sample_rate is not None and abs(out_sample_rate - fs) > 1e-6:
        out = fft_resample(out, out_sample_rate)
    return out
