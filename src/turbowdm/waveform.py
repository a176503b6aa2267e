"""Symbol framing with pilots, RRC shaping/matched filtering, WDM
multiplexing and channel-of-interest extraction on one FFT-grid filter."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constellation import Constellation, map_bits


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


@dataclass
class SymbolFrame:
    """Dual-pol symbol sequence and its layout: constellation, pilot mask,
    interleaver order and training region.

    ``symbols`` has shape (2, n_instants). Pilots are co-located across
    polarizations; data instant j of a polarization carries interleaved
    coded bits q*j .. q*j+q-1 of that polarization's bit stream (q bits
    per point of ``constellation``), whose position i carries bit
    ``order[i] % block_len`` of codeword ``order[i] // block_len``. The
    receiver knows the first ``n_train_blocks`` codewords, so the data
    instants are a known prefix of ``n_known_data`` and a suffix the
    receiver decodes.
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
    def n_known_data(self) -> int:
        """Data instants whose bits all lie in training blocks: instant j
        is one iff q*(j+1) <= n_train_blocks*block_len, so they are the first."""
        return self.n_train_blocks * self.block_len // self.constellation.q

    @property
    def known_mask(self) -> np.ndarray:
        """Instants whose symbols the receiver knows: the pilots and the
        first ``n_known_data`` data instants."""
        known = self.pilot_mask.copy()
        known[self.data_positions[: self.n_known_data]] = True
        return known


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
    symbol_rate: float,
) -> SymbolFrame:
    """Assemble the dual-pol symbol frame from the (2, n_blocks, n)
    codewords in code order: interleave them by ``order``, which must
    permute each block within itself (``fec.frame_order`` draws one), map
    them, and insert seeded pilot symbols at a fixed stride. The first
    ``n_train_blocks`` codewords are training blocks; at least one block
    after them must be left to decode."""
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
    # the receiver decodes, and the metrics count, the blocks after training
    if not 0 <= n_train_blocks <= n_blocks - 1:
        raise WaveformError("need 0 <= n_train_blocks <= n_blocks - 1")
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


def rrc_response(n: int, samples_per_symbol: float, rolloff: float) -> np.ndarray:
    """Root-raised-cosine amplitude on the ``n``-point FFT grid of a signal
    at ``samples_per_symbol``: 1 up to (1 - rolloff)/2 of the symbol rate,
    a quarter cosine period across the rolloff band, and 0 from
    (1 + rolloff)/2 on. Its squares over frequencies a symbol rate apart
    sum to 1, so a shaping and a matching pass make a Nyquist pulse."""
    if not 0 < rolloff <= 1:
        raise WaveformError(f"invalid rolloff {rolloff}")
    if samples_per_symbol < 2:
        raise WaveformError("need at least 2 samples/symbol")
    f = np.abs(np.fft.fftfreq(n, 1.0 / samples_per_symbol))  # in symbol rates
    x = np.clip((f - (1 - rolloff) / 2) / rolloff, 0.0, 1.0)
    return np.where(x < 1, np.cos(np.pi / 2 * x), 0.0)


def rrc_shape(frame: SymbolFrame, samples_per_symbol: int, rolloff: float) -> DualPolSignal:
    """Upsample and pulse-shape the frame on the FFT grid: the symbol
    spectrum, repeated ``samples_per_symbol`` times (zeros stuffed between
    the symbols), times sqrt(sps) times the RRC response. Each pulse has
    unit energy and is centred on its symbol: sample ``i*sps`` is symbol
    instant ``i``, and the frame wraps circularly."""
    sps = samples_per_symbol
    h = np.sqrt(sps) * rrc_response(sps * frame.n_instants, sps, rolloff)
    return DualPolSignal(spectral_filter(frame.symbols, h), sps * frame.symbol_rate)


def matched_filter(signal: DualPolSignal, rolloff: float, symbol_rate: float) -> DualPolSignal:
    """The RRC filter of ``rrc_shape`` at the signal's samples per symbol:
    after a shaping pass at the same rate, sample ``i*sps`` is symbol ``i``."""
    sps = signal.sample_rate / symbol_rate
    if abs(sps - round(sps)) > 1e-9:
        raise WaveformError("sample rate is not an integer multiple of symbol rate")
    sps = round(sps)
    h = np.sqrt(sps) * rrc_response(len(signal), sps, rolloff)
    return replace(signal, fields=spectral_filter(signal.fields, h))


def spectral_filter(fields: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Each row of ``fields`` filtered on the FFT grid: its spectrum, resampled
    to m = ``len(response)`` bins, times ``response``. A longer grid repeats
    the spectrum (zeros stuffed between the samples); a shorter one keeps
    (m + 1) // 2 bins from DC up and m // 2 below DC. Row by row, as one
    (2, n) transform's scratch for both rows sets the peak memory at paper sizes."""
    n, m = fields.shape[-1], len(response)
    if m > n and m % n:
        raise WaveformError(f"cannot repeat {n} bins onto {m}")
    out = np.empty((len(fields), m), dtype=complex)
    spec = np.empty(n, dtype=complex)
    for row, res in zip(fields, out):
        np.fft.fft(row, out=spec)
        if m >= n:
            res.reshape(-1, n)[:] = spec
        else:
            res[: (m + 1) // 2] = spec[: (m + 1) // 2]
            res[(m + 1) // 2 :] = spec[n - m // 2 :]
        res *= response
        np.fft.ifft(res, out=res)
    return out


def wdm_mux(wdm: DualPolSignal, ch: DualPolSignal, offset_hz: float) -> None:
    """Add channel ``ch``, shifted by ``offset_hz``, into the sum ``wdm`` in place.
    Both share ``wdm``'s sample rate and length; the caller keeps the band unaliased."""
    t = np.arange(len(wdm)) / wdm.sample_rate
    shift = np.exp(2j * np.pi * offset_hz * t)
    for p in range(2):  # one row's product at a time
        wdm.fields[p] += ch.fields[p] * shift


def select_channel(
    signal: DualPolSignal,
    bandwidth_hz: float,
    out_sample_rate: float,
    transition_hz: float,
) -> DualPolSignal:
    """Band-pass filter the channel at 0 Hz and crop its spectrum to
    ``out_sample_rate``, at most the input rate. The filter, flat in its
    passband with a raised-cosine transition to the stopband (a brick wall
    at zero ``transition_hz``), is built on the input grid, whose frequencies
    the output grid's would not round alike, and cropped as the spectrum is."""
    fs = signal.sample_rate
    if bandwidth_hz >= fs:
        raise WaveformError("bandwidth exceeds sample rate")
    n = len(signal)
    ratio = out_sample_rate / fs
    n_out = int(round(n * ratio))
    if ratio > 1 or abs(n * ratio - n_out) > 1e-6:
        raise WaveformError("output rate above the input rate or not commensurate with its length")
    af = np.abs(np.fft.fftfreq(n, d=1.0 / fs))
    half = bandwidth_hz / 2.0
    mask = (af <= half).astype(float)
    trans = (af > half) & (af < half + transition_hz)
    mask[trans] = 0.5 * (1.0 + np.cos(np.pi * (af[trans] - half) / transition_hz))
    mask *= n_out / n  # keeps the amplitude across the shorter inverse FFT
    h = np.concatenate((mask[: (n_out + 1) // 2], mask[n - n_out // 2 :]))
    return DualPolSignal(spectral_filter(signal.fields, h), out_sample_rate)
