from dataclasses import replace

import numpy as np
import pytest

from turbowdm.constellation import build_constellation, hard_decide
from turbowdm.fiber import FiberParams, dbp, edc, propagate_link
from turbowdm.waveform import (
    DualPolSignal,
    WaveformError,
    build_frame,
    matched_filter,
    pilot_positions,
    rrc_response,
    rrc_shape,
    select_channel,
    spectral_filter,
    wdm_mux,
)

from conftest import copied, fft_spy, x_rel_err

BAUD = 32e9


def upsample(signal, sample_rate):
    """Zero-pad the spectrum of ``signal`` up to ``sample_rate``: the
    inverse of the crop, (m + 1) // 2 bins from DC up and m // 2 below."""
    m = len(signal)
    n = int(round(m * sample_rate / signal.sample_rate))
    spec = np.fft.fft(signal.fields)
    out = np.zeros((2, n), dtype=complex)
    out[:, : (m + 1) // 2] = spec[:, : (m + 1) // 2]
    out[:, n - m // 2 :] = spec[:, m - m // 2 :]
    return DualPolSignal(fields=np.fft.ifft(out) * (n / m), sample_rate=sample_rate)


def random_frame(c, n_data_bits=4000, pilot_rate=0.05, seed=0):
    """Two blocks of random bits, not interleaved, no training block."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (2, 2, n_data_bits // 2)).astype(np.uint8)
    return build_frame(bits, np.arange(n_data_bits), 0, c, pilot_rate, seed, symbol_rate=BAUD)


def extract_data_bits(frame):
    """Invert the frame's data/bit alignment from its own symbols:
    nearest-point demap of the data instants."""
    c = frame.constellation
    idx = hard_decide(frame.symbols[:, ~frame.pilot_mask], c)
    return c.bit_labels[idx].reshape(2, -1)


class TestFrame:
    def test_no_pilots(self, qpsk):
        f = random_frame(qpsk, pilot_rate=0.0)
        assert f.n_instants == f.n_data == 2000
        assert not f.pilot_mask.any()

    def test_five_percent_rate(self, qpsk):
        # 950 data symbols at 5% pilots -> 1000 instants, 50 evenly strided
        mask = pilot_positions(950, 0.05)
        assert mask.size == 1000
        assert mask.sum() == 50
        assert np.all(np.nonzero(mask)[0] == np.arange(50) * 20)

    def test_bit_roundtrip(self, qpsk):
        f = random_frame(qpsk, seed=3)
        np.testing.assert_array_equal(extract_data_bits(f), f.coded_bits)

    def test_pilots_from_constellation(self, qpsk):
        f = random_frame(qpsk)
        pil = f.symbols[:, f.pilot_mask]
        d = np.abs(pil[:, :, None] - qpsk.points[None, None, :]).min(axis=2)
        assert np.max(d) < 1e-12

    def test_deterministic(self, qpsk):
        a = random_frame(qpsk, seed=5)
        b = random_frame(qpsk, seed=5)
        np.testing.assert_array_equal(a.symbols, b.symbols)

    def test_pilot_mask_shared_across_pols(self, qpsk):
        # single mask by construction; data count consistent per pol
        f = random_frame(qpsk)
        assert f.symbols.shape == (2, f.n_instants)

    def test_bad_bit_count(self, qpsk):
        with pytest.raises(WaveformError):
            build_frame(np.zeros((2, 1, 7), dtype=np.uint8), np.arange(7), 0, qpsk, 0.05, 0, BAUD)

    @pytest.mark.parametrize("n_train", [0, 1, 2])
    def test_known_data_is_a_prefix(self, n_train):
        # at 64-QAM a 22-bit block ends inside a symbol: the known data
        # instants are those whose every bit, the last one included, lies
        # in a training block, and they are the first n_known_data
        c, n_blocks, block_len = build_constellation(64), 3, 22
        words = np.zeros((2, n_blocks, block_len), dtype=np.uint8)
        f = build_frame(words, np.arange(n_blocks * block_len), n_train, c, 0.05, 0, BAUD)
        last_bit_block = (np.arange(f.n_data) * c.q + c.q - 1) // block_len
        known = f.pilot_mask.copy()
        known[f.data_positions[last_bit_block < n_train]] = True
        assert f.n_known_data == np.sum(last_bit_block < n_train) == n_train * block_len // c.q
        np.testing.assert_array_equal(f.known_mask, known)
        if n_train:
            # the straddling symbol starts in training and is not known
            j = f.n_known_data
            assert c.q * j // block_len < n_train <= (c.q * j + c.q - 1) // block_len
            assert not f.known_mask[f.data_positions[j]]

    @pytest.mark.parametrize("n_train", [-1, 18])
    def test_training_blocks_out_of_range_rejected(self, qpsk, n_train):
        # a negative count would count no bit, and 18 training blocks of 18
        # leave no block to decode
        words = np.zeros((2, 18, 8), dtype=np.uint8)
        with pytest.raises(WaveformError, match="n_train_blocks"):
            build_frame(words, np.arange(18 * 8), n_train, qpsk, 0.05, 0, BAUD)
        for ok in (0, 17):
            assert build_frame(words, np.arange(18 * 8), ok, qpsk, 0.05, 0, BAUD).n_train_blocks == ok

    def test_order_length_mismatch(self, qpsk):
        # the order indexes every bit of the frame once
        for order in (np.arange(7), np.arange(9)):
            with pytest.raises(WaveformError, match="order"):
                build_frame(np.zeros((2, 2, 4), dtype=np.uint8), order, 0, qpsk, 0.05, 0, BAUD)

    @pytest.mark.parametrize("rate", [1.0, 0.7, 5.0, -0.05])
    def test_pilot_stride_below_two_rejected(self, rate):
        # stride 1 would leave no data instant, and the size search would
        # never end
        with pytest.raises(WaveformError, match="pilot rate"):
            pilot_positions(10, rate)

    def test_pilot_stride_two(self):
        mask = pilot_positions(10, 0.5)
        assert mask.size == 20 and np.array_equal(np.nonzero(mask)[0], np.arange(0, 20, 2))


class TestRrc:
    @pytest.mark.parametrize("rolloff", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("sps", [2, 4, 16])
    def test_nyquist_criterion(self, sps, rolloff):
        # H^2 summed over frequencies a symbol rate apart is 1 at every
        # grid frequency; on an n*sps grid they are n bins apart. Rounding in
        # (|f| - (1 - rolloff)/2) / rolloff grows as the rolloff shrinks
        n = 1000
        h2 = rrc_response(n * sps, sps, rolloff) ** 2
        np.testing.assert_allclose(h2.reshape(sps, n).sum(axis=0), 1.0, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("rolloff", [0.01, 0.1, 1.0])
    def test_zero_beyond_rolloff_band(self, rolloff):
        f = np.abs(np.fft.fftfreq(4096, 1 / 4))
        h = rrc_response(4096, 4, rolloff)
        assert np.all(h[f >= (1 + rolloff) / 2] == 0.0)
        assert np.all(h[f <= (1 - rolloff) / 2] == 1.0)
        assert np.all(h[f < (1 + rolloff) / 2] > 0.0)

    def test_taps_symmetric_unit_energy(self, qpsk):
        # one symbol shapes into a real, even pulse of unit energy
        f = random_frame(qpsk, n_data_bits=1000, pilot_rate=0.0)
        impulse = np.zeros_like(f.symbols)
        impulse[:, 0] = 1.0
        g = rrc_shape(replace(f, symbols=impulse), 4, 0.1).fields[0]
        np.testing.assert_allclose(g.imag, 0.0, atol=1e-15)
        np.testing.assert_allclose(g[1:], g[:0:-1], atol=1e-15)
        assert abs(np.sum(np.abs(g) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("rolloff", [0.01, 0.1])
    @pytest.mark.parametrize("sps", [2, 4, 16])
    def test_shape_match_returns_symbols(self, qpsk, sps, rolloff):
        # the whole frame, edges included: the filters are circular
        f = random_frame(qpsk, n_data_bits=8000, pilot_rate=0.05, seed=sps)
        out = matched_filter(rrc_shape(f, sps, rolloff), rolloff, BAUD).fields[:, ::sps]
        rms = np.sqrt(np.mean(np.abs(f.symbols) ** 2))
        assert np.max(np.abs(out - f.symbols)) < 1e-10 * rms

    def test_invalid_rolloff(self):
        for rolloff in (0.0, -0.1, 1.5):
            with pytest.raises(WaveformError, match="rolloff"):
                rrc_response(64, 4, rolloff)

    def test_invalid_samples_per_symbol(self):
        # below 2 samples/symbol the rolloff band aliases
        for sps in (1, 0, 1.5):
            with pytest.raises(WaveformError, match="samples/symbol"):
                rrc_response(64, sps, 0.1)
        sig = DualPolSignal(fields=np.zeros((2, 64), dtype=complex), sample_rate=BAUD)
        with pytest.raises(WaveformError, match="samples/symbol"):
            matched_filter(sig, 0.1, BAUD)

    @pytest.mark.parametrize("rolloff,limit_db", [(0.1, -40.0), (0.01, -27.0)])
    def test_nyquist_cascade(self, qpsk, rolloff, limit_db):
        # shape -> match -> downsample residual ISI; the exact RRC response
        # leaves only rounding, at either rolloff
        f = random_frame(qpsk, n_data_bits=8000, pilot_rate=0.0, seed=7)
        sig = rrc_shape(f, 4, rolloff)
        out = matched_filter(sig, rolloff, BAUD)
        sym = out.fields[:, ::4]
        guard = 70  # ignore filter edge transients
        err = sym[:, guard:-guard] - f.symbols[:, guard:-guard]
        evm_db = 10 * np.log10(
            np.mean(np.abs(err) ** 2) / np.mean(np.abs(f.symbols) ** 2)
        )
        assert evm_db < limit_db

    def test_linear_scaling(self, qpsk):
        f = random_frame(qpsk, n_data_bits=512, pilot_rate=0.0)
        s1 = rrc_shape(f, 4, 0.2)
        f2 = random_frame(qpsk, n_data_bits=512, pilot_rate=0.0)
        f2.symbols = f.symbols * 2.0
        s2 = rrc_shape(f2, 4, 0.2)
        np.testing.assert_allclose(s2.fields[0], 2.0 * s1.fields[0], atol=1e-12)


def mux(channels, spacing):
    """The WDM sum of equally long ``channels`` on a grid ``spacing`` apart,
    centred on 0 Hz."""
    wdm = DualPolSignal(np.zeros_like(channels[0].fields), channels[0].sample_rate)
    for i, ch in enumerate(channels):
        wdm_mux(wdm, ch, (i - (len(channels) - 1) / 2) * spacing)
    return wdm


class TestWdm:
    def test_single_channel_identity(self, qpsk):
        f = random_frame(qpsk, n_data_bits=1024, pilot_rate=0.0)
        sig = rrc_shape(f, 4, 0.1)
        out = mux([sig], 37.5e9)
        np.testing.assert_allclose(out.fields[0], sig.fields[0], atol=1e-12)

    def test_two_tone_peaks(self):
        fs = 150e9
        n = 1 << 16
        one = np.ones(n, dtype=complex)
        ch = DualPolSignal(fields=np.stack([one, one]), sample_rate=fs)
        out = mux([ch, ch], 37.5e9)
        spec = np.abs(np.fft.fft(out.fields[0]))
        freqs = np.fft.fftfreq(n, 1 / fs)
        peaks = freqs[np.argsort(spec)[-2:]]
        np.testing.assert_allclose(sorted(peaks), [-18.75e9, 18.75e9], rtol=1e-6)

    def test_power_additivity(self, qpsk):
        # orthogonal spectra: total power equals the sum of channel powers
        chans = []
        for seed in range(3):
            f = random_frame(qpsk, n_data_bits=4096, pilot_rate=0.0, seed=seed)
            chans.append(rrc_shape(f, 8, 0.01))
        out = mux(chans, 37.5e9)
        total = np.sum(np.abs(out.fields) ** 2)
        parts = sum(np.sum(np.abs(c.fields) ** 2) for c in chans)
        assert abs(total - parts) / parts < 1e-3


class TestSelectChannel:
    def test_mux_select_roundtrip(self, qpsk):
        f = random_frame(qpsk, n_data_bits=4096, pilot_rate=0.0, seed=9)
        sig = rrc_shape(f, 4, 0.01)
        muxed = mux([sig], 37.5e9)
        rx = muxed.fields.copy()
        sel = select_channel(muxed, BAUD * 1.2, 2 * BAUD, 0.15 * BAUD * 1.2)
        assert np.array_equal(muxed.fields, rx)  # the caller's fields are left alone
        back = upsample(sel, 4 * BAUD)
        err = x_rel_err(back, sig)
        assert 10 * np.log10(err) < -35.0

    def test_neighbor_rejection(self, qpsk):
        # neighbor-only WDM: energy leaking into the COI band is <= -40 dB
        f = random_frame(qpsk, n_data_bits=8192, pilot_rate=0.0, seed=10)
        fs = 4 * BAUD
        ch = rrc_shape(f, 4, 0.01)
        n = len(ch)
        zero = DualPolSignal(fields=np.zeros((2, n), dtype=complex), sample_rate=fs)
        muxed = mux([ch, zero, ch], 37.5e9)
        sel = select_channel(muxed, BAUD * 1.01, fs, 4e9)
        leak = sel.power() / muxed.power()
        assert 10 * np.log10(leak) < -40.0

    @pytest.mark.parametrize("rolloff", [0.01, 0.1])
    def test_neighbors_outside_band_leave_no_power(self, qpsk, rolloff):
        # the RRC spectrum is exactly 0 beyond (1 + rolloff)/2 of the baud;
        # with the stopband starting at the neighbors' band edge, the empty
        # centre channel receives nothing but rounding (of the mux tones
        # above all) from them. 8192
        # samples at 4 sps put the 37.5 GHz grid on the FFT grid.
        f = random_frame(qpsk, n_data_bits=4096, pilot_rate=0.0, seed=10)
        ch = rrc_shape(f, 4, rolloff)
        zero = DualPolSignal(fields=np.zeros_like(ch.fields), sample_rate=ch.sample_rate)
        muxed = mux([ch, zero, ch], 37.5e9)
        bw = BAUD * (1 + rolloff)
        sel = select_channel(muxed, bw, 2 * BAUD, 37.5e9 - bw)
        assert sel.power() / muxed.power() < 1e-20

    def test_roundtrip_periodic_exact(self):
        # a circularly band-limited signal inside the passband is kept
        # exactly: 16 -> 2 sps, then zero-padded back to 16
        rng = np.random.default_rng(0)
        n, band = 4096, 200  # 200 bins: up to 0.78 of the symbol rate
        spec = np.zeros(n, dtype=complex)
        spec[:band] = rng.standard_normal(band) + 1j * rng.standard_normal(band)
        spec[-band:] = rng.standard_normal(band) + 1j * rng.standard_normal(band)
        v = np.fft.ifft(spec)
        sig = DualPolSignal(fields=np.stack([v, v]), sample_rate=16 * BAUD)
        sel = select_channel(sig, 1.8 * BAUD, 2 * BAUD, 0.1 * BAUD)
        err = x_rel_err(upsample(sel, 16 * BAUD), sig)
        assert err < 1e-25

    @pytest.mark.parametrize("n_out", [9, 10])
    def test_band_edge_tones_kept(self, n_out):
        # the crop to n_out bins keeps (n_out + 1) // 2 from DC up and
        # n_out // 2 below, so a grid of odd length has one more bin above DC
        # than below, and at even n_out the lowest kept bin is the Nyquist
        # bin, whose mirror above DC goes
        n = 2 * n_out
        spec = np.zeros(n, dtype=complex)
        edge = (n_out - 1) // 2
        kept, dropped = [edge, -edge, -(n_out // 2)], [(n_out + 1) // 2, -(n_out // 2) - 1]
        spec[kept + dropped] = 1.0
        v = np.fft.ifft(spec)
        sig = DualPolSignal(fields=np.stack([v, v]), sample_rate=2.0)
        out = np.fft.fft(select_channel(sig, 1.5, 1.0, 0.0).fields[0])
        np.testing.assert_allclose(out[kept], 0.5, atol=1e-15)
        out[kept] = 0.0
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    @pytest.mark.parametrize("m", [113, 114, 12936])
    def test_symbol_rate_crop_is_bit_exact(self, m):
        # 2 sps to 1 sps behind a brick wall wider than the kept band gives
        # the bits of a plain FFT crop: its 0.5 scale is exact. The bypass
        # front end crops with that flat 0.5 through spectral_filter
        # (TestSpectralFilterOracle). At m = 114 a passband of exactly the
        # symbol rate would round the Nyquist bin's frequency past its edge
        # and drop that bin; 12,936 is the desk preset's frame
        rng = np.random.default_rng(m)
        v = rng.standard_normal((2, 2 * m)) + 1j * rng.standard_normal((2, 2 * m))
        out = select_channel(DualPolSignal(fields=v, sample_rate=2 * BAUD), 1.5 * BAUD, BAUD, 0.0)
        spec = np.fft.fft(v)
        crop = np.zeros((2, m), dtype=complex)
        crop[:, : (m + 1) // 2] = spec[:, : (m + 1) // 2]
        crop[:, m - m // 2 :] = spec[:, 2 * m - m // 2 :]
        want = 0.5 * np.fft.ifft(crop)
        assert np.array_equal(out.fields.view(np.uint8), want.view(np.uint8))
        assert out.sample_rate == BAUD

    @pytest.mark.parametrize("rate", [4.0, 3.0])
    def test_output_rate_above_input_rejected(self, rate):
        # a repeated spectrum is no band-pass selection; zero-padding it
        # was no caller's need
        sig = DualPolSignal(fields=np.ones((2, 100), dtype=complex), sample_rate=2 * BAUD)
        with pytest.raises(WaveformError, match="above the input rate"):
            select_channel(sig, 1.5 * BAUD, rate * BAUD, 0.0)


# Oracles: the four filtering stages as they were written before they shared
# spectral_filter, each with its own transform, resampling and response.


def reference_rrc_shape(frame, sps, rolloff):
    spec = np.tile(np.fft.fft(frame.symbols), sps)
    spec *= np.sqrt(sps) * rrc_response(spec.shape[-1], sps, rolloff)
    return np.fft.ifft(spec, out=spec)


def reference_matched_filter(signal, rolloff, symbol_rate):
    sps = round(signal.sample_rate / symbol_rate)
    spec = np.fft.fft(signal.fields)
    spec *= np.sqrt(sps) * rrc_response(len(signal), sps, rolloff)
    return np.fft.ifft(spec, out=spec)


def reference_crop_spectrum(spec, out):
    m = min(len(spec), len(out))
    out[: (m + 1) // 2] = spec[: (m + 1) // 2]
    out[len(out) - m // 2 :] = spec[len(spec) - m // 2 :]


def reference_select_channel(signal, bandwidth_hz, out_sample_rate, transition_hz):
    fs = signal.sample_rate
    n = len(signal)
    af = np.abs(np.fft.fftfreq(n, d=1.0 / fs))
    half = bandwidth_hz / 2.0
    mask = np.zeros(n)
    mask[af <= half] = 1.0
    trans = (af > half) & (af < half + transition_hz)
    mask[trans] = 0.5 * (1.0 + np.cos(np.pi * (af[trans] - half) / transition_hz))
    n_out = int(round(n * out_sample_rate / fs))
    out = np.zeros((2, n_out), dtype=complex)
    mask *= n_out / n
    spec = np.empty(n, dtype=complex)
    for v, spec_out in zip(signal.fields, out):
        np.fft.fft(v, out=spec)
        spec *= mask
        reference_crop_spectrum(spec, spec_out)
        np.fft.ifft(spec_out, out=spec_out)
    return out


def reference_edc(signal, p, n_spans):
    w = 2.0 * np.pi * np.fft.fftfreq(len(signal), d=1.0 / signal.sample_rate)
    hmat = np.exp(-1j * p.beta2_s2_per_m / 2.0 * w**2 * (n_spans * p.span_km) * 1e3)
    return np.fft.ifft(np.fft.fft(signal.fields) * hmat)


def random_fields(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


# frame lengths in instants: odd, even and prime (101 and 97)
LENGTHS = [105, 128, 101, 97]


class TestSpectralFilterOracle:
    """Every stage on spectral_filter gives the bits of its own former code."""

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("sps", [2, 3, 4, 16])
    def test_rrc_shape(self, qpsk, sps, n):
        f = replace(random_frame(qpsk), symbols=random_fields(n, sps))
        out = rrc_shape(f, sps, 0.1)
        assert same_bits(out.fields, reference_rrc_shape(f, sps, 0.1))
        assert out.sample_rate == sps * BAUD

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("sps", [2, 3, 4, 16])
    def test_matched_filter(self, sps, n):
        sig = DualPolSignal(fields=random_fields(sps * n, n), sample_rate=sps * BAUD)
        want = reference_matched_filter(sig, 0.1, BAUD)
        assert same_bits(matched_filter(sig, 0.1, BAUD).fields, want)

    # (input samples per symbol, output samples per symbol, input length):
    # rate ratios 1/2, 1/8, 2/3 (3 sps to 2, the odd transmit rate) and 1,
    # at odd, even and prime output lengths, and at 2/3 at odd and even
    # input lengths. At 2/3 a mask built on the output grid's own
    # frequencies rounds differently: at 105 and 114 in the raised-cosine
    # transition, at 420 at the brick wall's edge too
    @pytest.mark.parametrize(
        "sps_in, sps_out, n_in",
        [
            (4, 2, 226), (4, 2, 228), (4, 2, 202),
            (16, 2, 808), (16, 2, 1024), (16, 2, 776),
            (3, 2, 105), (3, 2, 114), (3, 2, 420),
            (2, 2, 101), (2, 2, 128), (2, 2, 105),
        ],
    )
    @pytest.mark.parametrize("transition", [0.0, 0.15], ids=["brick", "raised_cosine"])
    def test_select_channel(self, sps_in, sps_out, n_in, transition):
        sig = DualPolSignal(fields=random_fields(n_in, n_in), sample_rate=sps_in * BAUD)
        bw = 1.1 * BAUD
        args = (bw, sps_out * BAUD, transition * bw)
        out = select_channel(sig, *args)
        assert same_bits(out.fields, reference_select_channel(sig, *args))
        assert out.sample_rate == sps_out * BAUD

    @pytest.mark.parametrize("n", [210, 256, 202, 101])
    @pytest.mark.parametrize("n_spans", [1, 10])
    def test_edc(self, n, n_spans):
        sig = DualPolSignal(fields=random_fields(n, n_spans), sample_rate=2 * BAUD)
        want = reference_edc(sig, FiberParams(), n_spans)
        assert same_bits(edc(sig, FiberParams(), n_spans).fields, want)

    @pytest.mark.parametrize("m", [113, 114, 8085, 12936])
    def test_bypass_crop(self, m):
        # the bypass front end's flat 0.5 at 1 sps against its former call
        sig = DualPolSignal(fields=random_fields(2 * m, m), sample_rate=2 * BAUD)
        want = reference_select_channel(sig, 1.5 * BAUD, BAUD, 0.0)
        assert same_bits(spectral_filter(sig.fields, np.full(m, 0.5)), want)


class TestSpectralFilter:
    def test_resampling_rule(self):
        # a longer grid repeats the spectrum, a shorter one keeps
        # (m + 1) // 2 bins from DC up and m // 2 below; a flat response
        # of 1 leaves the kept bins to rounding
        fields = random_fields(6, 0)
        spec = np.fft.fft(fields)
        up = np.fft.fft(spectral_filter(fields, np.ones(18)))
        np.testing.assert_allclose(up, np.tile(spec, 3), rtol=0, atol=1e-13)
        for m, bins in [(5, [0, 1, 2, 4, 5]), (4, [0, 1, 4, 5]), (6, range(6))]:
            down = np.fft.fft(spectral_filter(fields, np.ones(m)))
            np.testing.assert_allclose(down, spec[:, bins], rtol=0, atol=1e-13)

    def test_repeat_needs_a_whole_multiple(self):
        with pytest.raises(WaveformError, match="repeat"):
            spectral_filter(random_fields(6, 0), np.ones(9))


class TestRowTransforms:
    # each stage transforms one polarization row at a time: a (2, n)
    # transform allocates scratch for both rows at once
    STAGES = {
        "rrc_shape": lambda s, f: rrc_shape(f, 16, 0.1),
        "matched_filter": lambda s, f: matched_filter(s, 0.1, BAUD),
        "select_channel": lambda s, f: select_channel(s, 1.1 * BAUD, 2 * BAUD, 0.15 * BAUD),
        "edc": lambda s, f: edc(s, FiberParams(), 2),
        "bypass_crop": lambda s, f: spectral_filter(s.fields, np.full(len(s) // 16, 0.5)),
    }

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_one_row_per_transform(self, qpsk, monkeypatch, stage):
        f = random_frame(qpsk, n_data_bits=1024, seed=14)
        sig = rrc_shape(f, 16, 0.1)
        seen = fft_spy(monkeypatch)
        self.STAGES[stage](sig, f)
        assert [ndim for ndim, _ in seen] == [1] * 4  # an fft and an ifft per row


class TestDualPolLayout:
    @pytest.mark.parametrize("shape", [(64,), (3, 64), (2, 64, 1)])
    def test_rejects_fields_not_two_rows(self, shape):
        with pytest.raises(WaveformError):
            DualPolSignal(fields=np.zeros(shape, dtype=complex), sample_rate=BAUD)

    # each stage maps (T/2 signal, its frame) to a DualPolSignal
    STAGES = {
        "rrc_shape": lambda s, f: rrc_shape(f, 2, 0.1),
        "matched_filter": lambda s, f: matched_filter(s, 0.1, BAUD),
        "wdm_mux": lambda s, f: mux([s, replace(s, fields=s.fields * 0.5), s], 20e9),
        "select_channel": lambda s, f: select_channel(s, 1.1 * BAUD, BAUD, 0.15 * BAUD),
        "propagate_link": lambda s, f: propagate_link(s, FiberParams(step_m=5000.0), 1, ase=False),
        "edc": lambda s, f: edc(s, FiberParams(), 2),
        "dbp": lambda s, f: dbp(s, FiberParams(), 1, 10e3),
    }

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_row_swap_swaps_output(self, qpsk, stage):
        # the two rows are two polarizations of one field: no stage may mix
        # them by position, so swapping the input rows swaps the output rows
        f = random_frame(qpsk, n_data_bits=2048, seed=13)
        sig = rrc_shape(f, 2, 0.1)
        sig = replace(sig, fields=sig.fields * 0.05)
        f_sw = replace(f, symbols=f.symbols[::-1], coded_bits=f.coded_bits[::-1])
        sig_sw = replace(sig, fields=sig.fields[::-1])
        run = self.STAGES[stage]
        # sig_sw's rows are sig's, and propagate_link writes into its input
        out, out_sw = run(copied(sig), f), run(sig_sw, f_sw)
        assert np.array_equal(out_sw.fields, out.fields[::-1])
