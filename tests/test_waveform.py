from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import upfirdn

from turbowdm.constellation import build_constellation
from turbowdm.fiber import FiberParams, amplify, dbp, edc, propagate_span
from turbowdm.metrics import post_fec_ber
from turbowdm.sync_dsp import coarse_align
from turbowdm.waveform import (
    DualPolSignal,
    WaveformError,
    build_frame,
    extract_data_bits,
    fft_resample,
    matched_filter,
    pilot_positions,
    rrc_shape,
    rrc_taps,
    select_channel,
    upsample_filter,
    wdm_mux,
)

BAUD = 32e9


def assert_same_bits(a, b):
    """Equal as uint64 views, so -0.0 != 0.0 and NaN payloads count."""
    np.testing.assert_array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


@pytest.fixture(scope="module")
def qpsk():
    return build_constellation(4)


def random_frame(c, n_data_bits=4000, pilot_rate=0.05, seed=0):
    """Two blocks of random bits, not interleaved, no training block."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (2, 2, n_data_bits // 2)).astype(np.uint8)
    return build_frame(bits, np.arange(n_data_bits), 0, c, pilot_rate, seed, symbol_rate=BAUD)


def x_rel_err(out, ref):
    """Error power of ``out`` against ``ref`` in the x polarization,
    relative to the power of ``ref``."""
    x, x_ref = out.fields[0], ref.fields[0]
    return np.mean(np.abs(x - x_ref) ** 2) / np.mean(np.abs(x_ref) ** 2)


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
        pil = f.pilot_symbols()
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
            build_frame(np.zeros((2, 1, 7), dtype=np.uint8), np.arange(7), 0, qpsk, 0.05, 0)

    def test_counted_blocks_skip_training_and_last(self, qpsk):
        # errors in the training blocks and the trailing block count for
        # nothing; the 14 blocks between them count every bit
        n_blocks, k = 18, 64
        f = build_frame(
            np.zeros((2, n_blocks, k), dtype=np.uint8), np.arange(n_blocks * k), 3, qpsk, 0.05, 0
        )
        assert f.counted_blocks == slice(3, n_blocks - 1)
        ref = np.zeros((2, n_blocks, k), dtype=np.uint8)
        dec = ref.copy()
        dec[:, :3] = 1
        dec[:, -1] = 1
        ber, counted = post_fec_ber(dec[:, f.counted_blocks], ref[:, f.counted_blocks])
        assert (ber, counted) == (0.0, 2 * 14 * k)
        dec[0, 5, 3] = 1  # inside a counted block
        ber, _ = post_fec_ber(dec[:, f.counted_blocks], ref[:, f.counted_blocks])
        assert ber == 1.0 / (2 * 14 * k)

    @pytest.mark.parametrize("n_train", [-1, 17])
    def test_training_blocks_out_of_range_rejected(self, qpsk, n_train):
        # a negative count would count no bit, and 17 training blocks of 18
        # leave no block between them and the trailing block
        words = np.zeros((2, 18, 8), dtype=np.uint8)
        with pytest.raises(WaveformError, match="n_train_blocks"):
            build_frame(words, np.arange(18 * 8), n_train, qpsk, 0.05, 0)
        for ok in (0, 16):
            assert build_frame(words, np.arange(18 * 8), ok, qpsk, 0.05, 0).n_train_blocks == ok

    def test_order_length_mismatch(self, qpsk):
        # the order indexes every bit of the frame once
        for order in (np.arange(7), np.arange(9)):
            with pytest.raises(WaveformError, match="order"):
                build_frame(np.zeros((2, 2, 4), dtype=np.uint8), order, 0, qpsk, 0.05, 0)

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
    def test_taps_symmetric_unit_energy(self):
        g = rrc_taps(4, 0.1, 16)
        np.testing.assert_allclose(g, g[::-1], atol=1e-12)
        assert abs(np.sum(g**2) - 1.0) < 1e-12

    def test_taps_cached_read_only(self):
        g = rrc_taps(4, 0.1, 16)
        assert rrc_taps(4, 0.1, 16) is g
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0] = 0.0

    @pytest.mark.parametrize("span", [16, 64])
    @pytest.mark.parametrize("rolloff", [0.01, 0.1])
    @pytest.mark.parametrize("sps", [1, 2, 4, 16])
    def test_upsampler_matches_upfirdn_bits(self, sps, rolloff, span):
        # the polyphase upsampler adds each output's terms in upfirdn's
        # order, so every bit agrees; odd frame lengths, and frames shorter
        # than the filter, cover the ragged ends
        g = rrc_taps(max(sps, 2), rolloff, span)
        rng = np.random.default_rng(sps + span)
        for n in (1, 7, 2 * span + 1, 1001):
            x = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
            assert_same_bits(upsample_filter(g, x, sps), upfirdn(g, x, up=sps, axis=-1))

    def test_shape_is_upfirdn_delay_compensated(self, qpsk):
        f = random_frame(qpsk, n_data_bits=1002, pilot_rate=0.05)
        g = rrc_taps(4, 0.1, 16)
        ref = upfirdn(g, f.symbols, up=4, axis=-1)
        delay = (len(g) - 1) // 2
        assert_same_bits(rrc_shape(f, 4, 0.1, 16).fields, ref[:, delay : delay + 4 * f.n_instants])

    def test_invalid_rolloff(self):
        with pytest.raises(WaveformError):
            rrc_taps(4, 0.0)
        with pytest.raises(WaveformError):
            rrc_taps(4, 1.5)

    @pytest.mark.parametrize("rolloff,limit_db", [(0.1, -40.0), (0.01, -27.0)])
    def test_nyquist_cascade(self, qpsk, rolloff, limit_db):
        # shape -> match -> downsample residual ISI; a span-64 FIR truncates
        # the slowly decaying rolloff-0.01 tails, capping that case near -28 dB
        f = random_frame(qpsk, n_data_bits=8000, pilot_rate=0.0, seed=7)
        sig = rrc_shape(f, 4, rolloff, 64)
        out = matched_filter(sig, rolloff, 64, BAUD)
        sym = out.fields[:, ::4]
        guard = 70  # ignore filter edge transients
        err = sym[:, guard:-guard] - f.symbols[:, guard:-guard]
        evm_db = 10 * np.log10(
            np.mean(np.abs(err) ** 2) / np.mean(np.abs(f.symbols) ** 2)
        )
        assert evm_db < limit_db

    def test_linear_scaling(self, qpsk):
        f = random_frame(qpsk, n_data_bits=512, pilot_rate=0.0)
        s1 = rrc_shape(f, 4, 0.2, 16)
        f2 = random_frame(qpsk, n_data_bits=512, pilot_rate=0.0)
        f2.symbols = f.symbols * 2.0
        s2 = rrc_shape(f2, 4, 0.2, 16)
        np.testing.assert_allclose(s2.fields[0], 2.0 * s1.fields[0], atol=1e-12)


class TestResample:
    def test_roundtrip_periodic_exact(self):
        # exact on a circularly band-limited signal: 16 -> 2 -> 16 sps
        rng = np.random.default_rng(0)
        n, band = 4096, 200
        spec = np.zeros(n, dtype=complex)
        spec[:band] = rng.standard_normal(band) + 1j * rng.standard_normal(band)
        spec[-band:] = rng.standard_normal(band) + 1j * rng.standard_normal(band)
        v = np.fft.ifft(spec)
        sig = DualPolSignal(fields=np.stack([v, v]), sample_rate=16 * BAUD)
        up = fft_resample(fft_resample(sig, 2 * BAUD), 16 * BAUD)
        err = x_rel_err(up, sig)
        assert err < 1e-25

    def test_roundtrip_interior(self, qpsk):
        # a non-periodic frame wraps at the edges; the interior still survives
        f = random_frame(qpsk, n_data_bits=2048, pilot_rate=0.0)
        sig = rrc_shape(f, 16, 0.1, 32)
        up = fft_resample(fft_resample(sig, 2 * BAUD), 16 * BAUD)
        n = len(sig)
        trim = n // 10
        err = np.mean(np.abs(up.fields[0] - sig.fields[0])[trim:-trim] ** 2)
        assert err / np.mean(np.abs(sig.fields[0]) ** 2) < 2e-6


class TestWdm:
    def test_single_channel_identity(self, qpsk):
        f = random_frame(qpsk, n_data_bits=1024, pilot_rate=0.0)
        sig = rrc_shape(f, 4, 0.1, 16)
        out = wdm_mux([sig], 37.5e9)
        np.testing.assert_allclose(out.fields[0], sig.fields[0], atol=1e-12)

    def test_two_tone_peaks(self):
        fs = 150e9
        n = 1 << 16
        one = np.ones(n, dtype=complex)
        ch = DualPolSignal(fields=np.stack([one, one]), sample_rate=fs)
        out = wdm_mux([ch, ch], 37.5e9)
        spec = np.abs(np.fft.fft(out.fields[0]))
        freqs = np.fft.fftfreq(n, 1 / fs)
        peaks = freqs[np.argsort(spec)[-2:]]
        np.testing.assert_allclose(sorted(peaks), [-18.75e9, 18.75e9], rtol=1e-6)

    def test_power_additivity(self, qpsk):
        # orthogonal spectra: total power equals the sum of channel powers
        chans = []
        for seed in range(3):
            f = random_frame(qpsk, n_data_bits=4096, pilot_rate=0.0, seed=seed)
            chans.append(rrc_shape(f, 8, 0.01, 64))
        out = wdm_mux(chans, 37.5e9)
        total = np.sum(np.abs(out.fields) ** 2)
        parts = sum(np.sum(np.abs(c.fields) ** 2) for c in chans)
        assert abs(total - parts) / parts < 1e-3

    def test_aliasing_rejected(self):
        one = np.ones(64, dtype=complex)
        ch = DualPolSignal(fields=np.stack([one, one]), sample_rate=50e9)
        with pytest.raises(WaveformError):
            wdm_mux([ch, ch, ch], 37.5e9)


class TestSelectChannel:
    def test_mux_select_roundtrip(self, qpsk):
        f = random_frame(qpsk, n_data_bits=4096, pilot_rate=0.0, seed=9)
        sig = rrc_shape(f, 4, 0.01, 64)
        muxed = wdm_mux([sig], 37.5e9)
        sel = select_channel(muxed, 0.0, BAUD * 1.2, out_sample_rate=2 * BAUD)
        back = fft_resample(sel, 4 * BAUD)
        err = x_rel_err(back, sig)
        assert 10 * np.log10(err) < -35.0

    def test_neighbor_rejection(self, qpsk):
        # neighbor-only WDM: energy leaking into the COI band is <= -40 dB
        f = random_frame(qpsk, n_data_bits=8192, pilot_rate=0.0, seed=10)
        fs = 4 * BAUD
        ch = rrc_shape(f, 4, 0.01, 64)
        n = len(ch)
        zero = DualPolSignal(fields=np.zeros((2, n), dtype=complex), sample_rate=fs)
        muxed = wdm_mux([ch, zero, ch], 37.5e9)
        sel = select_channel(muxed, 0.0, BAUD * 1.01, transition_hz=4e9)
        leak = sel.power() / muxed.power()
        assert 10 * np.log10(leak) < -40.0

    def test_select_neighbor_channel(self, qpsk):
        fa = random_frame(qpsk, n_data_bits=4096, pilot_rate=0.0, seed=11)
        fb = random_frame(qpsk, n_data_bits=4096, pilot_rate=0.0, seed=12)
        ca = rrc_shape(fa, 8, 0.01, 64)
        cb = rrc_shape(fb, 8, 0.01, 64)
        muxed = wdm_mux([ca, cb], 37.5e9)
        # channels sit at -18.75 and +18.75 GHz; recover the second one
        # (spectral gap is ~5 GHz, so the transition band must stay narrow)
        sel = select_channel(
            muxed, +18.75e9, BAUD * 1.2, out_sample_rate=8 * BAUD, transition_hz=2e9
        )
        err = x_rel_err(sel, cb)
        assert 10 * np.log10(err) < -30.0


class TestDualPolLayout:
    @pytest.mark.parametrize("shape", [(64,), (3, 64), (2, 64, 1)])
    def test_rejects_fields_not_two_rows(self, shape):
        with pytest.raises(WaveformError):
            DualPolSignal(fields=np.zeros(shape, dtype=complex), sample_rate=BAUD)

    # each stage maps (T/2 signal, its frame) to a DualPolSignal
    STAGES = {
        "rrc_shape": lambda s, f: rrc_shape(f, 2, 0.1, 16),
        "matched_filter": lambda s, f: matched_filter(s, 0.1, 16, BAUD),
        "fft_resample": lambda s, f: fft_resample(s, 4 * BAUD),
        "wdm_mux": lambda s, f: wdm_mux([s, s.scaled(0.5), s], 20e9),
        "select_channel": lambda s, f: select_channel(s, 5e9, 1.1 * BAUD),
        "amplify": lambda s, f: amplify(s, 10.0, None),
        "propagate_span": lambda s, f: propagate_span(s, FiberParams(step_m=5000.0)),
        "edc": lambda s, f: edc(s, FiberParams(), 2),
        "dbp": lambda s, f: dbp(s, FiberParams(), 1, 10e3),
        "coarse_align": lambda s, f: coarse_align(
            replace(s, fields=np.roll(s.fields, 7, axis=-1)), f
        ),
    }

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_row_swap_swaps_output(self, qpsk, stage):
        # the two rows are two polarizations of one field: no stage may mix
        # them by position, so swapping the input rows swaps the output rows
        f = random_frame(qpsk, n_data_bits=2048, seed=13)
        sig = rrc_shape(f, 2, 0.1, 16).scaled(0.05)
        f_sw = replace(f, symbols=f.symbols[::-1], coded_bits=f.coded_bits[::-1])
        sig_sw = replace(sig, fields=sig.fields[::-1])
        run = self.STAGES[stage]
        out, out_sw = run(sig, f), run(sig_sw, f_sw)
        assert np.array_equal(out_sw.fields, out.fields[::-1])
