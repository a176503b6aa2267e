import numpy as np
import pytest

from turbowdm.constellation import build_constellation, hard_decide
from turbowdm.sync_dsp import (
    SyncError,
    coarse_align,
    count_slips,
    ddpll,
    nlms_equalize,
    pll_gains,
)
from turbowdm.waveform import DualPolSignal, build_frame

BAUD = 32e9


@pytest.fixture(scope="module")
def qpsk():
    return build_constellation(4)


def make_frame(c, n_data_bits=8000, pilot_rate=0.05, seed=0, training=False):
    """Eight blocks of random bits, not interleaved; the first six are
    training blocks if ``training``, so three quarters of the data
    instants are known."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (2, 8, n_data_bits // 8)).astype(np.uint8)
    return build_frame(
        bits, np.arange(n_data_bits), 6 * training, c, pilot_rate, seed, symbol_rate=BAUD
    )


def stuffed_signal(frame, sps=2):
    """T/2 waveform whose even samples carry the symbols exactly."""
    n = frame.n_instants * sps
    fields = np.zeros((2, n), dtype=complex)
    fields[:, ::sps] = frame.symbols
    return DualPolSignal(fields=fields, sample_rate=sps * BAUD)


class TestCoarseAlign:
    @pytest.mark.parametrize("lag", [0, 3, 57])
    def test_recovers_integer_lag(self, qpsk, lag):
        frame = make_frame(qpsk, seed=1)
        sig = stuffed_signal(frame)
        delayed = DualPolSignal(
            fields=np.roll(sig.fields, lag, axis=-1), sample_rate=sig.sample_rate
        )
        back = coarse_align(delayed, frame)
        np.testing.assert_allclose(back.fields, sig.fields, atol=1e-12)

    def test_trims_to_frame_length(self, qpsk):
        frame = make_frame(qpsk, seed=2)
        sig = stuffed_signal(frame)
        padded = DualPolSignal(
            fields=np.pad(sig.fields, ((0, 0), (0, 37))), sample_rate=sig.sample_rate
        )
        back = coarse_align(padded, frame)
        assert len(back) == frame.n_instants * 2


class TestNlms:
    def test_identity_passthrough(self, qpsk):
        # centered unit taps on a clean T/2 signal reproduce the symbols
        frame = make_frame(qpsk, pilot_rate=0.0, seed=3)
        sig = stuffed_signal(frame)
        out = nlms_equalize(sig, frame)
        scale = np.sqrt(sig.power() / 2.0)
        np.testing.assert_allclose(out * scale, frame.symbols, atol=1e-9)

    def test_inverts_static_polarization_rotation(self, qpsk):
        frame = make_frame(qpsk, seed=4, training=True)
        sig = stuffed_signal(frame)
        th = 0.6
        j00, j01 = np.cos(th), np.sin(th) * np.exp(0.4j)
        x, y = sig.fields
        mixed = DualPolSignal(
            fields=np.stack([j00 * x + j01 * y, -np.conj(j01) * x + j00 * y]),
            sample_rate=sig.sample_rate,
        )
        out = nlms_equalize(mixed, frame)
        tail = slice(frame.n_instants // 2, None)
        err = np.mean(np.abs(out[:, tail] - frame.symbols[:, tail]) ** 2)
        assert 10 * np.log10(err / np.mean(np.abs(frame.symbols) ** 2)) < -30.0

    def test_error_decreases_over_time(self, qpsk):
        frame = make_frame(qpsk, n_data_bits=16000, seed=5, training=True)
        sig = stuffed_signal(frame)
        rng = np.random.default_rng(6)
        x, y = sig.fields
        noisy = DualPolSignal(
            fields=np.stack([0.8 * x + 0.3j * y, 0.3j * x + 0.8 * y]),
            sample_rate=sig.sample_rate,
        )
        out = nlms_equalize(noisy, frame)
        e = np.abs(out - frame.symbols) ** 2
        q = frame.n_instants // 4
        assert np.mean(e[:, -q:]) < 0.1 * np.mean(e[:, :q])

    @pytest.mark.parametrize("training", [False, True])
    def test_updates_only_at_known_instants(self, qpsk, training):
        # without pilots the frame's known instants are its training blocks
        # the untouched centred unit taps pass the normalized input through
        frame = make_frame(qpsk, pilot_rate=0.0, seed=10, training=training)
        sig = stuffed_signal(frame).scaled(np.exp(0.3j))
        out = nlms_equalize(sig, frame)
        passthrough = sig.fields[:, ::2] / np.sqrt(sig.power() / 2.0)
        assert np.array_equal(out, passthrough) != training

    def test_even_tap_count_rejected(self, qpsk):
        frame = make_frame(qpsk, seed=7)
        with pytest.raises(SyncError):
            nlms_equalize(stuffed_signal(frame), frame, n_taps=12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self, qpsk):
        frame = make_frame(qpsk, seed=8, training=True)
        sig = stuffed_signal(frame)
        with pytest.raises(SyncError):  # a step far outside the stable range
            nlms_equalize(sig, frame, step_size=8.0)


class TestDdpll:
    def test_constant_phase_offset(self, qpsk):
        frame = make_frame(qpsk, seed=9)
        rot = frame.symbols * np.exp(0.25j)
        out, track = ddpll(rot, frame)
        tail = slice(9 * frame.n_instants // 10, None)
        np.testing.assert_allclose(track[:, tail], 0.25, atol=0.01)
        err = np.mean(np.abs(out[:, tail] - frame.symbols[:, tail]) ** 2)
        assert err < 1e-3

    def test_frequency_offset_tracked(self, qpsk):
        # a second-order loop follows a phase ramp with no steady-state error
        frame = make_frame(qpsk, n_data_bits=16000, seed=10)
        n = frame.n_instants
        ramp = 2.0 * np.pi * 5e-5 * np.arange(n)
        rot = frame.symbols * np.exp(1j * ramp)
        out, track = ddpll(rot, frame)
        tail = slice(3 * n // 4, None)
        resid = track[:, tail] - ramp[tail]
        assert np.max(np.abs(resid - np.mean(resid, axis=1, keepdims=True))) < 0.05
        assert np.max(np.abs(np.mean(resid, axis=1))) < 0.05

    def test_independent_branches(self, qpsk):
        # a phase offset on one polarization leaves the other untouched
        frame = make_frame(qpsk, seed=11)
        rot = frame.symbols.copy()
        rot[1] *= np.exp(0.3j)
        out, track = ddpll(rot, frame)
        tail = slice(9 * frame.n_instants // 10, None)
        assert np.max(np.abs(track[0, tail])) < 0.02
        np.testing.assert_allclose(track[1, tail], 0.3, atol=0.02)

    def test_counts_cycle_slips(self, qpsk):
        # a half-turn phase jump leaves every QPSK decision valid, so only
        # the pilots after it see a phase error near pi: possible slips
        frame = make_frame(qpsk, seed=14)
        n = frame.n_instants
        clean, _ = ddpll(frame.symbols * np.exp(0.2j), frame)
        jump = np.where(np.arange(n) < n // 2, 1.0, -1.0)
        jumped, _ = ddpll(frame.symbols * jump, frame)
        assert count_slips(clean, frame) == 0
        assert count_slips(jumped, frame) > 0

    @pytest.mark.parametrize("snr_db", [16.0, 18.0])
    def test_awgn_counts_no_slips(self, snr_db):
        # noise moves the phase error by more than pi/2 from one symbol to
        # the next now and then, but the track holds no rotated constellation
        c = build_constellation(64)
        sigma = np.sqrt(10 ** (-snr_db / 10) / 2)
        slips = 0
        for seed in range(5):
            frame = make_frame(c, n_data_bits=36000, seed=seed)
            rng = np.random.default_rng(100 + seed)
            noise = rng.normal(0, sigma, (2, 2, frame.n_instants))
            out, _ = ddpll(frame.symbols + noise[0] + 1j * noise[1], frame)
            slips += count_slips(out, frame)
        assert slips == 0

    def test_quarter_turn_step_counts_once_per_polarization(self):
        # square QAM turned by a quarter turn still decides validly, so the
        # loop keeps the rotated copy and only the pilots see the step
        c = build_constellation(16)
        frame = make_frame(c, seed=15)
        n = frame.n_instants
        out, _ = ddpll(frame.symbols * np.where(np.arange(n) < n // 2, 1.0, 1j), frame)
        assert count_slips(out, frame) == 2

    @pytest.mark.parametrize("order", [16, 256])
    def test_decisions_match_hard_decide(self, order):
        # the PLL's scalar per-axis slicer against hard_decide, on noisy
        # symbols whose decisions are often wrong and sometimes off the grid
        c = build_constellation(order)
        frame = make_frame(c, seed=13)
        rng = np.random.default_rng(13)
        shape = frame.symbols.shape
        noise = rng.normal(0, 0.08, shape) + 1j * rng.normal(0, 0.08, shape)
        rx = 1.2 * frame.symbols * np.exp(0.1j) + noise
        out, track = ddpll(rx, frame)
        kp, ki = pll_gains(1e-3)
        for p in range(2):
            theta = acc = 0.0
            for i in range(shape[1]):
                assert track[p, i] == theta
                v = rx[p, i] * np.exp(-1j * theta)
                ref = frame.symbols[p, i]
                if not frame.pilot_mask[i]:
                    ref = c.points[hard_decide(np.array([v]), c)[0]]
                err = float(np.angle(v * np.conj(ref)))
                acc += ki * err
                theta += kp * err + acc
