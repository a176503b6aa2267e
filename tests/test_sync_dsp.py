import numpy as np
import pytest

from turbowdm.constellation import build_constellation, hard_decide
from turbowdm.sync_dsp import (
    DdpllState,
    NlmsState,
    SyncError,
    coarse_align,
    ddpll,
    nlms_equalize,
)
from turbowdm.waveform import DualPolSignal, build_frame

BAUD = 32e9


@pytest.fixture(scope="module")
def qpsk():
    return build_constellation(4)


def make_frame(c, n_data_bits=8000, pilot_rate=0.05, seed=0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (2, n_data_bits)).astype(np.uint8)
    return build_frame(bits, c, pilot_rate, 1, seed=seed, symbol_rate=BAUD)


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
        back = coarse_align(delayed, frame, sps=2)
        np.testing.assert_allclose(back.fields, sig.fields, atol=1e-12)

    def test_trims_to_frame_length(self, qpsk):
        frame = make_frame(qpsk, seed=2)
        sig = stuffed_signal(frame)
        padded = DualPolSignal(
            fields=np.pad(sig.fields, ((0, 0), (0, 37))), sample_rate=sig.sample_rate
        )
        back = coarse_align(padded, frame, sps=2)
        assert len(back) == frame.n_instants * 2


class TestNlms:
    def test_identity_passthrough(self, qpsk):
        # centered unit taps on a clean T/2 signal reproduce the symbols
        frame = make_frame(qpsk, pilot_rate=0.0, seed=3)
        sig = stuffed_signal(frame)
        out = nlms_equalize(sig, frame, align=False)
        scale = np.sqrt(sig.power() / 2.0)
        np.testing.assert_allclose(out * scale, frame.symbols, atol=1e-9)

    def test_inverts_static_polarization_rotation(self, qpsk):
        frame = make_frame(qpsk, seed=4)
        sig = stuffed_signal(frame)
        th = 0.6
        j00, j01 = np.cos(th), np.sin(th) * np.exp(0.4j)
        x, y = sig.fields
        mixed = DualPolSignal(
            fields=np.stack([j00 * x + j01 * y, -np.conj(j01) * x + j00 * y]),
            sample_rate=sig.sample_rate,
        )
        train = np.ones(frame.n_instants, dtype=bool)
        out = nlms_equalize(mixed, frame, train_mask=train, align=False)
        tail = slice(frame.n_instants // 2, None)
        err = np.mean(np.abs(out[:, tail] - frame.symbols[:, tail]) ** 2)
        assert 10 * np.log10(err / np.mean(np.abs(frame.symbols) ** 2)) < -30.0

    def test_error_decreases_over_time(self, qpsk):
        frame = make_frame(qpsk, n_data_bits=16000, seed=5)
        sig = stuffed_signal(frame)
        rng = np.random.default_rng(6)
        x, y = sig.fields
        noisy = DualPolSignal(
            fields=np.stack([0.8 * x + 0.3j * y, 0.3j * x + 0.8 * y]),
            sample_rate=sig.sample_rate,
        )
        train = np.ones(frame.n_instants, dtype=bool)
        out = nlms_equalize(noisy, frame, train_mask=train, align=False)
        e = np.abs(out - frame.symbols) ** 2
        q = frame.n_instants // 4
        assert np.mean(e[:, -q:]) < 0.1 * np.mean(e[:, :q])

    def test_state_persists_across_calls(self, qpsk):
        frame = make_frame(qpsk, seed=7)
        sig = stuffed_signal(frame)
        state = NlmsState()
        train = np.ones(frame.n_instants, dtype=bool)
        nlms_equalize(sig, frame, state=state, train_mask=train, align=False)
        taps_after = state.taps.copy()
        nlms_equalize(sig, frame, state=state, train_mask=train, align=False)
        assert not np.allclose(state.taps, np.zeros_like(taps_after))

    def test_even_tap_count_rejected(self):
        with pytest.raises(SyncError):
            NlmsState(n_taps=12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self, qpsk):
        frame = make_frame(qpsk, seed=8)
        sig = stuffed_signal(frame)
        state = NlmsState(step_size=8.0)  # far outside the stable range
        train = np.ones(frame.n_instants, dtype=bool)
        with pytest.raises(SyncError):
            nlms_equalize(sig, frame, state=state, train_mask=train, align=False)


class TestDdpll:
    def test_constant_phase_offset(self, qpsk):
        frame = make_frame(qpsk, seed=9)
        rot = frame.symbols * np.exp(0.25j)
        out, track = ddpll(rot, frame, qpsk)
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
        out, track = ddpll(rot, frame, qpsk)
        tail = slice(3 * n // 4, None)
        resid = track[:, tail] - ramp[tail]
        assert np.max(np.abs(resid - np.mean(resid, axis=1, keepdims=True))) < 0.05
        assert np.max(np.abs(np.mean(resid, axis=1))) < 0.05

    def test_independent_branches(self, qpsk):
        # a phase offset on one polarization leaves the other untouched
        frame = make_frame(qpsk, seed=11)
        rot = frame.symbols.copy()
        rot[1] *= np.exp(0.3j)
        out, track = ddpll(rot, frame, qpsk)
        tail = slice(9 * frame.n_instants // 10, None)
        assert np.max(np.abs(track[0, tail])) < 0.02
        np.testing.assert_allclose(track[1, tail], 0.3, atol=0.02)

    def test_state_carries_phase(self, qpsk):
        frame = make_frame(qpsk, seed=12)
        rot = frame.symbols * np.exp(0.2j)
        state = DdpllState()
        ddpll(rot, frame, qpsk, state=state)
        np.testing.assert_allclose(state.phase, 0.2, atol=0.02)

    def test_counts_cycle_slips(self, qpsk):
        # a half-turn phase jump leaves every QPSK decision valid, so only
        # the pilots after it see a phase error near pi: possible slips
        frame = make_frame(qpsk, seed=14)
        n = frame.n_instants
        clean, jumped = DdpllState(), DdpllState()
        ddpll(frame.symbols * np.exp(0.2j), frame, qpsk, state=clean)
        jump = np.where(np.arange(n) < n // 2, 1.0, -1.0)
        ddpll(frame.symbols * jump, frame, qpsk, state=jumped)
        assert clean.slips == 0
        assert jumped.slips > 0

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
        out, track = ddpll(rx, frame, c)
        kp, ki = DdpllState().gains
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
