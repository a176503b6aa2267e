import ctypes
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.constants
from scipy.constants import c as C_LIGHT
from scipy.constants import h as H_PLANCK

from turbowdm import fiber
from turbowdm.fiber import (
    MANAKOV_FACTOR,
    FiberError,
    FiberParams,
    _ssfm,
    _steps,
    dbp,
    edc,
    propagate_link,
)
from turbowdm.waveform import DualPolSignal

from conftest import copied, x_rel_err


def bandlimited_signal(n=4096, band=300, fs=128e9, seed=0, power_w=1e-3):
    """Circularly band-limited random dual-pol field at a given total power."""
    rng = np.random.default_rng(seed)
    fields = np.empty((2, n), dtype=complex)
    for p in range(2):
        spec = np.zeros(n, dtype=complex)
        spec[:band] = rng.standard_normal(band) + 1j * rng.standard_normal(band)
        spec[-band:] = rng.standard_normal(band) + 1j * rng.standard_normal(band)
        fields[p] = np.fft.ifft(spec)
    sig = DualPolSignal(fields=fields, sample_rate=fs)
    return replace(sig, fields=sig.fields * np.sqrt(power_w / sig.power()))


def lossy_span(sig, p):
    """One span of ``p`` without the amplifier, on a copy of ``sig``."""
    fields = _ssfm(
        sig.fields.copy(), sig.sample_rate, p.span_km * 1e3, p.step_m,
        p.beta2_s2_per_m, p.gamma_per_w_m, p.alpha_per_m,
    )
    return DualPolSignal(fields=fields, sample_rate=sig.sample_rate)


class TestParams:
    def test_beta2_from_dispersion(self):
        # D = 17 ps/nm/km at 1550 nm -> beta2 ~ -21.7 ps^2/km
        p = FiberParams()
        assert abs(p.beta2_s2_per_m * 1e27 + 21.7) < 0.1

    def test_alpha_linear_units(self):
        # 0.2 dB/km -> 4.61e-5 1/m power attenuation
        p = FiberParams()
        assert abs(p.alpha_per_m - 4.605e-5) < 1e-7

    def test_span_gain_matches_loss(self):
        assert FiberParams().span_gain_db == pytest.approx(10.0)


class TestNonlinearPhase:
    def test_cw_spm_phase(self):
        # lossless CW: phase rotates by -(8/9)*gamma*P*L, amplitude untouched
        p = FiberParams(alpha_db_per_km=0.0, step_m=1000.0)
        power = 2e-3
        amp = np.sqrt(power / 2.0)
        n = 256
        sig = DualPolSignal(fields=np.full((2, n), amp, dtype=complex), sample_rate=64e9)
        out = propagate_link(copied(sig), p, 1, ase=False)
        expect = -(8.0 / 9.0) * p.gamma_per_w_m * power * p.span_km * 1e3
        np.testing.assert_allclose(np.angle(out.fields[0] / sig.fields[0]), expect, atol=1e-9)
        np.testing.assert_allclose(np.abs(out.fields[0]), amp, atol=1e-12)

    def test_cross_pol_power_drives_rotation(self):
        # x carries all the power; y still sees the full Manakov rotation
        p = FiberParams(alpha_db_per_km=0.0, step_m=1000.0)
        power = 1e-3
        n = 128
        sig = DualPolSignal(
            fields=np.array([[np.sqrt(power)], [1e-6]], dtype=complex).repeat(n, axis=1),
            sample_rate=64e9,
        )
        out = propagate_link(copied(sig), p, 1, ase=False)
        expect = -(8.0 / 9.0) * p.gamma_per_w_m * power * p.span_km * 1e3
        np.testing.assert_allclose(np.angle(out.fields[1] / sig.fields[1]), expect, atol=1e-6)

    def test_lossless_energy_conserved(self):
        p = FiberParams(alpha_db_per_km=0.0, step_m=500.0)
        sig = bandlimited_signal(power_w=5e-3)
        out = propagate_link(copied(sig), p, 1, ase=False)
        assert abs(out.power() - sig.power()) / sig.power() < 1e-12

    def test_loss_scales_power(self):
        p = FiberParams(step_m=500.0)
        sig = bandlimited_signal(power_w=1e-3)
        out = lossy_span(sig, p)
        assert abs(out.power() / sig.power() - 0.1) < 1e-6


class TestDispersion:
    def test_gaussian_broadening_closed_form(self):
        # linear fiber: T1 = T0*sqrt(1+(beta2*z/T0^2)^2) for exp(-t^2/(2 T0^2))
        p = FiberParams(alpha_db_per_km=0.0, gamma_per_w_km=0.0, step_m=5000.0)
        fs = 256e9
        n = 1 << 14
        t = (np.arange(n) - n / 2) / fs
        t0 = 20e-12
        field = np.exp(-(t**2) / (2.0 * t0**2)).astype(complex)
        sig = DualPolSignal(fields=np.stack([field, field]), sample_rate=fs)
        out = propagate_link(sig, p, 1, ase=False)
        z = p.span_km * 1e3
        expect = t0 * np.sqrt(1.0 + (p.beta2_s2_per_m * z / t0**2) ** 2)
        # measured rms width of |E|^2 equals T1/sqrt(2) for a Gaussian
        inten = np.abs(out.fields[0]) ** 2
        mean = np.sum(t * inten) / np.sum(inten)
        rms = np.sqrt(np.sum((t - mean) ** 2 * inten) / np.sum(inten))
        assert abs(rms * np.sqrt(2.0) - expect) / expect < 1e-3

    def test_edc_inverts_linear_link(self):
        p = FiberParams(gamma_per_w_km=0.0, step_m=1000.0)
        sig = bandlimited_signal(power_w=1e-3, seed=2)
        out = propagate_link(copied(sig), p, n_spans=3, ase=False)
        rec = edc(out, p, 3)
        err = x_rel_err(rec, sig)
        assert err < 1e-20

    def test_edc_is_all_pass(self):
        p = FiberParams()
        sig = bandlimited_signal(seed=3)
        out = edc(sig, p, 10)
        assert abs(out.power() - sig.power()) / sig.power() < 1e-12
        spec_in = np.abs(np.fft.fft(sig.fields[0]))
        spec_out = np.abs(np.fft.fft(out.fields[0]))
        np.testing.assert_allclose(spec_out, spec_in, atol=1e-9 * spec_in.max())


def test_constants_are_scipy_codata():
    # exact in the SI since 2019, so equal to the last bit
    assert fiber.C_LIGHT == scipy.constants.c
    assert fiber.H_PLANCK == scipy.constants.h


class TestAse:
    def test_noise_variance_matches_psd(self):
        # the split-step keeps a zero field exactly zero, so the link's
        # output is one amplifier's noise
        p = FiberParams(step_m=50e3)
        gain_db, nf_db, fs = p.span_gain_db, p.nf_db, 128e9
        n = 1 << 18
        zero = DualPolSignal(fields=np.zeros((2, n), dtype=complex), sample_rate=fs)
        out = propagate_link(zero, p, 1, seed=4)
        g = 10.0 ** (gain_db / 10.0)
        nu = C_LIGHT / (p.center_wavelength_nm * 1e-9)
        sigma2 = (g - 1.0) * H_PLANCK * nu * 10.0 ** (nf_db / 10.0) / 2.0 * fs
        for v in out.fields:
            assert abs(np.mean(np.abs(v) ** 2) - sigma2) / sigma2 < 0.02
        # circular: real/imag parts balanced and uncorrelated
        assert abs(np.mean(out.fields[0].real * out.fields[0].imag)) < 0.01 * sigma2

    def test_gain(self):
        # the amplifier makes up the span loss
        p = FiberParams(step_m=5000.0)
        sig = bandlimited_signal(power_w=1e-3, seed=5)
        out = propagate_link(copied(sig), p, 1, ase=False)
        assert abs(out.power() - sig.power()) / sig.power() < 1e-9

    def test_seeded_reproducible(self):
        p = FiberParams(step_m=5000.0)
        sig = bandlimited_signal(seed=6)
        a = propagate_link(copied(sig), p, 1, seed=7)
        b = propagate_link(copied(sig), p, 1, seed=7)
        np.testing.assert_array_equal(a.fields, b.fields)

    def test_negative_gain_rejected(self):
        sig = bandlimited_signal()
        with pytest.raises(FiberError):
            propagate_link(sig, FiberParams(alpha_db_per_km=-0.02), 1)


class TestDbp:
    def test_exact_inverse_of_noiseless_link(self):
        # backward SSFM with negated parameters and matched steps cancels the
        # forward propagation step-for-step
        p = FiberParams(step_m=500.0)
        sig = bandlimited_signal(power_w=4e-3, seed=8)
        out = propagate_link(copied(sig), p, n_spans=4, ase=False)
        rec = dbp(out, p, 4, step_m=500.0)
        err = x_rel_err(rec, sig)
        assert err < 1e-20

    def test_coarse_steps_still_close(self):
        p = FiberParams(step_m=500.0)
        sig = bandlimited_signal(power_w=2e-3, seed=9)
        out = propagate_link(copied(sig), p, n_spans=2, ase=False)
        rec = dbp(out, p, 2, step_m=10e3)
        err = x_rel_err(rec, sig)
        assert 10.0 * np.log10(err) < -35.0

    def test_zero_distance_identity(self):
        p = FiberParams()
        sig = bandlimited_signal(seed=10)
        out = dbp(sig, p, 0, step_m=1000.0)
        np.testing.assert_array_equal(out.fields, sig.fields)


class TestInPlace:
    def test_link_returns_its_input(self):
        # the launch field becomes the received field: no second buffer
        sig = bandlimited_signal(seed=14)
        launch = sig.fields
        out = propagate_link(sig, FiberParams(step_m=5000.0), 2, seed=1)
        assert out is sig
        assert np.shares_memory(out.fields, launch)

    @pytest.mark.parametrize(
        "stage",
        [lambda s, p: edc(s, p, 2), lambda s, p: dbp(s, p, 2, 10e3)],
        ids=["edc", "dbp"],
    )
    def test_compensation_leaves_its_input(self, stage):
        # the receiver runs every mode of a draw on one selected channel
        sig = bandlimited_signal(seed=15)
        before = sig.fields.copy()
        stage(sig, FiberParams())
        assert np.array_equal(sig.fields, before)

    def test_link_peak_memory(self):
        # the split-step, the gain and one row of ASE at a time: the traced
        # peak stays within three fields of the input's size whatever the
        # span count (numpy reports its buffers to tracemalloc)
        p = FiberParams(step_m=5000.0)
        peaks = {}
        for n_spans in (1, 2):
            sig = bandlimited_signal(n=1 << 15, band=3000, seed=16)
            tracemalloc.start()
            try:
                propagate_link(sig, p, n_spans, seed=2)
                peaks[n_spans] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        field = sig.fields.nbytes
        assert peaks[2] <= 3 * field
        assert peaks[2] - peaks[1] <= field // 100


class TestSteps:
    def test_bad_step(self):
        p = FiberParams(step_m=0.0)
        sig = bandlimited_signal()
        with pytest.raises(FiberError):
            propagate_link(sig, p, 1, ase=False)

    def test_remainder_step_covers_span(self):
        # 50 km with 7 km steps: total distance still exactly one span
        p = FiberParams(alpha_db_per_km=0.0, gamma_per_w_km=0.0, step_m=7000.0)
        sig = bandlimited_signal(seed=12)
        out = propagate_link(copied(sig), p, 1, ase=False)
        rec = edc(out, p, 1)
        err = x_rel_err(rec, sig)
        assert err < 1e-20


def reference_ssfm(fields, sample_rate, length_m, step_m, beta2, gamma, alpha):
    """The split-step with the operators rebuilt in every step, numpy FFTs
    and a complex-exponential rotation. Oracle for ``_ssfm``."""
    n = fields.shape[1]
    w = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / sample_rate)
    spec = np.fft.fft(fields, axis=1)
    for dz in _steps(length_m, step_m):
        half = np.exp((1j * beta2 / 2.0 * w**2 - alpha / 2.0) * dz / 2.0)
        spec *= half
        a = np.fft.ifft(spec, axis=1)
        power = np.abs(a[0]) ** 2 + np.abs(a[1]) ** 2
        a *= np.exp(-1j * MANAKOV_FACTOR * gamma * power * dz)
        spec = np.fft.fft(a, axis=1) * half
    return np.fft.ifft(spec, axis=1)


class TestSsfmOracle:
    # 1031 is prime, so the FFTs take their Bluestein path
    @pytest.mark.parametrize("n", [1024, 1031])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "dbp"])
    @pytest.mark.parametrize("length_m", [5000.0, 5300.0], ids=["whole", "remainder"])
    def test_bit_identical(self, n, sign, length_m):
        p = FiberParams()
        fields = bandlimited_signal(n=n, power_w=1e-2, seed=13).fields
        before = fields.copy()
        args = (
            128e9, length_m, 1000.0,
            sign * p.beta2_s2_per_m, sign * p.gamma_per_w_m, sign * p.alpha_per_m,
        )
        out = _ssfm(fields, *args)
        assert out is fields  # transformed in place
        assert np.array_equal(out, reference_ssfm(before, *args))


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


# minor page faults per split-step in a fresh interpreter; with the FFT
# scratch mapped and unmapped in every call, one step at desk's length
# takes about 750
FAULTS_PER_STEP_MAX = 100


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_split_step_keeps_fft_scratch_on_heap():
    # a fresh interpreter has freed nothing large, so nothing has raised
    # glibc's dynamic mmap threshold; its own ru_minflt counts its faults
    child = (
        "import resource, numpy as np\n"
        "from turbowdm.fiber import FiberParams, _ssfm\n"
        "p = FiberParams()\n"
        "rng = np.random.default_rng(0)\n"
        "x = (rng.standard_normal((2, 25872)) + 1j * rng.standard_normal((2, 25872))) * 1e-2\n"
        "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "_ssfm(x, 128e9, 5000.0, 100.0, p.beta2_s2_per_m, p.gamma_per_w_m, p.alpha_per_m)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0) / 50)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fiber.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True)
    assert float(out.stdout) < FAULTS_PER_STEP_MAX


class TestSplitStepOrder:
    def test_error_falls_as_step_squared(self):
        # the symmetric split-step is second order: halving the step cuts
        # the error against a fine-step reference by a factor near 4
        p = FiberParams()
        # +-50 GHz at 128 GS/s, 10 mW, one 50 km span
        sig = bandlimited_signal(n=4096, band=1600, fs=128e9, seed=21, power_w=10e-3)
        ref = lossy_span(sig, replace(p, step_m=50.0)).fields
        err = {
            dz: np.linalg.norm(lossy_span(sig, replace(p, step_m=dz)).fields - ref)
            for dz in (1000.0, 500.0)
        }
        assert err[1000.0] / err[500.0] >= 3.5
