"""Dual-polarization nonlinear fiber propagation (Manakov model, symmetric
split-step Fourier), lumped EDFA amplification with ASE, and the
receiver-side inverses (EDC, single-channel DBP).

Sign conventions: the linear step multiplies the spectrum by
exp(+j*beta2/2*w^2*dz); the nonlinear step rotates the field by
exp(-j*(8/9)*gamma*(|Ex|^2+|Ey|^2)*dz). EDC and DBP apply the conjugates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .waveform import DualPolSignal, spectral_filter

C_LIGHT = 299792458.0  # speed of light in vacuum, m/s (exact in SI)
H_PLANCK = 6.62607015e-34  # Planck constant, J s (exact in SI)


class FiberError(ValueError):
    pass


MANAKOV_FACTOR = 8.0 / 9.0


@dataclass(frozen=True)
class FiberParams:
    alpha_db_per_km: float = 0.2
    gamma_per_w_km: float = 1.3
    dispersion_ps_nm_km: float = 17.0
    span_km: float = 50.0
    n_spans: int = 10  # read by no function: span counts are arguments
    nf_db: float = 4.5
    step_m: float = 100.0
    center_wavelength_nm: float = 1550.0

    @property
    def beta2_s2_per_m(self) -> float:
        lam = self.center_wavelength_nm * 1e-9
        d = self.dispersion_ps_nm_km * 1e-6  # s/m^2
        return -d * lam**2 / (2.0 * np.pi * C_LIGHT)

    @property
    def alpha_per_m(self) -> float:
        """Power attenuation coefficient in 1/m."""
        return self.alpha_db_per_km / (10.0 * np.log10(np.e)) / 1e3

    @property
    def gamma_per_w_m(self) -> float:
        return self.gamma_per_w_km / 1e3

    @property
    def span_gain_db(self) -> float:
        return self.alpha_db_per_km * self.span_km


def _steps(length_m: float, step_m: float) -> np.ndarray:
    if step_m <= 0 or step_m > length_m:
        raise FiberError("step must be positive and no larger than the span")
    n_full = int(length_m // step_m)
    steps = [step_m] * n_full
    rem = length_m - n_full * step_m
    if rem > 1e-6:
        steps.append(rem)
    return np.asarray(steps)


@functools.cache
def _keep_fft_scratch_on_heap() -> None:
    """Fix glibc's mmap threshold at its 32 MiB maximum, and its trim
    threshold above it, once per process (nothing without ``mallopt``).

    ``np.fft`` allocates scratch in every call. Above the dynamic threshold
    (128 kB until a larger mapped block is freed) glibc maps and unmaps it
    each time, so every page faults again and the split-step's speed would
    depend on what the process freed before it.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def _ssfm(
    fields: np.ndarray,
    sample_rate: float,
    length_m: float,
    step_m: float,
    beta2: float,
    gamma: float,
    alpha: float,
) -> np.ndarray:
    """Symmetric split-step over one fiber section, in place: ``fields``
    (complex, shape (2, n)) holds the field, then its spectrum, then the
    output, which is returned. ``np.fft`` transforms it with ``out=``; the
    half-step operators are built once per distinct step length.
    Output is bit for bit that of the textbook loop kept in the tests.
    """
    _keep_fft_scratch_on_heap()
    n = fields.shape[1]
    w = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / sample_rate)
    steps = _steps(length_m, step_m)
    # at most two distinct lengths: the step and the remainder
    halves = {
        dz: np.exp((1j * beta2 / 2.0 * w**2 - alpha / 2.0) * dz / 2.0) for dz in set(steps)
    }
    del w  # its memory can serve mag2, rot and the FFT scratch
    mag2 = np.empty((2, n))
    rot = np.empty(n, dtype=complex)
    # the rotation exp(-j*(8/9)*gamma*P*dz) has a zero real exponent, so
    # cos + j*sin of theta = ((-(8/9)*gamma)*P)*dz gives the same bits
    k_nl = -MANAKOV_FACTOR * gamma
    a = np.fft.fft(fields, axis=1, out=fields)
    for dz in steps:
        half = halves[dz]
        a *= half
        np.fft.ifft(a, axis=1, out=a)
        np.square(np.abs(a, out=mag2), out=mag2)
        theta = np.add(mag2[0], mag2[1], out=mag2[0])
        theta *= k_nl
        theta *= dz
        np.cos(theta, out=rot.real)
        np.sin(theta, out=rot.imag)
        a *= rot
        np.fft.fft(a, axis=1, out=a)
        a *= half
    np.fft.ifft(a, axis=1, out=a)
    if not np.all(np.isfinite(a)):
        raise FiberError("non-finite field during propagation")
    return a


def propagate_link(
    signal: DualPolSignal,
    p: FiberParams,
    n_spans: int,
    seed: int | None = None,
    ase: bool = True,
) -> DualPolSignal:
    """Multi-span link, in place: each span's split-step, then a flat-gain
    EDFA that makes up the span loss, overwrite ``signal.fields``, and
    ``signal`` itself is returned.

    The EDFA adds circular Gaussian ASE per polarization of PSD
    (G-1)*h*nu*NF/2 [W/Hz], nu the optical frequency at the centre
    wavelength; the noise variance added to the sampled field is
    PSD * sample_rate. ``ase=False`` adds none.
    """
    if p.span_gain_db < 0:
        raise FiberError("gain must be nonnegative")
    g = 10.0 ** (p.span_gain_db / 10.0)
    nu = C_LIGHT / (p.center_wavelength_nm * 1e-9)
    psd = (g - 1.0) * H_PLANCK * nu * 10.0 ** (p.nf_db / 10.0) / 2.0
    sigma = np.sqrt(psd * signal.sample_rate / 2.0)
    rng = np.random.default_rng(seed)
    fields = signal.fields
    for _ in range(n_spans):
        _ssfm(
            fields, signal.sample_rate, p.span_km * 1e3, p.step_m,
            p.beta2_s2_per_m, p.gamma_per_w_m, p.alpha_per_m,
        )
        fields *= np.sqrt(g)
        if ase:
            span_rng = np.random.default_rng(int(rng.integers(0, 2**63 - 1)))
            # one row at a time; the normals fill re, im of each sample in turn
            noise = np.empty(len(signal), dtype=complex)
            for row in fields:
                span_rng.standard_normal(out=noise.view(float))
                noise *= sigma
                row += noise
            del noise  # not alive during the next split-step
    return signal


def edc(signal: DualPolSignal, p: FiberParams, n_spans: int) -> DualPolSignal:
    """All-pass frequency-domain inverse of the dispersion of ``n_spans``
    spans."""
    w = 2.0 * np.pi * np.fft.fftfreq(len(signal), d=1.0 / signal.sample_rate)
    hmat = np.exp(-1j * p.beta2_s2_per_m / 2.0 * w**2 * (n_spans * p.span_km) * 1e3)
    return replace(signal, fields=spectral_filter(signal.fields, hmat))


def dbp(
    signal: DualPolSignal,
    p: FiberParams,
    n_spans: int,
    step_m: float,
) -> DualPolSignal:
    """Single-channel digital backpropagation over a transparent link of
    ``n_spans`` spans.

    Walks the spans in reverse: undoes the EDFA gain, then runs symmetric
    SSFM with negated attenuation, dispersion, and nonlinearity. Works on
    one copy of ``signal.fields``, so ``signal`` is left as it was.
    """
    fields = signal.fields.copy()  # the selected channel serves every mode
    g_amp = np.sqrt(10.0 ** (p.span_gain_db / 10.0))
    for _ in range(n_spans):
        fields /= g_amp
        _ssfm(
            fields, signal.sample_rate, p.span_km * 1e3, step_m,
            -p.beta2_s2_per_m, -p.gamma_per_w_m, -p.alpha_per_m,
        )
    return replace(signal, fields=fields)
