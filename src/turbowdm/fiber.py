"""Dual-polarization nonlinear fiber propagation (Manakov model, symmetric
split-step Fourier), lumped EDFA amplification with ASE, and the
receiver-side inverses (EDC, single-channel DBP).

Sign conventions: the linear step multiplies the spectrum by
exp(+j*beta2/2*w^2*dz); the nonlinear step rotates the field by
exp(-j*(8/9)*gamma*(|Ex|^2+|Ey|^2)*dz). EDC and DBP apply the conjugates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .waveform import DualPolSignal

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


def _ssfm(
    fields: np.ndarray,
    sample_rate: float,
    length_m: float,
    step_m: float,
    beta2: float,
    gamma: float,
    alpha: float,
) -> np.ndarray:
    """Symmetric split-step over one fiber section; fields shape (2, n).

    The field and its spectrum share one buffer that ``np.fft`` transforms
    in place (``out=``); the half-step operators are built once per
    distinct step length.
    Output is bit for bit that of the textbook loop kept in the tests.
    """
    n = fields.shape[1]
    w = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / sample_rate)
    steps = _steps(length_m, step_m)
    # at most two distinct lengths: the step and the remainder
    halves = {
        dz: np.exp((1j * beta2 / 2.0 * w**2 - alpha / 2.0) * dz / 2.0) for dz in set(steps)
    }
    mag2 = np.empty((2, n))
    rot = np.empty(n, dtype=complex)
    # the rotation exp(-j*(8/9)*gamma*P*dz) has a zero real exponent, so
    # cos + j*sin of theta = ((-(8/9)*gamma)*P)*dz gives the same bits
    k_nl = -MANAKOV_FACTOR * gamma
    a = np.fft.fft(fields, axis=1)
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


def propagate_span(signal: DualPolSignal, p: FiberParams) -> DualPolSignal:
    """One span of forward Manakov propagation (no amplification)."""
    out = _ssfm(
        signal.fields,
        signal.sample_rate,
        p.span_km * 1e3,
        p.step_m,
        p.beta2_s2_per_m,
        p.gamma_per_w_m,
        p.alpha_per_m,
    )
    return replace(signal, fields=out)


def amplify(
    signal: DualPolSignal,
    gain_db: float,
    nf_db: float | None,
    seed: int | None = None,
    wavelength_nm: float = 1550.0,
) -> DualPolSignal:
    """Flat-gain EDFA with additive circular Gaussian ASE per polarization.

    The ASE PSD per polarization is (G-1)*h*nu*NF/2 [W/Hz]; the noise
    variance added to the sampled field is PSD * sample_rate. ``nf_db=None``
    disables noise.
    """
    if gain_db < 0:
        raise FiberError("gain must be nonnegative")
    g = 10.0 ** (gain_db / 10.0)
    out = signal.scaled(np.sqrt(g))
    if nf_db is None:
        return out
    nu = C_LIGHT / (wavelength_nm * 1e-9)
    psd = (g - 1.0) * H_PLANCK * nu * 10.0 ** (nf_db / 10.0) / 2.0
    sigma2 = psd * signal.sample_rate
    rng = np.random.default_rng(seed)
    n = len(signal)
    noise = rng.standard_normal((2, n, 2)) @ np.array([1.0, 1j]) * np.sqrt(sigma2 / 2.0)
    return replace(out, fields=out.fields + noise)


def propagate_link(
    signal: DualPolSignal,
    p: FiberParams,
    n_spans: int,
    seed: int | None = None,
    ase: bool = True,
) -> DualPolSignal:
    """Multi-span link: span propagation followed by a loss-compensating EDFA."""
    rng = np.random.default_rng(seed)
    out = signal
    for _ in range(n_spans):
        out = propagate_span(out, p)
        out = amplify(
            out,
            p.span_gain_db,
            p.nf_db if ase else None,
            seed=int(rng.integers(0, 2**63 - 1)),
            wavelength_nm=p.center_wavelength_nm,
        )
    return out


def edc(signal: DualPolSignal, p: FiberParams, n_spans: int) -> DualPolSignal:
    """All-pass frequency-domain inverse of the dispersion of ``n_spans``
    spans."""
    n = len(signal)
    w = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / signal.sample_rate)
    hmat = np.exp(-1j * p.beta2_s2_per_m / 2.0 * w**2 * (n_spans * p.span_km) * 1e3)
    return replace(signal, fields=np.fft.ifft(np.fft.fft(signal.fields) * hmat))


def dbp(
    signal: DualPolSignal,
    p: FiberParams,
    n_spans: int,
    step_m: float,
) -> DualPolSignal:
    """Single-channel digital backpropagation over a transparent link of
    ``n_spans`` spans.

    Walks the spans in reverse: undoes the EDFA gain, then runs symmetric
    SSFM with negated attenuation, dispersion, and nonlinearity.
    """
    fields = signal.fields
    g_amp = np.sqrt(10.0 ** (p.span_gain_db / 10.0))
    for _ in range(n_spans):
        fields = fields / g_amp
        fields = _ssfm(
            fields,
            signal.sample_rate,
            p.span_km * 1e3,
            step_m,
            -p.beta2_s2_per_m,
            -p.gamma_per_w_m,
            -p.alpha_per_m,
        )
    return replace(signal, fields=fields)
