"""Square QAM constellations, Gray labeling, and soft bit/symbol statistics.

Bit L-value convention throughout the package: L = ln P(b=1) / P(b=0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# L-values beyond this are numerically saturated; clip to keep exponentials finite.
L_MAX = 40.0

# Relative floor on the equivalent-channel noise variance; prevents the
# singularity when priors become certain and the residual variance collapses.
NU2_FLOOR_REL = 1e-9


class ConstellationError(ValueError):
    pass


@dataclass(frozen=True)
class Constellation:
    """Unit-energy square QAM with reflected-binary Gray labeling.

    ``points`` has shape (M,), ``bit_labels`` shape (M, q) with the first
    q/2 bits addressing the in-phase level and the last q/2 the quadrature
    level, each axis Gray coded.
    """

    order: int
    points: np.ndarray
    bit_labels: np.ndarray
    energy: float

    @property
    def q(self) -> int:
        return self.bit_labels.shape[1]

    @property
    def axis_levels(self) -> np.ndarray:
        """The sqrt(M) ascending levels of the I axis; the Q axis has the same."""
        return self.points.real[:: 1 << (self.q // 2)]

    @property
    def axis_labels(self) -> np.ndarray:
        """(sqrt(M), q/2) Gray labels of the axis levels, shared by I and Q."""
        return self.bit_labels[:: 1 << (self.q // 2), : self.q // 2]


def build_constellation(order: int) -> Constellation:
    """Build a unit-average-energy Gray-labeled square QAM constellation."""
    if order not in (4, 16, 64, 256):
        raise ConstellationError(f"unsupported QAM order {order}")
    m = int(round(np.sqrt(order)))
    half_q = int(round(np.log2(order))) // 2
    levels = np.arange(-(m - 1), m, 2, dtype=float)
    scale = np.sqrt(2.0 * (order - 1) / 3.0)
    gray = np.arange(m) ^ (np.arange(m) >> 1)
    axis_bits = (gray[:, None] >> np.arange(half_q - 1, -1, -1)) & 1  # (m, q/2)
    ix, iy = np.divmod(np.arange(order), m)  # point ix*m + iy: I level ix, Q level iy
    points = (levels[ix] + 1j * levels[iy]) / scale
    labels = np.hstack([axis_bits[ix], axis_bits[iy]]).astype(np.uint8)
    energy = float(np.mean(np.abs(points) ** 2))
    return Constellation(order=order, points=points, bit_labels=labels, energy=energy)


def bit_probs_from_llrs(llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return elementwise (log P(b=0), log P(b=1)) from L-values."""
    l = np.clip(llrs, -L_MAX, L_MAX)
    # log sigmoid, stable on both tails
    logp1 = -np.logaddexp(0.0, -l)
    logp0 = -np.logaddexp(0.0, l)
    return logp0, logp1


def _axis_log_weights(logp0: np.ndarray, logp1: np.ndarray, c: Constellation) -> np.ndarray:
    """(..., 2, sqrt(M)) log prior weight of each I and Q level from the
    (..., 2, q/2) bit log-probabilities of its axis: a level's label bits
    are independent a priori, so their log-probabilities add."""
    b = c.axis_labels  # (sqrt(M), q/2)
    return sum(np.where(b[:, r], logp1[..., r, None], logp0[..., r, None]) for r in range(c.q // 2))


def symbol_priors(llrs: np.ndarray, c: Constellation) -> np.ndarray:
    """Per-axis symbol priors from a-priori bit L-values.

    ``llrs`` has shape (..., q). Returns (..., 2, sqrt(M)) probabilities of
    the I levels (row 0) and the Q levels (row 1), each row normalized to
    1; a symbol's prior is the product of its two levels' probabilities.
    """
    llrs = np.asarray(llrs, dtype=float)
    if llrs.shape[-1:] != (c.q,):
        raise ConstellationError(f"L-values of shape {llrs.shape} do not end in q={c.q}")
    logp = bit_probs_from_llrs(llrs.reshape(*llrs.shape[:-1], 2, c.q // 2))
    logw = _axis_log_weights(*logp, c)
    p = np.exp(logw - logw.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


def soft_stats(priors: np.ndarray, c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Symbol mean and variance from the (..., 2, sqrt(M)) per-axis priors
    of ``symbol_priors``, read off the points as their sqrt(M) x sqrt(M)
    [I level, Q level] grid: E[s] = sum_ik P_I(i) P_Q(k) points[i, k].

    Returns (mean, variance), each of shape (...).
    """
    priors = np.asarray(priors)
    side = c.axis_levels.size
    # every symbol a row of one product: numpy hands a one-row product to
    # BLAS's gemv, whose bits differ from gemm's, so a chunk of one symbol
    # per polarization must still be two rows to match the whole frame
    flat = priors.reshape(-1, 2, side)
    p_i, p_q = flat[:, 0], flat[:, 1]
    grid = c.points.reshape(side, side)
    mean = np.sum((p_i @ grid) * p_q, axis=-1)
    e2 = np.sum((p_i @ np.abs(grid) ** 2) * p_q, axis=-1)
    var = np.maximum(e2 - np.abs(mean) ** 2, 0.0)
    return mean.reshape(priors.shape[:-2]), var.reshape(priors.shape[:-2])


def extrinsic_llrs(
    estimates: np.ndarray,
    scale: np.ndarray | float,
    noise_var: np.ndarray | float,
    prior_llrs: np.ndarray | None,
    c: Constellation,
    l_max: float = L_MAX,
) -> tuple[np.ndarray, np.ndarray]:
    """Extrinsic and prior-free bit L-values from equalized symbols on the
    equivalent AWGN channel s_hat = mu*s + eta.

    The prior of bit l itself is excluded from the likelihood weighting of
    L_e(b^l); only the priors of the other bits of the same symbol enter.
    With real mu and nu2 the log-likelihood and the prior weight of a
    symbol split into an I and a Q term, so in the L-value of an I-bit the
    Q-axis sum cancels: each axis is marginalized over its sqrt(M) levels
    alone, in the log domain. ``scale`` and ``noise_var`` broadcast to the
    shape (...) of ``estimates``, and ``prior_llrs`` has shape (..., q).
    Returns (extrinsic, prior_free), each of shape (..., q). The per-axis
    metric is built once: prior_free marginalizes it before the priors
    enter, and without priors it is the extrinsic array itself.
    """
    s_hat = np.atleast_1d(np.asarray(estimates, dtype=complex))
    shape = s_hat.shape
    nu2 = np.asarray(noise_var, dtype=float)
    if np.any(nu2 <= 0):
        nu2 = np.maximum(nu2, NU2_FLOOR_REL * c.energy)
    # (..., 2, sqrt(M)) per-axis log-likelihoods, constants dropped
    y = np.stack([s_hat.real, s_hat.imag], axis=-1)
    mu = np.asarray(scale, dtype=float)
    metric = -((y[..., None] - mu[..., None, None] * c.axis_levels) ** 2)
    metric /= nu2[..., None, None]
    prior_free = _axis_llrs(metric, 0.0, c, l_max)
    if prior_llrs is None:
        return prior_free, prior_free
    prior_llrs = np.asarray(prior_llrs, dtype=float).reshape(*shape, 2, c.q // 2)
    logp0, logp1 = bit_probs_from_llrs(prior_llrs)
    metric += _axis_log_weights(logp0, logp1, c)
    # each bit's own prior, taken off the a-posteriori L
    return _axis_llrs(metric, logp1 - logp0, c, l_max), prior_free


def _axis_llrs(metric, own, c, l_max):
    """The (..., q) clipped L-values of the I and Q bits from the
    (..., 2, sqrt(M)) per-axis metric, less ``own``."""
    b = c.axis_labels  # (sqrt(M), q/2)
    h = b.shape[1]
    out = np.empty((*metric.shape[:-1], h))
    for l in range(h):
        out[..., l] = _logsumexp(metric[..., b[:, l] == 1]) - _logsumexp(
            metric[..., b[:, l] == 0]
        )
    return np.clip(out - own, -l_max, l_max).reshape(*metric.shape[:-2], 2 * h)


def _logsumexp(x: np.ndarray) -> np.ndarray:
    mx = x.max(axis=-1)
    return mx + np.log(np.sum(np.exp(x - mx[..., None]), axis=-1))


def hard_decide(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Indices of the nearest constellation points, sliced per axis (a tie
    goes to the lower level, as a first-index argmin would)."""
    s = np.atleast_1d(symbols)
    a = c.axis_levels
    ix, iy = (
        np.clip(np.ceil(v / (a[1] - a[0]) + a.size / 2) - 1, 0, a.size - 1).astype(int)
        for v in (s.real, s.imag)
    )
    return ix * a.size + iy


def map_bits(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Map a flat bit sequence (length divisible by q) to symbols."""
    q = c.q
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1, q)
    w = 1 << np.arange(q - 1, -1, -1)
    idx_of_label = np.empty(c.order, dtype=int)
    idx_of_label[c.bit_labels @ w] = np.arange(c.order)
    return c.points[idx_of_label[bits @ w]]
