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


def symbol_priors(llrs: np.ndarray, c: Constellation) -> np.ndarray:
    """Per-symbol prior probability table from a-priori bit L-values.

    ``llrs`` is flat with length q*m or already shaped (m, q). Returns an
    (m, M) array of probabilities, each row normalized to 1.
    """
    q = c.q
    llrs = np.asarray(llrs, dtype=float)
    if llrs.ndim == 1:
        if llrs.size % q:
            raise ConstellationError(
                f"LLR length {llrs.size} not divisible by q={q}"
            )
        llrs = llrs.reshape(-1, q)
    elif llrs.shape[1] != q:
        raise ConstellationError("LLR block shape does not match constellation")
    logp0, logp1 = bit_probs_from_llrs(llrs)
    b = c.bit_labels.astype(float)  # (M, q)
    logp = logp1 @ b.T + logp0 @ (1.0 - b.T)  # (m, M)
    logp -= logp.max(axis=1, keepdims=True)
    p = np.exp(logp)
    p /= p.sum(axis=1, keepdims=True)
    return p


def soft_stats(priors: np.ndarray, c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """First/second-order symbol statistics from a prior probability table.

    Returns (mean, variance), each of shape (m,).
    """
    priors = np.atleast_2d(priors)
    mean = priors @ c.points
    e2 = priors @ (np.abs(c.points) ** 2)
    var = np.maximum(e2 - np.abs(mean) ** 2, 0.0)
    return mean, var


def extrinsic_llrs(
    estimates: np.ndarray,
    scale: np.ndarray | float,
    noise_var: np.ndarray | float,
    prior_llrs: np.ndarray | None,
    c: Constellation,
    l_max: float = L_MAX,
) -> np.ndarray:
    """Extrinsic bit L-values from equalized symbols on the equivalent
    AWGN channel s_hat = mu*s + eta.

    The prior of bit l itself is excluded from the likelihood weighting of
    L_e(b^l); only the priors of the other bits of the same symbol enter.
    With real mu and nu2 the log-likelihood and the prior weight of a
    symbol split into an I and a Q term, so in the L-value of an I-bit the
    Q-axis sum cancels: each axis is marginalized over its sqrt(M) levels
    alone, in the log domain. Returns shape (m, q).
    """
    s_hat = np.atleast_1d(np.asarray(estimates, dtype=complex))
    m = s_hat.size
    h = c.q // 2
    mu = np.broadcast_to(np.asarray(scale, dtype=float), (m,))
    nu2 = np.asarray(noise_var, dtype=float)
    if np.any(nu2 <= 0):
        nu2 = np.maximum(nu2, NU2_FLOOR_REL * c.energy)
    nu2 = np.broadcast_to(nu2, (m,))

    # (m, 2, sqrt(M)) per-axis log-likelihoods, constants dropped
    y = np.stack([s_hat.real, s_hat.imag], axis=1)
    metric = -((y[:, :, None] - mu[:, None, None] * c.axis_levels) ** 2)
    metric /= nu2[:, None, None]

    b = c.axis_labels  # (sqrt(M), q/2)
    own = 0.0
    if prior_llrs is not None:
        prior_llrs = np.asarray(prior_llrs, dtype=float).reshape(m, 2, h)
        logp0, logp1 = bit_probs_from_llrs(prior_llrs)
        for r in range(h):
            metric += np.where(b[:, r], logp1[..., r, None], logp0[..., r, None])
        own = logp1 - logp0  # each bit's own prior, taken off the a-posteriori L

    out = np.empty((m, 2, h))
    for l in range(h):
        out[..., l] = _logsumexp(metric[..., b[:, l] == 1]) - _logsumexp(
            metric[..., b[:, l] == 0]
        )
    return np.clip((out - own).reshape(m, 2 * h), -l_max, l_max)


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
