"""Performance metrics: effective SNR, GMI from L-values, post-FEC BER,
what the turbo loop measures per iteration, and the MetricsRecord
serialization used by the campaign runner."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


class MetricsError(ValueError):
    pass


def effective_snr(transmitted: np.ndarray, estimates: np.ndarray) -> float:
    """Effective received SNR in dB as mean signal power over mean error power.

    This is the conventional ratio-of-means estimator; for circular Gaussian
    errors it is consistent with 10*log10(1/sigma^2).
    """
    s = np.asarray(transmitted).ravel()
    e = np.asarray(estimates).ravel() - s
    if s.size == 0:
        raise MetricsError("empty input")
    err = np.mean(np.abs(e) ** 2)
    if err == 0.0:
        return 60.0
    return 10.0 * np.log10(np.mean(np.abs(s) ** 2) / err)


def gmi_bits_per_2d(llrs: np.ndarray, bits: np.ndarray) -> float:
    """GMI in bits per 2D (complex) symbol from zero-prior L-values.

    ``llrs`` shaped (m, q) with L = ln P(1)/P(0), ``bits`` the true coded
    bits in the same shape. GMI = q - mean_i sum_l log2(1 + exp(-(2b-1) L)).
    """
    llrs = np.asarray(llrs, dtype=float)
    bits = np.asarray(bits)
    if llrs.shape != bits.shape:
        raise MetricsError("L-value / bit shape mismatch")
    m, q = llrs.shape
    sgn = 2.0 * bits - 1.0
    loss = np.logaddexp(0.0, -sgn * llrs) / np.log(2.0)
    return float(q - loss.sum() / m)


def post_fec_ber(decoded_bits: np.ndarray, true_bits: np.ndarray) -> tuple[float, int]:
    """Bit error ratio of ``decoded_bits`` against ``true_bits``, equal-shaped
    info-bit arrays. Returns (ber, number of bits compared)."""
    dec, ref = np.asarray(decoded_bits), np.asarray(true_bits)
    if dec.shape != ref.shape:
        raise MetricsError("decoded / reference shape mismatch")
    return int(np.sum(dec != ref)) / dec.size, dec.size


@dataclass
class IterationMetrics:
    """What one turbo iteration measures."""

    turbo_iteration: int
    post_fec_ber: float
    snr_db: float
    gmi_bits_per_4d_symbol: float
    n_bits_counted: int


@dataclass
class MetricsRecord(IterationMetrics):
    """One iteration's metrics under the key of the campaign cell that
    measured them."""

    launch_power_dbm: float
    n_spans: int
    mode: str
    seed: int
    trial: int

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "MetricsRecord":
        return cls(**json.loads(line))


def write_records_ndjson(path: str | Path, records: list[MetricsRecord]) -> None:
    Path(path).write_text("".join(r.to_json_line() + "\n" for r in records))


def read_records_ndjson(path: str | Path) -> list[MetricsRecord]:
    lines = Path(path).read_text().splitlines()
    return [MetricsRecord.from_json_line(ln) for ln in lines if ln.strip()]
