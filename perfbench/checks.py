"""Output checks on campaign records and the quality figures derived from
them. Records arrive as ``MetricsRecord`` objects; a cell is keyed by
(launch power, spans, mode, trial) as in ``harness.run_campaign``."""

from __future__ import annotations

import math
from collections import defaultdict


def expected_cells(cfg) -> list[tuple]:
    return [
        (p, s, m, t)
        for p in cfg.power_dbm_list
        for s in cfg.span_list
        for m in cfg.modes
        for t in range(cfg.n_trials)
    ]


def by_cell(records) -> dict[tuple, list]:
    cells = defaultdict(list)
    for r in records:
        cells[(r.launch_power_dbm, r.n_spans, r.mode, r.trial)].append(r)
    return cells


def _record_problem(cell_recs, mode: str, n_turbo_iters: int) -> str | None:
    most = n_turbo_iters + 1 if mode == "dbp_turbo" else 1
    if not 1 <= len(cell_recs) <= most:
        return f"{len(cell_recs)} records, expected 1..{most}"
    if [r.turbo_iteration for r in cell_recs] != list(range(len(cell_recs))):
        return "turbo iterations not numbered 0..n"
    for r in cell_recs:
        if not (math.isfinite(r.snr_db) and math.isfinite(r.gmi_bits_per_4d_symbol)):
            return f"non-finite SNR or GMI at iteration {r.turbo_iteration}"
        if not 0.0 <= r.post_fec_ber <= 0.5:
            return f"BER {r.post_fec_ber} outside [0, 0.5] at iteration {r.turbo_iteration}"
    return None


def failed_cells(cfg, records, failures) -> dict[tuple, str]:
    """Cells that ``run_campaign`` reported as failed or whose records fail
    the checks, with the reason."""
    bad = {tuple(key): f"run_campaign: {err}" for key, err in failures}
    cells = by_cell(records)
    for key in expected_cells(cfg):
        if key in bad:
            continue
        problem = _record_problem(cells.get(key, []), key[2], cfg.turbo.n_turbo_iters)
        if problem:
            bad[key] = problem
    return bad


def mismatched_cells(records, reference) -> dict[tuple, str]:
    """Cells whose serialized records differ from those of ``reference``."""
    a, b = by_cell(records), by_cell(reference)
    return {
        key: "records differ from the reference run"
        for key in set(a) | set(b)
        if [r.to_json_line() for r in a.get(key, [])]
        != [r.to_json_line() for r in b.get(key, [])]
    }


def quality(records) -> dict[str, float]:
    """Mean final-iteration SNR per mode present, and the paired turbo gain:
    per dbp_turbo cell the final iteration minus iteration 0, averaged."""
    finals = defaultdict(list)
    gains = []
    for (_, _, mode, _), recs in sorted(by_cell(records).items()):
        finals[mode].append(recs[-1].snr_db)
        if mode == "dbp_turbo":
            gains.append(recs[-1].snr_db - recs[0].snr_db)
    out = {f"snr_db.{m}": sum(v) / len(v) for m, v in sorted(finals.items())}
    if gains:
        out["turbo_gain_db"] = sum(gains) / len(gains)
    return out
