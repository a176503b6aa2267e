"""Campaign configuration, the seeded Monte Carlo trial runner, sweep
orchestration over launch power / span count / receiver mode, and
plot-ready table emission."""

from __future__ import annotations

import configparser
import csv
import functools
import hashlib
import logging
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import fiber as fib
from .constellation import build_constellation
from .fec import LdpcCode, frame_order
from .metrics import MetricsRecord
from .sync_dsp import coarse_align, count_slips, ddpll, nlms_equalize
from .turbo import SlidingWindowConfig, turbo_loop
from .waveform import (
    build_frame,
    fft_resample,
    matched_filter,
    rrc_shape,
    select_channel,
    wdm_mux,
)

log = logging.getLogger(__name__)

MODES = ("edc", "dbp", "dbp_turbo")


class HarnessError(RuntimeError):
    pass


@dataclass
class CampaignConfig:
    modulation: int = 64
    n_wdm_channels: int = 3
    baud: float = 32e9
    grid_spacing_hz: float = 37.5e9
    pilot_rate: float = 0.05
    rolloff: float = 0.01
    rrc_span: int = 64
    tx_samples_per_symbol: int = 4
    fiber: fib.FiberParams = field(default_factory=fib.FiberParams)
    dbp_step_m: float = 10e3
    code_file: str = "rate45_n2048"
    n_blocks: int = 18
    n_train_blocks: int = 3
    decoder_iters: int = 50
    turbo: SlidingWindowConfig = field(default_factory=SlidingWindowConfig)
    nlms_taps: int = 13
    nlms_step: float = 0.05
    pll_bw_norm: float = 1e-3
    bypass_sync_dsp: bool = False
    power_dbm_list: tuple[float, ...] = (2.0,)
    span_list: tuple[int, ...] = (10,)
    modes: tuple[str, ...] = MODES
    n_trials: int = 1
    base_seed: int = 1234

    def __post_init__(self):
        if not self.power_dbm_list or not self.span_list or not self.modes:
            raise HarnessError("sweep axes must be non-empty")
        if min(self.span_list) < 0:
            raise HarnessError("span counts must be >= 0")
        if self.n_trials < 1:
            raise HarnessError("n_trials must be >= 1")
        # the receiver selects the band at 0 Hz, where only an odd grid has a channel
        if self.n_wdm_channels < 1 or self.n_wdm_channels % 2 == 0:
            raise HarnessError("n_wdm_channels must be odd")
        # the receiver needs pilots, and at most one per data symbol
        if not 0 < self.pilot_rate <= 0.5:
            raise HarnessError("pilot_rate must be in (0, 0.5]")
        # build_frame's rule, checked before any cell transmits
        if not 0 <= self.n_train_blocks <= self.n_blocks - 2:
            raise HarnessError("need 0 <= n_train_blocks <= n_blocks - 2")
        if self.nlms_taps < 1 or self.nlms_taps % 2 == 0:
            raise HarnessError("nlms_taps must be odd and positive")
        # the NLMS converges in the mean square only for a step in (0, 2)
        if not 0 < self.nlms_step < 2:
            raise HarnessError("nlms_step must be in (0, 2)")
        if not self.pll_bw_norm > 0:
            raise HarnessError("pll_bw_norm must be positive")
        # split-step steps are positive and no longer than a span
        steps = {"[fiber] step_m": self.fiber.step_m, "dbp_step_m": self.dbp_step_m}
        for name, step in steps.items():
            if not 0 < step <= 1e3 * self.fiber.span_km:
                raise HarnessError(f"{name} must be in (0, 1e3 * span_km]")
        for m in self.modes:
            if m not in MODES:
                raise HarnessError(f"unknown receiver mode {m!r}")


def _parse_value(text: str, tp):
    """Parse one config value as annotation ``tp``: a scalar, a bool in
    configparser's words, or ``tuple[T, ...]`` separated by spaces or commas."""
    if tp is bool:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    if get_origin(tp) is tuple:
        elem = get_args(tp)[0]
        return tuple(_parse_value(t, elem) for t in text.replace(",", " ").split())
    return tp(text)


def _parse_section(cp: configparser.ConfigParser, section: str, cls) -> dict:
    """Keyword arguments for dataclass ``cls`` from one section, whose keys
    are its field names."""
    hints = get_type_hints(cls)
    kwargs = {}
    for key, text in cp.items(section):
        if key not in hints or is_dataclass(hints[key]):
            raise HarnessError(f"[{section}] {key}: unknown key")
        try:
            kwargs[key] = _parse_value(text, hints[key])
        except (KeyError, ValueError) as exc:
            raise HarnessError(
                f"[{section}] {key}: cannot parse {text!r} as {hints[key]}"
            ) from exc
    return kwargs


def load_config(path: str | Path) -> CampaignConfig:
    """Parse a config file (INI syntax) or a bundled preset given by name.

    ``[campaign]`` sets fields of :class:`CampaignConfig`, and a section
    named after one of its dataclass fields (``[fiber]``, ``[turbo]``) sets
    fields of that nested dataclass. Keys are field names; fields left out
    keep their dataclass defaults.
    """
    path = Path(path)
    if not path.exists():
        preset = resources.files("turbowdm.presets") / path.name
        if not preset.is_file():
            raise HarnessError(f"config file {path} not found")
        path = preset
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(path.read_text())
    except configparser.Error as exc:
        raise HarnessError(f"{path}: {exc}") from exc
    if cp.defaults():
        raise HarnessError(f"[{cp.default_section}]: unknown section")

    schema = {"campaign": CampaignConfig} | {
        name: tp for name, tp in get_type_hints(CampaignConfig).items() if is_dataclass(tp)
    }
    parsed = {}
    for section in cp.sections():
        if section not in schema:
            raise HarnessError(f"[{section}]: unknown section")
        parsed[section] = _parse_section(cp, section, schema[section])
    kwargs = parsed.pop("campaign", {})
    kwargs.update({name: schema[name](**kw) for name, kw in parsed.items()})
    return CampaignConfig(**kwargs)


def cell_seed(base_seed: int, power_dbm: float, n_spans: int, mode: str, trial: int) -> int:
    """Stable per-cell seed so sweep cells are order-independent."""
    key = f"{base_seed}|{power_dbm:.6f}|{n_spans}|{mode}|{trial}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big") >> 1


@functools.cache
def _load_code(name: str) -> LdpcCode:
    """Load a code file or bundled code by name, once per process."""
    p = Path(name)
    if p.exists():
        return LdpcCode.from_file(p)
    return LdpcCode.bundled(name)


def run_trial(
    cfg: CampaignConfig,
    power_dbm: float,
    n_spans: int,
    mode: str,
    trial: int,
) -> list[MetricsRecord]:
    """Trial ``trial`` of the cell (power, spans, mode): transmit, propagate,
    receive, and run the turbo loop (single iteration-0 pass for edc/dbp
    modes), seeded by ``cell_seed``. Returns one record per turbo iteration,
    each labelled with the cell's key and seed."""
    if mode not in MODES:
        raise HarnessError(f"unknown receiver mode {mode!r}")
    seed = cell_seed(cfg.base_seed, power_dbm, n_spans, mode, trial)
    rng = np.random.default_rng(seed)
    c = build_constellation(cfg.modulation)
    code = _load_code(cfg.code_file)

    coi_index = (cfg.n_wdm_channels - 1) // 2
    order = frame_order(code.n, cfg.n_blocks, seed % (2**31))

    # transmit waveforms per channel; the channel of interest keeps its frame
    channels = []
    frame_coi = None
    for ch in range(cfg.n_wdm_channels):
        # codewords of polarization x, then y, each in block order
        words = np.stack(
            [code.encode(rng.integers(0, 2, code.k)) for _ in range(2 * cfg.n_blocks)]
        )
        frame = build_frame(
            words.reshape(2, cfg.n_blocks, -1), order, cfg.n_train_blocks, c,
            cfg.pilot_rate, seed=int(rng.integers(0, 2**31)), symbol_rate=cfg.baud,
        )
        if ch == coi_index:
            frame_coi = frame
        channels.append(rrc_shape(frame, cfg.tx_samples_per_symbol, cfg.rolloff, cfg.rrc_span))

    # set per-channel launch power and multiplex
    p_w = 1e-3 * 10.0 ** (power_dbm / 10.0)
    channels = [ch.scaled(np.sqrt(p_w / ch.power())) for ch in channels]
    wdm = wdm_mux(channels, cfg.grid_spacing_hz)

    rx = fib.propagate_link(wdm, cfg.fiber, n_spans, seed=int(rng.integers(0, 2**63 - 1)))

    # receiver front end: channel select, 2 samples/symbol, DBP or EDC, MF, align
    bw = cfg.baud * (1.0 + cfg.rolloff)
    guard = max(cfg.grid_spacing_hz - bw, 0.1 * cfg.baud)
    rx = select_channel(
        rx, 0.0, bw, out_sample_rate=2 * cfg.baud,
        transition_hz=min(0.15 * bw, guard),
    )
    if mode == "edc":
        rx = fib.edc(rx, cfg.fiber, n_spans)
    else:
        rx = fib.dbp(rx, cfg.fiber, n_spans, cfg.dbp_step_m)
    rx = coarse_align(matched_filter(rx, cfg.rolloff, cfg.rrc_span, cfg.baud), frame_coi)

    if cfg.bypass_sync_dsp:
        # idealized front end: one static complex gain per polarization, no NLMS/CPR
        symbols = fft_resample(rx, cfg.baud).fields
        pil = frame_coi.pilot_mask
        for p in range(2):
            ref = frame_coi.symbols[p, pil]
            g = np.vdot(ref, symbols[p, pil]) / np.vdot(ref, ref)
            symbols[p] /= g
    else:
        symbols = nlms_equalize(rx, frame_coi, cfg.nlms_taps, cfg.nlms_step)
        symbols, _ = ddpll(symbols, frame_coi, cfg.pll_bw_norm)
        if slips := count_slips(symbols, frame_coi):
            log.warning(
                "DDPLL: %d possible cycle slips at %+.1f dBm, %d spans, %s, seed %d",
                slips, power_dbm, n_spans, mode, seed,
            )

    n_iters = cfg.turbo.n_turbo_iters if mode == "dbp_turbo" else 0
    result = turbo_loop(
        symbols,
        frame_coi,
        replace(cfg.turbo, n_turbo_iters=n_iters),
        code,
        decoder_iters=cfg.decoder_iters,
    )
    return [
        MetricsRecord(
            **asdict(r), launch_power_dbm=power_dbm, n_spans=n_spans, mode=mode,
            seed=seed, trial=trial,
        )
        for r in result.records
    ]


def _run_cell(args) -> tuple[tuple, list[MetricsRecord] | None, str | None]:
    cfg, key = args[0], args[1:]
    try:
        return key, run_trial(cfg, *key), None
    except Exception as exc:  # cell failures must not kill the campaign
        log.exception("cell %s failed", key)
        return key, None, f"{type(exc).__name__}: {exc}"


def run_campaign(
    cfg: CampaignConfig, jobs: int = 1
) -> tuple[list[MetricsRecord], list[dict], list[tuple]]:
    """Execute every (power, spans, mode, trial) cell; aggregate per cell
    and per iteration. Returns (records, aggregate rows, failed cells)."""
    cells = [
        (cfg, power, spans, mode, trial)
        for power in cfg.power_dbm_list
        for spans in cfg.span_list
        for mode in cfg.modes
        for trial in range(cfg.n_trials)
    ]
    # a dbp_turbo cell runs n_turbo_iters + 1 receiver passes; starting
    # those first keeps the longest cells off the end of a pool's schedule
    cells.sort(key=lambda cell: cell[3] != "dbp_turbo")
    results: dict[tuple, list[MetricsRecord]] = {}
    failures: list[tuple] = []
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for key, recs, err in (pool.map if jobs > 1 else map)(_run_cell, cells):
            if recs is None:
                failures.append((key, err))
            else:
                results[key] = recs
    records = [r for key in sorted(results) for r in results[key]]
    summary = aggregate(records)
    return records, summary, failures


def aggregate(records: list[MetricsRecord]) -> list[dict]:
    """Mean BER/SNR/GMI per (power, spans, mode, iteration) across trials.

    A trial whose turbo loop stopped early counts with its final record at
    the later iterations of its (power, spans, mode) group, so every row of
    a group averages the same trials."""
    groups: dict[tuple, dict[int, list[MetricsRecord]]] = {}
    for r in records:
        trials = groups.setdefault((r.launch_power_dbm, r.n_spans, r.mode), {})
        trials.setdefault(r.trial, []).append(r)
    rows = []
    for (power, spans, mode), trials in sorted(groups.items()):
        runs = [sorted(t, key=lambda r: r.turbo_iteration) for t in trials.values()]
        for it in sorted({r.turbo_iteration for t in runs for r in t}):
            # each trial's latest record at or before this iteration
            rs = [[r for r in t if r.turbo_iteration <= it][-1]
                  for t in runs if t[0].turbo_iteration <= it]
            rows.append(
                {
                    "power_dbm": power,
                    "n_spans": spans,
                    "mode": mode,
                    "iteration": it,
                    "ber": float(np.mean([r.post_fec_ber for r in rs])),
                    "snr_db": float(np.mean([r.snr_db for r in rs])),
                    "gmi_bits_per_4d": float(
                        np.mean([r.gmi_bits_per_4d_symbol for r in rs])
                    ),
                    "n_trials": len(rs),
                }
            )
    return rows


def final_iteration_rows(rows: list[dict]) -> list[dict]:
    """Keep, per (power, spans, mode), only the last turbo iteration."""
    best: dict[tuple, dict] = {}
    for row in rows:
        key = (row["power_dbm"], row["n_spans"], row["mode"])
        if key not in best or row["iteration"] > best[key]["iteration"]:
            best[key] = row
    return [best[k] for k in sorted(best)]


def optimal_launch_power(rows: list[dict], mode: str, n_spans: int) -> dict:
    """Row with the highest SNR over the power axis for one mode."""
    cand = [
        r for r in final_iteration_rows(rows)
        if r["mode"] == mode and r["n_spans"] == n_spans
    ]
    if not cand:
        raise HarnessError(f"no results for mode {mode!r} at {n_spans} spans")
    return max(cand, key=lambda r: r["snr_db"])


def emit_tables(rows: list[dict], out_dir: str | Path) -> Path:
    """Plot-ready ``sweep.csv``: one row per (power, spans, mode, iteration),
    to be read as metric against power or against span count."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    fields = ["power_dbm", "n_spans", "mode", "iteration", "ber", "snr_db", "gmi_bits_per_4d"]
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields, extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)
    return path
