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
from dataclasses import asdict, dataclass, field, is_dataclass
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import fiber as fib
from .constellation import ConstellationError, build_constellation
from .fec import FecError, LdpcCode, code_header, frame_order
from .metrics import IterationMetrics, MetricsRecord
from .sync_dsp import count_slips, ddpll, nlms_equalize
from .turbo import turbo_loop
from .waveform import (
    DualPolSignal,
    SymbolFrame,
    WaveformError,
    build_frame,
    matched_filter,
    rrc_response,
    rrc_shape,
    select_channel,
    spectral_filter,
    wdm_mux,
)

log = logging.getLogger(__name__)

# The draw (the mode in ``cell_seed``'s key) each receiver mode is scored
# on. edc shares dbp's, so one propagation serves both; dbp_turbo keeps its
# own, so its records and the turbo gain over dbp stay those of two draws.
DRAW = {"edc": "dbp", "dbp": "dbp", "dbp_turbo": "dbp_turbo"}
MODES = tuple(DRAW)


class HarnessError(RuntimeError):
    pass


@dataclass(frozen=True)
class TurboConfig:
    """The dbp_turbo receiver's iteration budget: at most ``n_turbo_iters``
    equalize/decode iterations after iteration 0."""

    n_turbo_iters: int = 5


@dataclass
class CampaignConfig:
    modulation: int = 64
    n_wdm_channels: int = 3
    baud: float = 32e9
    grid_spacing_hz: float = 37.5e9
    pilot_rate: float = 0.05
    rolloff: float = 0.01
    tx_samples_per_symbol: int = 4
    fiber: fib.FiberParams = field(default_factory=fib.FiberParams)
    dbp_step_m: float = 10e3
    code_file: str = "rate45_n2048"
    n_blocks: int = 18
    n_train_blocks: int = 3
    turbo: TurboConfig = field(default_factory=TurboConfig)
    bypass_sync_dsp: bool = False
    power_dbm_list: tuple[float, ...] = (2.0,)
    span_list: tuple[int, ...] = (10,)
    modes: tuple[str, ...] = MODES
    n_trials: int = 1
    base_seed: int = 1234

    def __post_init__(self):
        # a nan or inf passes the range checks below and fails every cell late
        values = asdict(self)
        for section in _sections():
            values |= {f"[{section}] {k}": v for k, v in values.pop(section).items()}
        for key, value in values.items():
            if any(isinstance(v, float) and not np.isfinite(v) for v in np.atleast_1d(value)):
                raise HarnessError(f"{key} must be finite")
        for name in ("power_dbm_list", "span_list", "modes"):
            axis = getattr(self, name)  # a repeated value would run its cells twice
            if not axis or len(set(axis)) < len(axis):
                raise HarnessError(f"sweep axis {name} must be non-empty, with no value twice")
        if min(self.span_list) < 0:
            raise HarnessError("span counts must be >= 0")
        if self.n_trials < 1:
            raise HarnessError("n_trials must be >= 1")
        if self.turbo.n_turbo_iters < 0:
            raise HarnessError("[turbo] n_turbo_iters must be >= 0")
        # the receiver selects the band at 0 Hz, where only an odd grid has a channel
        if self.n_wdm_channels < 1 or self.n_wdm_channels % 2 == 0:
            raise HarnessError("n_wdm_channels must be odd")
        # the receiver needs pilots, and at most one per data symbol
        if not 0 < self.pilot_rate <= 0.5:
            raise HarnessError("pilot_rate must be in (0, 0.5]")
        # build_frame's rule, checked before any cell transmits: a block to decode
        if not 0 <= self.n_train_blocks <= self.n_blocks - 1:
            raise HarnessError("need 0 <= n_train_blocks <= n_blocks - 1")
        # split-step steps are positive and no longer than a span
        steps = {"[fiber] step_m": self.fiber.step_m, "dbp_step_m": self.dbp_step_m}
        for name, step in steps.items():
            if not 0 < step <= 1e3 * self.fiber.span_km:
                raise HarnessError(f"{name} must be in (0, 1e3 * span_km]")
        # each amplifier's gain is the span loss, and the ASE photon energy
        # is h c / wavelength: a cell with either out of range fails after
        # propagation
        if not self.fiber.alpha_db_per_km >= 0:
            raise HarnessError("[fiber] alpha_db_per_km must be >= 0")
        if not self.fiber.center_wavelength_nm > 0:
            raise HarnessError("[fiber] center_wavelength_nm must be positive")
        for m in self.modes:
            if m not in MODES:
                raise HarnessError(f"unknown receiver mode {m!r}")
        if not self.baud > 0:
            raise HarnessError("baud must be positive")
        # each rule checked by its owner; only a cell builds the code
        try:
            q = build_constellation(self.modulation).q
            rrc_response(1, self.tx_samples_per_symbol, self.rolloff)
        except (ConstellationError, WaveformError) as exc:
            raise HarnessError(str(exc)) from exc
        try:
            n, _ = code_header(_code_path(self.code_file))
        except (OSError, FecError) as exc:
            raise HarnessError(f"code file {self.code_file!r}: {exc}") from exc
        if self.n_blocks * n % q:  # a frame's coded bits fill whole symbols
            raise HarnessError(f"n_blocks * n = {self.n_blocks * n} is not a multiple of q = {q}")
        # the channels' grid offsets must stay below the sampling bandwidth
        fs = self.tx_samples_per_symbol * self.baud
        if (self.n_wdm_channels - 1) * self.grid_spacing_hz >= fs:
            raise HarnessError("aggregate WDM band exceeds the sampling bandwidth")


@functools.cache
def _sections() -> dict[str, type]:
    """The sections besides ``[campaign]``: CampaignConfig's dataclass fields."""
    return {name: tp for name, tp in get_type_hints(CampaignConfig).items() if is_dataclass(tp)}


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
    """Parse a config file (INI syntax), else the bundled preset of a bare name.

    ``[campaign]`` sets fields of :class:`CampaignConfig`, and a section
    named after one of its dataclass fields (``[fiber]``, ``[turbo]``) sets
    fields of that nested dataclass. Keys are field names; fields left out
    keep their dataclass defaults.
    """
    path = Path(path)
    if not path.exists():
        preset = resources.files("turbowdm.presets") / path.name
        if path.parent != Path() or not preset.is_file():
            raise HarnessError(f"config file {path} not found")
        path = preset
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise HarnessError(f"{path}: {exc}") from exc
    if cp.defaults():
        raise HarnessError(f"[{cp.default_section}]: unknown section")

    schema = {"campaign": CampaignConfig} | _sections()
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


def _code_path(name: str):
    """The parity file a ``code_file`` names: a path, else a bundled code."""
    path = Path(name) if Path(name).exists() else resources.files("turbowdm.codes") / f"{name}.txt"
    if not path.is_file():
        raise HarnessError(f"code file {name!r} not found")
    return path


@functools.cache
def _load_code(name: str) -> LdpcCode:
    """Load a code file or bundled code by name, once per process."""
    return LdpcCode.from_file(_code_path(name))


def transmit(
    cfg: CampaignConfig,
    power_dbm: float,
    rng: np.random.Generator,
    code: LdpcCode,
    order: np.ndarray,
) -> tuple[DualPolSignal, SymbolFrame]:
    """The WDM field at the fiber input and the frame of the channel of
    interest (the centre one, at 0 Hz). Each channel in turn is encoded,
    framed, shaped, set to ``power_dbm`` and added into the sum at its grid
    offset, then freed, so the sum and one channel are all the field memory
    held. Per channel ``rng`` draws the info bits, then the frame's pilot
    seed."""
    c = build_constellation(cfg.modulation)
    p_w = 1e-3 * 10.0 ** (power_dbm / 10.0)
    coi = (cfg.n_wdm_channels - 1) // 2
    for ch in range(cfg.n_wdm_channels):
        # codewords of polarization x, then y, each in block order
        words = np.stack(
            [code.encode(rng.integers(0, 2, code.k)) for _ in range(2 * cfg.n_blocks)]
        )
        frame = build_frame(
            words.reshape(2, cfg.n_blocks, -1), order, cfg.n_train_blocks, c,
            cfg.pilot_rate, seed=int(rng.integers(0, 2**31)), symbol_rate=cfg.baud,
        )
        sig = rrc_shape(frame, cfg.tx_samples_per_symbol, cfg.rolloff)
        sig.fields *= np.sqrt(p_w / sig.power())
        if ch == 0:
            wdm = DualPolSignal(np.zeros((2, len(sig)), dtype=complex), sig.sample_rate)
        wdm_mux(wdm, sig, (ch - coi) * cfg.grid_spacing_hz)
        if ch == coi:
            frame_coi = frame
        del sig
    return wdm, frame_coi


def channel(
    cfg: CampaignConfig, power_dbm: float, n_spans: int, seed: int
) -> tuple[DualPolSignal, SymbolFrame]:
    """The draw ``seed`` at the receiver's input: the channel of interest,
    selected at 2 sps after ``n_spans`` spans, and its frame."""
    rng = np.random.default_rng(seed)
    code = _load_code(cfg.code_file)
    order = frame_order(code.n, cfg.n_blocks, seed % (2**31))
    wdm, frame = transmit(cfg, power_dbm, rng, code, order)
    rx = fib.propagate_link(wdm, cfg.fiber, n_spans, seed=int(rng.integers(0, 2**63 - 1)))
    # receiver front end, circular on one FFT grid: select at 2 sps, DBP or EDC, MF
    bw = cfg.baud * (1.0 + cfg.rolloff)
    guard = max(cfg.grid_spacing_hz - bw, 0.1 * cfg.baud)
    return select_channel(rx, bw, 2 * cfg.baud, min(0.15 * bw, guard)), frame


def receive(
    cfg: CampaignConfig, selected: DualPolSignal, frame: SymbolFrame, n_spans: int,
    mode: str, cell: str = "unnamed channel",
) -> list[IterationMetrics]:
    """Receiver ``mode`` on ``channel``'s output, left as it was: EDC or DBP, the
    matched filter, the front end and the turbo loop; ``cell`` names it in slip warnings."""
    if mode == "edc":
        mf = fib.edc(selected, cfg.fiber, n_spans)
    else:
        mf = fib.dbp(selected, cfg.fiber, n_spans, cfg.dbp_step_m)
    mf = matched_filter(mf, cfg.rolloff, cfg.baud)

    if cfg.bypass_sync_dsp:
        # idealized front end: the matched-filter output cropped to 1 sps
        # (flat 0.5), then one static complex gain per polarization
        symbols = spectral_filter(mf.fields, np.full(len(mf) // 2, 0.5))
        pil = frame.pilot_mask
        for p in range(2):
            ref = frame.symbols[p, pil]
            g = np.vdot(ref, symbols[p, pil]) / np.vdot(ref, ref)
            symbols[p] /= g
    else:
        symbols = nlms_equalize(mf, frame)
        symbols, _ = ddpll(symbols, frame)
        if slips := count_slips(symbols, frame):
            log.warning("DDPLL: %d possible cycle slips, %s, %s", slips, mode, cell)

    n_iters = cfg.turbo.n_turbo_iters if mode == "dbp_turbo" else 0
    return turbo_loop(symbols, frame, n_iters, _load_code(cfg.code_file))


def run_trial(
    cfg: CampaignConfig,
    power_dbm: float,
    n_spans: int,
    modes: tuple[str, ...],
    trial: int,
) -> list[MetricsRecord]:
    """Trial ``trial`` of the cells (power, spans, mode) of ``modes``, which
    share one draw (``DRAW``): each mode's ``receive``, in order, on one
    ``channel`` under the draw's ``cell_seed``, labelled with cell key and seed."""
    for mode in modes:
        if mode not in DRAW:
            raise HarnessError(f"unknown receiver mode {mode!r}")
    draws = {DRAW[mode] for mode in modes}
    if len(draws) != 1 or len(set(modes)) < len(modes):
        raise HarnessError(f"modes {modes!r} do not share one draw")
    seed = cell_seed(cfg.base_seed, power_dbm, n_spans, draws.pop(), trial)
    selected, frame = channel(cfg, power_dbm, n_spans, seed)
    cell = f"{power_dbm:+.1f} dBm, {n_spans} spans, seed {seed}"
    return [
        MetricsRecord(
            **asdict(r), launch_power_dbm=power_dbm, n_spans=n_spans, mode=mode,
            seed=seed, trial=trial,
        )
        for mode in modes
        for r in receive(cfg, selected, frame, n_spans, mode, cell)
    ]


def _run_task(args) -> tuple[tuple, list[MetricsRecord] | None, str | None]:
    cfg, key = args[0], args[1:]
    try:
        return key, run_trial(cfg, *key), None
    except Exception as exc:  # a failed task must not kill the campaign
        log.exception("task %s failed", key)
        return key, None, f"{type(exc).__name__}: {exc}"


def run_campaign(
    cfg: CampaignConfig, jobs: int = 1
) -> tuple[list[MetricsRecord], list[dict], list[tuple]]:
    """Execute every (power, spans, mode, trial) cell; aggregate per cell
    and per iteration on ``jobs`` processes (1: in this process). One task
    runs the modes of ``cfg.modes`` that share a draw (``DRAW``). Returns
    (records, aggregate rows, failed cells)."""
    if jobs < 1:
        raise HarnessError("jobs must be >= 1")
    groups: dict[str, tuple[str, ...]] = {}
    for mode in cfg.modes:
        groups[DRAW[mode]] = groups.get(DRAW[mode], ()) + (mode,)
    tasks = [
        (cfg, power, spans, modes, trial)
        for power in cfg.power_dbm_list
        for spans in cfg.span_list
        for modes in groups.values()
        for trial in range(cfg.n_trials)
    ]
    # a dbp_turbo task runs n_turbo_iters + 1 receiver passes; starting
    # those first keeps the longest tasks off the end of a pool's schedule
    tasks.sort(key=lambda task: "dbp_turbo" not in task[3])
    records: list[MetricsRecord] = []
    failures: list[tuple] = []
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for (power, spans, modes, trial), recs, err in (
            pool.map if jobs > 1 else map
        )(_run_task, tasks):
            if recs is None:
                failures += [((power, spans, mode, trial), err) for mode in modes]
            else:
                records += recs
    # in cell order; a cell's records stay in iteration order
    records.sort(key=lambda r: (r.launch_power_dbm, r.n_spans, r.mode, r.trial))
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
