import dataclasses
import logging
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from importlib import resources

import numpy as np
import pytest

import turbowdm
from turbowdm import constellation, fec, fiber, harness, turbo
from turbowdm.cli import main as cli_main
from turbowdm.constellation import build_constellation
from turbowdm.fiber import FiberParams
from turbowdm.harness import (
    DRAW,
    MODES,
    CampaignConfig,
    HarnessError,
    _load_code,
    aggregate,
    cell_seed,
    channel,
    emit_tables,
    final_iteration_rows,
    load_config,
    optimal_launch_power,
    receive,
    run_campaign,
    run_trial,
)
from turbowdm.metrics import (
    IterationMetrics,
    MetricsRecord,
    read_records_ndjson,
    write_records_ndjson,
)
from turbowdm.sync_dsp import SyncError, nlms_equalize
from turbowdm.turbo import TurboError
from turbowdm.waveform import DualPolSignal, build_frame, rrc_shape

from conftest import fft_spy

TINY_CFG = """
[campaign]
modulation = 4
n_wdm_channels = 1
baud = 32e9
rolloff = 0.1
tx_samples_per_symbol = 4
dbp_step_m = 25000
code_file = rate45_n2048
n_blocks = 6
power_dbm_list = 2
span_list = 2
modes = dbp_turbo
n_trials = 1
base_seed = 7

[fiber]
span_km = 50
n_spans = 2
step_m = 5000

[turbo]
n_turbo_iters = 1
"""


@pytest.fixture(scope="module")
def tiny_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    p.write_text(TINY_CFG)
    return load_config(p)


def record(power=2.0, spans=10, mode="edc", it=0, snr=20.0, trial=0, ber=0.0):
    return MetricsRecord(
        launch_power_dbm=power, n_spans=spans, mode=mode, turbo_iteration=it,
        seed=1, post_fec_ber=ber, snr_db=snr,
        gmi_bits_per_4d_symbol=11.0, n_bits_counted=100, trial=trial,
    )


def unlabelled(records):
    """``records`` without their cell labels, as ``receive`` returns them."""
    names = [f.name for f in dataclasses.fields(IterationMetrics)]
    return [IterationMetrics(**{name: getattr(r, name) for name in names}) for r in records]


class TestConfig:
    def test_tiny_round_trip(self, tiny_cfg):
        assert tiny_cfg.modulation == 4
        assert tiny_cfg.n_wdm_channels == 1
        assert tiny_cfg.fiber.step_m == 5000.0
        assert tiny_cfg.dbp_step_m == 25000.0
        assert tiny_cfg.n_blocks == 6
        assert tiny_cfg.turbo.n_turbo_iters == 1
        assert tiny_cfg.modes == ("dbp_turbo",)
        assert tiny_cfg.base_seed == 7

    def test_bundled_presets_load(self):
        desk = load_config("desk.cfg")
        assert desk.modulation == 64
        assert desk.n_wdm_channels == 3
        assert set(desk.modes) == {"edc", "dbp", "dbp_turbo"}
        # values the desk preset sets away from the defaults
        assert desk.rolloff == 0.1
        assert desk.fiber.nf_db == 12.0
        assert desk.fiber.step_m == 1000.0
        assert desk.power_dbm_list == (-4.0, -2.0, 0.0, 2.0, 4.0)
        assert desk.n_trials == 2
        assert desk.base_seed == 7
        paper = load_config("paper.cfg")
        assert paper.modulation == 256
        assert paper.n_wdm_channels == 11
        assert paper.tx_samples_per_symbol == 16
        assert paper.fiber.step_m == 100.0
        assert paper.fiber.n_spans == 24
        assert paper.span_list == (24,)
        assert paper.power_dbm_list == (-6.0, -5.0, -4.0, -3.0, -2.0, -1.0, 0.0)
        assert paper.code_file == "rate45_n20480"
        assert paper.turbo.n_turbo_iters == 10
        assert paper.n_trials == 5

    def test_every_field_round_trips(self, tmp_path):
        def default(f):
            if f.default_factory is not dataclasses.MISSING:
                return f.default_factory()
            return f.default

        def other(name, value):
            """A value unlike the default that the config still accepts."""
            if name == "modes":
                return value[::-1]
            if name == "n_wdm_channels":
                return value + 2  # odd: a centre channel
            if name == "modulation":
                return value // 4  # a square QAM order whose 4 bits divide 19 * 20
            if name == "code_file":
                return "toy_n20"  # a bundled code
            if isinstance(value, tuple):  # longer, without a repeated value
                return tuple(other(name, v) for v in value) + value
            if isinstance(value, bool):
                return not value
            if isinstance(value, int):
                return value + 1
            if isinstance(value, float):
                return value / 2
            return value + "_x"

        def changed(f):
            value = other(f.name, default(f))
            assert value != default(f), f.name
            return value

        def text(value):
            if isinstance(value, tuple):
                return ", ".join(map(str, value))
            return str(value)

        lines, nested, flat = ["[campaign]"], {}, {}
        for f in dataclasses.fields(CampaignConfig):
            if dataclasses.is_dataclass(default(f)):
                nested[f.name] = type(default(f))
            else:
                flat[f.name] = changed(f)
                lines.append(f"{f.name} = {text(flat[f.name])}")
        for section, cls in nested.items():
            values = {f.name: changed(f) for f in dataclasses.fields(cls)}
            lines.append(f"[{section}]")
            lines += [f"{k} = {text(v)}" for k, v in values.items()]
            flat[section] = cls(**values)
        p = tmp_path / "all.cfg"
        p.write_text("\n".join(lines) + "\n")
        assert load_config(p) == CampaignConfig(**flat)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[signal]\nmodulation = 4\n", "[signal]"),
            ("[DEFAULT]\nmodulation = 4\n", "[DEFAULT]"),
            ("[turbo]\nforgeting = 0.9\n", "[turbo] forgeting"),
            # receiver constants owned by the function that reads them:
            # fec.MAX_ITER and rls_estimate's delta
            ("[campaign]\ndecoder_iters = 50\n", "[campaign] decoder_iters: unknown key"),
            ("[turbo]\nrls_delta = 0.01\n", "[turbo] rls_delta: unknown key"),
            # the equalizer window follows from the tap track's memory, and
            # the memory and forgetting factor are rls_estimate's defaults
            ("[turbo]\nn1 = 1\n", "[turbo] n1: unknown key"),
            ("[turbo]\nn2 = 1\n", "[turbo] n2: unknown key"),
            ("[turbo]\nchannel_memory = 2\n", "[turbo] channel_memory: unknown key"),
            ("[turbo]\nforgetting = 0.99\n", "[turbo] forgetting: unknown key"),
            ("[campaign]\nfiber = 1\n", "[campaign] fiber"),
        ],
    )
    def test_unknown_section_or_key_rejected(self, tmp_path, text, named):
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(HarnessError, match=named.replace("[", r"\[")):
            load_config(p)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[campaign]\nn_blocks = many\n", "[campaign] n_blocks"),
            ("[campaign]\nbypass_sync_dsp = maybe\n", "[campaign] bypass_sync_dsp"),
            ("[campaign]\npower_dbm_list = 0, two\n", "[campaign] power_dbm_list"),
            ("[fiber]\nn_spans = 2.5\n", "[fiber] n_spans"),
        ],
    )
    def test_unparsable_value_rejected(self, tmp_path, text, named):
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(HarnessError, match=named.replace("[", r"\[")):
            load_config(p)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[turbo]\nn_turbo_iters = -1\n", "n_turbo_iters"),
        ],
    )
    def test_out_of_range_turbo_value_rejected(self, tmp_path, text, named):
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(TurboError, match=named):
            load_config(p)

    def test_missing_config(self):
        with pytest.raises(HarnessError):
            load_config("no_such_file.cfg")

    def test_missing_path_is_not_a_preset(self, tmp_path):
        # only a bare name stands for a bundled preset: a mistyped path must
        # not start the preset's campaign
        with pytest.raises(HarnessError, match="not found"):
            load_config(tmp_path / "no_such_dir" / "paper.cfg")
        bundled = resources.files("turbowdm.presets") / "desk.cfg"
        assert load_config("desk.cfg") == load_config(bundled)

    def test_invalid_mode_rejected(self):
        with pytest.raises(HarnessError):
            CampaignConfig(modes=("warp",))

    def test_empty_sweep_rejected(self):
        with pytest.raises(HarnessError):
            CampaignConfig(power_dbm_list=())

    @pytest.mark.parametrize(
        "axis, values",
        [
            ("power_dbm_list", (0.0, 2.0, 0.0)),
            ("span_list", (10, 10)),
            ("modes", ("dbp", "edc", "dbp")),
        ],
    )
    def test_repeated_sweep_value_rejected(self, tmp_path, axis, values):
        # a repeated value would run its cells twice, and run_campaign keeps
        # one copy of each cell
        with pytest.raises(HarnessError, match=f"sweep axis {axis} .* no value twice"):
            CampaignConfig(**{axis: values})
        p = tmp_path / "rep.cfg"
        p.write_text(f"[campaign]\n{axis} = {' '.join(map(str, values))}\n")
        with pytest.raises(HarnessError, match=axis):
            load_config(p)

    def test_negative_span_count_rejected(self, tmp_path, capsys):
        # a negative count would run forward dispersion under edc and skip
        # backpropagation under dbp; no span at all is a back-to-back link
        with pytest.raises(HarnessError, match="span"):
            CampaignConfig(span_list=(10, -1))
        CampaignConfig(span_list=(0,))
        cfgp = tmp_path / "tiny.cfg"
        cfgp.write_text(TINY_CFG)
        rc = cli_main(["run", "--config", str(cfgp), "--out", str(tmp_path), "--spans", "-1"])
        assert rc == 2
        assert "span" in capsys.readouterr().err

    def test_empty_modes_rejected(self, tmp_path):
        # an empty mode list would run no cell and still exit cleanly
        p = tmp_path / "bad.cfg"
        p.write_text("[campaign]\nmodes =\n")
        with pytest.raises(HarnessError, match="non-empty"):
            load_config(p)

    def test_negative_training_blocks_rejected(self):
        # a negative count would make the metrics compare no bit at all
        with pytest.raises(HarnessError, match="n_train_blocks"):
            CampaignConfig(n_train_blocks=-1)
        CampaignConfig(n_train_blocks=0)

    @pytest.mark.parametrize("taps", [-1, 0, 12])
    def test_unusable_nlms_tap_count_rejected(self, tmp_path, taps):
        # the tap count is nlms_equalize's own 13: a config that asks for
        # one fails, and the equalizer rejects an unusable one itself
        p = tmp_path / "bad.cfg"
        p.write_text(f"[campaign]\nnlms_taps = {taps}\n")
        with pytest.raises(HarnessError, match="nlms_taps: unknown key"):
            load_config(p)
        c = build_constellation(4)
        frame = build_frame(np.zeros((2, 3, 20), np.uint8), np.arange(60), 0, c, 0.05, 0, 32e9)
        signal = rrc_shape(frame, 2, 0.1)
        with pytest.raises(SyncError, match="n_taps"):
            nlms_equalize(signal, frame, n_taps=taps)

    @pytest.mark.parametrize("step", [-0.05, 0.0, 2.0, 8.0])
    def test_unstable_nlms_step_rejected(self, tmp_path, step):
        # outside (0, 2) the NLMS does not converge in the mean square; a
        # step of 8 failed every cell after propagation. The step is
        # nlms_equalize's own 0.05, and a config that asks for one fails
        p = tmp_path / "bad.cfg"
        p.write_text(f"[campaign]\nnlms_step = {step}\n")
        with pytest.raises(HarnessError, match="nlms_step: unknown key"):
            load_config(p)

    @pytest.mark.parametrize("bw", [-1.0, 0.0])
    def test_non_positive_pll_bandwidth_rejected(self, tmp_path, bw):
        # the loop bandwidth is ddpll's own 1e-3, and a config that asks
        # for one fails
        p = tmp_path / "bad.cfg"
        p.write_text(f"[campaign]\npll_bw_norm = {bw}\n")
        with pytest.raises(HarnessError, match="pll_bw_norm: unknown key"):
            load_config(p)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[fiber]\nstep_m = 0\n", "step_m"),
            ("[fiber]\nspan_km = 50\nstep_m = 50001\n", "step_m"),
            ("[campaign]\ndbp_step_m = -1\n", "dbp_step_m"),
            ("[campaign]\ndbp_step_m = 1e6\n", "dbp_step_m"),
        ],
    )
    def test_split_step_beyond_span_rejected(self, tmp_path, text, named):
        # caught when the config loads, not by a FiberError in every cell
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(HarnessError, match=named):
            load_config(p)
        # one step per span is the longest allowed
        CampaignConfig(fiber=FiberParams(span_km=50.0, step_m=50e3), dbp_step_m=50e3)

    @pytest.mark.parametrize("n_ch", [0, 2, 4])
    def test_even_channel_count_rejected(self, n_ch):
        # the receiver selects the band at 0 Hz, the centre of the grid,
        # which only an odd channel count puts a channel on
        with pytest.raises(HarnessError, match="n_wdm_channels"):
            CampaignConfig(n_wdm_channels=n_ch)
        # 8 samples/symbol: five channels 37.5 GHz apart fit in 256 GS/s
        CampaignConfig(n_wdm_channels=n_ch + 1, tx_samples_per_symbol=8)

    @pytest.mark.parametrize(
        "n_ch, sps, spacing, fits",
        [(5, 2, 37.5e9, False), (5, 4, 32e9, False), (5, 5, 37.5e9, True), (3, 4, 37.5e9, True)],
    )
    def test_wdm_band_checked_at_load(self, n_ch, sps, spacing, fits):
        # the grid must fit the sampling bandwidth, checked when the config
        # loads: the first case once loaded and then failed every cell; the
        # second sits on the limit, where the outer channels alias onto each
        # other
        desk = load_config("desk.cfg")
        grid = dict(n_wdm_channels=n_ch, tx_samples_per_symbol=sps, grid_spacing_hz=spacing)
        if fits:
            dataclasses.replace(desk, **grid)
        else:
            with pytest.raises(HarnessError, match="aggregate WDM band"):
                dataclasses.replace(desk, **grid)

    @pytest.mark.parametrize("rate", [0.0, -0.05, 0.51, 1.0])
    def test_unusable_pilot_rate_rejected(self, rate):
        # no pilots leave no noise estimate; above 1/2, pilots outnumber data
        with pytest.raises(HarnessError, match="pilot_rate"):
            CampaignConfig(pilot_rate=rate)

    def test_pilot_rate_limits_accepted(self):
        CampaignConfig(pilot_rate=0.5)
        CampaignConfig(pilot_rate=1e-3)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[campaign]\nmodulation = 8\n", "unsupported QAM order 8"),
            ("[campaign]\nrolloff = 0\n", "rolloff"),
            ("[campaign]\nrolloff = 1.5\n", "rolloff"),
            ("[campaign]\ntx_samples_per_symbol = 1\n", "samples/symbol"),
            ("[campaign]\nbaud = -1\n", "baud"),
            ("[campaign]\nbaud = 0\n", "baud"),
            ("[campaign]\ncode_file = no_such_code\n", "no_such_code"),
            # 4 blocks of n = 2048 bits fill no whole number of 64-QAM symbols
            ("[campaign]\nn_blocks = 4\n", "n_blocks"),
            ("[campaign]\ndecoder_iters = -1\n", "decoder_iters"),
            ("[campaign]\ndecoder_iters = 0\n", "decoder_iters"),
            ("[fiber]\nalpha_db_per_km = -0.2\n", "alpha_db_per_km must be >= 0"),
            ("[fiber]\ncenter_wavelength_nm = 0\n", "center_wavelength_nm must be positive"),
            ("[fiber]\ncenter_wavelength_nm = -1550\n", "center_wavelength_nm must be positive"),
        ],
    )
    def test_value_no_cell_can_run_rejected(self, tmp_path, text, named):
        # each of these failed every cell after propagation, or, for the
        # decoder iterations, ran without decoding; the iteration cap is
        # fec.MAX_ITER, which no config sets
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(HarnessError, match=named):
            load_config(p)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[campaign]\npower_dbm_list = nan\n", "power_dbm_list"),
            ("[campaign]\npower_dbm_list = 0 inf\n", "power_dbm_list"),
            ("[campaign]\nbaud = inf\n", "baud"),
            ("[campaign]\ngrid_spacing_hz = nan\n", "grid_spacing_hz"),
            ("[fiber]\ngamma_per_w_km = nan\n", "[fiber] gamma_per_w_km"),
            ("[fiber]\ndispersion_ps_nm_km = inf\n", "[fiber] dispersion_ps_nm_km"),
            ("[fiber]\nnf_db = -inf\n", "[fiber] nf_db"),
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, text, named):
        # a nan or inf passed the range checks, and each cell transmitted
        # and propagated before a FiberError on its non-finite field
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(HarnessError, match=re.escape(f"{named} must be finite")):
            load_config(p)

    @pytest.mark.parametrize(
        "key, value",
        [("baud", float("inf")), ("grid_spacing_hz", float("nan")), ("power_dbm_list", (0.0, -np.inf))],
    )
    def test_non_finite_replacement_rejected(self, key, value):
        with pytest.raises(HarnessError, match=f"{key} must be finite"):
            dataclasses.replace(load_config("desk.cfg"), **{key: value})

    def test_code_name_resolved_not_built(self, tmp_path, monkeypatch):
        # set-up stays cheap: the check finds the file, only a cell builds the code
        monkeypatch.setattr(fec.LdpcCode, "from_file", lambda *a: pytest.fail("built"))
        CampaignConfig(code_file="rate45_n20480")
        own = tmp_path / "own_code.txt"
        own.write_text("4 1\n0 1 2 3\n")
        CampaignConfig(code_file=str(own))
        with pytest.raises(HarnessError, match="not found"):
            CampaignConfig(code_file=str(tmp_path / "missing.txt"))

    def test_too_few_blocks_rejected(self):
        # the receiver needs one block after the training blocks to decode
        with pytest.raises(HarnessError, match="n_train_blocks"):
            CampaignConfig(n_blocks=3, n_train_blocks=3)
        CampaignConfig(n_blocks=6, n_train_blocks=3)

    @pytest.mark.parametrize("text", ["", "4\n0 1 2 3\n", "4 1 1\n0 1 2 3\n", "n m\n"])
    def test_malformed_code_header_rejected(self, tmp_path, text):
        # the load reads the code length off the header line "n m"
        code = tmp_path / "code.txt"
        code.write_text(text)
        with pytest.raises(HarnessError, match="header"):
            CampaignConfig(code_file=str(code))


def test_load_code_cached_per_process():
    assert _load_code("toy_n20") is _load_code("toy_n20")


def test_readme_library_use_runs():
    # README's "Library use" block, run as written
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as f:
        text = f.read()
    block = text.split("Library use:", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    records = namespace["records"]
    assert records and all(r.mode == "dbp_turbo" and r.trial == 0 for r in records)
    assert namespace["metrics"] == unlabelled(records)


class TestCellSeed:
    def test_deterministic_and_distinct(self):
        a = cell_seed(1, 2.0, 10, "edc", 0)
        assert a == cell_seed(1, 2.0, 10, "edc", 0)
        others = {
            cell_seed(1, 2.0, 10, "edc", 1),
            cell_seed(1, 2.0, 10, "dbp", 0),
            cell_seed(1, 2.0, 12, "edc", 0),
            cell_seed(1, 4.0, 10, "edc", 0),
            cell_seed(2, 2.0, 10, "edc", 0),
        }
        assert a not in others and len(others) == 5

    def test_nonnegative_63_bit(self):
        s = cell_seed(123, -3.5, 24, "dbp_turbo", 4)
        assert 0 <= s < 2**63


def list_transmitter(cfg, power_dbm, rng, code, order):
    """The transmitter as first written: every channel shaped and kept in a
    list, a scaled copy of the list, then one multiplex. Oracle for
    ``transmit``."""
    c = build_constellation(cfg.modulation)
    channels = []
    for ch in range(cfg.n_wdm_channels):
        words = np.stack(
            [code.encode(rng.integers(0, 2, code.k)) for _ in range(2 * cfg.n_blocks)]
        )
        frame = build_frame(
            words.reshape(2, cfg.n_blocks, -1), order, cfg.n_train_blocks, c,
            cfg.pilot_rate, seed=int(rng.integers(0, 2**31)), symbol_rate=cfg.baud,
        )
        if ch == (cfg.n_wdm_channels - 1) // 2:
            frame_coi = frame
        channels.append(rrc_shape(frame, cfg.tx_samples_per_symbol, cfg.rolloff))
    p_w = 1e-3 * 10.0 ** (power_dbm / 10.0)
    channels = [
        dataclasses.replace(ch, fields=ch.fields * np.sqrt(p_w / ch.power())) for ch in channels
    ]
    # the multiplex as first written: one time vector, the centre channel at 0 Hz
    fs, n = channels[0].sample_rate, len(channels[0])
    center = (len(channels) - 1) / 2.0
    t = np.arange(n) / fs
    out = np.zeros((2, n), dtype=complex)
    for i, ch in enumerate(channels):
        shift = np.exp(2j * np.pi * ((i - center) * cfg.grid_spacing_hz) * t)
        for p in range(2):
            out[p] += ch.fields[p] * shift
    return DualPolSignal(fields=out, sample_rate=fs), frame_coi


class TestTransmit:
    @pytest.fixture(scope="class")
    def small(self):
        # QPSK, four n=2048 blocks at 8 samples/symbol: 34,496 samples, and
        # seven channels 37.5 GHz apart fit in 256 GS/s
        cfg = dataclasses.replace(
            load_config("desk.cfg"), modulation=4, n_blocks=4, n_train_blocks=1,
            tx_samples_per_symbol=8,
        )
        code = _load_code(cfg.code_file)
        return cfg, code, fec.frame_order(code.n, cfg.n_blocks, 0)

    @pytest.mark.parametrize("n_ch", [1, 3, 7])
    def test_matches_list_transmitter(self, small, n_ch):
        # same field bits, same frame and the same draws left in the generator
        cfg, code, order = small
        cfg = dataclasses.replace(cfg, n_wdm_channels=n_ch)
        rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
        wdm, frame = harness.transmit(cfg, 1.0, rng, code, order)
        wdm_ref, frame_ref = list_transmitter(cfg, 1.0, rng_ref, code, order)
        assert np.array_equal(wdm.fields, wdm_ref.fields)
        assert wdm.sample_rate == wdm_ref.sample_rate
        assert np.array_equal(frame.symbols, frame_ref.symbols)
        assert np.array_equal(frame.coded_bits, frame_ref.coded_bits)
        assert rng.integers(0, 2**63 - 1) == rng_ref.integers(0, 2**63 - 1)

    def test_peak_memory_independent_of_channel_count(self, small):
        # the sum and one channel are all the transmitter holds: seven
        # channels peak within one field of one channel (numpy reports its
        # buffers to tracemalloc)
        cfg, code, order = small
        peaks = {}
        for n_ch in (1, 7):
            tracemalloc.start()
            try:
                wdm, _ = harness.transmit(
                    dataclasses.replace(cfg, n_wdm_channels=n_ch), 0.0,
                    np.random.default_rng(0), code, order,
                )
                peaks[n_ch] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        field = 2 * len(wdm) * 16
        assert peaks[7] - peaks[1] <= field


class TestRunTrial:
    def test_deterministic(self, tiny_cfg):
        a = run_trial(tiny_cfg, 2.0, 2, ("dbp_turbo",), 0)
        b = run_trial(tiny_cfg, 2.0, 2, ("dbp_turbo",), 0)
        assert a == b

    def test_record_context(self, tiny_cfg):
        recs = run_trial(tiny_cfg, 2.0, 2, ("dbp",), 0)
        assert len(recs) == 1  # non-turbo modes stop at iteration 0
        assert recs[0].mode == "dbp"
        assert recs[0].launch_power_dbm == 2.0
        assert recs[0].n_spans == 2
        assert recs[0].n_bits_counted > 0

    def test_records_carry_the_trial(self, tiny_cfg):
        # run_trial derives the cell's seed from the trial index and labels
        # its records with both, as the campaign does
        cfg = dataclasses.replace(tiny_cfg, modes=("dbp",), n_trials=2)
        recs = run_trial(cfg, 2.0, 2, ("dbp",), 1)
        assert {(r.trial, r.seed) for r in recs} == {(1, cell_seed(cfg.base_seed, 2.0, 2, "dbp", 1))}
        campaign, _, failures = run_campaign(cfg)
        assert not failures
        assert recs == [r for r in campaign if r.trial == 1]

    def test_one_block_after_training_is_decoded_and_counted(self, tiny_cfg):
        # the last block is the only decoded one, and every metric counts it
        cfg = dataclasses.replace(tiny_cfg, n_blocks=2, n_train_blocks=1)
        recs = run_trial(cfg, 2.0, 2, ("dbp_turbo",), 0)
        assert len(recs) >= 2
        assert {r.n_bits_counted for r in recs} == {2 * _load_code(cfg.code_file).k}
        with pytest.raises(HarnessError, match="n_train_blocks"):
            dataclasses.replace(tiny_cfg, n_blocks=2, n_train_blocks=2)

    def test_unknown_mode(self, tiny_cfg):
        with pytest.raises(HarnessError):
            run_trial(tiny_cfg, 2.0, 2, ("warp",), 1)

    def test_one_frame_order_per_trial(self, tiny_cfg, monkeypatch):
        # the transmitter draws the interleaver order once; the receiver
        # reads it from the frame instead of drawing it again
        calls = []

        def counting_order(*args):
            calls.append(args)
            return fec.frame_order(*args)

        for mod in (harness, turbo):
            if hasattr(mod, "frame_order"):
                monkeypatch.setattr(mod, "frame_order", counting_order)
        cfg = dataclasses.replace(tiny_cfg, n_wdm_channels=3)
        run_trial(cfg, 2.0, 2, ("dbp_turbo",), 5)
        assert len(calls) == 1


class TestSharedDraw:
    """edc is scored on dbp's draw: one transmit and one propagation serve
    both receivers, and the records do not depend on how modes are grouped."""

    def test_one_propagation_for_edc_and_dbp(self, tiny_cfg, monkeypatch):
        calls = []
        propagate = fiber.propagate_link
        monkeypatch.setattr(
            fiber, "propagate_link", lambda *a, **kw: calls.append(a) or propagate(*a, **kw)
        )
        recs = run_trial(tiny_cfg, 2.0, 2, ("edc", "dbp"), 0)
        assert len(calls) == 1
        assert [r.mode for r in recs] == ["edc", "dbp"]
        assert {r.seed for r in recs} == {cell_seed(tiny_cfg.base_seed, 2.0, 2, "dbp", 0)}

    def test_records_do_not_depend_on_grouping(self, tiny_cfg):
        both = run_trial(tiny_cfg, 2.0, 2, ("edc", "dbp"), 0)
        for mode in ("edc", "dbp"):
            assert [r for r in both if r.mode == mode] == run_trial(tiny_cfg, 2.0, 2, (mode,), 0)

    @pytest.mark.parametrize(
        "modes", [("dbp", "dbp_turbo"), ("edc", "dbp_turbo"), ("dbp", "dbp"), ()]
    )
    def test_modes_not_on_one_draw_rejected(self, tiny_cfg, modes, monkeypatch):
        # rejected before anything is transmitted
        monkeypatch.setattr(harness, "transmit", None)
        with pytest.raises(HarnessError, match="do not share one draw"):
            run_trial(tiny_cfg, 2.0, 2, modes, 0)


class TestChannelReceive:
    """A cell split at the receiver's input: ``channel`` builds the selected
    channel and its frame once, and ``receive`` runs one mode on them."""

    @pytest.fixture(scope="class")
    def dbp_draw(self, tiny_cfg):
        return channel(tiny_cfg, 2.0, 2, cell_seed(tiny_cfg.base_seed, 2.0, 2, "dbp", 0))

    @pytest.mark.parametrize("bypass", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_receive_leaves_channel_and_frame_as_they_were(self, tiny_cfg, dbp_draw, mode, bypass):
        # every mode of a draw reads the channel that channel() returned
        cfg = dataclasses.replace(tiny_cfg, bypass_sync_dsp=bypass)
        selected, frame = dbp_draw
        before = pickle.dumps((selected, frame))
        receive(cfg, selected, frame, 2, mode)
        assert pickle.dumps((selected, frame)) == before

    def test_two_receives_on_one_channel_agree(self, tiny_cfg, dbp_draw):
        first = receive(tiny_cfg, *dbp_draw, 2, "dbp_turbo")
        assert len(first) >= 2
        assert receive(tiny_cfg, *dbp_draw, 2, "dbp_turbo") == first

    @pytest.mark.parametrize("modes", [("edc", "dbp"), ("dbp_turbo",)])
    def test_run_trial_is_channel_then_receive_per_mode(self, tiny_cfg, modes):
        seed = cell_seed(tiny_cfg.base_seed, 2.0, 2, DRAW[modes[0]], 0)
        selected, frame = channel(tiny_cfg, 2.0, 2, seed)
        per_mode = [receive(tiny_cfg, selected, frame, 2, mode) for mode in modes]
        assert unlabelled(run_trial(tiny_cfg, 2.0, 2, modes, 0)) == sum(per_mode, [])

    def test_slip_warning_names_the_cell(self, tiny_cfg, monkeypatch, caplog):
        # receive() knows the mode and run_trial() the rest of the cell key
        monkeypatch.setattr(harness, "count_slips", lambda symbols, frame: 2)
        with caplog.at_level(logging.WARNING, logger=harness.__name__):
            run_trial(tiny_cfg, 2.0, 2, ("dbp",), 0)
        seed = cell_seed(tiny_cfg.base_seed, 2.0, 2, "dbp", 0)
        assert caplog.messages == [
            f"DDPLL: 2 possible cycle slips, dbp, +2.0 dBm, 2 spans, seed {seed}"
        ]

    def test_stages_are_looked_up_when_called(self, tiny_cfg, monkeypatch):
        # span tracers and memory probes replace these names in their
        # modules from outside: a cell must call each stage through its
        # module's name for it, not through a reference bound earlier. The
        # dbp_turbo mode runs an iteration after iteration 0, so every step
        # of the turbo loop and every stage inside one are called
        wrapped = [
            (harness, name)
            for name in (
                "transmit", "select_channel", "matched_filter", "nlms_equalize", "ddpll",
                "turbo_loop", "_load_code", "run_trial",
            )
        ] + [(fiber, name) for name in ("propagate_link", "edc", "dbp")] + [
            (turbo, name)
            for name in (
                "soft_symbols", "estimate", "equalize_demap", "decode_blocks",
                "rls_estimate", "lmmse_equalize", "decode", "post_fec_ber", "gmi_bits_per_2d",
            )
        ] + [(constellation, name) for name in ("extrinsic_llrs", "symbol_priors", "soft_stats")]
        calls = []
        for module, name in wrapped:

            def counting(*args, _fn=getattr(module, name), _name=(module, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        assert tiny_cfg.turbo.n_turbo_iters >= 1
        for modes in (("edc", "dbp"), ("dbp_turbo",)):
            harness.run_trial(tiny_cfg, 2.0, 2, modes, 0)
        assert set(calls) == set(wrapped)


def pilot_lag(signal, frame):
    """Lag at which the circular cross-correlation of ``signal`` with the
    frame's pilots, placed at their symbols' samples, peaks over both
    polarizations."""
    sps = round(signal.sample_rate / frame.symbol_rate)
    ref = np.zeros_like(signal.fields)
    pil = frame.pilot_mask
    ref[:, np.nonzero(pil)[0] * sps] = frame.symbols[:, pil]
    xc = np.fft.ifft(np.fft.fft(signal.fields) * np.conj(np.fft.fft(ref)))
    return int(np.argmax(np.sum(np.abs(xc), axis=0)))


class TestFrontEnd:
    def test_filters_transform_one_row_at_a_time(self, tiny_cfg, monkeypatch):
        # the trial's five filters (shaping, channel selection, EDC, matched
        # filter and the bypass front end's crop to 1 sps) all transform
        # through spectral_filter, one polarization row per call; only the
        # split-step transforms the (2, n) field, in place
        cfg = dataclasses.replace(tiny_cfg, bypass_sync_dsp=True, modes=("edc", "dbp"))
        seen = fft_spy(monkeypatch)
        run_trial(cfg, 2.0, 2, cfg.modes, 0)
        rows = [caller for ndim, caller in seen if ndim == 1]
        # one channel shaped, one selection, one EDC, then per mode a
        # matched filter and a crop: 7 calls of 2 rows, an fft and an ifft each
        assert rows == ["spectral_filter"] * 7 * 4
        assert {caller for ndim, caller in seen if ndim != 1} == {"_ssfm"}

    @pytest.mark.parametrize("sps", [4, 8])
    def test_matched_filter_output_is_symbol_aligned(self, sps, monkeypatch):
        # every stage from shaping to matched filter is circular on one FFT
        # grid with the channel of interest at 0 Hz, so the matched filter
        # hands the NLMS a frame of 2 samples per symbol whose pilots lie
        # where the transmitter put them, at all powers and in both modes
        cfg = CampaignConfig(
            rolloff=0.1, tx_samples_per_symbol=sps, n_blocks=3, n_train_blocks=1,
            fiber=FiberParams(n_spans=2, step_m=5000.0), dbp_step_m=25e3,
        )
        frames, outs, nlms_in = [], [], []

        def spy(log, fn):
            def wrapped(*args, **kwargs):
                log.append(fn(*args, **kwargs))
                return log[-1]
            return wrapped

        monkeypatch.setattr(harness, "build_frame", spy(frames, harness.build_frame))
        monkeypatch.setattr(harness, "matched_filter", spy(outs, harness.matched_filter))
        nlms = harness.nlms_equalize
        monkeypatch.setattr(
            harness, "nlms_equalize", lambda sig, *a: nlms_in.append(sig) or nlms(sig, *a)
        )
        for mode in ("edc", "dbp"):
            for power in (-4.0, 4.0):
                frames.clear()
                run_trial(cfg, power, 2, (mode,), 0)
                coi = frames[(cfg.n_wdm_channels - 1) // 2]
                out = outs[-1]
                assert nlms_in[-1] is out
                assert len(out) == 2 * coi.n_instants
                assert pilot_lag(out, coi) == 0


class TestCampaign:
    def test_order_independent_results(self, tiny_cfg):
        cfg_fwd = dataclasses.replace(tiny_cfg, modes=("edc", "dbp_turbo"))
        cfg_rev = dataclasses.replace(tiny_cfg, modes=("dbp_turbo", "edc"))
        recs_f, _, fail_f = run_campaign(cfg_fwd)
        recs_r, _, fail_r = run_campaign(cfg_rev)
        assert not fail_f and not fail_r
        assert recs_f == recs_r  # merged in sorted cell order

    def test_pool_starts_turbo_cells_first(self, tiny_cfg, monkeypatch):
        # one task per (power, spans, trial, draw): the dbp_turbo tasks
        # first, then one task holding edc and dbp per power
        cfg = dataclasses.replace(tiny_cfg, modes=MODES, power_dbm_list=(0.0, 2.0))
        submitted = []

        class RecordingPool:
            """Runs the tasks in this process, in the order they are given."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                submitted.extend(tasks)
                return map(fn, tasks)

        def fake_task(task):
            _, power, spans, modes, trial = task
            recs = [record(power=power, spans=spans, mode=m, trial=trial) for m in modes]
            return (power, spans, modes, trial), recs, None

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "_run_task", fake_task)
        pooled, _, _ = run_campaign(cfg, jobs=2)
        assert [(t[3], t[1]) for t in submitted] == [
            (("dbp_turbo",), 0.0), (("dbp_turbo",), 2.0),
            (("edc", "dbp"), 0.0), (("edc", "dbp"), 2.0),
        ]
        serial, _, _ = run_campaign(cfg, jobs=1)
        assert pooled == serial

    def test_failed_task_lists_each_of_its_cells(self, tiny_cfg, monkeypatch):
        # a task that raises fails every cell it holds, each under its own
        # (power, spans, mode, trial); the other tasks' records still come back
        cfg = dataclasses.replace(tiny_cfg, modes=MODES, power_dbm_list=(0.0, 2.0))

        def fake_trial(cfg, power, spans, modes, trial):
            if "edc" in modes and power == 2.0:
                raise RuntimeError("shared draw lost")
            return [record(power=power, spans=spans, mode=m, trial=trial) for m in modes]

        monkeypatch.setattr(harness, "run_trial", fake_trial)
        records, _, failures = run_campaign(cfg)
        err = "RuntimeError: shared draw lost"
        assert failures == [((2.0, 2, "edc", 0), err), ((2.0, 2, "dbp", 0), err)]
        assert [(r.launch_power_dbm, r.mode) for r in records] == [
            (0.0, "dbp"), (0.0, "dbp_turbo"), (0.0, "edc"), (2.0, "dbp_turbo"),
        ]

    def test_pool_equals_serial_for_every_mode(self, tiny_cfg):
        cfg = dataclasses.replace(tiny_cfg, modes=MODES)
        pooled, _, fail_p = run_campaign(cfg, jobs=2)
        serial, _, fail_s = run_campaign(cfg, jobs=1)
        assert not fail_p and not fail_s
        assert {r.mode for r in serial} == set(MODES)
        assert pooled == serial

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_no_workers_rejected(self, tiny_cfg, jobs, monkeypatch):
        # rejected before any cell runs, not run serially
        monkeypatch.setattr(harness, "_run_task", None)
        with pytest.raises(HarnessError, match="jobs must be >= 1"):
            run_campaign(tiny_cfg, jobs=jobs)

    def test_summary_shape(self, tiny_cfg):
        recs, summary, failures = run_campaign(tiny_cfg)
        assert not failures
        assert {r["mode"] for r in summary} == {"dbp_turbo"}
        iters = sorted(r["iteration"] for r in summary)
        assert iters == sorted(set(rec.turbo_iteration for rec in recs))


class TestAggregation:
    def test_mean_across_trials(self):
        recs = [record(snr=18.0, trial=0), record(snr=22.0, trial=1)]
        rows = aggregate(recs)
        assert len(rows) == 1
        assert rows[0]["snr_db"] == 20.0
        assert rows[0]["n_trials"] == 2

    def test_final_iteration_rows(self):
        recs = [record(it=0, snr=18.0), record(it=1, snr=19.0), record(it=2, snr=20.0)]
        rows = final_iteration_rows(aggregate(recs))
        assert len(rows) == 1
        assert rows[0]["iteration"] == 2

    def test_stopped_trial_carried_forward(self):
        # trial 0 stops after iteration 1, trial 1 runs to iteration 3
        recs = [record(mode="dbp_turbo", it=i, snr=18.0 + i, trial=0) for i in range(2)]
        recs += [record(mode="dbp_turbo", it=i, snr=20.0 + i, trial=1) for i in range(4)]
        rows = aggregate(recs)
        assert [r["iteration"] for r in rows] == [0, 1, 2, 3]
        assert [r["n_trials"] for r in rows] == [2, 2, 2, 2]
        assert [r["snr_db"] for r in rows] == [19.0, 20.0, 20.5, 21.0]
        final = final_iteration_rows(rows)
        assert len(final) == 1
        assert (final[0]["iteration"], final[0]["snr_db"]) == (3, 21.0)

    def test_optimal_launch_power(self):
        recs = [record(power=p, snr=20.0 - (p - 2.0) ** 2) for p in (0.0, 2.0, 4.0)]
        best = optimal_launch_power(aggregate(recs), "edc", 10)
        assert best["power_dbm"] == 2.0

    def test_optimal_launch_power_missing(self):
        with pytest.raises(HarnessError):
            optimal_launch_power([], "edc", 10)


class TestTables:
    def test_schema_and_roundtrip(self, tmp_path):
        import csv

        rows = aggregate([record(), record(power=4.0)])
        path = emit_tables(rows, tmp_path)
        assert path == tmp_path / "sweep.csv"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]
        with open(path) as f:
            reader = csv.DictReader(f)
            got = list(reader)
        assert reader.fieldnames == [
            "power_dbm", "n_spans", "mode", "iteration", "ber", "snr_db", "gmi_bits_per_4d",
        ]
        assert len(got) == 2
        assert got[0]["power_dbm"] == "2.0"
        assert float(got[0]["snr_db"]) == 20.0


class TestCli:
    def test_run_writes_outputs(self, tmp_path):
        cfgp = tmp_path / "tiny.cfg"
        cfgp.write_text(TINY_CFG)
        out = tmp_path / "res"
        rc = cli_main(["run", "--config", str(cfgp), "--out", str(out)])
        assert rc == 0
        recs = read_records_ndjson(out / "records.ndjson")
        assert recs and all(r.mode == "dbp_turbo" for r in recs)
        assert (out / "sweep.csv").exists()
        rc = cli_main(
            [
                "tables",
                "--results", str(out / "records.ndjson"),
                "--out", str(tmp_path / "tab"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "tab" / "sweep.csv").exists()

    def test_sweep_override(self, tmp_path):
        cfgp = tmp_path / "tiny.cfg"
        cfgp.write_text(TINY_CFG)
        out = tmp_path / "res"
        rc = cli_main(
            [
                "run", "--config", str(cfgp), "--out", str(out),
                "--modes", "dbp", "--power-dbm", "0",
            ]
        )
        assert rc == 0
        recs = read_records_ndjson(out / "records.ndjson")
        assert {r.mode for r in recs} == {"dbp"}
        assert {r.launch_power_dbm for r in recs} == {0.0}

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["run", "--config", "no_such_file.cfg"], "no_such_file.cfg not found"),
            (["run", "--config", "desk.cfg", "--spans", "-1"], "span counts"),
            (["tables", "--results", "no_such_file.ndjson"], "No such file"),
            # a path that exists but is not a readable config names itself
            (["run", "--config", "{tmp}"], "{tmp}: "),
            (["run", "--config", "{tmp}/latin1.cfg"], "{tmp}/latin1.cfg: "),
            # a results file without records makes no table
            (["tables", "--results", "{tmp}/empty.ndjson"], "{tmp}/empty.ndjson: no records"),
            (["tables", "--results", "{tmp}/blank.ndjson"], "{tmp}/blank.ndjson: no records"),
            # an output path that is a file, before the campaign runs
            (["run", "--config", "desk.cfg", "--out", "{tmp}/afile"], "File exists: '{tmp}/afile'"),
            # a table's output path that is a file, or lies under one
            (["tables", "--results", "{tmp}/one.ndjson", "--out", "{tmp}/afile"],
             "File exists: '{tmp}/afile'"),
            (["tables", "--results", "{tmp}/one.ndjson", "--out", "{tmp}/afile/sub"],
             "Not a directory: '{tmp}/afile/sub'"),
            # a non-finite launch power, which every cell would propagate
            # before failing
            (["run", "--config", "desk.cfg", "--power-dbm", "nan"], "power_dbm_list must be finite"),
        ],
    )
    def test_bad_input_is_a_one_line_error(self, tmp_path, capsys, argv, named):
        (tmp_path / "latin1.cfg").write_bytes("[campaign]\n# d\xe9j\xe0 vu\n".encode("latin-1"))
        (tmp_path / "empty.ndjson").write_text("")
        (tmp_path / "blank.ndjson").write_text("\n  \n\n")
        (tmp_path / "afile").write_text("")
        write_records_ndjson(tmp_path / "one.ndjson", [record()])
        argv = [a.format(tmp=tmp_path) for a in argv]
        named = named.format(tmp=tmp_path)
        # the last --out counts, so a case's own --out wins over this one
        rc = cli_main(argv[:1] + ["--out", str(tmp_path / "out")] + argv[1:])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("turbowdm: error: ") and named in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert (tmp_path / "afile").read_text() == ""

    def test_no_workers_is_a_one_line_error(self, tmp_path, capsys):
        cfgp = tmp_path / "tiny.cfg"
        cfgp.write_text(TINY_CFG)
        out = tmp_path / "out"
        rc = cli_main(["run", "--config", str(cfgp), "--out", str(out), "--jobs", "0"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "turbowdm: error: jobs must be >= 1\n"
        assert not out.exists()

    def test_bad_config_value_is_a_one_line_error(self, tmp_path, capsys):
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text("[campaign]\nmodulation = 8\n")
        rc = cli_main(["run", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "turbowdm: error: unsupported QAM order 8\n"
        assert not (tmp_path / "out").exists()

    def test_tables_rejects_a_file_of_other_records(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text('{"not": "a record"}\n')
        assert cli_main(["tables", "--results", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"turbowdm: error: {bad}: ")

    def test_imports_without_scipy(self):
        # numpy is the only runtime dependency: the package and its command
        # line load no scipy module (a fresh interpreter, so nothing the
        # tests import counts)
        src = os.path.dirname(os.path.dirname(os.path.abspath(turbowdm.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, turbowdm, turbowdm.cli; "
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == []
