import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import turbowdm
from turbowdm import fec, harness, turbo
from turbowdm.cli import main as cli_main
from turbowdm.fiber import FiberParams
from turbowdm.harness import (
    CampaignConfig,
    HarnessError,
    _load_code,
    aggregate,
    cell_seed,
    emit_tables,
    final_iteration_rows,
    load_config,
    optimal_launch_power,
    run_campaign,
    run_trial,
)
from turbowdm.metrics import MetricsRecord, read_records_ndjson
from turbowdm.turbo import TurboError

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
            if name in ("n_wdm_channels", "nlms_taps"):
                return value + 2  # odd: a centre channel, a centre tap
            if isinstance(value, tuple):
                return tuple(other(name, v) for v in value) * 2
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
            ("[turbo]\nchannel_memory = -1\n", "channel_memory"),
            ("[turbo]\nn_turbo_iters = -1\n", "n_turbo_iters"),
            ("[turbo]\nrls_delta = 0\n", "rls_delta"),
            ("[turbo]\nrls_delta = -1\n", "rls_delta"),
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

    def test_invalid_mode_rejected(self):
        with pytest.raises(HarnessError):
            CampaignConfig(modes=("warp",))

    def test_empty_sweep_rejected(self):
        with pytest.raises(HarnessError):
            CampaignConfig(power_dbm_list=())

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
        # caught when the config loads, not in every cell after propagation
        p = tmp_path / "bad.cfg"
        p.write_text(f"[campaign]\nnlms_taps = {taps}\n")
        with pytest.raises(HarnessError, match="nlms_taps"):
            load_config(p)
        CampaignConfig(nlms_taps=1)

    @pytest.mark.parametrize("step", [-0.05, 0.0, 2.0, 8.0])
    def test_unstable_nlms_step_rejected(self, step):
        # outside (0, 2) the NLMS does not converge in the mean square; a
        # step of 8 failed every cell with SyncError after propagation
        with pytest.raises(HarnessError, match="nlms_step"):
            CampaignConfig(nlms_step=step)
        CampaignConfig(nlms_step=1.99)

    @pytest.mark.parametrize("bw", [-1.0, 0.0])
    def test_non_positive_pll_bandwidth_rejected(self, bw):
        with pytest.raises(HarnessError, match="pll_bw_norm"):
            CampaignConfig(pll_bw_norm=bw)

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
        CampaignConfig(n_wdm_channels=n_ch + 1)

    @pytest.mark.parametrize("rate", [0.0, -0.05, 0.51, 1.0])
    def test_unusable_pilot_rate_rejected(self, rate):
        # no pilots leave no noise estimate; above 1/2, pilots outnumber data
        with pytest.raises(HarnessError, match="pilot_rate"):
            CampaignConfig(pilot_rate=rate)

    def test_pilot_rate_limits_accepted(self):
        CampaignConfig(pilot_rate=0.5)
        CampaignConfig(pilot_rate=1e-3)

    def test_too_few_blocks_rejected(self):
        # metrics need one counted block between training and trailing block
        with pytest.raises(HarnessError):
            CampaignConfig(n_blocks=4, n_train_blocks=3)
        CampaignConfig(n_blocks=5, n_train_blocks=3)


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


class TestRunTrial:
    def test_deterministic(self, tiny_cfg):
        a = run_trial(tiny_cfg, 2.0, 2, "dbp_turbo", 0)
        b = run_trial(tiny_cfg, 2.0, 2, "dbp_turbo", 0)
        assert a == b

    def test_record_context(self, tiny_cfg):
        recs = run_trial(tiny_cfg, 2.0, 2, "dbp", 0)
        assert len(recs) == 1  # non-turbo modes stop at iteration 0
        assert recs[0].mode == "dbp"
        assert recs[0].launch_power_dbm == 2.0
        assert recs[0].n_spans == 2
        assert recs[0].n_bits_counted > 0

    def test_records_carry_the_trial(self, tiny_cfg):
        # run_trial derives the cell's seed from the trial index and labels
        # its records with both, as the campaign does
        cfg = dataclasses.replace(tiny_cfg, modes=("dbp",), n_trials=2)
        recs = run_trial(cfg, 2.0, 2, "dbp", 1)
        assert {(r.trial, r.seed) for r in recs} == {(1, cell_seed(cfg.base_seed, 2.0, 2, "dbp", 1))}
        campaign, _, failures = run_campaign(cfg)
        assert not failures
        assert recs == [r for r in campaign if r.trial == 1]

    def test_unknown_mode(self, tiny_cfg):
        with pytest.raises(HarnessError):
            run_trial(tiny_cfg, 2.0, 2, "warp", 1)

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
        run_trial(cfg, 2.0, 2, "dbp_turbo", 5)
        assert len(calls) == 1


class TestCampaign:
    def test_order_independent_results(self, tiny_cfg):
        cfg_fwd = dataclasses.replace(tiny_cfg, modes=("edc", "dbp_turbo"))
        cfg_rev = dataclasses.replace(tiny_cfg, modes=("dbp_turbo", "edc"))
        recs_f, _, fail_f = run_campaign(cfg_fwd)
        recs_r, _, fail_r = run_campaign(cfg_rev)
        assert not fail_f and not fail_r
        assert recs_f == recs_r  # merged in sorted cell order

    def test_pool_starts_turbo_cells_first(self, tiny_cfg, monkeypatch):
        cfg = dataclasses.replace(
            tiny_cfg, modes=("edc", "dbp", "dbp_turbo"), power_dbm_list=(0.0, 2.0)
        )
        submitted = []

        class RecordingPool:
            """Runs the cells in this process, in the order they are given."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                submitted.extend(cells)
                return map(fn, cells)

        def fake_cell(cell):
            _, power, spans, mode, trial = cell
            recs = [record(power=power, spans=spans, mode=mode, trial=trial)]
            return (power, spans, mode, trial), recs, None

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "_run_cell", fake_cell)
        pooled, _, _ = run_campaign(cfg, jobs=2)
        assert [(c[3], c[1]) for c in submitted] == [
            ("dbp_turbo", 0.0), ("dbp_turbo", 2.0),
            ("edc", 0.0), ("dbp", 0.0), ("edc", 2.0), ("dbp", 2.0),
        ]
        serial, _, _ = run_campaign(cfg, jobs=1)
        assert pooled == serial

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
        ],
    )
    def test_bad_input_is_a_one_line_error(self, tmp_path, capsys, argv, named):
        rc = cli_main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("turbowdm: error: ") and named in err
        assert err.count("\n") == 1 and "Traceback" not in err
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
