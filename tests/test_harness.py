import dataclasses

import numpy as np
import pytest

from turbowdm.cli import main as cli_main
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

TINY_CFG = """
[signal]
modulation = 4
n_wdm_channels = 1
baud = 32e9
rolloff = 0.1
tx_samples_per_symbol = 4

[fiber]
span_km = 50
n_spans = 2
step_m = 5000
dbp_step_m = 25000

[code]
file = rate45_n2048
n_blocks = 6

[turbo]
n_turbo_iters = 1

[sweep]
power_dbm = 2
spans = 2
modes = dbp_turbo

[run]
n_trials = 1
base_seed = 7
"""


@pytest.fixture(scope="module")
def tiny_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    p.write_text(TINY_CFG)
    return load_config(p)


def record(power=2.0, spans=10, mode="edc", it=0, snr=20.0, trial=0, ber=0.0):
    return MetricsRecord(
        launch_power_dbm=power, n_spans=spans, mode=mode, turbo_iteration=it,
        seed=1, post_fec_ber=ber, snr_db=snr, snr_db_symbolwise=snr + 2.0,
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
        paper = load_config("paper.cfg")
        assert paper.modulation == 256
        assert paper.n_wdm_channels == 11

    def test_missing_config(self):
        with pytest.raises(HarnessError):
            load_config("no_such_file.cfg")

    def test_invalid_mode_rejected(self):
        with pytest.raises(HarnessError):
            CampaignConfig(modes=("warp",))

    def test_empty_sweep_rejected(self):
        with pytest.raises(HarnessError):
            CampaignConfig(power_dbm_list=())


def test_load_code_cached_per_process():
    assert _load_code("toy_n20") is _load_code("toy_n20")


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
        seed = cell_seed(tiny_cfg.base_seed, 2.0, 2, "dbp_turbo", 0)
        a = run_trial(tiny_cfg, 2.0, 2, "dbp_turbo", seed)
        b = run_trial(tiny_cfg, 2.0, 2, "dbp_turbo", seed)
        assert a == b

    def test_record_context(self, tiny_cfg):
        seed = cell_seed(tiny_cfg.base_seed, 2.0, 2, "dbp", 0)
        recs = run_trial(tiny_cfg, 2.0, 2, "dbp", seed)
        assert len(recs) == 1  # non-turbo modes stop at iteration 0
        assert recs[0].mode == "dbp"
        assert recs[0].launch_power_dbm == 2.0
        assert recs[0].n_spans == 2
        assert recs[0].n_bits_counted > 0

    def test_unknown_mode(self, tiny_cfg):
        with pytest.raises(HarnessError):
            run_trial(tiny_cfg, 2.0, 2, "warp", 1)


class TestCampaign:
    def test_order_independent_results(self, tiny_cfg):
        cfg_fwd = dataclasses.replace(tiny_cfg, modes=("edc", "dbp_turbo"))
        cfg_rev = dataclasses.replace(tiny_cfg, modes=("dbp_turbo", "edc"))
        recs_f, _, fail_f = run_campaign(cfg_fwd)
        recs_r, _, fail_r = run_campaign(cfg_rev)
        assert not fail_f and not fail_r
        assert recs_f == recs_r  # merged in sorted cell order

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
        paths = emit_tables(rows, tmp_path)
        assert sorted(p.name for p in paths) == ["power_sweep.csv", "span_sweep.csv"]
        with open(paths[0]) as f:
            got = list(csv.DictReader(f))
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
        assert (out / "power_sweep.csv").exists()
        rc = cli_main(
            [
                "tables",
                "--results", str(out / "records.ndjson"),
                "--out", str(tmp_path / "tab"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "tab" / "span_sweep.csv").exists()

    def test_sweep_override(self, tmp_path):
        cfgp = tmp_path / "tiny.cfg"
        cfgp.write_text(TINY_CFG)
        out = tmp_path / "res"
        rc = cli_main(
            [
                "sweep", "--config", str(cfgp), "--out", str(out),
                "--modes", "dbp", "--power-dbm", "0",
            ]
        )
        assert rc == 0
        recs = read_records_ndjson(out / "records.ndjson")
        assert {r.mode for r in recs} == {"dbp"}
        assert {r.launch_power_dbm for r in recs} == {0.0}
