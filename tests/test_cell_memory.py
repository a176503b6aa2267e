import pytest

from turbowdm import fiber, harness
from turbowdm.metrics import MetricsRecord

from conftest import load_script


@pytest.mark.parametrize(
    "called, code",
    [(("transmit", "propagate_link"), 0), (("transmit",), 1), (("propagate_link",), 1), ((), 1)],
    ids=["both", "transmit only", "propagate_link only", "neither"],
)
def test_unrecorded_stage_fails_the_run(monkeypatch, capsys, called, code):
    # a cell that calls a stage past the name the script wraps records no
    # peak for it: the run fails instead of dropping that stage's line
    script = load_script("cell_memory")
    # stand-ins that the script wraps; monkeypatch restores the real ones
    monkeypatch.setattr(harness, "transmit", lambda: None)
    monkeypatch.setattr(fiber, "propagate_link", lambda: None)
    record = MetricsRecord(
        turbo_iteration=0, post_fec_ber=0.0, snr_db=20.0, gmi_bits_per_4d_symbol=11.0,
        n_bits_counted=100, launch_power_dbm=0.0, n_spans=1, mode="dbp_turbo", seed=1, trial=0,
    )

    def fake_trial(*args):
        for name in called:
            getattr(harness if name == "transmit" else fiber, name)()
        return [record]

    monkeypatch.setattr(harness, "run_trial", fake_trial)
    assert script.main() == code
    out, err = capsys.readouterr()
    stage_lines = [ln.split()[0] for ln in out.splitlines() if ln.startswith("peak_rss_mb.")]
    assert stage_lines == [f"peak_rss_mb.{name}" for name in called]
    assert ("error: no peak recorded" in err) == bool(code)
