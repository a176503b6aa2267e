import dataclasses

import pytest

from turbowdm import fec, harness, turbo
from turbowdm.harness import load_config

from conftest import load_script


@pytest.fixture(scope="module")
def stall_channel():
    """The study script, and a config and channel on which blocks fail and
    stall: QPSK at -30 dBm over one span, about 3 dB SNR."""
    desk = load_config("desk.cfg")
    cfg = dataclasses.replace(
        desk, modulation=4, n_wdm_channels=1, code_file="toy_n20", n_blocks=60,
        n_train_blocks=10, fiber=dataclasses.replace(desk.fiber, step_m=5000.0),
        dbp_step_m=25e3, turbo=dataclasses.replace(desk.turbo, n_turbo_iters=1),
        power_dbm_list=(-30.0,), span_list=(1,), modes=("dbp_turbo",),
    )
    seed = harness.cell_seed(cfg.base_seed, -30.0, 1, "dbp_turbo", 0)
    return load_script("decoder_study"), cfg, *harness.channel(cfg, -30.0, 1, seed)


def test_study_counts_decodes_with_and_without_the_stall_rule(stall_channel):
    # the study wraps turbo.decode by name: a renamed or re-signatured call
    # would print zero counts, or fail, here rather than in a long run
    study, cfg, selected, frame = stall_channel
    shipped = fec.STALL
    _, iters_off, failed_off, _ = study.run(cfg, selected, frame, fec.MAX_ITER + 1)
    _, iters_on, failed_on, _ = study.run(cfg, selected, frame, shipped)
    assert iters_on > 0 and failed_on > 0
    assert failed_off > 0
    # the rule only stops blocks early, and here it stops some
    assert iters_off > iters_on
    assert fec.STALL == shipped
    assert turbo.decode is fec.decode


def test_run_keeps_a_decode_wrapped_before_it(stall_channel, monkeypatch):
    # a span tracer may have wrapped turbo.decode before the study runs: the
    # count calls through that wrapper and puts it back, not fec.decode
    study, cfg, selected, frame = stall_channel
    seen = []

    def traced(llrs, code):
        seen.append(1)
        return fec.decode(llrs, code)

    monkeypatch.setattr(turbo, "decode", traced)
    _, iters, _, _ = study.run(cfg, selected, frame, fec.STALL)
    assert turbo.decode is traced
    assert seen and iters > 0
