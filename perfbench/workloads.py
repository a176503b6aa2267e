"""Workload definitions: each one is a bundled preset narrowed with
``dataclasses.replace``. Only the standard library is imported here, so the
worker can load this module before it starts timing set-up."""

from __future__ import annotations

from dataclasses import replace

# name -> (why, jobs). The "why" of the listed workloads is repeated in
# BENCHMARK.json; README.md gives the per-layer mapping.
WORKLOADS = {
    "desk_turbo": (
        "desk.cfg, dbp_turbo only at 0 and +4 dBm: RLS, LMMSE, demapper and "
        "decoder dominate",
        1,
    ),
    "desk_modes": (
        "desk.cfg, all three modes at 0 dBm on a 2-worker pool: forward "
        "fiber per mode and pool balance",
        2,
    ),
    "paper_code": (
        "paper.cfg signal and n=20480 code cut to one short cell: code build, "
        "dense encode, 256-QAM demap, memory",
        1,
    ),
    # Used only by selftest.py; not listed in BENCHMARK.json.
    "tiny": ("toy_n20 code, QPSK, one channel, one span, all modes", 1),
}


def build(harness, name: str, seed: int):
    """Return (CampaignConfig, jobs) for workload ``name`` with base seed
    ``seed``. ``harness`` is the imported ``turbowdm.harness`` module."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}")
    jobs = WORKLOADS[name][1]
    if name == "paper_code":
        cfg = harness.load_config("paper.cfg")
        # One training and one counted block (plus the trailing block that
        # metrics skip) keep a run of the full code under a minute.
        return replace(
            cfg,
            n_wdm_channels=3,
            n_blocks=3,
            n_train_blocks=1,
            fiber=replace(cfg.fiber, n_spans=1, step_m=1000.0),
            turbo=replace(cfg.turbo, n_turbo_iters=1),
            power_dbm_list=(0.0,),
            span_list=(1,),
            modes=("dbp_turbo",),
            n_trials=1,
            base_seed=seed,
        ), jobs
    cfg = harness.load_config("desk.cfg")
    if name == "desk_turbo":
        return replace(
            cfg, power_dbm_list=(0.0, 4.0), span_list=(10,),
            modes=("dbp_turbo",), n_trials=1, base_seed=seed,
        ), jobs
    if name == "desk_modes":
        return replace(
            cfg, power_dbm_list=(0.0,), span_list=(10,),
            modes=("edc", "dbp", "dbp_turbo"), n_trials=1, base_seed=seed,
        ), jobs
    return replace(
        cfg,
        modulation=4,
        n_wdm_channels=1,
        code_file="toy_n20",
        n_blocks=60,
        n_train_blocks=10,
        fiber=replace(cfg.fiber, n_spans=1, step_m=5000.0),
        dbp_step_m=25000.0,
        turbo=replace(cfg.turbo, n_turbo_iters=1),
        power_dbm_list=(0.0,),
        span_list=(1,),
        modes=("edc", "dbp", "dbp_turbo"),
        n_trials=1,
        base_seed=seed,
    ), jobs
