"""Fast self-test of the benchmark on the ``tiny`` workload (bundled toy_n20
code, QPSK, one channel, one span). About ten seconds.

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result


def _check_printed(lines: list[str], result: dict, specs: list[dict]) -> None:
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        assert result["metrics"][name]["unit"] == unit, name
        assert isinstance(result["metrics"][name]["value"], (int, float)), name
        assert any(ln.startswith(f"tiny {name} = ") and ln.endswith(f" {unit}")
                   for ln in lines), name


def test_end_to_end_metrics_printed_with_units():
    lines, result = _run(0)
    _check_printed(lines, result, SPEC["end_to_end"])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    # the tiny workload runs all three modes, so every mode's SNR is printed
    for name in ("snr_db.edc", "snr_db.dbp", "turbo_gain_db"):
        assert any(ln.startswith(f"tiny {name} = ") for ln in lines), name
    meta = json.loads(next(ln for ln in lines if ln.startswith("meta "))[5:])
    for key in ("git_commit", "python", "numpy", "scipy", "nproc", "cpu_model", "thread_env"):
        assert key in meta, key


def test_trace_reports_every_layer_metric():
    lines, result = _run(1)
    _check_printed(lines, result, SPEC["per_layer"])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # a metric whose wrap point a later change removed is marked, not missing
    known = set(tracer.LAYER_METRICS) | {
        f"wrap point {tracer.span_name(*p)}" for p in tracer.WRAP_POINTS
    }
    for ln in lines:
        if " absent: " in ln:
            assert ln.split(" absent: ", 1)[1] in known, ln
    assert result["metrics"]["harness.cells"]["value"] == 3


def test_missing_wrap_point_is_reported_absent():
    import turbowdm.turbo as tb

    decode = tb.decode
    del tb.decode  # as if a later change removed this wrap point
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
        tb.decode = decode
    assert t.absent == ["turbo.decode"]
    values, absent = t.layer_metrics()
    assert set(values) == set(tracer.LAYER_METRICS)
    assert set(absent) == {
        "fec.decode_s", "fec.decode_calls", "fec.decoder_iters", "fec.converged_ratio",
    }
    assert not hasattr(tb.rls_estimate, "__wrapped__")  # originals restored


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.spans = [
        ["harness.run_trial", 0.0, 10.0, None, 0, None],
        ["fiber.propagate_link", 1.0, 4.0, 0, 0, None],
        ["harness.turbo_loop", 5.0, 9.0, 0, 0, {"iterations": 2}],
        ["turbo.decode", 6.0, 7.0, 2, 0, {"iters": 5, "converged": 1}],
        ["turbo.decode", 7.0, 8.5, 2, 0, {"iters": 3, "converged": 0}],
    ]
    assert t.self_times() == [3.0, 3.0, 1.5, 1.0, 1.5]
    values, absent = t.layer_metrics()
    assert absent == []
    assert values["harness.self_s"][0] == 3.0
    assert values["turbo.loop_self_s"][0] == 1.5
    assert values["fec.decoder_iters"][0] == 8
    assert values["fec.converged_ratio"][0] == 0.5
    assert values["turbo.iterations"][0] == 2


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok {fn.__name__}")
