"""Peak memory of one paper-sized cell.

Run from the repository root:  python scripts/cell_memory.py

Runs one `dbp_turbo` trial of `paper.cfg` at 0 dBm with the link cut to
one 1 km span, propagated and backpropagated in one 1 km step each, and
the turbo loop cut to 2 iterations after iteration 0. The signal keeps the
preset's size (11 channels of PM-256QAM at 16 samples/symbol, 776,096
samples, and the n = 20480 code), so the transmitter, the receiver's front
end and the turbo receiver (RLS, LMMSE, prior statistics, demapper and
decoder over 48,506 instants) hold paper-sized arrays while the split-step
stays short. The cell is narrowed with `dataclasses.replace` only. Prints
the process's own peak RSS (`ru_maxrss`) and minor page faults
(`ru_minflt`), the cell's wall time and the sha256 of its records as
`records.ndjson` would hold them, then the peak RSS as it stood when
`harness.transmit` and when `fiber.propagate_link` returned
(`peak_rss_mb.transmit`, `peak_rss_mb.propagate_link`), read by wrapping
the two functions from this script: the rest is the receiver's. Exits 1
when either was never recorded, so a cell that no longer calls a stage by
the name wrapped here cannot drop its line unnoticed.
"""

import functools
import hashlib
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from turbowdm import fiber, harness  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def noting_peak(fn, name: str, stages: dict):
    """``fn``, which also stores the peak RSS under ``stages[name]`` when it returns."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        stages[name] = peak_rss_mb()
        return out

    return wrapped


def main() -> int:
    stages: dict[str, float] = {}
    # harness.channel looks both names up in their modules when it calls them
    harness.transmit = noting_peak(harness.transmit, "transmit", stages)
    fiber.propagate_link = noting_peak(fiber.propagate_link, "propagate_link", stages)
    cfg = harness.load_config("paper.cfg")
    cfg = replace(
        cfg,
        fiber=replace(cfg.fiber, span_km=1.0, step_m=1000.0),
        dbp_step_m=1000.0,
        power_dbm_list=(0.0,),
        span_list=(1,),
        modes=("dbp_turbo",),
        n_trials=1,
        turbo=replace(cfg.turbo, n_turbo_iters=2),
    )
    t0 = time.perf_counter()
    records = harness.run_trial(cfg, 0.0, 1, ("dbp_turbo",), 0)
    wall = time.perf_counter() - t0
    text = "".join(r.to_json_line() + "\n" for r in records)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"peak_rss_mb {usage.ru_maxrss / 1024.0:.1f}")
    print(f"minor_faults {usage.ru_minflt}")
    print(f"wall_s {wall:.1f}")
    print(f"snr_db {records[-1].snr_db:.4f}")
    print(f"records_sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    for name, peak in stages.items():
        print(f"peak_rss_mb.{name} {peak:.1f}")
    missing = [name for name in ("transmit", "propagate_link") if name not in stages]
    if missing:
        print(f"error: no peak recorded for {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
