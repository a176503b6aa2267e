"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py {setup,run,trace} WORKLOAD SEED OUT_JSON [SPANS_FILE]

``setup`` times only the set-up (import turbowdm, load_config, build the
workload's CampaignConfig). ``run`` also times ``harness.run_campaign`` and
checks its records. ``trace`` runs the campaign untraced, then serially with
every wrap point traced, writes the spans to SPANS_FILE and reports the
per-layer metrics. The result goes to OUT_JSON.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")
sys.path.insert(0, _SRC)

import workloads  # noqa: E402
from turbowdm import harness  # noqa: E402


def _campaign(cfg, jobs: int):
    t = time.perf_counter()
    records, _, failures = harness.run_campaign(cfg, jobs)
    return records, failures, time.perf_counter() - t


def _trace(cfg, jobs: int, spans_file: str) -> dict:
    import checks
    from tracer import Tracer

    runs = {"untraced": _campaign(cfg, jobs)}
    if jobs > 1:
        # the traced run is serial; an untraced serial run is the overhead
        # baseline and checks that results do not depend on jobs
        runs["untraced serial"] = _campaign(cfg, 1)
    tracer = Tracer()
    tracer.install()
    try:
        runs["traced"] = _campaign(cfg, 1)
    finally:
        tracer.uninstall()
    tracer.dump(spans_file)
    failed = {}
    for label, (records, failures, _) in runs.items():
        bad = checks.mismatched_cells(records, runs["untraced"][0])
        bad.update(checks.failed_cells(cfg, records, failures))
        failed.update({f"{label} {k!r}": v for k, v in bad.items()})
    untraced_wall = runs.get("untraced serial", runs["untraced"])[2]
    traced_wall = runs["traced"][2]
    layer, absent = tracer.layer_metrics()
    layer["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return {
        "attempted": len(runs) * len(checks.expected_cells(cfg)),
        "failed": failed,
        "layer": layer,
        "absent": absent + [f"wrap point {n}" for n in tracer.absent],
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
    }


def main() -> int:
    mode, name, seed, out_path = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    cfg, jobs = workloads.build(harness, name, seed)
    result = {"setup_s": time.perf_counter() - _T0}
    if mode == "run":
        import checks

        records, failures, wall = _campaign(cfg, jobs)
        result.update(
            wall_s=wall,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=len(checks.expected_cells(cfg)),
            failed={repr(k): v for k, v in checks.failed_cells(cfg, records, failures).items()},
            quality=checks.quality(records),
            records=[r.to_json_line() for r in records],
        )
    elif mode == "trace":
        result.update(_trace(cfg, jobs, sys.argv[5]))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(out_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
