"""turbowdm campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Every repetition is a fresh interpreter
(perfbench/worker.py) that builds the workload's CampaignConfig with base
seed N and calls ``harness.run_campaign``. With ``--trace 0`` repetitions
run until S seconds are used (at least one), set-up is also timed in extra
set-up-only interpreters, and the end-to-end metrics are medians. With
``--trace 1`` one worker runs the campaign untraced and then traced and
reports the per-layer metrics. The last line of standard output is the JSON
result; the full result, with run metadata, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3  # fresh-interpreter set-up timings per run, at least
DEADLINE_S = 170.0  # a run must end within 180 s
POLL_S = 0.25


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # the command name may hold spaces; ppid follows its ")"
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def _descendants(pid: int) -> list[int]:
    kids, out, todo = _children(), [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _worker(args: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Run one worker; return (its result, summed peak RSS of its descendants
    in MB). Descendants are the campaign's pool workers; their peak RSS is
    polled from /proc while they live. Exits if the worker fails."""
    out = OUT / f"worker-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args[:3], str(out), *args[3:]],
        cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True,
    )
    peaks: dict[int, float] = {}
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise TimeoutError
            for pid in _descendants(proc.pid):
                peaks[pid] = max(peaks.get(pid, 0.0), _hwm_mb(pid))
            time.sleep(POLL_S)
    except TimeoutError:
        print(f"worker {args[:3]} stopped at the deadline", file=sys.stderr)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0 or not out.is_file():
        raise SystemExit(f"worker {args[:3]} exited with {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result, sum(peaks.values())


def _metadata(env: dict, jobs: int, versions: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for p in sorted((SRC / "turbowdm").rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        **versions,
        "nproc": _nproc(),
        "cpu_model": cpu,
        "jobs": jobs,
        "thread_env": {k: env.get(k) for k in threads},
    }


def _emit(workload: str, metrics: dict[str, tuple[float, str]]) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def measure(workload: str, seed: int, seconds: float, env: dict, deadline: float) -> dict:
    reps = []
    start = time.monotonic()
    budget = min(seconds, DEADLINE_S - 15.0)  # leave time for set-up probes
    while not reps or (
        time.monotonic() - start + statistics.median(r["wall_s"] + r["setup_s"] for r in reps)
        <= budget
    ):
        r, pool_mb = _worker(["run", workload, str(seed)], env, deadline)
        r["peak_rss_mb"] = r.pop("rss_mb") + pool_mb
        reps.append(r)
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(["setup", workload, str(seed)], env, deadline)[0]["setup_s"])

    failed = {}
    for i, r in enumerate(reps):
        if r["records"] != reps[0]["records"]:
            # not deterministic: every cell of this repetition counts as failed
            failed.update({f"rep {i} cell {c}": "records differ from repetition 0"
                           for c in range(r["attempted"])})
        else:
            failed.update({f"rep {i} {k}": v for k, v in r["failed"].items()})
    quality = reps[0]["quality"]
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "snr_db.dbp_turbo": (quality.pop("snr_db.dbp_turbo"), "dB"),
        # linear SNR ratio of the paired gain: never 0, unlike the dB value
        "turbo_gain": (10.0 ** (quality["turbo_gain_db"] / 10.0), "ratio"),
    }
    return {
        "e2e": e2e,
        "extra": {k: (v, "dB") for k, v in quality.items()},
        "attempted": sum(r["attempted"] for r in reps),
        "failed": failed,
        "reps": [{k: r[k] for k in ("setup_s", "wall_s", "peak_rss_mb")} for r in reps],
        "setup_samples": setups,
        "versions": reps[0]["versions"],
    }


def trace(workload: str, seed: int, env: dict, deadline: float) -> dict:
    spans = OUT / f"spans-{workload}-seed{seed}.ndjson"
    r, _ = _worker(["trace", workload, str(seed), str(spans)], env, deadline)
    return {
        "layer": {k: tuple(v) for k, v in r["layer"].items()},
        "attempted": r["attempted"],
        "failed": r["failed"],
        "absent": r["absent"],
        "walls": {k: r[k] for k in ("untraced_wall_s", "traced_wall_s")},
        "spans_file": str(spans.relative_to(ROOT)),
        "versions": r["versions"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "turbowdm" / "__init__.py").is_file():
        print(f"no turbowdm sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    jobs = WORKLOADS[args.workload][1]
    env = dict(os.environ)
    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        # threads per process times pool workers stays within the CPUs
        env[k] = str(max(1, _nproc() // jobs))

    if args.trace:
        res = trace(args.workload, args.seed, env, deadline)
        metrics = _emit(args.workload, res["layer"])
        for name in res["absent"]:
            print(f"{args.workload} absent: {name}")
    else:
        res = measure(args.workload, args.seed, args.seconds, env, deadline)
        metrics = _emit(args.workload, res["e2e"])
        _emit(args.workload, res["extra"])
    meta = _metadata(env, jobs, res.pop("versions"))
    print("meta " + json.dumps(meta, sort_keys=True))
    for cell, why in res["failed"].items():
        print(f"{args.workload} FAILED {cell}: {why}")
    result = {
        "correct": not res["failed"],
        "attempted": res["attempted"],
        "failed": len(res["failed"]),
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, "meta": meta, "detail": res}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
