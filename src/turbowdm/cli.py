"""Command-line front end: run campaigns (with sweep-axis overrides), emit tables."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .metrics import read_records_ndjson, write_records_ndjson


def _error(msg: object) -> int:
    """Report a bad input in one line, as argparse does, and return 2."""
    print(f"turbowdm: error: {msg}", file=sys.stderr)
    return 2


def cmd_run(args) -> int:
    try:
        cfg = harness.load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, base_seed=args.seed)
        if args.power_dbm:
            cfg = replace(cfg, power_dbm_list=tuple(args.power_dbm))
        if args.spans:
            cfg = replace(cfg, span_list=tuple(args.spans))
        if args.modes:
            cfg = replace(cfg, modes=tuple(args.modes))
        if args.jobs < 1:  # checked before --out is created
            raise harness.HarnessError("jobs must be >= 1")
    except harness.HarnessError as exc:
        return _error(exc)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file, or a place that cannot hold one
        return _error(exc)
    try:
        records, summary, failures = harness.run_campaign(cfg, jobs=args.jobs)
    except harness.HarnessError as exc:
        return _error(exc)
    write_records_ndjson(out_dir / "records.ndjson", records)
    harness.emit_tables(summary, out_dir)
    for row in summary:
        print(
            f"P={row['power_dbm']:+5.1f} dBm spans={row['n_spans']:3d} "
            f"{row['mode']:10s} iter={row['iteration']} "
            f"BER={row['ber']:.3e} SNR={row['snr_db']:6.2f} dB "
            f"GMI={row['gmi_bits_per_4d']:5.2f} b/4D"
        )
    if failures:
        for key, err in failures:
            print(f"FAILED cell {key}: {err}", file=sys.stderr)
        return 1
    return 0


def cmd_tables(args) -> int:
    try:
        records = read_records_ndjson(args.results)
    except (OSError, ValueError, TypeError) as exc:  # missing, or not records
        return _error(f"{args.results}: {exc}")
    if not records:
        return _error(f"{args.results}: no records")
    try:
        path = harness.emit_tables(harness.aggregate(records), Path(args.out))
    except OSError as exc:  # --out is a file, or a place that cannot hold one
        return _error(exc)
    print(path)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    ap = argparse.ArgumentParser(prog="turbowdm")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run the campaign defined by a config file")
    p_run.add_argument("--config", required=True, help="config file or preset name (desk.cfg, paper.cfg)")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel sweep cells")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    # sweep-axis overrides
    p_run.add_argument("--power-dbm", type=float, nargs="+")
    p_run.add_argument("--spans", type=int, nargs="+")
    p_run.add_argument("--modes", nargs="+", choices=harness.MODES)
    p_run.set_defaults(fn=cmd_run)

    p_tab = sub.add_parser("tables", help="emit the plot-ready CSV table from results")
    p_tab.add_argument("--results", required=True, help="records.ndjson from a run")
    p_tab.add_argument("--out", default="tables")
    p_tab.set_defaults(fn=cmd_tables)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
