"""Compare two campaign record files cell by cell.

Run from the repository root:  python scripts/compare_records.py A.ndjson B.ndjson

Records pair by (power, spans, mode, trial, iteration). Prints how many
pairs are byte-identical as JSON lines, in all and per mode, the largest |ΔSNR| and |ΔGMI| over
the pairs, every trial whose iteration count, counted bits or post-FEC BER
changed, and the trials present in one file only. Exits 1 when the files
differ (a paired record differs, or a trial or iteration is in one file
only) and 0 when they are identical, as ``cmp`` does; exits 2 when either
file holds no records.
"""

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from turbowdm.metrics import read_records_ndjson  # noqa: E402


def trial_key(r):
    return (r.launch_power_dbm, r.n_spans, r.mode, r.trial)


def compare(a, b) -> tuple[list[str], bool]:
    """Report lines for records ``a`` against records ``b``, and whether
    the two hold the same records."""
    trials: dict[tuple, tuple[dict, dict]] = {}
    for side, recs in enumerate((a, b)):
        for r in recs:
            trials.setdefault(trial_key(r), ({}, {}))[side][r.turbo_iteration] = r
    pairs = [
        (ra[it], rb[it])
        for ra, rb in trials.values()
        for it in sorted(ra.keys() & rb.keys())
    ]
    equal = [(x.mode, x.to_json_line() == y.to_json_line()) for x, y in pairs]
    same = sum(eq for _, eq in equal)
    identical = same == len(pairs) and all(ra.keys() == rb.keys() for ra, rb in trials.values())
    lines = [f"{same} of {len(pairs)} paired records identical"]
    for mode in sorted({key[2] for key in trials}):
        own = [eq for m, eq in equal if m == mode]
        lines.append(f"{mode}: {sum(own)} of {len(own)} paired records identical")
    if pairs:
        d_snr = max(abs(x.snr_db - y.snr_db) for x, y in pairs)
        d_gmi = max(abs(x.gmi_bits_per_4d_symbol - y.gmi_bits_per_4d_symbol) for x, y in pairs)
        lines.append(f"max |ΔSNR| {d_snr:.3g} dB, max |ΔGMI| {d_gmi:.3g} bits/4D")
    for key, (ra, rb) in sorted(trials.items()):
        cell = "power {:+g} dBm, {} spans, {}, trial {}".format(*key)
        if not ra or not rb:
            lines.append(f"{cell}: only in {'B' if not ra else 'A'}")
            continue
        paired = sorted(ra.keys() & rb.keys())
        changes = []
        if len(ra) != len(rb):
            changes.append(f"iterations {len(ra)} -> {len(rb)}")
        counts = sorted({(ra[it].n_bits_counted, rb[it].n_bits_counted) for it in paired})
        changes += [f"bits counted {x} -> {y}" for x, y in counts if x != y]
        changes += [
            f"BER at iteration {it} {ra[it].post_fec_ber:.4g} -> {rb[it].post_fec_ber:.4g}"
            for it in paired
            if ra[it].post_fec_ber != rb[it].post_fec_ber
        ]
        if changes:
            lines.append(f"{cell}: " + "; ".join(changes))
    return lines, identical


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="records.ndjson of the reference run")
    ap.add_argument("b", help="records.ndjson of the run compared with it")
    args = ap.parse_args(argv)
    a, b = read_records_ndjson(args.a), read_records_ndjson(args.b)
    # a run that wrote nothing must not pass as reproducing another
    for path, recs in ((args.a, a), (args.b, b)):
        if not recs:
            ap.error(f"{path}: no records")
    lines, identical = compare(a, b)
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # the reader stopped early (``| head -1``): the exit code still
        # answers, and the flush at exit goes to /dev/null, not the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
