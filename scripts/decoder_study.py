"""Decoder stop-rule study: the desk preset's dbp_turbo trials with and
without the stall rule of ``fec.decode``.

Run from the repository root:  python scripts/decoder_study.py [--seeds 7 1700]

For each desk launch power and base seed, trials 0 and 1 build one
``harness.channel`` each, and ``harness.receive`` runs the dbp_turbo
receiver on it twice: with ``fec.STALL`` as shipped, and with the rule off
(``STALL`` above ``fec.MAX_ITER``, set here by patching the module
constant). Both settings read the same channel, and the two runs of a
trial alternate which goes first. Prints a markdown table: sum-product
iterations, decode calls that end without a codeword, the receiver's wall
time (the channel is built once, outside it), and the final iteration's
SNR, GMI and post-FEC BER.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from turbowdm import fec, harness, turbo  # noqa: E402


def run(cfg, selected, frame, stall):
    """The dbp_turbo receiver on one channel with ``fec.STALL = stall``:
    (final iteration's metrics, decoder iterations, failed decode calls,
    wall seconds). The count wraps ``turbo.decode`` as it stands, a span
    tracer's wrapper included, and puts that object back afterwards."""
    counts = [0, 0]
    shipped, inner = fec.STALL, turbo.decode

    def counted(llrs, code):
        out = inner(llrs, code)
        counts[0] += out[3]
        counts[1] += not out[2]
        return out

    fec.STALL, turbo.decode = stall, counted
    try:
        t0 = time.perf_counter()
        recs = harness.receive(cfg, selected, frame, cfg.span_list[0], "dbp_turbo")
        wall = time.perf_counter() - t0
    finally:
        fec.STALL, turbo.decode = shipped, inner
    return recs[-1], counts[0], counts[1], wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 1700], help="base seeds")
    args = ap.parse_args(argv)
    desk = harness.load_config("desk.cfg")
    settings = {"off": fec.MAX_ITER + 1, "on": fec.STALL}
    print(f"STALL = {fec.STALL}, MAX_ITER = {fec.MAX_ITER}; each pair reads off -> on\n")
    print("| power dBm | seed | trial | decoder iters | failed decodes | wall s "
          "| ΔSNR dB | ΔGMI b/4D | BER |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    totals = {"off": [0, 0, 0.0], "on": [0, 0, 0.0]}
    k = 0
    spans = desk.span_list[0]
    for base_seed in args.seeds:
        cfg = replace(desk, base_seed=base_seed)
        for power in desk.power_dbm_list:
            for trial in (0, 1):
                order = ("off", "on") if k % 2 == 0 else ("on", "off")
                k += 1
                seed = harness.cell_seed(base_seed, power, spans, "dbp_turbo", trial)
                selected, frame = harness.channel(cfg, power, spans, seed)
                res = {name: run(cfg, selected, frame, settings[name]) for name in order}
                for name, (_, iters, failed, wall) in res.items():
                    totals[name][0] += iters
                    totals[name][1] += failed
                    totals[name][2] += wall
                (r0, i0, f0, w0), (r1, i1, f1, w1) = res["off"], res["on"]
                print(
                    f"| {power:+.0f} | {base_seed} | {trial} | {i0} -> {i1} | {f0} -> {f1} "
                    f"| {w0:.2f} -> {w1:.2f} | {r1.snr_db - r0.snr_db:+.4f} "
                    f"| {r1.gmi_bits_per_4d_symbol - r0.gmi_bits_per_4d_symbol:+.4f} "
                    f"| {r0.post_fec_ber:.3e} -> {r1.post_fec_ber:.3e} |"
                )
    (i0, f0, w0), (i1, f1, w1) = totals["off"], totals["on"]
    print(f"| all | | | {i0} -> {i1} ({i1 / i0 - 1:+.1%}) | {f0} -> {f1} "
          f"| {w0:.1f} -> {w1:.1f} ({w1 / w0 - 1:+.1%}) | | | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
