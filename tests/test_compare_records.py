import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_script


def line(power, mode, trial, it, snr, gmi=11.0, ber=0.0, bits=100):
    return (
        f'{{"gmi_bits_per_4d_symbol": {gmi}, "launch_power_dbm": {power}, '
        f'"mode": "{mode}", "n_bits_counted": {bits}, "n_spans": 10, '
        f'"post_fec_ber": {ber}, "seed": 1, "snr_db": {snr}, "trial": {trial}, '
        f'"turbo_iteration": {it}}}\n'
    )


def test_compare_two_record_files(tmp_path, capsys):
    script = load_script("compare_records")
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    a.write_text(
        line(0.0, "dbp", 0, 0, 20.0)
        + line(0.0, "dbp_turbo", 0, 0, 20.0)
        + line(0.0, "dbp_turbo", 0, 1, 20.5, gmi=11.25, ber=0.01)
        + line(0.0, "dbp_turbo", 0, 2, 20.5)
        + line(2.0, "edc", 1, 0, 15.0)
    )
    b.write_text(
        line(0.0, "dbp", 0, 0, 20.0)
        + line(0.0, "dbp_turbo", 0, 0, 20.0)
        + line(0.0, "dbp_turbo", 0, 1, 20.75, gmi=11.0, ber=0.02)
        + line(4.0, "edc", 0, 0, 12.0)
    )
    assert script.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "2 of 3 paired records identical",
        "dbp: 1 of 1 paired records identical",
        "dbp_turbo: 1 of 2 paired records identical",
        "edc: 0 of 0 paired records identical",
        "max |ΔSNR| 0.25 dB, max |ΔGMI| 0.25 bits/4D",
        "power +0 dBm, 10 spans, dbp_turbo, trial 0: iterations 3 -> 2; "
        "BER at iteration 1 0.01 -> 0.02",
        "power +2 dBm, 10 spans, edc, trial 1: only in A",
        "power +4 dBm, 10 spans, edc, trial 0: only in B",
    ]


def test_identical_files_exit_zero(tmp_path, capsys):
    # records written in another order are still the same records
    script = load_script("compare_records")
    recs = [line(0.0, "dbp_turbo", 0, it, 20.0 + it) for it in range(3)] + [line(2.0, "edc", 1, 0, 15.0)]
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    a.write_text("".join(recs))
    b.write_text("".join(reversed(recs)))
    assert script.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "4 of 4 paired records identical",
        "dbp_turbo: 3 of 3 paired records identical",
        "edc: 1 of 1 paired records identical",
        "max |ΔSNR| 0 dB, max |ΔGMI| 0 bits/4D",
    ]


def test_iteration_in_one_file_only_differs(tmp_path, capsys):
    # every paired record is identical, but B stopped a turbo run earlier
    script = load_script("compare_records")
    recs = [line(0.0, "dbp_turbo", 0, it, 20.0) for it in range(3)]
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    a.write_text("".join(recs))
    b.write_text("".join(recs[:2]))
    assert script.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "2 of 2 paired records identical"


def test_counted_bits_change_is_reported(tmp_path, capsys):
    # every iteration of a trial counts the same bits, so a changed count
    # is one entry per trial, before the BER entries
    script = load_script("compare_records")
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    a.write_text(
        line(0.0, "dbp", 0, 0, 20.0)
        + "".join(line(0.0, "dbp_turbo", 0, it, 20.0, ber=0.01) for it in range(2))
    )
    b.write_text(
        line(0.0, "dbp", 0, 0, 20.0, bits=120)
        + "".join(line(0.0, "dbp_turbo", 0, it, 20.0, ber=0.02, bits=120) for it in range(2))
    )
    assert script.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "0 of 3 paired records identical",
        "dbp: 0 of 1 paired records identical",
        "dbp_turbo: 0 of 2 paired records identical",
        "max |ΔSNR| 0 dB, max |ΔGMI| 0 bits/4D",
        "power +0 dBm, 10 spans, dbp, trial 0: bits counted 100 -> 120",
        "power +0 dBm, 10 spans, dbp_turbo, trial 0: bits counted 100 -> 120; "
        "BER at iteration 0 0.01 -> 0.02; BER at iteration 1 0.01 -> 0.02",
    ]


def test_per_mode_counts_show_which_mode_moved(tmp_path, capsys):
    # only edc's records changed: its own line says so, the others read
    # every pair identical
    script = load_script("compare_records")
    same = [line(0.0, "dbp", 0, 0, 20.0)] + [line(0.0, "dbp_turbo", 0, it, 20.0) for it in range(2)]
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    a.write_text("".join(same) + line(0.0, "edc", 0, 0, 18.0) + line(2.0, "edc", 0, 0, 17.0))
    b.write_text("".join(same) + line(0.0, "edc", 0, 0, 18.5) + line(2.0, "edc", 0, 0, 17.0))
    assert script.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[:4] == [
        "4 of 5 paired records identical",
        "dbp: 1 of 1 paired records identical",
        "dbp_turbo: 2 of 2 paired records identical",
        "edc: 1 of 2 paired records identical",
    ]


@pytest.mark.parametrize("empty_side", ["a", "b", "both"])
def test_file_without_records_is_an_error(tmp_path, capsys, empty_side):
    # a run that wrote nothing must not pass as identical to anything
    script = load_script("compare_records")
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    rec = line(0.0, "dbp", 0, 0, 20.0)
    a.write_text("\n" if empty_side in ("a", "both") else rec)
    b.write_text("" if empty_side in ("b", "both") else rec)
    with pytest.raises(SystemExit) as exc:
        script.main([str(a), str(b)])
    assert exc.value.code == 2
    empty = a if empty_side != "b" else b
    assert f"error: {empty}: no records" in capsys.readouterr().err


@pytest.mark.parametrize("identical", [True, False])
@pytest.mark.parametrize("lines_read", [0, 1])
def test_reader_closing_early_keeps_the_exit_code(tmp_path, identical, lines_read):
    # ``compare_records.py A B | head -1``: the reader closes the pipe before
    # the first line or after it, with the report still to be written (one
    # line per changed trial: 4,000 fill more than a pipe holds); the exit
    # code still says whether the files differ, and nothing is printed
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_records.py"
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    ber = 0.0 if identical else 0.5
    a.write_text("".join(line(0.0, "edc", t, 0, 20.0) for t in range(4000)))
    b.write_text("".join(line(0.0, "edc", t, 0, 20.0, ber=ber) for t in range(4000)))
    r, w = os.pipe()
    if not lines_read:
        os.close(r)
    proc = subprocess.Popen(
        [sys.executable, str(script), str(a), str(b)], stdout=w, stderr=subprocess.PIPE
    )
    os.close(w)
    if lines_read:
        with os.fdopen(r, "rb") as reader:
            first = reader.readline()
        assert first == (b"4000" if identical else b"0") + b" of 4000 paired records identical\n"
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == (0 if identical else 1)
    assert err == b""
