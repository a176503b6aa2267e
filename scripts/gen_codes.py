"""Generate the bundled LDPC parity-check files.

Run from the repository root:  python scripts/gen_codes.py

Builds every code of the CODES table and writes the parity files that are
missing from src/turbowdm/codes. A bundled file that the table no longer
reproduces (say, under a changed numpy random stream) is reported, and
then the script exits 1 without writing any file.
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from turbowdm.fec import make_regular_code, save_parity  # noqa: E402

OUT = Path(__file__).resolve().parents[1] / "src" / "turbowdm" / "codes"


# name: (n, m, column weight, seed)
CODES = {
    # toy (3,6)-regular code for oracle tests
    "toy_n20": (20, 10, 3, 7),
    # desk-scale rate-4/5 code
    "rate45_n2048": (2048, 410, 3, 11),
    # full-scale rate-4/5 code (block length matching the paper preset)
    "rate45_n20480": (20480, 4096, 3, 13),
}


def emit(name: str, out_dir: Path) -> Path:
    """Build code ``name`` of CODES and write its parity file into ``out_dir``."""
    n, m, col_weight, seed = CODES[name]
    code = make_regular_code(n, m, col_weight=col_weight, seed=seed)
    path = out_dir / f"{name}.txt"
    save_parity(path, n, code.check_rows)
    print(f"{name}: n={code.n} m={code.m} k={code.k} rate={float(code.rate):.4f}")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        built = {name: emit(name, Path(tmp)).read_bytes() for name in CODES}
    changed = [
        name for name, data in built.items()
        if (OUT / f"{name}.txt").exists() and (OUT / f"{name}.txt").read_bytes() != data
    ]
    if changed:
        print(f"would change {', '.join(changed)}; nothing written", file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    for name, data in built.items():
        if not (OUT / f"{name}.txt").exists():
            (OUT / f"{name}.txt").write_bytes(data)
            print(f"wrote {OUT / name}.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
