"""Generate the bundled LDPC parity-check files.

Run from the repository root:  python scripts/gen_codes.py
"""

import sys
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


def emit(name: str, n: int, m: int, col_weight: int, seed: int) -> None:
    code = make_regular_code(n, m, col_weight=col_weight, seed=seed)
    save_parity(OUT / f"{name}.txt", n, code.check_rows)
    print(f"{name}: n={code.n} m={code.m} k={code.k} rate={float(code.rate):.4f}")


if __name__ == "__main__":
    OUT.mkdir(parents=True, exist_ok=True)
    for name, (n, m, col_weight, seed) in CODES.items():
        emit(name, n, m, col_weight, seed)
