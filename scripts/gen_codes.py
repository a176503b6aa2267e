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

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from turbowdm.fec import LdpcCode  # noqa: E402

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


def make_regular_code(n: int, m: int, col_weight: int = 3, seed: int = 0) -> LdpcCode:
    """Random near-regular LDPC construction with double-edge avoidance and
    best-effort 4-cycle avoidance; adequate for desk-scale simulation codes.
    """
    rng = np.random.default_rng(seed)
    rows: list[set[int]] = [set() for _ in range(m)]
    row_load = np.zeros(m, dtype=int)
    pair_seen: set[tuple[int, int]] = set()
    for col in range(n):
        chosen: list[int] = []
        for _ in range(col_weight):
            order = np.lexsort((rng.random(m), row_load))
            placed = False
            for r in order:
                if r in chosen:
                    continue
                pairs = [(min(r, c), max(r, c)) for c in chosen]
                if any(p in pair_seen for p in pairs) and rng.random() < 0.95:
                    continue
                chosen.append(int(r))
                placed = True
                break
            if not placed:
                r = int(order[0]) if order[0] not in chosen else int(order[1])
                chosen.append(r)
        for r in chosen:
            rows[r].add(col)
            row_load[r] += 1
        for i in range(len(chosen)):
            for j in range(i + 1, len(chosen)):
                a, b = sorted((chosen[i], chosen[j]))
                pair_seen.add((a, b))
    return LdpcCode(n=n, check_rows=[sorted(r) for r in rows])


def save_parity(path: str | Path, n: int, rows: list[list[int]]) -> None:
    """Write a parity-check file in the format ``LdpcCode.from_file`` reads."""
    out = [f"{n} {len(rows)}"]
    out += [" ".join(str(c) for c in sorted(r)) for r in rows]
    Path(path).write_text("\n".join(out) + "\n")


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
