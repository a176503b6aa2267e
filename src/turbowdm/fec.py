"""LDPC coding: parity-check file parsing, systematic encoding, the
interleaved frame order, and soft-output sum-product decoding.

Parity-check file format: first line "n m", then m lines of space-separated
0-based column indices (one line per check row). ``scripts/gen_codes.py``
builds and writes the bundled files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .constellation import L_MAX


class FecError(ValueError):
    pass


def code_header(path: str | Path) -> tuple[int, int]:
    """(n, m) off the first line of the parity file at ``path``, building no code."""
    with Path(path).open() as f:
        head = f.readline().split()
    if len(head) != 2 or not all(map(str.isdigit, head)):
        raise FecError(f"header line {' '.join(head)!r} is not 'n m'")
    return int(head[0]), int(head[1])


def _gf2_rref(h: np.ndarray, n: int) -> list[int]:
    """Reduce the bit-packed GF(2) matrix ``h`` (bit c % 64 of word c // 64
    holds column c) in place to reduced row echelon form with the leftmost
    pivots, one pivot at a time; returns the pivot columns. A pivot row is
    zero left of its column, so each row XOR starts at the pivot's word."""
    m = h.shape[0]
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        w = col // 64
        rows = np.flatnonzero((h[:, w] >> np.uint64(col % 64)) & np.uint64(1))
        below = rows[rows >= r]
        if not below.size:
            continue
        if below[0] != r:
            h[[r, below[0]]] = h[[below[0], r]]
        h[rows[rows != below[0]], w:] ^= h[r, w:]
        pivots.append(col)
    return pivots


@dataclass
class LdpcCode:
    """Binary LDPC code defined by its sparse parity-check matrix.

    Encoding is systematic over the non-pivot (information) columns. The
    parity bits p at the pivot columns solve H_P p = H u, u being the word
    with the information bits and zeros at the pivots, so p = T (H u) with
    T, the inverse of the pivot block H_P, held as bit-packed rows. T comes
    from reducing [H_left | I]: H_left, a prefix of whole 64-column words
    of H that holds every pivot, becomes the reduced row echelon form of H
    on those columns, and the identity records the row operations. That
    form, with the leftmost pivots, is unique, so the pivots, T and every
    codeword depend neither on how the elimination is ordered nor on the
    prefix. A lower-triangular staircase of pivot columns, as in the bundled
    n = 20480 code, takes at most two row XORs per pivot.

    Instances are shared between cells (``harness._load_code`` caches them
    per process), so nothing may mutate a code after construction, the
    encoder state in ``_enc`` included; its arrays are read-only.
    """

    n: int
    check_rows: list[list[int]]
    _enc: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.m = len(self.check_rows)
        for i, row in enumerate(self.check_rows):
            if row and (min(row) < 0 or max(row) >= self.n):
                raise FecError(f"column index out of range in row {i}")
            if len(set(row)) < len(row):
                # the syndrome would count the edge twice, the encoder once
                raise FecError(f"repeated column index in row {i}")
        # flat edge arrays for vectorized message passing, grouped by check.
        # An empty row is satisfied by every word, so the checks are the rows
        # with edges: check i is row nonempty_rows[i], and its edges start at
        # check_starts[i] (a reduceat segment of length 0 would not sum to 0)
        lengths = np.array([len(r) for r in self.check_rows], dtype=int)
        self.nonempty_rows = np.flatnonzero(lengths)
        self.edge_check = np.repeat(np.arange(self.nonempty_rows.size), lengths[self.nonempty_rows])
        self.edge_var = np.concatenate([np.asarray(r, dtype=int) for r in self.check_rows])
        self.check_starts = (np.cumsum(lengths) - lengths)[self.nonempty_rows]
        self._build_encoder()

    @classmethod
    def from_file(cls, path: str | Path) -> "LdpcCode":
        n, m = code_header(path)
        lines = Path(path).read_text().splitlines()
        if len(lines) - 1 < m:
            raise FecError(f"header states {m} rows, file has {len(lines) - 1}")
        if any(line.strip() for line in lines[m + 1 :]):
            raise FecError(f"header states {m} rows, file has more")
        return cls(n=n, check_rows=[sorted(map(int, line.split())) for line in lines[1 : m + 1]])

    def _build_encoder(self) -> None:
        m, nw = self.nonempty_rows.size, -(-self.n // 64)
        mw = -(-m // 64)
        eye = np.arange(m)
        # start one word past the square block and double the prefix while
        # it holds fewer than m pivots, so a rank-deficient code ends with
        # all of H
        width = min(nw, mw + 1)
        while True:
            # [H_left | I_m] as bit-packed rows: bit c % 64 of word c // 64
            # holds column c
            left = self.edge_var < 64 * width
            row = np.concatenate([self.edge_check[left], eye])
            col = np.concatenate([self.edge_var[left], 64 * width + eye])
            h = np.zeros((m, width + mw), dtype=np.uint64)
            bit = np.left_shift(np.uint64(1), (col % 64).astype(np.uint64))
            np.bitwise_or.at(h, (row, col // 64), bit)
            pivots = _gf2_rref(h, 64 * width)
            rank = len(pivots)
            if rank == m or width == nw:
                break
            width = min(nw, 2 * width)
        self._enc["pivot_cols"] = np.asarray(pivots, dtype=int)
        self._enc["info_cols"] = np.setdiff1d(np.arange(self.n), pivots)
        # row i of T H is reduced row i of H: the parity bit at pivot i
        self._enc["inverse"] = h[:rank, width:].copy()
        for a in self._enc.values():
            a.flags.writeable = False
        self.k = self.n - rank

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)

    @property
    def info_positions(self) -> np.ndarray:
        return self._enc["info_cols"]

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        info_bits = np.asarray(info_bits, dtype=np.uint8)
        if info_bits.size != self.k:
            raise FecError(f"expected {self.k} info bits, got {info_bits.size}")
        t = self._enc["inverse"]
        cw = np.zeros(self.n, dtype=np.uint8)
        cw[self._enc["info_cols"]] = info_bits
        # the pivot positions are still zero: H cw is the syndrome of u
        s = np.zeros(64 * t.shape[1], dtype=np.uint8)
        s[: self.nonempty_rows.size] = self.syndrome(cw)[self.nonempty_rows]
        s = np.packbits(s, bitorder="little").view("<u8")
        cw[self._enc["pivot_cols"]] = np.bitwise_count(t & s).sum(axis=1) & 1
        return cw

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        """H bits mod 2, one entry per check row."""
        bits = np.asarray(bits, dtype=np.int64)
        out = np.zeros(self.m, dtype=np.int64)
        out[self.nonempty_rows] = np.add.reduceat(bits[self.edge_var], self.check_starts) & 1
        return out

    def check(self, bits: np.ndarray) -> bool:
        return not self.syndrome(bits).any()


_PHI_MIN = 1e-12
# sum-product iterations a block runs at most (see ``decode``)
MAX_ITER = 50
# a block stops once its unsatisfied-check count has stayed the same for
# this many consecutive iterations (see ``decode``)
STALL = 12


def _log_tanh_half(x: np.ndarray) -> np.ndarray:
    # ln tanh(x/2) = -phi(x), phi being the self-inverse check-node map;
    # in place on x, whose entries must be at least _PHI_MIN. tanh(x/2)
    # rounds to 1 from x = 38 on, so any x >= L_MAX gives exactly 0 and
    # clipping x at L_MAX would change no bit.
    x *= 0.5
    return np.log(np.tanh(x, out=x), out=x)


def decode(
    llrs: np.ndarray, code: LdpcCode, max_iter: int = MAX_ITER
) -> tuple[np.ndarray, np.ndarray, bool, int]:
    """Flooding sum-product decoding.

    ``llrs`` follow the package convention L = ln P(1)/P(0). Returns
    (a-posteriori L-values, hard bits, converged flag, iterations run).

    A block converges once its hard decisions satisfy every check and no
    L-value is exactly zero. It stops without converging after ``max_iter``
    iterations, or once its count of unsatisfied checks has stayed the same
    for ``STALL`` consecutive iterations (iteration 0, the channel L-values,
    included): a stopping criterion on that count, as in Kienle & Wehn
    (IEEE VTC 2005-Spring). Such a block is stuck; in turbo equalization
    the next outer iteration gives it another try.
    """
    llrs = np.asarray(llrs, dtype=float)
    if llrs.size != code.n:
        raise FecError(f"expected {code.n} L-values, got {llrs.size}")
    # classic SPA formulas assume L = ln P(0)/P(1); flip in and out
    lam = np.clip(-llrs, -L_MAX, L_MAX)
    ev, ec, starts = code.edge_var, code.edge_check, code.check_starts
    m_cv = np.zeros(ev.size)
    app = lam

    def unsatisfied(g: np.ndarray) -> int:
        # parity of the hard decisions from g = app[ev], the gather the next
        # iteration starts from
        return int(np.count_nonzero(np.logical_xor.reduceat(g < 0, starts)))

    def settled(a: np.ndarray, unsat: int) -> bool:
        # exact-zero L-values are erasures, whose hard decision is undefined
        return unsat == 0 and bool(np.all(a != 0.0))

    g = app[ev]
    unsat = unsatisfied(g)
    converged = settled(app, unsat)
    it_used = stalled = 0
    while not converged and it_used < max_iter and stalled < STALL:
        it_used += 1
        m_vc = g
        m_vc -= m_cv
        neg = m_vc < 0
        # an outgoing message is negative where the signs of the check's
        # other incoming messages multiply to -1
        flip = neg ^ np.logical_xor.reduceat(neg, starts)[ec]
        # t = -phi(|m_vc|). Negated terms sum to the negated sum exactly,
        # so t - sum(t) over the check is phi's sum over the other edges.
        t = _log_tanh_half(np.maximum(np.abs(m_vc, out=m_vc), _PHI_MIN, out=m_vc))
        t -= np.add.reduceat(t, starts)[ec]
        t = _log_tanh_half(np.maximum(t, _PHI_MIN, out=t))
        m_cv = np.where(flip, t, -t)
        app = lam + np.bincount(ev, weights=m_cv, minlength=code.n)
        g = app[ev]
        last, unsat = unsat, unsatisfied(g)
        converged = settled(app, unsat)
        stalled = stalled + 1 if unsat == last else 0
    hard = (app < 0).astype(np.uint8)
    return np.clip(-app, -L_MAX, L_MAX), hard, converged, it_used


def frame_order(n: int, nb: int, seed: int) -> np.ndarray:
    """Code-domain index b*n + i (bit i of codeword b) carried by each
    position of an interleaved frame of nb blocks, block b being permuted by
    ``default_rng(seed + b).permutation(n)``: one gather with it interleaves
    every block, and one with its inverse (argsort) deinterleaves them."""
    perm = np.stack([np.random.default_rng(seed + b).permutation(n) for b in range(nb)])
    return (perm + n * np.arange(nb)[:, None]).ravel()
