import functools
import itertools

import numpy as np
import pytest

from turbowdm.constellation import L_MAX
from turbowdm.fec import (
    STALL,
    FecError,
    LdpcCode,
    code_header,
    decode,
    frame_order,
)
from turbowdm.harness import _load_code

from conftest import load_script

# the code construction and the parity-file writer live in the script
# that builds the bundled codes
GEN_CODES = load_script("gen_codes")
make_regular_code, save_parity = GEN_CODES.make_regular_code, GEN_CODES.save_parity


def _gf2_row_reduce(h: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Dense GF(2) reduction to reduced row echelon form with the leftmost
    pivot; returns (reduced, pivot columns). Reference for the packed encoder."""
    h = h.copy()
    m, n = h.shape
    pivots: list[int] = []
    r = 0
    for col in range(n):
        if r >= m:
            break
        rows = np.nonzero(h[r:, col])[0]
        if rows.size == 0:
            continue
        pr = r + rows[0]
        if pr != r:
            h[[r, pr]] = h[[pr, r]]
        elim = np.nonzero(h[:, col])[0]
        elim = elim[elim != r]
        h[elim] ^= h[r]
        pivots.append(col)
        r += 1
    return h, pivots


def reference_build(code: LdpcCode) -> dict:
    """Gauss-Jordan elimination one pivot at a time, each one XOR over the
    bit-packed rows right of its word: the encoder build that the
    word-blocked elimination replaced. Oracle for ``LdpcCode._enc`` and k."""
    h = np.zeros((code.m, -(-code.n // 64)), dtype=np.uint64)
    bit = np.left_shift(np.uint64(1), (code.edge_var % 64).astype(np.uint64))
    np.bitwise_or.at(h, (code.edge_check, code.edge_var // 64), bit)
    pivots: list[int] = []
    for col in range(code.n):
        r = len(pivots)
        if r == code.m:
            break
        w = col // 64
        rows = np.flatnonzero((h[:, w] >> np.uint64(col % 64)) & np.uint64(1))
        below = rows[rows >= r]
        if below.size == 0:
            continue
        pr = below[0]
        if pr != r:
            h[[r, pr]] = h[[pr, r]]
        elim = rows[rows != pr]
        h[elim, w:] ^= h[r, w:]
        pivots.append(col)
    return {
        "pivot_cols": np.asarray(pivots, dtype=int),
        "info_cols": np.setdiff1d(np.arange(code.n), pivots),
        "rows": h[: len(pivots)],
        "k": code.n - len(pivots),
    }


def _transpose_packed(a: np.ndarray, n_cols: int) -> np.ndarray:
    """Transpose of the bit-packed rows ``a`` of an (a.shape[0] x n_cols)
    GF(2) matrix, bit-packed the same way; one 64-column word at a time."""
    rows = a.shape[0]
    out = np.zeros((64 * a.shape[1], -(-rows // 64)), dtype=np.uint64)
    for w in range(a.shape[1]):
        word = np.ascontiguousarray(a[:, w]).view(np.uint8).reshape(rows, 8)
        bits = np.unpackbits(word, axis=1, bitorder="little")
        block = np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")
        out[64 * w : 64 * w + 64].view(np.uint8)[:, : block.shape[1]] = block
    return out[:n_cols]


def _times_h(t: np.ndarray, code: LdpcCode) -> np.ndarray:
    """T H over GF(2) for the bit-packed rows T of a (rank x checks) matrix,
    bit-packed as ``reference_build``'s rows: column c of T H is the XOR of
    the columns of T at the checks of column c."""
    t_cols = _transpose_packed(t, code.nonempty_rows.size)
    th_cols = np.zeros((64 * -(-code.n // 64), t_cols.shape[1]), dtype=np.uint64)
    np.bitwise_xor.at(th_cols, code.edge_var, t_cols[code.edge_check])
    return _transpose_packed(th_cols, t.shape[0])


# small codes that reach each branch of the word-blocked elimination
BLOCKED_CASES = [
    "regular_100x50",
    "rank_deficient",
    "repeated_word",
    *(f"random_300x120_dup{d}" for d in range(4)),
    "late_pivots",
]


def _dense_parity_check(code: LdpcCode) -> np.ndarray:
    h = np.zeros((code.m, code.n), dtype=np.uint8)
    for i, r in enumerate(code.check_rows):
        h[i, r] = 1
    return h


def _oracle_code(name: str) -> LdpcCode:
    if name == "regular_100x50":
        # n is not a multiple of 64: the last packed word is padded
        return make_regular_code(100, 50, col_weight=3, seed=4)
    if name == "rank_deficient":
        rows = make_regular_code(100, 50, col_weight=3, seed=4).check_rows
        return LdpcCode(n=100, check_rows=rows + [rows[7]])
    if name == "repeated_word":
        # columns 64-127 repeat columns 0-63: a word with bits but no pivot
        # before the pivots of word 2; three duplicated rows lower the rank
        rows = make_regular_code(236, 120, col_weight=3, seed=5).check_rows
        rows = [sorted([c + 64 * (c >= 64) for c in r] + [c + 64 for c in r if c < 64]) for r in rows]
        return LdpcCode(n=300, check_rows=rows + rows[10:13])
    if name == "late_pivots":
        # full rank, yet columns 0-127 reach only rows 0-19: the pivots run
        # past the first ceil(m / 64) + 1 words, so the encoder's prefix of
        # H has to widen
        early = make_regular_code(128, 20, col_weight=3, seed=6).check_rows
        rows = make_regular_code(472, 120, col_weight=3, seed=7).check_rows
        rows = [(early[i] if i < 20 else []) + [c + 128 for c in r] for i, r in enumerate(rows)]
        return LdpcCode(n=600, check_rows=rows)
    if name.startswith("random_300x120_dup"):
        dup = int(name[-1])
        rows = make_regular_code(300, 120, col_weight=3, seed=20 + dup).check_rows
        return LdpcCode(n=300, check_rows=rows + rows[3 : 3 + 7 * dup : 7])
    return _load_code(name)


@pytest.fixture(scope="module")
def gen_codes():
    """scripts/gen_codes.py, imported as a module."""
    return GEN_CODES


@pytest.fixture(scope="module")
def codes():
    """Each oracle code, built once for the module."""
    return functools.cache(_oracle_code)


@pytest.fixture(scope="module")
def references(codes):
    """``reference_build`` of each oracle code, run once for the module."""
    return functools.cache(lambda name: reference_build(codes(name)))


@pytest.fixture(scope="module")
def toy(codes):
    return codes("toy_n20")


@pytest.fixture(scope="module")
def toy_codebook(toy):
    words = []
    for bits in itertools.product((0, 1), repeat=toy.k):
        words.append(toy.encode(np.array(bits, dtype=np.uint8)))
    return np.array(words)


class TestParityFile:
    def test_roundtrip(self, tmp_path, toy):
        p = tmp_path / "code.txt"
        save_parity(p, toy.n, toy.check_rows)
        again = LdpcCode.from_file(p)
        assert again.n == toy.n and again.check_rows == toy.check_rows

    def test_bad_index(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("4 1\n0 9\n")
        with pytest.raises(FecError, match="column index out of range in row 0"):
            LdpcCode.from_file(p)

    def test_repeated_index(self, tmp_path):
        # the encoder would count the edge once and the syndrome twice
        p = tmp_path / "repeated.txt"
        p.write_text("4 2\n0 1\n1 3 1\n")
        with pytest.raises(FecError, match="repeated column index in row 1"):
            LdpcCode.from_file(p)

    def test_missing_rows(self, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("4 3\n0 1\n1 3\n")
        with pytest.raises(FecError, match="header states 3 rows, file has 2"):
            LdpcCode.from_file(p)

    def test_extra_rows(self, tmp_path):
        p = tmp_path / "long.txt"
        p.write_text("4 1\n0 1\n2 3\n")
        with pytest.raises(FecError, match="header states 1 rows, file has more"):
            LdpcCode.from_file(p)
        # blank lines after the rows are not rows
        p.write_text("4 1\n0 1\n\n \n")
        assert LdpcCode.from_file(p).check_rows == [[0, 1]]

    @pytest.mark.parametrize("text", ["", "4\n0 1\n", "4 1 1\n0 1\n", "n m\n", "4 -1\n"])
    def test_malformed_header(self, tmp_path, text):
        # one reader of the header line "n m" serves the load and the config
        p = tmp_path / "header.txt"
        p.write_text(text)
        with pytest.raises(FecError, match="header line"):
            code_header(p)
        with pytest.raises(FecError, match="header line"):
            LdpcCode.from_file(p)
        p.write_text("4 1\n0 1\n")
        assert code_header(p) == (4, 1)

    def test_empty_last_row_kept(self, tmp_path):
        p = tmp_path / "empty_row.txt"
        save_parity(p, 4, [[0, 1], []])
        assert LdpcCode.from_file(p).check_rows == [[0, 1], []]

    @pytest.mark.parametrize("name", ["toy_n20", "rate45_n2048"])
    def test_bundled_codes_match_generator(self, gen_codes, tmp_path, name):
        # byte for byte: a change in numpy's random stream shows here first
        made = gen_codes.emit(name, tmp_path).read_bytes()
        assert made == (gen_codes.OUT / f"{name}.txt").read_bytes()

    def test_generator_help_leaves_bundled_codes_untouched(self, gen_codes, capsys):
        def snapshot():
            return {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in gen_codes.OUT.iterdir()}

        before = snapshot()
        with pytest.raises(SystemExit) as exc:
            gen_codes.main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")
        assert snapshot() == before


class TestEncode:
    def test_all_zero(self, toy):
        np.testing.assert_array_equal(toy.encode(np.zeros(toy.k, dtype=np.uint8)), 0)

    def test_parity_satisfied(self, toy):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cw = toy.encode(rng.integers(0, 2, toy.k).astype(np.uint8))
            assert toy.check(cw)

    def test_systematic(self, toy):
        rng = np.random.default_rng(1)
        info = rng.integers(0, 2, toy.k).astype(np.uint8)
        cw = toy.encode(info)
        np.testing.assert_array_equal(cw[toy.info_positions], info)

    def test_gf2_solve_oracle(self):
        # dense GF(2) linear solve agrees with the encoder on a fresh code
        code = make_regular_code(16, 8, col_weight=3, seed=3)
        h = _dense_parity_check(code)
        rng = np.random.default_rng(2)
        info = rng.integers(0, 2, code.k).astype(np.uint8)
        cw = code.encode(info)
        assert not np.any((h @ cw.astype(int)) % 2)
        np.testing.assert_array_equal(cw[code.info_positions], info)

    @pytest.mark.parametrize(
        "rows, named",
        [
            ([[0, 1, 1, 2], [2, 3, 4], [1, 4, 5]], "repeated column index in row 0"),
            ([[0, 1], [2, 6]], "column index out of range in row 1"),
            ([[-1, 2]], "column index out of range in row 0"),
        ],
    )
    def test_rows_checked_on_construction(self, rows, named):
        # a repeated index would give an encoder whose words fail check
        with pytest.raises(FecError, match=named):
            LdpcCode(n=6, check_rows=rows)

    def test_wrong_length(self, toy):
        with pytest.raises(FecError):
            toy.encode(np.zeros(toy.k + 1, dtype=np.uint8))

    def test_declared_rate(self, codes):
        big = codes("rate45_n2048")
        assert abs(float(big.rate) - 0.8) < 0.01
        assert big.k == big.n - 410


class TestEncoderOracle:
    @pytest.mark.parametrize(
        "name", ["toy_n20", "rate45_n2048", "regular_100x50", "rank_deficient"]
    )
    def test_matches_dense_reduction(self, name, codes):
        code = codes(name)
        red, pivots = _gf2_row_reduce(_dense_parity_check(code))
        info_cols = np.setdiff1d(np.arange(code.n), pivots)
        a_info = red[: len(pivots)][:, info_cols].astype(np.int64)
        if name == "rank_deficient":
            assert len(pivots) < code.m
        np.testing.assert_array_equal(code._enc["pivot_cols"], pivots)
        np.testing.assert_array_equal(code.info_positions, info_cols)
        assert code.k == code.n - len(pivots)
        rng = np.random.default_rng(10)
        for _ in range(5):
            info = rng.integers(0, 2, code.k).astype(np.uint8)
            ref = np.zeros(code.n, dtype=np.uint8)
            ref[info_cols] = info
            ref[pivots] = (a_info @ info) & 1
            np.testing.assert_array_equal(code.encode(info), ref)
            assert code.check(ref)

    @pytest.mark.parametrize("name", ["toy_n20", "rate45_n2048", "rate45_n20480", *BLOCKED_CASES])
    def test_matches_reference_build(self, name, codes, references):
        code, ref = codes(name), references(name)
        for key in ("pivot_cols", "info_cols"):
            assert code._enc[key].dtype == ref[key].dtype
            np.testing.assert_array_equal(code._enc[key], ref[key])
        assert code.k == ref["k"]
        # T H is the reduced form of H
        np.testing.assert_array_equal(_times_h(code._enc["inverse"], code), ref["rows"])

    def test_late_pivots_widen_the_prefix(self, codes):
        code = codes("late_pivots")
        assert code.k == code.n - code.m
        assert code._enc["pivot_cols"][-1] >= 64 * (-(-code.m // 64) + 1)

    def test_cases_reach_every_branch(self, codes, references):
        # the regimes of the word-blocked elimination, read off the
        # reference pivots of BLOCKED_CASES
        seen = set()
        for name in BLOCKED_CASES:
            code, piv = codes(name), references(name)["pivot_cols"]
            nw = -(-code.n // 64)
            per_word = np.bincount(piv // 64, minlength=nw)
            last = piv[-1] // 64
            if code.n % 64:
                seen.add("n not a multiple of 64")
            if code.m > 64:
                seen.add("m > 64")
            if (per_word[:last] == 0).any():
                seen.add("a word with no pivot before the last pivot")
            if ((per_word % 8 != 0) & (per_word > 8)).any():
                seen.add("a pivot count not a multiple of 8")
            for w in np.flatnonzero(per_word):
                in_word = piv[piv // 64 == w]
                if in_word[-1] - in_word[0] + 1 > in_word.size:
                    seen.add("a column without pivot inside a word")
            if piv[-1] % 64 != 63:
                seen.add("rank deficient, last pivot mid-word" if piv.size < code.m else "full rank mid-word")
        assert seen == {
            "n not a multiple of 64",
            "m > 64",
            "a word with no pivot before the last pivot",
            "a pivot count not a multiple of 8",
            "a column without pivot inside a word",
            "rank deficient, last pivot mid-word",
            "full rank mid-word",
        }

    def test_encoder_state_read_only(self, toy):
        with pytest.raises(ValueError):
            toy.info_positions[0] = 0


class TestInterleaver:
    """``frame_order``: the interleaver of a frame, one permutation per block."""

    def test_identity_like_roundtrip(self):
        order = frame_order(64, 3, seed=5)
        rng = np.random.default_rng(3)
        for x in (rng.integers(0, 2, 192), rng.normal(size=192)):
            np.testing.assert_array_equal(x[order][np.argsort(order)], x)

    def test_deterministic(self):
        a = frame_order(128, 2, seed=9)
        np.testing.assert_array_equal(a, frame_order(128, 2, seed=9))
        assert not np.array_equal(a, frame_order(128, 2, seed=10))
        # block b of seed s is block b - 1 of seed s + 1
        np.testing.assert_array_equal(a[128:] - 128, frame_order(128, 1, seed=10))

    def test_fixture_permutation(self):
        # frozen prefix guards against silent RNG convention drift
        np.testing.assert_array_equal(frame_order(8, 1, seed=0), [2, 4, 3, 6, 5, 0, 1, 7])


def _llr_of_bits(bits, mag=20.0):
    return mag * (2.0 * np.asarray(bits, dtype=float) - 1.0)


@pytest.mark.parametrize("rows", [[[], [0, 1]], [[0, 1], []]])
class TestEmptyCheckRow:
    """An empty row of H is satisfied by every word, wherever it stands."""

    def test_syndrome_and_check(self, rows):
        code = LdpcCode(4, rows)
        np.testing.assert_array_equal(code.syndrome([1, 1, 0, 0]), [0, 0])
        np.testing.assert_array_equal(
            code.syndrome([1, 0, 0, 0]), [int(r == [0, 1]) for r in rows]
        )
        assert code.check([1, 1, 0, 0]) and not code.check([1, 0, 0, 0])
        assert code.k == 3

    def test_decode_matches_code_without_it(self, rows):
        # the parity check fails at the start, so messages are passed
        llr = np.array([2.0, -0.5, 1.0, -1.0])
        out = decode(llr, LdpcCode(4, rows), 10)
        ref = decode(llr, LdpcCode(4, [[0, 1]]), 10)
        np.testing.assert_array_equal(out[0], ref[0])
        np.testing.assert_array_equal(out[1], ref[1])
        assert out[2:] == ref[2:] == (True, 1)


class TestDecode:
    def test_noiseless_converges_immediately(self, toy):
        rng = np.random.default_rng(4)
        cw = toy.encode(rng.integers(0, 2, toy.k).astype(np.uint8))
        app, hard, ok, iters = decode(_llr_of_bits(cw), toy)
        assert ok and iters == 0
        np.testing.assert_array_equal(hard, cw)
        np.testing.assert_array_equal((app > 0).astype(np.uint8), cw)

    def test_single_flip_corrected(self, toy):
        rng = np.random.default_rng(5)
        cw = toy.encode(rng.integers(0, 2, toy.k).astype(np.uint8))
        llr = _llr_of_bits(cw, mag=6.0)
        llr[7] = -llr[7]
        app, hard, ok, _ = decode(llr, toy)
        assert ok
        np.testing.assert_array_equal(hard, cw)

    def test_zero_llrs_do_not_converge(self, toy):
        _, _, ok, iters = decode(np.zeros(toy.n), toy, max_iter=10)
        assert not ok and iters == 10

    def test_zero_llrs_stop_once_stalled(self, toy):
        # no check is unsatisfied at any iteration, but the erasures stay
        _, _, ok, iters = decode(np.zeros(toy.n), toy, max_iter=50)
        assert not ok and iters == STALL

    def test_app_sign_matches_hard(self, toy):
        rng = np.random.default_rng(6)
        cw = toy.encode(rng.integers(0, 2, toy.k).astype(np.uint8))
        noisy = _llr_of_bits(cw, 2.0) + rng.normal(0, 2.0, toy.n)
        app, hard, _, _ = decode(noisy, toy)
        np.testing.assert_array_equal((app > 0).astype(np.uint8), hard)

    def test_converged_means_zero_syndrome(self, toy):
        rng = np.random.default_rng(7)
        cw = toy.encode(rng.integers(0, 2, toy.k).astype(np.uint8))
        noisy = _llr_of_bits(cw, 2.0) + rng.normal(0, 1.5, toy.n)
        _, hard, ok, _ = decode(noisy, toy)
        if ok:
            assert toy.check(hard)

    def test_matches_ml_at_high_snr(self, toy, toy_codebook):
        # exhaustive maximum-likelihood oracle over all 2^k codewords
        rng = np.random.default_rng(8)
        sigma = 0.45
        agree = 0
        trials = 200
        for _ in range(trials):
            cw = toy_codebook[rng.integers(len(toy_codebook))]
            x = 2.0 * cw - 1.0 + rng.normal(0, sigma, toy.n)
            llr = 2.0 * x / sigma**2
            _, hard, ok, _ = decode(llr, toy, max_iter=50)
            ml = toy_codebook[
                np.argmin(np.sum((x[None] - (2.0 * toy_codebook - 1.0)) ** 2, axis=1))
            ]
            if ok and np.array_equal(hard, ml):
                agree += 1
        assert agree >= 0.99 * trials

    @pytest.mark.parametrize(
        "rows, named",
        [
            ([[0, 1, 1, 2], [2, 3, 4], [1, 4, 5]], "repeated column index in row 0"),
            ([[0, 1], [2, 6]], "column index out of range in row 1"),
            ([[-1, 2]], "column index out of range in row 0"),
        ],
    )
    def test_rows_checked_on_construction(self, rows, named):
        # a repeated index would give an encoder whose words fail check
        with pytest.raises(FecError, match=named):
            LdpcCode(n=6, check_rows=rows)

    def test_wrong_length(self, toy):
        with pytest.raises(FecError):
            decode(np.zeros(toy.n + 1), toy)


def reference_decode(llrs, code, max_iter=50, stall=STALL):
    """Sum-product decoding with sign arrays, phi(x) = -ln tanh(x/2) and a
    clip at every stage, stopped once the syndrome weight has stayed the
    same for ``stall`` consecutive iterations (``stall=None``: never).
    Oracle for ``decode``."""

    def phi(x):
        x = np.clip(x, 1e-12, L_MAX)
        return -np.log(np.tanh(0.5 * x))

    def settled(a):
        return bool(np.all(a != 0.0)) and code.check((a < 0).astype(np.uint8))

    def weight(a):
        return int(code.syndrome((a < 0).astype(np.uint8)).sum())

    lam = np.clip(-np.asarray(llrs, dtype=float), -L_MAX, L_MAX)
    ev, ec, starts = code.edge_var, code.edge_check, code.check_starts
    m_cv = np.zeros(ev.size)
    app = lam
    it_used = 0
    converged = settled(app)
    last, since = weight(app), 0
    if not converged:
        for it in range(1, max_iter + 1):
            it_used = it
            m_vc = np.clip(app[ev] - m_cv, -L_MAX, L_MAX)
            sign = np.where(m_vc < 0, -1.0, 1.0)
            par = np.add.reduceat((m_vc < 0).astype(np.int64), starts) & 1
            mag = phi(np.abs(m_vc))
            mag_sum = np.add.reduceat(mag, starts)
            ext_mag = phi(np.clip(mag_sum[ec] - mag, 1e-12, None))
            ext_sign = np.where(par[ec], -1.0, 1.0) * sign
            m_cv = np.clip(ext_sign * ext_mag, -L_MAX, L_MAX)
            app = lam + np.bincount(ev, weights=m_cv, minlength=code.n)
            if settled(app):
                converged = True
                break
            w = weight(app)
            since = since + 1 if w == last else 0
            last = w
            if since == stall:
                break
    hard = (app < 0).astype(np.uint8)
    return np.clip(-app, -L_MAX, L_MAX), hard, converged, it_used


def _decoder_case(code, case, rng):
    """(L-values, max_iter) for one oracle case; the case's regime is
    asserted on the reference result in the test."""
    cw = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
    sigma = 0.8
    x = 2.0 * cw - 1.0 + rng.normal(0, sigma, code.n)
    llr = 2.0 * x / sigma**2
    if case == "erasures":
        llr[rng.choice(code.n, code.n // 10, replace=False)] = 0.0
    elif case == "saturated":
        # |L| far beyond L_MAX, some of them with the wrong sign
        llr *= 25.0
        llr[rng.choice(code.n, 1 + code.n // 100, replace=False)] *= -1.0
    elif case == "valid_at_start":
        llr = _llr_of_bits(cw, mag=3.0)
    elif case == "exhausted":
        return rng.normal(0, 1.0, code.n), 4
    return llr, 50


@pytest.fixture(scope="module", params=["toy_n20", "rate45_n2048", "rate45_n20480"])
def oracle_decode_code(request, codes):
    return codes(request.param)


class TestDecodeOracle:
    def test_phi_saturates_below_l_max(self):
        # decode drops the clips at L_MAX on phi's argument: they change no
        # bit because tanh(x/2) already rounds to 1 there
        assert np.tanh(0.5 * 38.0) == 1.0
        assert np.log(np.tanh(0.5 * L_MAX)) == 0.0

    @pytest.mark.parametrize("case", ["erasures", "saturated", "valid_at_start", "exhausted"])
    def test_bit_identical(self, oracle_decode_code, case):
        code = oracle_decode_code
        rng = np.random.default_rng(21)
        for _ in range(3):
            llr, max_iter = _decoder_case(code, case, rng)
            ref = reference_decode(llr, code, max_iter)
            out = decode(llr, code, max_iter)
            np.testing.assert_array_equal(out[0], ref[0])
            np.testing.assert_array_equal(out[1], ref[1])
            assert out[2:] == ref[2:]
            if case == "erasures":
                assert (llr == 0.0).any()
            elif case == "saturated":
                assert np.abs(llr).max() > L_MAX and ref[3] > 0
            elif case == "valid_at_start":
                assert ref[2:] == (True, 0)
            else:
                assert ref[2:] == (False, max_iter)
            if case == "erasures" and not ref[2]:
                # the erased block's unsatisfied-check count stalls
                assert ref[3] < max_iter

    def test_converging_blocks_unchanged_by_stall_rule(self, codes):
        # BPSK-AWGN across the waterfall of the rate-4/5 code (Es/N0 in dB;
        # about 30% of blocks converge at 1.5, all but a few at 2.25): every
        # block that the decoder without the stall rule brings to a codeword
        # within 50 iterations comes out the same bit for bit
        code = codes("rate45_n2048")
        rng = np.random.default_rng(31)
        slowest = stopped = 0
        for snr_db in (1.5, 1.75, 2.0, 2.25):
            sigma = np.sqrt(0.5 / 10 ** (snr_db / 10.0))
            for _ in range(50):
                cw = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
                llr = 2.0 * (2.0 * cw - 1.0 + rng.normal(0, sigma, code.n)) / sigma**2
                ref = reference_decode(llr, code, 50, stall=None)
                out = decode(llr, code, 50)
                if ref[2]:
                    np.testing.assert_array_equal(out[0], ref[0])
                    np.testing.assert_array_equal(out[1], ref[1])
                    assert out[2:] == ref[2:]
                    slowest = max(slowest, ref[3])
                else:
                    stopped += out[3] < 50
        # the corpus holds blocks that converge long after STALL iterations
        # and failing blocks that the rule stops
        assert slowest > STALL and stopped > 0


class TestBigCode:
    def test_awgn_waterfall_sanity(self, codes):
        # the desk-scale code must correct comfortably above threshold
        code = codes("rate45_n2048")
        rng = np.random.default_rng(9)
        cw = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
        snr_db = 6.0  # Es/N0 for BPSK, well above the rate-4/5 threshold
        sigma = np.sqrt(0.5 / 10 ** (snr_db / 10.0))
        x = 2.0 * cw - 1.0 + rng.normal(0, sigma, code.n)
        llr = 2.0 * x / sigma**2
        _, hard, ok, _ = decode(llr, code)
        assert ok
        np.testing.assert_array_equal(hard, cw)

    def test_paper_code_encodes(self, codes):
        code = codes("rate45_n20480")
        assert code.k == 16384
        rng = np.random.default_rng(11)
        for _ in range(3):
            info = rng.integers(0, 2, code.k).astype(np.uint8)
            cw = code.encode(info)
            assert code.check(cw)
            np.testing.assert_array_equal(cw[code.info_positions], info)
