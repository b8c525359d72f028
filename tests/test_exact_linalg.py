import bisect
import functools
import itertools
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cokfluct import (
    BlockStructureError,
    cokernel_partition,
    padic_valuations,
    snf_diagonal,
    streaming_block_eliminate,
)
from cokfluct import exact_linalg
from cokfluct.ensembles import build_bidiagonal_embedding
from cokfluct.exact_linalg import det_bareiss, dets_vanish_mod, product_mod, rational_rank, residues
from helpers import (
    det_cofactor,
    random_elementary_ops,
    random_int_matrix,
    snf_via_minor_gcds,
    truncated_type,
)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    entry = st.integers(-10 ** 12, 10 ** 12)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def block_lower_triangular(draw):
    """(rows, block sizes, p) of a random block lower triangular matrix whose
    diagonal blocks may be scaled by p, p**2 or 0, so that the divide-by-p
    levels, saturation and free summands all occur."""
    p = draw(st.sampled_from([2, 3, 5]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    offs = [0, *itertools.accumulate(sizes)]
    n = offs[-1]
    rows = []
    for bi, size in enumerate(sizes):
        scale = draw(st.sampled_from([1, p, p * p, 0]))
        for _ in range(size):
            row = draw(st.lists(st.integers(-9, 9), min_size=offs[bi + 1], max_size=offs[bi + 1]))
            rows.append(row[:offs[bi]] + [x * scale for x in row[offs[bi]:]] + [0] * (n - offs[bi + 1]))
    return rows, sizes, p


def unimodular_times_diagonal(rng, sizes, diagonal):
    """Rows of M = U diag(diagonal) V for random U, V that are block lower
    triangular on `sizes` with unit triangular diagonal blocks, so M is
    block lower triangular, unimodularly equivalent to the diagonal, and its
    exact Smith form is that of the diagonal, whatever the size."""
    offs = [0, *itertools.accumulate(sizes)]
    n = offs[-1]
    factors = []
    for upper in (False, True):
        f = np.zeros((n, n), dtype=object)
        for bi in range(len(sizes)):
            for r in range(offs[bi], offs[bi + 1]):
                for c in range(offs[bi + 1]):
                    if c < offs[bi] or (c > r if upper else c < r):
                        f[r, c] = rng.randint(-2, 2)
                f[r, r] = 1
        factors.append(f)
    u, v = factors
    return np.dot(np.dot(u, np.diag(np.array(diagonal, dtype=object))), v).tolist()


def kernel_arithmetic(n, p, N):
    """The arithmetic the kernel runs on an n x n matrix mod p**N: float64
    on symmetric residues, else Python-int residues (object)."""
    return np.float64 if exact_linalg.float_exact(n, p ** N) else object


def assert_matches_exact(typ, rows, p, N, smith=None):
    """typ, the type mod p**N, is the exact type of cok(rows) truncated at N;
    `smith`, when given, is a matrix known to be equivalent to rows, e.g. its
    Smith form."""
    assert typ == truncated_type(*cokernel_partition(rows if smith is None else smith, p), N)


class TestSnfDiagonal:
    def test_identity(self):
        assert snf_diagonal(np.identity(2, dtype=np.int64)) == [1, 1]

    @pytest.mark.parametrize(
        "rows,expected",
        [
            ([[2, 0], [1, 3]], [1, 6]),   # gcd 1, |det| 6
            ([[4, 2], [2, 4]], [2, 6]),   # gcd 2, |det| 12
        ],
    )
    def test_small_examples_against_minor_oracle(self, rows, expected):
        assert snf_via_minor_gcds(rows) == expected
        assert snf_diagonal(rows) == expected

    def test_random_against_minor_oracle(self):
        rng = random.Random(1)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = random_int_matrix(rng, n)
            assert snf_diagonal(m) == snf_via_minor_gcds(m)

    def test_rectangular(self):
        m = [[2, 4, 6]]
        assert snf_diagonal(m) == [2]
        m = [[0, 0], [0, 0], [3, 0]]
        assert snf_diagonal(m) == [3, 0]

    def test_divisibility_chain_and_det(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(2, 4)
            m = random_int_matrix(rng, n)
            diag = snf_diagonal(m)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0 if a else b == 0
            det = det_cofactor(m)
            if det:
                prod = 1
                for d in diag:
                    prod *= d
                assert prod == abs(det)

    def test_unimodular_invariance(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(2, 4)
            m = random_int_matrix(rng, n)
            rows = random_elementary_ops(rng, m, rng.randint(1, 20), "row")
            rows = random_elementary_ops(rng, rows, rng.randint(1, 20), "col")
            assert snf_diagonal(rows) == snf_diagonal(m)

    @pytest.mark.parametrize("n,bound,singular", [(32, 100, True), (40, 9, False)])
    def test_large_matrix_invariants(self, n, bound, singular):
        # sizes no cofactor oracle reaches: chain, |det| and rank by Bareiss,
        # and invariance under unimodular row and column operations
        rng = random.Random(n)
        m = random_int_matrix(rng, n, -bound, bound)
        if singular:
            m[-1] = [sum(c * row[j] for c, row in zip((3, -2, 5), m)) for j in range(n)]
        diag = snf_diagonal(m)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
        det = det_bareiss(m)
        assert (det == 0) == singular
        if det:
            assert functools.reduce(operator.mul, diag) == abs(det)
        assert sum(1 for d in diag if d) == rational_rank(m) == n - singular
        rows = random_elementary_ops(rng, m, 40, "row")
        rows = random_elementary_ops(rng, rows, 40, "col")
        assert snf_diagonal(rows) == diag


class TestInputForms:
    EXACT = (
        snf_diagonal,
        det_bareiss,
        rational_rank,
        lambda m: cokernel_partition(m, 2),
    )

    @pytest.mark.parametrize(
        "bad",
        [
            [], [[]], [[1, 2], [3]], np.zeros(3, dtype=np.int64), np.zeros((0, 2), dtype=np.int64),
            # non-integer entries are rejected, never truncated
            [[2.5]], [[1.9, 0], [0, 1]], np.array([[0.5]]), np.array([[1j]]),
            np.array([[1.5]], dtype=object),
        ],
    )
    def test_malformed_input_rejected(self, bad):
        for f in self.EXACT:
            with pytest.raises(ValueError):
                f(bad)

    @settings(max_examples=100, deadline=None)
    @given(rows=square_matrices(), p=st.sampled_from([2, 3, 5]))
    def test_lists_int64_and_object_agree(self, rows, p):
        # entries up to 1e12: any product computed in int64 would overflow
        forms = (rows, np.array(rows, dtype=np.int64), np.array(rows, dtype=object))
        for f in (snf_diagonal, det_bareiss, rational_rank, lambda m: cokernel_partition(m, p)):
            first, *rest = (f(m) for m in forms)
            assert all(r == first for r in rest)

    @settings(max_examples=100, deadline=None)
    @given(rows=square_matrices(), p=st.sampled_from([2, 3, 5]), depth=st.integers(1, 5))
    def test_residue_backends_match_exact_type(self, rows, p, depth):
        for N, arithmetic in ((depth, np.float64), (depth + 40, object)):
            assert kernel_arithmetic(len(rows), p, N) is arithmetic
            for form in (np.array(rows, dtype=np.int64), np.array(rows, dtype=object)):
                assert_matches_exact(padic_valuations(form, p, N), rows, p, N)

    def test_kernel_rejects_non_integer_input(self):
        # floats, complex numbers and non-integer objects at every p, even
        # inside [0, p**N); and an empty matrix
        for bad in (np.array([[0.5]]), np.array([[2.5]]), np.array([[1j]]), np.array([[1.5]], dtype=object)):
            for p in (2, 3):
                with pytest.raises(ValueError, match="integer"):
                    padic_valuations(bad, p, 2)
                with pytest.raises(ValueError, match="integer"):
                    streaming_block_eliminate(bad, [1], p, 2)
        with pytest.raises(ValueError, match="matrix dimensions must be positive"):
            padic_valuations(np.zeros((0, 0), dtype=np.int64), 2, 2)

    @pytest.mark.parametrize(
        "sizes,p,N",
        [
            # p not a prime int, N not an int >= 1, block sizes not ints;
            # sizes None calls padic_valuations
            (None, 2, True), (None, 2, 0), (None, 2, 2.0), (None, 1, 2), (None, 4, 2), (None, 0, 2),
            (None, 2.0, 2), (None, True, 2), ([1.5, 1.5], 2, 3), ([True, True], 2, 3), ([1, 1], 4, 3),
            ([1, 1], 2, True),
        ],
    )
    def test_kernel_rejects_malformed_modulus_and_blocks(self, sizes, p, N):
        rows = [[4, 0], [2, 4]]
        with pytest.raises(ValueError):
            if sizes is None:
                padic_valuations(rows, p, N)
            else:
                streaming_block_eliminate(rows, sizes, p, N)

    def test_kernel_validates_each_entry_once(self, monkeypatch):
        index = operator.index
        calls = []
        monkeypatch.setattr(operator, "index", lambda x: calls.append(x) or index(x))
        got = padic_valuations(np.array([[6, -2], [7, 2 ** 70]], dtype=object), 2, 3)
        assert len(calls) == 4
        assert got == truncated_type(*cokernel_partition([[6, 6], [7, 0]], 2), 3) == (1,)

    @pytest.mark.parametrize("p,N", [(2, 1), (2, 3), (2, 62), (2, 90), (3, 4), (5, 30)])
    def test_residues_match_modulo(self, p, N):
        # the bit mask at a power of two must agree with % on negative int64
        # and on Python ints beyond int64
        q = p ** N
        values = [-2 ** 62, -q - 1, -q, -7, -1, 0, 1, 7, q - 1, q, 2 ** 62, -(10 ** 30), 10 ** 30 + 3]
        big = np.array(values, dtype=object)
        assert residues(big, q).tolist() == [v % q for v in values]
        if q <= 2 ** 62:
            small = np.array(values[:-2], dtype=np.int64)
            assert residues(small, q).dtype == np.int64
            assert residues(small, q).tolist() == [v % q for v in values[:-2]]

    @pytest.mark.parametrize("q", [0, -4])
    def test_modulus_below_one_rejected(self, q):
        # no residue lies in [0, q) for q < 1, so no answer is returned
        for a in (5, np.array([5, -3], dtype=np.int64), np.array([5, -3, 2 ** 70], dtype=object)):
            with pytest.raises(ValueError, match="q >= 1"):
                residues(a, q)
        with pytest.raises(ValueError, match="q >= 1"):
            product_mod(np.full((2, 1, 1), 5), q)


class TestBareissHelpers:
    def test_det_matches_cofactor_expansion(self):
        rng = random.Random(21)
        for _ in range(60):
            m = random_int_matrix(rng, rng.randint(1, 4))
            assert det_bareiss(m) == det_cofactor(m)

    def test_rank_matches_snf_nonzero_count(self):
        rng = random.Random(22)
        for _ in range(60):
            m = random_int_matrix(rng, rng.randint(1, 4))
            assert rational_rank(m) == sum(1 for d in snf_diagonal(m) if d)

    def test_rank_deficient(self):
        m = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
        assert rational_rank(m) == 2
        assert det_bareiss(m) == 0

    def test_rank_of_non_square_matches_snf_nonzero_count(self):
        rng = random.Random(23)
        for _ in range(200):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            assert rational_rank(m) == sum(1 for d in snf_diagonal(m) if d)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_det_of_permutation_matrix_is_its_sign(self, n):
        for perm in itertools.permutations(range(n)):
            m = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            assert det_bareiss(m) == (-1) ** inversions

    def test_det_of_rank_deficient_square_is_zero(self):
        # one row is a combination of two others (or zero), so det = 0
        rng = random.Random(24)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
            x, y = (rng.choice(m), rng.choice(m)) if m else ([0], [0])
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            m.insert(rng.randrange(n), [a * u + b * v for u, v in zip(x, y)])
            assert rational_rank(m) < n
            assert det_bareiss(m) == 0

    def test_det_needs_square(self):
        with pytest.raises(ValueError):
            det_bareiss([[1, 2, 3], [4, 5, 6]])


class TestDetsVanishMod:
    @pytest.mark.parametrize("prime", [2, 3, 7, 1_000_003])
    def test_matches_cofactor_det(self, prime):
        rng = random.Random(23)
        for n in (1, 2, 3, 4):
            mats = [random_int_matrix(rng, n) for _ in range(40)]
            mats.append([[0] * n for _ in range(n)])
            got = dets_vanish_mod(np.array(mats, dtype=np.int64), prime)
            assert got.tolist() == [det_cofactor(m) % prime == 0 for m in mats]

    def test_large_entries_reduced_first(self):
        # det = 1_000_003 * 5, entries far beyond the prime
        m = np.array([[[1_000_003, 7 * 10 ** 12], [0, 5]], [[1, 2], [3, 4]]])
        assert dets_vanish_mod(m, 1_000_003).tolist() == [True, False]

    @staticmethod
    def nonsingular_stack(b, n, prime, seed):
        rng = random.Random(seed)
        mats = []
        while len(mats) < b:
            m = random_int_matrix(rng, n, -100, 100)
            if det_bareiss(m) % prime:
                mats.append(m)
        return mats

    def test_exactly_singular_block(self):
        mats = self.nonsingular_stack(7, 4, 1_000_003, 41)
        mats[6] = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [5, 0, 5, 0]]
        assert det_bareiss(mats[6]) == 0
        assert dets_vanish_mod(np.array(mats), 1_000_003).tolist() == [i == 6 for i in range(7)]

    @pytest.mark.parametrize("prime", [2, 3, 7, 1_000_003])
    def test_screen_edge_cases_match_bareiss(self, prime):
        rng = random.Random(prime)
        mats = [[[rng.randint(-3 * prime, 3 * prime)]] for _ in range(12)] + [[[0]], [[prime]]]
        mats = np.array(mats, dtype=np.int64)
        zero = np.zeros((3, 4, 4), dtype=np.int64)
        # singular mod prime only in the last column: the first three columns
        # are unit lower triangular on top, the last one is a combination of
        # them plus a multiple of prime; adding 1 at its bottom adds the
        # leading 3 x 3 minor, 1, to det, so the twin is nonsingular mod prime
        gen = np.random.default_rng(prime)
        lead = np.tril(gen.integers(-5, 6, size=(10, 4, 3)), -1)
        lead[:, np.arange(3), np.arange(3)] = 1
        col = lead @ gen.integers(-5, 6, size=(10, 3, 1)) + prime * gen.integers(-2, 3, size=(10, 4, 1))
        last = np.concatenate([lead, col], axis=2)
        twin = last.copy()
        twin[:, 3, 3] += 1
        for stack in (mats, zero, last, twin):
            want = [det_bareiss(b) % prime == 0 for b in stack]
            assert dets_vanish_mod(stack, prime).tolist() == want
        assert all(det_bareiss(b) % prime == 0 for b in last)
        assert not any(det_bareiss(b) % prime == 0 for b in twin)

    @pytest.mark.parametrize("prime", [2 ** 26 + 15, 2 ** 31 - 1])
    def test_prime_beyond_float_bound_rejected(self, prime):
        with pytest.raises(ValueError, match="2\\*\\*26"):
            dets_vanish_mod(np.identity(2, dtype=np.int64)[None], prime)


def object_fold(stack, q):
    """Left fold over Python ints, reduced mod q after every product."""
    return functools.reduce(lambda a, b: np.dot(a, b) % q, (np.asarray(f, dtype=object) % q for f in stack))


class TestSymmetric:
    @pytest.mark.parametrize("q", [2, 3, 8, 27, 1_000_003, 8 * 1_000_003, 5 ** 11])
    def test_bitwise_reference_and_input_untouched(self, q):
        rng = np.random.default_rng(q)
        halves = (q / 2) * np.arange(-40, 41, dtype=np.float64)  # exact +-q/2 multiples
        for x in (
            rng.integers(-(2 ** 52) + 1, 2 ** 52, size=500).astype(np.float64),
            rng.integers(-4 * q, 4 * q + 1, size=(7, 5, 5)).astype(np.float64),
            np.floor(halves) if q % 2 else halves,
        ):
            x.setflags(write=False)
            before = x.copy()
            got = exact_linalg._symmetric(x, q)
            assert got.tobytes() == (x - q * np.rint(x * (1 / q))).tobytes()
            assert x.tobytes() == before.tobytes()
            assert np.abs(got).max() <= q // 2 + 1


class TestProductMod:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("N", [1, 3, 40, 256])
    def test_matches_object_fold(self, p, N):
        q = p ** N
        rng = np.random.default_rng([p, N])
        for b in (1, 2, 3, 4, 5, 8, 17, 32, 70):
            for low, high in ((0, 2), (-2 ** 62, 2 ** 62 + 1)):
                m = int(rng.integers(1, 5))
                stack = rng.integers(low, high, size=(b, m, m), dtype=np.int64)
                want = object_fold(stack, q).tolist()
                assert product_mod(stack, q).tolist() == want
                assert product_mod(stack.astype(object), q).tolist() == want

    def test_word_prime_with_extreme_entries(self):
        # entries at the edges of the float64 pre-reduction (|x| < 2**52)
        q = 1_000_003
        edges = [2 ** 52 - 1, 2 ** 52, -(2 ** 52) + 1, -(2 ** 52), np.iinfo(np.int64).min,
                 np.iinfo(np.int64).max, q // 2, -(q // 2), q, -1]
        rng = np.random.default_rng(7)
        for b in (1, 6, 11):
            stack = rng.choice(np.array(edges, dtype=np.int64), size=(b, 3, 3))
            assert product_mod(stack, q).tolist() == object_fold(stack, q).tolist()

    @pytest.mark.parametrize(
        "p,q,tree",
        [
            # 4 (q // 2 + 1)**2 < 2**52, but 4 (q - 1)**2 > 2**53: exact only
            # with symmetric residues
            (5, 5 ** 11, "float64"),
            # just past the bound: 4 (q // 2 + 1)**2 lies in (2**53, 2**54)
            (3, 3 ** 17, "object"),
        ],
    )
    def test_modulus_at_float_bound(self, p, q, tree, monkeypatch):
        floats = []
        real = exact_linalg._symmetric
        monkeypatch.setattr(exact_linalg, "_symmetric", lambda x, q: floats.append(1) or real(x, q))
        rng = np.random.default_rng(q)
        for b in (2, 3, 9):
            # entries that reduce to near -1 and near +-q / 2, so that dots
            # reach 4 (q // 2)**2 and, taken in [0, q), 4 (q - 1)**2
            stack = np.concatenate([
                rng.integers(-8, 0, size=(b, 4, 4)),
                rng.integers(q // 2 - 8, q // 2 + 9, size=(b, 4, 4)),
            ])
            got = product_mod(stack, q)
            assert got.tolist() == object_fold(stack, q).tolist()
            assert got.dtype == (np.int64 if tree == "float64" else object)
        assert bool(floats) == (tree == "float64")

    @pytest.mark.parametrize("p,q", [(2, 8 * 1_000_003), (3, 27), (2, 2), (1_000_003, 1_000_003)])
    def test_entries_at_half_the_modulus(self, p, q):
        # +-(q // 2) are converted as they are, +-(q // 2 + 1) are reduced
        edges = np.array([q // 2, -(q // 2), q // 2 + 1, -(q // 2 + 1), 0, 1, -1], dtype=np.int64)
        rng = np.random.default_rng(q)
        for b, m in ((1, 1), (2, 3), (5, 4), (64, 2)):
            for values in (edges[:2], edges[2:4], edges):
                stack = rng.choice(values, size=(b, m, m))
                floats = exact_linalg._float_residues(stack, q)
                assert floats.dtype == np.float64 and np.abs(floats).max() <= q // 2 + 1
                assert np.mod(floats.astype(np.int64), q).tolist() == (stack.astype(object) % q).tolist()
                assert product_mod(stack, q).tolist() == object_fold(stack, q).tolist()

    def test_peak_memory_of_factor_stack(self):
        import tracemalloc

        stack = np.random.default_rng(64).integers(0, 2, size=(64, 20, 20))
        q = 8 * 1_000_003
        want = product_mod(stack, q)
        tracemalloc.start()
        try:
            got = product_mod(stack, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == want.tolist()
        assert peak <= 2.0 * stack.nbytes

    @pytest.mark.parametrize("q", [1, 6, 12, 8 * 1_000_003, 2 ** 60 + 4])
    def test_any_modulus(self, q):
        # one rule keyed by q: a bit mask only at a power of two (q = 1
        # among them), `%` at moduli that are no prime power, on int64
        # extremes, negative entries and Python ints; 2**60 + 4 is past the
        # float64 bound, so its products run in Python ints
        top = np.iinfo(np.int64).max
        values = [-top - 1, -top, -2 ** 62, -q - 1, -q, -13, -7, -1, 0, 1, 5, 7, 13, q - 1, q, q + 1, 2 ** 62, top]
        small = np.array(values, dtype=np.int64)
        assert residues(small, q).dtype == np.int64
        assert residues(small, q).tolist() == [v % q for v in values]
        big = values + [-(10 ** 30), 10 ** 30 + 3]
        assert residues(np.array(big, dtype=object), q).tolist() == [v % q for v in big]
        assert [residues(v, q) for v in big] == [v % q for v in big]
        rng = np.random.default_rng(q)
        for b, m in ((1, 1), (2, 1), (3, 2), (8, 3)):
            stack = rng.choice(small, size=(b, m, m))
            want = object_fold(stack, q).tolist()
            assert product_mod(stack, q).tolist() == want
            assert product_mod(stack.astype(object), q).tolist() == want
        five_seven = np.array([[[5]], [[7]]])
        assert product_mod(five_seven, q).tolist() == object_fold(five_seven, q).tolist() == [[35 % q]]

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError):
            product_mod(np.zeros((2, 2, 3), dtype=np.int64), 4)
        with pytest.raises(ValueError):
            product_mod(np.zeros((0, 2, 2), dtype=np.int64), 4)


class TestCokernelPartition:
    def test_diagonal_examples(self):
        m = [[2, 0], [0, 8]]
        assert cokernel_partition(m, 2) == ((3, 1), 0)
        assert cokernel_partition(m, 3) == ((), 0)

    def test_via_snf_oracle(self):
        m = [[2, 0], [1, 3]]
        assert snf_via_minor_gcds(m) == [1, 6]
        assert cokernel_partition(m, 2) == ((1,), 0)

    def test_free_rank_reported_separately(self):
        m = [[2, 0], [0, 0]]
        assert cokernel_partition(m, 2) == ((1,), 1)

    def test_square_required(self):
        with pytest.raises(ValueError):
            cokernel_partition([[1, 2]], 2)


class TestPadicValuations:
    def test_diag_full_precision(self):
        assert padic_valuations([[2, 0], [0, 8]], 2, 16) == (3, 1)

    def test_diag_saturates_at_low_precision(self):
        assert padic_valuations([[2, 0], [0, 8]], 2, 2) == (2, 1)

    def test_random_5x5_mod_2_32_matches_exact(self):
        # beyond the int64-safe window: exercises the Python-int residue path
        rng = random.Random(4)
        done = 0
        while done < 10:
            m = random_int_matrix(rng, 5)
            if det_cofactor(m) == 0:
                continue
            done += 1
            part, free = cokernel_partition(m, 2)
            assert free == 0
            assert padic_valuations(m, 2, 32) == part

    def test_lift_consistency_various_primes(self):
        rng = random.Random(5)
        for p in (2, 3, 5):
            for _ in range(10):
                n = rng.randint(1, 4)
                m = random_int_matrix(rng, n)
                typ = padic_valuations(m, p, 16)
                if 16 not in typ:
                    part, free = cokernel_partition(m, p)
                    assert free == 0
                    assert typ == part

    def test_arithmetic_backends_agree(self):
        # float64 (N=16, p=2) and object (N=40 and N=128 at p=2, N=50 at
        # p=3) must produce identical data
        assert kernel_arithmetic(4, 2, 16) is np.float64
        assert kernel_arithmetic(4, 2, 40) is kernel_arithmetic(4, 2, 128) is object
        assert kernel_arithmetic(3, 3, 12) is np.float64
        assert kernel_arithmetic(3, 3, 50) is object
        rng = random.Random(6)
        for _ in range(10):
            m = random_int_matrix(rng, 4)
            small = padic_valuations(m, 2, 16)
            wrap = padic_valuations(m, 2, 40)
            wide = padic_valuations(m, 2, 128)
            if 16 not in small:
                assert small == wrap == wide
        for _ in range(6):
            m = random_int_matrix(rng, 3)
            a = padic_valuations(m, 3, 12)
            b = padic_valuations(m, 3, 50)
            if 12 not in a:
                assert a == b


class TestStreamingBlockEliminate:
    def test_k2_example_matches_oracle(self):
        rows = [[2, 0], [1, 3]]
        got = streaming_block_eliminate(rows, [1, 1], 2, 16)
        assert_matches_exact(got, rows, 2, 16)
        assert got == (1,)

    def test_single_block_degenerate(self):
        rows = [[6, 2], [4, 8]]
        assert_matches_exact(streaming_block_eliminate(rows, [2], 2, 16), rows, 2, 16)

    @pytest.mark.parametrize("p", [2, 3])
    def test_random_block_lower_triangular(self, p):
        rng = random.Random(100 + p)
        for _ in range(20):
            k = rng.randint(1, 5)
            sizes = [rng.randint(1, 4) for _ in range(k)]
            offs = [0]
            for s in sizes:
                offs.append(offs[-1] + s)
            n = offs[-1]
            rows = [[0] * n for _ in range(n)]
            for bi in range(k):
                for bj in range(bi + 1):
                    for r in range(offs[bi], offs[bi + 1]):
                        for c in range(offs[bj], offs[bj + 1]):
                            rows[r][c] = rng.randint(-9, 9)
            assert_matches_exact(streaming_block_eliminate(rows, sizes, p, 16), rows, p, 16)

    @settings(max_examples=150, deadline=None)
    @given(case=block_lower_triangular(), depth=st.integers(1, 5))
    def test_matches_exact_type_on_both_backends(self, case, depth):
        rows, sizes, p = case
        for N, arithmetic in ((depth, np.float64), (depth + 40, object)):
            assert kernel_arithmetic(len(rows), p, N) is arithmetic
            assert_matches_exact(streaming_block_eliminate(rows, sizes, p, N), rows, p, N)

    @pytest.mark.parametrize("sizes", [(70,), (40, 40)])
    def test_wide_carry_matches_exact_type(self, sizes):
        # at p = 2 a carry row wider than 63 columns spans several machine
        # words; most divisors are even, so the carry stays wide through the
        # block rows and the divide-by-2 levels
        rng = random.Random(sum(sizes))
        diagonal = [
            rng.choice([1, 3]) * 2 ** v if v is not None else 0
            for v in (rng.choice([0, 1, 1, 2, 3, 6, None]) for _ in range(sum(sizes)))
        ]
        rows = unimodular_times_diagonal(rng, sizes, diagonal)
        smith = np.diag(np.array(diagonal, dtype=object))
        for N, arithmetic in ((5, np.float64), (45, object)):
            assert kernel_arithmetic(len(rows), 2, N) is arithmetic
            got = streaming_block_eliminate(np.array(rows, dtype=object), sizes, 2, N)
            assert_matches_exact(got, rows, 2, N, smith)

    @pytest.mark.parametrize("p", [2, 3])
    def test_retiling_invariance(self, p):
        # a block lower triangular matrix stays block lower triangular when
        # neighbouring blocks merge, which moves where the carry rows end
        # and the arriving rows begin; the type must not move
        rng = random.Random(200 + p)
        for _ in range(15):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 6))]
            offs = [0, *itertools.accumulate(sizes)]
            n = offs[-1]
            rows = [[0] * n for _ in range(n)]
            for bi in range(len(sizes)):
                scale = rng.choice([1, 1, p, p * p, 0])
                for r in range(offs[bi], offs[bi + 1]):
                    for c in range(offs[bi + 1]):
                        x = rng.randint(-9, 9)
                        rows[r][c] = scale * x if c >= offs[bi] else x
            merged = [sum(sizes[j:j + 2]) for j in range(0, len(sizes), 2)]
            for N, arithmetic in ((1, np.float64), (3, np.float64), (40, object)):
                assert kernel_arithmetic(n, p, N) is arithmetic
                drawn, pairs, whole = (streaming_block_eliminate(rows, t, p, N) for t in (sizes, merged, [n]))
                assert drawn == pairs == whole
                for got in (drawn, pairs, whole):
                    assert_matches_exact(got, rows, p, N)

    def test_saturation_passes_through(self):
        got = streaming_block_eliminate([[2, 0], [0, 8]], [1, 1], 2, 2)
        assert got == (2, 1)

    def test_structural_error_above_diagonal(self):
        with pytest.raises(BlockStructureError):
            streaming_block_eliminate([[2, 1], [1, 3]], [1, 1], 2, 16)

    @pytest.mark.parametrize("row, col, name", [
        (0, 4, "block row 1"),   # the last block column, checked at the first block row
        (2, 4, "block row 2"),   # the last block row that can hold such an entry
    ])
    def test_structural_error_in_last_block_column(self, row, col, name):
        rows = [[1, 0, 0, 0, 0], [3, 2, 0, 0, 0], [1, 1, 2, 0, 0], [5, 0, 1, 2, 0], [1, 1, 1, 1, 1]]
        rows[row][col] = 4
        with pytest.raises(BlockStructureError, match=name):
            streaming_block_eliminate(rows, [1, 2, 2], 2, 8)

    def test_structural_error_while_carry_is_empty(self):
        # the unit first block leaves an empty carry when block row 2 arrives
        rows = [[1, 0, 0], [7, 3, 1], [2, 5, 1]]
        with pytest.raises(BlockStructureError, match="block row 2"):
            streaming_block_eliminate(rows, [1, 1, 1], 2, 8)
        rows[1][2] = 0
        got = streaming_block_eliminate(rows, [1, 1, 1], 2, 8)
        assert_matches_exact(got, rows, 2, 8)

    @pytest.mark.parametrize("p", [2, 3])
    def test_unit_blocks_and_diagonal_block_zero_mod_p(self, p):
        # sizes with 1s, and one diagonal block (of size 1 or 3) that is 0
        # mod p, so a block row can add no pivot and the carry only grows
        rng = random.Random(70 + p)
        for trial in range(30):
            sizes = rng.choice([(1, 1, 1, 1), (1, 3, 1, 2, 1), (3, 1, 1), (1, 1, 3)])
            offs = [0, *itertools.accumulate(sizes)]
            n = offs[-1]
            zero = rng.randrange(len(sizes))
            rows = [[0] * n for _ in range(n)]
            for bi in range(len(sizes)):
                for r in range(offs[bi], offs[bi + 1]):
                    for c in range(offs[bi + 1]):
                        x = rng.randint(-9, 9)
                        rows[r][c] = p * x if bi == zero and c >= offs[bi] else x
            for N, arithmetic in ((3, np.float64), (45, object)):
                assert kernel_arithmetic(n, p, N) is arithmetic
                assert_matches_exact(streaming_block_eliminate(rows, sizes, p, N), rows, p, N)

    @pytest.mark.parametrize(
        "p,N,n,arithmetic",
        [
            # n (q // 2 + 1)**2 just below 2**52, then just above it
            (2, 25, 15, "float64"),
            (2, 25, 16, "object"),
            (3, 16, 9, "float64"),
            (3, 16, 10, "object"),
        ],
    )
    def test_modulus_at_float_bound(self, p, N, n, arithmetic, monkeypatch):
        q = p ** N
        assert (n * (q // 2 + 1) ** 2 < 2 ** 52) == (arithmetic == "float64")
        floats = []
        real = exact_linalg._symmetric
        monkeypatch.setattr(exact_linalg, "_symmetric", lambda x, q: floats.append(1) or real(x, q))
        rng = random.Random(q + n)
        sizes = [n // 3, n // 3, n - 2 * (n // 3)]
        offs = [0, *itertools.accumulate(sizes)]
        for _ in range(4):
            # entries near 0 and near +-q / 2, the largest symmetric
            # residues; the middle diagonal block is times p, so its
            # pivots lie off it and the divide-by-p levels run
            rows = [[0] * n for _ in range(n)]
            for bi in range(3):
                for r in range(offs[bi], offs[bi + 1]):
                    for c in range(offs[bi + 1]):
                        x = rng.choice([1, -1]) * rng.choice([rng.randint(0, 3), q // 2 - rng.randint(0, 3)])
                        rows[r][c] = p * x if bi == 1 and c >= offs[1] else x
            assert_matches_exact(streaming_block_eliminate(rows, sizes, p, N), rows, p, N)
        assert bool(floats) == (arithmetic == "float64")
        assert np.dtype(kernel_arithmetic(n, p, N)) == arithmetic

    @pytest.mark.parametrize("q", [8, 3 ** 7, 2 ** 20, 3 ** 16])
    def test_lift_gives_symmetric_residues(self, q):
        # the float64 bound counts on every GEMM operand being a symmetric
        # residue, |r| <= q // 2 + 1, whether looked up or converted, and
        # the kernel lifts unreduced int64 entries: negative ones, multiples
        # of q and the extremes of int64
        top = 2 ** 63 - 1
        values = [0, 1, 2, q // 2 - 1, q // 2, q // 2 + 1, q - 2, q - 1, q, q + 1, 5 * q - 1, 2 ** 62 + 3,
                  top, top - 1, -1, -2, -q, -q - 1, -(q // 2), -top, -top - 1]
        a = np.array(values, dtype=np.int64).reshape(3, 7)
        lifted = exact_linalg._float_residues(a, q)
        assert lifted.dtype == np.float64
        assert np.abs(lifted).max() <= q // 2 + 1
        assert [int(x) % q for x in lifted.ravel()] == [v % q for v in values]

    @pytest.mark.parametrize("p", [2, 3])
    def test_embedding_of_factors_divisible_by_p(self, p):
        # the bidiagonal embedding of p U_1, ..., p U_k, U_i unimodular: its
        # diagonal blocks are 0 mod p, so every unit pivot lies in the
        # identity subdiagonal blocks; the product is p**k times a
        # unimodular matrix, so the type is (min(k, N),) * n
        rng = random.Random(300 + p)
        for k, n in ((2, 2), (3, 3), (4, 2), (5, 3)):
            factors = [
                [[p * x for x in row] for row in random_elementary_ops(rng, np.eye(n, dtype=int).tolist(), 12, "row")]
                for _ in range(k)
            ]
            rows = build_bidiagonal_embedding(np.array(factors, dtype=object)).tolist()
            for N, arithmetic in ((3, np.float64), (45, object)):
                assert kernel_arithmetic(n * k, p, N) is arithmetic
                got = streaming_block_eliminate(rows, (n,) * k, p, N)
                assert got == (min(k, N),) * n
                assert_matches_exact(got, rows, p, N)

    @pytest.mark.parametrize("p", [2, 3])
    def test_every_diagonal_block_zero_mod_p(self, p):
        # unequal blocks, each diagonal block 0 mod p: no block has a unit
        # pivot, so the whole matrix is the defect
        rng = random.Random(400 + p)
        for sizes in ((1, 3, 2, 4), (4, 1, 1), (2, 5)):
            offs = [0, *itertools.accumulate(sizes)]
            n = offs[-1]
            for _ in range(5):
                rows = [[0] * n for _ in range(n)]
                for bi in range(len(sizes)):
                    for r in range(offs[bi], offs[bi + 1]):
                        for c in range(offs[bi + 1]):
                            x = rng.randint(-9, 9)
                            rows[r][c] = p * x if c >= offs[bi] else x
                for N, arithmetic in ((4, np.float64), (45, object)):
                    assert kernel_arithmetic(n, p, N) is arithmetic
                    assert_matches_exact(streaming_block_eliminate(rows, sizes, p, N), rows, p, N)

    @settings(max_examples=120, deadline=None)
    @given(case=block_lower_triangular(), depth=st.integers(1, 4), seed=st.integers(0, 2 ** 32))
    def test_unreduced_input_matches_exact(self, case, depth, seed):
        # entries need not be reduced: negatives, multiples of p**N, the
        # extremes of int64 and, in object arrays, Python ints past 2**64,
        # on every arithmetic, in block and one-block layouts; an entry
        # above the diagonal blocks may be any multiple of p**N.  Both
        # matrices are congruent to `base` mod p**N, so they have its type
        # mod p**N, which exact SNF gives on base's small entries
        rows, sizes, p = case
        rnd = random.Random(seed)
        n = len(rows)
        offs = [0, *itertools.accumulate(sizes)]
        top = 2 ** 63 - 1
        backends = ((depth, np.float64), ({2: 28, 3: 18, 5: 12}[p], object), ({2: 40, 3: 30, 5: 20}[p], object))
        for N, arithmetic in backends:
            q = p ** N
            assert kernel_arithmetic(n, p, N) is arithmetic
            base = [row[:] for row in rows]
            small, wide = [row[:] for row in rows], [row[:] for row in rows]
            for r in range(n):
                for c in range(n):
                    x = base[r][c]
                    if c >= offs[bisect.bisect_right(offs, r)]:  # above the diagonal blocks
                        if rnd.random() < 0.3:
                            small[r][c] = q * rnd.choice([1, -1, top // q])
                            wide[r][c] = q * rnd.randint(-2 ** 80, 2 ** 80)
                    elif rnd.random() < 0.2:
                        small[r][c] = rnd.choice([top, -top, -top - 1])
                        x = base[r][c] = (small[r][c] + q // 2) % q - q // 2
                        wide[r][c] = x + q * rnd.randint(-2 ** 80, 2 ** 80)
                    else:
                        small[r][c] = rnd.choice([x, x - q, x + q * rnd.randint(-3, 3), (top - x) // q * q + x,
                                                  x - (top + x) // q * q])
                        wide[r][c] = x + q * rnd.choice([-1, 1, rnd.randint(-2 ** 80, 2 ** 80)])
            expected = truncated_type(*cokernel_partition(base, p), N)
            for m, dtype in ((small, np.int64), (wide, object)):
                a = np.array(m, dtype=dtype)
                a.setflags(write=False)
                assert streaming_block_eliminate(a, sizes, p, N) == expected
                assert padic_valuations(a, p, N) == expected

    def test_read_only_input_left_unchanged(self):
        # a trial's draw is read-only and unreduced; the kernel reads it on
        # the float64 path and reduces a copy past it
        rng = random.Random(9)
        sizes = (3, 2, 4)
        offs = [0, *itertools.accumulate(sizes)]
        rows = [[rng.randint(-50, 50) if c < offs[bisect.bisect_right(offs, r)] else 0 for c in range(9)] for r in range(9)]
        for N in (3, 40):
            for dtype in (np.int64, object):
                a = np.array(rows, dtype=dtype)
                a.setflags(write=False)
                before = a.copy()
                assert_matches_exact(streaming_block_eliminate(a, sizes, 2, N), rows, 2, N)
                assert_matches_exact(padic_valuations(a, 2, N), rows, 2, N)
                assert a.dtype == dtype and not a.flags.writeable
                assert np.array_equal(a, before)

    @pytest.mark.parametrize("N", [3, 40])
    def test_multiple_of_modulus_above_diagonal_accepted(self, N):
        # the block structure is that of the residues: an entry above the
        # diagonal blocks that is 0 mod p**N is accepted, any other raises
        # and names its block row
        q = 2 ** N
        rows = [[1, 0, 0], [3, 2, 0], [1, 5, 2]]
        for zero in (q, -q, 5 * q):
            for dtype in (np.int64, object):
                m = np.array(rows, dtype=dtype)
                m[0, 2] = m[1, 2] = zero
                assert_matches_exact(streaming_block_eliminate(m, [1, 1, 1], 2, N), rows, 2, N)
        big = np.array(rows, dtype=object)
        big[0, 1] = q * 2 ** 70
        assert_matches_exact(streaming_block_eliminate(big, [1, 1, 1], 2, N), rows, 2, N)
        for row, value in ((1, q + 1), (0, -1), (1, 4 * q - 2)):
            for dtype in (np.int64, object):
                m = np.array(rows, dtype=dtype)
                m[0, 1] = q
                m[row, 2] = value
                with pytest.raises(BlockStructureError, match=f"block row {row + 1}"):
                    streaming_block_eliminate(m, [1, 1, 1], 2, N)

    def test_block_sizes_must_tile(self):
        with pytest.raises(ValueError):
            streaming_block_eliminate([[2, 0], [1, 3]], [1, 1, 1], 2, 16)
