"""Exact integer and p-adic linear algebra.

Smith normal form over Z with arbitrary-precision integers, and one
elimination kernel mod p**N that gives the type of cok(M mod p**N):
streaming_block_eliminate takes a block lower triangular matrix one block row
at a time, and padic_valuations is its one-block case.  It keeps one work
array of rows, and each block row costs one Gauss-Jordan search over GF(p)
for a maximal set of unit pivots (rows bit-packed into Python ints at p = 2),
a Newton lift of their inverse, and one update GEMM mod p**N that applies
them to every other row.

Integer matrices are plain 2-D arrays (int64 or object) or nested lists; the
exact routines copy them into rows of Python ints before any arithmetic.

Two batched routines serve stacks of square matrices: product_mod multiplies
a stack mod q by a pairwise tree of np.matmul calls, and dets_vanish_mod
tells which determinants vanish mod a word-size prime.  Both compute in
float64 wherever every intermediate is an integer below 2**53, so the BLAS
arithmetic is exact integer arithmetic (word-size prime fields in floating
point, as in FFLAS-FFPACK: Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008);
residues are then kept symmetric, |r| <= q // 2 + 1, which doubles the
largest modulus the bound admits.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "PadicMatrix",
    "CokernelPartition",
    "BlockStructureError",
    "snf_diagonal",
    "cokernel_partition",
    "padic_valuations",
    "streaming_block_eliminate",
    "reduce_matrix",
    "residues",
    "product_mod",
]


class BlockStructureError(ValueError):
    """A block claimed by the lower triangular layout is above the diagonal."""


FLOAT_EXACT = 2 ** 52  # |x| below this keeps _symmetric(x, q) within the integers float64 holds (< 2**53)


def residue_dtype(q: int, dim: int):
    """Array dtype for residues mod q with `dim`-length dots: int64 when
    every intermediate (a dot of at most `dim` products of two residues)
    fits exactly, Python ints otherwise."""
    return np.int64 if dim * (q - 1) * (q - 1) < 2 ** 62 else object


class PadicMatrix:
    """Matrix of residues mod p**precision.

    Entries live in [0, p**precision).  Backed by an int64 ndarray when the
    elimination's intermediates fit, by an object ndarray of Python ints
    otherwise.  The entries are validated once; with `reduce` they are
    reduced mod p**precision instead of range-checked (reduce_matrix).
    """

    __slots__ = ("rows", "cols", "p", "precision", "data")

    def __init__(self, data, p: int, precision: int, *, reduce: bool = False):
        if precision < 1:
            raise ValueError("precision must be >= 1")
        arr = _integer_matrix(data)
        q = p ** precision
        arr = widen(arr, q)
        if reduce:
            arr = residues(arr, p, q)
        elif not ((arr >= 0) & (arr < q)).all():
            raise ValueError("entries must lie in [0, p**precision)")
        arr = arr.astype(residue_dtype(q, max(arr.shape)), copy=True)
        arr.setflags(write=False)
        self.rows, self.cols = arr.shape
        self.p = p
        self.precision = precision
        self.data = arr

    @property
    def modulus(self) -> int:
        return self.p ** self.precision

    def __eq__(self, other):
        return (
            isinstance(other, PadicMatrix)
            and self.p == other.p
            and self.precision == other.precision
            and self.data.shape == other.data.shape
            and bool((self.data == other.data).all())
        )

    def __repr__(self):
        return f"PadicMatrix({self.rows}x{self.cols}, p={self.p}, N={self.precision})"


def reduce_matrix(a, p: int, precision: int) -> PadicMatrix:
    """Reduce a 2-D integer array (int64 or object) or nested list entrywise
    mod p**precision; int64 entries are widened to Python ints first when
    the modulus does not fit."""
    return PadicMatrix(a, p, precision, reduce=True)


def widen(a: np.ndarray, q: int) -> np.ndarray:
    """An integer array as Python ints when residues mod q may not fit int64."""
    return a.astype(object) if q > 2 ** 62 and a.dtype != object else a


def _integer_matrix(a) -> np.ndarray:
    """A 2-D array or nested list as a 2-D array of integers: an integer
    dtype as it is, anything else as objects made Python ints by
    operator.index (a nested list goes straight to objects, so no entry
    passes through float64).  Floats, complex numbers, any other entry,
    ragged rows and an empty matrix raise ValueError, so nothing is
    truncated."""
    arr = a if isinstance(a, np.ndarray) else np.array(a, dtype=object)
    if arr.ndim != 2:
        raise ValueError("need a 2-D integer matrix")
    if 0 in arr.shape:
        raise ValueError("matrix dimensions must be positive")
    if arr.dtype == object:
        try:
            return np.vectorize(operator.index, otypes=[object])(arr)
        except TypeError as exc:
            raise ValueError(f"entries must be integers: {exc}") from None
    if arr.dtype.kind not in "iu":
        raise ValueError(f"entries must be integers, got dtype {arr.dtype}")
    return arr


class CokernelPartition(NamedTuple):
    partition: tuple[int, ...]
    free_rank: int


# ---------------------------------------------------------------------------
# Exact Smith normal form
# ---------------------------------------------------------------------------

def _int_rows(m) -> list[list[int]]:
    """Fresh rows of Python ints of a 2-D integer array or nested list, so
    the exact routines never compute in int64."""
    return _integer_matrix(m).tolist()


def snf_diagonal(m) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns d_1 | d_2 | ... | d_r with r = min(rows, cols), all nonnegative,
    zeros last.  Pivot choice: nonzero entry of minimal absolute value,
    reduced by gcd steps, which keeps coefficient growth tolerable at the
    sizes this library targets (n <= 64 exact).
    """
    a = _int_rows(m)
    nrows, ncols = len(a), len(a[0])
    diag: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        pos = _min_abs_nonzero(a, t, nrows, ncols)
        if pos is None:
            break
        i, j = pos
        if i != t:
            a[i], a[t] = a[t], a[i]
        if j != t:
            for row in a:
                row[j], row[t] = row[t], row[j]
        _isolate_pivot(a, t, nrows, ncols)
        diag.append(a[t][t])
        t += 1
    diag.extend([0] * (min(nrows, ncols) - len(diag)))
    return diag


def _min_abs_nonzero(a, t, nrows, ncols):
    best = None
    best_abs = None
    for i in range(t, nrows):
        row = a[i]
        for j in range(t, ncols):
            e = row[j]
            if e:
                if best_abs is None or abs(e) < best_abs:
                    best = (i, j)
                    best_abs = abs(e)
                    if best_abs == 1:
                        return best
    return best


def _isolate_pivot(a, t, nrows, ncols):
    """Drive row/column t to (pivot, 0, ..., 0) with the pivot dividing every
    entry of the trailing submatrix."""
    while True:
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        piv = a[t][t]

        # Euclidean steps in column t until the pivot divides everything below.
        moved = False
        for i in range(t + 1, nrows):
            if a[i][t] % piv:
                q = a[i][t] // piv
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                a[i], a[t] = a[t], a[i]  # remainder is smaller: new pivot
                moved = True
                break
        if moved:
            continue
        for i in range(t + 1, nrows):
            if a[i][t]:
                q = a[i][t] // piv
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]

        # Same along row t; column ops only touch row t since column t is clear.
        moved = False
        for j in range(t + 1, ncols):
            if a[t][j] % piv:
                q = a[t][j] // piv
                for row in a:
                    row[j] -= q * row[t]
                for row in a:
                    row[j], row[t] = row[t], row[j]
                moved = True
                break
        if moved:
            continue
        for j in range(t + 1, ncols):
            if a[t][j]:
                q = a[t][j] // piv
                for row in a:
                    row[j] -= q * row[t]

        # Divisibility: the pivot must divide the whole trailing block.
        bad = None
        for i in range(t + 1, nrows):
            row = a[i]
            for j in range(t + 1, ncols):
                if row[j] % piv:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is None:
            return
        a[t] = [x + y for x, y in zip(a[t], a[bad])]


def _bareiss(a: list[list[int]]) -> tuple[int, int]:
    """(rank over Q, det) of rows of Python ints, in place, by fraction-free
    (Bareiss) elimination with full pivoting.  Each pivot is the leading
    principal minor of its size of the row- and column-permuted matrix, and
    every swap flips the sign, so for a square matrix of full rank the last
    pivot times the sign is det; det is 0 otherwise (and for a non-square
    matrix)."""
    nrows, ncols = len(a), len(a[0])
    prev = sign = 1
    rank = 0
    for t in range(min(nrows, ncols)):
        pos = next(
            ((i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j]),
            None,
        )
        if pos is None:
            break
        i, j = pos
        if i != t:
            a[i], a[t] = a[t], a[i]
            sign = -sign
        if j != t:
            for row in a:
                row[j], row[t] = row[t], row[j]
            sign = -sign
        for r in range(t + 1, nrows):
            for c in range(t + 1, ncols):
                a[r][c] = (a[r][c] * a[t][t] - a[r][t] * a[t][c]) // prev
            a[r][t] = 0
        prev = a[t][t]
        rank += 1
    return rank, sign * prev if rank == nrows == ncols else 0


def det_bareiss(m) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = _int_rows(m)
    if len(a) != len(a[0]):
        raise ValueError("determinant needs a square matrix")
    return _bareiss(a)[1]


def rational_rank(m) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    return _bareiss(_int_rows(m))[0]


def dets_vanish_mod(blocks, prime: int) -> np.ndarray:
    """For a (b, m, m) stack of integer matrices, whether each determinant
    is 0 mod `prime`.

    det(B_1 ... B_b) = det(B_1) ... det(B_b) and GF(prime) is a field, so
    one determinant of the product (product_mod) screens the whole stack:
    when it is nonzero, no block's determinant vanishes.  Only when it
    vanishes, or for one block, does the batched elimination run on every
    block.  The elimination keeps float64 symmetric residues and combines
    rows as piv * row_i - a_it * row_t, which scales a determinant only by
    nonzero pivots, so no inverses are needed.  prime < 2**26 keeps that
    combination, at most 2 (prime // 2 + 1)**2 in absolute value, below
    2**52, so it is exact; a residue is then 0 exactly when the entry is
    0 mod prime, which is what the pivot search tests."""
    if not 2 <= prime < 2 ** 26:
        raise ValueError(f"dets_vanish_mod needs a prime below 2**26, got {prime}")
    blocks = np.asarray(blocks)
    if len(blocks) > 1 and not _vanish_mod(product_mod(blocks, prime, prime)[None], prime)[0]:
        return np.zeros(len(blocks), dtype=bool)
    return _vanish_mod(blocks, prime)


def _vanish_mod(blocks, prime: int) -> np.ndarray:
    """Batched elimination over GF(prime) of a (b, m, m) integer stack in
    float64 symmetric residues: whether each determinant vanishes.  Step t
    swaps a nonzero of column t into row t, if there is one, and row t is
    never touched again, so the triangular result keeps every pivot on the
    diagonal and a determinant vanishes exactly when a diagonal entry does."""
    a = _float_residues(blocks, prime, prime)
    b, m, _ = a.shape
    idx = np.arange(b)
    for t in range(m - 1):
        r = t + np.argmax(a[:, t:, t] != 0, axis=1)
        rows = a[idx, r]
        a[idx, r] = a[:, t]
        a[:, t] = rows
        piv = rows[:, None, t, None]
        below = a[:, t + 1:, t, None]
        a[:, t + 1:, t + 1:] = _symmetric(a[:, t + 1:, t + 1:] * piv - below * rows[:, None, t + 1:], prime)
    return (np.diagonal(a, axis1=1, axis2=2) == 0).any(axis=1)


def product_mod(stack, p: int, q: int) -> np.ndarray:
    """stack[0] @ stack[1] @ ... mod q, for a (b, m, m) integer stack (int64
    or object) and q a power of p; residues in [0, q), int64 or object.

    A pairwise tree of batched np.matmul calls: each level multiplies
    neighbouring pairs in one call and carries an odd last matrix up, so
    the order of the factors, and by associativity every residue, is that
    of a left fold.  The tree runs in float64 when m (q // 2 + 1)**2 <
    2**52: symmetric residues then bound every dot below 2**52, which
    float64 holds exactly, and so the next reduction stays exact too.
    Otherwise it runs in residue_dtype (int64 or Python ints) with
    `residues`."""
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not len(stack):
        raise ValueError("need a (b, m, m) stack of one or more square matrices")
    m = stack.shape[1]
    in_float = m * (q // 2 + 1) ** 2 < FLOAT_EXACT
    if in_float:
        a = _float_residues(stack, p, q)
    else:
        dtype = residue_dtype(q, m)
        a = residues(stack.astype(object) if dtype is object else stack, p, q).astype(dtype)
    while len(a) > 1:
        pairs = np.matmul(a[0:-1:2], a[1::2])
        pairs = _symmetric(pairs, q) if in_float else residues(pairs, p, q)
        a = np.concatenate([pairs, a[-1:]]) if len(a) % 2 else pairs
    return np.mod(a[0], q).astype(np.int64) if in_float else a[0]


def _symmetric(x: np.ndarray, q: int) -> np.ndarray:
    """x - q rint(x / q) for a float64 array of integers |x| < 2**52: a
    residue of x mod q with |r| <= q // 2 + 1.  The quotient x * (1 / q)
    rounds twice, so it is off from x / q by less than 1 / q and rint may
    miss the nearest integer by one only within 1 / q of a half; every other
    intermediate is an integer below 2**53, hence exact."""
    return x - q * np.rint(x * (1.0 / q))


def _float_residues(a, p: int, q: int) -> np.ndarray:
    """float64 symmetric residues mod q of an integer array; entries outside (-2**52, 2**52), or Python ints, are reduced with
    `residues` first."""
    a = np.asarray(a)
    if a.dtype == object or (a.size and (a.min() <= -FLOAT_EXACT or a.max() >= FLOAT_EXACT)):
        a = residues(a, p, q)
    return _symmetric(a.astype(np.float64), q)


def cokernel_partition(m, p: int) -> CokernelPartition:
    """Type of the Sylow p-subgroup of cok(m) for square m, with the free rank
    (count of zero elementary divisors) reported alongside."""
    a = _int_rows(m)
    if len(a) != len(a[0]):
        raise ValueError("cokernel_partition expects a square matrix")
    diag = snf_diagonal(a)
    free = sum(1 for d in diag if d == 0)
    vals = []
    for d in diag:
        if d == 0:
            continue
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        if v:
            vals.append(v)
    return CokernelPartition(tuple(sorted(vals, reverse=True)), free)


# ---------------------------------------------------------------------------
# Unit-pivot elimination mod p**N
# ---------------------------------------------------------------------------

def padic_valuations(m: PadicMatrix) -> tuple[int, ...]:
    """Type of cok(m) for a square matrix of residues mod p**N, a weakly
    decreasing tuple with parts at most N.

    A square matrix is block lower triangular with one block, so this is
    streaming_block_eliminate with a single block.  Parts below N are exact
    for any integer lift; a part equal to N is an elementary divisor of
    valuation >= N, or a free summand, of the lift.
    """
    if m.rows != m.cols:
        raise ValueError("padic_valuations expects a square matrix")
    return streaming_block_eliminate(m, (m.rows,))


def streaming_block_eliminate(m: PadicMatrix, block_sizes: Sequence[int]) -> tuple[int, ...]:
    """Type of cok(m) for a block lower triangular matrix of residues mod
    p**N, eliminated one block row at a time.

    Block row i may be nonzero only in block columns j <= i (diagonal,
    subdiagonal, and strictly-lower fill).  Apart from the GF(p) search, each
    arriving block row costs a fixed number of array operations, with no
    per-pivot loop.  The elimination is right-looking and keeps one work
    array: the carry (the rows without a pivot yet), then every row from the
    arriving block row down, reduced against every pivot so far and kept on
    the carry's columns only (pivot columns are zero in them).  A block row
    widens it by its block column, zero on the carry rows.  One Gauss-Jordan
    search over GF(p) (_unit_pivots) on the carry and the arriving rows finds
    a maximal set of unit pivots, whose inverse mod p Newton iteration lifts
    to mod p**N in about log2(N) GEMM pairs; one GEMM gives the new pivot
    rows and one more updates every other row.  The searched rows left are
    the next carry, every entry divisible by p since the pivot set is
    maximal mod p.  The search is a loop over the searched rows: at p = 2 a
    row is one Python int and meeting a pivot is one XOR, so it costs
    O(rows * pivots) XORs; at odd p each row costs a few numpy operations.
    For random balanced diagonal blocks the carry stays near the block size
    n_i, so block row i costs O(n * n_i**2) scalar work in GEMMs.

    After the last block row the carry is divided by p and the modulus
    lowered to p**(N - v), one elimination step per level v, so the units
    found at level v are parts equal to v.  Rows left once the carry
    vanishes, or at level N, are saturated: parts equal to N.  Elementary
    divisors do not depend on the pivot order, so the type equals that of
    any two-sided elimination of the assembled matrix.
    """
    sizes = [int(s) for s in block_sizes]
    if any(s <= 0 for s in sizes):
        raise ValueError("block sizes must be positive")
    n = sum(sizes)
    if m.rows != n or m.cols != n:
        raise ValueError("block sizes do not tile the matrix")
    k = len(sizes)
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)

    p, N = m.p, m.precision
    data = m.data

    active = data[:, :0]  # the carry rows, then rows r0.., on the carry's columns

    for i in range(k):
        r0, r1 = offsets[i], offsets[i + 1]
        if (data[r0:r1, r1:] != 0).any():
            raise BlockStructureError(
                f"block row {i + 1} has a nonzero block above the diagonal"
            )
        # columns r0..r1 are new: zero in the carry, the only earlier rows left
        carried = active.shape[0] - (n - r0)
        new = np.zeros((active.shape[0], r1 - r0), dtype=data.dtype)
        new[carried:] = data[r0:, r0:r1]
        _, active = _eliminate_units(np.concatenate([active, new], axis=1), carried + r1 - r0, p, N)

    parts = []  # weakly increasing: the units found at level v are parts v
    for v in range(1, N):
        if not active.any():  # empty, or every row left is saturated
            break
        cols, active = _eliminate_units(active // p, active.shape[0], p, N - v)
        parts += [v] * cols.size
    return (N,) * active.shape[0] + tuple(reversed(parts))


def residues(a, p: int, q: int):
    """Residues in [0, q) of an integer array (int64 or object) or int, for
    q a power of p: a bit mask at p = 2, which is also right for negative
    int64 and Python ints, `%` otherwise."""
    return a & (q - 1) if p == 2 else a % q


def _eliminate_units(work, m: int, p: int, precision: int):
    """One elimination step mod q = p**precision on rows of residues.

    Finds a maximal set of unit pivots among the first m rows (rows R,
    columns K, with A = work[R, K] invertible mod p), lifts A**-1 to mod q,
    and returns (K, S): S = work[~R, ~K] - work[~R, K] A**-1 work[R, ~K],
    every row but the pivot rows reduced on the columns left, in order.
    The searched rows of S are 0 mod p."""
    q = p ** precision
    rows, cols, inv = _unit_pivots(residues(work[:m], p, p), p)
    if not cols.size:
        return cols, work
    top = work[rows]
    a = top[:, cols]
    x = inv.astype(work.dtype)
    lifted = 1
    while lifted < precision:  # Newton: x <- 2x - x (a x) doubles the precision
        x = residues(2 * x - np.dot(x, residues(np.dot(a, x), p, q)), p, q)
        lifted *= 2
    keep_rows = np.ones(work.shape[0], dtype=bool)
    keep_rows[rows] = False
    keep_cols = np.ones(work.shape[1], dtype=bool)
    keep_cols[cols] = False
    w = residues(np.dot(x, top[:, keep_cols]), p, q)
    rest = work[keep_rows]
    return cols, residues(rest[:, keep_cols] - np.dot(rest[:, cols], w), p, q)


def _unit_pivots(bits, p: int):
    """Gauss-Jordan over GF(p) on a matrix of residues mod p, row by row.

    Returns (R, K, inv): the rows R that gave pivots, their pivot columns K,
    and inv = A**-1 mod p for A = bits[R, K] (row j of inv belongs to column
    K[j], column i to row R[i]).  Each row carries its own identity row, so
    after reduction that part of a pivot row is the combination of carry
    rows it is, i.e. a row of A**-1.  At p = 2 a row is a Python int, bit j
    for column j and bit c + i for the identity, reduced with XOR, so any
    width works; a new row meets only the pivots whose columns it hits.
    """
    r, c = bits.shape
    if p == 2:
        packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
        width = packed.shape[1]
        buf = packed.tobytes()
        mask = (1 << c) - 1
        pivots: dict[int, int] = {}     # pivot column bit -> reduced row
        hit_mask = 0                    # OR of the pivot column bits
        rows = []
        for i in range(r):
            v = int.from_bytes(buf[i * width:(i + 1) * width], "little") | 1 << (c + i)
            hits = v & hit_mask         # reduced pivots leave other pivot bits alone
            while hits:
                low = hits & -hits
                v ^= pivots[low]
                hits ^= low
            low = v & mask
            if low:
                low &= -low
                for key, piv in pivots.items():
                    if piv & low:
                        pivots[key] = piv ^ v
                pivots[low] = v
                hit_mask |= low
                rows.append(i)
        nbytes = (r + 7) // 8
        track = b"".join((v >> c).to_bytes(nbytes, "little") for v in pivots.values())
        combos = np.unpackbits(
            np.frombuffer(track, dtype=np.uint8).reshape(len(pivots), nbytes),
            axis=1, bitorder="little",
        )
        cols = [key.bit_length() - 1 for key in pivots]
    else:
        aug = np.concatenate([bits, np.identity(r, dtype=bits.dtype)], axis=1)
        piv = aug[:0]
        cols, rows = [], []
        for i in range(r):
            v = aug[i]
            if cols:
                v = (v - np.dot(v[cols], piv)) % p
            nonzero = np.flatnonzero(v[:c])
            if nonzero.size:
                col = int(nonzero[0])
                v = v * pow(int(v[col]), -1, p) % p
                piv = np.concatenate([(piv - np.outer(piv[:, col], v)) % p, v[None, :]])
                cols.append(col)
                rows.append(i)
        combos = piv[:, c:]
    rows = np.array(rows, dtype=np.intp)
    return rows, np.array(cols, dtype=np.intp), combos[:, rows]
