"""Exact integer and p-adic linear algebra.

Smith normal form over Z with arbitrary-precision integers, and one
elimination kernel mod p**N that gives the type of cok(M mod p**N):
streaming_block_eliminate takes a block lower triangular matrix, and
padic_valuations is its one-block case.  The pivots of different diagonal
blocks lie in different rows and columns, so one step takes them all: one
Gauss-Jordan search over GF(p) finds a maximal set of unit pivots in every
diagonal block (a block is one Python int of row lanes at p = 2), one
batched Newton iteration lifts the inverses of all the pivot blocks to mod
p**N, and one forward substitution, one GEMM pair per block, leaves the
Schur complement of the rows and columns without a pivot.  The substitution
reads each block row from its lead column, the first column where any of
its rows is nonzero (0 if one of its rows is zero), so block row i of a
block bidiagonal matrix costs two blocks, not i + 1.  The Schur complement,
a much smaller matrix, then goes through the same step as a single block,
and through one more per divide-by-p level.

Integer matrices are plain 2-D arrays (int64 or object) or nested lists; the
exact routines copy them into rows of Python ints before any arithmetic.
The kernel takes one with (p, N) and reduces mod p**N only what it reads:
the GF(p) search reduces its gathers mod p, and every block of rows a GEMM
reads is reduced and lifted to float64 as it is gathered (_float_residues),
so no trial builds a reduced copy first.  An object matrix, or any matrix
past the float64 bound, is reduced once up front instead.

There are two arithmetics.  The kernel and two batched routines compute in
float64 wherever every intermediate is an integer below 2**53, so the BLAS
arithmetic is exact integer arithmetic (word-size prime fields in floating
point, as in FFLAS-FFPACK: Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008);
residues are then kept symmetric, |r| <= q // 2 + 1, which doubles the
largest modulus the bound (float_exact) admits.  Past that bound they
compute on Python-int residues in [0, q), which one rule gives for any
modulus q (`residues`): a bit mask when q is a power of two, `%`
otherwise.  product_mod multiplies a stack of square matrices mod q by a
pairwise tree of np.matmul calls, and dets_vanish_mod tells which
determinants of a stack vanish mod a word-size prime by one elimination
of the whole stack.  has_kernel_vector lets a float SVD propose an
integer kernel vector of a square matrix and checks it exactly, in int64
while max|m| sum|v| < 2**63 and in Python ints past it, so only a checked
vector proves singularity.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from typing import NamedTuple, Sequence

import numpy as np

from .pgroups import _integer, _is_prime

__all__ = [
    "CokernelPartition",
    "BlockStructureError",
    "snf_diagonal",
    "cokernel_partition",
    "padic_valuations",
    "streaming_block_eliminate",
    "residues",
    "product_mod",
]


class BlockStructureError(ValueError):
    """A block claimed by the lower triangular layout is above the diagonal."""


FLOAT_EXACT = 2 ** 52  # |x| below this keeps _symmetric(x, q) within the integers float64 holds (< 2**53)


def float_exact(dim: int, q: int) -> bool:
    """Whether float64 computes mod q exactly on symmetric residues, |r| <=
    q // 2 + 1: a dot of `dim` products of two of them stays below 2**52,
    and so does its _symmetric residue."""
    return dim * (q // 2 + 1) ** 2 < FLOAT_EXACT


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
    zeros last.  One loop, in which the least nonzero entry of the trailing
    block is always the pivot (the standard guard against entry explosion:
    Havas, Holt & Rees, Linear Algebra Appl. 192, 1993).  For each t:

    1. move the least nonzero entry of the trailing block to (t, t);
    2. clear column t below it by row operations, then row t to its right
       by column operations (column t below is zero by then, so they touch
       row t alone: its entries become their remainders mod the pivot);
    3. a nonzero remainder is smaller than the pivot: back to 1, where it
       becomes the next pivot;
    4. else, if the pivot does not divide some entry of a trailing row, add
       that row to row t and go back to 1;
    5. else d_t = |pivot|; once no nonzero entry is left, the rest are 0.

    The loop ends: |pivot| strictly falls at least every second pass, since
    after step 4 the least entry is at most |pivot|, found at (t, t) first
    at a tie, and row t then leaves a nonzero remainder.  Rows above t are
    zero from column t on, and rows from t on are zero before column t, so
    column swaps only visit rows t onwards.  On one Xeon core a 64 x 64
    matrix with entries in [-100, 100] takes 0.4-0.6 s, and a 40 x 40 one
    in [-9, 9] 0.05 s.
    """
    a = _int_rows(m)
    nrows, ncols = len(a), len(a[0])
    size = min(nrows, ncols)
    diag: list[int] = []
    t = 0
    while t < size:
        pos = _min_abs_nonzero(a, t, nrows, ncols)
        if pos is None:
            break
        i, j = pos
        a[i], a[t] = a[t], a[i]
        if j != t:
            for row in a[t:]:
                row[j], row[t] = row[t], row[j]
        top = a[t]
        piv = top[t]
        for i in range(t + 1, nrows):
            row = a[i]
            if row[t]:
                q = row[t] // piv
                a[i] = [x - q * y for x, y in zip(row, top)]
        if any(row[t] for row in a[t + 1:]):
            continue
        top[t + 1:] = [x % piv for x in top[t + 1:]]
        if any(top[t + 1:]):
            continue
        bad = next((row for row in a[t + 1:] if any(x % piv for x in row[t + 1:])), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(top, bad)]
            continue
        diag.append(abs(piv))
        t += 1
    diag.extend([0] * (size - len(diag)))
    return diag


def _min_abs_nonzero(a, t, nrows, ncols):
    """(i, j) of the first nonzero entry of least absolute value in the
    trailing block from (t, t), in row-major order; None if it is zero."""
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


KERNEL_DENOMINATOR = 64  # largest d tried to clear the denominators of a float kernel vector
KERNEL_TOLERANCE = 1e-6  # how far from an integer an entry of d x may lie


def has_kernel_vector(m) -> bool:
    """Whether a float SVD proposes an integer v != 0 with m v = 0 or
    v^T m = 0 that checks exactly: True proves rank < n for a square
    integer matrix m over Q; False proves nothing.

    The right and the left singular vector of the least singular value are
    each scaled by their largest entry (so v != 0), and the least
    d <= KERNEL_DENOMINATOR that brings every entry of d x within
    KERNEL_TOLERANCE of an integer gives v = rint(d x).  m v (or m^T v) is
    then computed exactly: in int64 when max|m| sum|v| < 2**63 bounds every
    partial sum, in Python ints otherwise.  No such d, a non-finite vector
    or an SVD that does not converge gives False."""
    a = np.asarray(m)
    try:
        u, _, vh = np.linalg.svd(a.astype(np.float64))
    except np.linalg.LinAlgError:
        return False
    bound = max(int(a.max()), -int(a.min()))
    return any(_annihilates(b, x, bound) for b, x in ((a, vh[-1]), (a.T, u[:, -1])))


def _annihilates(a: np.ndarray, x: np.ndarray, bound: int) -> bool:
    """Whether the integer vector that x proposes (see has_kernel_vector)
    exists and a v = 0 exactly; `bound` is max|a|."""
    x = x / x[np.argmax(np.abs(x))]
    if not np.isfinite(x).all():
        return False
    scaled = np.arange(1, KERNEL_DENOMINATOR + 1)[:, None] * x
    near = (np.abs(scaled - np.rint(scaled)) <= KERNEL_TOLERANCE).all(axis=1)
    if not near.any():
        return False
    v = np.rint(scaled[near.argmax()]).astype(np.int64)
    if bound * int(np.abs(v).sum()) < 2 ** 63:
        return not (a @ v).any()
    v = v.tolist()
    return all(sum(e * c for e, c in zip(row, v)) == 0 for row in _int_rows(a))


def dets_vanish_mod(blocks, prime: int) -> np.ndarray:
    """For a (b, m, m) stack of integer matrices, whether each determinant
    is 0 mod `prime`, by one batched elimination over GF(prime) in float64
    symmetric residues.

    Step t swaps a nonzero of column t into row t, if there is one, and
    combines rows as piv * row_i - a_it * row_t, which scales a determinant
    only by nonzero pivots, so no inverses are needed.  Row t is never
    touched again, so the triangular result keeps every pivot on the
    diagonal and a determinant vanishes exactly when a diagonal entry does.
    prime < 2**26 keeps that combination, at most 2 (prime // 2 + 1)**2 in
    absolute value, below 2**52, so it is exact; a residue is then 0
    exactly when the entry is 0 mod prime, which is what the pivot search
    tests."""
    if not 2 <= prime < 2 ** 26:
        raise ValueError(f"dets_vanish_mod needs a prime below 2**26, got {prime}")
    a = _float_residues(blocks, prime)
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


def product_mod(stack, q: int) -> np.ndarray:
    """stack[0] @ stack[1] @ ... mod q, for a (b, m, m) integer stack (int64
    or object) and any modulus q >= 1; residues in [0, q), int64 in
    float64's range and Python ints past it.

    A pairwise tree of batched np.matmul calls: each level multiplies
    neighbouring pairs in one call and carries an odd last matrix up, so
    the order of the factors, and by associativity every residue, is that
    of a left fold.  A level reduces the array it keeps, carried matrix
    and all (a residue reduces to a residue), so the level below is freed
    before the reduction's temporary is made: a (64, 20, 20) stack of
    small entries peaks at 1.5 times its own bytes.  The tree runs in
    float64 when m (q // 2 + 1)**2 < 2**52: symmetric residues then bound
    every dot below 2**52, which float64 holds exactly, and so the next
    reduction stays exact too.  Otherwise it runs in Python ints with
    `residues`.  q < 1 raises ValueError."""
    if q < 1:
        raise ValueError(f"product_mod needs a modulus q >= 1, got {q}")
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not len(stack):
        raise ValueError("need a (b, m, m) stack of one or more square matrices")
    in_float = float_exact(stack.shape[1], q)
    a = _float_residues(stack, q) if in_float else residues(stack.astype(object, copy=False), q)
    while len(a) > 1:
        pairs = np.matmul(a[0:-1:2], a[1::2])
        a = np.concatenate([pairs, a[-1:]]) if len(a) % 2 else pairs
        a = _symmetric(a, q) if in_float else residues(a, q)
    return np.mod(a[0], q).astype(np.int64) if in_float else a[0]


def _symmetric(x: np.ndarray, q: int) -> np.ndarray:
    """x - q rint(x / q) for a float64 array of integers |x| < 2**52: a
    residue of x mod q with |r| <= q // 2 + 1.  The quotient x * (1 / q)
    rounds twice, so it is off from x / q by less than 1 / q and rint may
    miss the nearest integer by one only within 1 / q of a half; every other
    intermediate is an integer below 2**53, hence exact.  One fresh array
    holds every step, in the order of x - q * rint(x * (1 / q)), so the
    result is that expression's bit for bit, and x is only read."""
    r = x * (1.0 / q)
    np.rint(r, out=r)
    r *= q
    return np.subtract(x, r, out=r)


@functools.lru_cache(maxsize=8)
def _symmetric_table(q: int) -> np.ndarray:
    """The float64 symmetric residue of each of 0 .. q - 1."""
    return _symmetric(np.arange(q, dtype=np.float64), q)


def _float_residues(a, q: int) -> np.ndarray:
    """float64 symmetric residues mod q of an integer array (int64 or
    object) of any integers, as a fresh array.  Up to q = 2**16 they are
    looked up after `residues`.  Above it, entries that already lie in
    [-(q // 2), q // 2], such as 0/1 factors, are symmetric residues and are
    only converted; entries outside (-2**52, 2**52), or Python ints, are
    reduced with `residues` first."""
    a = np.asarray(a)
    if q <= 2 ** 16:
        return _symmetric_table(q).take(residues(a, q).astype(np.int64, copy=False))
    # Python ints, or no entries, go through `residues` (q // 2 < 2**52 here)
    lo, hi = (a.min(), a.max()) if a.dtype != object and a.size else (-FLOAT_EXACT, FLOAT_EXACT)
    if -(q // 2) <= lo and hi <= q // 2:
        return a.astype(np.float64)
    if lo <= -FLOAT_EXACT or hi >= FLOAT_EXACT:
        a = residues(a, q)
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

def padic_valuations(a, p: int, N: int) -> tuple[int, ...]:
    """Type of cok(a mod p**N) for a square integer matrix (int64 or object
    array, or nested list), a weakly decreasing tuple with parts at most N.

    A square matrix is block lower triangular with one block, so this is
    streaming_block_eliminate with a single block.  Parts below N are exact
    for any integer lift; a part equal to N is an elementary divisor of
    valuation >= N, or a free summand, of the lift.
    """
    arr = _integer_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("padic_valuations expects a square matrix")
    return _block_type(arr, (len(arr),), p, N)


def streaming_block_eliminate(a, block_sizes: Sequence[int], p: int, N: int) -> tuple[int, ...]:
    """Type of cok(a mod p**N) for a block lower triangular integer matrix
    (int64 or object array, or nested list); entries need not be reduced.

    Block row i may be nonzero only in block columns j <= i (diagonal,
    subdiagonal, and strictly-lower fill); an entry above that is allowed
    only when it is 0 mod p**N.  The pivots of different diagonal blocks
    lie in different rows and columns, so one step finds them all
    (_eliminate_units): a Gauss-Jordan search over GF(p) finds a maximal set
    of unit pivots in every diagonal block at once, one batched Newton
    iteration lifts the inverses of all their pivot blocks to mod p**N, and
    one forward substitution leaves the Schur complement S of the defect
    rows and columns (those without a pivot), with cok(S) = cok(a) mod p**N.
    The substitution reads block row i from its lead column, the first
    column where any of its rows is nonzero, which the block-structure check
    reads off the mask it builds anyway: a block bidiagonal row, such as a
    row of a product's embedding, is two blocks wide however far down it
    lies.  A zero row has no nonzero column and puts the lead of its block
    row at 0, so such a block row is read whole.
    Every diagonal block of S is 0 mod p, so the unit pivots S still has lie
    off them; S then goes through one more step as a single block.

    After that every entry is divisible by p: the matrix is divided by p and
    the modulus lowered to p**(N - v), one single-block step per level v, so
    the units found at level v are parts equal to v.  Rows left once the
    matrix vanishes, or at level N, are saturated: parts equal to N.
    Elementary divisors do not depend on the pivot order, so the type equals
    that of any two-sided elimination of the assembled matrix.

    The arithmetic is float64 on symmetric residues when n (q // 2 + 1)**2 <
    2**52 for q = p**N (float_exact), so every GEMM is exact.  An int64
    matrix is then read as it is: each step reduces only the entries it
    reads (_float_residues), and the input is never written; any other
    matrix is reduced once up front to int64.  Past the bound every matrix
    is reduced once up front to Python ints, and the arithmetic is theirs.

    p must be a prime, N an integer >= 1 and every block size an integer
    >= 1 (not a bool); anything else raises ValueError.
    """
    return _block_type(_integer_matrix(a), block_sizes, p, N)


def _positive_int(x, name: str) -> int:
    """x as a Python int if it is an integer (pgroups._integer) >= 1; else
    ValueError."""
    x = _integer(x, name)
    if x < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {x!r}")
    return x


def _block_type(a: np.ndarray, block_sizes: Sequence[int], p: int, N: int) -> tuple[int, ...]:
    """streaming_block_eliminate of a checked 2-D integer array."""
    p, N = _positive_int(p, "p"), _positive_int(N, "precision")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    sizes = tuple(_positive_int(s, "block size") for s in block_sizes)
    n = sum(sizes)
    if a.shape != (n, n):
        raise ValueError("block sizes do not tile the matrix")
    q = p ** N
    in_float = float_exact(n, q)
    if not in_float:
        a = residues(a.astype(object, copy=False), q)
    elif a.dtype != np.int64:
        a = residues(a, q).astype(np.int64)
    lead = None
    if len(sizes) > 1:
        lay = _layout(sizes)
        above = a != 0
        # the lead column of each block row: the first column where any of its rows is nonzero;
        # argmax reads 0 for a zero row, so a block row with one is read from column 0
        lead = np.minimum.reduceat(above.argmax(axis=1), lay.offsets[:-1]).tolist()
        above &= lay.above
        if above.any():
            above &= residues(a, q) != 0  # a multiple of p**N is 0
            if above.any():
                block = bisect.bisect_right(lay.offsets, int(np.argmax(above.any(axis=1))))
                raise BlockStructureError(f"block row {block} has a nonzero block above the diagonal")

    _, work = _eliminate_units(a, sizes, p, N, lead)
    if len(sizes) > 1 and work.any():  # the unit pivots off the diagonal blocks
        _, work = _eliminate_units(work, (len(work),), p, N)
    parts = []  # weakly increasing: the units found at level v are parts v
    for v in range(1, N):
        if not work.any():  # empty, or every row left is saturated
            break
        units, work = _eliminate_units(work // p, (len(work),), p, N - v)
        parts += [v] * units
    return (N,) * len(work) + tuple(reversed(parts))


class _Layout(NamedTuple):
    offsets: list[int]     # the first row of each block, then n
    lanes: np.ndarray      # (k, s): row t of block i, for s the largest block; its first row past the block
    inside: np.ndarray     # (k, s, s): whether (t, u) lies in block i
    eye: np.ndarray        # (k, s, s) uint8 identities
    two: np.ndarray        # twice that
    above: np.ndarray      # (n, n): whether the entry lies right of its row's diagonal block


@functools.lru_cache(maxsize=64)
def _layout(sizes: tuple[int, ...]) -> _Layout:
    offsets = [0, *itertools.accumulate(sizes)]
    k, s = len(sizes), max(sizes)
    first = np.array(offsets[:-1])[:, None]
    t = np.arange(s)
    inside = t < np.array(sizes)[:, None]
    block = np.repeat(np.arange(k), sizes)
    eye = np.broadcast_to(np.eye(s, dtype=np.uint8), (k, s, s))
    return _Layout(
        offsets, np.where(inside, first + t, first), inside[:, :, None] & inside[:, None, :],
        eye, 2 * eye, block[None, :] > block[:, None],
    )


def residues(a, q: int):
    """Residues in [0, q) of an integer array (int64 or object) or int, for
    any modulus q >= 1: a bit mask when q is a power of two, which is also
    right for negative int64 and Python ints, `%` otherwise.  q < 1 raises
    ValueError."""
    if q < 1:
        raise ValueError(f"residues needs a modulus q >= 1, got {q}")
    return a & (q - 1) if q & (q - 1) == 0 else a % q


def _eliminate_units(work, sizes: tuple[int, ...], p: int, precision: int, lead=None):
    """One elimination step mod q = p**precision on a block lower triangular
    integer matrix: within float_exact, int64 entries of any size, each
    block reduced as it is read (_float_residues), or float64 symmetric
    residues; past it, Python-int residues in [0, q), an object array.  The
    dtype of work selects the arithmetic and the lift, once per call;
    beyond q, p serves only the search over GF(p).

    Finds a maximal set of unit pivots in each diagonal block (rows R_i,
    columns K_i, with A_i = work[R_i, K_i] invertible mod p), lifts every
    A_i**-1 to mod q, and returns (|R|, S): S = work[~R, ~K] - work[~R, K]
    L**-1 work[R, ~K] for L = work[R, K], on the rows and columns without a
    pivot, in order.  Pivot rows are zero right of their own block column,
    so L is block lower triangular with diagonal blocks A_i, and X = L**-1
    work[R, ~K] is a forward substitution, one GEMM pair per block.  It
    fills W, which has a row per column of work: -X on the pivot columns
    solved so far, the unit row e_j on the j-th column without a pivot, 0
    elsewhere.  Then work[R_i] W = work[R_i, ~K] - work[R_i, K] X for the
    blocks before i, and S = work[~R] W.  Every diagonal block of S is 0
    mod p.

    The pivot blocks are taken in row order and padded with the identity to
    s x s, s the largest block: row t of A_i is row t of the block on the
    pivot columns of its pivot rows when t is a pivot row, e_t otherwise.
    `lead`, when given, holds the lead column of each block row (every
    column left of it is zero in that block row), and the substitution reads
    block row i from lead[i] on.

    In float64 every GEMM runs on symmetric residues: it has at
    most n terms, each a product of two residues, so float_exact(n, q)
    keeps it exact.  When also float_exact(n * n * (q // 2 + 1), q), a
    product with one more residue factor stays exact too, and its inner
    reduction is left out (delayed reduction)."""
    q = p ** precision
    in_float = work.dtype != object
    reduce = functools.partial(_symmetric, q=q) if in_float else functools.partial(residues, q=q)
    lift = functools.partial(_float_residues, q=q) if work.dtype == np.int64 else (lambda a: a)
    lay = _layout(sizes)
    n, k = len(work), len(sizes)
    bits = work[None] if k == 1 else work[lay.lanes[:, :, None], lay.lanes[:, None, :]]
    bits = residues(bits.astype(np.int64) if bits.dtype == np.float64 else bits, p)
    if k > 1:
        bits *= lay.inside
    # the odd-p sweep multiplies two residues: int64 while (p - 1)**2 fits, Python ints past it
    search = np.uint8 if p == 2 else np.int64 if (p - 1) ** 2 < 2 ** 63 else object
    cols, inv = _unit_pivots(bits.astype(search), p, lay.eye)
    pivot = cols >= 0
    r = int(np.count_nonzero(pivot))
    if r == 0:
        return 0, work
    if r == n:
        return n, work[:0, :0]
    if k == 1 and precision == 1:  # S is 0 mod p, as the pivot set is maximal
        return r, np.zeros((n - r, n - r), dtype=work.dtype)

    cols += lay.lanes[:, :1]
    square = pivot[:, :, None] & pivot[:, None, :]
    a = np.where(square, lift(work[lay.lanes[:, :, None], cols[:, None, :]]), lay.eye)
    x = np.where(square, inv, lay.eye).astype(a.dtype)
    delay = in_float and float_exact(n * n * (q // 2 + 1), q)
    once = (lambda y: y) if delay else reduce
    lifted = 1
    while lifted < precision:  # Newton: x <- x (2 - a x) doubles the precision of x = a**-1
        x = reduce(np.matmul(x, lay.two - once(np.matmul(a, x))))
        lifted *= 2

    target = np.where(pivot, cols, n)  # the pivot column of each row; n, a spare row of W, for none
    free = np.ones(n + 1, dtype=bool)
    free[target] = False  # and so free[n] = False, as some row has no pivot
    w = np.zeros((n + 1, n - r), dtype=a.dtype)
    w[free, np.arange(n - r)] = 1
    free_rows = np.ones(n, dtype=bool)
    free_rows[lay.lanes[pivot]] = False
    x = -x
    for i, (start, end) in enumerate(itertools.pairwise(lay.offsets)):
        size = end - start
        lo = 0 if lead is None else lead[i]  # columns left of lo are zero in these rows
        t = once(np.dot(lift(work[start:end, lo:end]), w[lo:end]))
        w[target[i, :size]] = reduce(np.dot(x[i, :size, :size], t))
    return r, reduce(np.dot(lift(work[free_rows]), w[:n]))


def _unit_pivots(bits: np.ndarray, p: int, eye: np.ndarray):
    """Gauss-Jordan over GF(p), column by column, on each matrix of a
    (k, s, s) stack of residues mod p (uint8 at p = 2, else int64 while
    (p - 1)**2 < 2**63 and Python ints past it);
    `eye` is a (k, s, s) uint8 stack of identities.

    Returns (cols, inv): cols[i, t] is the pivot column of row t of block i,
    or -1 when row t has no pivot; inv[i] is the identity part of each row
    after reduction, the combination of the rows of block i it is.  On the
    pivot rows and columns, that is A_i**-1 mod p for A_i = bits[i] on the
    pivot rows and their pivot columns, rows and columns of A_i both in row
    order.  At p = 2 a block is one Python int of rows in lanes 2s bits
    wide, bit j of a lane for column j and bit s + t for the identity:
    clearing column j is one multiply and one XOR, since the lanes with bit
    j set times the pivot lane is a copy of that lane in each of them.  At
    odd p the stack is swept as numpy arrays, all blocks at once.
    """
    k, s, _ = bits.shape
    aug = np.concatenate([bits, eye.astype(bits.dtype, copy=False)], axis=2)
    if p == 2:
        width = 2 * s
        nbytes = (s * width + 7) // 8
        buf = np.packbits(aug.reshape(k, -1), axis=1, bitorder="little").tobytes()
        lane = (1 << width) - 1
        ones = ((1 << width * s) - 1) // lane  # bit 0 of every lane
        cols, reduced = [], []
        for i in range(k):
            x = int.from_bytes(buf[i * nbytes:(i + 1) * nbytes], "little")
            free = ones
            found = [-1] * s
            for j in range(s):
                col = x >> j & ones
                c = col & free
                if c:
                    low = c & -c
                    at = low.bit_length() - 1
                    x ^= (col ^ low) * (x >> at & lane)
                    free ^= low
                    found[at // width] = j
            cols += found
            reduced.append(x.to_bytes(nbytes, "little"))
        cols = np.array(cols, dtype=np.intp).reshape(k, s)
        aug = np.unpackbits(
            np.frombuffer(b"".join(reduced), dtype=np.uint8).reshape(k, nbytes),
            axis=1, count=s * width, bitorder="little",
        ).reshape(k, s, width)
    else:
        cols = np.full((k, s), -1, dtype=np.intp)
        blocks = np.arange(k)
        for j in range(s):
            hit = (aug[:, :, j] != 0) & (cols < 0)
            has = hit.any(axis=1)
            if not has.any():
                continue
            at = hit.argmax(axis=1)
            head = aug[blocks, at]
            scale = [pow(int(v), -1, p) if h else 0 for v, h in zip(head[:, j], has)]
            head = head * np.array(scale, dtype=aug.dtype)[:, None] % p
            aug = (aug - aug[:, :, j, None] * head[:, None, :]) % p
            aug[blocks[has], at[has]] = head[has]
            cols[blocks[has], at[has]] = j
    return cols, aug[:, :, s:]
