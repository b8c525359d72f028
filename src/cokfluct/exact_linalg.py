"""Exact integer and p-adic linear algebra.

Smith normal form over Z with arbitrary-precision integers, and one
unit-pivot elimination kernel mod p**N for elementary-divisor p-valuations:
streaming_block_eliminate takes a block lower triangular matrix one block row
at a time, and padic_valuations is its one-block case.

Integer matrices are plain 2-D arrays (int64 or object) or nested lists; the
exact routines copy them into rows of Python ints before any arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "PadicMatrix",
    "DivisorValuations",
    "CokernelPartition",
    "BlockStructureError",
    "snf_diagonal",
    "cokernel_partition",
    "padic_valuations",
    "streaming_block_eliminate",
    "reduce_matrix",
]


class BlockStructureError(ValueError):
    """A block claimed by the lower triangular layout is above the diagonal."""


def residue_dtype(p: int, precision: int, dim: int):
    """Array dtype for residues mod p**precision with `dim`-length dots:
    int64 when every intermediate (a dot of at most `dim` products of two
    residues) fits exactly, Python ints otherwise."""
    q = p ** precision
    return np.int64 if dim * (q - 1) * (q - 1) < 2 ** 62 else object


class PadicMatrix:
    """Matrix of residues mod p**precision.

    Entries live in [0, p**precision).  Backed by an int64 ndarray when the
    elimination's intermediates fit, by an object ndarray of Python ints
    otherwise.
    """

    __slots__ = ("rows", "cols", "p", "precision", "data")

    def __init__(self, data, p: int, precision: int):
        if precision < 1:
            raise ValueError("precision must be >= 1")
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ValueError("need a 2-D array")
        q = p ** precision
        check = arr.astype(object) if (arr.dtype != object and q > np.iinfo(np.int64).max) else arr
        if not ((check >= 0) & (check < q)).all():
            raise ValueError("entries must lie in [0, p**precision)")
        arr = arr.astype(residue_dtype(p, precision, max(arr.shape)), copy=True)
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
    a = np.asarray(a)
    q = p ** precision
    if q > 2 ** 62 and a.dtype != object:
        a = a.astype(object)
    return PadicMatrix(a % q, p, precision)


@dataclass(frozen=True)
class DivisorValuations:
    """p-valuations of the elementary divisors resolvable at the working
    precision, plus the count of diagonal positions that vanished mod p**N."""

    valuations: tuple[int, ...]
    saturated_count: int

    def partition(self) -> tuple[int, ...]:
        """Positive valuations, weakly decreasing: the cokernel's p-type."""
        return tuple(sorted((v for v in self.valuations if v > 0), reverse=True))


class CokernelPartition(NamedTuple):
    partition: tuple[int, ...]
    free_rank: int


# ---------------------------------------------------------------------------
# Exact Smith normal form
# ---------------------------------------------------------------------------

def _int_rows(m) -> list[list[int]]:
    """Fresh rows of Python ints of a 2-D integer array (int64 or object) or
    nested list, so the exact routines never compute in int64."""
    if isinstance(m, np.ndarray):
        if m.ndim != 2:
            raise ValueError("need a 2-D integer matrix")
        m = m.tolist()
    rows = [[int(x) for x in row] for row in m]
    if not rows or not rows[0]:
        raise ValueError("matrix dimensions must be positive")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged rows")
    return rows


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


def det_bareiss(m) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = _int_rows(m)
    n = len(a)
    if n != len(a[0]):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for t in range(n):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if a[i][t]), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def rational_rank(m) -> int:
    """Rank over Q by fraction-free elimination with full pivoting."""
    a = _int_rows(m)
    nrows, ncols = len(a), len(a[0])
    prev = 1
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
        if j != t:
            for row in a:
                row[j], row[t] = row[t], row[j]
        for r in range(t + 1, nrows):
            for c in range(t + 1, ncols):
                a[r][c] = (a[r][c] * a[t][t] - a[r][t] * a[t][c]) // prev
            a[r][t] = 0
        prev = a[t][t]
        rank += 1
    return rank


def dets_vanish_mod(blocks: np.ndarray, prime: int) -> np.ndarray:
    """For a (b, n, n) stack of integer matrices, whether each determinant
    is 0 mod `prime`, by one batched elimination over GF(prime).

    Rows are combined as piv * row_i - a_it * row_t, which scales a
    determinant only by nonzero pivots, so no inverses are needed; with
    prime < 2**31 every product fits int64."""
    a = np.asarray(blocks, dtype=np.int64) % prime
    b, n, _ = a.shape
    vanish = np.zeros(b, dtype=bool)
    idx = np.arange(b)
    for t in range(n):
        nonzero = a[:, t:, t] != 0
        vanish |= ~nonzero.any(axis=1)
        r = t + np.argmax(nonzero, axis=1)
        a[idx, t], a[idx, r] = a[idx, r], a[idx, t].copy()
        piv = a[:, t, t, None, None]
        below = a[:, t + 1:, t, None]
        a[:, t + 1:, t:] = (a[:, t + 1:, t:] * piv - below * a[:, None, t, t:]) % prime
    return vanish


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

def padic_valuations(m: PadicMatrix) -> DivisorValuations:
    """Elementary-divisor p-valuations of a square matrix mod p**precision.

    A square matrix is block lower triangular with one block, so this is
    streaming_block_eliminate with a single block.  Valuations below the
    precision are exact for any integer lift; positions whose residual block
    vanished mod p**precision are only known to carry valuation >= precision
    and are counted as saturated.
    """
    if m.rows != m.cols:
        raise ValueError("padic_valuations expects a square matrix")
    return streaming_block_eliminate(m, (m.rows,))


def streaming_block_eliminate(m: PadicMatrix, block_sizes: Sequence[int]) -> DivisorValuations:
    """Elementary-divisor p-valuations of a block lower triangular matrix mod
    p**precision, eliminated one block row at a time.

    Block row i may be nonzero only in block columns j <= i (diagonal,
    subdiagonal, and strictly-lower fill).  Unit pivots are finalized as they
    appear, so only a small carry of unit-free rows survives the last block
    row; for random balanced diagonal blocks the carry stays near the block
    size, giving roughly O(k * max(n_i)**3) scalar work.  Every entry of that
    carry is divisible by p: dividing it by p and lowering the modulus to
    p**(N - v) turns the units found at level v into divisors of valuation v.
    Rows still left at level N are saturated.  Elementary divisors do not
    depend on the pivot order, so the result equals that of any two-sided
    elimination of the assembled matrix.
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

    for i in range(k):
        r0, r1 = offsets[i], offsets[i + 1]
        if r1 < n and (m.data[r0:r1, r1:] != 0).any():
            raise BlockStructureError(
                f"block row {i + 1} has a nonzero block above the diagonal"
            )

    p = m.p
    q = p ** m.precision
    dtype = m.data.dtype

    active: list[int] = []      # global ids of columns without a unit pivot
    consumed: list[int] = []    # global ids of columns consumed, pivot order
    carry = np.zeros((0, 0), dtype=dtype)
    pivot_rows = np.zeros((0, 0), dtype=dtype)  # coefficients on active cols
    unit_pivots = 0

    for i in range(k):
        r0, r1 = offsets[i], offsets[i + 1]
        new_cols = list(range(r0, r1))
        carry = np.hstack([carry, np.zeros((carry.shape[0], len(new_cols)), dtype=dtype)])
        pivot_rows = np.hstack([pivot_rows, np.zeros((pivot_rows.shape[0], len(new_cols)), dtype=dtype)])
        active.extend(new_cols)

        block = np.array(m.data[r0:r1, :r1], dtype=dtype)
        y = block[:, active]
        if consumed:
            x = block[:, consumed]
            y = (y - np.dot(x, pivot_rows)) % q
        carry = np.vstack([carry, y])

        # pivot_rows is only read when a later block row arrives
        upkeep = pivot_rows if i < k - 1 else None
        carry, pivot_rows, finalized = _finalize_units(carry, p, q, upkeep, active, consumed)
        unit_pivots += finalized

    valuations = [0] * unit_pivots
    for v in range(1, m.precision):
        if not carry.shape[0]:
            break
        q //= p
        carry, _, finalized = _finalize_units(carry // p, p, q)
        valuations.extend([v] * finalized)
    return DivisorValuations(tuple(valuations), carry.shape[0])


def _finalize_units(carry, p, q, pivot_rows=None, active=None, consumed=None):
    """Split off unit pivots from the carry mod q until none remain.

    Each finalization removes one carry row and one column.  Given
    pivot_rows, the column's id also moves from active to consumed and every
    stored pivot row is kept reduced to zero on all consumed columns
    (Gauss-Jordan maintenance), so an arriving block row needs a single
    reduction pass; without it that upkeep is skipped.
    """
    finalized = 0
    while carry.shape[0]:
        units = (carry % p) != 0
        if not units.any():
            break
        flat = int(np.argmax(units))
        r, c = divmod(flat, carry.shape[1])
        uinv = pow(int(carry[r, c]), -1, q)
        pivrow = (carry[r] * uinv) % q
        colv = carry[:, c].copy()
        colv[r] = 0
        carry = (carry - np.outer(colv, pivrow)) % q
        carry = np.delete(np.delete(carry, r, axis=0), c, axis=1)
        if pivot_rows is not None:
            if pivot_rows.shape[0]:
                pivot_rows = (pivot_rows - np.outer(pivot_rows[:, c], pivrow)) % q
            pivot_rows = np.delete(pivot_rows, c, axis=1)
            pivot_rows = np.vstack([pivot_rows, np.delete(pivrow, c)[None, :]])
            consumed.append(active.pop(c))
        finalized += 1
    return carry, pivot_rows, finalized
