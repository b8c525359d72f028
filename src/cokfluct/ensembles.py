"""Random matrix samplers.

Entry distributions with exact residue bookkeeping, the block lower
triangular A+B ensemble, iid matrix products, the block bidiagonal embedding
of a product, and a counter-style deterministic seeding contract:

    rng(trial) = numpy PCG64 seeded with SeedSequence([master_seed, trial])

`draw_integers` is the one draw of a trial: the assembled int64 matrix of a
block trial, or the (k, n, n) int64 factor stack of a product or embedding
trial.  `sample_block_matrix` and `product_factors` hand that draw, read-only
and unreduced, to the elimination kernel, which reduces mod p**N what it
reads; `sample_product` gives the product's residues mod p**N (`residues`),
so a trial is the same integer matrix at every precision.  Exact callers
convert the same draw instead, e.g. the exact product
`functools.reduce(np.dot, draw_integers(spec, trial).astype(object))`.

`certificate_screen` is a trial's singularity screen: the product of its
`determinant_blocks` mod CERTIFICATE_PRIME.  A matrix_product trial forms
its factor product once, mod p**N * CERTIFICATE_PRIME while that tree is
exact in float64, and both `sample_product` and the screen reduce it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact_linalg import _layout, det_bareiss, float_exact, product_mod, residues
from .pgroups import _is_prime

__all__ = [
    "ConfigError",
    "EntryDistribution",
    "EnsembleSpec",
    "GENERATOR_ID",
    "CERTIFICATE_PRIME",
    "default_precision",
    "trial_rng",
    "draw_integers",
    "sample_block_matrix",
    "sample_product",
    "product_factors",
    "factor_determinants",
    "determinant_blocks",
    "certificate_screen",
    "build_bidiagonal_embedding",
]

GENERATOR_ID = "numpy-PCG64(SeedSequence([master_seed, trial]))"
UNIFORM_KINDS = ("uniform_mod", "uniform_range")  # laws with low and high set
CERTIFICATE_PRIME = 1_000_003  # below 2**26, so dets_vanish_mod computes exactly in float64


class ConfigError(ValueError):
    """Invalid ensemble or experiment configuration."""


def config_int(value, name: str) -> int:
    """`value` if it is a JSON integer (an int, not a bool); a float, bool,
    string or null is a ConfigError instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def config_number(value, name: str) -> float:
    """`value` as a float if it is a JSON number (an int or float, not a
    bool); a string, bool or null is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def config_object(value, name: str) -> dict:
    """`value` if it is a JSON object; any other JSON value is a ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def config_fraction(value, name: str) -> Fraction:
    """An exact probability from anything `Fraction` reads (a JSON number, a
    Fraction, a Decimal) or a string such as "1/3"; a bool, null or malformed
    string is a ConfigError."""
    if isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a number or a fraction string, got {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number or a fraction string, got {value!r}") from exc


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(trial)]))


def default_precision(p: int, k: int) -> int:
    """max(16, ceil(log_p k) + 8), a fixed reference precision.

    It does not bound the divisor valuations, whose largest part is about 16
    for 16 blocks of 12x12 and 55-75 for products of 64 factors of 20x20 at
    p = 2."""
    e = 0
    while p ** e < k:
        e += 1
    return max(16, e + 8)


# ---------------------------------------------------------------------------
# Entry distributions
# ---------------------------------------------------------------------------

def _require_int64(name: str, *values: int) -> None:
    """Entries are drawn as int64, so every value a law takes must fit."""
    if any(not -2 ** 63 <= v < 2 ** 63 for v in values):
        raise ConfigError(f"{name} must lie in the int64 range [-2**63, 2**63 - 1]")


@dataclass(frozen=True)
class EntryDistribution:
    """Z-valued entry law: one of uniform_mod, bernoulli, uniform_range,
    finite_support, constant."""

    kind: str
    q: Fraction | None = None
    low: int | None = None
    high: int | None = None
    support: tuple[tuple[int, Fraction], ...] | None = None
    value: int | None = None

    @classmethod
    def uniform_mod(cls, m: int) -> "EntryDistribution":
        if not 1 <= config_int(m, "m") <= 2 ** 63:
            raise ConfigError("uniform_mod needs 1 <= modulus <= 2**63")
        # counted and drawn as uniform_range(0, m - 1), never enumerated
        return cls(kind="uniform_mod", low=0, high=m - 1)

    @classmethod
    def bernoulli(cls, q) -> "EntryDistribution":
        q = config_fraction(q, "q")
        if not 0 <= q <= 1:
            raise ConfigError("bernoulli needs q in [0, 1]")
        return cls(kind="bernoulli", q=q)

    @classmethod
    def uniform_range(cls, low: int, high: int) -> "EntryDistribution":
        low, high = config_int(low, "low"), config_int(high, "high")
        if high < low:
            raise ConfigError("uniform_range needs low <= high")
        _require_int64("uniform_range bounds", low, high)
        return cls(kind="uniform_range", low=low, high=high)

    @classmethod
    def finite_support(cls, pairs) -> "EntryDistribution":
        cleaned = [(config_int(v, "support value"), config_fraction(w, "support weight")) for v, w in pairs]
        if not cleaned:
            raise ConfigError("finite_support needs at least one atom")
        if any(w <= 0 for _, w in cleaned):
            raise ConfigError("finite_support weights must be positive")
        if len({v for v, _ in cleaned}) != len(cleaned):
            raise ConfigError("finite_support values must be distinct")
        _require_int64("finite_support values", *(v for v, _ in cleaned))
        total = sum(w for _, w in cleaned)
        norm = tuple((v, w / total) for v, w in cleaned)
        return cls(kind="finite_support", support=norm)

    @classmethod
    def constant(cls, value: int) -> "EntryDistribution":
        _require_int64("constant value", config_int(value, "value"))
        return cls(kind="constant", value=value)

    # -- exact probability structure --------------------------------------

    def support_pairs(self) -> tuple[tuple[int, Fraction], ...]:
        """(value, probability) atoms; every kind here has finite support."""
        if self.kind in UNIFORM_KINDS:
            w = Fraction(1, self.high - self.low + 1)
            return tuple((v, w) for v in range(self.low, self.high + 1))
        if self.kind == "bernoulli":
            return ((0, 1 - self.q), (1, self.q))
        if self.kind == "finite_support":
            return self.support
        if self.kind == "constant":
            return ((self.value, Fraction(1)),)
        raise ConfigError(f"unknown distribution kind {self.kind!r}")

    def residue_probs(self, p: int) -> list[Fraction]:
        """Exact distribution of X mod p."""
        if self.kind in UNIFORM_KINDS:
            # counted arithmetically: residue classes of [low, high]
            span = self.high - self.low + 1
            return [Fraction((self.high - r) // p - (self.low - 1 - r) // p, span) for r in range(p)]
        probs = [Fraction(0)] * p
        for v, w in self.support_pairs():
            probs[v % p] += w
        return probs

    def best_epsilon(self, p: int) -> Fraction:
        """Largest eps with P(X = r mod p) <= 1 - eps for every residue r."""
        return 1 - max(self.residue_probs(p))

    def is_balanced(self, p: int) -> bool:
        return self.best_epsilon(p) > 0

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.kind in UNIFORM_KINDS:
            return rng.integers(self.low, self.high + 1, size=shape, dtype=np.int64)
        if self.kind == "bernoulli":
            return (rng.random(shape) < float(self.q)).astype(np.int64)
        if self.kind == "finite_support":
            values = np.array([v for v, _ in self.support], dtype=np.int64)
            weights = np.array([float(w) for _, w in self.support])
            weights = weights / weights.sum()
            idx = rng.choice(len(values), size=shape, p=weights)
            return values[idx]
        if self.kind == "constant":
            return np.full(shape, self.value, dtype=np.int64)
        raise ConfigError(f"unknown distribution kind {self.kind!r}")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "uniform_mod":
            d["m"] = self.high + 1
        elif self.kind == "bernoulli":
            d["q"] = str(self.q)
        elif self.kind == "uniform_range":
            d["low"], d["high"] = self.low, self.high
        elif self.kind == "finite_support":
            d["support"] = [[v, str(w)] for v, w in self.support]
        elif self.kind == "constant":
            d["value"] = self.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EntryDistribution":
        kind = config_object(d, "distribution").get("kind")
        try:
            if kind == "uniform_mod":
                return cls.uniform_mod(d["m"])
            if kind == "bernoulli":
                return cls.bernoulli(d["q"])
            if kind == "uniform_range":
                return cls.uniform_range(d["low"], d["high"])
            if kind == "finite_support":
                support = d["support"]
                if not isinstance(support, list) or not all(
                    isinstance(pair, list) and len(pair) == 2 for pair in support
                ):
                    raise ConfigError(f"support must be a list of [value, weight] pairs, got {support!r}")
                return cls.finite_support(support)
            if kind == "constant":
                return cls.constant(d["value"])
        except KeyError as exc:
            raise ConfigError(f"distribution {kind!r} missing field {exc}") from exc
        raise ConfigError(f"unknown distribution kind {kind!r}")


# ---------------------------------------------------------------------------
# Ensemble specifications
# ---------------------------------------------------------------------------

ENSEMBLE_KINDS = ("block_triangular", "matrix_product", "bidiagonal_embedding")


@dataclass(frozen=True)
class EnsembleSpec:
    """Full description of a random matrix ensemble.

    block_triangular: C = A + B with A supported on block (i, i) and
    (i, i-1), B supported strictly below the subdiagonal, blocks of sizes
    block_sizes, A entries balanced at p. matrix_product /
    bidiagonal_embedding: k iid n x n factor matrices with A_dist entries.
    """

    p: int
    kind: str
    k: int
    A_dist: EntryDistribution
    master_seed: int
    block_sizes: tuple[int, ...] | None = None
    n: int | None = None
    B_dist: EntryDistribution | None = None

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ConfigError(f"unknown ensemble kind {self.kind!r}")
        if config_int(self.k, "k") < 1:
            raise ConfigError("k must be >= 1")
        if self.kind == "block_triangular":
            if self.block_sizes is None:
                raise ConfigError("block_triangular needs block_sizes")
            sizes = tuple(config_int(s, "block_sizes entry") for s in self.block_sizes)
            if len(sizes) != self.k or any(s < 1 for s in sizes):
                raise ConfigError("block_sizes must be k positive ints")
            object.__setattr__(self, "block_sizes", sizes)
            if self.B_dist is None:
                raise ConfigError("block_triangular needs B_dist")
            if self.n is not None:
                raise ConfigError(f"block_triangular takes no n, got {self.n!r}")
        else:
            if self.n is None or config_int(self.n, "n") < 1:
                raise ConfigError(f"{self.kind} needs n >= 1")
            for field in ("block_sizes", "B_dist"):
                if getattr(self, field) is not None:
                    raise ConfigError(f"{self.kind} takes no {field}, got {getattr(self, field)!r}")
        if config_int(self.master_seed, "master_seed") < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if not _is_prime(config_int(self.p, "p")):
            raise ConfigError(f"p must be prime, got {self.p}")
        if not self.A_dist.is_balanced(self.p):
            raise ConfigError(
                f"entry distribution for the A blocks is constant mod p={self.p}; "
                "balanced entries (no residue with probability 1) are required"
            )

    def working_precision(self) -> int:
        # read only by benchmarks/child.py, for its escalated_trials count
        return default_precision(self.p, self.k)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "kind": self.kind,
            "k": self.k,
            "block_sizes": list(self.block_sizes) if self.block_sizes else None,
            "n": self.n,
            "A_dist": self.A_dist.to_dict(),
            "B_dist": self.B_dist.to_dict() if self.B_dist else None,
            "master_seed": self.master_seed,
            "precision": None,  # kept so reports keep their bytes
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleSpec":
        config_object(d, "ensemble")
        if d.get("precision") is not None:
            raise ConfigError(
                "ensemble.precision must be null: simulate works mod p**D, "
                "D = max(d, largest part of any group)"
            )
        try:
            sizes = d.get("block_sizes")
            if sizes and not isinstance(sizes, (list, tuple)):
                raise ConfigError(f"block_sizes must be a list of integers, got {sizes!r}")
            return cls(
                p=d["p"],
                kind=d["kind"],
                k=d["k"],
                A_dist=EntryDistribution.from_dict(d["A_dist"]),
                master_seed=d["master_seed"],
                block_sizes=sizes or None,
                n=d.get("n"),
                B_dist=EntryDistribution.from_dict(d["B_dist"]) if d.get("B_dist") else None,
            )
        except KeyError as exc:
            raise ConfigError(f"ensemble spec missing field {exc}") from exc


# ---------------------------------------------------------------------------
# Draws and samplers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _block_layout(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into the n x n matrix of the A entries (every diagonal
    block, then every subdiagonal block) and of the B entries (block rows
    i >= 2, block columns j < i - 1), each block in row-major order."""
    k = len(sizes)
    offs = np.cumsum((0,) + sizes)
    flat = np.arange(offs[-1] ** 2).reshape(offs[-1], offs[-1])
    a = [(i, i) for i in range(k)] + [(i, i - 1) for i in range(1, k)]
    b = [(i, j) for i in range(2, k) for j in range(i - 1)]
    return tuple(
        np.concatenate([flat[:0, 0]] + [flat[offs[i]:offs[i + 1], offs[j]:offs[j + 1]].ravel() for i, j in blocks])
        for blocks in (a, b)
    )


@functools.lru_cache(maxsize=1)
def draw_integers(spec: EnsembleSpec, trial: int) -> np.ndarray:
    """The integer draw of one trial, before any reduction: the assembled
    n x n int64 matrix of a block_triangular trial, the (k, n, n) int64
    factor stack otherwise.  Read-only.

    One `sample` call per entry law, in a fixed order (block trials: the A
    entries of all diagonal blocks, then of all subdiagonal blocks, then
    the B entries, scattered through _block_layout; factor trials: one
    factor after another), so the draw is a pure function of (master_seed,
    trial).  Every law draws entry by entry from one stream (PCG64 keeps a
    half-used 32-bit word across calls), so this is the same stream as one
    call per block.  The last draw is kept, so the samplers and
    determinant_blocks of one trial share it.
    """
    if trial < 0:
        raise ValueError("trial must be >= 0")
    rng = trial_rng(spec.master_seed, trial)
    if spec.kind != "block_triangular":
        full = spec.A_dist.sample(rng, (spec.k, spec.n, spec.n))
    else:
        a, b = _block_layout(spec.block_sizes)
        n = sum(spec.block_sizes)
        full = np.zeros(n * n, dtype=np.int64)
        full[a] = spec.A_dist.sample(rng, a.size)
        full[b] = spec.B_dist.sample(rng, b.size)
        full = full.reshape(n, n)
    full.setflags(write=False)
    return full


def sample_block_matrix(spec: EnsembleSpec, trial: int) -> np.ndarray:
    """One trial of the A+B block ensemble: the assembled n x n int64 draw,
    read-only and unreduced (the kernel reduces what it reads)."""
    if spec.kind != "block_triangular":
        raise ConfigError("sample_block_matrix needs a block_triangular spec")
    return draw_integers(spec, trial)


def _require_factor_kind(spec: EnsembleSpec, op: str):
    if spec.kind not in ("matrix_product", "bidiagonal_embedding"):
        raise ConfigError(f"{op} needs a matrix_product or bidiagonal_embedding spec")


def product_factors(spec: EnsembleSpec, trial: int) -> np.ndarray:
    """The (k, n, n) int64 stack of a product trial's factors: the draw
    itself, read-only and unreduced (the kernel reduces what it reads)."""
    _require_factor_kind(spec, "product_factors")
    return draw_integers(spec, trial)


def _combined_modulus(spec: EnsembleSpec, precision: int) -> int | None:
    """Q = p**precision * CERTIFICATE_PRIME when product_mod runs a tree of
    n x n factors mod Q in float64 (n (Q // 2 + 1)**2 < 2**52), else None.
    Past that bound the tree would run in Python ints, slower than two
    float64 trees, one mod p**precision and one mod the prime."""
    q = spec.p ** precision * CERTIFICATE_PRIME
    return q if float_exact(spec.n, q) else None


@functools.lru_cache(maxsize=1)
def _factor_product(spec: EnsembleSpec, trial: int, q: int) -> np.ndarray:
    """A_1 A_2 ... A_k mod q, read-only: q is the combined modulus of
    _combined_modulus, or p**precision past its bound.  The last product is
    kept, so sample_product and certificate_screen of one trial share the
    combined one."""
    prod = product_mod(draw_integers(spec, trial), q)
    prod.setflags(write=False)
    return prod


def sample_product(spec: EnsembleSpec, trial: int, precision: int) -> np.ndarray:
    """A_1 A_2 ... A_k mod p**precision by exact_linalg.product_mod: a
    pairwise tree of batched products, in float64 while that is exact.
    Residues in [0, p**precision): int64, or Python ints past the float64
    bound.

    While _combined_modulus admits Q = p**precision * CERTIFICATE_PRIME, the
    tree runs once mod Q and is kept for the trial's certificate_screen;
    p**precision divides Q, so the residues are those of the tree mod
    p**precision.  Past that bound the tree runs mod p**precision itself."""
    _require_factor_kind(spec, "sample_product")
    q = spec.p ** precision
    return residues(_factor_product(spec, trial, _combined_modulus(spec, precision) or q), q)


def factor_determinants(spec: EnsembleSpec, trial: int) -> list[int]:
    """Exact determinants of the factor matrices of a product trial.

    det(A_1 ... A_k) is their product, so these certify the total divisor
    valuation (or the singularity) of the product without ever forming it."""
    _require_factor_kind(spec, "factor_determinants")
    return [det_bareiss(f) for f in draw_integers(spec, trial)]


def determinant_blocks(spec: EnsembleSpec, trial: int) -> np.ndarray:
    """Integer (b, m, m) stack whose determinants multiply to det M.

    The k factors of a product or embedding trial, or the diagonal blocks of
    a block_triangular trial, each padded with an identity to the largest
    block size, which keeps its determinant."""
    ints = draw_integers(spec, trial)
    if spec.kind != "block_triangular":
        return ints
    lay = _layout(spec.block_sizes)
    return np.where(lay.inside, ints[lay.lanes[:, :, None], lay.lanes[:, None, :]], lay.eye)


def certificate_screen(spec: EnsembleSpec, trial: int, precision: int) -> np.ndarray:
    """The product of determinant_blocks mod CERTIFICATE_PRIME, an m x m
    int64 matrix in [0, prime) whose determinant is det M mod the prime.

    A matrix_product trial reduces the product sample_product keeps mod
    Q = _combined_modulus(spec, precision), which the prime divides; any
    other trial, or a product past the float64 bound, multiplies its blocks
    by product_mod."""
    big = _combined_modulus(spec, precision) if spec.kind == "matrix_product" else None
    if big:
        return residues(_factor_product(spec, trial, big), CERTIFICATE_PRIME)
    return product_mod(determinant_blocks(spec, trial), CERTIFICATE_PRIME)


def build_bidiagonal_embedding(factors) -> np.ndarray:
    """The nk x nk block bidiagonal matrix with the k factors on the diagonal
    and identity blocks on the subdiagonal, in the factors' dtype; its
    cokernel matches the one of the factor product.

    `factors` is a (k, n, n) integer array or a sequence of k equal-size
    square integer arrays."""
    stack = np.asarray(factors)
    if stack.ndim != 3 or not len(stack) or stack.shape[1] != stack.shape[2]:
        raise ValueError("need one or more square factors of equal size")
    k, n, _ = stack.shape
    full = np.zeros((n * k, n * k), dtype=stack.dtype)
    for i, f in enumerate(stack):
        full[i * n:(i + 1) * n, i * n:(i + 1) * n] = f
    np.fill_diagonal(full[n:, :-n], 1)
    return full
