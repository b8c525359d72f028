"""Closed-form targets for the fluctuation experiments.

The limiting rescaled Hom-moment of a group G is c(G, ell(G)) / ell(G)!, and
the limit law L on weakly decreasing d-tuples is pinned down by its moments

    E p**<L, lam> = ((p-1) * chi)**|lam| / |lam|! * c(G_{lam'}, |lam|),

with chi = p**(-zeta) / (p - 1).  Rank vectors of sampled cokernels are
centered by the nearest integer to log_p k + zeta before comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .pgroups import AbelianPGroup, _is_prime, as_partition, chain_count, check_target_order, conjugate, ell

__all__ = [
    "FluctuationParams",
    "LMomentValue",
    "limit_rescaled_hom_moment",
    "L_moment",
    "centering",
    "centered_rank_vector",
]


@dataclass(frozen=True)
class FluctuationParams:
    p: int
    zeta: float
    d: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not 0 <= self.zeta < 1:
            raise ValueError("zeta must lie in [0, 1)")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def chi(self) -> float:
        return self.p ** (-self.zeta) / (self.p - 1)


def limit_rescaled_hom_moment(G: AbelianPGroup) -> Fraction:
    """lim E|Hom(cok, G)| / k**ell(G) = c(G, ell(G)) / ell(G)!."""
    l = ell(G)
    return Fraction(chain_count(G, l), math.factorial(l))


@dataclass(frozen=True)
class LMomentValue:
    """E p**<L, lam> split into its exact rational part and the real scale
    ((p-1)*chi)**|lam| = p**(-zeta*|lam|); the scale is exactly 1 at zeta=0."""

    rational: Fraction
    scale: float

    @property
    def value(self) -> float:
        return float(self.rational) * self.scale


def L_moment(lam: Sequence[int], params: FluctuationParams) -> LMomentValue:
    lam = as_partition(lam)
    if len(lam) > params.d:
        raise ValueError(f"lambda has {len(lam)} parts, more than d={params.d}")
    size = sum(lam)
    check_target_order(params.p, size)  # |G_lam'| = p**|lam|, checked before lam' is built
    rational = limit_rescaled_hom_moment(AbelianPGroup(params.p, conjugate(lam)))
    return LMomentValue(rational, params.p ** (-params.zeta * size))


def centering(k: int, params: FluctuationParams) -> int:
    """Nearest integer to log_p k + zeta; exact when k is a power of p, ties
    rounded away from zero (the choice at a tie is free)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = params.p
    e, power = 0, 1
    while power < k:
        power *= p
        e += 1
    if power == k:
        x = e + params.zeta
    else:
        x = math.log(k, p) + params.zeta
    return math.floor(x + 0.5)  # x >= 0 here, so +0.5/floor rounds ties up


def centered_rank_vector(lam: Sequence[int], k: int, params: FluctuationParams) -> tuple[int, ...]:
    """(rank(p**(i-1) Gamma) - centering)_{i=1..d} for a finite cokernel
    Gamma of type `lam`; ranks are the conjugate partition coordinates, so
    the output is weakly decreasing."""
    conj = conjugate(as_partition(lam))
    c = centering(k, params)
    return tuple((conj[i] if i < len(conj) else 0) - c for i in range(params.d))
