"""Finite abelian p-group combinatorics.

Partitions and their conjugates, Hom counting, and counts of strictly
increasing subgroup chains.  Chain counts depend only on the type of the
group: they are computed from the subgroup counts alpha_lam(mu) by a
recursion on partitions.  The exhaustive subgroup lattice of a small group
(enumerate_subgroups) is kept as the element-level reference that the
oracles and tests compare against.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

__all__ = [
    "Partition",
    "AbelianPGroup",
    "SubgroupLattice",
    "LatticeGuardError",
    "check_target_order",
    "as_partition",
    "conjugate",
    "hom_count",
    "enumerate_subgroups",
    "subgroup_closure",
    "subgroup_count",
    "chain_count",
    "ell",
]

Partition = tuple  # weakly decreasing tuple of positive ints; () allowed

LATTICE_ORDER_GUARD = 2 ** 12


class LatticeGuardError(ValueError):
    """Group above the 2**12 order bound on subgroup lattices and chain-count
    targets."""


def check_target_order(p: int, e: int) -> None:
    """Raise LatticeGuardError when p**e exceeds the order bound.  p >= 2, so
    capping e at the bound's bit length keeps the comparison without forming
    p**e, and the message names e, never the digits of p**e."""
    if p ** min(e, LATTICE_ORDER_GUARD.bit_length()) > LATTICE_ORDER_GUARD:
        raise LatticeGuardError(f"|G| = {p}**{e} exceeds {LATTICE_ORDER_GUARD}")


def _integer(x, what: str) -> int:
    """x as a Python int if it is an int or a numpy integer; a bool, float,
    string or any other value is a ValueError, so nothing is truncated."""
    if isinstance(x, bool):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


def as_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """The parts as a tuple of Python ints, checked in one pass: integers
    (see _integer), positive and weakly decreasing, else ValueError."""
    lam: list[int] = []
    for x in parts:
        x = _integer(x, "partition part")
        if x < 1:
            raise ValueError("partition parts must be positive")
        if lam and lam[-1] < x:
            raise ValueError("partition parts must be weakly decreasing")
        lam.append(x)
    return tuple(lam)


def conjugate(lam: Sequence[int]) -> tuple[int, ...]:
    """Conjugate partition: column lengths of the Young diagram."""
    lam = as_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x >= i) for i in range(1, lam[0] + 1))


def hom_count(lam: Sequence[int], mu: Sequence[int], p: int) -> int:
    """|Hom(G_lam, G_mu)| = p ** sum(min(lam_i, mu_j))."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    return p ** sum(min(a, b) for a in lam for b in mu)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class AbelianPGroup:
    """G = (+) Z/p**lam_i, the group of type `lam` at the prime `p`.

    Elements are tuples of residues, coordinate i mod p**lam_i.
    """

    p: int
    lam: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", _integer(self.p, "p"))
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        object.__setattr__(self, "lam", as_partition(self.lam))

    @property
    def order(self) -> int:
        return self.p ** sum(self.lam)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(self.p ** e for e in self.lam)

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.lam)

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(o) for o in self.orders)))

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % o for a, b, o in zip(x, y, self.orders))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % o for a, o in zip(x, self.orders))

    def scale(self, c: int, x) -> tuple[int, ...]:
        return tuple((c * a) % o for a, o in zip(x, self.orders))

    def label(self) -> str:
        return f"{self.p}:({','.join(map(str, self.lam))})"


def ell(G: AbelianPGroup) -> int:
    """Maximal subgroup-chain length: the exponent sum of |G|."""
    return sum(G.lam)


def _extend_subgroup(G: AbelianPGroup, sub: frozenset, g) -> frozenset:
    """Closure of a subgroup with one extra generator: union of cosets sub + t*g."""
    out = set(sub)
    x = g
    while x not in sub:
        out.update(G.add(s, x) for s in sub)
        x = G.add(x, g)
    return frozenset(out)


def subgroup_closure(G: AbelianPGroup, gens: Iterable) -> frozenset:
    sub = frozenset({G.zero()})
    for g in gens:
        if g not in sub:
            sub = _extend_subgroup(G, sub, g)
    return sub


@dataclass(frozen=True)
class SubgroupLattice:
    """All subgroups of a small group, with the full inclusion relation.

    Subgroups are canonical: the sorted tuple of their elements, listed in
    order of (size, elements), so index 0 is trivial and index -1 is G.
    """

    group: AbelianPGroup
    subgroups: tuple[tuple, ...]
    leq: tuple[tuple[bool, ...], ...]  # leq[i][j] iff subgroups[i] <= subgroups[j]

    def __len__(self) -> int:
        return len(self.subgroups)

    @property
    def trivial_index(self) -> int:
        return 0

    @property
    def full_index(self) -> int:
        return len(self.subgroups) - 1

    def as_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(s) for s in self.subgroups)


@lru_cache(maxsize=None)
def enumerate_subgroups(G: AbelianPGroup) -> SubgroupLattice:
    """Exhaustive subgroup lattice; guarded by |G| <= 2**12.

    BFS over single-generator extensions reaches every subgroup, since any
    subgroup is built from the trivial one by adjoining generators one at a
    time; deduplication is by element set.
    """
    check_target_order(G.p, ell(G))
    elems = G.elements()
    trivial = frozenset({G.zero()})
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        sub = frontier.pop()
        # g and g + s generate the same extension for s in sub, so one
        # candidate per coset of sub suffices
        covered = set(sub)
        for g in elems:
            if g in covered:
                continue
            covered.update(G.add(g, s) for s in sub)
            bigger = _extend_subgroup(G, sub, g)
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    canon = sorted((tuple(sorted(s)) for s in seen), key=lambda s: (len(s), s))
    sets = [frozenset(s) for s in canon]
    leq = tuple(
        tuple(a <= b for b in sets)
        for a in sets
    )
    return SubgroupLattice(G, tuple(canon), leq)


def _gaussian_binomial(n: int, k: int, p: int) -> int:
    """[n choose k]_p: the number of k-dimensional subspaces of GF(p)**n."""
    num = den = 1
    for j in range(k):
        num *= p ** (n - j) - 1
        den *= p ** (j + 1) - 1
    return num // den


def subgroup_count(lam: Sequence[int], mu: Sequence[int], p: int) -> int:
    """alpha_lam(mu): the number of subgroups of type `mu` in G_lam,

        prod_i p**(mu'_{i+1} (lam'_i - mu'_i)) [lam'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_p,

    and 0 unless mu is contained in lam (Birkhoff; Delsarte; see Butler,
    Subgroup lattices and symmetric functions, Mem. AMS 539, 1994)."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        return 0
    lc = conjugate(lam)
    mc = conjugate(mu) + (0,) * (len(lc) + 1)  # mu'_j = 0 past mu_1
    count = 1
    for i, a in enumerate(lc):
        b, c = mc[i], mc[i + 1]
        count *= p ** (c * (a - b)) * _gaussian_binomial(a - c, b - c, p)
    return count


def _subpartitions(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every partition mu with mu_j <= lam_j for all j, () included."""
    boxes = itertools.product(*(range(part + 1) for part in lam))
    return [tuple(x for x in mu if x) for mu in boxes if all(a >= b for a, b in zip(mu, mu[1:]))]


@lru_cache(maxsize=None)
def _subgroup_types(p: int, lam: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(mu, alpha_lam(mu)) for every type mu of a subgroup of G_lam."""
    return tuple((mu, subgroup_count(lam, mu, p)) for mu in _subpartitions(lam))


@lru_cache(maxsize=None)
def _chains_to(p: int, lam: tuple[int, ...], i: int) -> int:
    """g_i(lam): chains {0} < H_1 < ... < H_i = G_lam, all inclusions strict.

    H_{i-1} is a proper subgroup of some type mu, so g_i(lam) is the sum of
    alpha_lam(mu) g_{i-1}(mu) over mu properly inside lam; g_0(lam) = [lam = ()]."""
    if i == 0:
        return int(not lam)
    return sum(a * _chains_to(p, mu, i - 1) for mu, a in _subgroup_types(p, lam) if mu != lam)


def chain_count(G: AbelianPGroup, i: int) -> int:
    """Number of chains {0} < H_1 < ... < H_i <= G, all inclusions strict.

    c(G, 0) = 1 (the empty chain); 0 whenever i exceeds ell(G).  Computed
    from the type of G alone: c(G, i) is the sum of alpha_lam(mu) g_i(mu)
    over the types mu of H_i.  Target groups are bounded by |G| <= 2**12.
    """
    if i < 0:
        raise ValueError("chain length must be nonnegative")
    if i == 0:
        return 1
    if i > ell(G):
        return 0
    check_target_order(G.p, ell(G))
    return sum(a * _chains_to(G.p, mu, i) for mu, a in _subgroup_types(G.p, G.lam))
