"""Exact brute-force verifiers at tiny scale.

Everything here is computed in exact rational arithmetic: the moment
identity E|Hom(cok(M), G)| = sum_g P(Mg = 0), the generated-vector sums with
their min/max over targets, the residual coset bound (1-eps)**m, the
embedding/product cokernel identity, the w/t statistics of block-split
vectors, the chain-growth inequality t <= ell(G)(1 + w), and the multichain
count |{H : w=0, t=i}| = c(G, i) * C(k, i) with the matching probability sum.

Every verifier takes the entry law as an ensembles.EntryDistribution, the
type a config names.  Each enumeration guard bounds the matrices, or the
vectors times the law's atoms, that a verifier walks; atoms are counted
before any is listed, so a law such as uniform_mod(2**63) is refused.

SUITES holds the fixed-input check suites that `cokfluct verify` prints and
the acceptance tests assert.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .ensembles import UNIFORM_KINDS, EntryDistribution, build_bidiagonal_embedding
from .exact_linalg import _positive_int, cokernel_partition, snf_diagonal
from .experiments import hom_moment_of_trial
from .pgroups import (
    AbelianPGroup,
    _subpartitions,
    chain_count,
    ell,
    enumerate_subgroups,
    subgroup_closure,
)

__all__ = [
    "EnumerationGuardError",
    "MomentIdentityResult",
    "BalancedSumsResult",
    "ResidualBoundResult",
    "WTStatistics",
    "verify_moment_identity",
    "verify_balanced_sums",
    "verify_residual_bound",
    "verify_cok_identity",
    "wt_statistics",
    "verify_chain_claim",
    "w0_chain_counts",
    "verify_w0_decomposition",
    "SUITES",
]

MOMENT_ENUM_GUARD = 10 ** 6
BALANCED_ENUM_GUARD = 10 ** 7
COK_SIZE_GUARD = 24
W0_ENUM_GUARD = 2 * 10 ** 5


class EnumerationGuardError(ValueError):
    """Requested enumeration exceeds the feasibility guard."""


def _atom_count(dist: EntryDistribution) -> int:
    """Number of atoms of the law, counted without listing them: a uniform
    kind has high - low + 1, so a guard can refuse uniform_mod(2**63)."""
    if dist.kind in UNIFORM_KINDS:
        return dist.high - dist.low + 1
    return len(dist.support_pairs())


def _dot_distribution(G: AbelianPGroup, g: Sequence, support) -> dict:
    """Exact law of sum_j X_j * g_j in G for iid X_j with the given support."""
    dist = {G.zero(): Fraction(1)}
    for gj in g:
        moved = {}
        for v, w in support:
            moved[v] = G.scale(v, gj)
        nxt: dict = {}
        for acc, pacc in dist.items():
            for v, w in support:
                key = G.add(acc, moved[v])
                nxt[key] = nxt.get(key, Fraction(0)) + pacc * w
        dist = nxt
    return dist


# ---------------------------------------------------------------------------
# Moment identity
# ---------------------------------------------------------------------------

class MomentIdentityResult(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    equal: bool


def verify_moment_identity(dist: EntryDistribution, n: int, G: AbelianPGroup) -> MomentIdentityResult:
    """E|Hom(cok(M), G)| versus sum over g in G**n of P(Mg = 0), both exact,
    for an n x n matrix M with iid `dist` entries.

    The left side enumerates every matrix in the support (exact SNF each),
    the right side enumerates vectors; the two must agree identically.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    atoms = _atom_count(dist)
    if atoms ** (n * n) > MOMENT_ENUM_GUARD:
        raise EnumerationGuardError("matrix enumeration too large")
    if G.order ** n * atoms > MOMENT_ENUM_GUARD:
        raise EnumerationGuardError("vector enumeration too large")
    support = dist.support_pairs()

    lhs = Fraction(0)
    for cells in itertools.product(support, repeat=n * n):
        prob = math.prod((w for _, w in cells), start=Fraction(1))
        values = [v for v, _ in cells]
        part, free = cokernel_partition([values[i * n:(i + 1) * n] for i in range(n)], G.p)
        lhs += prob * hom_moment_of_trial(part, free, G)

    rhs = Fraction(0)
    for g in itertools.product(G.elements(), repeat=n):
        row_prob = _dot_distribution(G, g, support).get(G.zero(), Fraction(0))
        rhs += row_prob ** n
    return MomentIdentityResult(lhs, rhs, lhs == rhs)


# ---------------------------------------------------------------------------
# Generated-vector sums
# ---------------------------------------------------------------------------

class BalancedSumsResult(NamedTuple):
    s_min: Fraction
    s_max: Fraction


def verify_balanced_sums(dist: EntryDistribution, n: int, G0: AbelianPGroup) -> BalancedSumsResult:
    """S_min = sum over generating g in G0**n of min_f P(Mg = f), and S_max
    with the max, for an n x n matrix M with iid `dist` entries; both
    approach 1 for balanced entries as n grows."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if G0.order ** n * _atom_count(dist) > BALANCED_ENUM_GUARD:
        raise EnumerationGuardError("vector enumeration too large")
    support = dist.support_pairs()
    elems = G0.elements()
    full = frozenset(elems)
    s_min = Fraction(0)
    s_max = Fraction(0)
    closure_cache: dict = {}
    for g in itertools.product(elems, repeat=n):
        key = frozenset(g)
        gen = closure_cache.get(key)
        if gen is None:
            gen = subgroup_closure(G0, key) == full
            closure_cache[key] = gen
        if not gen:
            continue
        marg = _dot_distribution(G0, g, support)
        # rows iid and f ranges over G0**n, so min/max factor across rows
        lo = min((marg.get(c, Fraction(0)) for c in elems))
        hi = max(marg.values())
        s_min += lo ** n
        s_max += hi ** n
    return BalancedSumsResult(s_min, s_max)


# ---------------------------------------------------------------------------
# Residual coset bound
# ---------------------------------------------------------------------------

class ResidualBoundResult(NamedTuple):
    probability: Fraction
    bound: Fraction
    holds: bool


def verify_residual_bound(
    dist: EntryDistribution,
    G: AbelianPGroup,
    G0: frozenset,
    g: Sequence,
    m: int,
    f: Sequence | None = None,
) -> ResidualBoundResult:
    """P(f + Mg in G0**m) <= (1 - eps)**m for an m x len(g) matrix with iid
    `dist` entries, eps = dist.best_epsilon(p), its balancedness constant."""
    if not (subgroup_closure(G, g) - G0):
        raise ValueError("precondition violated: <g> is contained in G0")
    if m < 0:
        raise ValueError("m must be >= 0")
    if f is None:
        f = [G.zero()] * m
    if len(f) != m:
        raise ValueError("f must have m coordinates")
    if len(g) * G.order * _atom_count(dist) > BALANCED_ENUM_GUARD:
        raise EnumerationGuardError("atom enumeration too large")
    marg = _dot_distribution(G, g, dist.support_pairs())
    prob = Fraction(1)
    for fr in f:
        prob *= sum(
            (w for c, w in marg.items() if G.add(fr, c) in G0),
            start=Fraction(0),
        )
    eps = dist.best_epsilon(G.p)
    bound = (1 - eps) ** m
    return ResidualBoundResult(prob, bound, prob <= bound)


# ---------------------------------------------------------------------------
# Embedding / product cokernel identity
# ---------------------------------------------------------------------------

def verify_cok_identity(factors) -> bool:
    """True iff the bidiagonal embedding of the factors and their product
    have isomorphic cokernels: equal nontrivial divisor multisets (zeros
    included, so free ranks match).

    `factors` is a sequence of equal-size square integer matrices (arrays or
    nested lists); both sides are computed over Python ints."""
    if not len(factors):
        raise ValueError("need at least one factor")
    stack = np.array(factors, dtype=object)
    n, k = len(stack[0]), len(stack)
    if n * k > COK_SIZE_GUARD:
        raise EnumerationGuardError(f"n*k = {n * k} exceeds {COK_SIZE_GUARD}")
    embedded = snf_diagonal(build_bidiagonal_embedding(stack))
    direct = snf_diagonal(functools.reduce(np.dot, stack))
    return sorted(d for d in embedded if d != 1) == sorted(d for d in direct if d != 1)


# ---------------------------------------------------------------------------
# w/t statistics and chain machinery
# ---------------------------------------------------------------------------

class WTStatistics(NamedTuple):
    w: int
    t: int
    tyg: tuple[frozenset, ...]


def _wt_of_subgroups(seq: Sequence[frozenset], zero: frozenset) -> tuple[int, int]:
    w = sum(1 for i in range(1, len(seq)) if not seq[i - 1] <= seq[i])
    prev = zero
    t = 0
    for sub in seq:
        if prev <= sub and prev != sub:
            t += 1
        prev = sub
    return w, t


def wt_statistics(G: AbelianPGroup, blocks: Sequence[Sequence]) -> WTStatistics:
    """Non-containment count w, strict-growth count t, and the generated
    subgroup sequence of a block-split vector (with <g_0> = {0})."""
    tyg = tuple(subgroup_closure(G, block) for block in blocks)
    zero = frozenset({G.zero()})
    w, t = _wt_of_subgroups(tyg, zero)
    return WTStatistics(w, t, tyg)


def verify_chain_claim(G: AbelianPGroup, subgroups: Sequence[frozenset]) -> bool:
    """t(H) <= ell(G) * (1 + w(H)); must hold for every subgroup sequence."""
    zero = frozenset({G.zero()})
    w, t = _wt_of_subgroups(list(subgroups), zero)
    return t <= ell(G) * (1 + w)


def w0_chain_counts(G: AbelianPGroup, k: int) -> dict[int, int]:
    """Counts |{H in Sg(G)**k : w(H) = 0, t(H) = i}| for every i, by dynamic
    programming over the weakly increasing sequences of the lattice."""
    lat = enumerate_subgroups(G)
    size = len(lat)
    triv = lat.trivial_index
    lmax = ell(G)
    ups = [[j for j in range(size) if lat.leq[i][j]] for i in range(size)]
    # f[j][t] = number of weakly increasing prefixes ending at subgroup j
    # with t strict steps (counting the step from {0} to H_1)
    f = [[0] * (lmax + 2) for _ in range(size)]
    for j in range(size):
        f[j][0 if j == triv else 1] = 1
    for _ in range(k - 1):
        nxt = [[0] * (lmax + 2) for _ in range(size)]
        for j in range(size):
            for t, ways in enumerate(f[j]):
                if not ways:
                    continue
                for j2 in ups[j]:
                    nxt[j2][t + (1 if j2 != j else 0)] += ways
        f = nxt
    out: dict[int, int] = {}
    for j in range(size):
        for t, ways in enumerate(f[j]):
            if ways:
                out[t] = out.get(t, 0) + ways
    return out


# ---------------------------------------------------------------------------
# Probability decomposition over w=0, t=i vectors
# ---------------------------------------------------------------------------

class W0DecompositionResult(NamedTuple):
    total: Fraction
    target: Fraction
    vector_count: int


def verify_w0_decomposition(
    dist: EntryDistribution,
    G: AbelianPGroup,
    i: int,
    block_sizes: Sequence[int],
    B_fixed: Sequence[Sequence[int]] | None = None,
) -> W0DecompositionResult:
    """Exact sum of P(Cg = 0) over vectors g with w(g) = 0 and t(g) = i, with
    B frozen to a deterministic fill, against the target c(G, i) * C(k, i)
    with k = len(block_sizes); the A blocks have iid `dist` entries.

    P(Cg = 0) factors block row by block row: the first block row needs
    A_11 g_1 = 0, and block row i needs A_ii g_i to hit the deterministic
    shift -A_{i,i-1} g_{i-1} - sum_j B_{i,j} g_j, with the two A laws
    independent.  The target is exact only in the limit; the vector count per
    (w=0, t=i) stratum is checked exactly elsewhere.
    """
    sizes = [_positive_int(s, "block size") for s in block_sizes]
    if not sizes:
        raise ValueError("need at least one block")
    k = len(sizes)
    n = sum(sizes)
    if G.order ** n * _atom_count(dist) > W0_ENUM_GUARD:
        raise EnumerationGuardError("vector enumeration too large")
    if B_fixed is None:
        B_fixed = [[0] * n for _ in range(n)]
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)

    support = dist.support_pairs()
    zero = G.zero()
    total = Fraction(0)
    count = 0
    for g in itertools.product(G.elements(), repeat=n):
        blocks = [list(g[offs[b]:offs[b + 1]]) for b in range(k)]
        stats = wt_statistics(G, blocks)
        if stats.w != 0 or stats.t != i:
            continue
        count += 1
        prob = Fraction(1)
        # block row 1: every row of A_11 g_1 must vanish
        m1 = _dot_distribution(G, blocks[0], support)
        prob *= m1.get(zero, Fraction(0)) ** sizes[0]
        for b in range(1, k):
            prev = _dot_distribution(G, blocks[b - 1], support)
            cur = _dot_distribution(G, blocks[b], support)
            for r in range(sizes[b]):
                row = offs[b] + r
                shift = zero
                for col in range(offs[b - 1]):
                    shift = G.add(shift, G.scale(B_fixed[row][col], g[col]))
                # P(cur = -prev - shift), prev and cur independent
                row_prob = Fraction(0)
                for y, wy in prev.items():
                    need = G.neg(G.add(y, shift))
                    row_prob += wy * cur.get(need, Fraction(0))
                prob *= row_prob
            if prob == 0:
                break
        total += prob
    target = Fraction(chain_count(G, i) * math.comb(k, i))
    return W0DecompositionResult(total, target, count)


# ---------------------------------------------------------------------------
# Verify suites: `cokfluct verify <name>` runs SUITES[name](), a list of
# (description, passed, detail) checks
# ---------------------------------------------------------------------------

def suite_identity() -> list[tuple[str, bool, str]]:
    checks = []
    laws = {
        "uniform01": EntryDistribution.uniform_mod(2),
        "uniform012": EntryDistribution.uniform_mod(3),
        "skewed": EntryDistribution.finite_support([(0, "1/2"), (1, "1/3"), (3, "1/6")]),
    }
    groups = [
        AbelianPGroup(2, (1,)),
        AbelianPGroup(3, (1,)),
        AbelianPGroup(2, (1, 1)),
        AbelianPGroup(2, (2,)),
    ]
    for name, dist in laws.items():
        for n in (1, 2):
            for G in groups:
                res = verify_moment_identity(dist, n, G)
                checks.append(
                    (
                        f"Hom-moment identity, {name}, n={n}, G={G.label()}",
                        res.equal,
                        f"lhs={res.lhs} rhs={res.rhs}",
                    )
                )
    return checks


def suite_balanced() -> list[tuple[str, bool, str]]:
    checks = []
    G0 = AbelianPGroup(2, (1,))
    res = verify_balanced_sums(EntryDistribution.uniform_mod(2), 8, G0)
    expected = 1 - Fraction(1, 256)
    checks.append(
        (
            "generated-vector sum, uniform mod 2, n=8",
            res.s_min == expected and res.s_max == expected,
            f"s_min={res.s_min} s_max={res.s_max} expected={expected}",
        )
    )
    bern = EntryDistribution.bernoulli("3/10")
    # |S_max - 1| peaks at n=5 for this law and decays strictly afterwards,
    # so the monotone stretch of the grid starts at 6; |S_min - 1| is
    # monotone from the start.
    max_gaps = []
    min_gaps = []
    for n in (4, 6, 8, 10):
        r = verify_balanced_sums(bern, n, G0)
        max_gaps.append(abs(r.s_max - 1))
        min_gaps.append(abs(r.s_min - 1))
    checks.append(
        (
            "generated-vector max-sum gap decreasing, Bernoulli(3/10), n in {6,8,10}",
            max_gaps[1] > max_gaps[2] > max_gaps[3],
            f"gaps={[float(x) for x in max_gaps[1:]]}",
        )
    )
    checks.append(
        (
            "generated-vector min-sum gap decreasing, Bernoulli(3/10), n in {4,6,8,10}",
            min_gaps[0] > min_gaps[1] > min_gaps[2] > min_gaps[3],
            f"gaps={[float(x) for x in min_gaps]}",
        )
    )
    return checks


def suite_cok(instances: int = 100, seed: int = 20260810) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    failures = 0
    for _ in range(instances):
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        factors = [
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            for _ in range(k)
        ]
        if not verify_cok_identity(factors):
            failures += 1
    return [
        (
            f"embedding/product cokernel identity, {instances} random instances",
            failures == 0,
            f"failures={failures}",
        )
    ]


def suite_chains(samples: int = 10 ** 4, seed: int = 7) -> list[tuple[str, bool, str]]:
    G = AbelianPGroup(2, (2, 1))
    lat = enumerate_subgroups(G)
    sets = lat.as_sets()
    rng = random.Random(seed)
    violations = 0
    for _ in range(samples):
        seq = [sets[rng.randrange(len(sets))] for _ in range(10)]
        if not verify_chain_claim(G, seq):
            violations += 1
    return [
        (
            f"chain growth inequality, {samples} random sequences over Sg(Z/4+Z/2)",
            violations == 0,
            f"violations={violations}",
        )
    ]


def suite_decomposition() -> list[tuple[str, bool, str]]:
    checks = []
    ok = True
    detail = []
    # every abelian p-group with |G| <= 16 (24 groups), every k <= 6, every i
    small_groups = [
        AbelianPGroup(p, lam)
        for p in (2, 3, 5, 7, 11, 13)
        for lam in _subpartitions((4, 4, 4, 4))
        if p ** sum(lam) <= 16
    ]
    for G in small_groups:
        for k in range(1, 7):
            counts = w0_chain_counts(G, k)
            for i in range(ell(G) + 2):
                expected = chain_count(G, i) * math.comb(k, i)
                got = counts.get(i, 0)
                if got != expected:
                    ok = False
                    detail.append(f"G={G.label()} k={k} i={i}: {got} != {expected}")
    checks.append(
        (
            f"multichain count = c(G,i) * C(k,i), {len(small_groups)} groups |G| <= 16, k <= 6",
            ok,
            "; ".join(detail) or "all equal",
        )
    )
    res = verify_w0_decomposition(
        EntryDistribution.uniform_mod(2), AbelianPGroup(2, (1,)), i=1, block_sizes=(1, 1)
    )
    checks.append(
        (
            "w=0 probability decomposition recorded (no threshold)",
            res.vector_count == 2,
            f"sum={res.total} target={res.target} vectors={res.vector_count}",
        )
    )
    return checks


SUITES = {
    "identity": suite_identity,
    "balanced": suite_balanced,
    "cok": suite_cok,
    "chains": suite_chains,
    "decomposition": suite_decomposition,
}
