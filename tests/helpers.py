"""Independent oracles for the test suite.

These deliberately avoid the library's own algorithms: minor-gcd Smith
divisors, cofactor determinants, brute-force homomorphism counting, and a
DFS chain recount, so that every derived expectation is checked against a
second route.
"""

from __future__ import annotations

import itertools
from math import gcd

from cokfluct import AbelianPGroup, enumerate_subgroups


def det_cofactor(rows: list[list[int]]) -> int:
    """Exact determinant by cofactor expansion (tiny matrices only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def snf_via_minor_gcds(rows: list[list[int]]) -> list[int]:
    """Smith divisors from determinantal divisors: D_k = gcd of all k x k
    minors, d_k = D_k / D_{k-1}.  Independent of any elimination."""
    r, c = len(rows), len(rows[0])
    size = min(r, c)
    dets_prev = 1
    out = []
    for k in range(1, size + 1):
        g = 0
        for ri in itertools.combinations(range(r), k):
            for ci in itertools.combinations(range(c), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, det_cofactor(sub))
        if g == 0:
            out.extend([0] * (size - len(out)))
            break
        out.append(g // dets_prev)
        dets_prev = g
    return out


def brute_hom_count(lam: tuple[int, ...], mu: tuple[int, ...], p: int) -> int:
    """Count all generator-image tuples that extend to a homomorphism
    G_lam -> G_mu: the image of a generator of order p**a must be killed by
    p**a."""
    target = AbelianPGroup(p, mu)
    images = target.elements()
    count = 0
    for choice in itertools.product(images, repeat=len(lam)):
        if all(
            target.scale(p ** a, y) == target.zero()
            for a, y in zip(lam, choice)
        ):
            count += 1
    return count


def chain_counts_via_dfs(G: AbelianPGroup) -> dict[int, int]:
    """Counts of strict chains {0} < H_1 < ... < H_i by explicit DFS over the
    lattice, for every length i at once."""
    lat = enumerate_subgroups(G)
    size = len(lat)
    triv = lat.trivial_index
    ups = [
        [j for j in range(size) if j != i and lat.leq[i][j]]
        for i in range(size)
    ]
    counts = {0: 1}

    def walk(node: int, depth: int):
        counts[depth] = counts.get(depth, 0) + 1
        for nxt in ups[node]:
            walk(nxt, depth + 1)

    for start in range(size):
        if start != triv:
            walk(start, 1)
    return counts


def random_elementary_ops(rng, rows: list[list[int]], ops: int, side: str) -> list[list[int]]:
    """Apply `ops` random elementary integer operations (unimodular)."""
    a = [r[:] for r in rows]
    n = len(a) if side == "row" else len(a[0])
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            if side == "row":
                a[i], a[j] = a[j], a[i]
            else:
                for r in a:
                    r[i], r[j] = r[j], r[i]
        elif kind == 1:
            if side == "row":
                a[i] = [-x for x in a[i]]
            else:
                for r in a:
                    r[i] = -r[i]
        elif i != j:
            c = rng.randint(-3, 3)
            if side == "row":
                a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            else:
                for r in a:
                    r[i] += c * r[j]
    return a


def random_int_matrix(rng, n: int, lo: int = -9, hi: int = 9) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def truncated_type(part, free, depth):
    """Type of Gamma/p**depth Gamma from the exact type of Gamma."""
    return tuple(sorted([depth] * free + [min(x, depth) for x in part], reverse=True))
