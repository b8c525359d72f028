import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cokfluct import (
    AbelianPGroup,
    LatticeGuardError,
    as_partition,
    chain_count,
    conjugate,
    ell,
    enumerate_subgroups,
    hom_count,
    subgroup_closure,
    subgroup_count,
)
from cokfluct.pgroups import check_target_order
from helpers import brute_hom_count, chain_counts_via_dfs


def all_partitions(max_size):
    out = [()]
    def rec(prefix, remaining, cap):
        for part in range(min(cap, remaining), 0, -1):
            lam = prefix + (part,)
            out.append(lam)
            rec(lam, remaining - part, part)
    rec((), max_size, max_size)
    return list(dict.fromkeys(out))


@st.composite
def partition_strategy(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return ()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


class TestConjugate:
    @pytest.mark.parametrize(
        "lam,expected",
        [((3, 1), (2, 1, 1)), ((), ()), ((2, 2), (2, 2))],
    )
    def test_examples(self, lam, expected):
        assert conjugate(lam) == expected

    def test_involution_exhaustive(self):
        for lam in all_partitions(8):
            assert conjugate(conjugate(lam)) == lam

    @given(partition_strategy())
    def test_involution_property(self, lam):
        assert conjugate(conjugate(lam)) == lam

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            as_partition((1, 2))
        with pytest.raises(ValueError):
            as_partition((2, 0))

    @pytest.mark.parametrize("part", [1.5, 2.0, "2", True, None])
    def test_rejects_non_integer_part(self, part):
        # nothing is truncated: (1.5,) is not the partition (1)
        with pytest.raises(ValueError, match=f"partition part must be an integer, got {re.escape(repr(part))}"):
            as_partition((part,))
        with pytest.raises(ValueError, match="partition part must be an integer"):
            AbelianPGroup(2, (3, part))

    def test_numpy_integer_parts_become_ints(self):
        lam = as_partition(np.array([3, 1, 1]))
        assert lam == (3, 1, 1) and all(type(x) is int for x in lam)
        assert AbelianPGroup(np.int64(3), np.array([2])).order == 9


class TestAbelianPGroup:
    @pytest.mark.parametrize("p", [2.0, True, "2"])
    def test_prime_must_be_integer(self, p):
        # AbelianPGroup(2.0, (1,)) would have order 2.0
        with pytest.raises(ValueError, match="p must be an integer"):
            AbelianPGroup(p, (1,))


class TestHomCount:
    @pytest.mark.parametrize(
        "lam,mu,p,expected",
        [((1,), (1,), 2, 2), ((), (5,), 7, 1), ((2, 1), (1,), 3, 9)],
    )
    def test_examples(self, lam, mu, p, expected):
        if lam and mu:
            assert brute_hom_count(lam, mu, p) == expected
        assert hom_count(lam, mu, p) == expected

    def test_symmetry_exhaustive(self):
        parts = all_partitions(4)
        for lam in parts:
            for mu in parts:
                assert hom_count(lam, mu, 2) == hom_count(mu, lam, 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_brute_force(self, p):
        parts = all_partitions(3)
        for lam in parts:
            for mu in parts:
                assert hom_count(lam, mu, p) == brute_hom_count(lam, mu, p)


class TestSubgroupLattice:
    @pytest.mark.parametrize(
        "lam,count",
        [((1,), 2), ((1, 1), 5), ((2,), 3)],
    )
    def test_counts(self, lam, count):
        lat = enumerate_subgroups(AbelianPGroup(2, lam))
        assert len(lat) == count

    def test_trivial_and_full_present(self):
        G = AbelianPGroup(2, (2, 1))
        lat = enumerate_subgroups(G)
        assert lat.subgroups[lat.trivial_index] == (G.zero(),)
        assert len(lat.subgroups[lat.full_index]) == G.order

    def test_canonical_and_deduplicated(self):
        lat = enumerate_subgroups(AbelianPGroup(3, (1, 1)))
        assert len(set(lat.subgroups)) == len(lat.subgroups) == 6  # 4 lines + 2
        for s in lat.subgroups:
            assert list(s) == sorted(s)

    def test_inclusion_is_partial_order(self):
        lat = enumerate_subgroups(AbelianPGroup(2, (2, 1)))
        n = len(lat)
        for i in range(n):
            assert lat.leq[i][i]
            for j in range(n):
                if i != j and lat.leq[i][j]:
                    assert not lat.leq[j][i]
                for k in range(n):
                    if lat.leq[i][j] and lat.leq[j][k]:
                        assert lat.leq[i][k]

    def test_order_guard(self):
        with pytest.raises(LatticeGuardError):
            enumerate_subgroups(AbelianPGroup(2, (13,)))

    def test_closure(self):
        G = AbelianPGroup(2, (2,))
        assert subgroup_closure(G, [(2,)]) == frozenset({(0,), (2,)})
        assert subgroup_closure(G, [(1,)]) == frozenset(G.elements())


def subgroup_type(G, H) -> tuple[int, ...]:
    """Type of a subgroup H (a set of elements) of G, from |H[p**j]| = p**(mu'_1 + ... + mu'_j)."""
    sums = [0]
    for j in range(1, max(G.lam, default=0) + 1):
        killed = sum(1 for h in H if G.scale(G.p ** j, h) == G.zero())
        sums.append(round(math.log(killed, G.p)))
    return conjugate(tuple(b - a for a, b in zip(sums, sums[1:]) if b > a))


class TestSubgroupCount:
    def test_examples(self):
        assert subgroup_count((1, 1), (1,), 2) == 3
        assert subgroup_count((2,), (1,), 2) == 1
        assert subgroup_count((2, 1), (1, 1), 3) == 1
        assert subgroup_count((1,), (2,), 2) == 0
        assert subgroup_count((1,), (1, 1), 2) == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_lattice(self, p):
        for lam in all_partitions(5):
            if p ** sum(lam) > 32:
                continue
            G = AbelianPGroup(p, lam)
            by_type = Counter(subgroup_type(G, H) for H in enumerate_subgroups(G).as_sets())
            for mu in all_partitions(sum(lam)):
                assert subgroup_count(lam, mu, p) == by_type.get(mu, 0), (lam, mu)


class TestChainCount:
    def test_empty_chain(self):
        for lam in [(), (1,), (2, 1), (1, 1, 1)]:
            assert chain_count(AbelianPGroup(2, lam), 0) == 1

    def test_examples(self):
        assert chain_count(AbelianPGroup(2, (1,)), 1) == 1
        assert chain_count(AbelianPGroup(2, (1, 1)), 1) == 4
        assert chain_count(AbelianPGroup(2, (1, 1)), 2) == 3
        assert chain_count(AbelianPGroup(2, (2,)), 2) == 1

    def test_zero_beyond_max_length(self):
        G = AbelianPGroup(2, (2, 1))
        assert chain_count(G, ell(G) + 1) == 0
        assert chain_count(G, 99) == 0

    def test_maximal_chain_exists(self):
        for lam in [(1,), (3,), (2, 1), (1, 1, 1)]:
            G = AbelianPGroup(2, lam)
            assert chain_count(G, ell(G)) >= 1

    @pytest.mark.parametrize(
        "p,lam",
        [
            (2, (10,)),        # cyclic of order 2**10
            (2, (9, 1)),       # Z/512 + Z/2
            (3, (6,)),         # cyclic of order 729
            (2, (2, 2)),       # Z/4 + Z/4
            (2, (1, 1, 1, 1)),
            (3, (2, 1)),
        ],
    )
    def test_dp_agrees_with_dfs(self, p, lam):
        G = AbelianPGroup(p, lam)
        dfs = chain_counts_via_dfs(G)
        for i in range(ell(G) + 1):
            assert chain_count(G, i) == dfs.get(i, 0)
        assert sum(dfs.values()) == sum(chain_count(G, i) for i in range(ell(G) + 1))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_type_recursion_agrees_with_dfs_to_order_64(self, p):
        for lam in all_partitions(6):
            if p ** sum(lam) > 64:
                continue
            G = AbelianPGroup(p, lam)
            dfs = chain_counts_via_dfs(G)
            for i in range(ell(G) + 2):
                assert chain_count(G, i) == dfs.get(i, 0), (lam, i)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 4093])
    def test_closed_forms_on_admitted_groups(self, p):
        n = 1
        while p ** n <= 2 ** 12:
            flags = math.prod((p ** j - 1) // (p - 1) for j in range(1, n + 1))
            assert chain_count(AbelianPGroup(p, (1,) * n), n) == flags
            for i in range(n + 2):
                assert chain_count(AbelianPGroup(p, (n,)), i) == math.comb(n, i)
            n += 1

    def test_order_bound(self):
        G = AbelianPGroup(2, (13,))
        assert chain_count(G, 0) == 1 and chain_count(G, 14) == 0
        for i in (1, 13):
            with pytest.raises(LatticeGuardError):
                chain_count(G, i)

    @pytest.mark.parametrize("p, admitted", [(2, 12), (3, 7), (5, 5), (4099, 0)])
    def test_one_bound_for_every_target(self, p, admitted):
        # the largest admitted exponent is floor(log_p 4096); above it the
        # message names the exponent, also where p**e has more digits than
        # Python converts to a string
        check_target_order(p, admitted)
        for e in (admitted + 1, 3_000_000):
            with pytest.raises(LatticeGuardError, match=rf"\|G\| = {p}\*\*{e} exceeds 4096"):
                check_target_order(p, e)

    def test_guards_name_the_exponent_of_a_huge_group(self):
        G = AbelianPGroup(2, (3_000_000,))
        with pytest.raises(LatticeGuardError, match=r"2\*\*3000000"):
            chain_count(G, 1)
        with pytest.raises(LatticeGuardError, match=r"2\*\*3000000"):
            enumerate_subgroups(G)


class TestEll:
    def test_examples(self):
        assert ell(AbelianPGroup(2, (3,))) == 3       # order 8 = 2**3
        assert ell(AbelianPGroup(5, ())) == 0
        assert ell(AbelianPGroup(2, (2, 1))) == 3

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            AbelianPGroup(4, (1,))
