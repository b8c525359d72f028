import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cokfluct import (
    AbelianPGroup,
    EntryDistribution,
    chain_count,
    ell,
    enumerate_subgroups,
    subgroup_closure,
    verify_balanced_sums,
    verify_chain_claim,
    verify_cok_identity,
    verify_moment_identity,
    verify_residual_bound,
    verify_w0_decomposition,
    w0_chain_counts,
    wt_statistics,
)
from cokfluct.oracles import EnumerationGuardError

U01 = EntryDistribution.uniform_mod(2)
U012 = EntryDistribution.uniform_mod(3)
U0123 = EntryDistribution.uniform_mod(4)
BERN03 = EntryDistribution.bernoulli("3/10")
SKEWED = EntryDistribution.finite_support([(0, "1/2"), (1, "1/3"), (3, "1/6")])

Z2 = AbelianPGroup(2, (1,))
Z3 = AbelianPGroup(3, (1,))
Z4 = AbelianPGroup(2, (2,))
V4 = AbelianPGroup(2, (1, 1))


class TestMomentIdentity:
    def test_n1_uniform01_z2(self):
        res = verify_moment_identity(U01, 1, Z2)
        # M = (0) gives |Hom(Z, Z/2)| = 2, M = (1) gives 1; rhs = 1 + 1/2
        assert res == (Fraction(3, 2), Fraction(3, 2), True)

    def test_n1_constant_one(self):
        res = verify_moment_identity(EntryDistribution.constant(1), 1, Z2)
        assert res.lhs == res.rhs == 1 and res.equal

    def test_n2_uniform012_z3(self):
        res = verify_moment_identity(U012, 2, Z3)
        assert res.equal

    @pytest.mark.parametrize("support", [U01, U012, SKEWED])
    @pytest.mark.parametrize("G", [Z2, Z3, V4, Z4])
    @pytest.mark.parametrize("n", [1, 2])
    def test_identity_battery(self, support, G, n):
        res = verify_moment_identity(support, n, G)
        assert res.equal, (res.lhs, res.rhs)

    def test_guard(self):
        with pytest.raises(EnumerationGuardError, match="matrix"):
            verify_moment_identity(U0123, 5, Z2)
        # 16 matrices pass the matrix guard, but the right side would walk
        # 4096**2 vectors
        with pytest.raises(EnumerationGuardError, match="vector"):
            verify_moment_identity(U01, 2, AbelianPGroup(2, (12,)))


class TestBalancedSums:
    def test_uniform_mod2_n8_exact(self):
        res = verify_balanced_sums(U01, 8, Z2)
        assert res.s_min == res.s_max == 1 - Fraction(1, 256)

    def test_n1_matches_manual(self):
        # only g = (1): row marginal uniform on Z/2, min = max = 1/2
        res = verify_balanced_sums(U01, 1, Z2)
        assert res == (Fraction(1, 2), Fraction(1, 2))

    def test_bernoulli_gap_trend(self):
        # the exact max-sum gap peaks at n=5 and decays strictly afterwards;
        # the min-sum gap is strictly decreasing from the start
        max_gaps = {}
        min_gaps = {}
        for n in (4, 5, 6, 8, 10):
            r = verify_balanced_sums(BERN03, n, Z2)
            max_gaps[n] = abs(r.s_max - 1)
            min_gaps[n] = abs(r.s_min - 1)
        assert max_gaps[4] < max_gaps[5]
        assert max_gaps[5] > max_gaps[6] > max_gaps[8] > max_gaps[10]
        assert min_gaps[4] > min_gaps[6] > min_gaps[8] > min_gaps[10]

    def test_min_le_max_battery(self):
        for support in (U01, U012, BERN03):
            for n in (1, 2, 3, 4):
                r = verify_balanced_sums(support, n, Z2)
                assert r.s_min <= r.s_max

    def test_uniform_sums_approach_one_monotonically(self):
        prev_min, prev_max = None, None
        for n in (2, 4, 6, 8):
            r = verify_balanced_sums(U01, n, Z2)
            if prev_min is not None:
                assert abs(r.s_min - 1) < abs(prev_min - 1)
                assert abs(r.s_max - 1) < abs(prev_max - 1)
            prev_min, prev_max = r.s_min, r.s_max


class TestResidualBound:
    def test_tight_case(self):
        res = verify_residual_bound(U01, Z2, frozenset({(0,)}), [(1,)], m=3)
        assert res.probability == Fraction(1, 8)
        assert res.bound == Fraction(1, 8)
        assert res.holds

    def test_m_zero(self):
        res = verify_residual_bound(U01, Z2, frozenset({(0,)}), [(1,)], m=0)
        assert res.probability == 1 and res.bound == 1 and res.holds

    def test_z4_proper_subgroup(self):
        G0 = frozenset({(0,), (2,)})
        res = verify_residual_bound(U0123, Z4, G0, [(1,)], m=2)
        # X uniform mod 4: P(X*1 in {0,2}) = 1/2 per row; eps mod 2 is 1/2
        assert res.probability == Fraction(1, 4)
        assert res.bound == Fraction(1, 4)
        assert res.holds

    def test_nonzero_f(self):
        res = verify_residual_bound(
            U01, Z2, frozenset({(0,)}), [(1,)], m=2, f=[(1,), (0,)]
        )
        assert res.probability == Fraction(1, 4) and res.holds

    def test_precondition_violation(self):
        with pytest.raises(ValueError):
            verify_residual_bound(U01, Z4, frozenset({(0,), (2,)}), [(2,)], m=1)

    def test_random_battery(self):
        rng = random.Random(12)
        lat = enumerate_subgroups(V4)
        sets = lat.as_sets()
        for _ in range(50):
            G0 = sets[rng.randrange(len(sets) - 1)]  # proper subgroups only
            g = tuple(
                tuple(rng.randrange(2) for _ in range(2)) for _ in range(rng.randint(1, 3))
            )
            if not (subgroup_closure(V4, g) - G0):
                continue
            res = verify_residual_bound(BERN03, V4, G0, g, m=rng.randint(0, 4))
            assert res.holds


class TestCokIdentity:
    def test_scalars(self):
        assert verify_cok_identity([[[2]], [[3]]])

    def test_identity_factors(self):
        assert verify_cok_identity([np.identity(2, dtype=np.int64)] * 2)

    def test_random_instances(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 3)
            k = rng.randint(1, 4)
            factors = [
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
                for _ in range(k)
            ]
            assert verify_cok_identity(factors)

    def test_guard(self):
        with pytest.raises(EnumerationGuardError):
            verify_cok_identity([np.identity(5, dtype=np.int64)] * 5)


class TestWTStatistics:
    def test_all_zero(self):
        res = wt_statistics(Z2, [[(0,)], [(0,)]])
        assert (res.w, res.t) == (0, 0)

    def test_drop_to_trivial(self):
        res = wt_statistics(Z2, [[(1,), (0,)], [(0,), (0,)]])
        assert (res.w, res.t) == (1, 1)
        assert res.tyg[0] == frozenset({(0,), (1,)})

    def test_strict_growth(self):
        res = wt_statistics(
            Z4, [[(0,)], [(2,)], [(1,)]]
        )
        assert (res.w, res.t) == (0, 2)
        assert res.tyg == (
            frozenset({(0,)}),
            frozenset({(0,), (2,)}),
            frozenset(Z4.elements()),
        )


class TestChainClaim:
    def test_constant_sequence(self):
        G = V4
        full = frozenset(G.elements())
        assert verify_chain_claim(G, [full] * 5)

    def test_maximal_chain_equality_case(self):
        G = AbelianPGroup(2, (3,))
        chain = [
            subgroup_closure(G, [(4,)]),
            subgroup_closure(G, [(2,)]),
            subgroup_closure(G, [(1,)]),
        ]
        assert verify_chain_claim(G, chain)

    def test_random_sequences(self):
        G = AbelianPGroup(2, (2, 1))
        sets = enumerate_subgroups(G).as_sets()
        rng = random.Random(14)
        for _ in range(2000):
            seq = [sets[rng.randrange(len(sets))] for _ in range(10)]
            assert verify_chain_claim(G, seq)


class TestW0ChainCounts:
    def test_i0_always_one(self):
        for G in (Z2, Z4, V4):
            for k in (1, 3, 5):
                assert w0_chain_counts(G, k)[0] == 1

    def test_z2_k3(self):
        counts = w0_chain_counts(Z2, 3)
        assert counts.get(1) == 3 == chain_count(Z2, 1) * math.comb(3, 1)

    @pytest.mark.parametrize("G", [Z2, Z4, V4, AbelianPGroup(3, (1,))])
    def test_matches_closed_form(self, G):
        for k in range(1, 7):
            counts = w0_chain_counts(G, k)
            for i in range(ell(G) + 2):
                assert counts.get(i, 0) == chain_count(G, i) * math.comb(k, i)


class TestW0Decomposition:
    def test_example_k2(self):
        res = verify_w0_decomposition(U01, Z2, i=1, block_sizes=(1, 1))
        # g in {(0,1),(1,1)}: P = 1/2 and 1/4 by direct factorization
        assert res.vector_count == 2
        assert res.total == Fraction(3, 4)
        assert res.target == 2

    def test_i0_count_one(self):
        for G in (Z2, Z4):
            res = verify_w0_decomposition(U01, G, i=0, block_sizes=(1, 1, 1))
            assert res.vector_count == 1  # only the all-zero vector
            assert res.target == 1

    def test_count_matches_stratum(self):
        # vector counts refine the subgroup-sequence counts through the
        # generating-vector fibres; cross-check against direct enumeration
        import itertools
        for i in (0, 1, 2):
            res = verify_w0_decomposition(U01, V4, i=i, block_sizes=(1, 1))
            brute = 0
            for g in itertools.product(V4.elements(), repeat=2):
                stats = wt_statistics(V4, [[g[0]], [g[1]]])
                if stats.w == 0 and stats.t == i:
                    brute += 1
            assert res.vector_count == brute

    def test_constant_B_shift(self):
        ones = [[1] * 3 for _ in range(3)]
        res = verify_w0_decomposition(U01, Z2, i=1, block_sizes=(1, 1, 1), B_fixed=ones)
        assert 0 <= res.total <= res.vector_count

    @pytest.mark.parametrize("sizes", [(1.7, 1), (True, 1), (0, 1), ()], ids=["1.7", "True", "0", "none"])
    def test_block_sizes_checked_not_truncated(self, sizes):
        # (1.7, 1) once ran as (1, 1) and (True, 1) as (1, 1)
        with pytest.raises(ValueError):
            verify_w0_decomposition(U01, Z2, i=1, block_sizes=sizes)


# the atoms 0 and 1, each with probability 1/2, in every form a config names
ZERO_ONE_FORMS = [
    EntryDistribution.uniform_mod(2),
    EntryDistribution.uniform_range(0, 1),
    EntryDistribution.bernoulli("1/2"),
    EntryDistribution.finite_support([(0, 1), (1, 1)]),
]


class TestEntryLaws:
    @pytest.mark.parametrize("dist", ZERO_ONE_FORMS, ids=lambda d: d.kind)
    def test_verifiers_read_atoms_not_kind(self, dist):
        ref = ZERO_ONE_FORMS[0]
        assert verify_moment_identity(dist, 2, V4) == verify_moment_identity(ref, 2, V4)
        assert verify_balanced_sums(dist, 4, Z2) == verify_balanced_sums(ref, 4, Z2)
        args = (Z4, frozenset({(0,), (2,)}), [(1,)], 2)
        assert verify_residual_bound(dist, *args) == verify_residual_bound(ref, *args)
        assert verify_w0_decomposition(dist, V4, 1, (1, 1)) == verify_w0_decomposition(ref, V4, 1, (1, 1))

    def test_huge_uniform_law_refused_before_listing_atoms(self):
        # 2**63 atoms: each guard counts them instead of building the pairs
        huge = EntryDistribution.uniform_mod(2 ** 63)
        calls = [
            lambda: verify_moment_identity(huge, 1, Z2),
            lambda: verify_balanced_sums(huge, 1, Z2),
            lambda: verify_residual_bound(huge, Z2, frozenset({(0,)}), [(1,)], 1),
            lambda: verify_w0_decomposition(huge, Z2, 1, (1,)),
        ]
        for call in calls:
            with pytest.raises(EnumerationGuardError):
                call()
