from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cokfluct import (
    AbelianPGroup,
    FluctuationParams,
    L_moment,
    centered_rank_vector,
    centering,
    chain_count,
    conjugate,
    limit_rescaled_hom_moment,
)


class TestLimitRescaledHomMoment:
    def test_z2(self):
        G = AbelianPGroup(2, (1,))
        assert chain_count(G, 1) == 1  # the oracle behind the frozen value
        assert limit_rescaled_hom_moment(G) == 1

    def test_trivial_group(self):
        assert limit_rescaled_hom_moment(AbelianPGroup(3, ())) == 1

    def test_klein_four(self):
        G = AbelianPGroup(2, (1, 1))
        assert chain_count(G, 2) == 3
        assert limit_rescaled_hom_moment(G) == Fraction(3, 2)


class TestLMoment:
    def test_single_box(self):
        params = FluctuationParams(2, 0.0, 3)
        mv = L_moment((1,), params)
        assert mv.rational == 1 and mv.scale == 1.0 and mv.value == 1.0

    def test_empty(self):
        params = FluctuationParams(5, 0.0, 2)
        assert L_moment((), params).value == 1.0

    def test_two_boxes_one_column(self):
        params = FluctuationParams(2, 0.0, 2)
        # conjugate of (1,1) is (2); c(Z/4, 2) = 1
        assert chain_count(AbelianPGroup(2, (2,)), 2) == 1
        assert L_moment((1, 1), params).rational == Fraction(1, 2)

    def test_too_many_parts(self):
        params = FluctuationParams(2, 0.0, 1)
        with pytest.raises(ValueError):
            L_moment((1, 1), params)

    def test_positive_on_sig_d(self):
        params = FluctuationParams(2, 0.0, 3)
        for lam in [(1,), (2,), (1, 1), (2, 1), (3, 2, 1), (2, 2, 2)]:
            assert L_moment(lam, params).value > 0

    def test_zeta_scale(self):
        params = FluctuationParams(2, 0.5, 1)
        mv = L_moment((2,), params)
        assert mv.scale == pytest.approx(2 ** (-0.5 * 2))
        assert params.chi == pytest.approx(2 ** -0.5)


class TestCentering:
    def test_exact_power(self):
        params = FluctuationParams(2, 0.0, 1)
        assert centering(8, params) == 3
        assert centering(1, params) == 0

    def test_non_power(self):
        params = FluctuationParams(2, 0.0, 1)
        assert centering(6, params) == 3  # log2 6 = 2.585

    def test_powers_exact_up_to_60(self):
        for p in (2, 3, 5):
            params = FluctuationParams(p, 0.0, 1)
            for m in range(61):
                assert centering(p ** m, params) == m

    def test_tie_rounds_away_from_zero(self):
        params = FluctuationParams(2, 0.5, 1)
        assert centering(4, params) == 3  # 2 + 0.5 exactly

    def test_zeta_shift(self):
        params = FluctuationParams(2, 0.4, 1)
        assert centering(8, params) == 3  # 3.4 rounds down


class TestCenteredRankVector:
    def test_examples(self):
        assert centered_rank_vector((3, 1), 8, FluctuationParams(2, 0.0, 2)) == (-1, -2)
        assert centered_rank_vector((), 1, FluctuationParams(2, 0.0, 1)) == (0,)
        assert centered_rank_vector((2, 2), 4, FluctuationParams(2, 0.0, 3)) == (0, 0, -2)

    def test_weakly_decreasing_exhaustive(self):
        params = FluctuationParams(2, 0.0, 4)

        def partitions(max_size):
            out = [()]
            def rec(prefix, remaining, cap):
                for part in range(min(cap, remaining), 0, -1):
                    out.append(prefix + (part,))
                    rec(prefix + (part,), remaining - part, part)
            rec((), max_size, max_size)
            return out

        for lam in partitions(8):
            vec = centered_rank_vector(lam, 16, params)
            assert all(a >= b for a, b in zip(vec, vec[1:]))

    @given(st.integers(1, 10 ** 6))
    def test_weakly_decreasing_property(self, k):
        params = FluctuationParams(2, 0.0, 3)
        vec = centered_rank_vector((4, 2, 2, 1), k, params)
        assert all(a >= b for a, b in zip(vec, vec[1:]))

    def test_truncation_only_at_larger_d(self):
        lam = (3, 1)
        v2 = centered_rank_vector(lam, 8, FluctuationParams(2, 0.0, 2))
        v4 = centered_rank_vector(lam, 8, FluctuationParams(2, 0.0, 4))
        assert v4[:2] == v2
        assert v4[2:] == (conjugate(lam)[2] - 3, 0 - 3)


class TestFluctuationParams:
    def test_chi_identity(self):
        params = FluctuationParams(3, 0.0, 1)
        assert params.chi == 0.5

    def test_zeta_validated(self):
        with pytest.raises(ValueError):
            FluctuationParams(2, -0.1, 1)
        with pytest.raises(ValueError):
            FluctuationParams(2, 1.0, 1)
