import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cokfluct import (
    AbelianPGroup,
    EnsembleSpec,
    EntryDistribution,
    ExperimentReport,
    FiniteSupportMatrixLaw,
    build_bidiagonal_embedding,
    cokernel_partition,
    compare_ensembles,
    draw_integers,
    hom_moment_of_trial,
    run_experiment,
    run_trial,
    total_variation,
    verify_moment_identity,
)
from cokfluct.exact_linalg import rational_rank
from cokfluct.experiments import working_depth
from helpers import truncated_type

Z2 = AbelianPGroup(2, (1,))
Z4 = AbelianPGroup(2, (2,))


def exact_int_matrix(spec, trial):
    ints = draw_integers(spec, trial).astype(object)
    if spec.kind == "block_triangular":
        return ints
    if spec.kind == "matrix_product":
        return functools.reduce(np.dot, ints)
    return build_bidiagonal_embedding(ints)


def _valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def toy_spec(**kw):
    base = dict(
        p=2, kind="matrix_product", k=1, n=1,
        A_dist=EntryDistribution.uniform_mod(2), master_seed=404,
    )
    base.update(kw)
    return EnsembleSpec(**base)


class TestHomMomentOfTrial:
    def test_examples(self):
        assert hom_moment_of_trial((1,), 0, Z2) == 2
        assert hom_moment_of_trial((), 1, Z2) == 2  # Hom(Z, Z/2)
        assert hom_moment_of_trial((2, 1), 0, Z4) == 8

    def test_free_rank_scales_by_order(self):
        assert hom_moment_of_trial((1,), 2, Z4) == 2 * 16


class TestRunTrial:
    def test_deterministic(self):
        spec = toy_spec()
        assert run_trial(spec, 5, 3) == run_trial(spec, 5, 3)

    def test_zero_matrix_resolved_exactly(self):
        # with uniform mod 2 entries, some trial draws the 1x1 zero matrix,
        # whose cokernel Z shows as Z/2**3 at depth 3
        spec = toy_spec()
        free = [run_trial(spec, t, 3) for t in range(20) if run_trial(spec, t, 3).singular]
        assert free, "expected at least one singular draw"
        rec = free[0]
        assert rec.partition == (3,) and rec.precision_used == 3

    @pytest.mark.parametrize("kind", ["block_triangular", "matrix_product", "bidiagonal_embedding"])
    def test_one_draw_per_trial(self, monkeypatch, kind):
        # a saturated trial's singularity certificate reuses the trial's draw
        from cokfluct import ensembles, experiments

        shape = (
            dict(block_sizes=(3, 3, 3), B_dist=EntryDistribution.uniform_range(-9, 9))
            if kind == "block_triangular" else dict(n=3)
        )
        spec = EnsembleSpec(
            p=2, kind=kind, k=3, A_dist=EntryDistribution.uniform_range(-3, 3),
            master_seed=8, **shape,
        )
        draws, certificates = [], []
        rng, blocks = ensembles.trial_rng, experiments.determinant_blocks
        monkeypatch.setattr(ensembles, "trial_rng", lambda *a: draws.append(a) or rng(*a))
        monkeypatch.setattr(
            experiments, "determinant_blocks", lambda *a: certificates.append(a) or blocks(*a)
        )
        ensembles.draw_integers.cache_clear()
        for t in range(10):
            run_trial(spec, t, 1)
            assert len(draws) == t + 1
        assert certificates, "depth 1 should saturate some trial"
        assert not draw_integers(spec, 9).flags.writeable

    def test_rank_checks_follow_unscreened_certificate(self, monkeypatch):
        # the product-determinant screen must not change which blocks get an
        # exact rank: those whose determinant vanishes mod the certificate
        # prime, in order, up to the first singular one
        from cokfluct import experiments
        from cokfluct.ensembles import determinant_blocks
        from cokfluct.exact_linalg import det_bareiss

        calls = []
        monkeypatch.setattr(experiments, "rational_rank", lambda m: calls.append(m) or rational_rank(m))
        ranked = screened = 0
        for dist, seed in ((EntryDistribution.uniform_mod(2), 606), (EntryDistribution.uniform_range(-3, 3), 607)):
            spec = toy_spec(k=40, n=10, A_dist=dist, master_seed=seed)
            for trial in range(20):
                calls.clear()
                rec = run_trial(spec, trial, 3)
                if 3 not in rec.partition:  # nothing saturated, no certificate
                    assert not calls
                    continue
                expected = []
                for block in determinant_blocks(spec, trial):
                    if det_bareiss(block) % experiments.CERTIFICATE_PRIME == 0:
                        expected.append(block)
                        if rational_rank(block) < spec.n:
                            break
                assert [c.tolist() for c in calls] == [e.tolist() for e in expected]
                assert rec.singular == any(rational_rank(e) < spec.n for e in expected)
                ranked += len(calls)
                screened += not calls
        assert ranked and screened, "expected both rank checks and screened trials"

    def test_block_trial(self):
        # exact SNF truncated at the working depth, and in full at a depth
        # above every divisor valuation
        spec = EnsembleSpec(
            p=2, kind="block_triangular", k=3, block_sizes=(4, 4, 4),
            A_dist=EntryDistribution.uniform_range(-10, 10),
            B_dist=EntryDistribution.uniform_range(-100, 100),
            master_seed=1,
        )
        part, free = cokernel_partition(draw_integers(spec, 0), 2)
        assert free == 0 and part
        for depth in (1, 3, 64):
            rec = run_trial(spec, 0, depth)
            assert rec.precision_used == depth
            assert not rec.singular
            assert rec.partition == truncated_type(part, free, depth)
        assert run_trial(spec, 0, 64).partition == part


class TestRunTrialDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5]),
        kind=st.sampled_from(["block_triangular", "matrix_product", "bidiagonal_embedding"]),
        k=st.integers(1, 3),
        sizes=st.lists(st.integers(1, 3), min_size=3, max_size=3),
        uniform_mod=st.booleans(),
        depth=st.integers(1, 4),
        seed=st.integers(0, 2 ** 32),
        trial=st.integers(0, 50),
    )
    def test_matches_exact_snf_truncated_at_depth(
        self, p, kind, k, sizes, uniform_mod, depth, seed, trial
    ):
        dist = EntryDistribution.uniform_mod(p) if uniform_mod else EntryDistribution.uniform_range(-3, 3)
        shape = (
            dict(block_sizes=tuple(sizes[:k]), B_dist=EntryDistribution.uniform_range(-9, 9))
            if kind == "block_triangular" else dict(n=sizes[0])
        )
        spec = EnsembleSpec(p=p, kind=kind, k=k, A_dist=dist, master_seed=seed, **shape)
        part, free = cokernel_partition(exact_int_matrix(spec, trial), p)
        rec = run_trial(spec, trial, depth)
        assert rec.partition == truncated_type(part, free, depth)
        assert rec.singular == (free > 0)
        assert rec.precision_used == depth


class TestRunExperiment:
    def test_zero_trials(self):
        rep = run_experiment(toy_spec(), 0, [Z2], [(1,)], d=1)
        assert rep.trials == 0
        assert rep.included_count == rep.free_rank_count == rep.saturated_count == 0
        assert rep.centered_counts == {}
        assert math.isnan(rep.hom_moments[Z2.label()].mean)

    def test_counts_add_up(self):
        rep = run_experiment(toy_spec(), 500, [Z2], [(1,)], d=1)
        assert rep.included_count + rep.free_rank_count + rep.saturated_count == 500
        assert rep.free_rank_count > 0  # half the draws are the zero matrix

    def test_toy_hom_identity(self):
        # cok is Z (Hom count 2) w.p. 1/2 and trivial (count 1) w.p. 1/2,
        # so E|Hom|/k = 3/2 exactly in expectation; 1e5 trials, free-rank
        # trials included through Hom(Z, G)
        rep = run_experiment(toy_spec(), 100000, [Z2], [(1,)], d=1)
        est = rep.hom_moments[Z2.label()]
        assert est.mean == pytest.approx(1.5, abs=0.01)
        assert est.ci_low < 1.5 < est.ci_high
        assert est.count == 100000

    def test_determinism_across_runs_and_workers(self):
        spec = toy_spec(master_seed=777)
        a = run_experiment(spec, 300, [Z2], [(1,)], d=1)
        b = run_experiment(spec, 300, [Z2], [(1,)], d=1)
        c = run_experiment(spec, 300, [Z2], [(1,)], d=1, workers=3)
        assert a == b == c
        assert a.to_dict() == c.to_dict()

    def test_env_var_caps_workers(self, monkeypatch):
        from cokfluct.experiments import WORKERS_ENV_VAR
        spec = toy_spec(master_seed=778)
        base = run_experiment(spec, 100, [Z2], [], d=1)
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        capped = run_experiment(spec, 100, [Z2], [], d=1, workers=8)
        assert capped == base

    @pytest.mark.parametrize("cpus, trials, workers, started", [
        (64, 5, 100000, [5]),    # one process per trial at most
        (3, 40, 100000, [3]),    # one process per usable CPU at most
        (64, 40, 4, [4]),
        (64, 1, 100000, []),     # one trial runs in this process
        (1, 40, 100000, []),
    ])
    def test_worker_processes_capped(self, monkeypatch, cpus, trials, workers, started):
        from cokfluct import experiments

        pools = []

        class SerialPool:
            """Records max_workers and maps in this process; starts nothing."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.delenv(experiments.WORKERS_ENV_VAR, raising=False)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        spec = toy_spec(master_seed=779)
        got = run_experiment(spec, trials, [Z2], [], d=1, workers=workers)
        assert pools == started
        assert got == run_experiment(spec, trials, [Z2], [], d=1)

    def test_report_round_trip(self):
        rep = run_experiment(toy_spec(), 200, [Z2, Z4], [(1,), (1, 1)], d=2)
        assert ExperimentReport.from_dict(rep.to_dict()) == rep

    def test_histogram_masses_sum_to_one(self):
        rep = run_experiment(toy_spec(), 300, [], [(1,)], d=1)
        hist = rep.centered_histogram()
        assert sum(hist.values()) == 1
        assert all(isinstance(v, Fraction) for v in hist.values())

    def test_group_prime_validated(self):
        with pytest.raises(ValueError):
            run_experiment(toy_spec(), 10, [AbelianPGroup(3, (1,))])

    def test_lambda_parts_validated(self):
        with pytest.raises(ValueError):
            run_experiment(toy_spec(), 10, [], [(1, 1)], d=1)

    def test_single_matrix_hom_moment_near_two(self):
        # product with k=1 is a plain balanced square matrix: E|Hom(cok, Z/2)|
        # = 1 + (1 - 2**-n) -> 2; tolerance 0.1 at n=24 with 1e4 trials
        spec = toy_spec(n=24, master_seed=31337)
        rep = run_experiment(spec, 10000, [Z2], [], d=1)
        est = rep.hom_moments[Z2.label()]
        assert abs(est.mean - 2.0) <= 0.1

    def test_small_n_empirical_matches_exact_oracle(self):
        # same statistic, cross-checked against the exact enumeration oracle
        n = 4
        law = FiniteSupportMatrixLaw(
            n, n, ((0, Fraction(1, 2)), (1, Fraction(1, 2)))
        )
        exact = verify_moment_identity(law, Z2)
        assert exact.equal
        spec = toy_spec(n=n, A_dist=EntryDistribution.uniform_mod(2), master_seed=5150)
        rep = run_experiment(spec, 20000, [Z2], [], d=1)
        est = rep.hom_moments[Z2.label()]
        assert est.mean == pytest.approx(float(exact.lhs), abs=0.05)

    def test_singular_product_resolved_by_rank_certificate(self):
        # n=10 products of many uniform mod-2 factors hit exactly singular
        # factors often; `singular` must match the exact factor ranks, and at
        # a depth above every torsion valuation the record must be the exact
        # SNF type, free summands showing as parts equal to the depth
        spec = toy_spec(k=40, n=10, master_seed=606)
        depth = 256
        singular = []
        for trial in range(60):
            rec = run_trial(spec, trial, depth)
            ranks = [rational_rank(f) for f in draw_integers(spec, trial)]
            assert rec.singular == (min(ranks) < spec.n)
            if rec.singular:
                singular.append(rec)
                if len(singular) <= 2:  # exact SNF on the product is slow
                    part, free = cokernel_partition(exact_int_matrix(spec, trial), 2)
                    assert free > 0
                    assert rec.partition == (depth,) * free + part
        assert singular, "expected singular trials in this configuration"

    def test_nonsingular_product_jump_above_det_valuation(self):
        # divisor valuations far above the working depth saturate the
        # elimination at depth 3; the certificate must still call the trial
        # nonsingular, and its type must be the full type (read at depth 256,
        # where the parts sum to the exact det valuation) truncated at 3
        from cokfluct.ensembles import factor_determinants
        spec = toy_spec(
            k=40, n=10, A_dist=EntryDistribution.uniform_range(-3, 3), master_seed=607
        )
        deep = []
        for t in range(40):
            dets = factor_determinants(spec, t)
            full = run_trial(spec, t, 256)
            rec = run_trial(spec, t, 3)
            assert rec.singular == full.singular == (0 in dets)
            if rec.singular:
                continue
            assert sum(full.partition) == sum(_valuation(x, 2) for x in dets)
            assert rec.partition == truncated_type(full.partition, 0, 3)
            if full.partition[0] > 16:
                deep.append(rec)
        assert deep, "expected divisor valuations beyond the default precision"

    def test_working_depth(self):
        assert working_depth(3, []) == 3
        assert working_depth(1, [Z2, Z4, AbelianPGroup(2, ())]) == 2
        assert working_depth(2, [AbelianPGroup(2, (5, 1))]) == 5

    def test_bidiagonal_embedding_kind_matches_product_kind(self):
        base = dict(
            p=2, k=4, n=3,
            A_dist=EntryDistribution.uniform_range(-5, 5), master_seed=2024,
        )
        prod = run_experiment(
            EnsembleSpec(kind="matrix_product", **base), 200, [Z2], [(1,)], d=1
        )
        emb = run_experiment(
            EnsembleSpec(kind="bidiagonal_embedding", **base), 200, [Z2], [(1,)], d=1
        )
        # identical factor streams, identical cokernels, trial by trial
        assert prod.centered_counts == emb.centered_counts
        assert prod.hom_moments == emb.hom_moments


class TestCompareEnsembles:
    def _mini_report(self, counts, seed=1):
        rep = run_experiment(toy_spec(master_seed=seed), 50, [], [(1,)], d=1)
        return ExperimentReport(
            spec=rep.spec, trials=rep.trials, d=rep.d, zeta=rep.zeta,
            center=rep.center, included_count=sum(counts.values()),
            free_rank_count=0,
            hom_moments={}, l_moments=dict(rep.l_moments),
            centered_counts=counts,
        )

    def test_self_comparison_is_zero(self):
        rep = run_experiment(toy_spec(), 200, [], [(1,)], d=1)
        summary = compare_ensembles(rep, rep)
        assert summary.tv_distance == 0.0
        assert summary.moment_gaps == {"(1)": 0.0}

    def test_disjoint_masses(self):
        a = self._mini_report({(0,): 10})
        b = self._mini_report({(5,): 10})
        assert compare_ensembles(a, b).tv_distance == 1.0

    def test_total_variation_exact(self):
        assert total_variation({(0,): 3, (1,): 1}, {(0,): 1, (1,): 1}) == Fraction(1, 4)

    def test_parameter_mismatch(self):
        a = run_experiment(toy_spec(), 20, [], [(1,)], d=1)
        b = run_experiment(toy_spec(), 20, [], [(1,)], d=2)
        with pytest.raises(ValueError):
            compare_ensembles(a, b)
