import functools
import math
import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

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
    trial_records,
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


def settled(spec, trial, depth):
    """The settled record of one trial."""
    return trial_records(spec, [trial], depth)[0]


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
        assert settled(spec, 5, 3) == settled(spec, 5, 3)

    def test_zero_matrix_resolved_exactly(self):
        # with uniform mod 2 entries, some trial draws the 1x1 zero matrix,
        # whose cokernel Z shows as Z/2**3 at depth 3
        spec = toy_spec()
        free = [t for t in range(20) if settled(spec, t, 3).singular]
        assert free, "expected at least one singular draw"
        assert settled(spec, free[0], 3).partition == (3,)
        assert run_trial(spec, free[0], 3).precision_used == 3

    def test_run_trial_leaves_singularity_unsettled(self):
        # trial 1 draws the zero matrix; run_trial keeps its screen but has
        # no singular flag, so only trial_records can settle it
        rec = run_trial(toy_spec(), 1, 3)
        assert not hasattr(rec, "singular")
        assert rec.partition == (3,) and rec.screen.tolist() == [[0]]
        assert settled(toy_spec(), 1, 3).singular

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
        rng, screen = ensembles.trial_rng, experiments.certificate_screen
        monkeypatch.setattr(ensembles, "trial_rng", lambda *a: draws.append(a) or rng(*a))
        monkeypatch.setattr(
            experiments, "certificate_screen", lambda *a: certificates.append(a) or screen(*a)
        )
        ensembles.draw_integers.cache_clear()
        for t in range(10):
            run_trial(spec, t, 1)
            assert len(draws) == t + 1
        assert certificates, "depth 1 should saturate some trial"
        assert not draw_integers(spec, 9).flags.writeable

    def test_rank_checks_follow_unscreened_certificate(self, monkeypatch):
        # a trial gets exact ranks only when some block's determinant
        # vanishes mod the certificate prime: then its blocks in order of
        # |float64 det|, smallest first, ties in block order, up to the
        # first singular one
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
                rec = settled(spec, trial, 3)
                if 3 not in rec.partition:  # nothing saturated, no certificate
                    assert not calls
                    continue
                blocks = determinant_blocks(spec, trial)
                vanish = [det_bareiss(b) % experiments.CERTIFICATE_PRIME == 0 for b in blocks]
                expected = []
                if any(vanish):
                    dets = np.abs(np.linalg.det(blocks.astype(np.float64)))
                    for b in sorted(range(len(blocks)), key=lambda b: dets[b]):
                        expected.append(blocks[b])
                        if rational_rank(blocks[b]) < spec.n:
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
            rec = settled(spec, 0, depth)
            assert run_trial(spec, 0, depth).precision_used == depth
            assert not rec.singular
            assert rec.partition == truncated_type(part, free, depth)
        assert settled(spec, 0, 64).partition == part


class TestRunTrialDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5]),
        kind=st.sampled_from(["block_triangular", "matrix_product", "bidiagonal_embedding"]),
        k=st.integers(1, 3),
        sizes=st.lists(st.integers(1, 3), min_size=3, max_size=3),
        uniform_mod=st.booleans(),
        depth=st.sampled_from([1, 2, 3, 4, 40]),  # 40: past the float64 bound, in Python ints
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
        rec = settled(spec, trial, depth)
        assert rec.partition == truncated_type(part, free, depth)
        assert rec.singular == (free > 0)
        assert run_trial(spec, trial, depth).precision_used == depth


class TestTrialRecords:
    """trial_records settles a chunk: one batched determinant of every
    screen mod the certificate prime, then the per-block fallback and
    exact rational rank only for a trial whose screen vanishes."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        """Shapes of the stacks handed to the batched elimination."""
        from cokfluct import experiments

        shapes = []
        real = experiments.dets_vanish_mod

        def spy(blocks, prime):
            shapes.append(np.shape(blocks))
            return real(blocks, prime)

        monkeypatch.setattr(experiments, "dets_vanish_mod", spy)
        return shapes

    @pytest.fixture
    def ranks(self, monkeypatch):
        """Matrices handed to exact rational rank."""
        from cokfluct import experiments

        calls = []
        monkeypatch.setattr(experiments, "rational_rank", lambda m: calls.append(m) or rational_rank(m))
        return calls

    def test_all_nonsingular_settled_by_product_screen(self, eliminations, ranks):
        # products of 30 factors are even at depth 1, so every trial has a
        # screen, and none vanishes mod the prime
        spec = toy_spec(k=30, n=6, A_dist=EntryDistribution.uniform_range(-100, 100), master_seed=31)
        records = trial_records(spec, range(40), 1)
        assert all(r.partition[:1] == (1,) and not r.singular for r in records)
        assert eliminations == [(40, 6, 6)]
        assert not ranks

    def test_one_block_vanishing_mod_prime_runs_fallback(self, eliminations, ranks):
        # 1x1 factors from {2, 3, 1000003}: a trial has a screen at depth 1
        # when some factor is even, and it vanishes when some factor is the
        # prime, which is still nonsingular over Q.  Every factor has full
        # rank, so the fallback ranks all three, with no second elimination
        from cokfluct.experiments import CERTIFICATE_PRIME

        dist = EntryDistribution.finite_support([(2, 1), (3, 1), (CERTIFICATE_PRIME, 1)])
        spec = toy_spec(k=3, A_dist=dist, master_seed=37)
        factors = [draw_integers(spec, t).ravel().tolist() for t in range(30)]
        screened = [f for f in factors if 2 in f]
        vanishing = [f for f in screened if CERTIFICATE_PRIME in f]
        assert 0 < len(vanishing) < len(screened)
        records = trial_records(spec, range(30), 1)
        assert not any(r.singular for r in records)
        assert eliminations == [(len(screened), 1, 1)]
        assert len(ranks) == 3 * len(vanishing)

    def test_single_block_falls_back_only_on_vanishing_screen(self, eliminations):
        # one 2x2 block with entries in [-2, 2]: |det| <= 8, so an even det
        # has a screen at depth 1, and only det 0 vanishes mod the prime;
        # that block's exact rank settles it, with no second elimination
        from cokfluct.exact_linalg import det_bareiss

        spec = toy_spec(n=2, A_dist=EntryDistribution.uniform_range(-2, 2), master_seed=38)
        dets = [det_bareiss(draw_integers(spec, t)[0]) for t in range(60)]
        screened = sum(d % 2 == 0 for d in dets)
        vanishing = dets.count(0)
        assert 0 < vanishing < screened
        records = trial_records(spec, range(60), 1)
        assert [r.singular for r in records] == [d == 0 for d in dets]
        assert eliminations == [(screened, 2, 2)]


    def test_locator_miss_still_finds_singular_block(self, monkeypatch, ranks):
        # a 2x2 factor near 2**60 has exact determinant 1 but float64
        # determinant 0, so the locator ranks it first; the exact rule must
        # still find the singular factor [[3, 3], [5, 5]], whose float64
        # determinant is a rounding residue above 0
        from cokfluct import ensembles

        a = 2 ** 60
        stack = np.array([[[3, 3], [5, 5]], [[a, a + 1], [a - 1, a]]], dtype=np.int64)
        stack.setflags(write=False)
        dets = np.linalg.det(stack.astype(np.float64))
        assert dets[1] == 0 < abs(dets[0])
        spec = toy_spec(k=2, n=2, A_dist=EntryDistribution.uniform_range(-3, 3), master_seed=39)
        monkeypatch.setattr(ensembles, "draw_integers", lambda *_: stack)
        ensembles._factor_product.cache_clear()
        (record,) = trial_records(spec, [0], 1)
        ensembles._factor_product.cache_clear()
        assert record.partition == (1,) and record.singular
        assert [r.tolist() for r in ranks] == [stack[1].tolist(), stack[0].tolist()]

    def test_overflowing_float_determinants_rank_in_block_order(self, ranks):
        # 20x20 blocks with entries near +-2**63: every float64 determinant
        # overflows to +-inf, so the blocks are ranked in block order, and
        # the answer is still exact rank's, with a repeated row in block 1
        # and with that row changed to give block 1 full rank
        from cokfluct.experiments import _has_singular_block

        rng = np.random.default_rng(40)
        stack = rng.integers(2 ** 62, 2 ** 63 - 1, size=(3, 20, 20), dtype=np.int64)
        stack *= rng.choice(np.array([-1, 1]), size=stack.shape)
        stack[1, 7] = stack[1, 3]
        full = stack.copy()
        full[1, 7, 0] -= np.sign(full[1, 7, 0])
        for blocks, singular, checked in ((stack, True, 2), (full, False, 3)):
            with np.errstate(all="ignore"):
                assert np.isinf(np.linalg.det(blocks.astype(np.float64))).all()
            assert [rational_rank(b) < 20 for b in blocks] == [False, singular, False]
            ranks.clear()
            assert _has_singular_block(blocks) is singular
            assert [r.tolist() for r in ranks] == blocks[:checked].tolist()


class TestBootstrapPercentile:
    @staticmethod
    def arrays():
        rng = np.random.default_rng(2024)
        yield np.array([0.75])
        yield np.array([-1.5, 2.25])
        yield np.array([0.02738500170148095, 8.158535541215322])  # lerp's two sides differ at gamma 0.5
        yield np.full(1000, 1.0 / 3)
        for n in (2, 3, 7, 40, 999, 1000, 1001):
            yield rng.random(n)
            yield rng.integers(0, 4, n).astype(np.float64)  # ties
            yield rng.normal(size=n) * 10.0 ** rng.integers(-8, 9)

    def test_matches_numpy_percentile_bitwise(self):
        from cokfluct.experiments import _percentile

        for values in self.arrays():
            ordered = np.sort(values)
            for q in (2.5, 97.5, 0, 50, 100):
                assert np.float64(_percentile(ordered, q)).tobytes() == np.percentile(values, q).tobytes()

    @pytest.mark.parametrize("n,resamples", [(1, 1000), (7, 1000), (120, 1000), (2000, 1000), (20000, 40)])
    def test_chunked_draw_is_one_call(self, monkeypatch, n, resamples):
        # at n = 20000 every chunk is one row; fewer resamples keep the
        # one-call reference at 6.4 MB
        from cokfluct import experiments

        monkeypatch.setattr(experiments, "BOOTSTRAP_RESAMPLES", resamples)
        values = np.random.default_rng(n).normal(size=n)
        ref = np.random.default_rng([n, 1])
        means = values[ref.integers(0, n, size=(resamples, n))].mean(axis=1)
        rng = np.random.default_rng([n, 1])
        lo, hi = experiments._bootstrap_ci(values, rng)
        assert (lo, hi) == tuple(np.percentile(means, [2.5, 97.5]).tolist())
        assert rng.integers(0, 2 ** 62) == ref.integers(0, 2 ** 62)  # the stream goes on where it did

    def test_traced_peak_stays_small(self):
        import tracemalloc

        from cokfluct.experiments import _bootstrap_ci

        values = np.random.default_rng(120).random(120)
        tracemalloc.start()
        try:
            _bootstrap_ci(values, np.random.default_rng(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_run_and_report_do_not_import_numpy_ma(self, tmp_path):
        # np.percentile imports numpy.ma on its first call, inside the
        # timed region of a fresh run
        code = textwrap.dedent(f"""
            import sys
            from pathlib import Path
            from cokfluct import AbelianPGroup, EnsembleSpec, EntryDistribution, run_experiment
            from cokfluct.cli import RunConfig, write_report_files

            spec = EnsembleSpec(p=2, kind="matrix_product", k=3, n=3, master_seed=5,
                                A_dist=EntryDistribution.uniform_range(-3, 3))
            config = RunConfig(spec, 30, (AbelianPGroup(2, (1,)),), ((1,),), d=2)
            report = run_experiment(spec, 30, config.groups, config.lambdas, d=2)
            assert report.hom_moments and report.l_moments
            write_report_files(report, Path({str(tmp_path)!r}), config)
            assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "report.json").exists()


class TestTrialRecordsDifferential:
    """Settled runs spanning several chunks against exact arithmetic."""

    @staticmethod
    def assert_drawn_once_plus_redraws(draws, trials, vanishing):
        """Every trial is drawn once, and drawn again only when its screen
        vanishes; it may skip the redraw only as the last trial of its chunk,
        whose draw can still be the cached one."""
        from cokfluct.experiments import SETTLE_CHUNK

        redrawn = draws - Counter(range(trials))
        chunk_ends = {min(start + SETTLE_CHUNK, trials) - 1 for start in range(0, trials, SETTLE_CHUNK)}
        assert set(draws) == set(range(trials))
        assert all(c == 1 for c in redrawn.values())
        assert vanishing - chunk_ends <= set(redrawn) <= vanishing
        assert len(vanishing - chunk_ends) > 0

    @staticmethod
    def collect(monkeypatch, spec, trials, depth):
        """Serial records of `trials` trials, and how often each trial was drawn."""
        from cokfluct import ensembles, experiments

        draws = []
        rng = ensembles.trial_rng
        monkeypatch.setattr(ensembles, "trial_rng", lambda *a: draws.append(a[1]) or rng(*a))
        ensembles.draw_integers.cache_clear()
        records = experiments._collect_records(spec, trials, depth, 1)
        monkeypatch.setattr(ensembles, "trial_rng", rng)
        return records, Counter(draws)

    @pytest.mark.parametrize("kind, dist", [
        ("block_triangular", EntryDistribution.uniform_range(-3, 3)),
        ("matrix_product", EntryDistribution.uniform_range(-3, 3)),
        ("matrix_product", EntryDistribution.uniform_mod(2)),  # mostly singular
        ("bidiagonal_embedding", EntryDistribution.uniform_mod(2)),
    ])
    def test_singular_flags_match_exact_snf(self, monkeypatch, kind, dist):
        from cokfluct.experiments import CERTIFICATE_PRIME, SETTLE_CHUNK
        from cokfluct.exact_linalg import det_bareiss

        trials, depth = 2 * SETTLE_CHUNK + 37, 1
        shape = (
            dict(block_sizes=(2, 3, 2), B_dist=EntryDistribution.uniform_range(-9, 9))
            if kind == "block_triangular" else dict(n=3)
        )
        spec = EnsembleSpec(p=2, kind=kind, k=3, A_dist=dist, master_seed=4242, **shape)
        exact = [exact_int_matrix(spec, t) for t in range(trials)]
        free = [cokernel_partition(m, 2).free_rank > 0 for m in exact]
        records, draws = self.collect(monkeypatch, spec, trials, depth)

        assert [r.singular for r in records] == free
        assert 0 < sum(free) < trials
        # a screen vanishes mod the prime exactly when det M does
        vanishing = {
            t for t, r in enumerate(records)
            if r.partition[:1] == (depth,) and det_bareiss(exact[t]) % CERTIFICATE_PRIME == 0
        }
        self.assert_drawn_once_plus_redraws(draws, trials, vanishing)

    def test_screen_vanishing_mod_prime_settles_nonsingular(self, monkeypatch):
        # 1x1 trials of 1000003 or 2 * 1000003: the even ones have a part at
        # depth 1 and a screen that vanishes mod the prime, so they reach
        # exact rational rank, which settles them as nonsingular
        from cokfluct import experiments
        from cokfluct.experiments import CERTIFICATE_PRIME, SETTLE_CHUNK

        ranks = []
        monkeypatch.setattr(experiments, "rational_rank", lambda m: ranks.append(m) or rational_rank(m))
        dist = EntryDistribution.finite_support([(CERTIFICATE_PRIME, 1), (2 * CERTIFICATE_PRIME, 1)])
        spec = toy_spec(A_dist=dist, master_seed=43)
        trials = SETTLE_CHUNK + 45
        even = {t for t in range(trials) if draw_integers(spec, t)[0, 0, 0] % 2 == 0}
        records, draws = self.collect(monkeypatch, spec, trials, 1)

        assert [r.partition for r in records] == [(1,) if t in even else () for t in range(trials)]
        assert not any(r.singular for r in records)
        assert len(ranks) == len(even)
        self.assert_drawn_once_plus_redraws(draws, trials, even)


class TestRunExperiment:
    def test_zero_trials(self):
        rep = run_experiment(toy_spec(), 0, [Z2], [(1,)], d=1)
        assert rep.trials == 0
        assert rep.included_count == rep.free_rank_count == rep.saturated_count == 0
        assert rep.centered_counts == {}
        assert math.isnan(rep.hom_moments[Z2.label()].mean)

    def test_non_integer_lambda_rejected(self):
        # (1.5,) is not run as lambda = (1)
        with pytest.raises(ValueError, match="partition part must be an integer, got 1.5"):
            run_experiment(toy_spec(), 0, [Z2], [(1.5,)], d=1)

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
            rec = settled(spec, trial, depth)
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
            full = settled(spec, t, 256)
            rec = settled(spec, t, 3)
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
