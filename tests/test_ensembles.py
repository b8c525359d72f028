import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cokfluct import (
    ConfigError,
    EnsembleSpec,
    EntryDistribution,
    build_bidiagonal_embedding,
    cokernel_partition,
    default_precision,
    draw_integers,
    product_factors,
    sample_block_matrix,
    sample_product,
    streaming_block_eliminate,
)
from cokfluct.ensembles import trial_rng


def block_spec(**kw):
    base = dict(
        p=2,
        kind="block_triangular",
        k=4,
        block_sizes=(3, 3, 3, 3),
        A_dist=EntryDistribution.uniform_range(-10, 10),
        B_dist=EntryDistribution.uniform_range(-100, 100),
        master_seed=777,
    )
    base.update(kw)
    return EnsembleSpec(**base)


def exact_product(spec, trial):
    return functools.reduce(np.dot, draw_integers(spec, trial).astype(object))


class TestEntryDistribution:
    def test_uniform_mod_residues(self):
        d = EntryDistribution.uniform_mod(6)
        assert d.residue_probs(2) == [Fraction(1, 2), Fraction(1, 2)]
        assert d.residue_probs(4) == [Fraction(1, 3), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6)]
        assert d.best_epsilon(2) == Fraction(1, 2)

    def test_uniform_range_residues_match_enumeration(self):
        d = EntryDistribution.uniform_range(-7, 11)
        for p in (2, 3, 5):
            brute = [Fraction(0)] * p
            for v in range(-7, 12):
                brute[v % p] += Fraction(1, 19)
            assert d.residue_probs(p) == brute

    def test_bernoulli_exact(self):
        d = EntryDistribution.bernoulli(Fraction(3, 10))
        assert d.residue_probs(2) == [Fraction(7, 10), Fraction(3, 10)]
        assert d.best_epsilon(2) == Fraction(3, 10)

    def test_finite_support_normalizes(self):
        d = EntryDistribution.finite_support([(0, 2), (1, 1), (5, 1)])
        assert d.support == ((0, Fraction(1, 2)), (1, Fraction(1, 4)), (5, Fraction(1, 4)))
        assert d.residue_probs(5) == [
            Fraction(3, 4), Fraction(1, 4), Fraction(0), Fraction(0), Fraction(0),
        ]

    def test_constant_never_balanced(self):
        d = EntryDistribution.constant(3)
        assert d.best_epsilon(2) == 0
        assert d.best_epsilon(5) == 0
        assert not d.is_balanced(3)

    def test_constant_multiple_of_p_unbalanced(self):
        assert not EntryDistribution.constant(0).is_balanced(2)

    @pytest.mark.parametrize(
        "dist",
        [
            EntryDistribution.uniform_mod(3),
            EntryDistribution.bernoulli(Fraction(3, 10)),
            EntryDistribution.uniform_range(-2, 2),
            EntryDistribution.finite_support([(0, 1), (1, 2), (4, 1)]),
        ],
    )
    def test_empirical_frequencies(self, dist):
        # frequencies within 4 standard errors at 1e5 draws
        rng = np.random.default_rng(99)
        draws = dist.sample(rng, 100000)
        total = Fraction(1)
        for value, prob in dist.support_pairs():
            freq = np.count_nonzero(draws == value) / 100000
            se = math.sqrt(float(prob) * (1 - float(prob)) / 100000)
            assert abs(freq - float(prob)) <= 4 * se + 1e-12
            total -= prob
        assert total == 0

    def test_uniform_mod_is_uniform_range_from_zero(self):
        for m in range(1, 13):
            mod, ranged = EntryDistribution.uniform_mod(m), EntryDistribution.uniform_range(0, m - 1)
            assert mod.support_pairs() == ranged.support_pairs()
            for p in (2, 3, 5):
                assert mod.residue_probs(p) == ranged.residue_probs(p)
            draws = [d.sample(np.random.default_rng(m), (3, 4)) for d in (mod, ranged)]
            assert np.array_equal(*draws)

    def test_huge_uniform_mod_validates_at_once(self):
        # residue classes are counted, not enumerated
        assert EntryDistribution.uniform_mod(2 ** 62).is_balanced(2)
        assert EntryDistribution.uniform_mod(2 ** 63).residue_probs(3)[0] == Fraction(2 ** 63 // 3 + 1, 2 ** 63)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EntryDistribution.uniform_mod(2 ** 63 + 1),
            lambda: EntryDistribution.uniform_range(0, 2 ** 63),
            lambda: EntryDistribution.uniform_range(-2 ** 63 - 1, 0),
            lambda: EntryDistribution.finite_support([(0, 1), (10 ** 20, 1)]),
            lambda: EntryDistribution.constant(-10 ** 20),
        ],
    )
    def test_parameters_beyond_int64_rejected(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_int64_extremes_accepted(self):
        for d in (
            EntryDistribution.uniform_mod(2 ** 63),
            EntryDistribution.uniform_range(-2 ** 63, 2 ** 63 - 1),
            EntryDistribution.finite_support([(-2 ** 63, 1), (2 ** 63 - 1, 1)]),
        ):
            assert d.sample(np.random.default_rng(0), 5).dtype == np.int64

    def test_round_trip(self):
        for d in (
            EntryDistribution.uniform_mod(8),
            EntryDistribution.bernoulli(Fraction(1, 3)),
            EntryDistribution.uniform_range(-100, 100),
            EntryDistribution.finite_support([(-1, 1), (0, 1), (1, 1)]),
            EntryDistribution.constant(1),
        ):
            assert EntryDistribution.from_dict(d.to_dict()) == d

    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda: EntryDistribution.uniform_mod(2.5), "m"),
            (lambda: EntryDistribution.uniform_mod(np.int64(4)), "m"),
            (lambda: EntryDistribution.uniform_range(0.5, 3), "low"),
            (lambda: EntryDistribution.uniform_range(0, 3.7), "high"),
            (lambda: EntryDistribution.uniform_range(True, 3), "low"),
            (lambda: EntryDistribution.constant(2.9), "value"),
            (lambda: EntryDistribution.finite_support([(0, 1), (1.5, 1)]), "support value"),
            (lambda: EntryDistribution.finite_support([(0, 1), ("1", 1)]), "support value"),
        ],
        ids=[
            "uniform_mod-2.5", "uniform_mod-int64", "low-0.5", "high-3.7", "low-True", "constant-2.9",
            "support-1.5", "support-str",
        ],
    )
    def test_non_integer_parameter_rejected(self, build, name):
        # the constructors check what from_dict checks: nothing is truncated
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            build()


class TestEnsembleSpecValidation:
    def test_unbalanced_A_rejected(self):
        with pytest.raises(ConfigError, match="balanced"):
            block_spec(A_dist=EntryDistribution.constant(0))
        with pytest.raises(ConfigError, match="balanced"):
            EnsembleSpec(
                p=2, kind="matrix_product", k=2, n=3,
                A_dist=EntryDistribution.constant(2), master_seed=1,
            )

    def test_block_sizes_validated(self):
        with pytest.raises(ConfigError):
            block_spec(block_sizes=(3, 3))
        with pytest.raises(ConfigError):
            block_spec(block_sizes=(3, 3, 0, 3))

    @pytest.mark.parametrize(
        "kind,field,value",
        [
            ("block_triangular", "block_sizes", (2.7, 3, 3, 3)),
            ("block_triangular", "block_sizes", (True, 3, 3, 3)),
            ("block_triangular", "master_seed", 1.5),
            ("block_triangular", "k", 4.0),
            ("block_triangular", "p", 2.0),
            ("matrix_product", "n", 2.5),
            ("matrix_product", "k", 2.0),
            ("matrix_product", "master_seed", True),
            ("bidiagonal_embedding", "n", 3.0),
        ],
    )
    def test_non_integer_field_rejected(self, kind, field, value):
        # the Python API checks what from_dict checks: nothing is truncated
        # or left to fail later
        make = block_spec if kind == "block_triangular" else functools.partial(
            EnsembleSpec, p=2, kind=kind, k=2, n=3, A_dist=EntryDistribution.uniform_mod(2), master_seed=1,
        )
        make()
        with pytest.raises(ConfigError, match=f"{field}.* must be an integer"):
            make(**{field: value})

    @pytest.mark.parametrize(
        "kind,field,value",
        [
            ("block_triangular", "n", 7),
            ("matrix_product", "block_sizes", (2, 2)),
            ("matrix_product", "B_dist", EntryDistribution.uniform_range(-9, 9)),
            ("bidiagonal_embedding", "block_sizes", (2.5,)),
            ("bidiagonal_embedding", "B_dist", "junk"),
        ],
    )
    def test_field_of_other_kind_rejected(self, kind, field, value):
        # a spec keeps only its kind's fields, so to_dict never writes or
        # fails on a foreign one; the nulls it writes still round-trip
        make = block_spec if kind == "block_triangular" else functools.partial(
            EnsembleSpec, p=2, kind=kind, k=2, n=3, A_dist=EntryDistribution.uniform_mod(2), master_seed=1,
        )
        raw = make().to_dict()
        assert raw[field] is None and EnsembleSpec.from_dict(raw) == make()
        with pytest.raises(ConfigError, match=f"{kind} takes no {field}"):
            make(**{field: value})
        if field == "n":
            with pytest.raises(ConfigError, match=f"{kind} takes no {field}"):
                EnsembleSpec.from_dict({**raw, field: value})

    def test_b_dist_unconstrained(self):
        block_spec(B_dist=EntryDistribution.constant(0))
        block_spec(B_dist=EntryDistribution.constant(1))

    def test_round_trip(self):
        spec = block_spec()
        assert EnsembleSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("kind", ["block_triangular", "matrix_product", "bidiagonal_embedding"])
    def test_precision_must_be_null(self, kind):
        # a trial is reduced mod p**D of its run, so a spec carries no
        # precision: reports keep a null key and a set one is an error
        spec = block_spec() if kind == "block_triangular" else EnsembleSpec(
            p=2, kind=kind, k=3, n=4, A_dist=EntryDistribution.uniform_mod(2), master_seed=1,
        )
        raw = spec.to_dict()
        assert raw["precision"] is None
        assert EnsembleSpec.from_dict(raw) == spec
        del raw["precision"]
        assert EnsembleSpec.from_dict(raw) == spec
        for value in (5, 0, "16"):
            with pytest.raises(ConfigError, match="ensemble.precision must be null"):
                EnsembleSpec.from_dict({**raw, "precision": value})
        with pytest.raises(TypeError):
            dataclasses.replace(spec, precision=5)

    def test_default_precision(self):
        assert default_precision(2, 16) == 16
        assert default_precision(2, 2 ** 10) == 18
        assert default_precision(3, 10) == 16


class TestBlockSampler:
    def test_degenerate_k1(self):
        spec = EnsembleSpec(
            p=2, kind="block_triangular", k=1, block_sizes=(2,),
            A_dist=EntryDistribution.uniform_mod(4),
            B_dist=EntryDistribution.uniform_range(-100, 100),
            master_seed=5,
        )
        m = sample_block_matrix(spec, 0)
        assert m.shape == (2, 2)

    def test_structural_zero_pattern(self):
        # B constant 0: nonzero blocks only at (i,i) and (i,i-1)
        spec = block_spec(B_dist=EntryDistribution.constant(0), k=3, block_sizes=(2, 2, 2))
        a = sample_block_matrix(spec, 1)
        offs = [0, 2, 4, 6]
        for i in range(3):
            for j in range(3):
                blk = a[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
                if j > i or j < i - 1:
                    assert not blk.any(), (i, j)

    def test_structural_pattern_with_nonzero_B(self):
        spec = block_spec(B_dist=EntryDistribution.constant(1), k=4, block_sizes=(2, 2, 2, 2))
        a = sample_block_matrix(spec, 0)
        offs = [0, 2, 4, 6, 8]
        for i in range(4):
            for j in range(4):
                blk = a[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
                if j > i:
                    assert not blk.any()
                elif j <= i - 2:
                    assert (blk == 1).all()  # the constant B fill

    def test_determinism(self):
        spec = block_spec()
        first = sample_block_matrix(spec, 3).copy()
        assert not np.array_equal(sample_block_matrix(spec, 4), first)
        assert np.array_equal(sample_block_matrix(spec, 3), first)  # drawn again: the cache held trial 4

    def test_precision_reinvocation_consistency(self):
        spec = block_spec()
        # the draw is the same integer matrix at every precision, so its
        # type mod 2**16 is its type mod 2**32 with parts capped at 16
        m = sample_block_matrix(spec, 2)
        t16 = streaming_block_eliminate(m, spec.block_sizes, 2, 16)
        t32 = streaming_block_eliminate(m, spec.block_sizes, 2, 32)
        assert t16 == tuple(min(x, 16) for x in t32)

    def test_matches_integer_sample(self):
        spec = block_spec()
        m = sample_block_matrix(spec, 7)
        assert m is draw_integers(spec, 7)
        assert m.dtype == np.int64 and not m.flags.writeable


class TestProductSampler:
    def prod_spec(self, **kw):
        base = dict(
            p=2, kind="matrix_product", k=3, n=2,
            A_dist=EntryDistribution.uniform_range(-5, 5), master_seed=11,
        )
        base.update(kw)
        return EnsembleSpec(**base)

    def test_k1_single_matrix(self):
        spec = self.prod_spec(k=1)
        m = sample_product(spec, 0, precision=16)
        f = product_factors(spec, 0)
        assert len(f) == 1 and np.array_equal(m, f[0] % 2 ** 16)

    def test_factor_stack_is_the_draw(self):
        # the kernel reduces what it reads, so the factors are the trial's
        # read-only int64 draw itself, unreduced
        spec = self.prod_spec(k=2, n=2)
        f = product_factors(spec, 3)
        assert f is draw_integers(spec, 3)
        assert f.shape == (2, 2, 2) and f.dtype == np.int64 and not f.flags.writeable
        assert (f < 0).any()

    def test_scalar_product(self):
        spec = self.prod_spec(k=2, n=1)
        factors = draw_integers(spec, 4)
        prod = sample_product(spec, 4, precision=16)
        expected = (int(factors[0][0, 0]) * int(factors[1][0, 0])) % 2 ** 16
        assert int(prod[0, 0]) == expected

    def test_associativity_under_reduction(self):
        spec = self.prod_spec(k=3, n=3)
        q = 2 ** 16
        for trial in range(5):
            a, b, c = np.asarray(product_factors(spec, trial), dtype=object) % q
            left = np.dot(np.dot(a, b) % q, c) % q
            right = np.dot(a, np.dot(b, c) % q) % q
            assert (left == right).all()
            assert (np.asarray(sample_product(spec, trial, precision=16), dtype=object) == left).all()

    def test_exact_product_consistent(self):
        spec = self.prod_spec(k=4, n=2)
        exact = exact_product(spec, 9)
        reduced = sample_product(spec, 9, precision=16)
        q = 2 ** 16
        assert [[x % q for x in row] for row in exact.tolist()] == [
            [int(x) for x in row] for row in reduced
        ]

    @pytest.mark.parametrize("precision", [16, 32, 63, 128])
    def test_grouped_fold_equals_naive_fold(self, precision):
        # sample_product's product tree (float64 residues at 2**16 here,
        # Python ints from 2**32) must equal a left fold over Python ints
        # reduced after every product
        spec = self.prod_spec(k=12, n=4, A_dist=EntryDistribution.uniform_range(-100, 100))
        q = 2 ** precision
        for trial in range(3):
            naive = None
            for f in draw_integers(spec, trial):
                g = np.asarray(f, dtype=object) % q
                naive = g if naive is None else np.dot(naive, g) % q
            got = np.asarray(sample_product(spec, trial, precision), dtype=object)
            assert (got == naive).all()

    def test_determinant_blocks_multiply_to_det(self):
        from cokfluct.ensembles import determinant_blocks
        from helpers import det_cofactor
        for spec in (
            block_spec(k=3, block_sizes=(1, 3, 2), B_dist=EntryDistribution.uniform_range(-9, 9)),
            self.prod_spec(k=3, n=3),
        ):
            for trial in range(3):
                blocks = determinant_blocks(spec, trial)
                dets = [det_cofactor(b.tolist()) for b in blocks]
                if spec.kind == "block_triangular":
                    whole = draw_integers(spec, trial)
                else:
                    whole = exact_product(spec, trial)
                assert math.prod(dets) == det_cofactor(whole.tolist())

    def test_factor_determinants_exact(self):
        from cokfluct.ensembles import factor_determinants
        from helpers import det_cofactor
        spec = self.prod_spec(k=3, n=3)
        dets = factor_determinants(spec, 2)
        expected = [det_cofactor(f.tolist()) for f in draw_integers(spec, 2)]
        assert dets == expected


class TestCombinedProduct:
    """A matrix_product trial's sample_product and certificate_screen equal
    the two separate trees, mod p**D and mod the prime, on either side of
    the float64 bound that decides whether they share one product mod
    p**D * CERTIFICATE_PRIME."""

    @pytest.mark.parametrize("p, n, depth, dist, shared", [
        (2, 20, 3, EntryDistribution.uniform_mod(2), True),
        (2, 4, 1, EntryDistribution.uniform_range(-2 ** 62, 2 ** 62), True),
        (2, 3, 8, EntryDistribution.uniform_range(-100, 100), False),   # tree mod Q would be int64
        (2, 3, 16, EntryDistribution.uniform_range(-100, 100), False),  # tree mod Q would be objects
        (3, 2, 4, EntryDistribution.uniform_range(-50, 50), True),      # 2 (Q // 2 + 1)**2 < 2**52
        (3, 3, 4, EntryDistribution.uniform_range(-50, 50), False),     # 3 (Q // 2 + 1)**2 just past it
        (5, 5, 2, EntryDistribution.uniform_mod(25), True),
        (5, 5, 3, EntryDistribution.uniform_mod(25), False),
    ])
    def test_matches_separate_trees(self, p, n, depth, dist, shared):
        from cokfluct.ensembles import (
            CERTIFICATE_PRIME,
            _combined_modulus,
            certificate_screen,
            determinant_blocks,
        )
        from cokfluct.exact_linalg import product_mod

        spec = EnsembleSpec(p=p, kind="matrix_product", k=9, n=n, A_dist=dist, master_seed=90 + depth)
        assert (_combined_modulus(spec, depth) is not None) == shared
        for trial in range(4):
            draw = draw_integers(spec, trial)
            expected = product_mod(determinant_blocks(spec, trial), CERTIFICATE_PRIME)
            # either call may come first and form the trial's product
            screen = certificate_screen(spec, trial, depth) if trial % 2 else None
            assert np.array_equal(sample_product(spec, trial, depth), product_mod(draw, p ** depth))
            if screen is None:
                screen = certificate_screen(spec, trial, depth)
            assert screen.dtype == expected.dtype == np.int64
            assert np.array_equal(screen, expected)
            exact = exact_product(spec, trial)
            assert (sample_product(spec, trial, depth) == exact % p ** depth).all()
            assert (screen == exact % CERTIFICATE_PRIME).all()

    def test_screen_of_other_kinds_is_the_block_product(self):
        from cokfluct.ensembles import CERTIFICATE_PRIME, certificate_screen, determinant_blocks
        from cokfluct.exact_linalg import product_mod

        for spec in (
            block_spec(),
            EnsembleSpec(p=2, kind="bidiagonal_embedding", k=3, n=3,
                         A_dist=EntryDistribution.uniform_mod(2), master_seed=5),
        ):
            for trial in range(3):
                expected = product_mod(determinant_blocks(spec, trial), CERTIFICATE_PRIME)
                assert np.array_equal(certificate_screen(spec, trial, 3), expected)


class TestBidiagonalEmbedding:
    def test_k1(self):
        m = build_bidiagonal_embedding([np.array([[2]])])
        assert m.shape == (1, 1) and int(m[0, 0]) == 2

    def test_layout_two_scalars(self):
        emb = build_bidiagonal_embedding(np.array([[[2]], [[3]]], dtype=object))
        assert emb.dtype == object
        assert emb.tolist() == [[2, 0], [1, 3]]

    def test_layout_blocks(self):
        a = np.array([[1, 2], [3, 4]])
        b = np.array([[5, 6], [7, 8]])
        emb = build_bidiagonal_embedding([a, b])
        assert emb.dtype == np.int64
        assert emb.tolist() == [
            [1, 2, 0, 0],
            [3, 4, 0, 0],
            [1, 0, 5, 6],
            [0, 1, 7, 8],
        ]

    def test_embedding_matches_product_cokernel(self):
        # the exact-SNF route on both sides of the construction
        spec = EnsembleSpec(
            p=2, kind="bidiagonal_embedding", k=3, n=2,
            A_dist=EntryDistribution.uniform_range(-5, 5), master_seed=21,
        )
        for trial in range(50):
            prod_part = cokernel_partition(exact_product(spec, trial), 2)
            emb = build_bidiagonal_embedding(draw_integers(spec, trial).astype(object))
            emb_part = cokernel_partition(emb, 2)
            assert prod_part == emb_part

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            build_bidiagonal_embedding([np.array([[1]]), np.identity(2, dtype=np.int64)])


class TestSeeding:
    def test_trial_rng_reproducible(self):
        a = trial_rng(123, 5).integers(0, 1000, 10)
        b = trial_rng(123, 5).integers(0, 1000, 10)
        c = trial_rng(123, 6).integers(0, 1000, 10)
        assert (a == b).all()
        assert (a != c).any()


def per_block_draw(spec, trial):
    """Reference draw with one `sample` call per block (all diagonal blocks,
    then all subdiagonal blocks, then the B blocks row by row) or per
    factor, on the trial's generator."""
    rng = trial_rng(spec.master_seed, trial)
    if spec.kind != "block_triangular":
        return np.stack([spec.A_dist.sample(rng, (spec.n, spec.n)) for _ in range(spec.k)])
    sizes, k = spec.block_sizes, spec.k
    offs = [0, *itertools.accumulate(sizes)]
    full = np.zeros((offs[-1], offs[-1]), dtype=np.int64)

    def put(i, j, dist):
        full[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = dist.sample(rng, (sizes[i], sizes[j]))

    for i in range(k):
        put(i, i, spec.A_dist)
    for i in range(1, k):
        put(i, i - 1, spec.A_dist)
    for i in range(2, k):
        for j in range(i - 1):
            put(i, j, spec.B_dist)
    return full


SMALL_SPAN = EntryDistribution.uniform_range(-3, 4)  # drawn from 32-bit words
STREAM_LAWS = {
    "uniform_mod-2": EntryDistribution.uniform_mod(2),
    "uniform_mod-2**63": EntryDistribution.uniform_mod(2 ** 63),
    "uniform_range-small": SMALL_SPAN,
    "uniform_range-2**32-1": EntryDistribution.uniform_range(0, 2 ** 32 - 1),
    "uniform_range-2**32": EntryDistribution.uniform_range(-2 ** 31, 2 ** 31),
    "uniform_range-2**41": EntryDistribution.uniform_range(-2 ** 40, 2 ** 40),
    "uniform_range-point": EntryDistribution.uniform_range(5, 5),
    "bernoulli": EntryDistribution.bernoulli(Fraction(1, 3)),
    "finite_support": EntryDistribution.finite_support([(0, 1), (3, 2), (-7, 1)]),
    "constant": EntryDistribution.constant(7),
}
BALANCED_LAWS = {name: law for name, law in STREAM_LAWS.items() if law.is_balanced(2)}
# (2, 1, 3) and (1, 2) have an odd number of A entries, so a half-used
# 32-bit word carries from the A call into the B call
STREAM_SIZES = [(3, 1, 4, 1, 5), (2, 1, 3), (1, 2), (1,)]


class TestOneCallDraw:
    """draw_integers makes one `sample` call per entry law; its stream must
    equal one call per block or factor, value for value."""

    @staticmethod
    def assert_same_stream(spec):
        for trial in range(3):
            got = draw_integers(spec, trial)
            want = per_block_draw(spec, trial)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want), (spec, trial)

    @pytest.mark.parametrize("law", STREAM_LAWS.values(), ids=STREAM_LAWS.keys())
    @pytest.mark.parametrize("sizes", STREAM_SIZES)
    def test_block_law_as_B_after_32_bit_A(self, law, sizes):
        self.assert_same_stream(block_spec(
            k=len(sizes), block_sizes=sizes, A_dist=SMALL_SPAN, B_dist=law, master_seed=11,
        ))

    @pytest.mark.parametrize("law", BALANCED_LAWS.values(), ids=BALANCED_LAWS.keys())
    @pytest.mark.parametrize("sizes", STREAM_SIZES)
    def test_block_law_as_A_before_32_bit_B(self, law, sizes):
        self.assert_same_stream(block_spec(
            k=len(sizes), block_sizes=sizes, A_dist=law, B_dist=SMALL_SPAN, master_seed=12,
        ))

    @pytest.mark.parametrize("law", BALANCED_LAWS.values(), ids=BALANCED_LAWS.keys())
    @pytest.mark.parametrize("kind", ["matrix_product", "bidiagonal_embedding"])
    def test_factor_stack(self, law, kind):
        for k, n in ((5, 3), (1, 1), (2, 4)):
            self.assert_same_stream(EnsembleSpec(p=2, kind=kind, k=k, n=n, A_dist=law, master_seed=13))
