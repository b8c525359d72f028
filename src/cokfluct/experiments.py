"""Monte Carlo harness.

Every statistic a report holds depends only on Gamma/p**D Gamma for
Gamma = cok(M) and D = max(d, largest part of any requested group):
Hom(Gamma, G) = Hom(Gamma/p**D Gamma, G) when p**D G = 0, and the ranks of
p**(i-1) Gamma / p**i Gamma for i <= d only see Gamma/p**d Gamma.  So each
trial draws once, reduces mod p**D and runs one elimination, which gives
the type of Gamma/p**D Gamma = cok(M mod p**D), free summands showing as
parts equal to D.  Only the exclusion of singular trials (det M = 0) from
the rank statistics needs more, and an exact certificate settles it.

The certificate runs only for a trial whose type has a part equal to D.
While its draw is at hand, run_trial multiplies the trial's determinant
blocks mod a word-size prime into one screen matrix; trial_records then
settles a chunk of trials with one batched determinant of all their
screens mod that prime, and only a trial whose screen vanishes is redrawn
for the exact check.

Aggregation yields empirical rescaled Hom-moments, moments of the centered
rank vector, and the centered-vector histogram, with bootstrap percentile
confidence intervals (1000 resamples) and theory targets attached.
Everything is a pure function of the spec and its master seed: identical
reports regardless of worker count or trial order.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import ClassVar, Sequence

import numpy as np

from .exact_linalg import (
    PadicMatrix,
    dets_vanish_mod,
    padic_valuations,
    product_mod,
    rational_rank,
    streaming_block_eliminate,
)
from .ensembles import (
    GENERATOR_ID,
    ConfigError,
    EnsembleSpec,
    build_bidiagonal_embedding,
    config_int,
    config_number,
    config_object,
    determinant_blocks,
    product_factors,
    sample_block_matrix,
    sample_product,
)
from .pgroups import AbelianPGroup, LatticeGuardError, as_partition, check_target_order, hom_count, ell
from .theory import (
    FluctuationParams,
    L_moment,
    centered_rank_vector,
    centering,
    limit_rescaled_hom_moment,
)

# Unused here; benchmarks/child.py traces them by name in this module.
from .exact_linalg import cokernel_partition  # noqa: F401
from .ensembles import factor_determinants  # noqa: F401

__all__ = [
    "TrialRecord",
    "UnsettledTrial",
    "MomentEstimate",
    "ExperimentReport",
    "ComparisonSummary",
    "CERTIFICATE_PRIME",
    "WORKERS_ENV_VAR",
    "working_depth",
    "validate_run",
    "worker_budget",
    "run_trial",
    "trial_records",
    "run_experiment",
    "hom_moment_of_trial",
    "compare_ensembles",
    "total_variation",
]

CERTIFICATE_PRIME = 1_000_003  # below 2**26, so dets_vanish_mod computes exactly in float64
WORKERS_ENV_VAR = "COKFLUCT_WORKERS"
BOOTSTRAP_TAG = 0xB007
BOOTSTRAP_RESAMPLES = 1000
SETTLE_CHUNK = 256  # trials settled together: at most this many screens are stacked


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial: the type of Gamma/p**D Gamma (free summands
    show as parts equal to D = precision_used) and whether det M = 0."""

    partition: tuple[int, ...]
    singular: bool
    precision_used: int


@dataclass(frozen=True)
class UnsettledTrial:
    """One trial before its singularity is settled: the type of
    Gamma/p**D Gamma and, when a part equals D = precision_used, the
    certificate's screen, the product of determinant_blocks mod
    CERTIFICATE_PRIME (None otherwise).  It has no `singular` field, so
    only trial_records makes it a TrialRecord."""

    partition: tuple[int, ...]
    precision_used: int
    screen: np.ndarray | None = field(compare=False, repr=False)


@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    ci_low: float
    ci_high: float
    target: float
    count: int


@dataclass(frozen=True)
class ExperimentReport:
    spec: EnsembleSpec
    trials: int
    d: int
    zeta: float
    center: int
    included_count: int        # nonsingular trials
    free_rank_count: int       # singular trials (positive free rank)
    hom_moments: dict[str, MomentEstimate] = field(default_factory=dict)
    l_moments: dict[str, MomentEstimate] = field(default_factory=dict)
    centered_counts: dict[tuple[int, ...], int] = field(default_factory=dict)
    generator: str = GENERATOR_ID
    saturated_count: ClassVar[int] = 0  # every trial is classified; kept in the report schema

    def centered_histogram(self) -> dict[tuple[int, ...], Fraction]:
        """Probability masses; they sum to exactly 1 over recorded trials."""
        total = sum(self.centered_counts.values())
        if total == 0:
            return {}
        return {v: Fraction(c, total) for v, c in self.centered_counts.items()}

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "spec": self.spec.to_dict(),
            "trials": self.trials,
            "d": self.d,
            "zeta": self.zeta,
            "center": self.center,
            "counts": {
                "included": self.included_count,
                "free_rank": self.free_rank_count,
                "saturated": self.saturated_count,
            },
            "generator": self.generator,
            "hom_moments": {k: asdict(v) for k, v in sorted(self.hom_moments.items())},
            "l_moments": {k: asdict(v) for k, v in sorted(self.l_moments.items())},
            "centered_histogram": {
                _vector_label(v): {"count": c, "prob": c / max(1, self.included_count)}
                for v, c in sorted(self.centered_counts.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        counts = config_object(d["counts"], "counts")
        if config_int(counts["saturated"], "counts.saturated") != cls.saturated_count:
            raise ConfigError(f"counts.saturated must be {cls.saturated_count}, got {counts['saturated']}")
        return cls(
            spec=EnsembleSpec.from_dict(d["spec"]),
            trials=config_int(d["trials"], "trials"),
            d=config_int(d["d"], "d"),
            zeta=config_number(d["zeta"], "zeta"),
            center=config_int(d["center"], "center"),
            included_count=config_int(counts["included"], "counts.included"),
            free_rank_count=config_int(counts["free_rank"], "counts.free_rank"),
            hom_moments=_moments_from_dict(d["hom_moments"], "hom_moments"),
            l_moments=_moments_from_dict(d["l_moments"], "l_moments"),
            centered_counts={
                _parse_vector_label(k): config_int(
                    config_object(v, f"centered_histogram.{k}")["count"], f"centered_histogram.{k}.count"
                )
                for k, v in config_object(d["centered_histogram"], "centered_histogram").items()
            },
            generator=d["generator"],
        )


def _moments_from_dict(section, key: str) -> dict[str, MomentEstimate]:
    """A report's moment section, every entry checked: numbers for the mean,
    CI and target, an integer count, and no other key."""
    numbers = ("mean", "ci_low", "ci_high", "target")
    moments = {}
    for name, v in config_object(section, key).items():
        where = f"{key}.{name}"
        if set(config_object(v, where)) != {*numbers, "count"}:
            raise ConfigError(f"{where} must have exactly the keys {', '.join(numbers)}, count")
        moments[name] = MomentEstimate(
            *(config_number(v[f], f"{where}.{f}") for f in numbers), config_int(v["count"], f"{where}.count")
        )
    return moments


def _vector_label(v: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, v)) + ")"


def _parse_vector_label(s: str) -> tuple[int, ...]:
    body = s.strip("()")
    return tuple(int(x) for x in body.split(",")) if body else ()


# ---------------------------------------------------------------------------
# Single trials
# ---------------------------------------------------------------------------

def working_depth(d: int, G_list: Sequence[AbelianPGroup]) -> int:
    """D = max(d, largest part of every requested group): the p-adic depth
    that determines every reported statistic."""
    return max([d] + [max(G.lam, default=0) for G in G_list])


def run_trial(spec: EnsembleSpec, trial: int, depth: int) -> UnsettledTrial:
    """Draw the trial once mod p**depth and eliminate it once.

    A part equal to depth is a part >= depth or a free summand of Gamma;
    only then is singularity in question, and the trial's screen is
    computed from the same cached draw for trial_records to settle."""
    if spec.kind == "block_triangular":
        m = sample_block_matrix(spec, trial, depth)
        partition = streaming_block_eliminate(m, spec.block_sizes)
    elif spec.kind == "matrix_product":
        partition = padic_valuations(sample_product(spec, trial, depth))
    else:
        m = PadicMatrix(build_bidiagonal_embedding(product_factors(spec, trial, depth)), spec.p, depth)
        partition = streaming_block_eliminate(m, (spec.n,) * spec.k)
    screen = None
    if partition[:1] == (depth,):
        screen = product_mod(determinant_blocks(spec, trial), CERTIFICATE_PRIME, CERTIFICATE_PRIME)
    return UnsettledTrial(partition, depth, screen)


def trial_records(spec: EnsembleSpec, trials: Sequence[int], depth: int) -> list[TrialRecord]:
    """One settled TrialRecord per trial of a chunk, in order.

    run_trial runs once per trial; then one batched elimination takes the
    determinant of every screen mod CERTIFICATE_PRIME.  det M is the
    product of the determinants of determinant_blocks and GF(prime) is a
    field, so a nonzero screen determinant makes the trial nonsingular.  A
    trial whose screen vanishes redraws its blocks, takes each block's
    determinant mod the prime in one batched elimination, and checks exact
    rational rank, in block order, of each block whose determinant vanishes
    there, up to the first singular one."""
    unsettled = [run_trial(spec, t, depth) for t in trials]
    screened = [i for i, u in enumerate(unsettled) if u.screen is not None]
    vanishing = np.zeros(len(unsettled), dtype=bool)
    if screened:
        stack = np.stack([unsettled[i].screen for i in screened])
        vanishing[screened] = dets_vanish_mod(stack, CERTIFICATE_PRIME)
    records = []
    for t, u, vanishes in zip(trials, unsettled, vanishing):
        singular = False
        if vanishes:
            blocks = determinant_blocks(spec, t)
            singular = any(
                rational_rank(blocks[b]) < blocks.shape[1]
                for b in np.flatnonzero(dets_vanish_mod(blocks, CERTIFICATE_PRIME))
            )
        records.append(TrialRecord(u.partition, singular, u.precision_used))
    return records


def worker_budget(workers: int) -> int:
    """`workers` capped by the COKFLUCT_WORKERS environment variable, which
    must be a positive integer when set."""
    env_cap = os.environ.get(WORKERS_ENV_VAR)
    if not env_cap:
        return workers
    try:
        cap = int(env_cap)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"{WORKERS_ENV_VAR} must be a positive integer, got {env_cap!r}")
    return min(workers, cap)


def _collect_records(spec: EnsembleSpec, trials: int, depth: int, workers: int) -> list[TrialRecord]:
    """One settled TrialRecord per trial, in trial order: the trials are cut
    into consecutive chunks, trial_records settles each chunk, and pool.map
    returns the chunks in input order.  A serial run uses chunks of
    SETTLE_CHUNK trials; a pool run uses about eight chunks per worker, at
    most SETTLE_CHUNK trials each.  Every trial's outcome is exact, so the
    chunking does not change any record.  run_trial is looked up per call,
    so a wrapper installed in this module's namespace (benchmarks/child.py)
    wraps every trial of a serial run.  At most one process per trial and
    per usable CPU starts."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(worker_budget(workers), trials, cpus)
    size = SETTLE_CHUNK if workers <= 1 else min(SETTLE_CHUNK, max(1, trials // (workers * 8)))
    chunks = [range(start, min(start + size, trials)) for start in range(0, trials, size)]
    settle = functools.partial(trial_records, spec, depth=depth)
    if workers <= 1:
        return [r for chunk in chunks for r in settle(chunk)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [r for records in pool.map(settle, chunks) for r in records]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def hom_moment_of_trial(partition: Sequence[int], free_rank: int, G: AbelianPGroup) -> int:
    """|Hom(Gamma (+) Z**free_rank, G)| for a trial of type `partition`."""
    return hom_count(as_partition(partition), G.lam, G.p) * G.order ** free_rank


def validate_run(
    p: int,
    G_list: Sequence[AbelianPGroup],
    lam_list: Sequence[Sequence[int]],
    d: int,
    zeta: float,
) -> None:
    """Raise ConfigError unless d >= 1, zeta lies in [0, 1), every group is
    a p-group, every lambda has at most d parts, and every target's group
    (G, or the group of type lambda' and order p**|lambda|) is within the
    order bound of pgroups.chain_count."""
    try:
        FluctuationParams(p, zeta, d)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    targets = []  # (what, e) for a target group of order p**e
    for G in G_list:
        if G.p != p:
            raise ConfigError(f"group {G.label()} is not a {p}-group")
        targets.append((f"group {G.label()}", ell(G)))
    for lam in lam_list:
        if len(lam) > d:
            raise ConfigError(f"lambda {tuple(lam)} has more than d={d} parts")
        targets.append((f"lambda {tuple(lam)}", sum(lam)))
    for what, e in targets:
        try:
            check_target_order(p, e)
        except LatticeGuardError as exc:
            raise ConfigError(f"{what}: {exc}") from None


def _bootstrap_ci(values: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    n = len(values)
    means = np.empty(BOOTSTRAP_RESAMPLES)
    chunk = max(1, 10 ** 7 // n)  # bound the index-matrix footprint
    done = 0
    while done < BOOTSTRAP_RESAMPLES:
        m = min(chunk, BOOTSTRAP_RESAMPLES - done)
        idx = rng.integers(0, n, size=(m, n))
        means[done:done + m] = values[idx].mean(axis=1)
        done += m
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def _estimate(values: list[Fraction], target, rng: np.random.Generator) -> MomentEstimate:
    """Exact mean of `values` with a bootstrap percentile CI of their float
    images; NaNs, and no draw from rng, when there are no values."""
    if not values:
        return MomentEstimate(float("nan"), float("nan"), float("nan"), float(target), 0)
    lo, hi = _bootstrap_ci(np.array([float(x) for x in values]), rng)
    return MomentEstimate(float(sum(values) / len(values)), lo, hi, float(target), len(values))


def run_experiment(
    spec: EnsembleSpec,
    trials: int,
    G_list: Sequence[AbelianPGroup] = (),
    lam_list: Sequence[Sequence[int]] = (),
    d: int = 3,
    *,
    zeta: float = 0.0,
    workers: int = 1,
) -> ExperimentReport:
    """Run `trials` trials of the ensemble and aggregate.

    Per group G: the mean of |Hom(cok, G)| / k**ell(G) over all trials
    (a free summand counts |G|, as Z/p**D does).  Per lambda: the mean of
    p**<centered rank vector, lambda> over nonsingular trials.  Bootstrap
    percentile CIs (1000 resamples of the values in trial order, seeded
    from the master seed; groups first, then lambdas) keep the report a
    pure function of the configuration.
    """
    lam_list = [as_partition(lam) for lam in lam_list]
    validate_run(spec.p, G_list, lam_list, d, zeta)
    params = FluctuationParams(spec.p, zeta, d)

    records = _collect_records(spec, trials, working_depth(d, G_list), workers)
    finite = [r for r in records if not r.singular]
    center = centering(spec.k, params)
    vectors = [centered_rank_vector(r.partition, spec.k, params) for r in finite]

    rng = np.random.default_rng(np.random.SeedSequence([spec.master_seed, BOOTSTRAP_TAG]))
    hom_moments = {
        G.label(): _estimate(
            [Fraction(hom_moment_of_trial(r.partition, 0, G), spec.k ** ell(G)) for r in records],
            limit_rescaled_hom_moment(G),
            rng,
        )
        for G in G_list
    }
    l_moments = {
        _vector_label(lam): _estimate(
            [Fraction(spec.p) ** sum(c * l for c, l in zip(vec, lam)) for vec in vectors],
            L_moment(lam, params).value,
            rng,
        )
        for lam in lam_list
    }

    return ExperimentReport(
        spec=spec,
        trials=trials,
        d=d,
        zeta=zeta,
        center=center,
        included_count=len(finite),
        free_rank_count=len(records) - len(finite),
        hom_moments=hom_moments,
        l_moments=l_moments,
        centered_counts=dict(Counter(vectors)),
    )


# ---------------------------------------------------------------------------
# Cross-ensemble comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonSummary:
    tv_distance: float
    moment_gaps: dict[str, float]
    support_size: int

    def to_dict(self) -> dict:
        return {
            "tv_distance": self.tv_distance,
            "moment_gaps": dict(sorted(self.moment_gaps.items())),
            "support_size": self.support_size,
        }


def total_variation(counts_a: dict, counts_b: dict) -> Fraction:
    """TV distance between two empirical pmfs given as count dicts."""
    ta, tb = sum(counts_a.values()), sum(counts_b.values())
    support = set(counts_a) | set(counts_b)
    if ta == 0 or tb == 0:
        return Fraction(1) if support else Fraction(0)
    acc = Fraction(0)
    for v in support:
        acc += abs(Fraction(counts_a.get(v, 0), ta) - Fraction(counts_b.get(v, 0), tb))
    return acc / 2


def compare_ensembles(report_a: ExperimentReport, report_b: ExperimentReport) -> ComparisonSummary:
    """TV distance between centered-vector pmfs plus per-lambda moment gaps;
    no pass/fail judgment here."""
    if report_a.spec.p != report_b.spec.p:
        raise ValueError("reports disagree on p")
    if report_a.d != report_b.d:
        raise ValueError("reports disagree on d")
    if report_a.zeta != report_b.zeta:
        raise ValueError("reports disagree on zeta")
    tv = total_variation(report_a.centered_counts, report_b.centered_counts)
    gaps = {
        key: abs(report_a.l_moments[key].mean - report_b.l_moments[key].mean)
        for key in report_a.l_moments
        if key in report_b.l_moments
    }
    support = set(report_a.centered_counts) | set(report_b.centered_counts)
    return ComparisonSummary(float(tv), gaps, len(support))
