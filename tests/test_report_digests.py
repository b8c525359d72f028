"""Pinned SHA-256 digests of the files `cokfluct simulate` writes.

Each digest covers every file write_report_files writes for one
reproducible run (config.json, report.json and the three CSVs, in name
order), so any change to a trial's outcome, an aggregate, a target or the
file layout shows here.  The runs cover the three ensemble kinds at
p in {2, 3} and d in {1, 3}; the block runs have unequal block sizes and a
nonzero B, and some trials of every kind are singular, so the singularity
certificate runs.  A change meant to alter reports must update these pins
and say why.
"""

import hashlib

import pytest

from cokfluct import AbelianPGroup, run_experiment
from cokfluct.cli import RunConfig, write_report_files
from cokfluct.ensembles import EnsembleSpec, EntryDistribution

TRIALS = 150


def spec(kind: str, p: int) -> EnsembleSpec:
    if kind == "block_triangular":
        return EnsembleSpec(
            p=p, kind=kind, k=4, block_sizes=(3, 5, 2, 4),
            A_dist=EntryDistribution.uniform_range(-9, 9),
            B_dist=EntryDistribution.uniform_range(-5, 5),
            master_seed=20,
        )
    if kind == "matrix_product":
        return EnsembleSpec(p=p, kind=kind, k=6, n=4, A_dist=EntryDistribution.uniform_range(-2, 2), master_seed=21)
    return EnsembleSpec(p=p, kind=kind, k=5, n=3, A_dist=EntryDistribution.uniform_range(-3, 3), master_seed=22)


TARGETS = {  # d -> (group types, lambdas)
    1: ([(1,), (1, 1), (2,)], [(1,), (2,)]),
    3: ([(1,), (2, 1)], [(1,), (2, 1), (1, 1, 1)]),
}

PINS = {
    ("block_triangular", 2, 1): "1ca6fe7545dc0ec9be4fae160d54e649a6daef9205e4eea99354429ca7617460",
    ("block_triangular", 2, 3): "c18a670bc449b68b30871f7e04864299978ee3061cc61a83c81cdedb674885ff",
    ("block_triangular", 3, 1): "79754786b342b99ed0d5c9324b7e0f378e907f67b1a24e64ad8c1785bf0c383d",
    ("block_triangular", 3, 3): "bd8125b644ac4b98302ab3f28fec173eca0df9c1faf609d7707520eceb2056b6",
    ("matrix_product", 2, 1): "e8a25110b4f7101830b5a835f45a8593053116f3ae8d2a3264bc0111375a60a3",
    ("matrix_product", 2, 3): "0f0f79cd7ec78a9caf36b755dd3b9069bcabe93fc81aa7dbdead992d17677c2c",
    ("matrix_product", 3, 1): "a67cf66fb388247c9231549301a5978a060f35300dea574788e16bfebaa06858",
    ("matrix_product", 3, 3): "bf502194aade92aa114e8de75372a000ce642f1239769ac6bfef08cfca8f771e",
    ("bidiagonal_embedding", 2, 1): "f68c6937b6dfcb746247dfaebe189dac5473bc4765af18764ee9ae08f0959e85",
    ("bidiagonal_embedding", 2, 3): "388c30976bcbc232f3dd6cc1fc0583144c046b61df11e62e9d188968a45128e3",
    ("bidiagonal_embedding", 3, 1): "1aab57a1c7473d7005b0cb5c941a14dc202f96614ff5b59c2f129ff0936f5e54",
    ("bidiagonal_embedding", 3, 3): "83a92a57c6b15f60e2d9fc111a4bb96a1c1ddf96912ebcc39f1f2138db49877e",
}


def run_digest(tmp_path, kind: str, p: int, d: int) -> str:
    lams, lambdas = TARGETS[d]
    config = RunConfig(
        ensemble=spec(kind, p),
        trials=TRIALS,
        groups=tuple(AbelianPGroup(p, lam) for lam in lams),
        lambdas=tuple(lambdas),
        d=d,
        reproducible=True,
    )
    report = run_experiment(config.ensemble, config.trials, config.groups, config.lambdas, config.d)
    write_report_files(report, tmp_path, config)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind, p, d", sorted(PINS))
def test_report_bytes_pinned(tmp_path, kind, p, d):
    assert run_digest(tmp_path, kind, p, d) == PINS[kind, p, d]
