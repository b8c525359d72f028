"""The benchmark harness traces library functions by name; a rename or
deletion in the library must fail here, not only when the benchmark runs."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from cokfluct import AbelianPGroup, experiments
from cokfluct.ensembles import EnsembleSpec, EntryDistribution

CHILD = Path(__file__).resolve().parents[1] / "benchmarks" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard-library imports only
    return module


def test_traced_names_resolve():
    for _layer, names in load_child().TRACED:
        for name in names:
            assert callable(getattr(experiments, name, None)), name


def test_precision_accessors_exist():
    assert callable(EnsembleSpec.working_precision)
    # benchmarks/child.py reads precision_used off run_trial's UnsettledTrial
    assert "precision_used" in {f.name for f in dataclasses.fields(experiments.UnsettledTrial)}


@pytest.mark.parametrize("kind", ["block_triangular", "matrix_product", "bidiagonal_embedding"])
def test_traced_run_has_one_draw_and_one_elimination_per_trial(monkeypatch, kind):
    # the per-layer numbers of a traced benchmark run need one run span,
    # one trial span per trial and, inside each, one draw and one
    # elimination span; theory targets are read per run
    child = load_child()
    tracer = child.Tracer()
    for layer, names in child.TRACED:
        for name in names:
            monkeypatch.setattr(experiments, name, getattr(experiments, name))  # undone after the test
            tracer.wrap(experiments, name, layer)
    shape = (
        dict(block_sizes=(3, 3, 3), B_dist=EntryDistribution.uniform_range(-9, 9))
        if kind == "block_triangular" else dict(n=3)
    )
    spec = EnsembleSpec(
        p=2, kind=kind, k=3, A_dist=EntryDistribution.uniform_range(-3, 3), master_seed=5, **shape
    )
    trials = 6
    experiments.run_experiment(spec, trials, [AbelianPGroup(2, (1,))], [(1,)], d=2)

    names = [name for name, *_ in tracer.spans]
    assert names.count("experiments.run") == 1
    assert "theory.targets" in names
    trial_ids = [i for i, name in enumerate(names) if name == "experiments.trial"]
    assert len(trial_ids) == trials
    for layer in ("ensembles.draw", "exact_linalg.eliminate"):
        parents = [parent for name, parent, *_ in tracer.spans if name == layer]
        assert sorted(parents) == trial_ids, layer
