"""The benchmark harness traces library functions by name; a rename or
deletion in the library must fail here, not only when the benchmark runs."""

import dataclasses
import importlib.util
from pathlib import Path

from cokfluct import experiments
from cokfluct.ensembles import EnsembleSpec

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
    fields = {f.name for f in dataclasses.fields(experiments.TrialRecord)}
    assert "precision_used" in fields
