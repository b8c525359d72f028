"""Self-tests of the benchmark harness (not part of the library's suite).

    python3 -m pytest benchmarks -q        # from the repository root
"""

import json
from pathlib import Path

import pytest

import run as bench

REPO = Path(__file__).resolve().parent.parent
SMALL_TRIALS = {"block_k16": 12, "product_k64": 12, "embedding_k16": 4}


@pytest.fixture(autouse=True)
def at_repo_root(monkeypatch):
    monkeypatch.chdir(REPO)


def _experiment(workload, trials, name, trace=False, workers=1):
    out = bench.RUNS_DIR / "selftest" / f"{workload}-{name}"
    config = bench.run_config(workload, bench.WORKLOADS[workload]["seed"], trials, out, workers)
    spans_path = out.with_suffix(".spans.json") if trace else None
    if spans_path:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
    res = bench.run_child(config, trace=trace, spans_path=spans_path)
    res["speed"] = 1.0  # no host-speed adjustment here
    if trace:
        res.update(json.loads(spans_path.read_text()))
    return res


@pytest.fixture(scope="module", params=sorted(SMALL_TRIALS))
def traced_pair(request):
    mp = pytest.MonkeyPatch()
    mp.chdir(REPO)
    workload = request.param
    trials = SMALL_TRIALS[workload]
    pair = (workload,
            _experiment(workload, trials, "plain"),
            _experiment(workload, trials, "traced", trace=True))
    mp.undo()
    return pair


def test_run_trial_calls_equal_trials(traced_pair):
    _, _, traced = traced_pair
    totals = bench.layer_totals(traced["spans"])
    assert totals["experiments.trial"]["calls"] == traced["trials"]
    assert totals["experiments.run"]["calls"] == 1


def test_draws_equal_eliminations(traced_pair):
    # The precision ladder redraws the trial from its seed before every
    # elimination, including each escalation.
    _, _, traced = traced_pair
    totals = bench.layer_totals(traced["spans"])
    assert totals["ensembles.draw"]["calls"] == totals["exact_linalg.eliminate"]["calls"]
    assert totals["ensembles.draw"]["calls"] >= traced["trials"]


def test_self_times_within_wall(traced_pair):
    _, _, traced = traced_pair
    totals = bench.layer_totals(traced["spans"])
    assert all(t["self_ns"] >= 0 for t in totals.values())
    assert sum(t["self_ns"] for t in totals.values()) <= traced["wall_ns"]


def test_tracing_leaves_report_bytes_unchanged(traced_pair):
    _, plain, traced = traced_pair
    assert traced["digest"] == plain["digest"]


def test_per_layer_metrics_complete(traced_pair):
    _, plain, traced = traced_pair
    metrics = bench.per_layer_metrics([traced], [plain])
    assert set(metrics) == set(bench.PER_LAYER_UNITS)
    assert metrics["exact_linalg.eliminations_per_trial"] == metrics["ensembles.draws_per_trial"]


def test_worker_budget_does_not_change_report():
    one = _experiment("block_k16", 8, "w1", workers=1)
    two = _experiment("block_k16", 8, "w2", workers=2)
    assert one["digest"] == two["digest"]


def test_gate_fails_on_digest_mismatch(monkeypatch, tmp_path, capsys):
    w = bench.WORKLOADS["block_k16"]
    monkeypatch.setitem(w, "trials", 4)
    monkeypatch.setitem(w, "golden_trials", 4)
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({"block_k16": {bench.pin_key(w["seed"], 4): "0" * 64}}))
    monkeypatch.setattr(bench, "PINNED_PATH", pinned)
    assert bench.main(["--workload", "block_k16", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--workload", "block_k16", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
