"""cokfluct benchmark: end-to-end trials/s on three ensemble workloads, and a
traced run for per-layer numbers.

    python3 benchmarks/run.py --workload block_k16 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each experiment runs in a fresh process
(benchmarks/child.py) with workers=1 and one BLAS thread, the way
`cokfluct simulate --reproducible` runs it.  Experiments are repeated while
the next is expected to end within `--seconds`; experiment i uses master seed `seed + i * 2**32`, so
the seed fixes every input.  The host's speed is measured around every
experiment (`host_speed`), and the timed metrics are adjusted to the
reference host's speed.  Every run first re-runs a small golden
experiment whose report.json SHA-256 is pinned in benchmarks/pinned.json,
then checks every report it writes (pinned digest where one exists, and the
report's internal counts).  `--trace 1` alternates untraced and traced
experiments on the same master seeds; their reports must be byte-identical.

Output: a table of every metric by name and unit, a provenance line, and as
the last line one JSON object {correct, attempted, failed, metrics}; the
metrics are the end-to-end ones with --trace 0 and the per-layer ones with
--trace 1.  The exit code is 1 when the correctness gate fails and 2 when the
benchmark cannot run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_PATH = HERE / "pinned.json"
RUNS_DIR = Path(".bench_runs")
SEED_STRIDE = 2 ** 32
MIN_EXPERIMENTS = 3       # per mode, so every median has at least three samples
PIN_EXPERIMENTS = 12      # default-seed experiments whose digests are pinned
HARD_STOP_S = 150.0       # start no experiment after this; the run must end < 180 s
REF_KERNEL_S = 0.0257     # one pass of host_speed's kernel on the reference host (README)
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Moment request shared by every workload: it makes aggregation,
# pgroups.hom_count and the theory targets do real work.
REQUEST = {
    "groups": [{"p": 2, "lambda": [1]}, {"p": 2, "lambda": [2]}, {"p": 2, "lambda": [1, 1]}],
    "lambdas": [[1], [1, 1], [1, 1, 1]],
    "d": 3,
    "zeta": 0.0,
}

# `trials` is one experiment (3-4 s on a 2-vCPU Intel Xeon before any
# optimisation); `golden_trials` is the pinned correctness experiment.
WORKLOADS = {
    "block_k16": {
        "ensemble": {
            "p": 2, "kind": "block_triangular", "k": 16, "block_sizes": [12] * 16,
            "A_dist": {"kind": "uniform_range", "low": -100, "high": 100},
            "B_dist": {"kind": "uniform_range", "low": -100, "high": 100},
        },
        "seed": 20260810, "trials": 120, "golden_trials": 40,
    },
    "product_k64": {
        "ensemble": {"p": 2, "kind": "matrix_product", "k": 64, "n": 20,
                     "A_dist": {"kind": "uniform_mod", "m": 2}},
        "seed": 20260812, "trials": 120, "golden_trials": 40,
    },
    "embedding_k16": {
        "ensemble": {"p": 2, "kind": "bidiagonal_embedding", "k": 16, "n": 24,
                     "A_dist": {"kind": "uniform_mod", "m": 2}},
        "seed": 20260811, "trials": 40, "golden_trials": 16,
    },
}

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
PER_LAYER_UNITS = {
    "ensembles.draw_ms": "ms/trial",
    "ensembles.embed_ms": "ms/trial",
    "ensembles.draws_per_trial": "count/trial",
    "exact_linalg.eliminate_ms": "ms/trial",
    "exact_linalg.eliminations_per_trial": "count/trial",
    "exact_linalg.exact_ms": "ms/trial",
    "exact_linalg.exact_calls": "count/trial",
    "experiments.trial_ms_p50": "ms",
    "experiments.trial_ms_p99": "ms",
    "experiments.useful_elim_ratio": "ratio",
    "experiments.escalated_trials": "count/run",
    "experiments.cap_route_trials": "count/run",
    "experiments.aggregate_ms": "ms/run",
    "pgroups.hom_count_ms": "ms/trial",
    "pgroups.hom_count_calls": "count/trial",
    "theory.targets_ms": "ms/run",
    "cli.config_ms": "ms/run",
    "cli.write_ms": "ms/run",
    "cli.report_bytes": "bytes",
    "trace_overhead_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, crashed experiment)."""


def run_config(workload: str, master_seed: int, trials: int, out_dir: Path, workers: int = 1) -> dict:
    w = WORKLOADS[workload]
    return {
        "schema_version": 1,
        "ensemble": {**w["ensemble"], "master_seed": master_seed, "precision": None},
        "trials": trials,
        **REQUEST,
        "workers": workers,
        "output_dir": str(out_dir),
        "reproducible": True,
    }


def run_child(config: dict, trace: bool = False, spans_path: Path | None = None,
              timeout: float = 170.0) -> dict:
    """Run one experiment in a fresh process; returns its timings, report
    bytes and SHA-256 digest."""
    job = {"src": str(Path("src").resolve()), "config": config, "trace": trace,
           "spans_path": str(spans_path) if spans_path else None}
    env = {**os.environ, **CHILD_ENV}
    t_spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(job)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t_spawn
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"experiment exceeded {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"experiment failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    report = (Path(config["output_dir"]) / "report.json").read_bytes()
    result.update(
        saturated=json.loads(report)["counts"]["saturated"],
        setup_s=setup_s,
        trials=config["trials"],
        master_seed=config["ensemble"]["master_seed"],
        rate=config["trials"] / ((result["run_ns"] + result["write_ns"]) / 1e9),
        report=report,
        digest=hashlib.sha256(report).hexdigest(),
    )
    return result


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text()) if PINNED_PATH.exists() else {}


def pin_key(master_seed: int, trials: int) -> str:
    return f"{master_seed}:{trials}"


def check_report(res: dict, workload: str, pinned: dict, reference: dict | None) -> list[str]:
    """Problems with one experiment's report.json: digest against the pin,
    internal counts, and the seed-independent fields against the golden
    report."""
    problems = []
    key = pin_key(res["master_seed"], res["trials"])
    want = pinned.get(workload, {}).get(key)
    if want is not None and want != res["digest"]:
        problems.append(f"{key}: report.json digest {res['digest'][:16]} != pinned {want[:16]}")
    rep = json.loads(res["report"])
    c = rep["counts"]
    if rep["trials"] != res["trials"] or rep["spec"]["master_seed"] != res["master_seed"]:
        problems.append(f"{key}: report echoes the wrong trials or seed")
    if c["included"] + c["free_rank"] + c["saturated"] != res["trials"]:
        problems.append(f"{key}: counts do not sum to trials")
    if sum(v["count"] for v in rep["centered_histogram"].values()) != c["included"]:
        problems.append(f"{key}: histogram counts do not sum to included trials")
    if any(m["count"] != c["included"] + c["free_rank"] for m in rep["hom_moments"].values()):
        problems.append(f"{key}: a Hom-moment count differs from the resolved trials")
    if any(m["count"] != c["included"] for m in rep["l_moments"].values()):
        problems.append(f"{key}: an L-moment count differs from the included trials")
    if reference is not None:
        def targets(r):
            return (r["center"], r["generator"],
                    {k: v["target"] for k, v in r["hom_moments"].items()},
                    {k: v["target"] for k, v in r["l_moments"].items()})
        if targets(rep) != targets(json.loads(reference["report"])):
            problems.append(f"{key}: theory targets or centering differ from the golden report")
    return problems


def host_speed() -> float:
    """The host's speed now, relative to the reference host (1.0 = as fast).

    The median of five passes of a fixed kernel doing the kinds of work
    the library does (interpreted integer loops, big-integer modular
    products, small int64 and object-dtype numpy arrays), timed in this
    process between experiments.  On a shared host the processor's speed drifts by tens of percent over
    minutes; dividing each experiment's rate by the mean speed measured just
    before and after it takes most of that drift out.
    """
    import numpy as np

    a = np.arange(400, dtype=np.int64).reshape(20, 20) % 7
    x, m, s = 3 ** 2000, (1 << 4096) - 159, 0
    passes = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(100):
            b = (a @ a) % 1024
            x = (x * x) % m
            o = b.astype(object)
            o = o * o
            for j in range(2000):
                s += j * j
        passes.append(time.perf_counter() - t0)
    return REF_KERNEL_S / statistics.median(passes)


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def layer_totals(spans: list) -> dict:
    """Per span name: call count, total and self time (ns).  Self time is
    the duration minus the time covered by direct child spans."""
    child_ns = [0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out = {}
    for i, (name, _parent, t0, t1) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        agg["calls"] += 1
        agg["total_ns"] += t1 - t0
        agg["self_ns"] += t1 - t0 - child_ns[i]
    return out


def cap_route_count(spans: list) -> int:
    """Trials whose run_trial span contains an exact-route call."""
    return len({parent for name, parent, _t0, _t1 in spans
                if name == "exact_linalg.exact" and parent >= 0
                and spans[parent][0] == "experiments.trial"})


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    trials = sum(t["trials"] for t in traced)
    totals: dict = {}
    per_run = {"aggregate": [], "targets": [], "config": [], "write": [], "escalated": [], "cap": []}
    trial_ms = []
    for t in traced:
        spans = t["spans"]
        lt = layer_totals(spans)
        for name, agg in lt.items():
            acc = totals.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for k in acc:
                acc[k] += agg[k]
        trial_ms += [(t1 - t0) / 1e6 for name, _p, t0, t1 in spans if name == "experiments.trial"]
        per_run["aggregate"].append(
            (lt["experiments.run"]["total_ns"] - lt["experiments.trial"]["total_ns"]) / 1e6)
        per_run["targets"].append(lt["theory.targets"]["total_ns"] / 1e6)
        per_run["config"].append(lt["cli.config"]["total_ns"] / 1e6)
        per_run["write"].append(lt["cli.write"]["total_ns"] / 1e6)
        per_run["escalated"].append(t["escalated_trials"])
        per_run["cap"].append(cap_route_count(spans))

    def self_ms(name):
        return totals.get(name, {}).get("self_ns", 0) / 1e6 / trials

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    elims = calls("exact_linalg.eliminate")
    q = statistics.quantiles(trial_ms, n=100) if len(trial_ms) > 1 else trial_ms * 99
    untraced_rate = statistics.median(u["rate"] / u["speed"] for u in untraced)
    traced_rate = statistics.median(t["rate"] / t["speed"] for t in traced)
    return {
        "ensembles.draw_ms": self_ms("ensembles.draw"),
        "ensembles.embed_ms": self_ms("ensembles.embed"),
        "ensembles.draws_per_trial": calls("ensembles.draw") / trials,
        "exact_linalg.eliminate_ms": self_ms("exact_linalg.eliminate"),
        "exact_linalg.eliminations_per_trial": elims / trials,
        "exact_linalg.exact_ms": self_ms("exact_linalg.exact"),
        "exact_linalg.exact_calls": calls("exact_linalg.exact") / trials,
        "experiments.trial_ms_p50": statistics.median(trial_ms),
        "experiments.trial_ms_p99": q[98],
        "experiments.useful_elim_ratio": trials / elims,
        "experiments.escalated_trials": statistics.mean(per_run["escalated"]),
        "experiments.cap_route_trials": statistics.mean(per_run["cap"]),
        "experiments.aggregate_ms": statistics.median(per_run["aggregate"]),
        "pgroups.hom_count_ms": self_ms("pgroups.hom_count"),
        "pgroups.hom_count_calls": calls("pgroups.hom_count") / trials,
        "theory.targets_ms": statistics.median(per_run["targets"]),
        "cli.config_ms": statistics.median(per_run["config"]),
        "cli.write_ms": statistics.median(per_run["write"]),
        "cli.report_bytes": statistics.median(len(t["report"]) for t in traced),
        "trace_overhead_frac": 1.0 - traced_rate / untraced_rate,
    }


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git(*args):
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int, runtime: dict) -> dict:
    """Host, library versions (as the experiment process saw them), git
    revision and seed."""
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = _git("rev-parse", "HEAD") if Path(".git").exists() else None
    dirty = None if rev is None else bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **runtime,
            "processes": 1, "git_rev": rev, "git_dirty": dirty, "seed": seed}


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[workload]
    run_dir = RUNS_DIR / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    pinned = load_pinned()
    problems = []
    started = time.perf_counter()

    # Golden experiment first: untimed, pinned, and it warms the bytecode cache.
    golden_key = pin_key(w["seed"], w["golden_trials"])
    golden = run_child(run_config(workload, w["seed"], w["golden_trials"], run_dir / "golden"))
    if golden_key not in pinned.get(workload, {}):
        problems.append(f"no pinned digest for the golden experiment {workload} {golden_key}")
    problems += check_report(golden, workload, pinned, None)

    speed = host_speed()

    def timed(config, **kwargs):
        """run_child, with the host's speed measured before and after."""
        nonlocal speed
        before = speed
        res = run_child(config, **kwargs)
        speed = host_speed()
        res["speed"] = (before + speed) / 2
        return res

    untraced, traced = [], []
    i = 0
    cycle_s = 0.0  # duration of the last experiment (pair, when traced)
    while i < MIN_EXPERIMENTS or time.perf_counter() - started + cycle_s < seconds:
        if time.perf_counter() - started > HARD_STOP_S:
            break
        cycle_start = time.perf_counter()
        master = seed + i * SEED_STRIDE
        res = timed(run_config(workload, master, w["trials"], run_dir / f"e{i}"))
        res["problems"] = check_report(res, workload, pinned, golden)
        untraced.append(res)
        if trace:
            spans_path = run_dir / f"e{i}-spans.json"
            tres = timed(run_config(workload, master, w["trials"], run_dir / f"e{i}-traced"),
                         trace=True, spans_path=spans_path)
            tres.update(json.loads(spans_path.read_text()))
            tres["problems"] = check_report(tres, workload, pinned, golden)
            if tres["digest"] != res["digest"]:
                tres["problems"].append(f"{master}: traced report.json differs from untraced")
            traced.append(tres)
        i += 1
        cycle_s = time.perf_counter() - cycle_start

    # A saturated trial fails; an experiment whose report fails a check fails
    # all of its trials.
    done = untraced + traced
    problems += [p for r in done for p in r["problems"]]
    attempted = sum(r["trials"] for r in done)
    failed = sum(r["trials"] if r["problems"] else r["saturated"] for r in done)
    e2e = {
        "trials_per_s": statistics.median(r["rate"] / r["speed"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] * r["speed"] for r in untraced),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in untraced) / 1024,
        "ok_frac": 1.0 - failed / attempted,
    }
    layers = per_layer_metrics(traced, untraced) if trace else {}
    out = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "experiments": len(untraced),
        "trials_per_experiment": w["trials"],
        "elapsed_s": time.perf_counter() - started,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": layers,
        "unadjusted": {
            "host_speed": statistics.median(r["speed"] for r in untraced),
            "trials_per_s": statistics.median(r["rate"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
        },
        "golden_digest": golden["digest"],
        "provenance": provenance(seed, golden["runtime"]),
        "runs": [{k: r[k] for k in ("master_seed", "trials", "rate", "setup_s", "speed", "maxrss_kb", "digest")}
                 | {"traced": "spans" in r} for r in done],
    }
    (run_dir / "result.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return out


def print_table(out: dict) -> None:
    print(f"# {out['workload']} seed={out['seed']} trace={int(out['trace'])}: "
          f"{out['experiments']} experiments x {out['trials_per_experiment']} trials, "
          f"{out['elapsed_s']:.1f} s")
    print(f"  failed_frac = {out['failed'] / out['attempted']:.6g}  "
          f"({out['failed']} of {out['attempted']} trials)")
    for name, value in out["end_to_end"].items():
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    for name, value in out["per_layer"].items():
        print(f"  {name} = {value:.6g} {PER_LAYER_UNITS[name]}")
    u = out["unadjusted"]
    print(f"  unadjusted: host_speed = {u['host_speed']:.4g}, trials_per_s = "
          f"{u['trials_per_s']:.6g} 1/s, setup_s = {u['setup_s']:.6g} s")
    for p in out["problems"]:
        print(f"  CHECK FAILED: {p}")
    print("provenance: " + json.dumps(out["provenance"], sort_keys=True))


def pin(workload: str) -> None:
    """Recompute and write the pinned digests of the workload's golden and
    default-seed experiments."""
    w = WORKLOADS[workload]
    run_dir = RUNS_DIR / f"pin-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    jobs = [(w["seed"], w["golden_trials"])]
    jobs += [(w["seed"] + i * SEED_STRIDE, w["trials"]) for i in range(PIN_EXPERIMENTS)]
    table = {}
    for j, (master, trials) in enumerate(jobs):
        res = run_child(run_config(workload, master, trials, run_dir / f"p{j}"))
        table[pin_key(master, trials)] = res["digest"]
        print(f"{workload} {pin_key(master, trials)} {res['digest']}", flush=True)
    pinned = load_pinned()
    pinned[workload] = table
    PINNED_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="default: the workload's seed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="rewrite benchmarks/pinned.json for --workload")
    args = ap.parse_args(argv)
    if not Path("src/cokfluct/__init__.py").is_file():
        print("benchmark: src/cokfluct not found; run from the root of a cokfluct checkout",
              file=sys.stderr)
        return 2
    try:
        if args.pin:
            pin(args.workload)
            return 0
        seed = WORKLOADS[args.workload]["seed"] if args.seed is None else args.seed
        out = run(args.workload, seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print_table(out)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    values = out["per_layer"] if args.trace else out["end_to_end"]
    print(json.dumps({
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if not out["problems"] else 1


if __name__ == "__main__":
    # On SIGTERM, unwind so run_child kills and reaps the running experiment.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
