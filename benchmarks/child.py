"""One benchmark experiment in a fresh process.

Takes a job (JSON) as its only argument, imports cokfluct from the checkout's `src`,
parses and validates the run configuration, prints `READY` (the parent times
process start to this line as set-up), then runs
`cokfluct.experiments.run_experiment` and `cokfluct.cli.write_report_files`
exactly as `cokfluct simulate` does, and prints one JSON result line.

With `"trace": true` the public functions are wrapped where the calling
module looks them up (`cokfluct.experiments.<name>`), so the library itself
is unchanged; spans stay in memory and are written to `spans_path` at exit.
Only standard-library modules are imported before cokfluct, so set-up time
is the package's own.
"""

import json
import resource
import sys
import time
from pathlib import Path

# (layer span name, functions wrapped in cokfluct.experiments)
TRACED = (
    ("ensembles.draw", ("sample_block_matrix", "sample_product", "product_factors")),
    ("ensembles.embed", ("build_bidiagonal_embedding",)),
    ("exact_linalg.eliminate", ("streaming_block_eliminate", "padic_valuations")),
    ("exact_linalg.exact", ("cokernel_partition", "rational_rank", "factor_determinants")),
    ("experiments.trial", ("run_trial",)),
    ("experiments.run", ("run_experiment",)),
    ("pgroups.hom_count", ("hom_count",)),
    ("theory.targets", ("limit_rescaled_hom_moment", "L_moment", "centering")),
)


class Tracer:
    """In-memory spans: (name, parent index or -1, start ns, end ns)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.precision_used = []

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][3] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, module, attr, name):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if name == "experiments.trial":
                self.precision_used.append(out.precision_used)
            return out

        setattr(module, attr, traced)

    def span(self, name, fn, *args):
        sid = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(sid)


def _blas_threads():
    import ctypes

    import numpy as np

    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def runtime() -> dict:
    """Versions and BLAS threads this process runs with (read after timing)."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import cokfluct
    from cokfluct import cli, experiments

    if Path(cokfluct.__file__).resolve().parent != src / "cokfluct":
        raise SystemExit(f"cokfluct imported from {cokfluct.__file__}, not from {src}")

    tracer = Tracer() if job["trace"] else None
    if tracer:
        for name, attrs in TRACED:
            for attr in attrs:
                tracer.wrap(experiments, attr, name)
    call = tracer.span if tracer else (lambda _name, fn, *args: fn(*args))

    t0 = time.perf_counter_ns()
    config = call("cli.config", cli.RunConfig.from_dict, job["config"])
    print("READY", flush=True)

    t_run = time.perf_counter_ns()
    report = experiments.run_experiment(
        config.ensemble,
        config.trials,
        config.groups,
        config.lambdas,
        config.d,
        zeta=config.zeta,
        workers=config.workers,
    )
    t_write = time.perf_counter_ns()
    call("cli.write", cli.write_report_files, report, Path(config.output_dir), config)
    t_end = time.perf_counter_ns()

    result = {
        "run_ns": t_write - t_run,
        "write_ns": t_end - t_write,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "runtime": runtime(),
    }
    if tracer:
        working = config.ensemble.working_precision()
        payload = {
            "trials": config.trials,
            "wall_ns": t_end - t0,
            "escalated_trials": sum(1 for pu in tracer.precision_used if pu > working),
            "spans": tracer.spans,
        }
        Path(job["spans_path"]).write_text(json.dumps(payload))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
