"""Command-line front end.

Commands: simulate (run an ensemble experiment, write JSON + CSV reports),
verify (exact check suites), theory (closed-form target tables), compare
(two reports -> total-variation summary).  Exit codes: 0 success, 1 runtime
failure, 2 configuration error.  COKFLUCT_WORKERS, a positive integer, caps
worker parallelism.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import click

from .ensembles import ConfigError, EnsembleSpec, config_int, config_number, config_object
from .experiments import (
    ExperimentReport,
    compare_ensembles,
    run_experiment,
    validate_run,
    worker_budget,
)
from .oracles import SUITES
from .pgroups import AbelianPGroup, as_partition, chain_count, ell
from .theory import FluctuationParams, L_moment, limit_rescaled_hom_moment

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """simulate-command payload; round-trips losslessly through JSON."""

    ensemble: EnsembleSpec
    trials: int
    groups: tuple[AbelianPGroup, ...] = ()
    lambdas: tuple[tuple[int, ...], ...] = ()
    d: int = 3
    zeta: float = 0.0
    workers: int = 1
    output_dir: str = "run"
    reproducible: bool = False

    def __post_init__(self):
        if config_int(self.workers, "workers") < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        if not isinstance(self.reproducible, bool):
            raise ConfigError(f"reproducible must be true or false, got {self.reproducible!r}")
        validate_run(self.ensemble.p, self.trials, self.groups, self.lambdas, self.d, self.zeta)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "ensemble": self.ensemble.to_dict(),
            "trials": self.trials,
            "groups": [{"p": G.p, "lambda": list(G.lam)} for G in self.groups],
            "lambdas": [list(lam) for lam in self.lambdas],
            "d": self.d,
            "zeta": self.zeta,
            "workers": self.workers,
            "output_dir": self.output_dir,
            "reproducible": self.reproducible,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        version = d.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        if "ensemble" not in d:
            raise ConfigError("config needs an 'ensemble' object")
        if "trials" not in d:
            raise ConfigError("config needs a 'trials' count")

        try:
            groups = tuple(AbelianPGroup(g["p"], g["lambda"]) for g in d.get("groups", []))
            lambdas = tuple(as_partition(lam) for lam in d.get("lambdas", []))
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad groups/lambdas: {exc}") from exc
        worker_budget(1)  # a malformed COKFLUCT_WORKERS is a configuration error
        return cls(
            ensemble=EnsembleSpec.from_dict(d["ensemble"]),
            trials=d["trials"],
            groups=groups,
            lambdas=lambdas,
            d=d.get("d", 3),
            zeta=config_number(d.get("zeta", 0.0), "zeta"),
            workers=d.get("workers", 1),
            output_dir=d.get("output_dir", "run"),
            reproducible=d.get("reproducible", False),
        )


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def write_report_files(report: ExperimentReport, out_dir: Path, config: RunConfig) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_bytes(_json_bytes(config.to_dict()))
    payload = report.to_dict()
    if not config.reproducible:
        payload["meta"] = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    (out_dir / "report.json").write_bytes(_json_bytes(payload))

    # each CSV lists the rows of one report section, in the report's order
    moment_columns = ["mean", "ci_low", "ci_high", "target", "count"]
    for name, header in (
        ("hom_moments", ["group", *moment_columns]),
        ("l_moments", ["lambda", *moment_columns]),
        ("centered_histogram", ["vector", "count", "probability"]),
    ):
        with (out_dir / f"{name}.csv").open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for key, row in payload[name].items():
                w.writerow([key, *row.values()])


def _parse_partition(text: str) -> tuple[int, ...]:
    return as_partition(
        int(x) for x in text.replace("(", "").replace(")", "").split(",") if x
    )


def _parse_group(text: str) -> AbelianPGroup:
    # "2:3,1" -> p = 2, lambda = (3, 1); "2:" is the trivial 2-group
    p_str, _, lam_str = text.partition(":")
    return AbelianPGroup(int(p_str), _parse_partition(lam_str))


@click.group()
def main():
    """Cokernel-fluctuation laboratory for random block triangular matrices."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path), help="JSON config file.")
@click.option("--trials", type=int, default=None, help="Override trial count.")
@click.option("--seed", type=int, default=None, help="Override master seed.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=None, help="Override output directory.")
@click.option("--workers", type=int, default=None, help="Override worker budget.")
@click.option("--reproducible", is_flag=True, default=False, help="Strip timestamps from outputs.")
def simulate(config_path, trials, seed, out_dir, workers, reproducible):
    """Run an experiment from a config file and write report JSON + CSVs."""
    try:
        if config_path is None:
            raise ConfigError("simulate needs --config")
        raw = config_object(json.loads(Path(config_path).read_text()), "config")
        if trials is not None:
            raw["trials"] = trials
        if workers is not None:
            raw["workers"] = workers
        if out_dir is not None:
            raw["output_dir"] = str(out_dir)
        if reproducible:
            raw["reproducible"] = True
        if seed is not None and isinstance(raw.setdefault("ensemble", {}), dict):
            raw["ensemble"]["master_seed"] = seed  # a non-object is from_dict's error
        config = RunConfig.from_dict(raw)
    except (ConfigError, json.JSONDecodeError, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    try:
        report = run_experiment(
            config.ensemble,
            config.trials,
            config.groups,
            config.lambdas,
            config.d,
            zeta=config.zeta,
            workers=config.workers,
        )
        write_report_files(report, Path(config.output_dir), config)
    except Exception as exc:  # runtime failure, not config
        click.echo(f"runtime error: {exc}", err=True)
        sys.exit(1)
    click.echo(f"report written to {config.output_dir}")


@main.command()
@click.argument("suite", type=click.Choice(sorted(SUITES) + ["all"]))
def verify(suite):
    """Run an exact verification suite; nonzero exit on any failure."""
    names = sorted(SUITES) if suite == "all" else [suite]
    failed = 0
    for name in names:
        for check, ok, detail in SUITES[name]():
            status = "PASS" if ok else "FAIL"
            click.echo(f"[{status}] {check}  ({detail})")
            if not ok:
                failed += 1
    if failed:
        click.echo(f"{failed} check(s) failed", err=True)
        sys.exit(1)
    click.echo("all checks passed")


@main.command()
@click.option("--group", "groups", multiple=True, help="Group as 'p:a,b,c', e.g. 2:2,1.")
@click.option("--lam", "lambdas", multiple=True, help="Partition as 'a,b,c'.")
@click.option("--p", "p_", type=int, default=2, show_default=True)
@click.option("--zeta", type=float, default=0.0, show_default=True)
@click.option("--d", type=int, default=3, show_default=True)
def theory(groups, lambdas, p_, zeta, d):
    """Print exact chain counts, rescaled-moment limits, and L-moments."""
    try:
        parsed_groups = [_parse_group(g) for g in groups]
        parsed_lams = [_parse_partition(s) for s in lambdas]
        params = FluctuationParams(p_, zeta, d)
        lines = []
        for G in parsed_groups:
            l = ell(G)
            counts = [chain_count(G, i) for i in range(l + 1)]
            limit = limit_rescaled_hom_moment(G)
            lines.append(f"G={G.label()}  ell={l}  c={counts}  limit={limit}")
        for lam in parsed_lams:
            mv = L_moment(lam, params)
            lines.append(
                f"lambda=({','.join(map(str, lam))})  moment={mv.rational} * {mv.scale} = {mv.value}"
            )
    except ValueError as exc:  # includes the 2**12 bound on target groups
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    for line in lines:
        click.echo(line)


def _read_report(path: Path) -> ExperimentReport:
    raw = json.loads(path.read_text())
    if not isinstance(raw, dict):
        raise ConfigError(f"{path.name} does not hold a JSON object")
    try:
        return ExperimentReport.from_dict(raw)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path.name} is not a report: {exc!r}") from exc


@main.command()
@click.argument("report_a", type=click.Path(exists=True, path_type=Path))
@click.argument("report_b", type=click.Path(exists=True, path_type=Path))
def compare(report_a, report_b):
    """Total-variation summary of two report files."""
    try:
        summary = compare_ensembles(_read_report(report_a), _read_report(report_b))
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    click.echo(json.dumps(summary.to_dict(), indent=2, sort_keys=True, allow_nan=False))


if __name__ == "__main__":
    main()
