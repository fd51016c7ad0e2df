"""Command line front end: run experiments, write reports, validate configs.

A run writes three files into its output directory:

* ``report.json``: a versioned envelope whose ``report`` section is a pure
  function of (experiment, config, seed) and whose ``volatile`` section
  holds timing and environment details that may differ between reruns.
* ``trials.tsv``: the per-trial table, tab-separated with a header row.
* ``summary.txt``: one human-readable line per check plus the overall
  verdict.

Output directory precedence: ``--out-dir`` flag, then the GAPLAB_OUT_DIR
environment variable, then the config file, then ``./runs``.  Exit codes:
0 all checks passed, 1 at least one check failed, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from .experiments import EXPERIMENTS, ConfigError, ExperimentReport

SCHEMA_VERSION = "1"
DEFAULT_OUT_DIR = "runs"
OUT_DIR_ENV_VAR = "GAPLAB_OUT_DIR"

_CHECK_SCHEMA = {
    "type": "object",
    "required": [
        "name",
        "statistic",
        "prediction",
        "tolerance",
        "tolerance_provenance",
        "comparison",
        "passed",
    ],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "statistic": {"type": "number"},
        "prediction": {"type": "number"},
        "tolerance": {"type": "number"},
        "tolerance_provenance": {"type": "string"},
        "comparison": {"type": "string"},
        "passed": {"type": "boolean"},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "report", "volatile"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "report": {
            "type": "object",
            "required": [
                "experiment",
                "config",
                "seed",
                "sample_count",
                "statistics",
                "predictions",
                "checks",
                "trial_columns",
                "trial_row_count",
                "overall_pass",
            ],
            "additionalProperties": False,
            "properties": {
                "experiment": {"type": "string"},
                "config": {"type": "object"},
                "seed": {"type": "integer"},
                "sample_count": {"type": "integer", "minimum": 0},
                "statistics": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
                "predictions": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
                "checks": {"type": "array", "items": _CHECK_SCHEMA},
                "trial_columns": {
                    "type": "array",
                    "items": {"type": "string"},
                },
                "trial_row_count": {"type": "integer", "minimum": 0},
                "overall_pass": {"type": "boolean"},
            },
        },
        "volatile": {"type": "object"},
    },
}


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    experiment_config: object
    seed: int = 0
    parallelism: int = 1
    out_dir: str | None = None


def _coerce_field(name: str, value, default):
    """Light type coercion from YAML values to dataclass field types."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"field {name!r} expects a boolean")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"field {name!r} expects an integer")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"field {name!r} expects a number")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"field {name!r} expects a string")
        return value
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"field {name!r} expects a list")
        return tuple(value)
    return value


def experiment_config_from_dict(experiment: str, overrides: dict):
    """Build an experiment config dataclass, rejecting unknown keys."""
    if experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"unknown experiment {experiment!r}; known: {known}")
    cls = EXPERIMENTS[experiment].config_type
    defaults = cls()
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in (overrides or {}).items():
        if key not in names:
            raise ConfigError(
                f"unknown config key {key!r} for experiment {experiment!r}"
            )
        kwargs[key] = _coerce_field(key, value, getattr(defaults, key))
    return dataclasses.replace(defaults, **kwargs)


_TOP_LEVEL_KEYS = {"experiment", "seed", "parallelism", "out_dir", "config"}


def load_run_config(path: str) -> RunConfig:
    """Parse a YAML run file; unknown keys are hard errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise ConfigError(f"invalid YAML in {path!r}{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a mapping")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(
            f"unknown top-level key {sorted(unknown)[0]!r} in {path!r}"
        )
    if "experiment" not in raw:
        raise ConfigError(f"config file {path!r} is missing 'experiment'")
    experiment = raw["experiment"]
    if not isinstance(experiment, str):
        raise ConfigError("'experiment' must be a string")
    overrides = raw.get("config", {})
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, dict):
        raise ConfigError("'config' must be a mapping of experiment fields")
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("'seed' must be a nonnegative integer")
    parallelism = raw.get("parallelism", 1)
    if (
        isinstance(parallelism, bool)
        or not isinstance(parallelism, int)
        or parallelism < 1
    ):
        raise ConfigError("'parallelism' must be a positive integer")
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("'out_dir' must be a string")
    return RunConfig(
        experiment=experiment,
        experiment_config=experiment_config_from_dict(experiment, overrides),
        seed=seed,
        parallelism=parallelism,
        out_dir=out_dir,
    )


def canonical_config_dict(run_config: RunConfig) -> dict:
    """Round-trippable canonical form of a run configuration."""
    out = {
        "experiment": run_config.experiment,
        "seed": run_config.seed,
        "parallelism": run_config.parallelism,
        "config": _jsonable(dataclasses.asdict(run_config.experiment_config)),
    }
    if run_config.out_dir is not None:
        out["out_dir"] = run_config.out_dir
    return out


def _jsonable(obj):
    """Recursively convert numpy scalars and tuples for serialization."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("gaplab")
    except Exception:
        return "unknown"


@functools.cache
def _report_validator():
    """A validator for REPORT_SCHEMA, built once: ``jsonschema.validate``
    would check the schema itself again on every report."""
    import jsonschema  # at the first report; loading configs never needs it

    cls = jsonschema.validators.validator_for(REPORT_SCHEMA)
    cls.check_schema(REPORT_SCHEMA)
    return cls(REPORT_SCHEMA)


def report_envelope(report: ExperimentReport) -> dict:
    """Versioned JSON document: deterministic body plus volatile footer."""
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "report": _jsonable(report.deterministic_payload()),
        "volatile": {
            "wall_time_s": report.wall_time_s,
            "parallelism": report.parallelism,
            "package_version": _package_version(),
            "generated_at": datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(),
        },
    }
    _report_validator().validate(envelope)
    return envelope


TSV_BLOCK_ROWS = 4096


def write_trials_tsv(path: str, columns, rows: np.ndarray) -> None:
    """The per-trial table: a header line of column names, then one line per
    row with every value as ``%.17g``, all tab-separated.  The bytes equal
    those of ``np.savetxt(path, rows, fmt="%.17g", delimiter="\t",
    header="\t".join(columns), comments="")``; formatting a whole block of
    rows with one line template avoids savetxt's per-row Python loop."""
    rows = rows.reshape(-1, len(columns))
    line = "\t".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        for start in range(0, rows.shape[0], TSV_BLOCK_ROWS):
            block = rows[start : start + TSV_BLOCK_ROWS]
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def _write_report(report: ExperimentReport, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    envelope = report_envelope(report)
    paths = {
        "report": os.path.join(out_dir, "report.json"),
        "trials": os.path.join(out_dir, "trials.tsv"),
        "summary": os.path.join(out_dir, "summary.txt"),
    }
    with open(paths["report"], "w", encoding="utf-8") as fh:
        json.dump(envelope, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    write_trials_tsv(paths["trials"], report.trial_columns, report.trial_rows)
    with open(paths["summary"], "w", encoding="utf-8") as fh:
        fh.write(summary_text(report))
    return paths


def summary_text(report: ExperimentReport) -> str:
    lines = [
        f"experiment: {report.experiment}",
        f"seed: {report.seed}",
        f"samples: {report.sample_count}",
        "",
    ]
    for check in report.checks:
        verdict = "PASS" if check.passed else "FAIL"
        lines.append(
            f"[{verdict}] {check.name}: statistic={check.statistic:.6g} "
            f"prediction={check.prediction:.6g} "
            f"tolerance={check.tolerance:.6g} ({check.tolerance_provenance})"
        )
    lines.append("")
    lines.append(
        f"overall: {'PASS' if report.overall_pass else 'FAIL'} "
        f"({sum(c.passed for c in report.checks)}/{len(report.checks)} checks)"
    )
    lines.append("")
    return "\n".join(lines)


def resolve_out_dir(cli_value, config_value) -> str:
    if cli_value:
        return cli_value
    env_value = os.environ.get(OUT_DIR_ENV_VAR)
    if env_value:
        return env_value
    if config_value:
        return config_value
    return DEFAULT_OUT_DIR


def execute_run(run_config: RunConfig, out_dir: str) -> tuple[ExperimentReport, dict]:
    info = EXPERIMENTS[run_config.experiment]
    report = info.runner(
        run_config.experiment_config,
        run_config.seed,
        run_config.parallelism,
    )
    run_dir = os.path.join(
        out_dir, f"{run_config.experiment}-seed{run_config.seed}"
    )
    paths = _write_report(report, run_dir)
    return report, paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="Monte Carlo checks of thermal-state typicality claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and write a report")
    run_p.add_argument(
        "experiment",
        nargs="?",
        help="registered experiment name (omit when --config names one)",
    )
    run_p.add_argument("--config", help="YAML run configuration file")
    run_p.add_argument("--seed", type=int, help="override the run seed")
    run_p.add_argument(
        "--parallelism", type=int, help="worker threads for trial loops"
    )
    run_p.add_argument(
        "--out-dir",
        help=f"report directory (overrides ${OUT_DIR_ENV_VAR} and config)",
    )

    sub.add_parser("list", help="list experiments and the claims they check")

    val_p = sub.add_parser(
        "validate",
        help="parse a config file, run its shell setup, and echo its "
        "canonical form",
    )
    val_p.add_argument("--config", required=True, help="YAML file to check")
    return parser


def _run_command(args) -> int:
    if args.config:
        run_config = load_run_config(args.config)
        if args.experiment and args.experiment != run_config.experiment:
            raise ConfigError(
                f"experiment argument {args.experiment!r} conflicts with "
                f"config file entry {run_config.experiment!r}"
            )
    else:
        if not args.experiment:
            raise ConfigError("give an experiment name or a --config file")
        run_config = RunConfig(
            experiment=args.experiment,
            experiment_config=experiment_config_from_dict(args.experiment, {}),
        )
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be nonnegative")
        run_config = dataclasses.replace(run_config, seed=args.seed)
    if args.parallelism is not None:
        if args.parallelism < 1:
            raise ConfigError("--parallelism must be positive")
        run_config = dataclasses.replace(
            run_config, parallelism=args.parallelism
        )
    out_dir = resolve_out_dir(args.out_dir, run_config.out_dir)
    report, paths = execute_run(run_config, out_dir)
    sys.stdout.write(summary_text(report))
    sys.stdout.write(f"report: {paths['report']}\n")
    sys.stdout.write(f"trials: {paths['trials']}\n")
    return 0 if report.overall_pass else 1


def _list_command() -> int:
    for name in sorted(EXPERIMENTS):
        sys.stdout.write(f"{name}\n    {EXPERIMENTS[name].claim}\n")
    return 0


def _validate_command(args) -> int:
    run_config = load_run_config(args.config)
    # the setup phase of `run`, so a config that `run` would refuse for a
    # shell below its floor is refused here too
    shells = EXPERIMENTS[run_config.experiment].shells
    if shells is not None:
        shells(run_config.experiment_config, run_config.seed)
    sys.stdout.write(
        yaml.safe_dump(
            canonical_config_dict(run_config),
            sort_keys=True,
            default_flow_style=False,
        )
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run_command(args)
        if args.command == "list":
            return _list_command()
        if args.command == "validate":
            return _validate_command(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
