"""Golden reports: the ``report`` section and the ``trials.tsv`` table of a
small run of every experiment, compared with the copies stored in
``tests/golden/<experiment>.json`` and ``tests/golden/<experiment>.tsv``.

A change in how any sampler or experiment uses its random streams moves the
stored values by O(1) and fails here.  Keys, strings, integers, booleans and
check names must match exactly; floats match to a relative 1e-10 (absolute
1e-12), because OpenBLAS picks different kernels on different CPUs and
those move only the last bits; table values are compared as floats at the
same tolerance.  Each payload's SHA-256 is printed (``-s``)
as evidence for byte-level comparisons across commits; only the tolerance
comparison is asserted.

A change that alters draws on purpose regenerates the files with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import functools
import hashlib
import json
import math
from pathlib import Path

import pytest

from gaplab.experiments import EXPERIMENTS
from gaplab.runner import (
    experiment_config_from_dict,
    report_envelope,
    write_trials_tsv,
)
from test_runner import RUN_PATH_CONFIGS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = 3
REL_TOL = 1e-10
ABS_TOL = 1e-12


@functools.cache
def golden_report(experiment: str):
    """A serial run of the small variant."""
    config = experiment_config_from_dict(experiment, RUN_PATH_CONFIGS[experiment])
    return EXPERIMENTS[experiment].runner(config, SEED, 1)


def golden_payload(experiment: str) -> dict:
    """The ``report`` section of the small variant's run."""
    return report_envelope(golden_report(experiment))["report"]


def write_golden_trials(experiment: str, path) -> None:
    """The ``trials.tsv`` of the small variant's run, as a run writes it."""
    report = golden_report(experiment)
    write_trials_tsv(str(path), report.trial_columns, report.trial_rows)


def read_table(path) -> dict:
    """A ``trials.tsv``: its column names, and its rows as floats."""
    header, *lines = Path(path).read_text().splitlines()
    return {
        "columns": header.split("\t"),
        "rows": [[float(v) for v in line.split("\t")] for line in lines],
    }


def payload_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def mismatches(expected, actual, path="report"):
    """Paths at which ``actual`` differs from ``expected``: floats beyond the
    tolerance, anything else not exactly equal in type and value."""
    if isinstance(expected, float):
        if type(actual) is float and math.isclose(
            actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL
        ):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected):
        return [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, dict):
        if set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [
            m
            for key in sorted(expected)
            for m in mismatches(expected[key], actual[key], f"{path}.{key}")
        ]
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [
            m
            for i, (e, a) in enumerate(zip(expected, actual))
            for m in mismatches(e, a, f"{path}[{i}]")
        ]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


@pytest.mark.parametrize("experiment", sorted(RUN_PATH_CONFIGS))
def test_report_matches_golden(experiment):
    # through JSON, so the comparison sees what report.json holds
    actual = json.loads(payload_text(golden_payload(experiment)))
    print(experiment, hashlib.sha256(payload_text(actual).encode()).hexdigest())
    expected = json.loads((GOLDEN_DIR / f"{experiment}.json").read_text())
    assert mismatches(expected, actual) == []


@pytest.mark.parametrize("experiment", sorted(RUN_PATH_CONFIGS))
def test_trials_match_golden(experiment, tmp_path):
    write_golden_trials(experiment, tmp_path / "trials.tsv")
    expected = read_table(GOLDEN_DIR / f"{experiment}.tsv")
    assert mismatches(expected, read_table(tmp_path / "trials.tsv")) == []


def test_mismatches_applies_tolerance_only_to_floats():
    golden = {"n": 3, "ok": True, "x": 1.0, "name": "a"}
    assert mismatches(golden, {**golden, "x": 1.0 + 1e-12}) == []
    assert mismatches(golden, {**golden, "x": 1.0 + 1e-9}) != []
    assert mismatches(golden, {**golden, "n": 3.0}) != []
    assert mismatches(golden, {**golden, "ok": 1}) != []
    assert mismatches(golden, {**golden, "name": "b"}) != []
    assert mismatches(golden, {k: golden[k] for k in ("n", "ok", "x")}) != []


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(RUN_PATH_CONFIGS):
        (GOLDEN_DIR / f"{name}.json").write_text(payload_text(golden_payload(name)))
        write_golden_trials(name, GOLDEN_DIR / f"{name}.tsv")
        print(f"wrote {GOLDEN_DIR / name}.json and .tsv")
