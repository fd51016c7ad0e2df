"""pyproject.toml agrees with the package: every declared dependency, runtime
or ``dev``, can be imported where the tests run, SciPy and jsonschema are
test-only dependencies, and the declared version is ``gaplab.__version__``."""

import importlib
import re
from pathlib import Path

import pytest

import gaplab

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# Distribution names whose import name differs.
IMPORT_NAMES = {"pyyaml": "yaml"}


def _project():
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]


def _names(deps):
    return [re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps]


def _runtime():
    return _names(_project()["dependencies"])


def _dev():
    return _names(_project()["optional-dependencies"]["dev"])


@pytest.mark.parametrize("dist", _runtime() + _dev())
def test_declared_dependency_imports(dist):
    importlib.import_module(IMPORT_NAMES.get(dist, dist.replace("-", "_")))


def test_scipy_is_a_test_only_dependency():
    # Runs use gaplab.stattests; only the tests that pin it import SciPy.
    assert "scipy" in _dev()
    assert "scipy" not in _runtime()


def test_jsonschema_is_a_test_only_dependency():
    # Runs do not validate their reports; the tests validate every report
    # they write against gaplab.runner.REPORT_SCHEMA.
    assert "jsonschema" in _dev()
    assert "jsonschema" not in _runtime()


def test_package_version_matches_pyproject():
    assert gaplab.__version__ == _project()["version"]
