"""pyproject.toml agrees with the package: every declared runtime dependency
can be imported, and the declared version is ``gaplab.__version__``."""

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


def _declared():
    deps = _project()["dependencies"]
    return [re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps]


@pytest.mark.parametrize("dist", _declared())
def test_declared_dependency_imports(dist):
    importlib.import_module(IMPORT_NAMES.get(dist, dist.replace("-", "_")))


def test_package_version_matches_pyproject():
    assert gaplab.__version__ == _project()["version"]
