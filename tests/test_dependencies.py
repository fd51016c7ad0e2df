"""Every runtime dependency that pyproject.toml declares can be imported."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# Distribution names whose import name differs.
IMPORT_NAMES = {"pyyaml": "yaml"}


def _declared():
    with PYPROJECT.open("rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return [re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps]


@pytest.mark.parametrize("dist", _declared())
def test_declared_dependency_imports(dist):
    importlib.import_module(IMPORT_NAMES.get(dist, dist.replace("-", "_")))
