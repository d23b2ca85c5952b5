from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_named_in_pyproject_exists():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert (ROOT / project["readme"]).is_file()
