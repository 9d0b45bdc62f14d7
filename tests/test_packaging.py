"""What the package exports and what it ships.

Every exported name has a caller outside the package's own modules, and
every data file the package reads is one that an install copies.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import wdn_lipschitz
from wdn_lipschitz.errors import WdnError

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "wdn_lipschitz"


def _library_section() -> str:
    """The README's "Library entry points" section, up to the next heading."""
    readme = (ROOT / "README.md").read_text()
    return readme.split("## Library entry points\n", 1)[1].split("\n## ", 1)[0]


def test_every_exported_name_has_a_caller():
    # an error class is exported for callers to catch, so it needs no caller
    texts = [(SOURCE / "cli.py").read_text(), _library_section(),
             *(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))]
    words = set(re.findall(r"\w+", "\n".join(texts)))
    uncalled = [name for name in wdn_lipschitz.__all__
                if name not in words
                and not (isinstance(getattr(wdn_lipschitz, name), type)
                         and issubclass(getattr(wdn_lipschitz, name), WdnError))]
    assert uncalled == []


def test_every_data_file_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["wdn_lipschitz"]
    shipped = {path for pattern in globs for path in SOURCE.glob(pattern)}
    files = [path for path in sorted((SOURCE / "data").rglob("*")) if path.is_file()]
    assert {path.name for path in files} >= {"joe_kuo_6_1111.txt", "report_schema.json"}
    assert [path.name for path in files if path not in shipped] == []
