"""The package's public names, and the data files it ships."""

from importlib import resources
from pathlib import Path, PurePosixPath

import pytest

import dialogtasks

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_in_all_resolves():
    names = dialogtasks.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(dialogtasks, name)] == []


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from dialogtasks import *", namespace)
    assert set(dialogtasks.__all__) <= set(namespace)


def test_every_data_file_is_package_data():
    # A data file no package-data glob matches is left out of the wheel.
    tomllib = pytest.importorskip("tomllib")  # 3.11 and later
    with (ROOT / "pyproject.toml").open("rb") as handle:
        globs = tomllib.load(handle)["tool"]["setuptools"]["package-data"]["dialogtasks"]
    package = ROOT / "src" / "dialogtasks"
    data = sorted(
        PurePosixPath(path.relative_to(package).as_posix())
        for path in (package / "data").rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc")
    )
    assert data
    assert [path for path in data if not any(path.match(glob) for glob in globs)] == []
    # Run against an installed package, this finds the files the wheel holds.
    installed = resources.files("dialogtasks")
    assert [path for path in data if not installed.joinpath(*path.parts).is_file()] == []
