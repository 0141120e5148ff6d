"""The package's public names, and the data files it ships."""

import subprocess
import sys
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


def test_start_up_leaves_importlib_resources_unloaded():
    # importlib.resources imports tempfile, shutil, zipfile, bz2 and lzma;
    # the packaged data is read with pkgutil instead. -S leaves out site,
    # whose .pth files may import it for packages of their own.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dialogtasks.cli; "
        "from dialogtasks.composer import load_rules; load_rules(); "
        "print(dialogtasks.__file__); print('importlib.resources' in sys.modules)"
    )
    package_root = Path(dialogtasks.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(package_root)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    imported_from, loaded = done.stdout.splitlines()
    assert Path(imported_from).resolve().parent.parent == package_root
    assert loaded == "False"
