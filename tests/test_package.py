"""The package's public names."""

import dialogtasks


def test_every_name_in_all_resolves():
    names = dialogtasks.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(dialogtasks, name)] == []


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from dialogtasks import *", namespace)
    assert set(dialogtasks.__all__) <= set(namespace)
