"""The package's export list matches what it defines."""

import inspect

import kcoreset


def test_star_import_gives_every_public_name_once():
    namespace = {}
    exec("from kcoreset import *", namespace)  # fails on a name __all__ lists but lacks
    public = [
        name for name, value in vars(kcoreset).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert sorted(kcoreset.__all__) == sorted(public)
