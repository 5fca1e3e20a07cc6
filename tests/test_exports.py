"""Every public export resolves, is listed once, and loads its module only when first used."""

import collections
import importlib

import pytest

import jacobiprior
import jacobiprior.simlab


@pytest.mark.parametrize("module", [jacobiprior, jacobiprior.simlab], ids=lambda m: m.__name__)
def test_all_names_resolve_once(module):
    repeated = [name for name, k in collections.Counter(module.__all__).items() if k > 1]
    assert not repeated, f"{module.__name__}.__all__ repeats {repeated}"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}, which do not resolve"


def test_star_import_binds_every_name():
    namespace = {}
    exec("from jacobiprior import *", namespace)
    assert [name for name in jacobiprior.__all__ if name not in namespace] == []


def test_each_export_is_its_home_module_object():
    wrong = []
    for name, home in jacobiprior._EXPORTS.items():
        module = importlib.import_module(f"jacobiprior.{home}")
        value = getattr(jacobiprior, name)
        # A class or function must also be defined there, not re-exported from elsewhere.
        defined_in = getattr(value, "__module__", module.__name__)
        if value is not getattr(module, name) or defined_in != module.__name__:
            wrong.append(name)
    assert wrong == []


def test_dir_covers_all():
    assert set(jacobiprior.__all__) <= set(dir(jacobiprior))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'jacobiprior' has no attribute 'fit'"):
        jacobiprior.fit


def test_bare_import_loads_only_errors(fresh_python):
    loaded = fresh_python("-c", "import sys, jacobiprior; print(*sys.modules)").split()
    assert [m for m in loaded if m.startswith("jacobiprior.")] == ["jacobiprior.errors"]
