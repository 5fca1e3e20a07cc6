"""Every public export resolves and is listed once."""

import collections

import pytest

import jacobiprior
import jacobiprior.simlab


@pytest.mark.parametrize("module", [jacobiprior, jacobiprior.simlab], ids=lambda m: m.__name__)
def test_all_names_resolve_once(module):
    repeated = [name for name, k in collections.Counter(module.__all__).items() if k > 1]
    assert not repeated, f"{module.__name__}.__all__ repeats {repeated}"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}, which do not resolve"
