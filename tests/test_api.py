"""Every name a module exports in `__all__` exists in that module, and the
package namespace holds its submodules, never a name re-exported over one."""

import importlib
import pkgutil

import pytest

import hglearn

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(hglearn.__path__, "hglearn.")
    if not info.name.rpartition(".")[2].startswith("_")
)


def test_every_module_is_listed():
    assert "hglearn.config" in MODULES and "hglearn.prompt" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, name
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_package_attribute_is_the_submodule(name):
    module = importlib.import_module(name)
    assert getattr(hglearn, name.rpartition(".")[2]) is module


def test_package_reexports_nothing():
    public = {attr for attr in vars(hglearn) if not attr.startswith("_")}
    assert public <= {name.rpartition(".")[2] for name in MODULES}
