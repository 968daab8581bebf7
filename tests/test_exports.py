import importlib
import pkgutil

import pytest

import ovklearn

# importing __main__ would run the CLI
SUBMODULES = sorted(
    f"ovklearn.{info.name}"
    for info in pkgutil.iter_modules(ovklearn.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("module_name", ["ovklearn", *SUBMODULES])
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    # cli and exceptions declare no __all__
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
