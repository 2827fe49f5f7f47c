import importlib

import pytest

LAYERS = ("cli", "complexes", "homology", "hodge", "cup", "formality", "obstructions")


@pytest.mark.parametrize("module", ("hodgeform", *(f"hodgeform.{m}" for m in LAYERS)))
def test_every_exported_name_resolves(module):
    # the layer tracer of the benchmark reads each exported name with getattr
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == [], module
