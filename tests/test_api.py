import importlib
import inspect

import pytest

LAYERS = ("cli", "complexes", "homology", "hodge", "cup", "formality", "obstructions")


@pytest.mark.parametrize("module", ("hodgeform", *(f"hodgeform.{m}" for m in LAYERS)))
def test_every_exported_name_resolves(module):
    # the layer tracer of the benchmark reads each exported name with getattr
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == [], module


def test_package_cup_is_the_module():
    # the package root no longer re-exports the product, so the name is
    # the submodule, which keeps the product in its own __all__
    import hodgeform

    assert inspect.ismodule(hodgeform.cup)
    assert "cup" not in hodgeform.__all__
    assert "cup" in hodgeform.cup.__all__


def test_deleted_names_stay_unexported():
    from hodgeform.hodge import HarmonicBasis

    modules = ("hodgeform", *(f"hodgeform.{m}" for m in LAYERS))
    exported = {
        name for m in modules for name in getattr(importlib.import_module(m), "__all__", ())
    }
    deleted = {"Cochain", "evaluate_on_fundamental_class", "harmonic_projection", "norm"}
    assert exported & deleted == set()
    assert not hasattr(HarmonicBasis, "cochains")
