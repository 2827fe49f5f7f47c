import importlib
import inspect
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import hodgeform

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


# Runs CODE (argv[1]) in a fresh interpreter, with OUT (argv[2]) a scratch
# path, then prints the scipy.sparse and scipy.linalg modules loaded.
_CHILD = """
import json, sys
out = sys.argv[2]
exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.linalg")))))
"""
_SUMMARY_DIR = resources.files("hodgeform.data").joinpath("summaries")
_SUMMARIES = sorted(p.name for p in _SUMMARY_DIR.iterdir())
_CHECK = "from hodgeform.cli import main\nmain(['check', {path!r}, '-o', out])"
_SCIPY_FREE = {
    "import hodgeform": "import hodgeform",
    "import hodgeform.cli": "import hodgeform.cli",
    "random_weights": (
        "from hodgeform import product_complex, random_weights, sphere\n"
        "random_weights(product_complex(sphere(2), sphere(2)), 0)"
    ),
    "generate": "from hodgeform.cli import main\nmain(['generate', 'torus:2', '-o', out])",
    "--version": (
        "from hodgeform.cli import main\n"
        "try:\n    main(['--version'])\nexcept SystemExit:\n    pass"
    ),
    **{
        f"check {name}": _CHECK.format(path=str(_SUMMARY_DIR.joinpath(name)))
        for name in _SUMMARIES
    },
}


def loaded_scipy_modules(code: str, tmp_path) -> list[str]:
    """The scipy.sparse and scipy.linalg modules a fresh interpreter has
    loaded after running ``code``; this one has them loaded already."""
    env = dict(os.environ, PYTHONPATH=str(Path(hodgeform.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, code, str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_every_bundled_summary_is_checked():
    assert len(_SUMMARIES) == 6


@pytest.mark.parametrize("code", _SCIPY_FREE.values(), ids=_SCIPY_FREE.keys())
def test_paths_without_numerics_load_no_scipy_solvers(code, tmp_path):
    assert loaded_scipy_modules(code, tmp_path) == []


def test_analyze_loads_the_scipy_solvers(tmp_path):
    # the guard above is live: the first numerical call imports them
    code = (
        "from hodgeform.cli import main\n"
        "assert main(['generate', 'torus:2', '-o', out]) == 0\n"
        "assert main(['analyze', out, '--all', '-o', out + '.report']) == 0"
    )
    loaded = loaded_scipy_modules(code, tmp_path)
    assert {"scipy.sparse", "scipy.sparse.linalg", "scipy.linalg.lapack"} <= set(loaded)
