"""Set-up step: ``make_inputs.py COMPLEX OUT_DIR [--weights-seed N]``.

Imports hodgeform, generates the zoo complex COMPLEX (for example
``torus:4``) and writes it to OUT_DIR/complex.json in the library's canonical
format.  With ``--weights-seed`` it also writes OUT_DIR/weights.json holding
``random_weights(K, N)``.  Prints one JSON line describing the numerical
environment, so that results from different BLAS builds are never compared.
"""

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from hodgeform.cli import parse_zoo_identifier
from hodgeform.complexes import save_complex
from hodgeform.hodge import random_weights


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("complex")
    parser.add_argument("out_dir")
    parser.add_argument("--weights-seed", type=int)
    args = parser.parse_args()
    out = Path(args.out_dir)
    K = parse_zoo_identifier(args.complex)
    save_complex(K, out / "complex.json")
    if args.weights_seed is not None:
        w = random_weights(K, args.weights_seed)
        payload = {"weights": [arr.tolist() for arr in w.by_degree]}
        (out / "weights.json").write_text(json.dumps(payload))
    print(json.dumps(environment(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
