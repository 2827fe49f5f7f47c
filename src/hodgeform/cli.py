"""Command-line front end.

Subcommands: ``generate`` (zoo complexes to JSON files), ``analyze``
(homology / hodge / formality / obstruction pipeline over a complex file),
``check`` (obstruction rules over a summary file), ``search`` (weight
search, persisting the best weights plus a CSV residual trace).
``analyze`` times each requested stage in pipeline order, and its
``obstructions`` section is the verdict payload ``check`` prints.

All file outputs are canonical JSON (sorted keys, stable float repr), and
every ``-o``, like ``search --trace``, takes ``-`` for stdout.  Reports of
one build are byte-stable apart from the timings; across builds, compare
``spectral_gap``, ``residual``, ``variation``, ``product_norm`` and
``aggregate`` with a tolerance (README).

Exit codes: 0 success; 1 the analysis ran fine and found an obstructed
verdict; 2 usage or input-schema error, including an ``analyze`` stage that
does not apply to the input (``obstructions`` on a non-orientable or open
complex, or on one that fails Poincare duality); 3 internal numerical
failure.  A failed ``analyze`` stage leaves its message under ``errors`` and
the run exits with that failure's code, 3 if any stage failed numerically.

:func:`main` registers ``gc.freeze`` to run at interpreter exit (once per
process): the final full garbage collection then has nothing to walk, where
it would spend about 60 ms of a cold ``analyze`` pass on the numpy and scipy
heap.  Automatic collection is left on while the command runs.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .complexes import (
    SimplicialComplex,
    complex_to_dict,
    connected_sum,
    is_closed_pseudomanifold,
    load_complex,
    orient,
    product_complex,
    read_json,
    sphere,
    surface,
    torus,
)
from .cup import intersection_form
from .errors import NumericalError
from .formality import SearchConfig, formality_residual, search_formal_weights
from .hodge import (
    DEFAULT_TOL,
    harmonic_basis,
    random_weights,
    spectral_gaps,
    unit_weights,
    weights_from_arrays,
)
from .homology import betti_numbers, euler_characteristic, poincare_duality_check
from .obstructions import (
    check_obstructions,
    load_summary,
    summary_to_dict,
    summarize,
)

EXIT_OK = 0
EXIT_OBSTRUCTED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# exception -> exit code, first match wins (LinAlgError is a ValueError)
_EXIT_CODES = (
    (NumericalError, EXIT_NUMERICAL),
    (np.linalg.LinAlgError, EXIT_NUMERICAL),
    (ValueError, EXIT_USAGE),
    (OSError, EXIT_USAGE),
)
_FAILURES = tuple(kind for kind, _ in _EXIT_CODES)


def _exit_code(exc: Exception) -> int:
    return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


_STAGES = ("betti", "hodge", "formality", "obstructions")


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _dump_json(payload: dict, path: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", path)


# zoo heads: one integer parameter, or two operand identifiers
_FAMILIES = {"sphere": sphere, "torus": torus, "surface": surface}
_OPERATIONS = {"product": product_complex, "connsum": connected_sum}


def parse_zoo_identifier(identifier: str) -> SimplicialComplex:
    """Resolve a zoo identifier or a complex-file path.

    Grammar: sphere:n | torus:n | surface:g | product:A,B | connsum:A,B,
    where A and B are themselves identifiers (commas cannot nest; write
    intermediate files for deeper expressions), or a path to a JSON file.
    """
    if Path(identifier).is_file():
        return load_complex(identifier)
    head, sep, rest = identifier.partition(":")
    if sep and head in _FAMILIES:
        try:
            arg = int(rest)
        except ValueError:
            raise ValueError(f"{identifier!r}: expected an integer parameter")
        return _FAMILIES[head](arg)
    if sep and head in _OPERATIONS:
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"{identifier!r}: expected exactly two operands")
        return _OPERATIONS[head](*(parse_zoo_identifier(p) for p in parts))
    raise ValueError(f"unknown complex identifier {identifier!r}")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _load_weights(K: SimplicialComplex, path: str | None):
    if path is None:
        return unit_weights(K)
    payload = read_json(path)
    if not isinstance(payload, dict) or "weights" not in payload:
        raise ValueError(f"{path}: expected an object with a 'weights' key")
    arrays = payload["weights"]
    # JSON numbers only: no booleans, strings, nulls or nested lists
    if not isinstance(arrays, list) or not all(
        isinstance(a, list) and all(type(x) in (int, float) for x in a) for a in arrays
    ):
        raise ValueError(f"{path}: 'weights' must be one list of JSON numbers per degree")
    return weights_from_arrays(K, arrays)


def _weights_payload(w) -> dict:
    return {"weights": [list(map(float, arr)) for arr in w.by_degree]}


def cmd_generate(args) -> int:
    _dump_json(complex_to_dict(parse_zoo_identifier(args.identifier)), args.output)
    return EXIT_OK


def _verdict(summary) -> dict:
    """The obstruction verdict payload that ``check`` prints and the
    ``analyze`` obstructions stage reports."""
    return {**check_obstructions(summary).to_dict(), "summary": summary_to_dict(summary)}


def _verdict_code(verdict: dict | None) -> int:
    obstructed = verdict is not None and verdict["verdict"] == "obstructed"
    return EXIT_OBSTRUCTED if obstructed else EXIT_OK


def _analyze_report(
    K: SimplicialComplex, w, stages: set[str], tol: float
) -> tuple[dict, list[int]]:
    """Run the requested stages in pipeline order; return the report and the
    exit code of every stage that failed."""
    n = K.dimension
    closed = is_closed_pseudomanifold(K)
    orientable = closed and orient(K) is not None

    def homology():
        return {
            "betti": list(betti_numbers(K)),
            "euler_characteristic": euler_characteristic(K),
            "closed_pseudomanifold": closed,
            "orientable": orientable if closed else None,
            "poincare_duality": poincare_duality_check(K) if orientable else None,
        }

    def hodge():
        bases = [harmonic_basis(K, w, k, tol) for k in range(n + 1)]
        degrees = []
        for k, (basis, gap) in enumerate(zip(bases, spectral_gaps(K, w, tol))):
            if gap is not None and gap <= tol:
                raise NumericalError(
                    f"spectral gap of Delta_{k} is {gap:.3e} <= tolerance {tol:.3e}: "
                    f"the first nonzero eigenvalue lambda of Delta_{k}, over its "
                    f"Gershgorin scale, is that small, so a basis vector's harmonicity "
                    f"residual bounds its w-distance from the harmonic cochains only "
                    f"loosely, by ||Delta h||_w / lambda"
                )
            degrees.append(
                {
                    "degree": k,
                    "dimension": basis.cardinality,
                    "residual": basis.residual,
                    "spectral_gap": gap,
                }
            )
        intersection = None
        if n > 0 and n % 2 == 0 and orientable and poincare_duality_check(K):
            form = intersection_form(K)
            intersection = {**asdict(form), "matrix": form.matrix.tolist()}
        return {"tolerance": tol, "degrees": degrees, "intersection": intersection}

    # stage flag, report key, section builder
    table = (
        ("betti", "homology", homology),
        ("hodge", "hodge", hodge),
        ("formality", "formality", lambda: formality_residual(K, w, tol).to_dict()),
        ("obstructions", "obstructions", lambda: _verdict(summarize(K))),
    )
    report: dict = {
        "tool": {"name": "hodgeform", "version": __version__},
        "complex": {"name": K.name, "dimension": n, "f_vector": list(K.f_vector)},
        "timings": {},
    }
    errors: dict = {}
    codes: list[int] = []
    for stage, key, section in table:
        if stage not in stages:
            continue
        start = time.perf_counter()
        try:
            report[key] = section()
        except _FAILURES as exc:
            errors[stage] = str(exc)
            codes.append(_exit_code(exc))
        report["timings"][stage] = time.perf_counter() - start
    if errors:
        report["errors"] = errors
    return report, codes


def cmd_analyze(args) -> int:
    K = load_complex(args.complex)
    w = _load_weights(K, args.weights)
    stages = {s for s in _STAGES if getattr(args, s)}
    if args.all or not stages:
        stages = set(_STAGES)
    report, codes = _analyze_report(K, w, stages, args.tolerance)
    _dump_json(report, args.output)
    # a numerical failure (3) outranks a stage that does not apply (2)
    return max(codes) if codes else _verdict_code(report.get("obstructions"))


def cmd_check(args) -> int:
    verdict = _verdict(load_summary(args.summary))
    _dump_json(verdict, args.output)
    return _verdict_code(verdict)


def cmd_search(args) -> int:
    if args.init == "file" and args.weights is None:
        raise ValueError("--init file needs --weights")
    if args.init != "file" and args.weights is not None:
        raise ValueError(f"--weights is read only with --init file, not --init {args.init}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.max_iterations < 0:
        raise ValueError(
            f"--max-iterations must be a non-negative integer, got {args.max_iterations}"
        )
    trace_path = args.trace
    if trace_path is None:
        if args.output == "-":
            raise ValueError("-o - writes the weights to stdout; name a --trace path")
        trace_path = str(Path(args.output).with_suffix(".trace.csv"))
    elif (
        trace_path == args.output
        if "-" in (trace_path, args.output)
        else Path(trace_path).resolve() == Path(args.output).resolve()
    ):
        raise ValueError(f"--trace must differ from -o, both name {args.output!r}")
    free_degrees = None
    if args.degrees is not None:
        try:
            free_degrees = tuple(int(d) for d in args.degrees.split(","))
        except ValueError:
            raise ValueError(
                f"--degrees must be comma-separated integers, got {args.degrees!r}"
            ) from None
    K = load_complex(args.complex)
    if free_degrees is not None and (
        len(set(free_degrees)) != len(free_degrees)
        or not all(0 <= k <= K.dimension for k in free_degrees)
    ):
        raise ValueError(
            f"--degrees must list distinct degrees in 0..{K.dimension}, got {args.degrees!r}"
        )
    if args.init == "random":
        initial = random_weights(K, np.random.default_rng(args.seed))
    else:
        initial = _load_weights(K, args.weights)
    cfg = SearchConfig(
        max_iterations=args.max_iterations, seed=args.seed, free_degrees=free_degrees
    )
    best, trace = search_formal_weights(K, cfg, initial)
    _dump_json(_weights_payload(best), args.output)
    lines = ["iteration,aggregate"] + [f"{i},{value!r}" for i, value in enumerate(trace)]
    _write("\n".join(lines) + "\n", trace_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgeform",
        description="Harmonic cochains, cup products and formality probes "
        "on triangulated closed manifolds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a zoo complex to a JSON file")
    g.add_argument("identifier", help="sphere:n | torus:n | surface:g | product:A,B | connsum:A,B | path")
    g.add_argument("-o", "--output", required=True, help="complex JSON path (- for stdout)")
    g.set_defaults(fn=cmd_generate)

    a = sub.add_parser("analyze", help="run the analysis pipeline on a complex file")
    a.add_argument("complex")
    a.add_argument("--weights", help="weights JSON file (default: unit weights)")
    a.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOL)
    for stage in _STAGES:
        a.add_argument(f"--{stage}", action="store_true")
    a.add_argument("--all", action="store_true", help="run every stage (default)")
    a.add_argument("-o", "--output", help="report path (default or -: stdout)")
    a.set_defaults(fn=cmd_analyze)

    c = sub.add_parser("check", help="run obstruction rules on a summary file")
    c.add_argument("summary")
    c.add_argument("-o", "--output", help="report path (default or -: stdout)")
    c.set_defaults(fn=cmd_check)

    s = sub.add_parser("search", help="search weights minimizing the residual")
    s.add_argument("complex")
    s.add_argument("--weights", help="initial weights file (with --init file)")
    s.add_argument("--init", choices=["unit", "random", "file"], default="unit")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-iterations", type=int, default=SearchConfig.max_iterations)
    s.add_argument("--degrees", help="comma-separated free degrees (default: 1..n)")
    s.add_argument("-o", "--output", required=True, help="best-weights JSON path (- for stdout)")
    s.add_argument("--trace", help="CSV trace path (- for stdout; default: <output>.trace.csv)")
    s.set_defaults(fn=cmd_search)
    return parser


def main(argv=None) -> int:
    # the exit freeze of the module docstring, registered once per process
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _FAILURES as exc:
        code = _exit_code(exc)
        label = "numerical failure" if code == EXIT_NUMERICAL else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
