"""Search-candidate stream in one process.

``search_worker.py COMPLEX_JSON WEIGHTS_JSON RESULT_JSON --seed N
--seconds S [--trace SPANS_OUT]``

Evaluates ``formality_residual`` on a stream of candidates for S seconds,
after one untimed evaluation of the base weights (as the search itself
starts).  Candidate j changes one coordinate of the base by a factor
``exp(+-0.5)``, the step ``search_formal_weights`` uses.  The stream visits
every (degree, simplex, direction) move of the base once, in an order drawn
from the seed; when a base is used up, the next base is drawn with
``random_weights``.  So no weight vector is evaluated twice and the work per
candidate does not depend on any result.

With ``--trace`` the candidates alternate in blocks of BLOCK between
untraced and traced (layer wrappers installed), so both share one process
and one stretch of time, and their difference is the tracing overhead.
Blocks rather than single candidates keep consecutive traced candidates
consecutive in the stream, which the same-weights ratio needs.
"""

import os
import sys
import time

launch = float(os.environ["PERFBENCH_LAUNCH"])

import hodgeform  # noqa: E402,F401  the package import a library user pays

imported = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402

import numpy as np  # noqa: E402

from hodgeform import formality  # noqa: E402
from hodgeform.complexes import load_complex  # noqa: E402
from hodgeform.hodge import random_weights, weights_from_arrays  # noqa: E402

STEP = 0.5
BLOCK = 20
AGGREGATE_MAX = 1.0 + 1e-12


def candidates(K, base, seed):
    """Endless stream of single-coordinate moves, distinct weight vectors."""
    block = 0
    while True:
        moves = [
            (k, i, direction)
            for k in range(K.dimension + 1)
            for i in range(K.simplex_count(k))
            for direction in (1.0, -1.0)
        ]
        random.Random(f"{seed}/{block}").shuffle(moves)
        for k, i, direction in moves:
            scaled = base.degree(k).copy()
            scaled[i] *= float(np.exp(direction * STEP))
            yield base.replace(k, scaled)
        block += 1
        base = random_weights(K, np.random.default_rng([seed, block]))


def check(report) -> str | None:
    """Why a candidate's report is wrong, or None."""
    value = report.aggregate
    if not math.isfinite(value) or not 0.0 <= value <= AGGREGATE_MAX:
        return f"aggregate {value!r} outside [0, {AGGREGATE_MAX!r}]"
    return None


def evaluate(K, w):
    """(report or None, problem or None) for one weight vector.  Called
    through the module so that the layer wrappers see the call."""
    try:
        report = formality.formality_residual(K, w)
    except Exception as exc:  # a raising candidate is a counted failure
        return None, f"{type(exc).__name__}: {exc}"
    return report, check(report)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("complex")
    parser.add_argument("weights")
    parser.add_argument("result")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", metavar="SPANS_OUT")
    args = parser.parse_args()

    K = load_complex(args.complex)
    with open(args.weights) as fh:
        base = weights_from_arrays(K, json.load(fh)["weights"])
    errors = []
    warmup = evaluate(K, base)[1]
    if warmup is not None:
        errors.append(f"base weights: {warmup}")

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()

    times, traced, pairs = [], [], []
    failed = 0
    stream = candidates(K, base, args.seed)
    clock = time.perf_counter
    start = clock()
    deadline = start + args.seconds
    while clock() < deadline or (tracer is not None and not any(traced)):
        w = next(stream)
        position = len(times) % (2 * BLOCK)
        on = tracer is not None and position >= BLOCK
        if on:
            tracer.begin_op(contiguous=position > BLOCK)
            tracer.install()
        t0 = clock()
        report, problem = evaluate(K, w)
        t1 = clock()
        if on:
            tracer.uninstall()
        times.append(t1 - t0)
        traced.append(on)
        pairs.append(len(report.pairs) if report is not None else 0)
        if problem is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(f"candidate {len(times) - 1}: {problem}")
    elapsed = clock() - start

    result = {
        "import_s": imported - launch,
        "elapsed_s": elapsed,
        "times": times,
        "traced": traced,
        "pairs": pairs,
        "failed": failed + (warmup is not None),
        "attempted": len(times) + 1,
        "errors": errors,
    }
    if tracer is not None:
        tracer.write(args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
