"""Layer timing from outside the library.

A :class:`Tracer` replaces every module-level binding of each public
function of the hodgeform modules with a timing wrapper, so calls are seen
whichever module they go through (``cli``, ``cup``, ``formality`` and
``obstructions`` import names directly; ``hodge`` imports
``boundary_matrix``).  Spans stay in memory; :func:`reduce_spans` turns them
into per-layer figures, where a layer's self time is its spans' durations
minus the durations of their direct child spans.

The library itself is neither read nor changed here: only its public names
are wrapped, and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import pickle
import sys
import time

LAYERS = ("cli", "complexes", "homology", "hodge", "cup", "formality", "obstructions")
MAX_DEGREE = 4

# Functions whose inclusive time and call count become per-layer metrics.
TIMED = (
    "complexes.load_complex",
    "complexes.orient",
    "homology.betti_numbers",
    "homology.boundary_matrix",
    "hodge.harmonic_basis",
    "hodge.laplacian",
    "hodge.harmonic_projection",
    "cup.cup",
    "cup.intersection_form",
    "formality.formality_residual",
    "formality.norm_constancy",
    "obstructions.summarize",
    "obstructions.check_obstructions",
)
COUNTED = (
    "homology.boundary_matrix",
    "hodge.harmonic_basis",
    "hodge.laplacian",
    "hodge.harmonic_projection",
    "cup.cup",
)
BASIS = "hodge.harmonic_basis"


def public_functions() -> dict[int, tuple[str, object]]:
    """id(function) -> (layer.name, function) for every public function
    defined in one of the layer modules."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"hodgeform.{layer}")
        names = getattr(module, "__all__", None)
        if names is None:
            names = [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            obj = getattr(module, name)
            if (
                callable(obj)
                and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == module.__name__
            ):
                found[id(obj)] = (f"{layer}.{name}", obj)
    return found


def _digest(array) -> bytes:
    return hashlib.blake2b(array.tobytes(), digest_size=16).digest()


class Tracer:
    """Collects spans ``(name, start, end, parent, ok, degree)`` in memory.

    ``degree`` is set for ``hodge.harmonic_basis`` only.  For that function
    the tracer also records, per call, whether (complex, degree, weights by
    value, tolerance) repeats an earlier call of the current operation, and,
    for calls that have a previous call for their degree in the same traced
    stretch, whether the degree-k weights are unchanged since that call.
    """

    def __init__(self):
        self.spans: list = []
        self.basis_calls = 0
        self.basis_repeats = 0
        self.basis_with_previous = 0
        self.basis_same_wk = 0
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._op_keys: set = set()
        self._last_wk: dict[int, bytes] = {}
        self._functions = public_functions()
        self._wrappers = {
            key: self._wrap(name, fn) for key, (name, fn) in self._functions.items()
        }

    def begin_op(self, contiguous: bool = False) -> None:
        """Start a new operation: repeats are counted within one operation.
        ``contiguous`` says the previous traced operation came right before
        this one, so per-degree weights are compared across the two."""
        self._op_keys = set()
        if not contiguous:
            self._last_wk = {}

    def install(self) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "hodgeform" and not modname.startswith("hodgeform."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and self._functions[id(value)][1] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()

    def _observe_basis(self, signature, args, kwargs) -> int:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        K, w, k, tol = (bound.arguments[p] for p in ("K", "w", "k", "tol"))
        digests = tuple(_digest(a) for a in w.by_degree)
        key = (id(K), k, digests, tol)
        self.basis_calls += 1
        if key in self._op_keys:
            self.basis_repeats += 1
        self._op_keys.add(key)
        if 0 <= k < len(digests):
            if k in self._last_wk:
                self.basis_with_previous += 1
                self.basis_same_wk += self._last_wk[k] == digests[k]
            self._last_wk[k] = digests[k]
        return k

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if name == BASIS else None
        observe = self._observe_basis

        def wrapper(*args, **kwargs):
            degree = observe(signature, args, kwargs) if signature else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, ok, degree)

        return wrapper

    def write(self, path, **extra) -> None:
        """Write the spans and the harmonic-basis tallies out once, in pickle
        form: tens of thousands of spans take milliseconds, where JSON would
        take a tenth of a second inside the traced process."""
        payload = {
            "spans": self.spans,
            "basis_calls": self.basis_calls,
            "basis_repeats": self.basis_repeats,
            "basis_with_previous": self.basis_with_previous,
            "basis_same_wk": self.basis_same_wk,
            **extra,
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load(path) -> dict:
    """Read what :meth:`Tracer.write` wrote (only ever this benchmark's own files)."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def reduce_spans(dump: dict) -> dict[str, float]:
    """Totals over the written spans: per-layer self time, inclusive time and
    call count of the TIMED functions, per-degree basis time, failures.

    Inclusive time counts only spans with no ancestor of the same name, so
    a function that re-enters itself is not counted twice.
    """
    spans = dump["spans"]
    duration = [end - start for _, start, end, *_ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += duration[i]

    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for fn in TIMED:
        out[f"{fn}_s"] = 0.0
    for fn in COUNTED:
        out[f"{fn}_calls"] = 0
    for k in range(MAX_DEGREE + 1):
        out[f"{BASIS}.d{k}_s"] = 0.0
    out[f"{BASIS}.failures"] = 0

    for i, (full, _, _, parent, ok, degree) in enumerate(spans):
        layer = full.split(".", 1)[0]
        out[f"{layer}.self_s"] += duration[i] - child[i]
        if full in COUNTED:
            out[f"{full}_calls"] += 1
        if full == BASIS and not ok:
            out[f"{BASIS}.failures"] += 1
        if full not in TIMED:
            continue
        while parent >= 0 and spans[parent][0] != full:
            parent = spans[parent][3]
        if parent >= 0:
            continue
        out[f"{full}_s"] += duration[i]
        if full == BASIS and 0 <= degree <= MAX_DEGREE:
            out[f"{BASIS}.d{degree}_s"] += duration[i]
    return out
