"""Topological obstructions to geometric formality, over cohomology summaries.

A summary carries dimension, orientability, the Betti vector and (when the
dimension is a multiple of four) the middle-form data b+, b-, which only an
orientable summary can carry.  The checker consumes summaries rather than
complexes so manifolds without desk-scale triangulations can be fed
directly from JSON files.

Rules (all report every violation, not just the first):

  R1   b_k <= C(n, k) for every k               (torus bound, all degrees)
  R2   b+ and b- <= C(n, n/2)/2 when n = 4m     (torus bound, middle forms)
  R3   b_1 != n - 1                             (first Betti gap)
  R4   b_1 != 0 implies chi = 0, for n >= 3     (Euler rule)
  R5   b_1 * chi = 0 in dimension 2             (surface rule)
  R6   b_1 in {0, 1, 3} in dimension 3
  R7   b_1 in {0, 1, 2, 4} in dimension 4
  R8   dimension 4, b_1 = 2: b+ = b- = 1
  R9   dimension 4, b_1 = 1: b_2 = 0
  R10  dimension 4, b_1 = 0: b+ and b- odd or zero
  R11  dimension 4, b_1 = 0: b+ != 3 and b- != 3 (hence b+, b- in {0, 1})

Each rule is declared once, in ``_RULES``, with its scope (dimensions and,
for R8-R11, the value of b_1), whether it needs middle data, its check and
its citation.  ``check_obstructions`` walks that table in order: a rule out
of scope is skipped, a rule needing absent middle data is marked "not
evaluated", and any other rule fires when its check lists a violation.
The dimension-2 case is owned by R5, so R4 starts at dimension 3 and the
two never double-report the same failure.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Container
from dataclasses import asdict, dataclass, field, fields
from math import comb
from typing import NamedTuple

from .complexes import SimplicialComplex, is_closed_pseudomanifold, orient, read_json
from .cup import intersection_form
from .homology import betti_numbers

__all__ = [
    "CohomologySummary",
    "FiredRule",
    "ObstructionReport",
    "summarize",
    "check_obstructions",
    "classify_symmetric_model",
    "load_summary",
    "summary_to_dict",
]


def _require_integer(key: str, value) -> None:
    # integers only: no floats, strings or booleans (bool subclasses int)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must hold integers, not {value!r}")


@dataclass(frozen=True, eq=False)
class CohomologySummary:
    """Betti vector plus optional middle-form data for one manifold.  The
    constructor checks every field (a ValueError) and stores betti as a tuple."""

    dimension: int
    betti: tuple[int, ...]
    orientable: bool = True
    b_plus: int | None = None
    b_minus: int | None = None
    name: str = ""

    def __post_init__(self):
        n = self.dimension
        _require_integer("dimension", n)
        if not isinstance(self.betti, (list, tuple)):
            raise ValueError(f"'betti' must be a list of integers, not {self.betti!r}")
        object.__setattr__(self, "betti", tuple(self.betti))
        for b in self.betti:
            _require_integer("betti", b)
        for key in ("b_plus", "b_minus"):
            if getattr(self, key) is not None:
                _require_integer(key, getattr(self, key))
        if not isinstance(self.orientable, bool):
            raise ValueError(f"'orientable' must be true or false, not {self.orientable!r}")
        if not isinstance(self.name, str):
            raise ValueError(f"'name' must be a string, not {self.name!r}")
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        if len(self.betti) != n + 1:
            raise ValueError(
                f"betti vector has length {len(self.betti)}, expected {n + 1}"
            )
        if any(b < 0 for b in self.betti):
            raise ValueError("betti numbers must be nonnegative")
        if (self.b_plus is None) != (self.b_minus is None):
            raise ValueError("b_plus and b_minus must be supplied together")
        if self.b_plus is not None:
            if not self.orientable:
                raise ValueError("b_plus and b_minus need an orientable manifold")
            if n % 4 != 0:
                raise ValueError("middle-form data needs a dimension divisible by four")
            if self.b_plus < 0 or self.b_minus < 0:
                raise ValueError("b_plus and b_minus must be nonnegative")
            if self.b_plus + self.b_minus != self.betti[n // 2]:
                raise ValueError(
                    f"b_plus + b_minus = {self.b_plus + self.b_minus} "
                    f"must equal the middle Betti number {self.betti[n // 2]}"
                )

    @property
    def b1(self) -> int:
        return self.betti[1] if self.dimension >= 1 else 0

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))

    @property
    def signature(self) -> int | None:
        if self.b_plus is None:
            return None
        return self.b_plus - self.b_minus

    @property
    def has_middle_data(self) -> bool:
        return self.b_plus is not None


@dataclass(frozen=True, eq=False)
class FiredRule:
    rule: str
    citation: str
    violation: str


@dataclass(eq=False)
class ObstructionReport:
    verdict: str  # "obstructed" | "passes-elementary-tests"
    fired: list[FiredRule] = field(default_factory=list)
    not_evaluated: list[str] = field(default_factory=list)
    model: str | None = None

    @property
    def fired_ids(self) -> tuple[str, ...]:
        return tuple(r.rule for r in self.fired)

    def to_dict(self) -> dict:
        return asdict(self)


def _middle_ranks(s):
    return ("b+", s.b_plus), ("b-", s.b_minus)


def _torus_bound(s):
    n = s.dimension
    return [f"b_{k} = {b} > {comb(n, k)} = C({n},{k})"
            for k, b in enumerate(s.betti) if b > comb(n, k)]


def _middle_torus_bound(s):
    bound = comb(s.dimension, s.dimension // 2) // 2
    return [f"{label} = {v} > {bound}" for label, v in _middle_ranks(s) if v > bound]


def _euler_rule(s):
    chi = s.euler_characteristic
    return [f"b_1 = {s.b1} != 0 but chi = {chi} != 0"] if s.b1 != 0 and chi != 0 else []


def _surface_rule(s):
    chi = s.euler_characteristic
    return [f"b_1 * chi = {s.b1} * {chi} = {s.b1 * chi} != 0"] if s.b1 * chi != 0 else []


def _first_betti_in(*allowed: int):
    listed = "{" + ", ".join(map(str, allowed)) + "}"
    return lambda s: [] if s.b1 in allowed else [f"b_1 = {s.b1} not in {listed}"]


def _hyperbolic_middle(s):
    pair = (s.b_plus, s.b_minus)
    return [] if pair == (1, 1) else [f"(b+, b-) = {pair} != (1, 1)"]


def _odd_middle_ranks(s):
    return [f"{label} = {v} is even and nonzero"
            for label, v in _middle_ranks(s) if v != 0 and v % 2 == 0]


class _Rule(NamedTuple):
    """A rule is in scope when the dimension lies in ``dimensions`` and, if
    ``b1`` is set, the first Betti number equals it.  A rule that
    ``needs_middle`` is not evaluated without b+ and b-.  ``check`` lists
    the violations, which are joined with "; " when the rule fires."""

    rule_id: str
    dimensions: Container[int]
    b1: int | None
    needs_middle: bool
    check: Callable[[CohomologySummary], list[str]]
    citation: str


_ALL = sys.maxsize  # open upper end of a range of dimensions

_RULES = (
    _Rule("R1", range(_ALL), None, False, _torus_bound,
          "every degree-k Betti number is bounded by the k-th binomial "
          "coefficient C(n, k), the value attained by the n-torus"),
    _Rule("R2", range(4, _ALL, 4), None, True, _middle_torus_bound,
          "in dimension 4m the middle self-dual and anti-self-dual ranks are "
          "bounded by their torus values C(n, n/2)/2"),
    _Rule("R3", range(1, _ALL), None, False,
          lambda s: [f"b_1 = {s.b1} = n - 1"] if s.b1 == s.dimension - 1 else [],
          "the first Betti number can never equal n - 1 (a last independent "
          "harmonic 1-cochain would be forced, raising it to n)"),
    # starts at dimension 3: the surface rule below owns dimension 2
    _Rule("R4", range(3, _ALL), None, False, _euler_rule,
          "a nonzero first Betti number forces the Euler characteristic to "
          "vanish (harmonic 1-cochains of constant length have no zeros)"),
    _Rule("R5", (2,), None, False, _surface_rule,
          "for surfaces the product b_1 * chi must vanish"),
    _Rule("R6", (3,), None, False, _first_betti_in(0, 1, 3),
          "in dimension 3 the first Betti number lies in {0, 1, 3}"),
    _Rule("R7", (4,), None, False, _first_betti_in(0, 1, 2, 4),
          "in dimension 4 the first Betti number lies in {0, 1, 2, 4}"),
    _Rule("R8", (4,), 2, True, _hyperbolic_middle,
          "dimension 4 with b_1 = 2 forces an indefinite middle form with "
          "b+ = b- = 1 (the product of the two 1-classes squares to zero)"),
    _Rule("R9", (4,), 1, False,
          lambda s: [f"b_2 = {s.betti[2]} != 0"] if s.betti[2] != 0 else [],
          "dimension 4 with b_1 = 1 forces b_2 = 0 (the Euler characteristic "
          "vanishes and duality pairs the remaining degrees)"),
    _Rule("R10", (4,), 0, True, _odd_middle_ranks,
          "dimension 4 with b_1 = 0: a nonzero b+ (resp. b-) must be odd, "
          "since nowhere-zero middle forms induce almost complex structures"),
    _Rule("R11", (4,), 0, True,
          lambda s: [f"{label} = 3" for label, v in _middle_ranks(s) if v == 3],
          "dimension 4 with b_1 = 0: b+ = 3 and b- = 3 are impossible "
          "(the characteristic-number count 4 + 5*b+ - b- cannot vanish), "
          "leaving only the values 0 and 1"),
)


def check_obstructions(s: CohomologySummary) -> ObstructionReport:
    """Evaluate R1-R11 on a summary, in table order; fired rules carry the
    instantiated inequality.  Pure: identical summaries yield identical
    reports."""
    fired: list[FiredRule] = []
    not_evaluated: list[str] = []
    for rule in _RULES:
        if s.dimension not in rule.dimensions or rule.b1 not in (None, s.b1):
            continue
        if rule.needs_middle and not s.has_middle_data:
            not_evaluated.append(rule.rule_id)
        elif violations := rule.check(s):
            fired.append(FiredRule(rule.rule_id, rule.citation, "; ".join(violations)))
    report = ObstructionReport(
        verdict="obstructed" if fired else "passes-elementary-tests",
        fired=fired,
        not_evaluated=sorted(not_evaluated),
    )
    if not fired and s.dimension <= 4:
        report.model = classify_symmetric_model(s)
    return report


# The closed models with n <= 4, keyed by (dimension, Betti vector, (b+, b-));
# a None pair means the Betti vector alone decides, whatever b+ and b- are.
_MODELS = {
    (0, (1,), None): "point",
    (1, (1, 1), None): "S^1",
    (2, (1, 0, 1), None): "S^2",
    (2, (1, 2, 1), None): "T^2",
    (3, (1, 0, 0, 1), None): "S^3 (rational)",
    (3, (1, 1, 1, 1), None): "S^2 x S^1",
    (3, (1, 3, 3, 1), None): "T^3",
    (4, (1, 0, 0, 0, 1), None): "S^4 (rational)",
    (4, (1, 1, 0, 1, 1), None): "S^3 x S^1",
    (4, (1, 0, 1, 0, 1), (1, 0)): "CP^2",
    (4, (1, 0, 1, 0, 1), (0, 1)): "reversed CP^2",
    (4, (1, 0, 2, 0, 1), (1, 1)): "S^2 x S^2",
    (4, (1, 2, 2, 2, 1), (1, 1)): "S^2 x T^2",
    (4, (1, 4, 6, 4, 1), (3, 3)): "T^4",
}


def classify_symmetric_model(s: CohomologySummary) -> str | None:
    """Match a passing summary against the closed models with n <= 4.

    Every summary with n <= 4, b_0 = b_n = 1, a duality-symmetric Betti
    vector and full middle data that passes all rules matches exactly one
    entry; None is returned when the data is too incomplete to decide
    (e.g. dimension 4 with b_2 > 0 but no b+/b-), and for non-orientable
    summaries, since every model is orientable.
    """
    n = s.dimension
    if n > 4:
        raise ValueError("classification covers dimensions up to 4 only")
    if not s.orientable:
        return None
    pair = (s.b_plus, s.b_minus) if s.has_middle_data else None
    return _MODELS.get((n, s.betti, None)) or _MODELS.get((n, s.betti, pair))


def summarize(K: SimplicialComplex) -> CohomologySummary:
    """Assemble the summary of a closed oriented complex.  In dimension 4m
    the middle data b+, b- come exactly from the weight-free integer
    intersection form, and are left out when that form is degenerate."""
    if not is_closed_pseudomanifold(K):
        raise ValueError("summaries require a closed pseudomanifold")
    if orient(K) is None:
        raise ValueError("summaries require an orientable complex")
    n = K.dimension
    betti = betti_numbers(K)
    b_plus = b_minus = None
    if n > 0 and n % 4 == 0:
        form = intersection_form(K)
        if form.b_zero == 0:
            b_plus, b_minus = form.b_plus, form.b_minus
    return CohomologySummary(
        dimension=n,
        betti=betti,
        orientable=True,
        b_plus=b_plus,
        b_minus=b_minus,
        name=K.name,
    )


def summary_to_dict(s: CohomologySummary) -> dict:
    # b_plus and b_minus are None together, and then left out
    out = {key: value for key, value in asdict(s).items() if value is not None}
    return {**out, "betti": list(s.betti)}


def load_summary(path) -> CohomologySummary:
    """Read a summary JSON: {"name", "dimension", "betti", "orientable",
    "b_plus"?, "b_minus"?}.  Any other key is an error, since a misspelt
    key would otherwise drop its value and change the verdict."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if "dimension" not in payload or "betti" not in payload:
        raise ValueError(f"{path}: summary needs 'dimension' and a 'betti' list")
    unknown = sorted(set(payload) - {f.name for f in fields(CohomologySummary)})
    if unknown:
        raise ValueError(f"{path}: unknown summary keys {', '.join(map(repr, unknown))}")
    try:
        return CohomologySummary(**payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
