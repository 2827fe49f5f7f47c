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

Rules needing middle data are marked "not evaluated" when it is absent.
The dimension-2 case is owned by R5, so R4 starts at dimension 3 and the
two never double-report the same failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

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


@dataclass(frozen=True, eq=False)
class CohomologySummary:
    """Betti vector plus optional middle-form data for one manifold."""

    dimension: int
    betti: tuple[int, ...]
    orientable: bool = True
    b_plus: int | None = None
    b_minus: int | None = None
    name: str = ""

    def __post_init__(self):
        n = self.dimension
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
            if n % 2 != 0:
                raise ValueError("middle-form data needs an even dimension")
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
    rule_id: str
    citation: str
    violation: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "citation": self.citation,
            "violation": self.violation,
        }


@dataclass(eq=False)
class ObstructionReport:
    verdict: str  # "obstructed" | "passes-elementary-tests"
    fired: list[FiredRule] = field(default_factory=list)
    not_evaluated: list[str] = field(default_factory=list)
    model: str | None = None

    @property
    def fired_ids(self) -> tuple[str, ...]:
        return tuple(r.rule_id for r in self.fired)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "fired": [r.to_dict() for r in self.fired],
            "not_evaluated": list(self.not_evaluated),
            "model": self.model,
        }


_CITATIONS = {
    "R1": "every degree-k Betti number is bounded by the k-th binomial "
    "coefficient C(n, k), the value attained by the n-torus",
    "R2": "in dimension 4m the middle self-dual and anti-self-dual ranks are "
    "bounded by their torus values C(n, n/2)/2",
    "R3": "the first Betti number can never equal n - 1 (a last independent "
    "harmonic 1-cochain would be forced, raising it to n)",
    "R4": "a nonzero first Betti number forces the Euler characteristic to "
    "vanish (harmonic 1-cochains of constant length have no zeros)",
    "R5": "for surfaces the product b_1 * chi must vanish",
    "R6": "in dimension 3 the first Betti number lies in {0, 1, 3}",
    "R7": "in dimension 4 the first Betti number lies in {0, 1, 2, 4}",
    "R8": "dimension 4 with b_1 = 2 forces an indefinite middle form with "
    "b+ = b- = 1 (the product of the two 1-classes squares to zero)",
    "R9": "dimension 4 with b_1 = 1 forces b_2 = 0 (the Euler characteristic "
    "vanishes and duality pairs the remaining degrees)",
    "R10": "dimension 4 with b_1 = 0: a nonzero b+ (resp. b-) must be odd, "
    "since nowhere-zero middle forms induce almost complex structures",
    "R11": "dimension 4 with b_1 = 0: b+ = 3 and b- = 3 are impossible "
    "(the characteristic-number count 4 + 5*b+ - b- cannot vanish), "
    "leaving only the values 0 and 1",
}

def check_obstructions(s: CohomologySummary) -> ObstructionReport:
    """Evaluate R1-R11 on a summary; fired rules carry the instantiated
    inequality.  Pure: identical summaries yield identical reports."""
    n = s.dimension
    b = s.betti
    chi = s.euler_characteristic
    fired: list[FiredRule] = []
    not_evaluated: list[str] = []

    def fire(rule_id: str, violation: str) -> None:
        fired.append(FiredRule(rule_id, _CITATIONS[rule_id], violation))

    def middle_guard(rule_id: str) -> bool:
        if s.has_middle_data:
            return True
        not_evaluated.append(rule_id)
        return False

    # R1
    bad = [k for k in range(n + 1) if b[k] > comb(n, k)]
    if bad:
        fire(
            "R1",
            "; ".join(f"b_{k} = {b[k]} > {comb(n, k)} = C({n},{k})" for k in bad),
        )

    # R2
    if n > 0 and n % 4 == 0:
        if middle_guard("R2"):
            bound = comb(n, n // 2) // 2
            bad2 = [
                (label, value)
                for label, value in (("b+", s.b_plus), ("b-", s.b_minus))
                if value > bound
            ]
            if bad2:
                fire(
                    "R2",
                    "; ".join(f"{lbl} = {v} > {bound}" for lbl, v in bad2),
                )

    # R3
    if n >= 1 and s.b1 == n - 1:
        fire("R3", f"b_1 = {s.b1} = n - 1")

    # R4 (dimension >= 3; dimension 2 is owned by R5)
    if n >= 3 and s.b1 != 0 and chi != 0:
        fire("R4", f"b_1 = {s.b1} != 0 but chi = {chi} != 0")

    # R5
    if n == 2 and s.b1 * chi != 0:
        fire("R5", f"b_1 * chi = {s.b1} * {chi} = {s.b1 * chi} != 0")

    # R6
    if n == 3 and s.b1 not in (0, 1, 3):
        fire("R6", f"b_1 = {s.b1} not in {{0, 1, 3}}")

    # R7
    if n == 4 and s.b1 not in (0, 1, 2, 4):
        fire("R7", f"b_1 = {s.b1} not in {{0, 1, 2, 4}}")

    # R8
    if n == 4 and s.b1 == 2:
        if middle_guard("R8") and not (s.b_plus == 1 and s.b_minus == 1):
            fire("R8", f"(b+, b-) = ({s.b_plus}, {s.b_minus}) != (1, 1)")

    # R9
    if n == 4 and s.b1 == 1 and b[2] != 0:
        fire("R9", f"b_2 = {b[2]} != 0")

    # R10
    if n == 4 and s.b1 == 0:
        if middle_guard("R10"):
            bad10 = [
                (label, value)
                for label, value in (("b+", s.b_plus), ("b-", s.b_minus))
                if value != 0 and value % 2 == 0
            ]
            if bad10:
                fire(
                    "R10",
                    "; ".join(f"{lbl} = {v} is even and nonzero" for lbl, v in bad10),
                )

    # R11
    if n == 4 and s.b1 == 0:
        if middle_guard("R11"):
            bad11 = [
                (label, value)
                for label, value in (("b+", s.b_plus), ("b-", s.b_minus))
                if value == 3
            ]
            if bad11:
                fire("R11", "; ".join(f"{lbl} = 3" for lbl, _ in bad11))

    report = ObstructionReport(
        verdict="obstructed" if fired else "passes-elementary-tests",
        fired=fired,
        not_evaluated=sorted(set(not_evaluated)),
    )
    if not fired and n <= 4:
        report.model = classify_symmetric_model(s)
    return report


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
    b = s.betti
    if n == 0:
        return "point" if b == (1,) else None
    if n == 1:
        return "S^1" if b == (1, 1) else None
    if n == 2:
        return {(1, 0, 1): "S^2", (1, 2, 1): "T^2"}.get(b)
    if n == 3:
        return {
            (1, 0, 0, 1): "S^3 (rational)",
            (1, 1, 1, 1): "S^2 x S^1",
            (1, 3, 3, 1): "T^3",
        }.get(b)
    # n == 4
    if b == (1, 0, 0, 0, 1):
        return "S^4 (rational)"
    if b == (1, 1, 0, 1, 1):
        return "S^3 x S^1"
    if not s.has_middle_data:
        return None
    pair = (s.b_plus, s.b_minus)
    if b == (1, 0, 1, 0, 1):
        return {(1, 0): "CP^2", (0, 1): "reversed CP^2"}.get(pair)
    if b == (1, 0, 2, 0, 1) and pair == (1, 1):
        return "S^2 x S^2"
    if b == (1, 2, 2, 2, 1) and pair == (1, 1):
        return "S^2 x T^2"
    if b == (1, 4, 6, 4, 1) and pair == (3, 3):
        return "T^4"
    return None


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
    out = {
        "name": s.name,
        "dimension": s.dimension,
        "betti": list(s.betti),
        "orientable": s.orientable,
    }
    if s.has_middle_data:
        out["b_plus"] = s.b_plus
        out["b_minus"] = s.b_minus
    return out


def load_summary(path) -> CohomologySummary:
    """Read a summary JSON: {"name", "dimension", "betti", "orientable",
    "b_plus"?, "b_minus"?}."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if "dimension" not in payload or not isinstance(payload.get("betti"), list):
        raise ValueError(f"{path}: summary needs 'dimension' and a 'betti' list")

    def integer(key, value):
        # JSON integers only: no floats, strings or booleans
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{path}: {key!r} must hold JSON integers, not {value!r}")
        return value

    dimension = integer("dimension", payload["dimension"])
    betti = tuple(integer("betti", x) for x in payload["betti"])
    b_plus, b_minus = (
        None if payload.get(key) is None else integer(key, payload[key])
        for key in ("b_plus", "b_minus")
    )
    orientable = payload.get("orientable", True)
    if not isinstance(orientable, bool):
        raise ValueError(f"{path}: 'orientable' must be true or false")
    name = payload.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"{path}: 'name' must be a string")
    return CohomologySummary(
        dimension=dimension,
        betti=betti,
        orientable=orientable,
        b_plus=b_plus,
        b_minus=b_minus,
        name=name,
    )
