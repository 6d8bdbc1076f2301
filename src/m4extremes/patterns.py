"""Moving-pattern weight specifications for M4 random fields.

A specification assigns every lattice location a matrix of non-negative
weights ``a[pattern][lag]`` whose total is one; the matrix determines both
the field's simulation and all of its extremal dependence indices.  Weights
may be exact :class:`fractions.Fraction` values (rational mode, which keeps
every downstream index exact) or floats.

Two storage forms are supported: a list of predicate rules evaluated
first-match-wins over a rectangular domain, and an explicit per-location
table.  Both compile to one lookup, distinct matrices plus a location-to-row
index.  The JSON wire format covers the rule form only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .errors import ArgumentError, DomainError, ParseError, SpecValidationError
from .lattice import LatticePoint, LatticeRect

Weight = Fraction | float
PatternMatrix = tuple[tuple[Weight, ...], ...]

SUM_TOLERANCE = 1e-12

PREDICATES: dict[str, Callable[[LatticePoint], bool]] = {
    "always": lambda p: True,
    "abscissa_even": lambda p: p.x % 2 == 0,
    "both_odd": lambda p: p.x % 2 == 1 and p.y % 2 == 1,
}


def as_weight(value: Weight | int | str) -> Weight:
    """Normalize a raw weight: ints and 'p/q' strings become Fractions."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ArgumentError("booleans are not weights")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse weight {value!r}") from exc
    raise ArgumentError(f"unsupported weight type {type(value).__name__}")


def _normalize_matrix(raw: Iterable[Iterable[Weight | int | str]]) -> PatternMatrix:
    rows = tuple(raw)
    if any(isinstance(row, str) for row in rows):
        raise ArgumentError("a pattern row must be a list of weights, not a string")
    matrix = tuple(tuple(as_weight(w) for w in row) for row in rows)
    if not matrix or not matrix[0]:
        raise ArgumentError("pattern matrix must be non-empty")
    width = len(matrix[0])
    if any(len(row) != width for row in matrix):
        raise ArgumentError("pattern rows must all have the same length")
    return matrix


@dataclass(frozen=True)
class PatternRule:
    """One branch of a rule-based specification.

    `patterns` holds one row per signature pattern, one column per lag; the
    rule applies at a location when the named predicate matches it.
    """

    predicate: str
    patterns: PatternMatrix

    def __post_init__(self) -> None:
        if not isinstance(self.predicate, str) or self.predicate not in PREDICATES:
            raise ArgumentError(
                f"unknown predicate {self.predicate!r}; "
                f"expected one of {sorted(PREDICATES)}"
            )
        object.__setattr__(self, "patterns", _normalize_matrix(self.patterns))

    def matches(self, point: LatticePoint) -> bool:
        return PREDICATES[self.predicate](point)


@dataclass(frozen=True)
class SumViolation:
    location: LatticePoint
    total: Weight


@dataclass(frozen=True)
class NegativeEntry:
    pattern: int
    lag: int
    location: LatticePoint
    weight: Weight


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    sum_violations: tuple[SumViolation, ...] = ()
    negative_entries: tuple[NegativeEntry, ...] = ()

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        lines = []
        for v in self.sum_violations:
            lines.append(f"weights at {v.location} sum to {v.total}, expected 1")
        for e in self.negative_entries:
            lines.append(
                f"negative weight {e.weight} at pattern {e.pattern}, "
                f"lag {e.lag}, location {e.location}"
            )
        return "; ".join(lines)

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise SpecValidationError(str(self))


@dataclass(frozen=True)
class M4Spec:
    """Finite family of moving-pattern weights over a lattice domain.

    Immutable after construction; build through :meth:`from_rules` or
    :meth:`from_table`, which validate weights unless told not to.  Either
    form compiles to `matrices` (rule matrices in rule order, or distinct
    table matrices in order of first appearance) and :meth:`matrix_index`.
    """

    n_patterns: int
    m_min: int
    m_max: int
    domain: LatticeRect | None
    rules: tuple[PatternRule, ...] | None = None
    table: tuple[tuple[LatticePoint, PatternMatrix], ...] | None = None
    matrices: tuple[PatternMatrix, ...] = field(init=False, repr=False, compare=False)
    _table_rows: dict | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_patterns < 1:
            raise ArgumentError("need at least one signature pattern")
        if self.m_min > self.m_max:
            raise ArgumentError("empty lag range")
        if (self.rules is None) == (self.table is None):
            raise ArgumentError("exactly one of rules/table must be given")
        shape = (self.n_patterns, self.lag_count)
        if self.rules is not None:
            if self.domain is None:
                raise ArgumentError("rule-based specifications need a domain")
            if not self.rules or self.rules[-1].predicate != "always":
                raise ArgumentError("the final rule must have predicate 'always'")
            for rule in self.rules:
                got = (len(rule.patterns), len(rule.patterns[0]))
                if got != shape:
                    raise ArgumentError(
                        f"rule patterns have shape {got}, expected {shape}"
                    )
            object.__setattr__(self, "matrices", tuple(r.patterns for r in self.rules))
            object.__setattr__(self, "_table_rows", None)
            return
        assert self.table is not None
        entries = tuple(sorted(self.table, key=lambda e: e[0]))
        rows: dict[LatticePoint, int] = {}
        # keyed by repr, which keeps 1/2 apart from 0.5 and -0.0 apart from 0.0
        distinct: dict[str, int] = {}
        matrices: list[PatternMatrix] = []
        for point, matrix in entries:
            got = (len(matrix), len(matrix[0]))
            if got != shape:
                raise ArgumentError(
                    f"table entry at {point} has shape {got}, expected {shape}"
                )
            if point in rows:
                raise ArgumentError(f"duplicate table point {point}")
            key = repr(matrix)
            if key not in distinct:
                distinct[key] = len(matrices)
                matrices.append(matrix)
            rows[point] = distinct[key]
        object.__setattr__(self, "table", entries)
        object.__setattr__(self, "matrices", tuple(matrices))
        object.__setattr__(self, "_table_rows", rows)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rules(
        cls,
        n_patterns: int,
        m_min: int,
        m_max: int,
        domain: LatticeRect,
        rules: Iterable[PatternRule],
        *,
        check: bool = True,
    ) -> "M4Spec":
        spec = cls(n_patterns, m_min, m_max, domain, rules=tuple(rules))
        if check:
            validate(spec).raise_if_invalid()
        return spec

    @classmethod
    def from_table(
        cls,
        n_patterns: int,
        m_min: int,
        m_max: int,
        entries: Mapping[LatticePoint, Iterable[Iterable[Weight | int | str]]],
        *,
        check: bool = True,
    ) -> "M4Spec":
        table = tuple(
            (point, _normalize_matrix(matrix)) for point, matrix in entries.items()
        )
        spec = cls(n_patterns, m_min, m_max, None, table=table)
        if check:
            validate(spec).raise_if_invalid()
        return spec

    # -- interrogation -----------------------------------------------------

    @property
    def lag_count(self) -> int:
        return self.m_max - self.m_min + 1

    def domain_points(self) -> tuple[LatticePoint, ...]:
        if self._table_rows is not None:
            return tuple(self._table_rows)  # sorted table order
        assert self.domain is not None
        return tuple(self.domain.points())

    def matrix_index(self, point: LatticePoint) -> int:
        """Row of `matrices` holding the weights at `point`; DomainError outside."""
        if self._table_rows is not None:
            row = self._table_rows.get(point)
            if row is None:
                raise DomainError(f"location {point} not in specification table")
            return row
        assert self.domain is not None and self.rules is not None
        if point not in self.domain:
            raise DomainError(f"location {point} outside domain {self.domain}")
        return next(i for i, rule in enumerate(self.rules) if rule.matches(point))

    def patterns_at(self, point: LatticePoint) -> PatternMatrix:
        """Weight matrix at `point`; raises DomainError outside the domain."""
        return self.matrices[self.matrix_index(point)]

    def as_float(self) -> "M4Spec":
        """A copy of this specification with all weights coerced to float."""

        def conv(matrix: PatternMatrix) -> tuple[tuple[float, ...], ...]:
            return tuple(tuple(float(w) for w in row) for row in matrix)

        if self.rules is None:
            assert self.table is not None
            return replace(self, table=tuple((p, conv(m)) for p, m in self.table))
        rules = tuple(PatternRule(r.predicate, conv(r.patterns)) for r in self.rules)
        return replace(self, rules=rules)

    def fingerprint(self) -> str:
        """Stable 64-bit content hash of the specification (hex)."""
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        payload = json.dumps(
            _canonical_dict(self), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


# -- validation -------------------------------------------------------------


def _matrix_problems(
    spec: M4Spec, matrix: PatternMatrix
) -> tuple[Weight | None, list[tuple[int, int, Weight]]]:
    """The total of `matrix` if it is not one, and its negative entries."""
    negatives = []
    total: Weight = Fraction(0)
    exact = True
    for li, row in enumerate(matrix):
        for gi, w in enumerate(row):
            if not isinstance(w, Fraction):
                exact = False
            if w < 0:
                negatives.append((li + 1, spec.m_min + gi, w))
            total = total + w
    if exact:
        bad_sum = total != 1
    else:
        bad_sum = not abs(total - 1) <= SUM_TOLERANCE  # also a NaN total
    return (total if bad_sum else None), negatives


def validate(spec: M4Spec) -> ValidationReport:
    """Check non-negativity and per-location sum-to-one over the domain.

    Rational weights must sum to one exactly; any location containing a
    float weight is held to the 1e-12 tolerance instead.  Every violating
    location is reported.  Each distinct matrix is checked once; a bad
    matrix that no domain location uses is not reported.
    """
    problems = [_matrix_problems(spec, m) for m in spec.matrices]
    if not any(total is not None or negs for total, negs in problems):
        return ValidationReport(ok=True)
    sums: list[SumViolation] = []
    negatives: list[NegativeEntry] = []
    for point in spec.domain_points():
        total, negs = problems[spec.matrix_index(point)]
        if total is not None:
            sums.append(SumViolation(point, total))
        negatives.extend(NegativeEntry(li, lag, point, w) for li, lag, w in negs)
    return ValidationReport(
        ok=not sums and not negatives,
        sum_violations=tuple(sums),
        negative_entries=tuple(negatives),
    )


# -- presets ----------------------------------------------------------------

_DEFAULT_DOMAIN = LatticeRect(-10, 10, -10, 10)


def preset_one_pattern() -> M4Spec:
    """Single signature pattern over two lags, branching on abscissa parity.

    Even-abscissa sites put weight (4/5, 1/5) on the lags; all other sites
    put (1/4, 3/4).
    """
    rules = (
        PatternRule("abscissa_even", ((Fraction(4, 5), Fraction(1, 5)),)),
        PatternRule("always", ((Fraction(1, 4), Fraction(3, 4)),)),
    )
    return M4Spec.from_rules(1, 1, 2, _DEFAULT_DOMAIN, rules)


def preset_two_pattern() -> M4Spec:
    """Two signature patterns over three lags, branching on both-odd parity.

    Sites with both coordinates odd weigh the patterns (1/5, 1/5, 1/5) and
    (1/10, 1/10, 1/5); all other sites use (1/4, 1/8, 1/8) and
    (1/6, 1/6, 1/6).
    """
    rules = (
        PatternRule(
            "both_odd",
            (
                (Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)),
                (Fraction(1, 10), Fraction(1, 10), Fraction(1, 5)),
            ),
        ),
        PatternRule(
            "always",
            (
                (Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)),
                (Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
            ),
        ),
    )
    return M4Spec.from_rules(2, 1, 3, _DEFAULT_DOMAIN, rules)


PRESETS: dict[str, Callable[[], M4Spec]] = {
    "one-pattern": preset_one_pattern,
    "two-pattern": preset_two_pattern,
}


def preset(name: str) -> M4Spec:
    try:
        builder = PRESETS[name]
    except KeyError:
        raise ArgumentError(
            f"unknown preset {name!r}; expected one of {sorted(PRESETS)}"
        ) from None
    return builder()


# -- JSON wire format --------------------------------------------------------


def _encode_weight(w: Weight) -> str | float:
    if isinstance(w, Fraction):
        return f"{w.numerator}/{w.denominator}"
    return float(w)


def _encode_matrix(matrix: PatternMatrix) -> list[list[str | float]]:
    return [[_encode_weight(w) for w in row] for row in matrix]


def _canonical_dict(spec: M4Spec) -> dict:
    doc: dict = {"L": spec.n_patterns, "m_min": spec.m_min, "m_max": spec.m_max}
    if spec.rules is None:
        assert spec.table is not None
        doc["table"] = [[p.x, p.y, _encode_matrix(m)] for p, m in spec.table]
        return doc
    assert spec.domain is not None
    doc["domain"] = asdict(spec.domain)  # x_min, x_max, y_min, y_max
    doc["rules"] = [
        {"predicate": r.predicate, "patterns": _encode_matrix(r.patterns)}
        for r in spec.rules
    ]
    return doc


def to_json_dict(spec: M4Spec) -> dict:
    """JSON document for a rule-based specification (the wire format)."""
    if spec.rules is None:
        raise ArgumentError("table-backed specifications have no JSON form")
    return _canonical_dict(spec)


def _json_int(doc: Mapping, key: str) -> int:
    """`doc[key]`, which must be a JSON integer: not a bool, float or string."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    return value


def from_json_dict(doc: Mapping, *, check: bool = True) -> M4Spec:
    try:
        n_patterns, m_min, m_max = (_json_int(doc, key) for key in ("L", "m_min", "m_max"))
        dom = doc["domain"]
        domain = LatticeRect(*(_json_int(dom, k) for k in ("x_min", "x_max", "y_min", "y_max")))
        raw_rules = doc["rules"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed specification document: {exc}") from exc
    if not isinstance(raw_rules, list) or not raw_rules:
        raise ParseError("'rules' must be a non-empty list")
    rules = []
    for i, raw in enumerate(raw_rules):
        try:
            rules.append(PatternRule(raw["predicate"], raw["patterns"]))
        except (KeyError, TypeError, ArgumentError) as exc:
            raise ParseError(f"malformed rule #{i}: {exc}") from exc
    try:
        return M4Spec.from_rules(
            n_patterns, m_min, m_max, domain, rules, check=check
        )
    except ArgumentError as exc:
        raise ParseError(str(exc)) from exc


def dump_spec(spec: M4Spec) -> str:
    return json.dumps(to_json_dict(spec), indent=2) + "\n"


def load_spec(path: str | Path, *, check: bool = True) -> M4Spec:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return from_json_dict(doc, check=check)
