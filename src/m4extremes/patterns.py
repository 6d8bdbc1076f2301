"""Moving-pattern weight specifications for M4 random fields.

A specification assigns every lattice location a matrix of non-negative
weights ``a[pattern][lag]`` whose total is one; the matrix determines both
the field's simulation and all of its extremal dependence indices.  Weights
may be exact :class:`fractions.Fraction` values (rational mode, which keeps
every downstream index exact) or floats.

Two storage forms are supported: a list of predicate rules evaluated
first-match-wins over a rectangular domain, and an explicit per-location
table.  Both compile to distinct matrices plus a row index, by location or by
parity class (x mod 2, y mod 2).  The JSON wire format covers the rule form only.
"""

from __future__ import annotations

import hashlib
import json
import math
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

# Each predicate is the set of parity classes (x mod 2, y mod 2) that it matches: a rule
# spec compiles to a row per class, and `validate` meets every rule in use in a 2 x 2 corner.
PREDICATES: dict[str, frozenset[tuple[int, int]]] = {
    "always": frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
    "abscissa_even": frozenset({(0, 0), (0, 1)}),
    "both_odd": frozenset({(1, 1)}),
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
    rule applies at a location whose parity class the named predicate holds.
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


@dataclass(frozen=True)
class ValidationReport:
    """One text per problem, each naming where the spec writes the bad weights."""

    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems

    def __str__(self) -> str:
        return "; ".join(self.problems) or "valid"

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise SpecValidationError(str(self))


@dataclass(frozen=True)
class M4Spec:
    """Finite family of moving-pattern weights over a lattice domain.

    Immutable after construction; build through :meth:`from_rules` or
    :meth:`from_table`, which validate weights unless told not to.  Either
    form compiles to `matrices` (rule matrices in rule order, or distinct
    table matrices in order of first appearance) and an index to their rows, by
    table location or by parity class (x mod 2, y mod 2) to its first matching rule.
    """

    n_patterns: int
    m_min: int
    m_max: int
    domain: LatticeRect | None
    rules: tuple[PatternRule, ...] | None = None
    table: tuple[tuple[LatticePoint, PatternMatrix], ...] | None = None
    matrices: tuple[PatternMatrix, ...] = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

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
            object.__setattr__(self, "_index", {  # each parity class to its first rule
                xy: next(i for i, r in enumerate(self.rules) if xy in PREDICATES[r.predicate])
                for xy in PREDICATES["always"]})
            return
        entries = tuple(sorted(self.table, key=lambda e: e[0]))
        rows: dict[LatticePoint, int] = {}
        # keyed by repr, which keeps 1/2 apart from 0.5 and -0.0 apart from 0.0
        distinct: dict[str, tuple[int, PatternMatrix]] = {}
        for point, matrix in entries:
            got = (len(matrix), len(matrix[0]))
            if got != shape:
                raise ArgumentError(
                    f"table entry at {point} has shape {got}, expected {shape}"
                )
            if point in rows:
                raise ArgumentError(f"duplicate table point {point}")
            rows[point] = distinct.setdefault(repr(matrix), (len(distinct), matrix))[0]
        object.__setattr__(self, "table", entries)
        object.__setattr__(self, "matrices", tuple(m for _, m in distinct.values()))
        object.__setattr__(self, "_index", rows)

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
        if self.rules is None:
            return tuple(self._index)  # sorted table order
        return tuple(self.domain.points())

    def matrix_index(self, point: LatticePoint) -> int:
        """Row of `matrices` at `point`; DomainError outside the domain or off the lattice."""
        if self.rules is None:
            row = self._index.get(point)
            if row is None:
                raise DomainError(f"location {point} not in specification table")
            return row
        row = self._index.get((point.x % 2, point.y % 2)) if point in self.domain else None
        if row is None:  # also a point off the integer lattice, in no parity class
            raise DomainError(f"location {point} outside domain {self.domain}")
        return row

    def patterns_at(self, point: LatticePoint) -> PatternMatrix:
        """Weight matrix at `point`; raises DomainError outside the domain."""
        return self.matrices[self.matrix_index(point)]

    def as_float(self) -> "M4Spec":
        """A copy of this specification with all weights coerced to float."""

        def conv(matrix: PatternMatrix) -> tuple[tuple[float, ...], ...]:
            return tuple(tuple(float(w) for w in row) for row in matrix)

        if self.rules is None:
            return replace(self, table=tuple((p, conv(m)) for p, m in self.table))
        rules = tuple(PatternRule(r.predicate, conv(r.patterns)) for r in self.rules)
        return replace(self, rules=rules)

    @cached_property
    def _compiled(self) -> tuple[int | None, tuple[tuple, ...]]:
        """Each row of `matrices` flattened pattern-major over (pattern, lag) slots, as
        D and integers over D, the lcm of the denominators, when every weight is a
        `Fraction`, else None and the weights: the closed forms' rows, built on first use."""
        rows = tuple(sum(matrix, ()) for matrix in self.matrices)
        if not all(isinstance(w, Fraction) for row in rows for w in row):
            return None, rows
        scale = math.lcm(*(w.denominator for row in rows for w in row))
        return scale, tuple(tuple(int(w * scale) for w in row) for row in rows)

    @cached_property
    def _floats(self) -> tuple[tuple[float, ...], ...]:
        """Each row of `matrices` flattened pattern-major, in floats, as simulation
        reads them; built on first use, and never for a spec that is only validated."""
        return tuple(tuple(map(float, sum(matrix, ()))) for matrix in self.matrices)

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


def _matrix_problems(spec: M4Spec, matrix: PatternMatrix) -> list[str]:
    """The total of `matrix` if it is not one, then each negative entry, as texts."""
    problems = []
    total: Weight = Fraction(0)  # stays a Fraction while every weight is one
    for li, row in enumerate(matrix):
        for gi, w in enumerate(row):
            if w < 0:
                problems.append(f"negative weight {w} at pattern {li + 1}, lag {spec.m_min + gi}")
            total = total + w
    tolerance = 0 if isinstance(total, Fraction) else SUM_TOLERANCE
    if not abs(total - 1) <= tolerance:  # also a NaN total
        problems.insert(0, f"weights sum to {total}, expected 1")
    return problems


def validate(spec: M4Spec) -> ValidationReport:
    """Check non-negativity and sum-to-one of the weights at every location.

    Rational weights must sum to one exactly; a matrix holding a float weight
    is held to the 1e-12 tolerance instead.  Each distinct matrix is checked
    once and reported where the spec writes it: per bad rule as ``rule #i
    (predicate)``, ``i`` its index in the rule list, or per bad table location
    as ``location (x,y)``.  A bad rule that no domain location uses is not
    reported.  No domain is walked: a rule spec's index is by parity class
    (x mod 2, y mod 2), so the domain's first 2 x 2 corner meets every rule in use.
    """
    problems = [_matrix_problems(spec, m) for m in spec.matrices]
    if not any(problems):
        return ValidationReport()
    if spec.rules is None:
        named = [(f"location {point}", row) for point, row in spec._index.items()]
    else:
        d = spec.domain
        used = {spec.matrix_index(LatticePoint(x, y))
                for x in range(d.x_min, min(d.x_min + 2, d.x_max + 1))
                for y in range(d.y_min, min(d.y_min + 2, d.y_max + 1))}
        named = [(f"rule #{i} ({spec.rules[i].predicate})", i) for i in sorted(used)]
    return ValidationReport(tuple(f"{name}: {text}" for name, i in named for text in problems[i]))


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
    if name not in PRESETS:
        raise ArgumentError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    return PRESETS[name]()


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
        doc["table"] = [[p.x, p.y, _encode_matrix(m)] for p, m in spec.table]
        return doc
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
    except (KeyError, TypeError, ArgumentError) as exc:
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
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return from_json_dict(doc, check=check)
