import dataclasses
import hashlib
import json
import math
from fractions import Fraction as F

import pytest

from m4extremes import (
    ArgumentError,
    DomainError,
    LatticePoint,
    LatticeRect,
    M4Spec,
    ParseError,
    PatternRule,
    SpecValidationError,
    dump_spec,
    from_json_dict,
    load_spec,
    neighbors,
    preset,
    simulate_m4,
    to_json_dict,
    validate,
)
from m4extremes.patterns import as_weight
from m4extremes.patterns import NegativeEntry, SumViolation, ValidationReport, _canonical_dict
from conftest import raises_exactly, table_spec

P = LatticePoint


def all_fractions(spec: M4Spec) -> bool:
    """Every weight is a Fraction (rational mode)."""
    return all(isinstance(w, F) for matrix in spec.matrices for row in matrix for w in row)


class TestPresets:
    def test_one_pattern_coefficients(self, one_pattern_spec):
        # rows are patterns, columns are lags m_min..m_max (here 1..2)
        assert one_pattern_spec.patterns_at(P(4, 3)) == ((F(4, 5), F(1, 5)),)
        assert one_pattern_spec.patterns_at(P(3, 3)) == ((F(1, 4), F(3, 4)),)

    def test_two_pattern_coefficients(self, two_pattern_spec):
        # [pattern - 1][lag - 1]; both coordinates odd
        odd = two_pattern_spec.patterns_at(P(3, 3))
        assert odd[1][2] == F(1, 5)
        assert odd[1][1] == F(1, 10)
        assert odd[0][0] == F(1, 5)
        # everything else
        other = two_pattern_spec.patterns_at(P(2, 4))
        assert other[0][0] == F(1, 4)
        assert other[1][0] == F(1, 6)

    def test_presets_validate(self, one_pattern_spec, two_pattern_spec):
        assert validate(one_pattern_spec).ok
        assert validate(two_pattern_spec).ok
        assert all_fractions(one_pattern_spec)
        assert all_fractions(two_pattern_spec)

    def test_float_variants_validate(self):
        for name in ("one-pattern", "two-pattern"):
            spec = preset(name).as_float()
            assert not all_fractions(spec)
            assert validate(spec).ok

    def test_preset_unknown_name(self):
        with pytest.raises(ArgumentError):
            preset("no-such-preset")


class TestCoefficientLookup:
    def test_matrix_shape_is_patterns_by_lags(self, one_pattern_spec, two_pattern_spec):
        for spec in (one_pattern_spec, two_pattern_spec):
            matrix = spec.patterns_at(P(4, 3))
            assert len(matrix) == spec.n_patterns
            assert all(len(row) == spec.m_max - spec.m_min + 1 for row in matrix)

    def test_outside_domain_raises(self, one_pattern_spec):
        with pytest.raises(DomainError):
            one_pattern_spec.patterns_at(P(99, 0))
        with pytest.raises(DomainError):
            one_pattern_spec.patterns_at(P(0, -99))

    def test_first_matching_rule_wins(self, one_pattern_spec):
        assert one_pattern_spec.patterns_at(P(4, 3))[0][0] == F(4, 5)
        assert one_pattern_spec.patterns_at(P(3, 3))[0][0] == F(1, 4)


class TestValidation:
    def test_perturbed_sum_reports_location(self):
        spec = M4Spec.from_table(
            1,
            1,
            2,
            {P(0, 0): [[F(1, 2), F(1, 2)]], P(1, 0): [[F(1, 2), F(2, 5)]]},
            check=False,
        )
        report = validate(spec)
        assert not report.ok
        assert len(report.sum_violations) == 1
        violation = report.sum_violations[0]
        assert violation.location == P(1, 0)
        assert violation.total == F(9, 10)
        with pytest.raises(SpecValidationError):
            report.raise_if_invalid()

    def test_negative_weight_reported(self):
        spec = M4Spec.from_table(
            1, 1, 2, {P(0, 0): [[F(11, 10), F(-1, 10)]]}, check=False
        )
        report = validate(spec)
        assert not report.ok
        entry = report.negative_entries[0]
        assert (entry.pattern, entry.lag, entry.location) == (1, 2, P(0, 0))
        assert entry.weight == F(-1, 10)

    def test_factories_check_by_default(self):
        with pytest.raises(SpecValidationError):
            M4Spec.from_table(1, 1, 1, {P(0, 0): [[F(1, 2)]]})

    def test_float_tolerance(self):
        ok = M4Spec.from_table(1, 1, 3, {P(0, 0): [[0.2, 0.3, 0.5]]})
        assert validate(ok).ok
        bad = M4Spec.from_table(1, 1, 2, {P(0, 0): [[0.5, 0.5 + 1e-9]]}, check=False)
        assert not validate(bad).ok


class TestStructure:
    def test_final_rule_must_be_always(self):
        rule = PatternRule("abscissa_even", ((F(1, 2), F(1, 2)),))
        with pytest.raises(ArgumentError):
            M4Spec.from_rules(1, 1, 2, LatticeRect(0, 1, 0, 1), (rule,))

    def test_pattern_shape_must_match(self):
        rule = PatternRule("always", ((F(1, 1),),))
        with pytest.raises(ArgumentError):
            M4Spec.from_rules(1, 1, 2, LatticeRect(0, 1, 0, 1), (rule,))

    def test_unknown_predicate(self):
        with pytest.raises(ArgumentError):
            PatternRule("every_other_tuesday", ((F(1, 1),),))

    def test_duplicate_table_point_rejected(self):
        point = P(0, 0)
        table = ((point, ((F(1, 2), F(1, 2)),)), (point, ((F(1, 4), F(3, 4)),)))
        with pytest.raises(ArgumentError, match=r"duplicate table point \(0,0\)"):
            M4Spec(1, 1, 2, None, table=table)

    def test_rules_or_table_exactly_one(self):
        with pytest.raises(ArgumentError):
            M4Spec(1, 1, 1, LatticeRect(0, 0, 0, 0))


class TestJson:
    def test_round_trip_is_idempotent(self, one_pattern_spec, two_pattern_spec, tmp_path):
        for spec in (one_pattern_spec, two_pattern_spec):
            path = tmp_path / "spec.json"
            path.write_text(dump_spec(spec))
            loaded = load_spec(path)
            assert loaded == spec
            assert dump_spec(loaded) == dump_spec(spec)
            assert loaded.fingerprint() == spec.fingerprint()

    def test_fraction_strings_parse_exactly(self):
        doc = {
            "L": 1,
            "m_min": 1,
            "m_max": 2,
            "domain": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
            "rules": [{"predicate": "always", "patterns": [["4/5", "1/5"]]}],
        }
        spec = from_json_dict(doc)
        assert spec.patterns_at(P(0, 0))[0][0] == F(4, 5)
        assert all_fractions(spec)

    def test_decimal_weights_are_floats(self):
        doc = {
            "L": 1,
            "m_min": 1,
            "m_max": 2,
            "domain": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
            "rules": [{"predicate": "always", "patterns": [[0.8, 0.2]]}],
        }
        spec = from_json_dict(doc)
        assert not all_fractions(spec)
        assert spec.patterns_at(P(0, 0))[0][0] == 0.8

    def test_missing_final_always_rejected(self):
        doc = {
            "L": 1,
            "m_min": 1,
            "m_max": 1,
            "domain": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
            "rules": [{"predicate": "abscissa_even", "patterns": [["1/1"]]}],
        }
        with pytest.raises(ParseError):
            from_json_dict(doc)

    def test_malformed_documents(self, tmp_path):
        with pytest.raises(ParseError):
            from_json_dict({"L": 1})
        with pytest.raises(ParseError):
            from_json_dict(
                {
                    "L": 1,
                    "m_min": 1,
                    "m_max": 1,
                    "domain": {"x_min": 0, "x_max": 0, "y_min": 0, "y_max": 0},
                    "rules": [{"predicate": "always", "patterns": [["1/0"]]}],
                }
            )
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ParseError):
            load_spec(bad)
        missing = tmp_path / "missing.json"
        with pytest.raises(ParseError):
            load_spec(missing)

    @pytest.mark.parametrize("field", ["L", "m_min", "m_max", "x_min", "x_max", "y_min", "y_max"])
    @pytest.mark.parametrize("value", [1.9, 1.0, True, "2", None])
    def test_integer_fields_must_be_json_integers(self, field, value):
        doc = json.loads(dump_spec(preset("one-pattern")))
        (doc["domain"] if field in doc["domain"] else doc)[field] = value
        message = f"malformed specification document: {field!r} must be an integer, got {value!r}"
        with raises_exactly(ParseError, message):
            from_json_dict(doc)

    def test_rules_not_a_list(self):
        for rules in ([], {"predicate": "always"}):
            doc = {**json.loads(dump_spec(preset("one-pattern"))), "rules": rules}
            with raises_exactly(ParseError, "'rules' must be a non-empty list"):
                from_json_dict(doc)

    def test_top_level_value_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with raises_exactly(ParseError, f"{path}: top-level JSON value must be an object"):
            load_spec(path)

    def test_spec_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"L": "\xff"}')
        message = "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"
        with raises_exactly(ParseError, f"cannot read {path}: {message}"):
            load_spec(path)

    def test_table_specs_have_no_json_form(self):
        spec = M4Spec.from_table(1, 1, 1, {P(0, 0): [[F(1, 1)]]})
        with pytest.raises(ArgumentError):
            to_json_dict(spec)

    def test_json_matches_documented_schema(self, one_pattern_spec):
        doc = json.loads(dump_spec(one_pattern_spec))
        assert set(doc) == {"L", "m_min", "m_max", "domain", "rules"}
        assert doc["rules"][-1]["predicate"] == "always"
        assert doc["rules"][0]["patterns"] == [["4/5", "1/5"]]


class TestFingerprint:
    def test_stable_and_sensitive(self, one_pattern_spec):
        fp = one_pattern_spec.fingerprint()
        assert fp == preset("one-pattern").fingerprint()
        assert len(fp) == 16
        assert fp != preset("two-pattern").fingerprint()
        assert fp != preset("one-pattern").as_float().fingerprint()

    def test_table_fingerprint_order_independent(self):
        a = M4Spec.from_table(1, 1, 1, {P(0, 0): [[1]], P(1, 0): [[1]]})
        b = M4Spec.from_table(1, 1, 1, {P(1, 0): [[1]], P(0, 0): [[1]]})
        assert a.fingerprint() == b.fingerprint()

    @staticmethod
    def fresh_fingerprint(spec):
        payload = json.dumps(_canonical_dict(spec), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]

    def specs(self):
        """Specs and copies; each copy is made after its original's hash is
        cached, and two copies change the content."""
        one, two, table = preset("one-pattern"), preset("two-pattern"), table_spec(3)
        for spec in (one, two, table):
            yield spec
            yield spec.as_float()
            yield dataclasses.replace(spec)
        yield dataclasses.replace(one, rules=one.rules[-1:])
        yield dataclasses.replace(table, table=table.table[:4])

    def test_cached_value_is_the_canonical_hash(self):
        hashes = set()
        for spec in self.specs():
            hashes.add(spec.fingerprint())
            assert spec.fingerprint() == self.fresh_fingerprint(spec)
        assert len(hashes) == 8  # 3 specs, 3 float copies, 2 changed copies

    def test_simulation_hashes_each_spec_once(self, monkeypatch):
        calls = []
        real = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(1) or real(*a, **k))
        ring = neighbors(P(3, 3))
        for spec in (preset("one-pattern"), preset("two-pattern").as_float(), table_spec(3)):
            points = ring if spec.table is None else spec.domain_points()
            calls.clear()
            samples = [simulate_m4(spec, points, 3, seed) for seed in range(4)]
            assert len(calls) == 1
            assert {s.spec_fingerprint for s in samples} == {self.fresh_fingerprint(spec)}


def test_domain_points_row_major(one_pattern_spec):
    pts = one_pattern_spec.domain_points()
    assert len(pts) == 21 * 21
    assert pts[0] == P(-10, -10)
    assert pts[-1] == P(10, 10)


def test_per_location_totals_are_one(one_pattern_spec, two_pattern_spec):
    for spec in (one_pattern_spec, two_pattern_spec):
        for point in (P(0, 0), P(3, 3), P(-1, 2), P(2, -2)):
            total = sum(w for row in spec.patterns_at(point) for w in row)
            assert total == 1


class TestCompiledMatrices:
    def test_rule_matrices_in_rule_order(self, two_pattern_spec):
        assert two_pattern_spec.matrices == tuple(r.patterns for r in two_pattern_spec.rules)
        assert two_pattern_spec.matrix_index(P(3, 3)) == 0
        assert two_pattern_spec.matrix_index(P(2, 3)) == 1
        with pytest.raises(DomainError):
            two_pattern_spec.matrix_index(P(11, 0))

    def test_table_matrices_distinct_in_first_appearance_order(self):
        a, b = [[F(1, 2), F(1, 2)]], [[F(1, 4), F(3, 4)]]
        spec = M4Spec.from_table(1, 1, 2, {P(2, 0): a, P(0, 0): b, P(1, 0): b, P(3, 0): a})
        assert spec.matrices == (((F(1, 4), F(3, 4)),), ((F(1, 2), F(1, 2)),))
        assert [spec.matrix_index(p) for p in spec.domain_points()] == [0, 0, 1, 1]
        with pytest.raises(DomainError):
            spec.matrix_index(P(4, 0))

    def test_equal_values_of_different_types_stay_apart(self):
        spec = M4Spec.from_table(
            1, 1, 2, {P(0, 0): [[F(1, 2), F(1, 2)]], P(1, 0): [[0.5, 0.5]],
                      P(2, 0): [[0.0, 1.0]], P(3, 0): [[-0.0, 1.0]]},
        )
        assert len(spec.matrices) == 4
        assert isinstance(spec.patterns_at(P(0, 0))[0][0], F)
        assert isinstance(spec.patterns_at(P(1, 0))[0][0], float)
        assert math.copysign(1, spec.patterns_at(P(3, 0))[0][0]) == -1
        assert not all_fractions(spec)


def brute_force_validate(spec):
    """Per-location validation that re-sums each location's own matrix,
    found by evaluating the rules or reading the table directly."""
    table = dict(spec.table or ())
    sums, negatives = [], []
    for point in spec.domain_points():
        if spec.rules is None:
            matrix = table[point]
        else:
            matrix = next(r.patterns for r in spec.rules if r.matches(point))
        total, exact = F(0), True
        for li, row in enumerate(matrix):
            for gi, w in enumerate(row):
                exact = exact and isinstance(w, F)
                if w < 0:
                    negatives.append(NegativeEntry(li + 1, spec.m_min + gi, point, w))
                total = total + w
        if (total != 1) if exact else (abs(total - 1) > 1e-12):
            sums.append(SumViolation(point, total))
    return ValidationReport(not sums and not negatives, tuple(sums), tuple(negatives))


class TestValidationOracle:
    def test_bad_always_rule_covering_many_sites(self):
        domain = LatticeRect(-3, 3, -2, 2)
        rules = (
            PatternRule("abscissa_even", ((F(4, 5), F(1, 5)),)),
            PatternRule("both_odd", ((F(6, 5), F(-1, 5)),)),  # sums to 1
            PatternRule("always", ((F(-1, 4), F(1, 2)),)),  # sums to 1/4
        )
        spec = M4Spec.from_rules(1, 1, 2, domain, rules, check=False)
        report = validate(spec)
        assert report == brute_force_validate(spec)
        always_sites = [p for p in spec.domain_points() if p.x % 2 and not p.y % 2]
        assert len(always_sites) == 12
        assert [v.location for v in report.sum_violations] == always_sites
        assert all(v.total == F(1, 4) for v in report.sum_violations)
        odd_sites = [p for p in spec.domain_points() if p.x % 2]
        assert [e.location for e in report.negative_entries] == odd_sites
        assert {(e.pattern, e.lag) for e in report.negative_entries} == {(1, 1), (1, 2)}

    def test_unmatched_bad_rule_not_reported(self):
        rules = (
            PatternRule("both_odd", ((F(-1, 2), F(1, 4)),)),
            PatternRule("always", ((F(1, 2), F(1, 2)),)),
        )
        for domain in (LatticeRect(2, 2, -3, 3), LatticeRect(-3, 3, 0, 0)):
            spec = M4Spec.from_rules(1, 1, 2, domain, rules)  # validates
            assert validate(spec) == brute_force_validate(spec) == ValidationReport(True)

    def test_float_tolerance_matches_brute_force(self):
        within = [[0.5, 0.5 + 5e-13]]
        beyond = [[0.5, 0.5 + 2e-12]]
        negative = [[1.25, -0.25]]
        entries = {}
        for i, matrix in enumerate([within, beyond, negative, beyond, within, negative]):
            entries[P(i, 0)] = matrix
            entries[P(i, 1)] = [[F(1, 3), F(2, 3)]]
        spec = M4Spec.from_table(1, 1, 2, entries, check=False)
        assert len(spec.matrices) == 4
        report = validate(spec)
        assert report == brute_force_validate(spec)
        assert [v.location for v in report.sum_violations] == [P(1, 0), P(3, 0)]
        assert all(v.total == 0.5 + (0.5 + 2e-12) for v in report.sum_violations)
        assert [e.location for e in report.negative_entries] == [P(2, 0), P(5, 0)]
        all_float = spec.as_float()
        assert validate(all_float) == brute_force_validate(all_float)


def one_rule_doc(predicate, patterns, **fields) -> dict:
    """A one-rule spec document over a 2 x 2 domain, with `fields` replaced."""
    doc = {
        "L": 1,
        "m_min": 1,
        "m_max": 2,
        "domain": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
        "rules": [{"predicate": predicate, "patterns": patterns}],
    }
    return {**doc, **fields}


class TestRuleLoading:
    """Each spec rule is checked where it is defined; the JSON loader only
    names the rule that failed."""

    PREDICATE_ERROR = (
        "unknown predicate ['always']; "
        "expected one of ['abscissa_even', 'always', 'both_odd']"
    )

    @pytest.mark.parametrize(
        "weight, message",
        [(True, "booleans are not weights"), (None, "unsupported weight type NoneType")],
    )
    def test_json_weights_go_through_as_weight(self, weight, message):
        with raises_exactly(ArgumentError, message):
            as_weight(weight)
        doc = one_rule_doc("always", [["1/2", weight]])
        with raises_exactly(ParseError, f"malformed rule #0: {message}"):
            from_json_dict(doc)

    def test_predicate_that_is_not_a_string(self):
        with raises_exactly(ArgumentError, self.PREDICATE_ERROR):
            PatternRule(["always"], ((F(1),),))
        doc = one_rule_doc(["always"], [["1/2", "1/2"]])
        with raises_exactly(ParseError, f"malformed rule #0: {self.PREDICATE_ERROR}"):
            from_json_dict(doc)

    @pytest.mark.parametrize(
        "rule, message",
        [
            ({"predicate": "always"}, "'patterns'"),
            ({"patterns": [["1/2", "1/2"]]}, "'predicate'"),
            ({"predicate": "always", "patterns": 5}, "'int' object is not iterable"),
            ({"predicate": "always", "patterns": [[]]}, "pattern matrix must be non-empty"),
        ],
    )
    def test_malformed_rule_is_named(self, rule, message):
        doc = one_rule_doc("abscissa_even", [["1/2", "1/2"]])
        doc["rules"].append(rule)
        with raises_exactly(ParseError, f"malformed rule #1: {message}"):
            from_json_dict(doc)

    ROW_ERROR = "a pattern row must be a list of weights, not a string"

    @pytest.mark.parametrize(
        "patterns, m_max", [(["1"], 1), (["12"], 2)], ids=["one lag", "two lags"]
    )
    def test_row_that_is_a_string(self, patterns, m_max):
        # once read as a row of its characters: ["1"] as the valid row (1,),
        # ["12"] as (1, 2), with weights summing to 3
        doc = one_rule_doc("always", patterns, m_max=m_max)
        with raises_exactly(ParseError, f"malformed rule #0: {self.ROW_ERROR}"):
            from_json_dict(doc)

    def test_table_row_that_is_a_string(self):
        with raises_exactly(ArgumentError, self.ROW_ERROR):
            M4Spec.from_table(1, 1, 1, {P(0, 0): ["1"]})

    def test_empty_rule_list(self):
        with raises_exactly(ArgumentError, "the final rule must have predicate 'always'"):
            M4Spec.from_rules(1, 1, 1, LatticeRect(0, 0, 0, 0), [])

    def test_final_rule_checked_once(self):
        doc = one_rule_doc("abscissa_even", [["1/2", "1/2"]])
        with raises_exactly(ParseError, "the final rule must have predicate 'always'"):
            from_json_dict(doc)
        # the spec's own checks run in their order: the pattern count comes first
        with raises_exactly(ParseError, "need at least one signature pattern"):
            from_json_dict({**doc, "L": 0})

    def test_nan_weight_is_invalid(self):
        one_site = {"x_min": 0, "x_max": 0, "y_min": 0, "y_max": 0}
        doc = one_rule_doc("always", [[0.5, math.nan]], domain=one_site)
        spec = from_json_dict(doc, check=False)
        report = validate(spec)
        assert not report.ok
        assert str(report) == "weights at (0,0) sum to nan, expected 1"
        with raises_exactly(SpecValidationError, str(report)):
            from_json_dict(doc)


class TestSpecRules:
    def test_matrices_empty_or_ragged(self):
        with raises_exactly(ArgumentError, "pattern matrix must be non-empty"):
            PatternRule("always", ())
        with raises_exactly(ArgumentError, "pattern rows must all have the same length"):
            PatternRule("always", ((F(1, 2),), (F(1, 4), F(1, 4))))

    def test_spec_shape_and_domain(self):
        rules = (PatternRule("always", ((F(1),),)),)
        domain = LatticeRect(0, 0, 0, 0)
        with raises_exactly(ArgumentError, "need at least one signature pattern"):
            M4Spec.from_rules(0, 1, 1, domain, rules)
        with raises_exactly(ArgumentError, "empty lag range"):
            M4Spec.from_rules(1, 2, 1, domain, rules)
        with raises_exactly(ArgumentError, "rule-based specifications need a domain"):
            M4Spec(1, 1, 1, None, rules=rules)
        message = "table entry at (0,0) has shape (1, 1), expected (1, 2)"
        with raises_exactly(ArgumentError, message):
            M4Spec.from_table(1, 1, 2, {P(0, 0): [[1]]})

    def test_report_text(self):
        assert str(ValidationReport(ok=True)) == "valid"
        rules = (PatternRule("always", ((F(2), F(-1)),)),)
        spec = M4Spec.from_rules(1, 1, 2, LatticeRect(0, 0, 0, 0), rules, check=False)
        report = validate(spec)
        assert str(report) == "negative weight -1 at pattern 1, lag 2, location (0,0)"
