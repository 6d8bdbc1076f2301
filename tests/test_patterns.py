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
    preset,
    to_json_dict,
    validate,
)
from m4extremes.patterns import NegativeEntry, SumViolation, ValidationReport

P = LatticePoint


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
        assert one_pattern_spec.is_exact()
        assert two_pattern_spec.is_exact()

    def test_float_variants_validate(self):
        for name in ("one-pattern", "two-pattern"):
            spec = preset(name, exact=False)
            assert not spec.is_exact()
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
        assert spec.is_exact()

    def test_decimal_weights_are_floats(self):
        doc = {
            "L": 1,
            "m_min": 1,
            "m_max": 2,
            "domain": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
            "rules": [{"predicate": "always", "patterns": [[0.8, 0.2]]}],
        }
        spec = from_json_dict(doc)
        assert not spec.is_exact()
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
        assert fp != preset("one-pattern", exact=False).fingerprint()

    def test_table_fingerprint_order_independent(self):
        a = M4Spec.from_table(1, 1, 1, {P(0, 0): [[1]], P(1, 0): [[1]]})
        b = M4Spec.from_table(1, 1, 1, {P(1, 0): [[1]], P(0, 0): [[1]]})
        assert a.fingerprint() == b.fingerprint()


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
        assert not spec.is_exact()


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
