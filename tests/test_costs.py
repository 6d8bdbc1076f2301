"""Stated costs, checked by counting work, never by timing it.

Each test counts a deterministic unit at growing sizes and asserts the growth
that the README or a docstring states: at most 2.2x per doubling for "linear",
and equal counts for "independent of".  A spy that raises on its first call
stands for "never done", so a regression fails at once instead of running for
as long as the work it was meant to avoid.
"""

import json

import pytest

from m4extremes import LatticePoint, LatticeRect, M4Spec, Region, contagion_index_region
from m4extremes import from_json_dict, preset, validate
from m4extremes import dependence
from m4extremes.cli import main

P = LatticePoint

BAD_RULE = "rule #1 (always): weights sum to 5/6, expected 1"


def bad_rule_doc(bound: int) -> dict:
    """A spec document over [-bound, bound]^2 whose second rule, `always`, sums to 5/6."""
    return {
        "L": 1, "m_min": 1, "m_max": 2,
        "domain": {"x_min": -bound, "x_max": bound, "y_min": -bound, "y_max": bound},
        "rules": [{"predicate": "abscissa_even", "patterns": [["4/5", "1/5"]]},
                  {"predicate": "always", "patterns": [["1/2", "1/3"]]}],
    }


@pytest.fixture
def no_domain_walk(monkeypatch):
    """`LatticeRect.points` and `M4Spec.domain_points` raise on their first call."""
    def walk(self):
        raise AssertionError(f"walked the domain of {self}")

    monkeypatch.setattr(LatticeRect, "points", walk)
    monkeypatch.setattr(M4Spec, "domain_points", walk)


class TestValidateWalksNoDomain:
    """A bad rule is reported once, in the same bytes whatever its domain's area."""

    BOUNDS = (10, 1000, 50_000)  # up to 10^10 points

    def test_report_is_independent_of_the_area(self, no_domain_walk):
        texts = [str(validate(from_json_dict(bad_rule_doc(b), check=False))) for b in self.BOUNDS]
        assert texts == [BAD_RULE] * 3
        assert len({len(text.encode()) for text in texts}) == 1

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_validate_exits_3_with_one_short_problems_line(self, no_domain_walk, capsys,
                                                          tmp_path, bound):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(bad_rule_doc(bound)))
        assert main(["validate", "--spec", str(path)]) == 3
        out, err = capsys.readouterr()
        assert err == ""
        lines = [line for line in out.splitlines() if '"problems"' in line]
        assert len(lines) == 1 and len(lines[0].encode()) <= 200
        assert json.loads(out)["problems"] == BAD_RULE

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_exact_exits_3_with_one_short_error_line(self, no_domain_walk, capsys, tmp_path,
                                                     bound):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(bad_rule_doc(bound)))
        argv = ["exact", "--spec", str(path), "--site=0,0", "--region", "neighbors"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {BAD_RULE}\n"
        assert len(err.encode()) <= 200


class TestRegionConditioningIsLinear:
    """`contagion_index_region` reads one `_slots` row per point of `given` and of
    `region`, with no subset of `given` enumerated (README, `dependence`)."""

    def rows_read(self, monkeypatch, size: int) -> int:
        count = 0
        slots = dependence._slots

        def counting(spec, points):
            nonlocal count
            rows, add, scale = slots(spec, points)
            count += len(rows)
            return rows, add, scale

        given = Region(P(x, 0) for x in range(size // 2))
        region = Region(P(x, 1) for x in range(size - size // 2))
        with monkeypatch.context() as patch:
            patch.setattr(dependence, "_slots", counting)
            contagion_index_region(preset("two-pattern"), region, given)
        return count

    def test_rows_read_grow_linearly_in_given_and_region(self, monkeypatch):
        counts = [self.rows_read(monkeypatch, size) for size in (4, 8, 16)]  # |G| + |R|
        assert counts[0] > 0
        assert all(b <= 2.2 * a for a, b in zip(counts, counts[1:])), counts
