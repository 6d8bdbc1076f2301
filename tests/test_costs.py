"""Stated costs, checked by counting work, never by timing it.

Each test counts a deterministic unit at growing sizes and asserts the growth
that the README or a docstring states: at most 2.2x per doubling for "linear",
and equal counts for "independent of".  A spy that raises on its first call
stands for "never done", so a regression fails at once instead of running for
as long as the work it was meant to avoid.
"""

import json

import numpy as np
import pytest

from m4extremes import LatticePoint, LatticeRect, M4Spec, Region, contagion_index_region
from m4extremes import empirical_contagion, estimate_contagion_region, estimate_summary
from m4extremes import from_json_dict, preset, rank_transform, scores_from_matrix, simulate_m4
from m4extremes import validate
from m4extremes import dependence, estimate
from m4extremes.cli import main

P = LatticePoint

BAD_RULE = "rule #1 (always): weights sum to 5/6, expected 1"


def bad_rule_doc(bound: int, always=("1/2", "1/3")) -> dict:
    """A spec document over [-bound, bound]^2 whose second rule, `always`, sums to 5/6
    unless given other `always` weights."""
    return {
        "L": 1, "m_min": 1, "m_max": 2,
        "domain": {"x_min": -bound, "x_max": bound, "y_min": -bound, "y_max": bound},
        "rules": [{"predicate": "abscissa_even", "patterns": [["4/5", "1/5"]]},
                  {"predicate": "always", "patterns": [list(always)]}],
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

    def test_valid_spec_output_is_independent_of_the_area(self, no_domain_walk, capsys,
                                                          tmp_path):
        outputs = {"validate": [], "exact": []}
        for bound in self.BOUNDS:
            path = tmp_path / f"spec{bound}.json"
            path.write_text(json.dumps(bad_rule_doc(bound, always=("1/4", "3/4"))))
            for command, extra in (("validate", []),
                                   ("exact", ["--site=0,0", "--region", "neighbors"])):
                assert main([command, "--spec", str(path), *extra]) == 0
                out, err = capsys.readouterr()
                assert err == ""
                outputs[command].append(out)
        assert json.loads(outputs["validate"][0])["valid"] is True
        for command, texts in outputs.items():
            assert len({len(text.encode()) for text in texts}) == 1, command

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


@pytest.fixture
def gathered(monkeypatch) -> list[int]:
    """The rows that each `estimate._max_sums` call gathers, in call order."""
    rows = []
    max_sums = estimate._max_sums

    def counting(matrix, base, extras):
        rows.append(len(base) + len(extras))
        return max_sums(matrix, base, extras)

    monkeypatch.setattr(estimate, "_max_sums", counting)
    return rows


SITE = P(3, 3)


def window(radius: int) -> Region:
    """The (2 radius + 1)^2 window around `SITE`, less the site."""
    return Region(P(SITE.x + dx, SITE.y + dy) for dy in range(-radius, radius + 1)
                  for dx in range(-radius, radius + 1) if (dx, dy) != (0, 0))


@pytest.fixture(scope="module")
def window_sample():
    """The one-pattern field at `SITE` and its 7 x 7 window: 49 points, 2 matrices."""
    return simulate_m4(preset("one-pattern"), Region([SITE]).union(window(3)), 200, 5)


class TestEstimatorsScaleWithDistinctMatrices:
    """Estimators and oracles read one row of the scores per distinct weight matrix,
    not per location (`estimate`, `UniformScores`)."""

    def counts(self, monkeypatch, gathered, sample, scores_of) -> list[tuple[int, int]]:
        """For the regions of 8, 24 and 48 points, the rows that `estimate_summary`
        gathers and the items of `empirical_contagion`'s region iterator, each on
        fresh scores, so that no memo hides a pass."""
        items = []
        exceedances = estimate._exceedances

        def counting(*args):
            site_high, region_high = exceedances(*args)
            items.append(0)

            def each():
                for item in region_high:
                    items[-1] += 1
                    yield item

            return site_high, each()

        monkeypatch.setattr(estimate, "_exceedances", counting)
        for radius in (1, 2, 3):
            estimate_summary(scores_of(sample), window(radius), SITE)
            empirical_contagion(sample, window(radius), SITE, 0.5, scores_of(sample))
        assert len(gathered) == len(items) == 3
        return list(zip(gathered, items))

    def test_shared_rows_are_read_once(self, monkeypatch, gathered, window_sample):
        assert len(rank_transform(window_sample)._rows) == 2
        counts = self.counts(monkeypatch, gathered, window_sample, rank_transform)
        assert counts == [(2, 2)] * 3, counts

    def test_a_row_per_location_is_read_per_location(self, monkeypatch, gathered,
                                                     window_sample):
        def own_rows(sample):
            scores = scores_from_matrix(sample.values, sample.locations)
            assert len(scores._rows) == len(sample.locations)
            return scores

        counts = self.counts(monkeypatch, gathered, window_sample, own_rows)
        assert counts == [(9, 8), (25, 24), (49, 48)]


class TestRegionEstimatorIsLinear:
    """`estimate_contagion_region` gathers |G| + 2|R| rows of the scores: one pass over
    `given` and `region`, one over the singletons of `region`."""

    def test_rows_read_grow_linearly_in_given_and_region(self, gathered):
        locations = Region(P(x, y) for y in (0, 1) for x in range(8))
        sample = simulate_m4(preset("one-pattern"), locations, 200, 6)
        counts = []
        for size in (4, 8, 16):  # |G| + |R|
            given = Region(P(x, 0) for x in range(size // 2))
            region = Region(P(x, 1) for x in range(size - size // 2))
            del gathered[:]
            scores = scores_from_matrix(sample.values, sample.locations)  # a row per location
            estimate_contagion_region(scores, region, given)
            assert sum(gathered) == len(given) + 2 * len(region)
            counts.append(sum(gathered))
        assert all(b <= 2.2 * a for a, b in zip(counts, counts[1:])), counts


class TestIntegerPassIsLinear:
    """`estimate._max_sums` gathers each replicate of its rows once, a chunk at a time
    (`estimate`): the cells gathered grow linearly in the replicates."""

    def gathers(self, monkeypatch, n: int) -> list[int]:
        """The cells of each gather that `estimate_summary` makes from the scores' rows
        at `n` replicates of the ring, a row per location."""
        cells, source = [], None
        max_sums = estimate._max_sums

        class Source(np.ndarray):  # counts its own gathers, not those of a block's views
            def __getitem__(self, key):
                out = super().__getitem__(key)
                if self is source:
                    cells.append(out.size)
                return out

        def counting(rows, base, extras):
            nonlocal source
            source = rows.view(Source)
            return max_sums(source, base, extras)

        sample = simulate_m4(preset("one-pattern"), Region([SITE]).union(window(1)), n, 7)
        scores = scores_from_matrix(sample.values, sample.locations)
        assert len(scores._rows) == 9
        with monkeypatch.context() as patch:
            patch.setattr(estimate, "_max_sums", counting)
            estimate_summary(scores, window(1), SITE)
        return cells

    def test_each_replicate_is_gathered_once(self, monkeypatch):
        # a step of 2^18 // 11 = 23,831 replicates for 9 rows: 2, 3 and 5 chunks
        sizes = (25_000, 50_000, 100_000)
        gathers = [self.gathers(monkeypatch, n) for n in sizes]
        assert [len(g) for g in gathers] == [2, 3, 5]
        totals = [sum(g) for g in gathers]
        assert totals == [9 * n for n in sizes]
        assert all(b <= 2.2 * a for a, b in zip(totals, totals[1:])), totals
