import numpy as np
import pytest

from m4extremes import (
    ArgumentError,
    LatticePoint,
    ParseError,
    Region,
    UnknownStationError,
    estimate_contagion,
    estimate_extremal_coefficient,
    estimate_stability,
    field_sample_to_station_csv,
    ingest_stations,
    neighbors,
    rank_transform,
    scores_from_matrix,
    simulate_m4,
    station_indices,
)
from m4extremes.rng import frechet_block
from m4extremes.stations import Station, StationDataset
from conftest import DATA_DIR, raises_exactly

P = LatticePoint


class TestIngest:
    def test_bundled_fixture(self):
        ds = ingest_stations(
            DATA_DIR / "stations_32y.csv",
            metadata_path=DATA_DIR / "stations_meta.csv",
        )
        assert ds.n == 32
        assert len(ds.stations) == 6
        assert ds.station_names[0] == "serra_alta"
        assert ds.maxima.shape == (32, 6)
        assert np.all(ds.maxima > 0)
        assert ds.years[0] == 1978 and ds.years[-1] == 2009
        assert ds.stations[0].x == 21550.0 and ds.stations[0].y == 93200.0
        assert ds.dropped_years == ()

    def test_fixture_without_metadata(self):
        ds = ingest_stations(DATA_DIR / "stations_32y.csv")
        assert ds.stations[0].x is None

    def test_missing_cell_error_policy(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("year,a,b\n2000,1.0,2.0\n2001,,2.5\n")
        with pytest.raises(ParseError, match="2001.*'a'"):
            ingest_stations(path)

    def test_missing_cell_drop_year_policy(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("year,a,b\n2000,1.0,2.0\n2001,,2.5\n2002,3.0,1.5\n")
        ds = ingest_stations(path, missing="drop-year")
        assert ds.n == 2
        assert ds.years == (2000, 2002)
        assert ds.dropped_years == (2001,)

    @pytest.mark.parametrize("missing", ["error", "drop-year"])
    @pytest.mark.parametrize("rows, line", [
        ("1,1.0,2.0\n1,2.0,1.0\n3,3.0,3.0\n", 3),  # the bulk pass reads it, the row scan names it
        ("1,1.0,2.0\n\n3,3.0,3.0\n01,2.0,1.0\n", 5),  # a blank line counts; 01 is 1
        ('1,1.0,2.0\n1,"2.0",1.0\n', 3),  # a quoted cell: the row scan alone reads it
    ])
    def test_a_year_is_listed_once(self, tmp_path, rows, line, missing):
        path = tmp_path / "d.csv"
        path.write_text("year,a,b\n" + rows)
        with raises_exactly(ParseError, f"{path}:{line}: year 1 is listed twice"):
            ingest_stations(path, missing=missing)

    @pytest.mark.parametrize("rows, line", [("1,NA,2.0\n2,1.0,1.0\n1,2.0,1.0\n", 4),
                                            ("1,1.0,2.0\n2,1.0,1.0\n1,2.0,NA\n", 4)])
    def test_a_dropped_year_is_listed_too(self, tmp_path, rows, line):
        path = tmp_path / "d.csv"
        path.write_text("year,a,b\n" + rows)
        with raises_exactly(ParseError, f"{path}:{line}: year 1 is listed twice"):
            ingest_stations(path, missing="drop-year")

    def test_negative_value_names_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("year,a,b\n2000,1.0,-3.0\n")
        with pytest.raises(ParseError, match="2000.*'b'"):
            ingest_stations(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("year,a\n2000,wet\n")
        with pytest.raises(ParseError, match="'wet'"):
            ingest_stations(path)

    def test_duplicate_station_names(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("year,a,a\n2000,1.0,2.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            ingest_stations(path)

    @pytest.mark.parametrize("missing", ["error", "drop-year"])
    @pytest.mark.parametrize("header, column", [("year,a,b,", 4), ("year,a,,b", 3),
                                                ("year, ,a,a", 2)])
    def test_blank_station_name(self, tmp_path, missing, header, column):
        # a trailing comma, as spreadsheets write it, or an empty cell: no name
        # that a region could give, and checked before repeats
        path = tmp_path / "d.csv"
        path.write_text(f"{header}\n2000,1.0,2.0,3.0\n")
        with raises_exactly(ParseError, f"{path}: header column {column} has no station name"):
            ingest_stations(path, missing=missing)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("season,a\n2000,1.0\n")
        with pytest.raises(ParseError, match="year"):
            ingest_stations(path)

    def test_bad_year(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("year,a\nMMXX,1.0\n")
        with pytest.raises(ParseError, match="MMXX"):
            ingest_stations(path)

    def test_unknown_policy(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("year,a\n2000,1.0\n")
        with pytest.raises(ParseError):
            ingest_stations(path, missing="interpolate")

    @pytest.mark.parametrize("x, y", [("nan", "1"), ("1", "inf"), ("-inf", "NaN"), ("1e400", "2")])
    def test_non_finite_coordinates_name_the_line(self, tmp_path, x, y):
        # a NaN or infinite coordinate would print as NaN/Infinity, which is
        # not JSON
        meta = tmp_path / "meta.csv"
        meta.write_text(f"station,x,y\nserra_alta,21550,93200\nvale_frio,{x},{y}\n")
        with pytest.raises(ParseError) as caught:
            ingest_stations(DATA_DIR / "stations_32y.csv", metadata_path=meta)
        assert str(caught.value) == (
            f"{meta}:3: non-finite coordinates {float(x)}, {float(y)}"
        )


class TestStationMetadata:
    DATA = DATA_DIR / "stations_32y.csv"

    def test_bad_header(self, tmp_path):
        meta = tmp_path / "meta.csv"
        meta.write_text("name,x,y\nserra_alta,1,2\n")
        with raises_exactly(ParseError, f"{meta}: expected header station,x,y"):
            ingest_stations(self.DATA, metadata_path=meta)

    def test_blank_rows_are_skipped(self, tmp_path):
        meta = tmp_path / "meta.csv"
        meta.write_text("station,x,y\n\n , ,\nserra_alta,1,2\n")
        dataset = ingest_stations(self.DATA, metadata_path=meta)
        assert dataset.stations[0] == Station("serra_alta", 1.0, 2.0)

    def test_malformed_row(self, tmp_path):
        meta = tmp_path / "meta.csv"
        meta.write_text("station,x,y\nserra_alta,1,2\nvale_frio,1\n")
        message = f"{meta}:3: malformed row: list index out of range"
        with raises_exactly(ParseError, message):
            ingest_stations(self.DATA, metadata_path=meta)

    @pytest.mark.parametrize("rows, message", [
        ("vale_frio,1,1\nvale_frio,5,5\n", "station 'vale_frio' is listed twice"),
        ("vale_frio,1,1\n vale_frio ,1,1\n", "station 'vale_frio' is listed twice"),
        ("vale_frio,1,1\nzz,3,3\n", "station 'zz' is not in the data"),
        ("vale_frio,1,1\nVale_Frio,3,3\n", "station 'Vale_Frio' is not in the data"),
    ])
    def test_each_row_names_one_station_of_the_data(self, tmp_path, rows, message):
        meta = tmp_path / "meta.csv"
        meta.write_text("station,x,y\n" + rows)
        with raises_exactly(ParseError, f"{meta}:3: {message}"):
            ingest_stations(self.DATA, metadata_path=meta)

    def test_stations_may_go_without_a_row(self, tmp_path):
        meta = tmp_path / "meta.csv"
        meta.write_text("station,x,y\ncosta_verde,1,2\n")
        stations = ingest_stations(self.DATA, metadata_path=meta).stations
        assert stations[-1] == Station("costa_verde", 1.0, 2.0)
        assert all(s.x is None and s.y is None for s in stations[:-1])


class TestStationDataset:
    @pytest.mark.parametrize("shape", [(5, 2), (3, 1), (2, 3), (3,), (3, 2, 1)])
    def test_maxima_shape_must_be_years_by_stations(self, shape):
        message = f"maxima of shape {shape} for 3 years and 2 stations"
        with raises_exactly(ArgumentError, message):
            StationDataset((Station("a"), Station("b")), (2000, 2001, 2002), np.ones(shape))

    def test_maxima_must_be_positive_and_finite(self):
        stations = (Station("a"), Station("b"), Station("c"))
        maxima = np.ones((3, 3))
        maxima[1, 1] = np.nan
        maxima[2, 0] = -1.0  # a later year: the first bad cell is named
        message = "year 2, station 'b': maxima must be positive and finite, got nan"
        with raises_exactly(ArgumentError, message):
            StationDataset(stations, (1, 2, 3), maxima)
        maxima[1, 1] = 1.0
        maxima[2, 1] = 0.0
        message = "year 3, station 'a': maxima must be positive and finite, got -1.0"
        with raises_exactly(ArgumentError, message):
            StationDataset(stations, (1, 2, 3), maxima)
        maxima[2, 0] = np.inf
        message = "year 3, station 'a': maxima must be positive and finite, got inf"
        with raises_exactly(ArgumentError, message):
            StationDataset(stations, (1, 2, 3), maxima)

    def test_maxima_are_a_read_only_copy(self, tmp_path):
        stations, years = (Station("a"), Station("b")), (2000, 2001)
        frozen = np.ones((2, 2))
        frozen.setflags(write=False)
        single = np.ones((2, 2), dtype=np.float32)
        for source in ([[1.0, 2.0], [3.0, 4.0]], single, np.ones((2, 2)), frozen, frozen.T):
            maxima = StationDataset(stations, years, source).maxima
            assert maxima.base is None and not maxima.flags.writeable
            assert maxima.tolist() == np.asarray(source).tolist()
        assert single.flags.writeable  # the caller's array is not frozen
        path = tmp_path / "d.csv"
        path.write_text("year,a,b\n2000,1.0,2.0\n2001,1.5,2.5\n1999,NA,1.0\n")
        for text in (path.read_text().rsplit("1999", 1)[0], path.read_text()):  # bulk, row scan
            path.write_text(text)
            maxima = ingest_stations(path, missing="drop-year").maxima
            assert maxima.base is None and maxima.flags.c_contiguous and not maxima.flags.writeable
            assert maxima.tolist() == [[1.0, 2.0], [1.5, 2.5]]

    @pytest.mark.parametrize("names, years, dropped, message", [
        ((), (), (), "need at least one station and one year"),
        (("a",), (), (1999,), "need at least one station and one year"),
        ((), (2000,), (), "need at least one station and one year"),
        (("a", " "), (2000,), (), "station column 1 has no name"),
        (("", "a"), (2000,), (), "station column 0 has no name"),
        (("a", "b", "a"), (2000,), (), "duplicate station names"),
        (("a", "b"), (1, 2, 1), (), "duplicate years"),
        (("a", "b"), (1, 2), (3, 2), "duplicate years"),
    ])
    def test_holds_only_what_the_reader_returns(self, names, years, dropped, message):
        # ingest_stations refuses each of these first, naming the file or line
        maxima = np.ones((len(years), len(names)))
        with raises_exactly(ArgumentError, message):
            StationDataset(tuple(map(Station, names)), years, maxima, dropped)

    def test_view_of_writable_base_is_copied(self):
        base = np.ones((3, 2))
        dataset = StationDataset((Station("a"), Station("b")), (2000, 2001, 2002), base[:])
        base[0, 0] = -5.0
        assert dataset.maxima.tolist() == [[1.0, 1.0]] * 3
        assert not dataset.maxima.flags.writeable


class TestStationIndices:
    def test_column_lookup(self):
        names = [f"st{i:03d}" for i in range(441)]
        ds = StationDataset(
            stations=tuple(Station(name) for name in names),
            years=(2000,),
            maxima=np.ones((1, len(names))),
        )
        assert [ds.column(name) for name in names] == list(range(441))
        with pytest.raises(UnknownStationError, match="nowhere"):
            ds.column("nowhere")

    def test_duplicated_columns_are_totally_dependent(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = ["year,c,r1,r2"]
        values = [5.0, 2.0, 9.0, 4.0, 7.0]
        for year, v in enumerate(values, start=2000):
            rows.append(f"{year},{v},{v},{v}")
        path.write_text("\n".join(rows) + "\n")
        ds = ingest_stations(path)
        report = station_indices(ds, "c", ["r1", "r2"])
        assert float(report.summary.contagion) == 2.0
        assert float(report.summary.stability) == 0.0
        assert float(report.summary.joint_extremal) == 1.0

    def test_independent_columns_have_no_contagion(self):
        # three independent unit-Frechet columns, n=1000
        values = frechet_block(2718, 0, 3000).reshape(1000, 3)
        scores = scores_from_matrix(values, (P(0, 0), P(1, 0), P(2, 0)))
        ci = estimate_contagion(scores, Region([P(1, 0), P(2, 0)]), P(0, 0))
        assert abs(ci) < 0.15

    def test_unknown_station(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("year,a,b\n2000,1.0,2.0\n2001,2.0,1.0\n")
        ds = ingest_stations(path)
        with raises_exactly(UnknownStationError, "unknown station 'nowhere'") as info:
            station_indices(ds, "nowhere", ["b"])
        assert isinstance(info.value, KeyError)  # still a lookup failure to callers
        with raises_exactly(UnknownStationError, "unknown station 'nowhere'"):
            station_indices(ds, "a", ["nowhere"])
        with raises_exactly(UnknownStationError, "region must name at least one station"):
            station_indices(ds, "a", [])

    def test_repeated_names_count_once(self):
        ds = ingest_stations(DATA_DIR / "stations_32y.csv")
        once = station_indices(ds, "serra_alta", ["vale_frio"]).to_json_dict()
        twice = station_indices(ds, "serra_alta", ["vale_frio", "vale_frio"]).to_json_dict()
        assert twice == once
        assert twice["region"] == ["vale_frio"]
        assert len(twice["pairwise_extremal_estimates"]) == 1
        mixed = station_indices(ds, "serra_alta", ["planalto", "vale_frio", "planalto"])
        assert mixed.region == ("planalto", "vale_frio")  # first-appearance order

    def test_report_fields(self):
        ds = ingest_stations(DATA_DIR / "stations_32y.csv")
        report = station_indices(ds, "serra_alta", ["vale_frio", "monte_claro"])
        assert report.conditioning == "serra_alta"
        assert report.region == ("vale_frio", "monte_claro")
        assert report.n == 32
        assert len(report.summary.pairwise_extremal) == 2
        doc = report.to_json_dict()
        assert set(doc) == {
            "conditioning",
            "region",
            "n",
            "contagion_index_estimate",
            "stability_index_estimate",
            "pairwise_extremal_estimates",
            "joint_extremal_estimate",
        }


def loop_station_indices(dataset, conditioning, region_names):
    """Reference: `station_indices` with its own pairwise and joint loop
    and separate contagion and stability estimators; a repeated name counts once."""
    region_names = list(dict.fromkeys(region_names))
    cond_col = dataset.column(conditioning)
    region_cols = [dataset.column(name) for name in region_names]
    involved = [cond_col] + [c for c in region_cols if c != cond_col]
    points = {col: P(i, 0) for i, col in enumerate(involved)}
    scores = scores_from_matrix(dataset.maxima[:, involved], [points[c] for c in involved])
    site = points[cond_col]
    region = Region(points[c] for c in region_cols)
    pairwise = []
    for name, col in zip(region_names, region_cols):
        est = estimate_extremal_coefficient(scores, Region((site, points[col])))
        pairwise.append((name, est.value, est.out_of_range))
    joint = estimate_extremal_coefficient(scores, Region((site,)).union(region))
    return (
        estimate_contagion(scores, region, site),
        estimate_stability(scores, region, site),
        tuple(pairwise),
        joint.value,
    )


def report_floats(report):
    """A report as `loop_station_indices` gives it: the contagion, stability and joint
    estimates are its summary's, as floats, and the pairs its document's."""
    pairwise = tuple((p["station"], p["value"], p["out_of_range"])
                     for p in report.to_json_dict()["pairwise_extremal_estimates"])
    summary = report.summary
    return (float(summary.contagion), float(summary.stability), pairwise,
            float(summary.joint_extremal))


class TestStationIndicesOracle:
    @pytest.mark.parametrize(
        "names",
        [
            ["vale_frio", "monte_claro"],
            ["vale_frio", "planalto", "vale_frio"],  # a repeated name
            ["serra_alta", "vale_frio"],  # the conditioning station itself
            ["planalto", "serra_alta", "planalto", "serra_alta"],
            ["serra_alta"],
        ],
    )
    def test_matches_per_call_loop(self, names):
        ds = ingest_stations(DATA_DIR / "stations_32y.csv")
        report = station_indices(ds, "serra_alta", names)
        got = report_floats(report)
        assert repr(got) == repr(loop_station_indices(ds, "serra_alta", names))
        assert [s for s, _, _ in got[2]] == list(dict.fromkeys(names))

    def test_conditioning_station_pair_is_the_singleton(self):
        # ties in "c" put its singleton estimate at 11/9: outside [1, 1],
        # though inside the [1, 2] of a true pair
        ds = StationDataset(
            stations=(Station("c"), Station("r")),
            years=(2000, 2001, 2002, 2003),
            maxima=np.array([[1.0, 4.0], [1.0, 3.0], [2.0, 2.0], [3.0, 1.0]]),
        )
        report = station_indices(ds, "c", ["r", "c", "c"])
        pairwise = report_floats(report)[2]
        assert pairwise[1:] == (("c", 11 / 9, True),)
        assert repr(pairwise) == repr(loop_station_indices(ds, "c", ["r", "c", "c"])[2])


class TestRoundTrip:
    def test_station_schema_round_trip_matches_direct_pipeline(
        self, one_pattern_spec, site, ring, tmp_path
    ):
        locations = Region([site]).union(ring)
        sample = simulate_m4(one_pattern_spec, locations, 150, 31)
        path = tmp_path / "stations.csv"
        names = field_sample_to_station_csv(sample, path)
        ds = ingest_stations(path)
        assert ds.station_names == tuple(names)
        assert ds.n == 150

        cond_name = names[0]  # site column comes first in `locations`
        region_names = names[1:]
        report = station_indices(ds, cond_name, region_names)

        scores = rank_transform(sample)
        direct_ci = estimate_contagion(scores, ring, site)
        direct_si = estimate_stability(scores, ring, site)
        assert float(report.summary.contagion) == direct_ci
        assert float(report.summary.stability) == direct_si

    def test_one_name_per_location(self, one_pattern_spec, tmp_path):
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0), P(1, 0)]), 5, 1)
        with raises_exactly(ParseError, "one name per location is required"):
            field_sample_to_station_csv(sample, tmp_path / "s.csv", names=["a"])

    @pytest.mark.parametrize("names", [["a", "a"], [" a", "b "], ["a", "a\t"], ["a\n", "b"],
                                       ["a", ""]])
    def test_names_the_reader_would_refuse_or_change(self, one_pattern_spec, tmp_path, names):
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0), P(1, 0)]), 5, 1)
        path = tmp_path / "s.csv"
        message = "station names must be distinct and non-empty, without blanks around them"
        with raises_exactly(ParseError, message):
            field_sample_to_station_csv(sample, path, names=names)
        assert not path.exists()

    def test_accepted_names_round_trip_unchanged(self, one_pattern_spec, tmp_path):
        names = ["a b", "a", "c,d", 'say "hi"', "line\nbreak", "A"]
        sample = simulate_m4(one_pattern_spec, Region(P(x, 0) for x in range(6)), 5, 1)
        path = tmp_path / "s.csv"
        assert field_sample_to_station_csv(sample, path, names=names) == names
        ds = ingest_stations(path)
        assert ds.station_names == tuple(names)
        assert np.array_equal(ds.maxima, sample.values)

    def test_names_are_utf8(self, one_pattern_spec, tmp_path):
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0), P(1, 0)]), 5, 1)
        path = tmp_path / "s.csv"
        field_sample_to_station_csv(sample, path, names=["Zürich", "São Brás"])
        assert path.read_bytes().startswith("year,Zürich,São Brás\r\n".encode())
        assert ingest_stations(path).station_names == ("Zürich", "São Brás")

    def test_ingestion_equals_in_memory_estimation(self, tmp_path):
        # no I/O-path drift: writing the matrix out and re-ingesting yields
        # byte-identical estimates
        ds = ingest_stations(DATA_DIR / "stations_32y.csv")
        report = station_indices(ds, "serra_alta", ["vale_frio", "planalto"])
        points = (P(0, 0), P(1, 0), P(2, 0))
        cols = [ds.column("serra_alta"), ds.column("vale_frio"), ds.column("planalto")]
        scores = scores_from_matrix(ds.maxima[:, cols], points)
        assert float(report.summary.contagion) == estimate_contagion(
            scores, Region(points[1:]), points[0]
        )
        assert float(report.summary.stability) == estimate_stability(
            scores, Region(points[1:]), points[0]
        )
