import csv
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from m4extremes import LatticePoint, Region, load_spec, neighbors, preset
from m4extremes import contagion_index, contagion_index_region
from m4extremes import estimate_contagion, ingest_stations, rank_transform, read_sample_csv
from m4extremes import export_sample, field_sample_to_station_csv, simulate_m4, station_indices
from m4extremes import ParseError
from m4extremes import __version__
from m4extremes.cli import main
from conftest import DATA_DIR, raises_exactly

SRC = Path(__file__).resolve().parents[1] / "src"

P = LatticePoint


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPresetAndValidate:
    def test_preset_writes_loadable_spec(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        code, out, _ = run(capsys, "preset", "one-pattern", "--out", str(path))
        assert code == 0
        spec = load_spec(path)
        assert spec == preset("one-pattern")

    def test_preset_stdout(self, capsys):
        code, out, _ = run(capsys, "preset", "two-pattern")
        assert code == 0
        doc = json.loads(out)
        assert doc["L"] == 2

    def test_validate_ok(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        run(capsys, "preset", "one-pattern", "--out", str(path))
        code, out, _ = run(capsys, "validate", "--spec", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["tool"] == "m4extremes"
        assert "spec_fingerprint" in doc and "version" in doc

    def test_validate_invalid_spec_exits_3(self, capsys, tmp_path):
        _, preset_json, _ = run(capsys, "preset", "one-pattern")
        doc = json.loads(preset_json)
        doc["rules"][0]["patterns"] = [["4/5", "2/5"]]  # sums to 6/5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--spec", str(path))
        assert code == 3
        assert json.loads(out)["valid"] is False

    def test_validate_unparseable_exits_3(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{")
        code, _, err = run(capsys, "validate", "--spec", str(path))
        assert code == 3
        assert "error:" in err


class TestExact:
    def test_neighbors_report(self, capsys):
        code, out, _ = run(
            capsys,
            "exact",
            "--spec",
            "one-pattern",
            "--site",
            "3,3",
            "--region",
            "neighbors",
            "--matrix",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["contagion_index"]["value"] == 4.7
        assert doc["contagion_index"]["exact"] == "47/10"
        assert doc["stability_index"]["exact"] == "66/31"
        assert doc["stability_index"]["value"] == pytest.approx(66 / 31)
        matrix = doc["extremal_coefficient_matrix"]
        assert matrix[0] == [1.55, 1.0, 1.55]
        assert matrix[1][1] == 1.0

    def test_explicit_region_and_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            "exact",
            "--spec",
            "two-pattern",
            "--site",
            "3,3",
            "--region",
            "2,4;3,4;4,4;5,4",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# m4extremes=")
        assert any(line.startswith("contagion_index,") for line in lines)
        ci_line = next(l for l in lines if l.startswith("contagion_index,"))
        assert float(ci_line.split(",")[1]) == pytest.approx(49 / 15)

    def test_given_region_to_region(self, capsys):
        code, out, _ = run(
            capsys,
            "exact",
            "--spec",
            "one-pattern",
            "--site",
            "3,3",
            "--region",
            "3,4",
            "--given",
            "4,3;2,3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["region_to_region_contagion"] == pytest.approx(0.45)

    def test_fragility_when_given_equals_region(self, capsys):
        code, out, _ = run(
            capsys,
            "exact",
            "--spec",
            "one-pattern",
            "--site",
            "3,3",
            "--region",
            "3,3",
            "--given",
            "3,3",
        )
        assert code == 0
        assert json.loads(out)["fragility_index"] == 1.0

    def test_large_conditioning_region(self, capsys):
        given = ";".join(f"{x},{y}" for x in range(-3, 4) for y in range(3))  # 21 sites
        code, out, _ = run(
            capsys,
            "exact",
            "--spec",
            "two-pattern",
            "--site",
            "0,0",
            f"--region={given}",  # '=' keeps a leading '-' from reading as a flag
            f"--given={given}",
        )
        assert code == 0
        doc = json.loads(out)
        assert 1 <= doc["fragility_index"] <= 21
        assert doc["region_to_region_contagion"] == doc["fragility_index"]

    def test_site_outside_domain_exits_3(self, capsys):
        code, _, err = run(
            capsys,
            "exact",
            "--spec",
            "one-pattern",
            "--site",
            "99,99",
            "--region",
            "neighbors",
        )
        assert code == 3
        assert "error:" in err

    def test_bad_point_syntax_exits_3(self, capsys):
        code, _, err = run(
            capsys, "exact", "--spec", "one-pattern", "--site", "3;3",
            "--region", "neighbors",
        )
        assert code == 3


class TestNegativeCoordinates:
    """Point values that start with '-' are values, not option flags."""

    def test_site(self, capsys):
        code, out, _ = run(
            capsys, "exact", "--spec", "one-pattern", "--site", "-1,2",
            "--region", "neighbors",
        )
        assert code == 0
        site = P(-1, 2)
        expected = contagion_index(preset("one-pattern"), neighbors(site), site)
        assert json.loads(out)["contagion_index"]["exact"] == str(expected)

    def test_region(self, capsys):
        code, out, _ = run(
            capsys, "exact", "--spec", "one-pattern", "--site", "0,0",
            "--region", "-1,0;-2,-3",
        )
        assert code == 0
        assert json.loads(out)["region"] == ["(-1,0)", "(-2,-3)"]

    def test_given(self, capsys):
        code, out, _ = run(
            capsys, "exact", "--spec", "one-pattern", "--site", "0,0",
            "--region", "0,1", "--given", "-1,0;-2,0",
        )
        assert code == 0
        spec = preset("one-pattern")
        expected = contagion_index_region(
            spec, Region([P(0, 1)]), Region([P(-1, 0), P(-2, 0)])
        )
        assert json.loads(out)["region_to_region_contagion"] == float(expected)

    def test_locations(self, capsys, tmp_path):
        out = tmp_path / "neg.csv"
        code, _, _ = run(
            capsys, "simulate", "--spec", "one-pattern", "--locations", "-3,-3;-2,-3",
            "--n", "4", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert read_sample_csv(out).locations == (P(-3, -3), P(-2, -3))

    def test_option_is_not_taken_for_a_value(self, capsys):
        code, _, err = run(
            capsys, "exact", "--spec", "one-pattern", "--site", "--region", "neighbors",
        )
        assert code == 2
        assert "--site" in err


class TestSimulateEstimate:
    def test_simulate_is_byte_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run(
                capsys,
                "simulate",
                "--spec",
                "one-pattern",
                "--locations",
                "3,3;4,3;2,3",
                "--n",
                "10",
                "--seed",
                "7",
                "--out",
                str(out),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        meta = json.loads(out1.with_suffix(".meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["n"] == 10
        assert meta["spec_fingerprint"] == preset("one-pattern").fingerprint()
        assert meta["version"]

    def test_simulate_default_domain(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, stdout, _ = run(
            capsys,
            "simulate",
            "--spec",
            "one-pattern",
            "--n",
            "2",
            "--seed",
            "1",
            "--out",
            str(out),
        )
        assert code == 0
        assert json.loads(stdout)["locations"] == 21 * 21
        sample = read_sample_csv(out)
        assert sample.values.shape == (2, 441)

    def test_simulate_requires_seed(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "simulate",
            "--spec",
            "one-pattern",
            "--n",
            "5",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_estimate_matches_library(self, capsys, tmp_path):
        sample_path = tmp_path / "s.csv"
        run(
            capsys,
            "simulate",
            "--spec",
            "one-pattern",
            "--locations",
            "3,3;4,3;2,3;3,4",
            "--n",
            "400",
            "--seed",
            "21",
            "--out",
            str(sample_path),
        )
        code, out, _ = run(
            capsys,
            "estimate",
            "--sample",
            str(sample_path),
            "--meta",
            str(sample_path.with_suffix(".meta.json")),
            "--site",
            "3,3",
            "--region",
            "4,3;2,3;3,4",
        )
        assert code == 0
        doc = json.loads(out)
        sample = read_sample_csv(sample_path)
        region = Region([P(4, 3), P(2, 3), P(3, 4)])
        expected = estimate_contagion(rank_transform(sample), region, P(3, 3))
        assert doc["contagion_index_estimate"] == pytest.approx(expected, rel=1e-15)
        assert doc["seed"] == 21
        assert doc["n"] == 400

    def test_non_object_sidecar_exits_3(self, capsys, tmp_path):
        sample_path = tmp_path / "s.csv"
        run(capsys, "simulate", "--spec", "one-pattern", "--locations", "3,3;4,3",
            "--n", "20", "--seed", "5", "--out", str(sample_path))
        meta_path = tmp_path / "bad.meta.json"
        meta_path.write_text("[1, 2]")
        code, _, err = run(capsys, "estimate", "--sample", str(sample_path),
                           "--meta", str(meta_path), "--site", "3,3", "--region", "4,3")
        assert code == 3
        assert err == f"error: metadata {meta_path} is not a JSON object\n"

    @pytest.mark.parametrize("meta", [{"seed": "abc", "spec_fingerprint": 7}, {"seed": 1.5},
                                      {"spec_fingerprint": 7}, {"n": 19}])
    def test_bad_sidecar_provenance_exits_3(self, capsys, tmp_path, meta):
        sample_path = tmp_path / "s.csv"
        run(capsys, "simulate", "--spec", "one-pattern", "--locations", "3,3;4,3",
            "--n", "20", "--seed", "5", "--out", str(sample_path))
        meta_path = tmp_path / "bad.meta.json"
        meta_path.write_text(json.dumps(meta))
        code, out, err = run(capsys, "estimate", "--sample", str(sample_path),
                             "--meta", str(meta_path), "--site", "3,3", "--region", "4,3")
        assert (code, out) == (3, "")
        assert err.startswith(f"error: metadata {meta_path}: ") and err.count("\n") == 1

    def test_mc_study_csv_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "mc-study",
            "--spec",
            "one-pattern",
            "--site",
            "3,3",
            "--region",
            "4,3;2,3",
            "--reps",
            "3",
            "--n",
            "50",
            "--seed",
            "42",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# m4extremes=")
        assert any(line.startswith("# seed=42") for line in lines)
        assert any(line.startswith("# spec_fingerprint=") for line in lines)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == (
            "index,true_value,mean_estimate,mse,replications,sample_size,seed"
        )
        body = lines[header_idx + 1 :]
        assert len(body) == 2
        assert body[0].startswith("CI,") and body[1].startswith("SI,")

    def test_mc_study_json(self, capsys):
        code, out, _ = run(
            capsys,
            "mc-study",
            "--spec",
            "two-pattern",
            "--site",
            "3,3",
            "--region",
            "2,4;3,4;4,4;5,4",
            "--reps",
            "2",
            "--n",
            "30",
            "--seed",
            "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["contagion"]["true_value"] == pytest.approx(49 / 15)
        assert doc["stability"]["true_value"] == pytest.approx(44 / 71)
        assert doc["seed"] == 1


class TestIngestReport:
    def test_ingest_summary(self, capsys):
        code, out, _ = run(
            capsys,
            "ingest",
            "--data",
            str(DATA_DIR / "stations_32y.csv"),
            "--meta",
            str(DATA_DIR / "stations_meta.csv"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 32
        assert len(doc["stations"]) == 6
        assert doc["stations"][0]["x"] == 21550.0

    def test_report_table_shape_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "report",
            "--data",
            str(DATA_DIR / "stations_32y.csv"),
            "--condition",
            "serra_alta",
            "--region",
            "vale_frio,monte_claro,ribeira_nova",
            "--region",
            "planalto,costa_verde",
            "--format",
            "csv",
        )
        assert code == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert lines[0] == "region,contagion_index_estimate,stability_index_estimate,n"
        assert len(lines) == 3
        assert lines[1].startswith("vale_frio;monte_claro;ribeira_nova,")
        assert lines[2].startswith("planalto;costa_verde,")

    def test_report_json(self, capsys):
        code, out, _ = run(
            capsys,
            "report",
            "--data",
            str(DATA_DIR / "stations_32y.csv"),
            "--condition",
            "serra_alta",
            "--region",
            "planalto,costa_verde",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["conditioning"] == "serra_alta"
        assert len(doc["reports"]) == 1
        rep = doc["reports"][0]
        assert rep["n"] == 32
        assert 0 <= rep["contagion_index_estimate"] <= 2.5

    def test_report_repeated_region_name_counts_once(self, capsys):
        outputs = []
        for region in ("vale_frio,vale_frio", "vale_frio"):
            code, out, _ = run(
                capsys, "report", "--data", str(DATA_DIR / "stations_32y.csv"),
                "--condition", "serra_alta", "--region", region,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["reports"][0]["region"] == ["vale_frio"]

    def test_report_takes_no_meta(self, capsys):
        code, out, _ = run(
            capsys, "report", "--data", str(DATA_DIR / "stations_32y.csv"),
            "--meta", str(DATA_DIR / "stations_meta.csv"),
            "--condition", "serra_alta", "--region", "vale_frio",
        )
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("rows, line", [
        ("b,1,1\nb,5,5\n", "3: station 'b' is listed twice"),
        ("b,1,1\nzz,3,3\n", "3: station 'zz' is not in the data"),
    ])
    def test_metadata_rows_name_each_station_once(self, capsys, tmp_path, rows, line):
        data, meta = tmp_path / "d.csv", tmp_path / "meta.csv"
        data.write_text("year,a,b,c\n2000,1,2,3\n2001,2,3,1\n")
        meta.write_text("station,x,y\n" + rows)
        code, out, err = run(capsys, "ingest", "--data", str(data), "--meta", str(meta))
        assert (code, out, err) == (3, "", f"error: {meta}:{line}\n")

    @pytest.mark.parametrize("missing", ["error", "drop-year"])
    @pytest.mark.parametrize("rows, line", [
        ("1,1,2,3\n1,2,3,1\n3,3,1,2\n", 3),  # the bulk pass reads it, the row scan names it
        ("1,1,2,3\n3,3,1,2\n1,2,NA,1\n", 4),  # a row drop-year would remove counts
    ])
    def test_a_year_is_listed_once(self, capsys, tmp_path, rows, line, missing):
        data = tmp_path / "d.csv"
        data.write_text("year,a,b,c\n" + rows)
        code, out, err = run(capsys, "ingest", "--data", str(data), "--missing", missing)
        expected = f"error: {data}:{line}: year 1 is listed twice\n"
        if "NA" in rows and missing == "error":
            expected = (f"error: {data}: missing value for year 1, station 'b' "
                        "(use --missing drop-year to skip)\n")
        assert (code, out, err) == (3, "", expected)

    def test_region_names_a_station_whose_name_holds_a_comma(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        maxima = (np.random.default_rng(32).random((12, 3)) + 1).tolist()
        data.write_text('year,"a, north",b,c\n' + "".join(
            f"{2000 + r},{x!r},{y!r},{z!r}\n" for r, (x, y, z) in enumerate(maxima)))
        dataset = ingest_stations(data)
        for region, names in (('"a, north"', ["a, north"]), ('"a, north",c', ["a, north", "c"]),
                              ('c ,"a, north" ', ["c", "a, north"]), ("c,,c", ["c"])):
            code, out, _ = run(capsys, "report", "--data", str(data), "--condition", "b",
                               "--region", region)
            assert code == 0, region
            report = json.loads(out)["reports"][0]
            assert report["region"] == names
            assert report == station_indices(dataset, "b", names).to_json_dict()
        # as in the header, a quote opens a quoted name only where its field starts
        for region, err in (("a, north", "error: unknown station 'a'\n"),
                            ('c, "a, north"', "error: unknown station '\"a'\n")):
            assert run(capsys, "report", "--data", str(data), "--condition", "b",
                       "--region", region) == (3, "", err)
        code, out, err = run(capsys, "report", "--data", str(data), "--condition", "b",
                             "--region", "b\nc")
        assert (code, out) == (3, "") and err.startswith("error: --region:1: ")

    def test_unknown_station_exits_3(self, capsys):
        code, _, err = run(
            capsys,
            "report",
            "--data",
            str(DATA_DIR / "stations_32y.csv"),
            "--condition",
            "atlantis",
            "--region",
            "planalto",
        )
        assert code == 3
        assert err == "error: unknown station 'atlantis'\n"

    def test_empty_region_exits_3(self, capsys):
        code, out, err = run(capsys, "report", "--data", str(DATA_DIR / "stations_32y.csv"),
                             "--condition", "serra_alta", "--region=")
        assert (code, out) == (3, "")
        assert err == "error: region must name at least one station\n"

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "ingest", "--data", str(tmp_path / "nope.csv")
        )
        assert code == 3

    def test_non_finite_metadata_exits_3(self, capsys, tmp_path):
        meta = tmp_path / "meta.csv"
        meta.write_text("station,x,y\nserra_alta,nan,inf\n")
        code, out, err = run(
            capsys, "ingest", "--data", str(DATA_DIR / "stations_32y.csv"),
            "--meta", str(meta),
        )
        assert (code, out) == (3, "")
        assert err == f"error: {meta}:2: non-finite coordinates nan, inf\n"

    def test_ingest_output_is_strict_json(self, capsys):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        code, out, _ = run(
            capsys, "ingest", "--data", str(DATA_DIR / "stations_32y.csv"),
            "--meta", str(DATA_DIR / "stations_meta.csv"),
        )
        assert code == 0
        json.loads(out, parse_constant=reject)


class TestEstimateAndReportAgree:
    def test_shared_fields_are_equal(self, capsys, tmp_path):
        # one sample, as a sample CSV and as a station CSV; the region holds the
        # site itself, whose pair is a region of size 1
        site, region = P(3, 3), [P(4, 3), P(3, 3), P(2, 3), P(3, 4)]
        sample = simulate_m4(preset("one-pattern"), Region([site]).union(region), 60, 31)
        csv_path, meta_path = export_sample(sample, tmp_path / "s.csv")
        names = field_sample_to_station_csv(sample, tmp_path / "stations.csv")
        station = {str(p): name for p, name in zip(sample.locations, names)}
        code, out, _ = run(capsys, "estimate", "--sample", str(csv_path), "--meta",
                           str(meta_path), "--site", "3,3",
                           "--region", ";".join(f"{p.x},{p.y}" for p in region))
        assert code == 0
        estimate = json.loads(out)
        code, out, _ = run(capsys, "report", "--data", str(tmp_path / "stations.csv"),
                           "--condition", station[str(site)],
                           "--region", ",".join(station[str(p)] for p in region))
        assert code == 0
        [report] = json.loads(out)["reports"]
        shared = ["contagion_index_estimate", "stability_index_estimate",
                  "pairwise_extremal_estimates", "joint_extremal_estimate"]
        assert [k for k in estimate if k in shared] == [k for k in report if k in shared] == shared
        pairs = [{"station": station[pair["point"]], "value": pair["value"],
                  "out_of_range": pair["out_of_range"]}
                 for pair in estimate["pairwise_extremal_estimates"]]
        assert [pair["station"] for pair in pairs] == [station[str(p)] for p in region]
        estimate["pairwise_extremal_estimates"] = pairs
        assert {k: estimate[k] for k in shared} == {k: report[k] for k in shared}


class TestCsvProvenance:
    """A CSV output opens with `_meta`'s record, one comment line per field."""

    STATIONS = str(DATA_DIR / "stations_32y.csv")

    @pytest.mark.parametrize("argv, spec, seed", [
        ("exact --spec two-pattern --site=3,3 --region neighbors", "two-pattern", None),
        ("mc-study --spec one-pattern --site=3,3 --region 4,3;2,3 --reps 2 --n 30 "
         "--seed 42", "one-pattern", 42),
        (f"report --data {STATIONS} --condition serra_alta --region vale_frio", None, None),
    ])
    def test_comment_block(self, capsys, argv, spec, seed):
        code, out, _ = run(capsys, *argv.split(), "--format", "csv")
        assert code == 0
        expected = [f"# m4extremes={__version__}"]
        if spec is not None:
            expected.append(f"# spec_fingerprint={preset(spec).fingerprint()}")
        if seed is not None:
            expected.append(f"# seed={seed}")
        lines = out.splitlines()
        assert lines[: len(expected)] == expected
        assert not lines[len(expected)].startswith("#")  # the block ends there


class TestCsvTables:
    """Every `--format csv` output is the `#` provenance lines and then a table
    that `csv.reader` reads back: rows exactly as wide as the header, holding
    what the command's JSON output holds."""

    NAMES = ["plain", "a, north", '"q" north', "b"]

    REPORT = "report --condition b --region".split()

    @pytest.mark.parametrize("argv, regions", [
        ("exact --spec one-pattern --site=3,3 --region neighbors".split(), None),
        ("exact --spec one-pattern --site=3,3 --region neighbors --given=4,3;2,3".split(), None),
        ("exact --spec one-pattern --site=3,3 --region=3,4 --given=3,4".split(), None),
        ("mc-study --spec one-pattern --site=3,3 --region 4,3;2,3 --reps 2 --n 30 "
         "--seed 42".split(), None),
        (REPORT + ["plain"], [["plain"]]),
        (REPORT + ['"a, north",plain'], [["a, north", "plain"]]),
        (REPORT + ['"""q"" north"', "--region", 'plain,"a, north"'],
         [['"q" north'], ["plain", "a, north"]]),
    ], ids=["exact", "exact given", "exact fragility", "mc-study", "report plain",
            "report comma", "report quote"])
    def test_table_reads_back(self, capsys, tmp_path, argv, regions):
        if argv[0] == "report":
            data = tmp_path / "d.csv"
            maxima = np.random.default_rng(33).random((12, len(self.NAMES))) + 1
            with open(data, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([["year", *self.NAMES],
                                          *([year, *row] for year, row in enumerate(maxima))])
            argv = [*argv, "--data", str(data)]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = out.splitlines(keepends=True)
        comments = list(itertools.takewhile(lambda line: line.startswith("# "), lines))
        header, *rows = csv.reader(lines[len(comments):])
        assert comments and rows and all(len(row) == len(header) for row in rows)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        if argv[0] == "exact":  # every index and every scalar
            expected = {key: doc[key]["value"] for key in (
                "contagion_index", "stability_index", "joint_extremal_coefficient")}
            expected.update((key, value) for key, value in doc.items() if type(value) is float)
            assert {quantity: float(value) for quantity, value in rows} == expected
        elif argv[0] == "mc-study":
            assert [header, *rows] == [list(doc["contagion"]), *(
                [str(value) for value in doc[key].values()] for key in ("contagion", "stability"))]
        else:
            assert [row[0].split(";") for row in rows] == regions
            assert [rep["region"] for rep in doc["reports"]] == regions
            assert [[float(row[1]), float(row[2]), int(row[3])] for row in rows] == [
                [rep[key] for key in header[1:]] for rep in doc["reports"]]

    def test_matrix_has_no_table(self, capsys):
        code, out, err = run(capsys, "exact", "--spec", "one-pattern", "--site=3,3",
                             "--region", "neighbors", "--matrix", "--format", "csv")
        assert (code, out) == (2, "") and err.count("\n") == 1 and err.startswith("error: ")


class TestOversizedField:
    """A field longer than the csv module accepts names its line, exit 3."""

    LONG = "9" * (csv.field_size_limit() + 1)

    def expect(self, capsys, path, line, *argv):
        code, out, err = run(capsys, *argv)
        limit = csv.field_size_limit()
        assert (code, out) == (3, "")
        assert err == f"error: {path}:{line}: field larger than field limit ({limit})\n"

    def test_station_data_cell(self, capsys, tmp_path):
        data = tmp_path / "stations.csv"
        data.write_text(f"year,a,b\n2000,1.5,2.5\n2001,{self.LONG},2\n")
        self.expect(capsys, data, 3, "ingest", "--data", str(data))

    def test_station_metadata_cell(self, capsys, tmp_path):
        meta = tmp_path / "meta.csv"
        meta.write_text(f"station,x,y\nserra_alta,{self.LONG},2\n")
        self.expect(capsys, meta, 2, "ingest", "--data",
                    str(DATA_DIR / "stations_32y.csv"), "--meta", str(meta))

    def test_sample_header(self, capsys, tmp_path):
        sample = tmp_path / "s.csv"
        sample.write_text(f"replicate,x,y,value,{self.LONG}\n0,0,0,1.0\n")
        self.expect(capsys, sample, 1, "estimate", "--sample", str(sample),
                    "--site", "0,0", "--region", "0,0")

    def test_sample_error_scan(self, capsys, tmp_path):
        # the bulk read skips the long extra column and rejects the -1.0;
        # the row-by-row scan that names the error meets the long field first
        sample = tmp_path / "s.csv"
        sample.write_text(
            f"replicate,x,y,value\n0,0,0,1.0,{self.LONG}\n0,1,0,-1.0\n"
        )
        self.expect(capsys, sample, 2, "estimate", "--sample", str(sample),
                    "--site", "0,0", "--region", "1,0")

    def test_sample_value_cell(self, capsys, tmp_path):
        # a file with no other fault: the bulk pass leaves it to the row reader
        sample = tmp_path / "s.csv"
        sample.write_text(f"replicate,x,y,value\n0,0,0,1.0\n1,0,0,{self.LONG}\n")
        self.expect(capsys, sample, 3, "estimate", "--sample", str(sample),
                    "--site", "0,0", "--region", "0,0")


class TestReadFailsAfterOpen:
    """A CSV that opens but whose bytes cannot then be read exits 3, naming it."""

    @pytest.fixture(autouse=True)
    def unreadable(self, monkeypatch):
        def fail(path):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(Path, "read_bytes", fail)

    def test_sample(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("replicate,x,y,value\n0,0,0,1.0\n")
        message = f"cannot read {path}: [Errno 5] Input/output error"
        with raises_exactly(ParseError, message):
            read_sample_csv(path)
        code, out, err = run(capsys, "estimate", "--sample", str(path), "--site", "0,0",
                             "--region", "0,0")
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_station_data(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("year,a\n2000,1.5\n")
        message = f"cannot read {path}: [Errno 5] Input/output error"
        with raises_exactly(ParseError, message):
            ingest_stations(path)
        code, out, err = run(capsys, "ingest", "--data", str(path))
        assert (code, out, err) == (3, "", f"error: {message}\n")


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_arguments_exits_2(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert run(capsys, "preset", "one-pattern", "--frob")[0] == 2

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.strip()

    def test_unknown_spec_value_exits_3(self, capsys):
        code, _, err = run(
            capsys, "exact", "--spec", "three-pattern", "--site", "0,0",
            "--region", "neighbors",
        )
        assert code == 3
        assert "preset" in err


def one_rule_spec(tmp_path, predicate="always", patterns=(("1/4", "3/4"),)) -> Path:
    """A one-rule spec file over the 3 x 3 square around (0,0)."""
    doc = {
        "L": 1, "m_min": 1, "m_max": 2,
        "domain": {"x_min": -1, "x_max": 1, "y_min": -1, "y_max": 1},
        "rules": [{"predicate": predicate, "patterns": [list(r) for r in patterns]}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


class TestSpecInput:
    """A bad spec exits 3 with one error line, whichever command reads it."""

    def test_nan_weight_is_invalid(self, capsys, tmp_path):
        path = one_rule_spec(tmp_path, patterns=[[0.5, float("nan")]])
        code, out, _ = run(capsys, "validate", "--spec", str(path))
        assert code == 3
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["problems"].startswith("weights at (-1,-1) sum to nan, expected 1; ")

    def test_exact_prints_no_nan(self, capsys, tmp_path):
        path = one_rule_spec(tmp_path, patterns=[[0.5, float("nan")]])
        code, out, err = run(capsys, "exact", "--spec", str(path), "--site", "0,0",
                             "--region", "neighbors")
        assert (code, out) == (3, "")
        assert err.startswith("error: weights at (-1,-1) sum to nan, expected 1; ")

    def test_list_predicate(self, capsys, tmp_path):
        path = one_rule_spec(tmp_path, predicate=["always"])
        code, out, err = run(capsys, "validate", "--spec", str(path))
        assert (code, out) == (3, "")
        assert err == (
            "error: malformed rule #0: unknown predicate ['always']; "
            "expected one of ['abscissa_even', 'always', 'both_odd']\n"
        )

    @pytest.mark.parametrize(
        "weight, message",
        [(True, "booleans are not weights"), (None, "unsupported weight type NoneType")],
    )
    def test_json_weight_that_is_not_a_number(self, capsys, tmp_path, weight, message):
        path = one_rule_spec(tmp_path, patterns=[["1/4", weight]])
        code, out, err = run(capsys, "validate", "--spec", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: malformed rule #0: {message}\n"

    def test_row_that_is_a_string(self, capsys, tmp_path):
        path = one_rule_spec(tmp_path)
        doc = json.loads(path.read_text())
        doc["rules"][0]["patterns"] = ["12"]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--spec", str(path))
        assert (code, out) == (3, "")
        assert err == ("error: malformed rule #0: "
                       "a pattern row must be a list of weights, not a string\n")

    def test_non_integer_field(self, capsys, tmp_path):
        # int() would read 1.9 as 1: the preset one-pattern, fingerprint and all
        _, preset_json, _ = run(capsys, "preset", "one-pattern")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**json.loads(preset_json), "L": 1.9}))
        for command in ("validate", "exact --site=3,3 --region neighbors"):
            code, out, err = run(capsys, *command.split(), "--spec", str(path))
            assert (code, out) == (3, "")
            assert err == "error: malformed specification document: 'L' must be an integer, got 1.9\n"

    def test_degenerate_domain(self, capsys, tmp_path):
        _, preset_json, _ = run(capsys, "preset", "one-pattern")
        doc = json.loads(preset_json)
        doc["domain"]["x_min"] = 99
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "exact --site=3,3 --region neighbors"):
            code, out, err = run(capsys, *command.split(), "--spec", str(path))
            assert (code, out) == (3, "")
            assert err == ("error: malformed specification document: "
                           "degenerate rectangle [99,10]x[-10,10]\n")

    def test_exact_reads_a_spec_file(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        run(capsys, "preset", "one-pattern", "--out", str(path))
        argv = ["--site", "3,3", "--region", "neighbors", "--matrix"]
        from_file = run(capsys, "exact", "--spec", str(path), *argv)
        assert from_file[0] == 0
        assert from_file == run(capsys, "exact", "--spec", "one-pattern", *argv)


class TestWriteFailure:
    """A file a command cannot write exits 3 with one error line that names it."""

    @pytest.mark.parametrize("argv", [
        "preset one-pattern",
        "exact --spec one-pattern --site=3,3 --region neighbors",
        "simulate --spec one-pattern --locations 3,3;4,3 --n 5 --seed 1",
    ], ids=["preset", "exact", "simulate"])
    def test_missing_directory(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.csv"
        code, out, err = run(capsys, *argv.split(), "--out", str(path))
        assert (code, out) == (3, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and repr(str(path)) in line
        assert list(tmp_path.iterdir()) == []


class TestSizeTheHostCannotHold:
    """numpy refuses these sizes before it allocates anything: exit 3 with numpy's
    message on one line.  Sizes that fit in the address space are not tried."""

    @pytest.mark.parametrize("argv", [
        "simulate --spec one-pattern --locations 0,0;1,0 --n 1000000000000000 --seed 1",
        "mc-study --spec one-pattern --site=3,3 --region neighbors --n 10 "
        "--reps 100000000000000 --seed 1",
    ], ids=["simulate", "mc-study"])
    def test_exits_3(self, capsys, tmp_path, argv):
        path = tmp_path / "out.csv"
        code, out, err = run(capsys, *argv.split(), "--out", str(path))
        assert (code, out) == (3, "")
        [line] = err.splitlines()
        assert line.startswith(f"error: {argv.split()[0]}: Unable to allocate ")
        assert not path.exists()


class TestPointArguments:
    def test_non_integer_coordinates(self, capsys):
        code, out, err = run(capsys, "exact", "--spec", "one-pattern", "--site", "1,a",
                             "--region", "neighbors")
        assert (code, out) == (3, "")
        assert err == "error: expected integer coordinates, got '1,a'\n"

    def test_neighbors_needs_a_site(self, capsys, tmp_path):
        code, out, err = run(capsys, "simulate", "--spec", "one-pattern", "--locations",
                             "neighbors", "--n", "5", "--seed", "1",
                             "--out", str(tmp_path / "s.csv"))
        assert (code, out) == (3, "")
        assert err == "error: --locations takes 'domain' or 'x,y;x,y;...', not 'neighbors'\n"

    @pytest.mark.parametrize("argv", [
        ("exact", "--spec", "one-pattern", "--site", "0,0", "--region", ";"),
        ("exact", "--spec", "two-pattern", "--site=3,3", "--region", "neighbors", "--given="),
        ("simulate", "--spec", "one-pattern", "--locations", ";", "--n", "5", "--seed", "1",
         "--out", "never-written.csv"),
    ], ids=["region", "given", "locations"])
    def test_region_without_points(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert not any(tmp_path.iterdir())
        assert (code, out) == (3, "")
        assert err == "error: region must contain at least one point\n"


class TestNotUtf8:
    """Every file is UTF-8: one that is not exits 3 with one line naming it."""

    @pytest.fixture
    def sample(self, capsys, tmp_path):
        path = tmp_path / "sample.csv"
        run(capsys, "simulate", "--spec", "one-pattern", "--locations", "3,3;4,3",
            "--n", "20", "--seed", "5", "--out", str(path))
        return path

    @staticmethod
    def latin1(tmp_path, text):
        path = tmp_path / "latin1.txt"
        path.write_bytes(text.encode("latin-1"))
        return path

    def expect(self, capsys, path, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
        assert "'utf-8' codec can't decode byte" in err

    def test_station_data(self, capsys, tmp_path):
        path = self.latin1(tmp_path, "year,Zürich\n2000,1.5\n2001,ÿ\n")
        self.expect(capsys, path, "ingest", "--data", str(path))

    def test_station_metadata(self, capsys, tmp_path):
        path = self.latin1(tmp_path, "station,x,y\nserra_alta,1,2\nÿ,3,4\n")
        self.expect(capsys, path, "ingest", "--data", str(DATA_DIR / "stations_32y.csv"),
                    "--meta", str(path))

    def test_sample(self, capsys, tmp_path):
        path = self.latin1(tmp_path, "replicate,x,y,value\n0,0,0,1.0\n1,0,0,ÿ\n")
        self.expect(capsys, path, "estimate", "--sample", str(path), "--site", "0,0",
                    "--region", "0,0")

    def test_sample_sidecar(self, capsys, tmp_path, sample):
        path = self.latin1(tmp_path, '{"seed": "ÿ"}')
        self.expect(capsys, path, "estimate", "--sample", str(sample), "--meta", str(path),
                    "--site", "3,3", "--region", "4,3")

    def test_spec(self, capsys, tmp_path):
        path = self.latin1(tmp_path, '{"L": "ÿ"}')
        self.expect(capsys, path, "validate", "--spec", str(path))


class TestByteOrderMark:
    """A leading UTF-8 byte order mark, as spreadsheets write one, is ignored in
    every file the tool reads: a command prints what it prints without one, and
    the bulk passes still parse the file once."""

    @pytest.fixture
    def directories(self, capsys, tmp_path, monkeypatch):
        """The same files in `plain` and, each behind a byte order mark, in `bom`."""
        plain, bom = tmp_path / "plain", tmp_path / "bom"
        plain.mkdir(), bom.mkdir()
        monkeypatch.chdir(plain)
        run(capsys, "preset", "one-pattern", "--out", "spec.json")
        run(capsys, "simulate", "--spec", "spec.json", "--locations", "3,3;4,3", "--n", "20",
            "--seed", "5", "--out", "sample.csv")
        lines = Path("sample.csv").read_text().splitlines(keepends=True)
        Path("rows.csv").write_text(lines[0] + "".join(reversed(lines[1:])))  # the row reader's
        stations = (DATA_DIR / "stations_32y.csv").read_text()
        Path("stations.csv").write_text(stations)
        Path("na.csv").write_text(stations.replace(",56.8,", ",NA,", 1))
        Path("meta.csv").write_text((DATA_DIR / "stations_meta.csv").read_text())
        for path in plain.iterdir():
            (bom / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return plain, bom

    @pytest.mark.parametrize("argv, parses", [
        (["validate", "--spec", "spec.json"], 0),
        (["exact", "--spec", "spec.json", "--site=3,3", "--region", "neighbors"], 0),
        (["estimate", "--sample", "sample.csv", "--meta", "sample.meta.json", "--site=3,3",
          "--region", "4,3"], 1),
        (["estimate", "--sample", "rows.csv", "--site=3,3", "--region", "4,3"], 1),
        (["ingest", "--data", "stations.csv", "--meta", "meta.csv"], 1),
        (["ingest", "--data", "na.csv", "--missing", "drop-year"], 1),
        (["report", "--data", "stations.csv", "--condition", "serra_alta",
          "--region", "vale_frio"], 1),
    ])
    def test_is_ignored(self, capsys, monkeypatch, directories, argv, parses):
        real = np.loadtxt
        results = []
        for directory in directories:
            monkeypatch.chdir(directory)
            calls = []
            monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or real(*a, **k))
            results.append((*run(capsys, *argv), len(calls)))
        assert results[1] == results[0]
        code, out, err, count = results[0]
        assert (code, err, count) == (0, "", parses) and out


ENCODING_SCRIPT = """
import sys
from m4extremes import field_sample_to_station_csv, ingest_stations, read_sample_csv
from m4extremes.cli import main

data = sys.argv[1]
commands = [
    ["preset", "one-pattern", "--out", "spec.json"],
    ["validate", "--spec", "spec.json", "--out", "valid.json"],
    ["simulate", "--spec", "spec.json", "--locations", "3,3;4,3", "--n", "50",
     "--seed", "7", "--out", "sample.csv"],
    ["estimate", "--sample", "sample.csv", "--meta", "sample.meta.json",
     "--site", "3,3", "--region", "4,3", "--out", "estimate.json"],
    ["ingest", "--data", data + "/stations_32y.csv",
     "--meta", data + "/stations_meta.csv", "--out", "ingest.json"],
]
for argv in commands:
    assert main(argv) == 0, argv
names = field_sample_to_station_csv(read_sample_csv("sample.csv"), "st.csv",
                                    names=["Zürich", "São Brás"])
assert ingest_stations("st.csv").station_names == tuple(names)
"""


def test_every_file_names_its_encoding(tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", ENCODING_SCRIPT, str(DATA_DIR)],
        cwd=tmp_path, env=env, capture_output=True, text=True, encoding="utf-8",
    )
    assert (result.returncode, result.stderr) == (0, "")


# the options that several commands share, by the commands that take them
SHARED_OPTIONS = {
    "preset": ["--out"],
    "validate": ["--spec", "--out"],
    "exact": ["--spec", "--site", "--region", "--format", "--out"],
    "simulate": ["--spec", "--n", "--seed"],
    "estimate": ["--site", "--region", "--out"],
    "mc-study": ["--spec", "--site", "--region", "--n", "--seed", "--format", "--out"],
    "ingest": ["--data", "--meta", "--missing", "--out"],
    "report": ["--data", "--missing", "--format", "--out"],
}


def option_help(help_text: str) -> dict[str, str]:
    """Each option's help entry, whitespace collapsed, by option name."""
    entries: dict[str, str] = {}
    for line in help_text.splitlines():
        if re.match(r"  --?\w", line):
            name = line.split()[0].rstrip(",")
            entries[name] = " ".join(line.split())
        elif line.startswith("      ") and entries:  # a help text on its own line
            entries[name] += " " + " ".join(line.split())
    return entries


class TestHelp:
    @pytest.mark.parametrize("command", sorted(SHARED_OPTIONS))
    def test_help_lists_shared_options(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert set(SHARED_OPTIONS[command]) <= set(option_help(out))

    def test_shared_options_read_the_same_everywhere(self, capsys):
        seen: dict[str, set[str]] = {}
        for command, options in SHARED_OPTIONS.items():
            entries = option_help(run(capsys, command, "--help")[1])
            for option in options:
                seen.setdefault(option, set()).add(entries[option])
        assert {option: len(texts) for option, texts in seen.items()} == {
            option: 1 for option in seen
        }
