"""The bulk CSV readers against row-by-row reference readers.

`oracle_read_sample_csv` and `oracle_ingest_stations` are the readers the
package used before it parsed in bulk: one `csv.reader` row and one
`int`/`float` call at a time.  They are kept here as the reference.  Each
reader must give an equal result on a corpus of mutated files, or raise an
exception of the same type with the same message.  The sample oracle carries
the two message fixes of the bulk reader: the ragged-replicate message counts
locations, and a sidecar that is not a JSON object is a ParseError.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from m4extremes import (
    ArgumentError,
    FieldSample,
    LatticePoint,
    ParseError,
    Region,
    field_sample_to_station_csv,
    ingest_stations,
    neighbors,
    preset,
    read_sample_csv,
    simulate_m4,
    write_sample_csv,
)
from m4extremes import simulate as simulate_module
from m4extremes import stations as stations_module
from m4extremes.stations import Station, StationDataset

P = LatticePoint


# -- reference readers --------------------------------------------------------


def oracle_read_sample_csv(path, metadata_path=None) -> FieldSample:
    rows: dict[int, dict[LatticePoint, float]] = {}
    order: list[LatticePoint] = []
    seen: set[LatticePoint] = set()
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["replicate", "x", "y", "value"]:
            raise ParseError(f"{path}: expected header replicate,x,y,value")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rep = int(row[0])
                point = LatticePoint(int(row[1]), int(row[2]))
                value = float(row[3])
            except (IndexError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: malformed row: {exc}") from exc
            if value <= 0 or not math.isfinite(value):
                raise ParseError(
                    f"{path}:{lineno}: field value must be positive and finite"
                )
            cells = rows.setdefault(rep, {})
            if point in cells:
                raise ParseError(f"{path}:{lineno}: duplicate cell {point}")
            cells[point] = value
            if point not in seen:
                seen.add(point)
                order.append(point)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    locations = tuple(order)
    reps = sorted(rows)
    values = np.empty((len(reps), len(locations)))
    for i, rep in enumerate(reps):
        cells = rows[rep]
        if set(cells) != set(locations):
            raise ParseError(
                f"{path}: replicate {rep} covers {len(cells)} of "
                f"{len(locations)} locations"
            )
        for c, point in enumerate(locations):
            values[i, c] = cells[point]
    seed = None
    fingerprint = None
    if metadata_path is not None:
        try:
            meta = json.loads(Path(metadata_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read metadata {metadata_path}: {exc}") from exc
        if not isinstance(meta, dict):
            raise ParseError(f"metadata {metadata_path} is not a JSON object")
        seed = meta.get("seed")
        fingerprint = meta.get("spec_fingerprint")
    return FieldSample(locations, values, seed, fingerprint)


_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none"}


def oracle_ingest_stations(csv_path, *, missing="error") -> StationDataset:
    if missing not in ("error", "drop-year"):
        raise ParseError(f"unknown missing-value policy {missing!r}")
    try:
        fh = open(csv_path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {csv_path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or header[0].strip().lower() != "year":
            raise ParseError(f"{csv_path}: first header column must be 'year'")
        names = [h.strip() for h in header[1:]]
        if not names:
            raise ParseError(f"{csv_path}: no station columns")
        for column, name in enumerate(header[1:], start=2):
            if not name.strip():
                raise ParseError(f"{csv_path}: header column {column} has no station name")
        if len(set(names)) != len(names):
            raise ParseError(f"{csv_path}: duplicate station names in header")
        years: list[int] = []
        kept_rows: list[list[float]] = []
        dropped: list[int] = []
        seen: set[int] = set()
        for lineno, row in enumerate(reader, start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{csv_path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                year = int(row[0])
            except ValueError as exc:
                raise ParseError(
                    f"{csv_path}:{lineno}: year {row[0]!r} is not an integer"
                ) from exc
            cells: list[float] = []
            row_missing = False
            for name, raw in zip(names, row[1:]):
                token = raw.strip()
                if token.lower() in _MISSING_TOKENS:
                    if missing == "error":
                        raise ParseError(
                            f"{csv_path}: missing value for year {year}, "
                            f"station {name!r} (use --missing drop-year to skip)"
                        )
                    row_missing = True
                    continue
                try:
                    value = float(token)
                except ValueError as exc:
                    raise ParseError(
                        f"{csv_path}: year {year}, station {name!r}: "
                        f"{token!r} is not a number"
                    ) from exc
                if not math.isfinite(value) or value <= 0:
                    raise ParseError(
                        f"{csv_path}: year {year}, station {name!r}: "
                        f"maxima must be positive and finite, got {token}"
                    )
                cells.append(value)
            if year in seen:
                raise ParseError(f"{csv_path}:{lineno}: year {year} is listed twice")
            seen.add(year)
            if row_missing:
                dropped.append(year)
                continue
            years.append(year)
            kept_rows.append(cells)
    if not kept_rows:
        raise ParseError(f"{csv_path}: no usable year rows")
    return StationDataset(
        stations=tuple(Station(name) for name in names),
        years=tuple(years),
        maxima=np.array(kept_rows),
        dropped_years=tuple(dropped),
    )


# -- comparison ---------------------------------------------------------------


def _outcome(read, *args, **kwargs):
    try:
        return read(*args, **kwargs)
    except Exception as exc:  # the comparison is of the exception itself
        return exc


def _same_sample(new, old) -> bool:
    if isinstance(old, Exception) or isinstance(new, Exception):
        return type(new) is type(old) and str(new) == str(old)
    return (
        new.locations == old.locations
        and all(type(c) is int for p in new.locations for c in (p.x, p.y))
        and new.values.dtype == old.values.dtype
        and np.array_equal(new.values, old.values)
        and (new.seed, new.spec_fingerprint) == (old.seed, old.spec_fingerprint)
    )


def _same_dataset(new, old) -> bool:
    if isinstance(old, Exception) or isinstance(new, Exception):
        return type(new) is type(old) and str(new) == str(old)
    return (
        new.stations == old.stations
        and new.years == old.years
        and all(type(y) is int for y in new.years)
        and new.dropped_years == old.dropped_years
        and new.maxima.shape == old.maxima.shape
        and np.array_equal(new.maxima, old.maxima)
    )


# -- sample CSV corpus ---------------------------------------------------------

_BASE = [
    "replicate,x,y,value",
    "0,0,0,1.5",
    "0,1,0,2.25",
    "0,-1,2,0.75",
    "1,0,0,3.0",
    "1,1,0,1e-3",
    "1,-1,2,4.5",
    "2,0,0,5e2",
    "2,1,0,0.125",
    "2,-1,2,7",
]

# Whole-line replacements placed at a data line; each breaks or bends a rule.
_LINE_MUTATIONS = [
    "",
    "   ",
    "\t",
    ",,,",
    "0,0,0",
    "0,0",
    "1.0,0,0,1.5",
    "a,0,0,1.5",
    "0,b,0,1.5",
    "0,0,0,wet",
    "0,0,0,0",
    "0,0,0,-1",
    "0,0,0,inf",
    "0,0,0,nan",
    "0,0,0,1e400",
    "0,0,0,-0.0",
    "0,0,0,1e-400",
    '"0","0","0","1.5"',
    '0,0,0,"1.5",extra',
    "0,0,0,1.5,,",
    '0,0,0,"1.5',
    '0,0,0,1"5"',
    '0, "1",0,1.5',
    " 0 ,+1, 0 ,\t2.5 ",
    "0,0,0,1.5#comment",
    "#0,0,0,1.5",
    "3,0,0,1.0",
    "-1,5,5,1.0",
    "0,7,7,1.0",
    "1,1,0,9.0",
]


def _sample_corpus() -> list[tuple[str, str]]:
    rng = random.Random(20261018)
    corpus: list[tuple[str, str]] = []
    base = "\n".join(_BASE) + "\n"
    corpus.append(("base LF", base))
    corpus.append(("base CRLF", base.replace("\n", "\r\n")))
    corpus.append(("base CR", base.replace("\n", "\r")))
    corpus.append(("no final newline", base.rstrip("\n")))
    corpus.append(("header only", "replicate,x,y,value\n"))
    corpus.append(("header only, no newline", "replicate,x,y,value"))
    corpus.append(("empty file", ""))
    corpus.append(("blank first line", "\n" + base))
    corpus.append(("bad header", base.replace("replicate", "rep", 1)))
    corpus.append(("padded header", base.replace("replicate,x", " replicate , x", 1)))
    corpus.append(("extra header column", base.replace("value", "value,note", 1)))
    corpus.append(("blank lines", base.replace("\n0,1,0", "\n\n\n0,1,0")))
    corpus.append(
        ("duplicate after blank", base.replace("0,1,0,2.25\n", "0,1,0,2.25\n\n0,1,0,9\n"))
    )
    corpus.append(("unsorted replicates", "\n".join(_BASE[:1] + _BASE[7:] + _BASE[1:7]) + "\n"))
    corpus.append(
        ("shuffled rows", "\n".join(_BASE[:1] + rng.sample(_BASE[1:], len(_BASE) - 1)) + "\n")
    )
    corpus.append(("ragged", "\n".join(_BASE[:-1]) + "\n"))
    corpus.extend((name, text) for name, (text, _) in _layout_samples().items())
    corpus.append(("ragged first", "\n".join(_BASE[:1] + _BASE[2:]) + "\n"))
    corpus.append(("extra location", base + "2,9,9,1.0\n"))
    corpus.append(("quoted everything", "\n".join(
        [_BASE[0]] + [",".join(f'"{f}"' for f in line.split(",")) for line in _BASE[1:]]
    ) + "\n"))
    corpus.append(("quoted newline", base.replace("0,0,0,1.5", '0,0,0,"1.5\n"')))
    corpus.append(("trailing columns", "\n".join(
        [_BASE[0]] + [line + ",x,,7" for line in _BASE[1:]]
    ) + "\n"))
    for line in _LINE_MUTATIONS:
        for at in (1, 5, len(_BASE) - 1):
            lines = list(_BASE)
            lines[at] = line
            corpus.append((f"line {at + 1} -> {line!r}", "\n".join(lines) + "\n"))
            lines = list(_BASE)
            lines.insert(at, line)
            corpus.append((f"insert {line!r} at {at + 1}", "\n".join(lines) + "\n"))
    # two faults in one file: the first in file order is reported
    for _ in range(60):
        lines = list(_BASE)
        for line in rng.sample(_LINE_MUTATIONS, 2):
            lines.insert(rng.randrange(1, len(lines) + 1), line)
        ending = rng.choice(["\n", "\r\n"])
        corpus.append((f"two faults {lines!r}", ending.join(lines) + ending))
    return corpus


def _layout_samples() -> dict[str, tuple[str, bool]]:
    """Small files at the edges of `write_sample_csv`'s layout, each with whether
    it is in that layout: equal blocks of rows, one replicate each and in
    increasing order, each listing the first block's distinct locations in its
    order."""
    header, blocks = _BASE[0], [_BASE[1:4], _BASE[4:7], _BASE[7:10]]
    files = {
        "one location": ([[line] for line in _BASE[1::3]], True),
        "one replicate": ([blocks[0]], True),
        "one cell": ([[_BASE[1]]], True),
        "replicate-descending blocks": (blocks[::-1], False),
        "permuted blocks": ([blocks[0], blocks[2], blocks[1]], False),
        "one block reordered": ([blocks[0], [blocks[1][i] for i in (1, 2, 0)], blocks[2]], False),
        "one block reordered in x": ([blocks[0], [blocks[1][i] for i in (1, 0, 2)], blocks[2]],
                                     False),
        "one block reordered in y": ([["0,0,0,1.5", "0,0,1,2.5"], ["1,0,1,3.0", "1,0,0,3.5"]],
                                     False),
        "ragged last block": ([blocks[0], blocks[1], blocks[2][1:]], False),
        "one location, descending": ([[line] for line in _BASE[7:0:-3]], False),
        "one replicate, repeated cell": ([blocks[0] + ["0,0,0,9"]], False),
        "location repeated in every block": ([[line, line + "1"] for line in _BASE[1::3]], False),
        "block of two replicates": ([["0,0,0,1.5", "0,1,0,2.25"], ["1,0,0,3.0", "2,1,0,0.125"],
                                     ["3,0,0,7", "3,1,0,7"]], False),
    }
    return {name: ("\n".join([header] + sum(rows, [])) + "\n", in_layout)
            for name, (rows, in_layout) in files.items()}


@pytest.mark.parametrize(
    "text", [text for _, text in _sample_corpus()], ids=[n for n, _ in _sample_corpus()]
)
def test_sample_reader_matches_oracle(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    new = _outcome(read_sample_csv, path)
    old = _outcome(oracle_read_sample_csv, path)
    assert _same_sample(new, old), (new, old)


def test_sample_corpus_has_both_outcomes(tmp_path):
    accepted = 0
    for _, text in _sample_corpus():
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        accepted += not isinstance(_outcome(oracle_read_sample_csv, path), Exception)
    assert accepted >= 10 and len(_sample_corpus()) - accepted >= 100


@pytest.mark.parametrize("meta", ['{"seed": 3, "spec_fingerprint": "f"}', "[1, 2]", "7", "{"])
def test_sample_sidecar_matches_oracle(tmp_path, meta):
    path = tmp_path / "s.csv"
    path.write_text("\n".join(_BASE) + "\n")
    meta_path = tmp_path / "s.meta.json"
    meta_path.write_text(meta)
    new = _outcome(read_sample_csv, path, meta_path)
    old = _outcome(oracle_read_sample_csv, path, meta_path)
    assert _same_sample(new, old), (new, old)


_POSITIVE_DOUBLES = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308, allow_infinity=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-310, 1e308, 1.0, 0.1]),
)


@given(
    st.integers(1, 6).flatmap(
        lambda k: st.lists(
            st.lists(_POSITIVE_DOUBLES, min_size=k, max_size=k), min_size=1, max_size=6
        )
    ),
    st.randoms(use_true_random=False),
)
def test_sample_round_trip(tmp_path_factory, rows, rnd):
    k = len(rows[0])
    locations = tuple(rnd.sample([P(x, y) for x in range(-3, 4) for y in range(-3, 4)], k))
    sample = FieldSample(locations, np.array(rows))
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    write_sample_csv(sample, path)
    back = read_sample_csv(path)
    assert back.locations == sample.locations
    assert np.array_equal(back.values, sample.values)


@st.composite
def _field_samples(draw) -> FieldSample:
    """A sample the constructor accepts: 1-6 locations, each holding one of up
    to three distinct columns when grouped, as simulation records them."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    grouped = draw(st.booleans())
    labels = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)) if grouped else range(k)
    columns = max(labels) + 1
    rows = draw(st.lists(st.lists(_POSITIVE_DOUBLES, min_size=columns, max_size=columns),
                         min_size=n, max_size=n))
    points = draw(st.permutations([P(x, y) for x in range(-2, 3) for y in range(-2, 3)]))
    if grouped:
        return _grouped(points[:k], rows, tuple(labels))
    return FieldSample(tuple(points[:k]), np.array(rows))


def _bits(values) -> bytes:
    return np.ascontiguousarray(values).tobytes()


@given(_field_samples())
def test_accepted_samples_round_trip_through_both_formats(tmp_path_factory, sample):
    folder = tmp_path_factory.mktemp("rt")
    write_sample_csv(sample, folder / "s.csv")
    back = read_sample_csv(folder / "s.csv")
    assert back.locations == sample.locations
    assert _bits(back.values) == _bits(sample.values)
    names = field_sample_to_station_csv(sample, folder / "d.csv")
    dataset = ingest_stations(folder / "d.csv")
    assert dataset.station_names == tuple(names)
    assert dataset.years == tuple(range(1, 1 + sample.n))
    assert _bits(dataset.maxima) == _bits(sample.values)


@given(st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=1, max_size=4))
def test_constructor_takes_only_what_the_readers_read(rows):
    values = np.array(rows)
    bad = ~((values > 0) & (values < math.inf))
    points = (P(0, 0), P(1, 0), P(2, 0))
    if not bad.any():
        assert _bits(FieldSample(points, values).values) == _bits(values)
        return
    r, c = np.argwhere(bad)[0]
    with pytest.raises(ArgumentError) as caught:
        FieldSample(points, values)
    assert str(caught.value) == (f"replicate {r}, location {points[c]}: "
                                 f"field value must be positive and finite, got {values[r, c]}")


# -- station CSV corpus --------------------------------------------------------

_STATIONS = [
    "year,a,b,c",
    "2000,1.5,2.0,3.25",
    "2001,0.5,1e2,7",
    "2002,4.0,5.5,6.0",
    "2003,2.5,3.5,4.5",
]

_CELL_MUTATIONS = [
    "", " ", "na", "NA", "n/a", "N/A", "nan", "NaN", " nan ", "null", "NULL", "none",
    "None", "-nan", "+nan", "inf", "-inf", "0", "-1", "-0.0", "1e400", "1e-400",
    "wet", "1,5", '"2.5"', " 2.5 ", "1_0", "0x10",
    # outside the bulk grammar, but `float` reads the first three
    "\u0662.\u0665", "7\x1c", "\x1f7", "5\x00", '"2.5\n"', '"2\r\n.5"',
]


def _station_corpus() -> list[tuple[str, str]]:
    rng = random.Random(20261019)
    base = "\n".join(_STATIONS) + "\n"
    header = _STATIONS[0]
    corpus = [
        ("base", base),
        ("base CRLF", base.replace("\n", "\r\n")),
        ("base CR", base.replace("\n", "\r")),
        ("non-ASCII names", base.replace(header, "year,Zürich,São Paulo,Ørsted", 1)),
        ("non-ASCII names CR", base.replace(header, "year,Zürich,b,c", 1).replace("\n", "\r")),
        ("separator control in a name", base.replace(header, "year,a\x1cb,b,c", 1)),
        ("quoted names", base.replace(header, 'year,"a, north","b ""east""",c', 1)),
        ("quoted newline in header", base.replace(header, 'year,"a\nb",b,c', 1)),
        ("quoted CRLF in header", base.replace(header, 'year,"a\r\nb",b,c', 1)),
        ("quoted non-ASCII newline in header", base.replace(header, 'year,"Zürich\nSüd",b,c', 1)),
        ("quoted cell", base.replace("2002,4.0", '2002,"4.0"', 1)),
        ("quoted year", base.replace("2002,4.0", '"2002",4.0', 1)),
        ("quoted newline in a cell", base.replace("2001,0.5", '2001,"0.5\n"', 1)),
        ("quoted newline in a cell CRLF", base.replace("2001,0.5", '2001,"0.5\r\n"', 1)
         .replace("\n", "\r\n")),
        ("year outside 64 bits", base.replace("2003", str(1 << 64), 1)),
        ("20-digit year", base.replace("2003", "9" * 20, 1)),
        ("negative year outside 64 bits", base.replace("2003", str(-(1 << 63) - 1), 1)),
        ("64-bit year extremes", base.replace("2000", str((1 << 63) - 1), 1)
         .replace("2003", str(-(1 << 63)), 1)),
        ("Arabic-Indic year", base.replace("2002", "\u0662\u0660\u0660\u0662", 1)),
        ("Arabic-Indic digits", base.replace("2.5,3.5", "\u0662.\u0665,3.\u0665", 1)),
        ("separator controls around a cell", base.replace("5.5", "\x1c5.5\x1f", 1)),
        ("NUL in a cell", base.replace("5.5", "5.5\x00", 1)),
        ("NUL in a year", base.replace("2002", "2002\x00", 1)),
        ("NUL line", base.replace("\n2001", "\n\x00\n2001", 1)),
        ("non-ASCII space in a cell", base.replace("5.5", "5.5\xa0", 1)),
        ("underscore year", base.replace("2002", "2_002", 1)),
        ("exponent cell", base.replace("5.5", "5.5E0", 1)),
        ("whitespace cells", base.replace("2002,4.0,5.5,6.0", " 2002 ,\t4.0, 5.5\x0b,\x0c6.0 ", 1)),
        ("no final newline", base.rstrip("\n")),
        ("header only, no newline", header),
        ("blank lines", base.replace("\n2001", "\n\n  \n,,,\n2001")),
        ("header only", _STATIONS[0] + "\n"),
        ("empty file", ""),
        ("no stations", "year\n2000\n"),
        ("bad header", base.replace("year", "season", 1)),
        ("duplicate names", base.replace("c", "a", 1)),
        ("trailing comma in header", base.replace(header, "year,a,b,", 1)),
        ("blank name inside header", base.replace(header, "year,a,,b", 1)),
        ("padded header", base.replace("year,a", " Year , a ", 1)),
    ]
    for cell in _CELL_MUTATIONS:
        for row, col in ((1, 1), (3, 3)):
            lines = [line.split(",") for line in _STATIONS]
            lines[row][col] = cell
            corpus.append((f"cell {row},{col} -> {cell!r}", "\n".join(map(",".join, lines)) + "\n"))
    for line in ["2004,1,2", "2004,1,2,3,4", "MMXX,1,2,3", "2004.0,1,2,3", " 2004 ,1,2,3",
                 "+2004,1,2,3", "1_999,1,2,3", ",1,2,3", "2004,,,"]:
        for at in (1, len(_STATIONS)):
            lines = list(_STATIONS)
            lines.insert(at, line)
            corpus.append((f"row {line!r} at {at + 1}", "\n".join(lines) + "\n"))
    # several faults: the first in file order is reported
    for _ in range(60):
        lines = [line.split(",") for line in _STATIONS]
        for _ in range(rng.randint(2, 3)):
            lines[rng.randrange(1, len(lines))][rng.randrange(1, 4)] = rng.choice(_CELL_MUTATIONS)
        corpus.append((f"faults {lines!r}", "\n".join(map(",".join, lines)) + "\n"))
    return corpus


@pytest.mark.parametrize("missing", ["error", "drop-year"])
@pytest.mark.parametrize(
    "text", [text for _, text in _station_corpus()], ids=[n for n, _ in _station_corpus()]
)
def test_station_reader_matches_oracle(tmp_path, text, missing):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    new = _outcome(ingest_stations, path, missing=missing)
    old = _outcome(oracle_ingest_stations, path, missing=missing)
    assert _same_dataset(new, old), (new, old)


def test_station_corpus_has_both_outcomes(tmp_path):
    accepted = 0
    for _, text in _station_corpus():
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        accepted += not isinstance(_outcome(oracle_ingest_stations, path), Exception)
    assert accepted >= 40 and len(_station_corpus()) - accepted >= 100


# Single characters and tokens inserted or written over at random places in
# small station files, both through the bulk pass and past it.
_INSERTIONS = [
    "\r", "\n", "\r\n", '"', ",", " ", "\t", "\x0b", "\x00", "_", "-", "+", ".", "e",
    "0", "9", "\u0663", "\x1c", "\x1f", "\xa0", "é", "nan", "inf", "NA", "1e400",
    "9" * 20, "#",
]


def test_station_reader_matches_oracle_on_insertions(tmp_path):
    rng = random.Random(20261020)
    headers = [_STATIONS[0], "year,Zürich,b,c", 'year,"a\nb",b,c']
    path = tmp_path / "d.csv"
    accepted = 0
    for _ in range(1000):
        lines = [rng.choice(headers)] + _STATIONS[1:]
        text = rng.choice(["\n", "\r\n", "\r"]).join(lines) + rng.choice(["\n", "\r", ""])
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            cut = at + (rng.random() < 0.3)
            text = text[:at] + rng.choice(_INSERTIONS) + text[cut:]
        path.write_bytes(text.encode())
        for missing in ("error", "drop-year"):
            new = _outcome(ingest_stations, path, missing=missing)
            old = _outcome(oracle_ingest_stations, path, missing=missing)
            assert _same_dataset(new, old), (text, missing, new, old)
            accepted += not isinstance(old, Exception)
    assert 200 <= accepted <= 1800


def test_sample_reader_matches_oracle_on_insertions(tmp_path):
    # the same insertions in small sample files: the bulk pass and the row
    # reader between them read what the oracle reads
    rng = random.Random(20261018)
    path = tmp_path / "s.csv"
    accepted = 0
    for _ in range(1000):
        text = rng.choice(["\n", "\r\n", "\r"]).join(_BASE) + rng.choice(["\n", "\r", ""])
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            cut = at + (rng.random() < 0.3)
            text = text[:at] + rng.choice(_INSERTIONS) + text[cut:]
        path.write_bytes(text.encode())
        new = _outcome(read_sample_csv, path)
        old = _outcome(oracle_read_sample_csv, path)
        assert _same_sample(new, old), (text, new, old)
        accepted += not isinstance(old, Exception)
    assert 50 <= accepted <= 950


def _spy_bulk_pass(monkeypatch) -> tuple[list, list]:
    """Two lists the station reader fills: one entry per `np.loadtxt` parse,
    and for each bulk pass whether it took the file's rows."""
    parses, taken = [], []
    real_loadtxt, real_bulk_rows = np.loadtxt, stations_module._bulk_rows

    def bulk_rows(*args, **kwargs):
        rows = real_bulk_rows(*args, **kwargs)
        taken.append(rows is not None)
        return rows

    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parses.append(1) or real_loadtxt(*a, **k))
    monkeypatch.setattr(stations_module, "_bulk_rows", bulk_rows)
    return parses, taken


def test_station_reader_scans_rows_only_for_rejected_files(tmp_path, monkeypatch):
    # every row `csv.reader` gives the station reader; the bulk pass reads
    # only the header that way
    rows = []
    real = stations_module._csv_rows

    def counting(path, fh):
        for row in real(path, fh):
            rows.append(row)
            yield row

    monkeypatch.setattr(stations_module, "_csv_rows", counting)
    parses, taken = _spy_bulk_pass(monkeypatch)
    base = "\n".join(_STATIONS) + "\n"
    path = tmp_path / "d.csv"
    expected = oracle_ingest_stations(_write(path, base))
    for text in (
        base,
        base.replace("\n", "\r\n"),
        base.replace("\n", "\r"),
        base.replace("year,a,b,c", "year,Zürich,São Paulo,Ørsted"),
        base.replace("year,a,b,c", "year,a\x1cb,b,c"),
        base.replace("0.5,1e2", " 0.5 ,\t1e2"),  # blanks around values, no blank cell
    ):
        rows.clear()
        parses.clear()
        taken.clear()
        dataset = ingest_stations(_write(path, text), missing="drop-year")
        assert rows == [next(csv.reader(io.StringIO(text, newline="")))]
        assert (parses, taken) == ([1], [True])
        assert dataset.years == expected.years
        assert np.array_equal(dataset.maxima, expected.maxima)
        assert dataset.maxima.flags.c_contiguous
    # a missing cell fails the one bulk parse (`nan` fails the value check
    # after it), and the row scan reads the file again: the header and every
    # data row when it drops the year, or up to the year it names
    for cells, station in [("NA,1e2", "a"), ("n/a,1e2", "a"), ("N/A,1e2", "a"),
                           ("nan,1e2", "a"), ("null,1e2", "a"), ("None,1e2", "a"),
                           (",1e2", "a"), (" ,1e2", "a"), ("\t,1e2", "a"),
                           ("0.5,", "b"), ("0.5,\t\v\f ", "b")]:
        text = base.replace("0.5,1e2", cells).replace("\n2003,", "\r\n2003,")
        for missing in ("error", "drop-year"):
            rows.clear()
            parses.clear()
            taken.clear()
            dataset = _outcome(ingest_stations, _write(path, text), missing=missing)
            assert _same_dataset(
                dataset, _outcome(oracle_ingest_stations, path, missing=missing)
            ), (cells, missing)
            assert (parses, taken) == ([1], [False]), cells
            if missing == "drop-year":
                assert (dataset.years, dataset.dropped_years) == ((2000, 2002, 2003), (2001,))
                assert len(rows) == 2 + len(_STATIONS) - 1
            else:
                assert str(dataset) == (f"{path}: missing value for year 2001, station "
                                        f"{station!r} (use --missing drop-year to skip)")
                assert len(rows) == 2 + 2
    # a quoted cell keeps the file from the parse: the row scan alone reads it
    rows.clear()
    parses.clear()
    taken.clear()
    dataset = ingest_stations(_write(path, base.replace("0.5,1e2", '"0.5",1e2')))
    assert (parses, taken, len(rows)) == ([], [False], 2 + len(_STATIONS) - 1)
    assert np.array_equal(dataset.maxima, expected.maxima)


@pytest.mark.parametrize("missing", ["error", "drop-year"])
@pytest.mark.parametrize(
    "last, missing_cell",
    [("", True), (" ", True), ("\t\v\f ", True), ("4.5", False), ("4.5 \t", False)],
    ids=["empty", "blank", "blanks", "value", "value and blanks"],
)
def test_station_reader_sees_the_last_cell_without_a_line_end(
    tmp_path, monkeypatch, last, missing_cell, missing
):
    # a file with no final line end: an empty or blank last cell fails the one
    # bulk parse and goes to the row scan, with the same years or message
    parses, taken = _spy_bulk_pass(monkeypatch)
    path = _write(tmp_path / "d.csv", "\n".join(_STATIONS) + "\n2004,2.5,3.5," + last)
    new = _outcome(ingest_stations, path, missing=missing)
    assert (parses, taken) == ([1], [not missing_cell])
    assert _same_dataset(new, _outcome(oracle_ingest_stations, path, missing=missing))
    if not missing_cell:
        assert new.years == (2000, 2001, 2002, 2003, 2004)
    elif missing == "drop-year":
        assert (new.years, new.dropped_years) == ((2000, 2001, 2002, 2003), (2004,))
    else:
        assert str(new) == (f"{path}: missing value for year 2004, station 'c' "
                            "(use --missing drop-year to skip)")


def _write(path: Path, text: str) -> Path:
    path.write_bytes(text.encode())
    return path


_LIMIT = csv.field_size_limit()

# a field `csv.reader` rejects for its length, and the cells around it
_LONG_FIELDS = pytest.mark.parametrize(
    "cell, other",
    [
        ("1." + "0" * (_LIMIT - 2), "2"),  # at the limit: read
        ("1." + "0" * (_LIMIT - 1), "2"),  # one over
        ("1." + "0" * 200_000, "2"),
        ("1." + "0" * (_LIMIT - 1), "NA"),  # a missing cell sends it to the row scan
        (" " * (_LIMIT + 1) + "1.5", "2"),
        ('"' + "1." + "0" * _LIMIT + '"', "2"),
        ('"' + "\n" * (_LIMIT + 1) + '1.5"', "2"),  # no line of it is long
        ('"' + "\r\n 1.5" * (_LIMIT // 5) + '"', "2"),
    ],
    ids=["at limit", "over", "200,000 zeros", "over, NA elsewhere", "spaces",
         "quoted", "quoted newlines", "quoted CRLFs"],
)


def _same_or_csv_error(new, old, path) -> bool:
    """The oracles raise `csv.Error` itself; the readers name its line."""
    if isinstance(old, csv.Error):
        return (isinstance(new, ParseError) and str(new).startswith(f"{path}:")
                and str(new).endswith(f": {old}"))
    if isinstance(old, StationDataset):
        return _same_dataset(new, old)
    return _same_sample(new, old)


@pytest.mark.parametrize("missing", ["error", "drop-year"])
@_LONG_FIELDS
def test_station_reader_agrees_with_csv_on_long_fields(tmp_path, cell, other, missing):
    # a field `csv.reader` rejects for its length is rejected on the bulk
    # path as in the row scan, whatever the other cells hold
    path = _write(tmp_path / "d.csv", f"year,a,b\n2000,{cell},2\n2001,3,{other}\n")
    new = _outcome(ingest_stations, path, missing=missing)
    old = _outcome(oracle_ingest_stations, path, missing=missing)
    assert _same_or_csv_error(new, old, path), (new, old)


@_LONG_FIELDS
def test_sample_reader_agrees_with_csv_on_long_fields(tmp_path, cell, other):
    path = _write(tmp_path / "s.csv", f"replicate,x,y,value\n0,0,0,{cell}\n1,0,0,{other}\n")
    new = _outcome(read_sample_csv, path)
    old = _outcome(oracle_read_sample_csv, path)
    assert _same_or_csv_error(new, old, path), (new, old)


def test_long_field_check_at_every_alignment(tmp_path, monkeypatch):
    # an unquoted field over the limit keeps the file from the bulk pass
    # wherever it starts, at the end of the file too, and the reader names
    # its line; a field under half the limit never does
    parses = []
    real_loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parses.append(1) or real_loadtxt(*a, **k))
    readers = [
        (b"year,a\n", b"7,", ingest_stations, oracle_ingest_stations),
        (b"replicate,x,y,value\n", b"0,0,0,", read_sample_csv, oracle_read_sample_csv),
    ]
    old_limit = csv.field_size_limit(10)
    try:
        for header, cells, read, oracle in readers:
            for pad in range(14):
                for width, end in ((11, b"\n"), (11, b""), (30, b"\n"), (5, b"\n"), (5, b"")):
                    # a first row of short fields moves the second across the blocks
                    first = b"7" * (pad % 5 + 1) + b"," + b"7" * (pad // 5 + 1)
                    if read is read_sample_csv:
                        first = first.replace(b",", b",0,0,")
                    raw = header + first + b"\n" + cells + b"9" * width + end
                    where = (header, pad, width, end)
                    start = len(header) - 1
                    assert simulate_module._bulk_safe(raw, start) is (width <= 10), where
                    path = _write(tmp_path / "f.csv", raw.decode())
                    parses.clear()
                    new, old = _outcome(read, path), _outcome(oracle, path)
                    assert _same_or_csv_error(new, old, path), where
                    assert isinstance(old, csv.Error) is (width > 10), where
                    assert parses == ([] if width > 10 else [1]), where
    finally:
        csv.field_size_limit(old_limit)


def _grouped(locations, values, row_of) -> FieldSample:
    """A sample whose locations share the rows of `values`, as simulation holds
    locations that share a weight matrix."""
    return FieldSample._of_rows(locations, np.asarray(values).T.copy(), row_of)


def _writer_samples() -> dict[str, FieldSample]:
    # a region around (3, 3) where several sites share a weight matrix
    region = Region([*neighbors(P(3, 3)), P(3, 3), P(-6, -6), P(6, 6)])
    samples = {
        "plain": FieldSample(
            (P(0, 0), P(-1, 2), P(3, -4)),
            np.array([[1.5, 2.0 / 3.0, 1e308], [5e-324, 0.1, 7.0]]),
        ),
        "one location": simulate_m4(preset("two-pattern"), [P(0, 0)], 5, 3),
        "one replicate": simulate_m4(preset("two-pattern"), region, 1, 4),
        "hand-grouped": _grouped(
            [P(x, 1) for x in range(7)],
            [[1e16, 5e-324, 1.7976931348623157e308, 1e-5], [0.1, 2.0 / 3.0, 1e308, 1.0]],
            (2, 0, 2, 1, 3, 0, 2),
        ),
    }
    for name in ("one-pattern", "two-pattern"):
        samples[name] = simulate_m4(preset(name), region, 6, 5)
    return samples


WRITER_SAMPLES = _writer_samples()


def test_writer_samples_share_columns():
    shared = [name for name, sample in WRITER_SAMPLES.items()
              if len(sample._rows) < len(sample.locations)]
    assert shared == ["one replicate", "hand-grouped", "one-pattern", "two-pattern"]


@pytest.mark.parametrize("name", list(WRITER_SAMPLES))
def test_station_writer_matches_csv_writer(tmp_path, name):
    sample = WRITER_SAMPLES[name]
    k = len(sample.locations)
    names = (["plain", 'quoted "name"', "comma, name"] + [f"s{c}" for c in range(3, k)])[:k]
    path = tmp_path / "st.csv"
    assert field_sample_to_station_csv(sample, path, names=names) == names
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["year"] + names)
    for year, row in enumerate(sample.values, start=1):
        writer.writerow([year] + [repr(float(v)) for v in row])
    assert path.read_bytes() == expected.getvalue().encode()
    assert b"\r\n" in path.read_bytes()
    plain = tmp_path / "plain.csv"
    field_sample_to_station_csv(FieldSample(sample.locations, sample.values), plain, names=names)
    assert plain.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name", list(WRITER_SAMPLES))
def test_sample_writer_matches_csv_writer(tmp_path, name):
    sample = WRITER_SAMPLES[name]
    path = tmp_path / "s.csv"
    write_sample_csv(sample, path)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["replicate", "x", "y", "value"])
    for r, row in enumerate(sample.values):
        for point, v in zip(sample.locations, row):
            writer.writerow([r, point.x, point.y, repr(float(v))])
    assert path.read_bytes() == expected.getvalue().encode()
    plain = tmp_path / "plain.csv"
    write_sample_csv(FieldSample(sample.locations, sample.values), plain)
    assert plain.read_bytes() == path.read_bytes()


def test_sample_reader_reads_rows_only_outside_the_writer_layout(tmp_path, monkeypatch):
    # what `write_sample_csv` writes, grouped or not, takes the bulk pass alone;
    # a file in another layout falls to the row reader after it
    parses, reads = [], []
    real_loadtxt, real_read_rows = np.loadtxt, simulate_module._read_rows
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parses.append(1) or real_loadtxt(*a, **k))
    monkeypatch.setattr(simulate_module, "_read_rows",
                        lambda path, reader: reads.append(1) or real_read_rows(path, reader))
    path = tmp_path / "s.csv"
    for name, sample in WRITER_SAMPLES.items():
        for written in (sample, FieldSample(sample.locations, sample.values)):
            write_sample_csv(written, path)
            parses.clear()
            reads.clear()
            back = read_sample_csv(path)
            assert (parses, reads) == ([1], []), name
            assert back.locations == sample.locations, name
            assert _bits(back.values) == _bits(sample.values), name
    for name, (text, in_layout) in _layout_samples().items():
        parses.clear()
        reads.clear()
        new = _outcome(read_sample_csv, _write(path, text))
        assert (parses, reads) == ([1], [] if in_layout else [1]), name
        assert _same_sample(new, _outcome(oracle_read_sample_csv, path)), name


def test_sample_reader_opens_its_file_once(tmp_path, monkeypatch):
    # one text open and one header check per read; a file that the bulk pass refuses
    # is read again from the start of that handle, and a bad header stops the read
    # before the bulk pass reads the bytes
    opens, byte_reads = [], []
    real_open, real_read_bytes = simulate_module._open_csv, Path.read_bytes
    monkeypatch.setattr(simulate_module, "_open_csv",
                        lambda path: opens.append(1) or real_open(path))
    monkeypatch.setattr(Path, "read_bytes",
                        lambda self: byte_reads.append(1) or real_read_bytes(self))
    lines = "\n".join(_BASE[1:]) + "\n"
    files = {  # name: (text, text opens, bytes reads)
        "writer layout": (f"{_BASE[0]}\n{lines}", 1, 1),
        "reordered": (_layout_samples()["permuted blocks"][0], 1, 1),
        "bad value": (f"{_BASE[0]}\n{lines.replace('1e-3', 'NA')}", 1, 1),
        "bad header": (f"replicate,x,y,val\n{lines}", 1, 0),
    }
    path = tmp_path / "s.csv"
    for name, (text, text_opens, bytes_reads) in files.items():
        old = _outcome(oracle_read_sample_csv, _write(path, text))
        for bom in ("", "\ufeff"):  # the reader skips a BOM, on each read; the oracle reads none
            _write(path, bom + text)
            opens.clear()
            byte_reads.clear()
            new = _outcome(read_sample_csv, path)
            assert (len(opens), len(byte_reads)) == (text_opens, bytes_reads), (name, bom)
            assert _same_sample(new, old), (name, bom, new, old)
    assert str(new) == f"{path}: expected header replicate,x,y,value"


@pytest.mark.parametrize("write", [write_sample_csv, field_sample_to_station_csv])
def test_writers_stream_one_replicate_at_a_time(tmp_path, write):
    spec = preset("two-pattern")
    sample = simulate_m4(spec, Region(spec.domain_points()), 200, 6)
    path = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        write(sample, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1_500_000
    assert peak < 1_000_000  # bytes: a few replicates' text, not the whole file


# -- outside the bulk grammar ---------------------------------------------------
#
# `np.loadtxt` reads no digit-group underscores, no integers beyond 64 bits and
# no non-ASCII digits, and its whitespace differs from `int`'s and `float`'s for
# non-ASCII and separator characters.  A file that `int` and `float` accept only
# through one of these is read row by row, to the same sample as the oracle's.


@pytest.mark.parametrize(
    "line",
    [
        "1_0,1,0,1.0",
        "1,1,0,1_0.5",
        f"{1 << 63},1,0,1.0",
        f"1,{-(1 << 63) - 1},0,1.0",
        "1,1,0,1.0\xa0",
        "١,1,0,1.0",
        "1,1,0,1.0,\x1c",
    ],
)
def test_sample_reader_reads_outside_bulk_grammar(tmp_path, line):
    path = tmp_path / "s.csv"
    path.write_text(f"replicate,x,y,value\n\n\n{line}\n", encoding="utf-8")
    new = read_sample_csv(path)
    assert _same_sample(new, oracle_read_sample_csv(path))
    assert new.values.tolist() == [[10.5 if "1_0.5" in line else 1.0]]


@pytest.mark.parametrize(
    "text, message",
    [
        ("1_0,0,0,1.0\n0,0,0,-1\n", ":3: field value must be positive and finite"),
        ("1_0,0,0,1.0\n0,0,0,2.0\n0,1,0,2.0\n", ": replicate 10 covers 1 of 2 locations"),
        # replicates are checked in sorted order, not in file order
        ("5,0,0,1.0\n3,0,0,1.0\n3,1,0,2.0\n7,1_0,0,1.0\n", ": replicate 3 covers 2 of 3 locations"),
    ],
)
def test_sample_reader_names_older_errors_first(tmp_path, text, message):
    # a file outside the bulk grammar gets the row-by-row reader's error
    path = tmp_path / "s.csv"
    path.write_text("replicate,x,y,value\n" + text)
    with pytest.raises(ParseError) as caught:
        read_sample_csv(path)
    assert str(caught.value) == str(_outcome(oracle_read_sample_csv, path))
    assert str(caught.value) == f"{path}{message}"


@pytest.mark.parametrize("header", ["replicate\xa0,x,y,value", "replicate,x,y,value\x1c"])
def test_sample_reader_reads_outside_bulk_grammar_in_header(tmp_path, header):
    # blanks around the header's names are dropped, as in the station header
    path = _write(tmp_path / "s.csv", header + "\n0,0,0,1.5\n")
    new = read_sample_csv(path)
    assert _same_sample(new, oracle_read_sample_csv(path))
    assert new.values.tolist() == [[1.5]]


@pytest.mark.parametrize("char", ["\u01fe", "\u04ff", "\u0761", "\u1170"])
def test_readers_keep_non_ascii_from_bulk_pass(tmp_path, char):
    # `np.loadtxt` reads each of these characters in an integer as a digit,
    # where `int` rejects it: the bulk pass never sees a non-ASCII data byte
    sample = _write(tmp_path / "s.csv", f"replicate,x,y,value\n1{char},0,0,1.5\n")
    new = _outcome(read_sample_csv, sample)
    assert isinstance(new, ParseError)
    assert _same_sample(new, _outcome(oracle_read_sample_csv, sample))
    stations = _write(tmp_path / "d.csv", f"year,a\n200{char},1.5\n")
    for missing in ("error", "drop-year"):
        new = _outcome(ingest_stations, stations, missing=missing)
        assert isinstance(new, ParseError)
        assert _same_dataset(new, _outcome(oracle_ingest_stations, stations, missing=missing))


def test_sample_reader_takes_64_bit_extremes(tmp_path):
    lo, hi = -(1 << 63), (1 << 63) - 1
    path = tmp_path / "s.csv"
    path.write_text(f"replicate,x,y,value\n{hi},{lo},{hi},2.5\n{lo},{lo},{hi},1.5\n")
    sample = read_sample_csv(path)
    assert sample.locations == (P(lo, hi),)
    assert sample.values.tolist() == [[1.5], [2.5]]
