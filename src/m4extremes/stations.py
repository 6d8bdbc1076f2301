"""Station-data ingestion and index estimation for annual-maxima records.

The CSV layout is one row per year: first column `year`, remaining columns
one station each (header row carries the station names).  Station
coordinates live in an optional metadata CSV `station,x,y` and are
display-only; the estimators are rank-based, so any strictly increasing
per-station transform of the data (including a marginal Frechet transform)
leaves every estimate unchanged.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from ._numpy import np
from .errors import ArgumentError, ParseError, UnknownStationError
from .estimate import _pairwise_estimates, estimate_summary, scores_from_matrix
from .lattice import LatticePoint, Region
from .simulate import FieldSample, _bulk_rows, _csv_rows, _open_csv, _read_only, _value_texts

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none"}


@dataclass(frozen=True)
class Station:
    name: str
    x: float | None = None
    y: float | None = None


@dataclass(frozen=True, eq=False)
class StationDataset:
    """Annual maxima, positive and finite, for a set of stations: `maxima` has
    one row per year (an independent replicate) and one column per station."""

    stations: tuple[Station, ...]
    years: tuple[int, ...]
    maxima: np.ndarray
    dropped_years: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        maxima = np.asarray(self.maxima, dtype=np.float64)
        if maxima.shape != (len(self.years), len(self.stations)):
            raise ArgumentError(f"maxima of shape {maxima.shape} for {len(self.years)} "
                                f"years and {len(self.stations)} stations")
        if maxima.size and not (0 < maxima.min() and maxima.max() < np.inf):  # NaN fails too
            y, c = np.argwhere(~((maxima > 0) & (maxima < np.inf)))[0]
            raise ArgumentError(f"year {self.years[y]}, station {self.stations[c].name!r}: "
                                f"maxima must be positive and finite, got {maxima[y, c]}")
        object.__setattr__(self, "maxima", _read_only(maxima, self.maxima))

    @property
    def n(self) -> int:
        return len(self.years)

    @property
    def station_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stations)

    @cached_property
    def _columns(self) -> dict[str, int]:
        # the first column of a repeated name, as tuple.index gave
        return {name: c for c, name in reversed(list(enumerate(self.station_names)))}

    def column(self, name: str) -> int:
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownStationError(f"unknown station {name!r}") from None


def _read_metadata(path: str | Path) -> dict[str, tuple[float, float]]:
    coords: dict[str, tuple[float, float]] = {}
    with _open_csv(path) as fh:
        reader = _csv_rows(path, fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["station", "x", "y"]:
            raise ParseError(f"{path}: expected header station,x,y")
        for lineno, row in enumerate(reader, start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            try:
                x, y = float(row[1]), float(row[2])
            except (IndexError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: malformed row: {exc}") from exc
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"{path}:{lineno}: non-finite coordinates {x}, {y}")
            coords[row[0].strip()] = (x, y)
    return coords


def _classify_cells(
    csv_path: str | Path, year: int, names: list[str], raw_cells: list[str], missing: str
) -> list[float] | None:
    """A year's maxima, or None to drop the year; raises for a bad cell."""
    cells: list[float] = []
    row_missing = False
    for name, raw in zip(names, raw_cells):
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
    return None if row_missing else cells


def ingest_stations(
    csv_path: str | Path,
    *,
    missing: str = "error",
    metadata_path: str | Path | None = None,
) -> StationDataset:
    """Parse and validate a station CSV.

    `missing` selects the policy for empty/NA cells: "error" rejects the
    file (default), "drop-year" removes the affected rows.  Non-numeric or
    non-positive maxima always fail, naming the offending cell.  The data
    rows are read in one `np.loadtxt` pass and checked as arrays.  A file
    that pass refuses, such as one with a missing cell, is read again row by
    row, which drops the years or names the first bad cell.
    """
    if missing not in ("error", "drop-year"):
        raise ParseError(f"unknown missing-value policy {missing!r}")
    with _open_csv(csv_path) as fh:
        reader = _csv_rows(csv_path, fh)
        header = next(reader, None)
        if header is None or not header or header[0].strip().lower() != "year":
            raise ParseError(f"{csv_path}: first header column must be 'year'")
        names = [h.strip() for h in header[1:]]
        if not names:
            raise ParseError(f"{csv_path}: no station columns")
        if len(set(names)) != len(names):
            raise ParseError(f"{csv_path}: duplicate station names in header")
        row_type = np.dtype([("year", np.int64), ("maxima", np.float64, (len(names),))])
        rows = _bulk_rows(csv_path, fh, row_type)
        if rows is not None:  # no row is left to scan
            years, kept_rows, dropped, reader = rows["year"].tolist(), rows["maxima"], [], ()
        else:  # read again row by row, to drop years or name the first bad cell
            fh.seek(0)
            reader = _csv_rows(csv_path, fh)
            next(reader)  # the header
            years, kept_rows, dropped = [], [], []
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
            try:
                cells = list(map(float, row[1:]))
            except ValueError:  # a missing token or a non-number
                cells = None
            # the sum is NaN or inf when a cell is; it can also overflow, which
            # only sends a good row through the classifier
            if cells is None or not (min(cells) > 0 and sum(cells) < math.inf):
                cells = _classify_cells(csv_path, year, names, row[1:], missing)
            if cells is None:
                dropped.append(year)
                continue
            years.append(year)
            kept_rows.append(cells)
    if not years:
        raise ParseError(f"{csv_path}: no usable year rows")
    coords = _read_metadata(metadata_path) if metadata_path is not None else {}
    stations = tuple(Station(name, *coords.get(name, (None, None))) for name in names)
    maxima = np.array(kept_rows)
    maxima.setflags(write=False)  # fresh, so StationDataset need not copy it
    return StationDataset(stations, tuple(years), maxima, tuple(dropped))


@dataclass(frozen=True)
class StationIndicesReport:
    """Estimated indices from a conditioning station to a region of stations."""

    conditioning: str
    region: tuple[str, ...]
    n: int
    contagion: float
    stability: float
    pairwise: tuple[tuple[str, float, bool], ...]  # (station, estimate, out_of_range)
    joint: float

    def to_json_dict(self) -> dict:
        return {
            "conditioning": self.conditioning,
            "region": list(self.region),
            "n": self.n,
            "contagion_index_estimate": self.contagion,
            "stability_index_estimate": self.stability,
            "pairwise_extremal_estimates": [
                {"station": s, "value": v, "out_of_range": flag}
                for s, v, flag in self.pairwise
            ],
            "joint_extremal_estimate": self.joint,
        }


def station_indices(
    dataset: StationDataset,
    conditioning: str,
    region_names: list[str] | tuple[str, ...],
) -> StationIndicesReport:
    """Estimate contagion/stability from a conditioning station to a region.

    Stations play the role of lattice locations; their coordinates are not
    used in any computation.
    """
    if not region_names:
        raise UnknownStationError("region must name at least one station")
    cond_col = dataset.column(conditioning)
    region_names = tuple(dict.fromkeys(region_names))  # a repeated name counts once, as in Region
    region_cols = [dataset.column(name) for name in region_names]
    # one synthetic lattice point per involved station, in column order
    involved = [cond_col] + [c for c in region_cols if c != cond_col]
    points = {col: LatticePoint(i, 0) for i, col in enumerate(involved)}
    matrix = dataset.maxima[:, involved]
    scores = scores_from_matrix(matrix, [points[c] for c in involved])
    site = points[cond_col]
    region = Region(points[c] for c in region_cols)
    summary = estimate_summary(scores, region, site)
    estimates = _pairwise_estimates(summary)
    pairwise = tuple(
        (name, estimates[points[col]].value, estimates[points[col]].out_of_range)
        for name, col in zip(region_names, region_cols)
    )
    return StationIndicesReport(
        conditioning=conditioning,
        region=region_names,
        n=dataset.n,
        contagion=float(summary.contagion),
        stability=float(summary.stability),
        pairwise=pairwise,
        joint=float(summary.joint_extremal),
    )


def field_sample_to_station_csv(
    sample: FieldSample,
    path: str | Path,
    *,
    names: list[str] | None = None,
    start_year: int = 1,
) -> list[str]:
    """Export a simulated sample in the station CSV schema (years = replicates)
    and return its column names.  `ingest_stations` reads them back as given,
    so names that repeat or carry blanks around them raise, writing nothing."""
    if names is None:
        names = [f"s{p.x}_{p.y}" for p in sample.locations]
    if len(names) != len(sample.locations):
        raise ParseError("one name per location is required")
    if len(set(names)) < len(names) or any(name != name.strip() for name in names):
        raise ParseError("station names must be distinct, without blanks around them")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["year"] + list(names))  # quotes names as needed
        for year, cells in enumerate(_value_texts(sample), start=start_year):
            fh.write(",".join([f"{year}", *cells]) + "\r\n")
    return list(names)
