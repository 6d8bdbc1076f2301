"""Simulation of moving-maxima random fields and finite-threshold oracles.

Each replicate of the field draws one independent unit-Frechet variate per
(pattern, lag) slot and sets every location to the largest weighted draw;
with per-location weights summing to one the margins are again unit
Frechet.  Replicate r consumes draws [r*K, (r+1)*K) of the counter-mode
stream (K = patterns * lags), so rows are pure functions of (seed, row
index): simulation is chunk-order independent, embarrassingly parallel, and
prefix-stable (the first rows of a longer run equal a shorter run).
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, TextIO

import numpy as np

from ._version import __version__
from .errors import ArgumentError, ParseError, UndefinedConditionalError
from .lattice import LatticePoint, Region
from .patterns import M4Spec
from .rng import U64_MASK, uniform_block

# rows x locations x slots per chunk; each chunk allocates its rows x slots draws,
# one shift temporary as large, and two (distinct matrices, rows) float blocks
_CHUNK_ELEMENTS = 1 << 22


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Independent replicates of the field at a fixed list of locations.

    `values` has one row per replicate and one column per location, in
    `locations` order (column-major if simulated); entries are strictly positive.
    """

    locations: tuple[LatticePoint, ...]
    values: np.ndarray
    seed: int | None = None
    spec_fingerprint: str | None = None
    # one group label per column; columns with equal labels hold equal
    # values.  Only simulate_m4 sets it: other samples claim no groups.
    _column_groups: tuple[int, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ArgumentError("values must be a 2-d array (replicates x locations)")
        if values.shape[0] < 1:
            raise ArgumentError("need at least one replicate")
        if values.shape[1] != len(self.locations):
            raise ArgumentError(
                f"{values.shape[1]} columns for {len(self.locations)} locations"
            )
        if len(set(self.locations)) != len(self.locations):
            raise ArgumentError("duplicate locations in sample")
        if not np.all(values > 0):
            raise ArgumentError("field values must be strictly positive")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_replicates(self) -> int:
        return int(self.values.shape[0])

    @cached_property
    def _columns(self) -> dict[LatticePoint, int]:
        return {point: c for c, point in enumerate(self.locations)}

    def column_index(self, point: LatticePoint) -> int:
        try:
            return self._columns[point]
        except KeyError:
            raise ArgumentError(f"location {point} not in sample") from None


def simulate_m4(
    spec: M4Spec,
    locations: Region | Iterable[LatticePoint],
    n: int,
    seed: int,
) -> FieldSample:
    """Draw `n` independent replicates of the field at `locations`.

    Output is a pure function of (spec, locations, n, seed); the same call
    reproduces bit-identical values.  Each chunk of rows takes the running
    maximum as a (distinct weight matrices, rows) block and copies it to one
    contiguous row per location; `values` is the transpose of those rows.
    """
    if n < 1:
        raise ArgumentError("replicate count must be at least 1")
    region = locations if isinstance(locations, Region) else Region(locations)
    points = region.points
    if not points:
        raise ArgumentError("need at least one location")
    # one column per distinct matrix, copied to every location that shares it;
    # `columns` is also the sample's column groups
    distinct: dict[int, int] = {}  # row of spec.matrices -> column of `block`
    columns = [distinct.setdefault(spec.matrix_index(p), len(distinct)) for p in points]
    # one row per distinct matrix, flattened pattern-major like the draws
    weights = np.array([spec.matrices[row] for row in distinct], dtype=float)
    weights = weights.reshape(len(distinct), -1)
    k, draws_per_row = len(points), weights.shape[1]
    seed = seed & U64_MASK

    values = np.empty((k, n))  # one contiguous row per location
    chunk_rows = max(1, _CHUNK_ELEMENTS // (k * draws_per_row))
    for r0 in range(0, n, chunk_rows):
        rows = min(chunk_rows, n - r0)
        u = uniform_block(seed, r0 * draws_per_row, rows * draws_per_row)
        z = np.divide(-1.0, np.log(u, out=u), out=u).reshape(rows, draws_per_row)
        # running maximum over the slots: the same products, in any order,
        # give the same bits (every location has a weight >= 1/K, so no
        # signed zero reaches the result)
        block = np.multiply.outer(weights[:, 0], z[:, 0])  # (distinct, rows)
        product = np.empty_like(block)
        for s in range(1, draws_per_row):
            np.multiply.outer(weights[:, s], z[:, s], out=product)
            np.maximum(block, product, out=block)
        for c, column in enumerate(columns):
            values[c, r0 : r0 + rows] = block[column]

    sample = FieldSample(points, values.T, seed, spec.fingerprint())
    object.__setattr__(sample, "_column_groups", tuple(columns))
    return sample


def _exceedances(
    sample: FieldSample, region: Region, site: LatticePoint, u: float, scores
) -> tuple[np.ndarray, Iterator[tuple[np.ndarray, int]]]:
    """Which replicates score above `u` at the site, then at each distinct region
    column with its number of region points: counts `k > t`, for the largest `t`
    in 0..n with `t / (n + 1) <= u` (exact, as correctly rounded division is monotone)."""
    if not 0.0 < u < 1.0:
        raise ArgumentError(f"threshold must be in (0,1), got {u}")
    if not len(region):
        raise ArgumentError("region must contain at least one point")
    if scores is None:
        from .estimate import rank_transform  # local import; avoids module cycle

        scores = rank_transform(sample)
    if scores.locations != sample.locations:
        raise ArgumentError("scores were computed for different locations")
    counts, n = scores.rank_counts, scores.n
    columns = [scores._representative(sample.column_index(p)) for p in (site, *region)]
    t = bisect.bisect_right(range(n + 1), u, key=lambda k: k / (n + 1)) - 1
    site_high = counts[:, columns[0]] > t
    return site_high, ((site_high if c == columns[0] else counts[:, c] > t, mult)
                       for c, mult in Counter(columns[1:]).items())


def empirical_contagion(
    sample: FieldSample,
    region: Region,
    site: LatticePoint,
    u: float,
    scores=None,
) -> float:
    """Mean number of region rank-scores above `u` among replicates where the
    site's rank-score is above `u`; finite-threshold check value for the
    contagion index.

    Pass precomputed `scores` (from rank_transform) to amortize ranking
    across repeated calls.  Region points that share a weight matrix share
    one comparison: the cost scales with distinct matrices, not locations.
    """
    site_high, region_high = _exceedances(sample, region, site, u, scores)
    m = int(np.count_nonzero(site_high))  # a Python int: the result is a Python float
    if m == 0:
        raise UndefinedConditionalError(
            f"no replicate has a site score above u={u}"
        )
    exceed = sum(mult * np.count_nonzero(high & site_high) for high, mult in region_high)
    return float(exceed) / m


def empirical_stability(
    sample: FieldSample,
    region: Region,
    site: LatticePoint,
    u: float,
    scores=None,
) -> float:
    """Mean number of crossings (site score <= u < region score), normalized
    by the number of replicates where any score among {site} and the region
    is above `u`; finite-threshold check value for the stability index.

    Raises :class:`UndefinedConditionalError` when no crossing occurs at all
    (e.g. totally dependent columns, or `u` above every score).  Points that
    share a weight matrix share one comparison, as in `empirical_contagion`.
    """
    site_high, region_high = _exceedances(sample, region, site, u, scores)
    site_low, any_high = ~site_high, site_high.copy()
    crossings = 0
    for high, mult in region_high:
        crossings += mult * np.count_nonzero(high & site_low)
        any_high |= high
    if crossings == 0:
        raise UndefinedConditionalError(
            f"no replicate has a crossing at u={u}"
        )
    return int(crossings) / int(np.count_nonzero(any_high))


# -- CSV interchange ----------------------------------------------------------

_SAMPLE_HEADER = ["replicate", "x", "y", "value"]
_SAMPLE_ROW = np.dtype(
    [("replicate", np.int64), ("x", np.int64), ("y", np.int64), ("value", np.float64)]
)


def write_sample_csv(sample: FieldSample, path: str | Path) -> None:
    """Long-format export: one row per (replicate, location) value.

    The bytes are those of `csv.writer`: `\\r\\n` line ends and `repr` floats.
    Each replicate is formatted and written at once.
    """
    prefixes = [f"{p.x},{p.y}," for p in sample.locations]
    with open(path, "w", newline="") as fh:
        fh.write("replicate,x,y,value\r\n")
        for r in range(sample.n_replicates):
            row = zip(prefixes, sample.values[r].tolist())
            fh.write("".join([f"{r},{prefix}{v!r}\r\n" for prefix, v in row]))


def metadata_dict(sample: FieldSample) -> dict:
    return {
        "seed": sample.seed,
        "n": sample.n_replicates,
        "spec_fingerprint": sample.spec_fingerprint,
        "tool": "m4extremes",
        "version": __version__,
    }


def export_sample(sample: FieldSample, csv_path: str | Path) -> tuple[Path, Path]:
    """Write the CSV plus its metadata sidecar; returns both paths."""
    csv_path = Path(csv_path)
    meta_path = csv_path.with_suffix(".meta.json")
    write_sample_csv(sample, csv_path)
    meta_path.write_text(json.dumps(metadata_dict(sample), indent=2) + "\n")
    return csv_path, meta_path


def read_sample_csv(
    path: str | Path, metadata_path: str | Path | None = None
) -> FieldSample:
    """Rebuild a FieldSample from the long-format CSV (and optional sidecar).

    The data rows are parsed in one `np.loadtxt` pass and checked as arrays.
    Replicates are sorted and locations keep their order of first appearance.
    A rejected file is read again row by row to name its first bad line.
    """
    with _open_csv(path) as fh:
        header = next(_csv_rows(path, fh), None)
        bulk = _header_ok(header) and _bulk_problem(header, ()) is None
        rows = _bulk_rows(path, fh, _SAMPLE_ROW, usecols=range(4)) if bulk else None
    if rows is None:
        _raise_first_error(path)
    reps, x, y, cells = (rows[name] for name in _SAMPLE_ROW.names)
    if not len(rows):
        raise ParseError(f"{path}: no data rows")
    replicates, row_of = np.unique(reps, return_inverse=True)
    locations, col_of = _first_appearance(x, y)
    k = len(locations)
    cell_ids = np.sort(row_of * k + col_of)
    if np.any(cell_ids[1:] == cell_ids[:-1]):
        _raise_first_error(path)  # a duplicate cell
    counts = np.bincount(row_of, minlength=len(replicates))
    short = np.flatnonzero(counts != k)
    if short.size:
        raise _ragged(path, replicates[short[0]], counts[short[0]], k)
    values = np.empty((len(replicates), k))
    values[row_of, col_of] = cells
    seed = None
    fingerprint = None
    if metadata_path is not None:
        try:
            meta = json.loads(Path(metadata_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read metadata {metadata_path}: {exc}") from exc
        if not isinstance(meta, dict):
            raise ParseError(f"metadata {metadata_path} is not a JSON object")
        seed = meta.get("seed")
        fingerprint = meta.get("spec_fingerprint")
    return FieldSample(locations, values, seed, fingerprint)


def _first_appearance(
    x: np.ndarray, y: np.ndarray
) -> tuple[tuple[LatticePoint, ...], np.ndarray]:
    """Distinct (x, y) points in order of first appearance, and each row's
    index into them."""
    order = np.lexsort((y, x))  # stable: equal points keep their file order
    xs, ys = x[order], y[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    first = order[starts]  # each point's first row
    column = np.empty(len(first), dtype=np.int64)
    column[np.argsort(first)] = np.arange(len(first))
    col_of = np.empty(len(order), dtype=np.int64)
    col_of[order] = column[np.cumsum(starts) - 1]
    first.sort()
    points = tuple(map(LatticePoint, x[first].tolist(), y[first].tolist()))
    return points, col_of


def _open_csv(path: str | Path) -> TextIO:
    try:
        return open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _csv_rows(path: str | Path, fh) -> Iterator[list[str]]:
    """The rows `csv.reader` reads from `fh`.  A row it cannot read (a field
    over `csv.field_size_limit()`) raises ParseError naming `path:line`."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc


def _bulk_rows(path: str | Path, fh: TextIO, dtype: np.dtype, usecols=None, skip=None):
    """The rows left in `fh` after its header, in one `np.loadtxt` pass, or
    None when the bulk grammar rejects them or a value in the last field is
    not positive and finite.  The bytes after the file's first line are
    checked, also by `skip(raw, start)` if given, and dropped before the
    parse, which reads `fh` itself."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    start = re.match(rb"[^\r\n]*", raw).end()
    plain = _plain_ascii(raw, start) and not (skip and skip(raw, start))
    del raw
    if not plain:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows
            # numpy 1.x reads "1.0" as an integer, with this warning
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                              comments=None, usecols=usecols, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    values = rows[dtype.names[-1]]
    return rows if np.all((values > 0) & (values < np.inf)) else None


def _plain_ascii(data: bytes, start: int = 0) -> bool:
    """`data[start:]` is ASCII without the separator controls U+001C-U+001F.
    `np.loadtxt` strips those around numbers where `int` and `float` do not,
    and reads some non-ASCII characters in integers as digits."""
    plain = data.isascii() or data[start:].isascii()  # a copy only if needed
    return plain and all(data.find(c, start) < 0 for c in b"\x1c\x1d\x1e\x1f")


def _header_ok(header: list[str] | None) -> bool:
    return header is not None and [h.strip() for h in header] == _SAMPLE_HEADER


def _ragged(path: str | Path, rep: int, count: int, k: int) -> ParseError:
    return ParseError(f"{path}: replicate {rep} covers {count} of {k} locations")


def _raise_first_error(path: str | Path) -> NoReturn:
    """Raise the error of a sample CSV that the bulk read rejected.

    Rows are read one at a time, as `csv.reader` gives them, and the first
    bad line in file order is named: malformed, then a bad value, then a
    repeated cell.  Then come the checks on the whole file: no data rows,
    then the first replicate (in sorted order) that misses a location.  Only
    a file that passes all of them is rejected for its first line outside
    the bulk grammar: ASCII without separator controls, no digit-group
    underscores in numbers, integers within 64 bits.
    """
    with _open_csv(path) as fh:
        reader = _csv_rows(path, fh)
        header = next(reader, None)
        if not _header_ok(header):
            raise ParseError(f"{path}: expected header replicate,x,y,value")
        problem = _bulk_problem(header, ())
        strict = None if problem is None else (1, problem)
        seen: set[tuple[int, int, int]] = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                cell = (int(row[0]), int(row[1]), int(row[2]))
                value = float(row[3])
            except (IndexError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: malformed row: {exc}") from exc
            if value <= 0 or not math.isfinite(value):
                raise ParseError(
                    f"{path}:{lineno}: field value must be positive and finite"
                )
            if cell in seen:
                raise ParseError(
                    f"{path}:{lineno}: duplicate cell {LatticePoint(*cell[1:])}"
                )
            seen.add(cell)
            if strict is None and (problem := _bulk_problem(row, cell)) is not None:
                strict = (lineno, problem)
    if not seen:
        raise ParseError(f"{path}: no data rows")
    k = len({cell[1:] for cell in seen})
    counts = Counter(cell[0] for cell in seen)
    for rep in sorted(counts):
        if counts[rep] != k:
            raise _ragged(path, rep, counts[rep], k)
    if strict is not None:
        raise ParseError(f"{path}:{strict[0]}: malformed row: {strict[1]}")
    raise ParseError(f"{path}: the file changed while it was read")


def _bulk_problem(row: list[str], ints: tuple[int, ...]) -> str | None:
    """Why the bulk read rejects a row that `int` and `float` accept, if it does."""
    if not _plain_ascii(",".join(row).encode()):
        return "non-ASCII or separator control character"
    if "_" in ",".join(row[:4]):
        return "underscore in a number"
    if any(not -(1 << 63) <= v < 1 << 63 for v in ints):
        return "integer outside the 64-bit range"
    return None
