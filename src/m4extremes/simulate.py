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
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from ._numpy import np
from ._version import __version__
from .errors import ArgumentError, ParseError, UndefinedConditionalError
from .lattice import LatticePoint, Region
from .patterns import M4Spec
from .rng import U64_MASK, uniform_block

# rows x locations x slots per chunk; each chunk allocates its rows x slots draws,
# one shift temporary as large, and two (distinct matrices, rows) float blocks
_CHUNK_ELEMENTS = 1 << 22


def _read_only(array: np.ndarray, source: object = None) -> np.ndarray:
    """`array` itself when it and every array it views are read-only, or when
    `np.asarray` made it afresh from `source` (a list or tuple, or an array of
    another dtype); else a read-only copy.  An array that its caller froze is
    shared: that caller could still make it writable again."""
    fresh = isinstance(source, (list, tuple)) or (
        isinstance(source, np.ndarray) and source.dtype != array.dtype)
    base = None if fresh else array
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    array = array if base is None else array.copy(order="K")
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Independent replicates of the field at a fixed list of locations.

    `values` has one row per replicate and one column per location (at least
    one), in `locations` order (column-major if simulated); entries are positive
    and finite.  They are read-only, and shared only with a caller that froze them.
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
        if not (values.size and 0 < values.min() and values.max() < np.inf):  # NaN fails too
            if not values.size:
                raise ArgumentError("need at least one location")
            r, c = np.argwhere(~((values > 0) & (values < np.inf)))[0]
            raise ArgumentError(f"replicate {r}, location {self.locations[c]}: field "
                                f"value must be positive and finite, got {values[r, c]}")
        object.__setattr__(self, "values", _read_only(values, self.values))

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

    values.setflags(write=False)  # private, so FieldSample need not copy it
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
_SAMPLE_ROW = [("replicate", "<i8"), ("x", "<i8"), ("y", "<i8"), ("value", "<f8")]


def write_sample_csv(sample: FieldSample, path: str | Path) -> None:
    """Long-format export: one row per (replicate, location) value.

    The bytes are those of `csv.writer`: `\\r\\n` line ends and `repr` floats.
    Each replicate is formatted and written at once.
    """
    prefixes = [f"{p.x},{p.y}," for p in sample.locations]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("replicate,x,y,value\r\n")
        for r, cells in enumerate(_value_texts(sample, "\r\n")):
            fh.write("".join(chain.from_iterable(zip(repeat(f"{r},"), prefixes, cells))))


def _value_texts(sample: FieldSample, end: str = "") -> Iterator[Iterator[str]]:
    """Each replicate's `repr` texts ending in `end`, in location order; equal
    columns hold equal bits, so each group of `_column_groups` is formatted once."""
    groups = sample._column_groups or range(len(sample.locations))
    _, firsts, slots = np.unique(groups, return_index=True, return_inverse=True)
    slots = slots.tolist()  # each column's index into `firsts`
    for row in sample.values:
        texts = [f"{v!r}{end}" for v in row[firsts].tolist()]
        yield map(texts.__getitem__, slots)


def export_sample(sample: FieldSample, csv_path: str | Path) -> tuple[Path, Path]:
    """Write the CSV plus its metadata sidecar; returns both paths."""
    csv_path = Path(csv_path)
    meta_path = csv_path.with_suffix(".meta.json")
    write_sample_csv(sample, csv_path)
    meta = {
        "seed": sample.seed,
        "n": sample.n_replicates,
        "spec_fingerprint": sample.spec_fingerprint,
        "tool": "m4extremes",
        "version": __version__,
    }
    meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return csv_path, meta_path


def read_sample_csv(
    path: str | Path, metadata_path: str | Path | None = None
) -> FieldSample:
    """Rebuild a FieldSample from the long-format CSV (and optional sidecar).

    Replicates are sorted and locations keep their order of first appearance.
    The grammar is that of `_read_rows`, one row at a time.  A file in the
    writer's layout is read in one `np.loadtxt` pass instead (`_bulk_table`);
    any other file is read row by row, slower, which names its first bad line.
    """
    locations, values = _bulk_table(path) or _read_rows(path)
    values.setflags(write=False)  # fresh, so FieldSample need not copy it
    meta = {}
    if metadata_path is not None:
        try:
            meta = json.loads(Path(metadata_path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # also not UTF-8, or not JSON
            raise ParseError(f"cannot read metadata {metadata_path}: {exc}") from exc
        if not isinstance(meta, dict):
            raise ParseError(f"metadata {metadata_path} is not a JSON object")
    return FieldSample(locations, values, meta.get("seed"), meta.get("spec_fingerprint"))


def _bulk_table(path: str | Path) -> tuple[tuple[LatticePoint, ...], np.ndarray] | None:
    """The sample's locations and values from one `np.loadtxt` pass over a file
    in `write_sample_csv`'s layout: equal blocks of rows, one replicate each and
    in increasing order, each holding the first block's distinct locations in its
    order.  None for any other file, and when the header is not the sample's or
    the pass rejects the file or finds no data rows."""
    with _open_csv(path) as fh:
        if not _header_ok(next(_csv_rows(path, fh), None)):
            return None
        rows = _bulk_rows(path, fh, _SAMPLE_ROW, usecols=range(4))
    if rows is None or not len(rows):
        return None
    k = int(np.argmax(rows["replicate"] != rows["replicate"][0])) or len(rows)
    if len(rows) % k:
        return None
    reps, x, y, cells = (rows[name].reshape(-1, k) for name in _SAMPLE_HEADER)
    locations = tuple(map(LatticePoint, x[0].tolist(), y[0].tolist()))
    if (len(set(locations)) < k or np.any(reps != reps[:, :1])
            or np.any(reps[1:, 0] <= reps[:-1, 0])  # not np.diff, which wraps at 64 bits
            or np.any(x != x[0]) or np.any(y != y[0])):
        return None
    return locations, np.ascontiguousarray(cells)


def _read_rows(path: str | Path) -> tuple[tuple[LatticePoint, ...], np.ndarray]:
    """The sample's locations and values, read one `csv.reader` row and one
    `int`/`float` call at a time: the grammar of the sample CSV.

    The first bad line in file order is named: malformed, then a bad value,
    then a repeated cell.  Then come the checks on the whole file: no data
    rows, then the first replicate (in sorted order) that misses a location.
    """
    with _open_csv(path) as fh:
        reader = _csv_rows(path, fh)
        if not _header_ok(next(reader, None)):
            raise ParseError(f"{path}: expected header replicate,x,y,value")
        replicates: dict[int, dict[LatticePoint, float]] = {}
        locations: dict[LatticePoint, None] = {}  # in order of first appearance
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rep, point = int(row[0]), LatticePoint(int(row[1]), int(row[2]))
                value = float(row[3])
            except (IndexError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: malformed row: {exc}") from exc
            if value <= 0 or not math.isfinite(value):
                raise ParseError(
                    f"{path}:{lineno}: field value must be positive and finite"
                )
            cells = replicates.setdefault(rep, {})
            if point in cells:
                raise ParseError(f"{path}:{lineno}: duplicate cell {point}")
            cells[point] = value
            locations.setdefault(point)
    if not replicates:
        raise ParseError(f"{path}: no data rows")
    k = len(locations)
    values = np.empty((len(replicates), k))
    for r, (rep, cells) in enumerate(sorted(replicates.items())):
        if len(cells) != k:
            raise ParseError(f"{path}: replicate {rep} covers {len(cells)} of {k} locations")
        values[r] = [cells[point] for point in locations]
    return tuple(locations), values


def _open_csv(path: str | Path) -> TextIO:
    try:
        return open(path, newline="", encoding="utf-8")
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
    except UnicodeDecodeError as exc:  # decoded in blocks: no line to name
        raise ParseError(f"{path}: {exc}") from exc


def _bulk_rows(path: str | Path, fh: TextIO, dtype, usecols=None):
    """The rows left in `fh` after its header, in one `np.loadtxt` pass, or
    None when the bytes after the file's first line are not `_bulk_safe`, when
    the pass rejects them (an empty or blank field, or a token such as `NA`),
    or when a value in the last field is not positive and finite (`nan` too).
    The parse reads `fh` itself."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    plain = _bulk_safe(raw, re.match(rb"[^\r\n]*", raw).end())
    del raw
    if not plain:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows
            # numpy 1.x reads "1.0" as an integer, with this warning
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                              usecols=usecols, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    values = rows[rows.dtype.names[-1]]
    return rows if np.all((values > 0) & (values < np.inf)) else None


def _bulk_safe(data: bytes, start: int) -> bool:
    """Whether `np.loadtxt` reads the fields of `data[start:]` as `csv.reader`,
    `int` and `float` do, or rejects them.  The bytes must be ASCII (it reads
    some other characters as digits) without the separator controls
    U+001C-U+001F (it strips them around numbers) and without quotes, and no
    field may be longer than `csv.field_size_limit()`, which only `csv.reader`
    checks.  A quoted field can hide its length behind line ends; an unquoted
    field over the limit covers a whole block of half the limit."""
    if not (data.isascii() or data[start:].isascii()):  # a copy only if needed
        return False
    if any(data.find(c, start) >= 0 for c in b'"\x1c\x1d\x1e\x1f'):
        return False
    block = csv.field_size_limit() // 2 + 1
    return all(
        any(data.find(c, i, i + block) >= 0 for c in b",\r\n")
        for i in range(start, len(data) - block + 1, block)
    )


def _header_ok(header: list[str] | None) -> bool:
    return header is not None and [h.strip() for h in header] == _SAMPLE_HEADER
