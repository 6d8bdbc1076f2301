"""Simulation of moving-maxima random fields; their finite-threshold oracles are in `estimate`.

Each replicate of the field draws one independent unit-Frechet variate per
(pattern, lag) slot and sets every location to the largest weighted draw;
with per-location weights summing to one the margins are again unit
Frechet.  Replicate r consumes draws [r*K, (r+1)*K) of the counter-mode
stream (K = patterns * lags), so rows are pure functions of (seed, row
index): simulation is chunk-order independent, embarrassingly parallel, and
prefix-stable (the first rows of a longer run equal a shorter run).
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import warnings
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from ._numpy import np
from ._version import __version__
from .errors import ArgumentError, ParseError
from .lattice import LatticePoint, Region
from .patterns import M4Spec, _json_int
from .rng import U64_MASK, frechet_block

# 8-byte elements that one pass keeps in a per-core cache: a chunk of simulate_m4
# (draws, shift temporary and two blocks per row), a block of the rank kernel's keys
_CACHE_ELEMENTS = 1 << 16
_SPLIT_CELLS = _CACHE_ELEMENTS << 4  # work this large splits in parts, one per usable CPU


class _Rows:
    """One read-only, C-contiguous row per distinct column (`_rows`) and the row of
    each location (`_row_of`): locations that share a row hold equal columns.
    Instances are frozen, no location repeats, and `n` counts the replicates (a row's
    length).  `_of_rows` keeps the rows it is given, not a copy; the private builders,
    which made the rows, construct through it."""

    @classmethod
    def _of_rows(cls, *fields):
        self = object.__new__(cls)
        self._hold(*fields)
        return self

    def _hold(self, locations, rows: np.ndarray, row_of, **fields) -> None:
        """Holds `rows`, frozen, and `fields` under the rules that samples and scores share."""
        locations, row_of = tuple(locations), tuple(row_of)
        if rows.shape[1] < 1:
            raise ArgumentError("need at least one replicate")
        if len(row_of) != len(locations):
            raise ArgumentError(f"{len(row_of)} columns for {len(locations)} locations")
        if not locations:
            raise ArgumentError("need at least one location")
        columns = {point: c for c, point in enumerate(locations)}  # `column_index`'s lookup
        if len(columns) != len(locations):
            raise ArgumentError(f"duplicate locations in {self._holder}")
        rows.setflags(write=False)
        vars(self).update(fields, locations=locations, _columns=columns, _rows=rows, _row_of=row_of)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n(self) -> int:
        return int(self._rows.shape[1])

    def _matrix(self, rows: np.ndarray) -> np.ndarray:
        """The read-only F-order matrix whose column c is `rows[_row_of[c]]`: a view
        of `rows` when each location has its own row, else one gather."""
        if self._row_of != tuple(range(len(rows))):
            rows = rows[list(self._row_of)]
        matrix = rows.T
        matrix.setflags(write=False)
        return matrix

    def column_index(self, point: LatticePoint) -> int:
        try:
            return self._columns[point]
        except KeyError:
            raise ArgumentError(f"location {point} not in {self._holder}") from None


class FieldSample(_Rows):
    """Independent replicates of the field at a fixed list of locations.

    `values` has one row per replicate and one column per location (at least
    one), in `locations` order; entries are positive and finite.  The
    constructor copies `values`, one row of the sample per location; a
    simulated sample holds one row per distinct weight matrix.  `values` is
    built from the rows on each read, F-order and read-only.  `seed` and
    `spec_fingerprint` are provenance that the sidecar reads back (`_provenance`).
    """

    _holder = "sample"  # in `column_index`'s error

    def __init__(self, locations: Iterable[LatticePoint], values: np.ndarray,
                 seed: int | None = None, spec_fingerprint: str | None = None) -> None:
        _provenance(seed, spec_fingerprint)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ArgumentError("values must be a 2-d array (replicates x locations)")
        self._hold(locations, values.T.copy(), range(values.shape[1]), seed, spec_fingerprint)

    def _hold(self, locations, rows, row_of, seed=None, spec_fingerprint=None) -> None:
        super()._hold(locations, rows, row_of, seed=seed, spec_fingerprint=spec_fingerprint)
        if not (0 < rows.min() and rows.max() < np.inf):  # NaN fails too
            r, g = np.argwhere(~((rows.T > 0) & (rows.T < np.inf)))[0]
            raise ArgumentError(f"replicate {r}, location {self.locations[self._row_of.index(g)]}: "
                                f"field value must be positive and finite, got {rows[g, r]}")

    @property
    def values(self) -> np.ndarray:
        return self._matrix(self._rows)


def simulate_m4(
    spec: M4Spec,
    locations: Region | Iterable[LatticePoint],
    n: int,
    seed: int,
) -> FieldSample:
    """Draw `n` independent replicates of the field at `locations`.

    Output is a pure function of (spec, locations, n, seed) per numpy build and CPU
    dispatch, which only `rng.frechet_block` follows.  The sample holds one row per distinct
    weight matrix, and each chunk of replicates takes its running maximum in
    place, in its slice of those rows.  A chunk's `2 * slots + 2 * distinct`
    floats per replicate fit in `_CACHE_ELEMENTS`.  `_in_parts` splits the
    replicates from `_SPLIT_CELLS` draws on, at most one part per chunk of
    `_CACHE_ELEMENTS << 2` floats; each part fills its own slice of the rows, in
    chunks of that budget.  A lone part keeps the serial chunks.
    """
    if n < 1:
        raise ArgumentError("replicate count must be at least 1")
    region = locations if isinstance(locations, Region) else Region(locations)
    points = region.points
    distinct: dict[int, int] = {}  # row of spec.matrices -> row of the sample
    row_of = [distinct.setdefault(spec.matrix_index(p), len(distinct)) for p in points]
    weights = np.array([spec._compiled[2][row] for row in distinct])  # pattern-major, as drawn
    draws_per_row = weights.shape[1]
    seed = seed & U64_MASK

    rows = np.empty((len(distinct), n))
    per_row = 2 * draws_per_row + 2 * len(distinct)  # floats a chunk allocates per replicate
    # a part's chunks take 4x the budget: on 2 vCPUs, 2^14-draw chunks lost to handing the
    # GIL what a second thread saved (ring: 15.3 ms, serial 16.8); 4x chunks took 8-11 ms
    part_rows = max(1, (_CACHE_ELEMENTS << 2) // per_row)
    serial_rows = max(1, _CACHE_ELEMENTS // per_row)

    def fill(a, b):  # a lone part, on the calling thread, keeps the serial budget
        _fill_rows(rows[:, a:b], a, weights, seed, part_rows if b - a < n else serial_rows)

    _in_parts(fill, n, -(-n // part_rows), n * draws_per_row)
    return FieldSample._of_rows(points, rows, row_of, seed, spec.fingerprint())


def _fill_rows(rows, first, weights, seed, chunk_rows) -> None:
    """Writes replicates `first`, `first + 1`, ... into the columns of `rows`, one chunk
    of `chunk_rows` at a time, each taking its running maximum in place in its slice."""
    draws, n = weights.shape[1], rows.shape[1]
    for r0 in range(0, n, chunk_rows):
        z = frechet_block(seed, (first + r0) * draws, min(chunk_rows, n - r0) * draws)
        # running maximum over the slots, slot s of each replicate being z[s::draws]: the
        # same products, in any order, give the same bits (every location has a weight
        # >= 1/K, so no signed zero reaches the result)
        block = rows[:, r0 : r0 + chunk_rows]  # (distinct, rows)
        np.multiply.outer(weights[:, 0], z[::draws], out=block)
        product = np.empty_like(block)
        for s in range(1, draws):
            np.multiply.outer(weights[:, s], z[s::draws], out=product)
            np.maximum(block, product, out=block)


def _in_parts(work, total: int, most: int, cells: int) -> None:
    """`work(a, b)` over contiguous ranges that cover `range(total)`.  Below
    `_SPLIT_CELLS` cells, or for `most` < 2, that is `work(0, total)` on the calling
    thread; else one range per usable CPU, at most `most`: the calling thread runs the
    first and a thread pool the others, joined before this returns or raises.  Worker
    exceptions are raised in range order, a start error once its range ran on a started thread."""
    if cells < _SPLIT_CELLS or most < 2:
        return work(0, total)
    from concurrent.futures import ThreadPoolExecutor  # the spec-only paths do not need it

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parts = min(most, cpus or 1)
    cuts = [total * p // parts for p in range(parts + 1)]
    with ThreadPoolExecutor(parts) as pool:  # a thread per submitted range at most: none for one
        futures = [pool.submit(work, *span) for span in zip(cuts[1:], cuts[2:])]
        work(0, cuts[1])
    for future in futures:
        future.result()


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
    """Each replicate's `repr` texts ending in `end`, in location order; each of
    the sample's rows is formatted once."""
    for values in sample._rows.T:  # one replicate's value in each row
        texts = [f"{v!r}{end}" for v in values.tolist()]
        yield map(texts.__getitem__, sample._row_of)


def export_sample(sample: FieldSample, csv_path: str | Path) -> tuple[Path, Path]:
    """Write the CSV plus its metadata sidecar; returns both paths."""
    csv_path = Path(csv_path)
    meta_path = csv_path.with_suffix(".meta.json")
    write_sample_csv(sample, csv_path)
    meta = {
        "seed": sample.seed,
        "n": sample.n,
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
    In a sidecar, `seed` is a JSON integer or null, `spec_fingerprint` a string
    or null, and `n`, if present, the CSV's replicate count.
    """
    locations, rows = _bulk_table(path) or _read_rows(path)
    meta = {}
    if metadata_path is not None:
        try:
            meta = json.loads(Path(metadata_path).read_text(encoding="utf-8-sig"))
        except (OSError, ValueError) as exc:  # also not UTF-8, or not JSON
            raise ParseError(f"cannot read metadata {metadata_path}: {exc}") from exc
        if not isinstance(meta, dict):
            raise ParseError(f"metadata {metadata_path} is not a JSON object")
        try:
            _provenance(meta.get("seed"), meta.get("spec_fingerprint"))
            if "n" in meta and _json_int(meta, "n") != rows.shape[1]:
                raise ValueError(f"'n' is {meta['n']}, but {path} holds {rows.shape[1]} replicates")
        except (TypeError, ValueError) as exc:
            raise ParseError(f"metadata {metadata_path}: {exc}") from exc
    return FieldSample._of_rows(locations, rows, range(len(locations)),
                                meta.get("seed"), meta.get("spec_fingerprint"))


def _provenance(seed, spec_fingerprint) -> None:
    """Raises ArgumentError unless `seed` is None or an integer, not a bool, and
    `spec_fingerprint` None or a string: the provenance that a sidecar reads back."""
    if isinstance(seed, bool) or not isinstance(seed, (int, type(None))):
        raise ArgumentError(f"'seed' must be an integer, got {seed!r}")
    if not isinstance(spec_fingerprint, (str, type(None))):
        raise ArgumentError(f"'spec_fingerprint' must be a string, got {spec_fingerprint!r}")


def _bulk_table(path: str | Path) -> tuple[tuple[LatticePoint, ...], np.ndarray] | None:
    """The sample's locations and rows from one `np.loadtxt` pass over a file
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
    return locations, np.ascontiguousarray(cells.T)  # one row per location


def _read_rows(path: str | Path) -> tuple[tuple[LatticePoint, ...], np.ndarray]:
    """The sample's locations and rows, read one `csv.reader` row and one
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
    rows = np.empty((k, len(replicates)))  # one row per location
    for r, (rep, cells) in enumerate(sorted(replicates.items())):
        if len(cells) != k:
            raise ParseError(f"{path}: replicate {rep} covers {len(cells)} of {k} locations")
        rows[:, r] = [cells[point] for point in locations]
    return tuple(locations), rows


def _open_csv(path: str | Path) -> TextIO:
    try:
        return open(path, newline="", encoding="utf-8-sig")
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
