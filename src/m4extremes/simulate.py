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

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from ._version import __version__
from .errors import ArgumentError, ParseError, UndefinedConditionalError
from .lattice import LatticePoint, Region
from .patterns import M4Spec
from .rng import U64_MASK, uniform_block

_CHUNK_ELEMENTS = 1 << 22  # ~32 MiB of float64 scratch per chunk


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Independent replicates of the field at a fixed list of locations.

    `values` has one row per replicate and one column per location, in
    `locations` order; entries are strictly positive.
    """

    locations: tuple[LatticePoint, ...]
    values: np.ndarray
    seed: int | None = None
    spec_fingerprint: str | None = None

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

    def column_index(self, point: LatticePoint) -> int:
        try:
            return self.locations.index(point)
        except ValueError:
            raise ArgumentError(f"location {point} not in sample") from None


def unit_frechet_quantile(u: float) -> float:
    """Inverse of the unit Frechet distribution exp(-1/x)."""
    if not 0.0 < u < 1.0:
        raise ArgumentError(f"quantile level must be in (0,1), got {u}")
    return -1.0 / math.log(u)


def simulate_m4(
    spec: M4Spec,
    locations: Region | Iterable[LatticePoint],
    n: int,
    seed: int,
) -> FieldSample:
    """Draw `n` independent replicates of the field at `locations`.

    Output is a pure function of (spec, locations, n, seed); the same call
    reproduces bit-identical values.
    """
    if n < 1:
        raise ArgumentError("replicate count must be at least 1")
    region = locations if isinstance(locations, Region) else Region(locations)
    points = region.points
    if not points:
        raise ArgumentError("need at least one location")
    # one column per distinct matrix, copied to every location that shares it
    distinct: dict[int, int] = {}  # row of spec.matrices -> column of `block`
    columns = [distinct.setdefault(spec.matrix_index(p), len(distinct)) for p in points]
    weights = np.array([spec.matrices[row] for row in distinct], dtype=float)
    k, n_patterns, lag_count = len(points), spec.n_patterns, spec.lag_count
    draws_per_row = n_patterns * lag_count
    seed = seed & U64_MASK

    values = np.empty((n, k))
    chunk_rows = max(1, _CHUNK_ELEMENTS // (k * draws_per_row))
    for r0 in range(0, n, chunk_rows):
        rows = min(chunk_rows, n - r0)
        u = uniform_block(seed, r0 * draws_per_row, rows * draws_per_row)
        z = -1.0 / np.log(u.reshape(rows, 1, n_patterns, lag_count))
        block = np.max(weights[None] * z, axis=(2, 3))  # (rows, distinct)
        # mode="clip" (columns are in range) writes into `out` unbuffered
        np.take(block, columns, axis=1, out=values[r0 : r0 + rows], mode="clip")

    return FieldSample(points, values, seed, spec.fingerprint())


def _score_columns(sample: FieldSample, scores) -> np.ndarray:
    if scores is None:
        from .estimate import rank_transform  # local import; avoids module cycle

        scores = rank_transform(sample)
    if scores.locations != sample.locations:
        raise ArgumentError("scores were computed for different locations")
    return scores.scores


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
    across repeated calls.
    """
    if not 0.0 < u < 1.0:
        raise ArgumentError(f"threshold must be in (0,1), got {u}")
    if not len(region):
        raise ArgumentError("region must contain at least one point")
    s = _score_columns(sample, scores)
    site_col = sample.column_index(site)
    region_cols = [sample.column_index(p) for p in region]
    conditioning = s[:, site_col] > u
    m = int(conditioning.sum())
    if m == 0:
        raise UndefinedConditionalError(
            f"no replicate has a site score above u={u}"
        )
    exceed = s[np.ix_(conditioning, region_cols)] > u
    return float(exceed.sum()) / m


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
    (e.g. totally dependent columns, or `u` above every score).
    """
    if not 0.0 < u < 1.0:
        raise ArgumentError(f"threshold must be in (0,1), got {u}")
    if not len(region):
        raise ArgumentError("region must contain at least one point")
    s = _score_columns(sample, scores)
    site_scores = s[:, sample.column_index(site)]
    # compare column by column: a copy of the region's scores is not needed
    region_high = np.empty((len(site_scores), len(region)), dtype=bool, order="F")
    for c, p in enumerate(region):
        np.greater(s[:, sample.column_index(p)], u, out=region_high[:, c])
    crossings = region_high[site_scores <= u]
    total_crossings = int(crossings.sum())
    if total_crossings == 0:
        raise UndefinedConditionalError(
            f"no replicate has a crossing at u={u}"
        )
    any_high = int(((site_scores > u) | region_high.any(axis=1)).sum())
    return total_crossings / any_high


# -- CSV interchange ----------------------------------------------------------


def write_sample_csv(sample: FieldSample, path: str | Path) -> None:
    """Long-format export: one row per (replicate, location) value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "x", "y", "value"])
        for r in range(sample.n_replicates):
            row_values = sample.values[r]
            for c, point in enumerate(sample.locations):
                writer.writerow([r, point.x, point.y, repr(float(row_values[c]))])


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
    """Rebuild a FieldSample from the long-format CSV (and optional sidecar)."""
    rows: dict[int, dict[LatticePoint, float]] = {}
    order: list[LatticePoint] = []
    seen: set[LatticePoint] = set()
    try:
        fh = open(path, newline="")
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
                f"{path}: replicate {rep} covers different locations than the first"
            )
        for c, point in enumerate(locations):
            values[i, c] = cells[point]
    seed = None
    fingerprint = None
    if metadata_path is not None:
        try:
            meta = json.loads(Path(metadata_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read metadata {metadata_path}: {exc}") from exc
        seed = meta.get("seed")
        fingerprint = meta.get("spec_fingerprint")
    return FieldSample(locations, values, seed, fingerprint)
