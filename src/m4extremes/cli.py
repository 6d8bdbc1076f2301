"""Command-line interface.

Subcommands: preset, validate, exact, simulate, estimate, mc-study, ingest,
report.  Outputs default to JSON on stdout; table-shaped results accept
``--format csv``.  Every randomized command requires an explicit ``--seed``
and echoes it (plus the specification fingerprint and tool version) into
its outputs.

Exit codes: 0 success, 2 usage, 3 data/validation problem or a size numpy refuses.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from pathlib import Path

from ._version import __version__
from .dependence import (contagion_index_region, extremal_coefficient_matrix, fragility_index,
                         summarize)
from .errors import M4Error, ParseError
from .estimate import _estimates_json, estimate_summary, monte_carlo_study, rank_transform
from .lattice import LatticePoint, Region, neighbors
from .patterns import M4Spec, PRESETS, dump_spec, load_spec, preset, validate
from .simulate import _csv_rows, export_sample, read_sample_csv, simulate_m4
from .stations import ingest_stations, station_indices


def _parse_point(text: str) -> LatticePoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected 'x,y', got {text!r}")
    try:
        return LatticePoint(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ParseError(f"expected integer coordinates, got {text!r}") from exc


def _parse_region(text: str, site: LatticePoint | None = None) -> Region:
    text = text.strip()
    if text == "neighbors":
        if site is None:  # only simulate's --locations comes without a site
            raise ParseError("--locations takes 'domain' or 'x,y;x,y;...', not 'neighbors'")
        return neighbors(site)
    return Region(_parse_point(part) for part in text.split(";") if part.strip())


def _load_spec_arg(value: str, check: bool = True) -> M4Spec:
    """A specification from a spec file (validated if `check`) or a preset name."""
    if Path(value).exists():
        return load_spec(value, check=check)
    if value in PRESETS:
        return preset(value)
    raise ParseError(
        f"{value!r} is neither a spec file nor a preset name "
        f"(presets: {sorted(PRESETS)})"
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out: str | None) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", out)


def _meta(spec: M4Spec | None = None, seed: int | None = None) -> dict:
    doc: dict = {"tool": "m4extremes", "version": __version__}
    if spec is not None:
        doc["spec_fingerprint"] = spec.fingerprint()
    if seed is not None:
        doc["seed"] = seed
    return doc


def _emit_doc(args: argparse.Namespace, doc: dict, header: list[str], rows: list) -> None:
    """`doc` as JSON, or with `--format csv` its `_meta` provenance as `# key=value`
    lines, the tool's first, and then the table of `header` and `rows`."""
    if args.format == "json":
        _emit_json(doc, args.out)
        return
    text = io.StringIO()
    text.write(f"# {doc['tool']}={doc['version']}\n")
    text.writelines(f"# {key}={doc[key]}\n" for key in ("spec_fingerprint", "seed") if key in doc)
    table = csv.writer(text, lineterminator="\n")  # quotes a field as it needs
    table.writerow(header)
    table.writerows(rows)
    _emit(text.getvalue(), args.out)


# -- commands -----------------------------------------------------------------


def cmd_preset(args: argparse.Namespace) -> int:
    _emit(dump_spec(preset(args.name)), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    spec = _load_spec_arg(args.spec, check=False)
    report = validate(spec)
    doc = _meta(spec)
    doc["valid"] = report.ok
    doc["problems"] = str(report) if not report.ok else None
    _emit_json(doc, args.out)
    return 0 if report.ok else 3


def cmd_exact(args: argparse.Namespace) -> int:
    if args.matrix and args.format == "csv":  # a 3x3 matrix is no quantity,value row
        print("error: exact: --matrix is written as JSON only, not --format csv", file=sys.stderr)
        return 2
    spec = _load_spec_arg(args.spec)
    site = _parse_point(args.site)
    region = _parse_region(args.region, site)
    summary = summarize(spec, region, site)
    doc = _meta(spec)
    doc.update(summary.to_json_dict())
    if args.matrix:
        doc["extremal_coefficient_matrix"] = [
            [float(v) for v in row] for row in extremal_coefficient_matrix(spec, site)
        ]
    if args.given is not None:
        given = _parse_region(args.given, site)
        doc["region_to_region_contagion"] = float(
            contagion_index_region(spec, region, given)
        )
        if given == region:
            doc["fragility_index"] = float(fragility_index(spec, region))
    rows = [(key, doc[key]["value"])
            for key in ("contagion_index", "stability_index", "joint_extremal_coefficient")]
    rows += [(key, doc[key]) for key in ("region_to_region_contagion", "fragility_index")
             if key in doc]
    _emit_doc(args, doc, ["quantity", "value"], rows)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _load_spec_arg(args.spec)
    points = spec.domain_points() if args.locations == "domain" else _parse_region(args.locations)
    sample = simulate_m4(spec, Region(points), args.n, args.seed)
    csv_path, meta_path = export_sample(sample, args.out)
    _emit_json(
        {**_meta(spec, sample.seed), "csv": str(csv_path), "metadata": str(meta_path),
         "n": sample.n_replicates, "locations": len(sample.locations)},
        None,
    )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    sample = read_sample_csv(args.sample, args.meta)
    site = _parse_point(args.site)
    region = _parse_region(args.region, site)
    summary = estimate_summary(rank_transform(sample), region, site)
    doc = {
        **_meta(),
        "spec_fingerprint": sample.spec_fingerprint,
        "seed": sample.seed,
        "n": sample.n_replicates,
        "site": str(site),
        "region": [str(p) for p in region],
        **_estimates_json(summary, "point", map(str, region)),
    }
    _emit_json(doc, args.out)
    return 0


def cmd_mc_study(args: argparse.Namespace) -> int:
    spec = _load_spec_arg(args.spec)
    site = _parse_point(args.site)
    region = _parse_region(args.region, site)
    ci_result, si_result = monte_carlo_study(spec, region, site, args.reps, args.n, args.seed)
    doc = {**_meta(spec, args.seed),
           "contagion": ci_result.to_json_dict(), "stability": si_result.to_json_dict()}
    rows = [result.csv_row() for result in (ci_result, si_result)]
    _emit_doc(args, doc, list(doc["contagion"]), rows)  # `to_json_dict`'s keys, in field order
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    dataset = ingest_stations(args.data, missing=args.missing, metadata_path=args.meta)
    doc = {
        **_meta(),
        "stations": [{"name": s.name, "x": s.x, "y": s.y} for s in dataset.stations],
        "n": dataset.n,
        "years": list(dataset.years),
        "dropped_years": list(dataset.dropped_years),
    }
    _emit_json(doc, args.out)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    dataset = ingest_stations(args.data, missing=args.missing)
    regions = [[name.strip() for name in next(_csv_rows("--region", [region])) if name.strip()]
               for region in args.region]  # each value one CSV record, as the header is
    reports = [station_indices(dataset, args.condition, names) for names in regions]
    doc = {
        **_meta(),
        "conditioning": args.condition,
        "reports": [rep.to_json_dict() for rep in reports],
    }
    header = ["region", "contagion_index_estimate", "stability_index_estimate", "n"]
    rows = [[";".join(rep["region"])] + [rep[key] for key in header[1:]] for rep in doc["reports"]]
    _emit_doc(args, doc, header, rows)  # a name holding ';' reads back as two
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="m4extremes",
        description="Contagion and stability indices for M4 max-stable random fields.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # options that several commands share, each defined once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default: stdout)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json")
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--spec", required=True, help="spec file or preset name")
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--site", required=True, help="x,y")
    point.add_argument("--region", required=True, help="'neighbors' or 'x,y;x,y;...'")
    draws = argparse.ArgumentParser(add_help=False)
    draws.add_argument("--n", required=True, type=int)
    draws.add_argument("--seed", required=True, type=int)
    station = argparse.ArgumentParser(add_help=False)
    station.add_argument("--data", required=True)
    station.add_argument("--missing", choices=("error", "drop-year"), default="error")

    p = sub.add_parser("preset", parents=[out],
                       help="write a built-in specification as JSON")
    p.add_argument("name", choices=sorted(PRESETS))
    p.set_defaults(func=cmd_preset)

    p = sub.add_parser("validate", parents=[spec, out],
                       help="check a specification file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("exact", parents=[spec, point, fmt, out],
                       help="closed-form indices for a site and region")
    p.add_argument("--given", help="conditioning region for region-to-region contagion")
    p.add_argument("--matrix", action="store_true",
                   help="include the 3x3 neighbor coefficient matrix (JSON only)")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("simulate", parents=[spec, draws],
                       help="draw replicates of the field to CSV")
    p.add_argument("--locations", default="domain",
                   help="'domain' (default) or 'x,y;x,y;...'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", parents=[point, out],
                       help="rank-based indices from a sample CSV")
    p.add_argument("--sample", required=True)
    p.add_argument("--meta", help="metadata sidecar JSON")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("mc-study", parents=[spec, point, draws, fmt, out],
                       help="Monte Carlo study of the estimators")
    p.add_argument("--reps", required=True, type=int)
    p.set_defaults(func=cmd_mc_study)

    p = sub.add_parser("ingest", parents=[station, out],
                       help="parse and summarize a station CSV")
    p.add_argument("--meta", help="station coordinate CSV (station,x,y)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("report", parents=[station, fmt, out],
                       help="station-to-region index estimates")
    p.add_argument("--condition", required=True, help="conditioning station name")
    p.add_argument("--region", required=True, action="append",
                   help="comma-separated station names, quoted as in CSV (repeatable)")
    p.set_defaults(func=cmd_report)

    return parser


_POINT_OPTIONS = ("--site", "--region", "--given", "--locations")


def _bind_negative_values(argv: list[str]) -> list[str]:
    """'--site -1,2' -> '--site=-1,2', as argparse takes '-1,2' for a flag."""
    bound: list[str] = []
    for token in argv:
        if bound and bound[-1] in _POINT_OPTIONS and re.match(r"-\d", token):
            token = f"{bound.pop()}={token}"
        bound.append(token)
    return bound


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_bind_negative_values(argv))
    except SystemExit as exc:  # argparse already printed usage/diagnostics
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (M4Error, OSError, MemoryError) as exc:  # reads fail as ParseError: OSError is a write
        where = f"{args.command}: " if isinstance(exc, MemoryError) else ""  # numpy names the size
        print(f"error: {where}{exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
