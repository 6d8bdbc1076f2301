"""The benchmark's four workloads: inputs, jobs and output checks.

A workload's constructor builds and validates its specifications; that is
the part of set-up the benchmark times.  `prepare` writes bulk inputs (not
timed).  `keys` is the fixed job list of one pass.  `run(key)` executes one
job through the public `m4extremes` API or its CLI, `check(key, out)`
returns the job's digests and any problems found by cheap invariant checks,
and `finish()` runs the checks that need a large in-process reference, after
the worker has read its peak memory.

Every program call goes through an attribute lookup on an `m4extremes`
module at call time, so the traced run can wrap those names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import m4extremes as m4

SIZES = {
    "full": {
        "ring_n": 10**6,
        "mc_jobs": 100, "mc_reps": 4, "mc_n": 1000,
        "exact_specs": 40, "exact_ladder": 10, "exact_fragility": 8,
        "domain_n": 1000, "stations": 441, "station_years": 1000,
    },
    # Tiny inputs for the smoke self-test.  The ring keeps the acceptance
    # suite's 2*10**5 replicates, the smallest size its oracle tolerances
    # were set for.
    "smoke": {
        "ring_n": 2 * 10**5,
        "mc_jobs": 5, "mc_reps": 2, "mc_n": 200,
        "exact_specs": 4, "exact_ladder": 4, "exact_fragility": 3,
        "domain_n": 20, "stations": 30, "station_years": 50,
    },
}

# Acceptance-suite constants: exact indices of the one-pattern preset at
# site (3,3) and its ring, and the oracle tolerances at u = 0.99.  Those
# tolerances were set at the suite's frozen seed; at other seeds the oracle
# misses them now and then (errors of 0.108 and 0.109 for the contagion
# oracle at two of fifteen seeds, n = 10**6), so the check widens them by
# ORACLE_SE standard errors of the oracle, estimated from the sample.
CI_ONE = Fraction(47, 10)
SI_ONE = Fraction(66, 31)
ORACLE_U = 0.99
ORACLE_CI_TOL = 0.1
ORACLE_SI_TOL = 0.05
ORACLE_SE = 4
ESTIMATE_TOL = 0.05
FLOAT_EXACT_TOL = 1e-9
WEIGHT_DENOMINATOR = 60


def digest(*parts) -> str:
    """Short SHA-256 of byte strings or contiguous arrays."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def distinct_column_ratio(spec, points) -> float:
    """Distinct weight matrices among `points`, over the number of points."""
    return len({spec.patterns_at(p) for p in points}) / len(points)


def _random_weights(rng: random.Random, count: int) -> list[Fraction]:
    """`count` positive weights over a common denominator that sum to one.

    The fixed denominator keeps the cost of exact arithmetic the same for
    every seed.
    """
    cuts = sorted(rng.sample(range(1, WEIGHT_DENOMINATOR), count - 1))
    bounds = [0] + cuts + [WEIGHT_DENOMINATOR]
    return [Fraction(b - a, WEIGHT_DENOMINATOR) for a, b in zip(bounds, bounds[1:])]


def _random_rules(rng: random.Random, n_patterns: int, lag_count: int):
    rules = []
    for predicate in ("both_odd", "abscissa_even", "always"):
        flat = _random_weights(rng, n_patterns * lag_count)
        rows = tuple(
            tuple(flat[i * lag_count : (i + 1) * lag_count]) for i in range(n_patterns)
        )
        rules.append(m4.PatternRule(predicate, rows))
    return rules


def _distinct_points(rng: random.Random, count: int, radius: int):
    points: list = []
    while len(points) < count:
        p = m4.LatticePoint(rng.randint(-radius, radius), rng.randint(-radius, radius))
        if p not in points:
            points.append(p)
    return points


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    name: str
    keys: list[str]
    warm_up = True  # in-process workloads run one untimed job first

    def prepare(self, workdir: Path) -> None:
        pass

    def finish(self) -> dict[str, list[str]]:
        return {}


class RingOracle(Workload):
    """The acceptance fixture: one 10**6 x 9 ring sample per job."""

    name = "ring_oracle"
    U_LEVELS = (0.95, ORACLE_U, 0.999)

    def __init__(self, seed: int, size: str):
        self.n = SIZES[size]["ring_n"]
        self.spec = m4.preset_one_pattern()
        self.site = m4.LatticePoint(3, 3)
        self.ring = m4.neighbors(self.site)
        self.locations = m4.Region([self.site]).union(self.ring)
        self.sim_seed = _rng(self.name, seed).getrandbits(63)
        self.keys = ["oracle"]

    def properties(self) -> dict:
        return {
            "rows": self.n,
            "columns": len(self.locations),
            "simulate.distinct_column_ratio": distinct_column_ratio(
                self.spec, self.locations
            ),
        }

    def run(self, key: str):
        sample = m4.simulate_m4(self.spec, self.locations, self.n, self.sim_seed)
        scores = m4.rank_transform(sample)
        oracles = {
            u: (
                m4.empirical_contagion(sample, self.ring, self.site, u, scores),
                m4.empirical_stability(sample, self.ring, self.site, u, scores),
            )
            for u in self.U_LEVELS
        }
        estimates = (
            m4.estimate_contagion(scores, self.ring, self.site),
            m4.estimate_stability(scores, self.ring, self.site),
        )
        summary = m4.summarize(self.spec, self.ring, self.site)
        return sample, scores, oracles, estimates, summary

    def check(self, key: str, out) -> tuple[dict, list[str]]:
        sample, scores, oracles, (ci_hat, si_hat), summary = out
        counts = scores.rank_counts
        digests = {
            "oracle.values": digest(np.ascontiguousarray(sample.values)),
            "oracle.rank_counts": digest(np.ascontiguousarray(counts)),
        }
        problems = []
        if sample.values.shape != (self.n, len(self.locations)):
            problems.append(f"sample shape {sample.values.shape}")
        if counts.min() < 1 or np.any(counts.max(axis=0) != self.n):
            problems.append("rank counts are not in 1..n with a maximum of n")
        if summary.contagion != CI_ONE or summary.stability != SI_ONE:
            problems.append(
                f"summarize gave {summary.contagion}, {summary.stability}; "
                f"expected {CI_ONE}, {SI_ONE}"
            )
        ci_u, si_u = oracles[ORACLE_U]
        ci_se, si_se = self._oracle_standard_errors(scores)
        if abs(ci_u - float(CI_ONE)) > ORACLE_CI_TOL + ORACLE_SE * ci_se:
            problems.append(f"contagion oracle {ci_u} outside tolerance")
        if abs(si_u - float(SI_ONE)) > ORACLE_SI_TOL + ORACLE_SE * si_se:
            problems.append(f"stability oracle {si_u} outside tolerance")
        if abs(ci_hat - float(CI_ONE)) > ESTIMATE_TOL:
            problems.append(f"contagion estimate {ci_hat} outside tolerance")
        if abs(si_hat - float(SI_ONE)) > ESTIMATE_TOL:
            problems.append(f"stability estimate {si_hat} outside tolerance")
        return digests, problems

    @staticmethod
    def _oracle_standard_errors(scores) -> tuple[float, float]:
        """Standard errors of the two oracles at ORACLE_U.

        The contagion oracle is a mean over the replicates where the site
        (column 0) exceeds u; the stability oracle is a mean over those where
        any location does, of the ring sites above u while the site is not.
        """
        high = scores.scores > ORACLE_U
        site_high, ring_high = high[:, 0], high[:, 1:]
        exceed = ring_high[site_high].sum(axis=1)
        any_high = site_high | ring_high.any(axis=1)
        crossings = np.where(site_high, 0, ring_high.sum(axis=1))[any_high]
        return (exceed.std() / np.sqrt(exceed.size),
                crossings.std() / np.sqrt(crossings.size))


class MonteCarloStudy(Workload):
    """Many small replications at criterion 5's shape on an all-distinct table."""

    name = "mc_study"

    def __init__(self, seed: int, size: str):
        cfg = SIZES[size]
        self.reps, self.n = cfg["mc_reps"], cfg["mc_n"]
        rng = _rng(self.name, seed)
        self.site = m4.LatticePoint(3, 3)
        self.ring = m4.neighbors(self.site)
        self.locations = m4.Region([self.site]).union(self.ring)
        matrices: list = []
        while len(matrices) < len(self.locations):
            a, b = _random_weights(rng, 2)
            if ((a, b),) not in matrices:
                matrices.append(((a, b),))
        self.spec = m4.M4Spec.from_table(1, 1, 2, dict(zip(self.locations, matrices)))
        self.seeds = [rng.getrandbits(63) for _ in range(cfg["mc_jobs"])]
        self.keys = [f"study/{i}" for i in range(len(self.seeds))]
        self._verified: dict[str, str] = {}

    def properties(self) -> dict:
        return {
            "rows": self.n,
            "columns": len(self.locations),
            "replications": self.reps,
            "simulate.distinct_column_ratio": distinct_column_ratio(
                self.spec, self.locations
            ),
        }

    def _seed(self, key: str) -> int:
        return self.seeds[int(key.split("/")[1])]

    def run(self, key: str):
        return m4.monte_carlo_study(
            self.spec, self.ring, self.site, self.reps, self.n, self._seed(key)
        )

    def _redrive(self, seed: int) -> list[tuple]:
        """The study recomputed from its parts, in monte_carlo_study's order.

        The true values come from `summarize`, which derives both indices
        from the pairwise coefficients on its own.
        """
        summary = m4.summarize(self.spec, self.ring, self.site)
        true_ci, true_si = float(summary.contagion), float(summary.stability)
        ci = np.empty(self.reps)
        si = np.empty(self.reps)
        for r in range(self.reps):
            sample = m4.simulate_m4(
                self.spec, self.locations, self.n, m4.substream(seed, r)
            )
            scores = m4.rank_transform(sample)
            ci[r] = m4.estimate_contagion(scores, self.ring, self.site)
            si[r] = m4.estimate_stability(scores, self.ring, self.site)
        return [
            (name, true, float(est.mean()), float(np.mean((est - true) ** 2)),
             self.reps, self.n, seed)
            for name, true, est in (("CI", true_ci, ci), ("SI", true_si, si))
        ]

    def check(self, key: str, out) -> tuple[dict, list[str]]:
        rows = [tuple(result.csv_row()) for result in out]
        value = digest(repr(rows).encode())
        problems = []
        verified = self._verified.get(key)
        if verified is None:
            got = [
                (r.index_name, r.true_value, r.mean_estimate, r.mse,
                 r.replications, r.sample_size, r.seed)
                for r in out
            ]
            expected = self._redrive(self._seed(key))
            if got != expected:
                problems.append(f"study {got} != re-driven {expected}")
            else:
                self._verified[key] = value
        elif verified != value:
            problems.append("result differs from the same job's verified run")
        return {key: value}, problems


class ExactRegion(Workload):
    """Closed forms only: seeded summaries, then a conditioning-size ladder."""

    name = "exact_region"

    def __init__(self, seed: int, size: str):
        cfg = SIZES[size]
        rng = _rng(self.name, seed)
        domain = m4.LatticeRect(-6, 6, -6, 6)
        # Shapes and region sizes cycle with the query index, so only the
        # weights and points depend on the seed and the cost does not.
        self.queries = []
        for q in range(cfg["exact_specs"]):
            n_patterns, lag_count = 1 + q % 3, 1 + (q // 3) % 3
            spec = m4.M4Spec.from_rules(
                n_patterns, 0, lag_count - 1, domain,
                _random_rules(rng, n_patterns, lag_count),
            )
            site, *region = _distinct_points(rng, 2 + q % 8, 5)
            self.queries.append((spec, m4.Region(region), site))
        self.exact = m4.M4Spec.from_rules(
            2, 1, 2, m4.LatticeRect(-10, 10, -10, 10), _random_rules(rng, 2, 2)
        )
        self.modes = {"exact": self.exact, "float": self.exact.as_float()}
        ladder = cfg["exact_ladder"]
        points = _distinct_points(rng, ladder + 2, 2)
        self.chain = points[:ladder]
        self.target = m4.Region(points[ladder:ladder + 1])
        self.pair = m4.Region(points[ladder:])
        self.keys = [f"{kind}/{q}" for q in range(len(self.queries))
                     for kind in ("summary", "matrix")]
        for g in range(1, ladder + 1):
            for kind in ("cir", "mtd") + (("frag",) if g <= cfg["exact_fragility"] else ()):
                self.keys += [f"{kind}/exact/{g}", f"{kind}/float/{g}"]
        self._exact_values: dict[str, Fraction] = {}

    def properties(self) -> dict:
        return {
            "queries": len(self.queries),
            "max_given_size": len(self.chain),
            "ladder_points": len(self.chain) + 2,
        }

    def run(self, key: str):
        kind, arg, *rest = key.split("/")
        if kind == "summary":
            spec, region, site = self.queries[int(arg)]
            return m4.summarize(spec, region, site)
        if kind == "matrix":
            spec, _, site = self.queries[int(arg)]
            return m4.extremal_coefficient_matrix(spec, site)
        spec, given = self.modes[arg], m4.Region(self.chain[: int(rest[0])])
        if kind == "cir":
            return m4.contagion_index_region(spec, self.target, given)
        if kind == "frag":
            return m4.fragility_index(spec, given)
        return m4.multivariate_tail_dependence(spec, self.pair, given)

    def check(self, key: str, out) -> tuple[dict, list[str]]:
        kind, arg, *rest = key.split("/")
        if kind == "summary":
            _, region, _ = self.queries[int(arg)]
            text = json.dumps(out.to_json_dict(), sort_keys=True)
            return {key: digest(text.encode())}, self._summary_problems(out, len(region))
        if kind == "matrix":
            entries = [v for row in out for v in row]
            ok = out[1][1] == 1 and all(1 <= v <= 2 for v in entries)
            return {key: digest(str(out).encode())}, [] if ok else [f"matrix {out}"]
        g = int(rest[0])
        problems = []
        if arg == "exact":
            self._exact_values[f"{kind}/{g}"] = out
            upper = {"cir": 1, "frag": g, "mtd": 1}[kind]
            lower = 1 if kind == "frag" else 0
            if not lower <= out <= upper:
                problems.append(f"{out} outside [{lower}, {upper}]")
            if not isinstance(out, Fraction):
                problems.append(f"exact mode returned {type(out).__name__}")
            given = m4.Region(self.chain[:g])
            if kind == "cir" and g == 1:
                expected = m4.contagion_index(self.exact, self.target, self.chain[0])
                if out != expected:
                    problems.append(f"{out} != contagion_index {expected}")
            if kind == "frag" and g <= 4:
                expected = m4.contagion_index_region(self.exact, given, given)
                if out != expected:
                    problems.append(f"{out} != contagion_index_region {expected}")
            return {key: digest(str(out).encode())}, problems
        exact = self._exact_values.get(f"{kind}/{g}")
        if exact is None or abs(out - float(exact)) > FLOAT_EXACT_TOL * max(1, abs(out)):
            problems.append(f"float {out!r} disagrees with exact {exact}")
        return {key: digest(repr(out).encode())}, problems

    @staticmethod
    def _summary_problems(s, size: int) -> list[str]:
        pair_sum = sum(v for _, v in s.pairwise_extremal)
        identities = (
            s.stability * s.joint_extremal + s.contagion == size,
            s.contagion == 2 * size - pair_sum,
            s.stability_lower <= s.stability <= s.stability_upper,
            1 <= s.joint_extremal <= size + 1,
        )
        return [] if all(identities) else [f"summary identities fail: {identities}"]


class DomainPipeline(Workload):
    """The CLI over the 441-site domain, with a station CSV beside it.

    Each job is one `m4extremes` command in a fresh interpreter, so every
    job pays the import a user pays.  With `in_process` set (the traced
    run) the same argv lists go through `m4extremes.cli.main` instead.
    """

    name = "domain_pipeline"
    warm_up = False  # a user pays the import on every command
    in_process = False

    def __init__(self, seed: int, size: str):
        import m4extremes.cli  # noqa: F401  (the entry point is part of set-up)

        cfg = SIZES[size]
        rng = _rng(self.name, seed)
        self.spec = m4.preset("two-pattern")
        m4.validate(self.spec).raise_if_invalid()
        self.n = cfg["domain_n"]
        self.sim_seed = rng.getrandbits(63)
        self.site = m4.LatticePoint(rng.randint(-9, 9), rng.randint(-9, 9))
        self.ring = m4.neighbors(self.site)
        self.given = m4.Region(rng.sample(self.ring.points, 3))
        self.station_names = [f"st{i:03d}" for i in range(cfg["stations"])]
        self.years = cfg["station_years"]
        self.station_seed = rng.getrandbits(63)
        picked = rng.sample(self.station_names, 1 + 8 + 20)
        self.condition, self.regions = picked[0], [picked[1:9], picked[9:]]
        self.keys = ["preset", "validate", "simulate", "estimate", "exact",
                     "ingest", "report"]
        self._outputs: dict[str, tuple] = {}

    def properties(self) -> dict:
        return {
            "rows": self.n,
            "columns": len(self.spec.domain_points()),
            "station_rows": self.years,
            "station_columns": len(self.station_names),
            "simulate.distinct_column_ratio": distinct_column_ratio(
                self.spec, self.spec.domain_points()
            ),
        }

    def prepare(self, workdir: Path) -> None:
        """Write the station CSV with the benchmark's own writer."""
        self.files = {name: workdir / name for name in
                      ("spec.json", "sample.csv", "sample.meta.json", "stations.csv")}
        gen = np.random.Generator(np.random.PCG64(self.station_seed))
        maxima = -1.0 / np.log(gen.random((self.years, len(self.station_names))))
        lines = [",".join(["year"] + self.station_names)]
        for year, row in enumerate(maxima.tolist(), start=1):
            lines.append(",".join([str(year)] + [repr(v) for v in row]))
        self.files["stations.csv"].write_text("\n".join(lines) + "\n")
        self.argv = self._argv()

    def _argv(self) -> dict[str, list[str]]:
        f = {name: str(path) for name, path in self.files.items()}
        site = f"{self.site.x},{self.site.y}"
        given = ";".join(f"{p.x},{p.y}" for p in self.given)
        report = ["report", "--data", f["stations.csv"], "--condition", self.condition]
        for names in self.regions:
            report += ["--region", ",".join(names)]
        return {
            "preset": ["preset", "two-pattern", "--out", f["spec.json"]],
            "validate": ["validate", "--spec", f["spec.json"]],
            "simulate": ["simulate", "--spec", f["spec.json"], "--locations", "domain",
                         "--n", str(self.n), "--seed", str(self.sim_seed),
                         "--out", f["sample.csv"]],
            "estimate": ["estimate", "--sample", f["sample.csv"],
                         "--meta", f["sample.meta.json"], f"--site={site}",
                         "--region", "neighbors"],
            "exact": ["exact", "--spec", f["spec.json"], f"--site={site}",
                      "--region", "neighbors", "--matrix", f"--given={given}"],
            "ingest": ["ingest", "--data", f["stations.csv"]],
            "report": report,
        }

    def run(self, key: str):
        argv = self.argv[key]
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = m4.cli.main(argv)
            return code, buf.getvalue(), ""
        proc = subprocess.run(
            [sys.executable, "-m", "m4extremes", *argv],
            capture_output=True, text=True, timeout=150,
        )
        return proc.returncode, proc.stdout, proc.stderr

    # files each command writes, which its digest covers
    _WRITES = {"preset": ("spec.json",), "simulate": ("sample.csv", "sample.meta.json")}

    def check(self, key: str, out) -> tuple[dict, list[str]]:
        code, stdout, stderr = out
        if code != 0:
            return {}, [f"exit code {code}: {stderr.strip()[-300:]}"]
        parts = [stdout.encode()] + [
            self.files[name].read_bytes() for name in self._WRITES.get(key, ())
        ]
        value = digest(*parts)
        first = self._outputs.setdefault(key, (value, stdout))[0]
        problems = [] if first == value else ["output differs from the first pass"]
        doc = json.loads(stdout) if stdout else None
        if key == "validate" and not doc["valid"]:
            problems.append("preset spec reported invalid")
        if key == "simulate" and (doc["n"], doc["locations"]) != (
            self.n, len(self.spec.domain_points())
        ):
            problems.append(f"simulate reported {doc['n']} x {doc['locations']}")
        if key == "ingest" and (
            doc["n"] != self.years or len(doc["stations"]) != len(self.station_names)
            or doc["dropped_years"]
        ):
            problems.append("ingest reported the wrong station table shape")
        if key == "exact":
            ci, si, joint = (Fraction(doc[k]["exact"]) for k in (
                "contagion_index", "stability_index", "joint_extremal_coefficient"))
            if si * joint + ci != len(self.ring):
                problems.append("exact output breaks si * joint + ci = |region|")
        return {key: value}, problems

    def finish(self) -> dict[str, list[str]]:
        """Compare the CLI outputs with the library computed in-process."""
        if not self._outputs:
            return {}
        problems: dict[str, list[str]] = {key: [] for key in self._outputs}

        def doc(key):
            return json.loads(self._outputs[key][1]) if key in self._outputs else None

        if "preset" in self._outputs:
            if self.files["spec.json"].read_text() != m4.dump_spec(self.spec):
                problems["preset"].append("spec file differs from dump_spec(preset)")
        domain = m4.Region(self.spec.domain_points())
        sample = m4.simulate_m4(self.spec, domain, self.n, self.sim_seed)
        if "simulate" in self._outputs:
            back = m4.read_sample_csv(self.files["sample.csv"], self.files["sample.meta.json"])
            if (back.locations != sample.locations
                    or not np.array_equal(back.values, sample.values)
                    or back.seed != sample.seed
                    or back.spec_fingerprint != sample.spec_fingerprint):
                problems["simulate"].append("CSV round trip differs from simulate_m4")
        if "estimate" in self._outputs:
            scores = m4.rank_transform(sample)
            got = doc("estimate")
            expected = (
                m4.estimate_contagion(scores, self.ring, self.site),
                m4.estimate_stability(scores, self.ring, self.site),
                m4.estimate_extremal_coefficient(
                    scores, m4.Region([self.site]).union(self.ring)).value,
            )
            if (got["contagion_index_estimate"], got["stability_index_estimate"],
                    got["joint_extremal_estimate"]) != expected:
                problems["estimate"].append(f"estimate output differs from {expected}")
        if "exact" in self._outputs:
            got = doc("exact")
            summary = m4.summarize(self.spec, self.ring, self.site).to_json_dict()
            cir = float(m4.contagion_index_region(self.spec, self.ring, self.given))
            if (got["contagion_index"] != summary["contagion_index"]
                    or got["region_to_region_contagion"] != cir):
                problems["exact"].append("exact output differs from summarize")
        if "report" in self._outputs:
            dataset = m4.ingest_stations(self.files["stations.csv"])
            expected = [m4.station_indices(dataset, self.condition, names).to_json_dict()
                        for names in self.regions]
            if doc("report")["reports"] != expected:
                problems["report"].append("report differs from station_indices")
        return problems


WORKLOADS = {w.name: w for w in (RingOracle, MonteCarloStudy, DomainPipeline, ExactRegion)}
