"""The benchmark's three workloads: seeded job lists and their oracles.

A job is one call into semicov (a CLI command run in-process, or a
library call) plus the oracle that judges its output.  The seed varies
only input values (amplitudes, offsets, blow-up angles, kinds and lengths,
connector heights); which jobs run, their degrees, grids and depths are
fixed, so the work per pass is the same for every seed.

Jobs look semicov functions up through their modules when they run, so
the tracer's wrappers (installed after the jobs were built) see every call.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles as orc

WORKLOADS = ("circle-batch", "annulus-coding", "fine-grid")
BASELINE_SEED = 0            # the seed whose CLI artifact digests baseline.json stores
ORACLE_NODES = 64            # seeded grid nodes compared against the limit oracle
GRID = 4096                  # the CLI's default circle grid


@dataclass
class Check:
    """Verdict of one oracle on one job output."""

    ok: bool
    detail: str = ""
    err_1d: float | None = None
    err_2d: float | None = None
    reported_1d: float | None = None     # the solver's own residual, shown beside err_1d
    reported_2d: float | None = None
    seam_split: int = 0                  # classify records split at angle 0 (a known defect)
    unresolved: int = 0                  # signatures or verdicts left open at the grid's floor

    def __post_init__(self):
        self.ok = bool(self.ok)          # oracles compute it with numpy comparisons


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Check]
    cli: bool = False                    # output is a CLI artifact (digested)


@dataclass
class CliOutput:
    code: int
    text: str


def run_cli(argv: list[str]) -> CliOutput:
    """Run one semicov command in this process and capture its artifact."""
    from semicov import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliOutput(code, buf.getvalue())


def _js(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _node_gap(samples, truth_fn, rng) -> float:
    idx = rng.integers(0, len(samples), ORACLE_NODES)
    x = idx / (len(samples) - 1)
    return float(np.max(np.abs(samples[idx] - truth_fn(x))))


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass; the same seed always gives the same jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = {"circle-batch": _circle_batch, "annulus-coding": _annulus_coding,
            "fine-grid": _fine_grid}[workload](rng)
    for i, job in enumerate(jobs):
        job.name = f"{i:02d} {job.name}"
    return jobs


def _oracle_rng(rng) -> Callable[[], np.random.Generator]:
    """A fresh generator per check, so every pass checks the same points."""
    state = int(rng.integers(2 ** 32))
    return lambda: np.random.default_rng(state)


# ---------------------------------------------------------------------------
# circle-batch: many small circle jobs through the CLI
# ---------------------------------------------------------------------------

KINDS = ("advance", "identity", "north_south", "retreat", "south_north")
EXPECTED_SIGNATURES = {                    # acceptance c06
    "north_south": (3, (-1, 1, -1, 1)),
    "south_north": (3, (-1, -1, 1, 1)),
    "advance": (2, (-1, 1, 1)),
    "retreat": (2, (-1, -1, 1)),
}
ALTERED_KIND = {"identity": "north_south", "north_south": "identity",
                "south_north": "advance", "advance": "north_south",
                "retreat": "north_south"}
ERR_1D_CAP = 2e-2            # grid 4096, amplitude <= 0.3; a gross-error guard, not a tolerance
ROTATION_TOL = 2e-3
# The sine map of ROADMAP item 3 (d=2, amplitude 0.3, offset 0) runs unseeded
# in every pass.  Its defect is the largest, so err_1d compares one map
# across seeds instead of the worst of a few seeded draws, whose defects
# scatter by a factor of two with the offset.
REFERENCE_SINE = (2, 0.3, 0.0)


def _circle_batch(rng) -> list[Job]:
    jobs: list[Job] = []
    d, a, c = REFERENCE_SINE
    jobs.append(_semiconj1d_sine(d, 1, a, c, _oracle_rng(rng)))
    for d, o in ((2, 1), (2, -1), (3, 1), (3, -1), (-2, 1), (-2, -1)):
        jobs.append(_semiconj1d_sine(d, o, rng.uniform(0.09, 0.11), rng.uniform(-0.5, 0.5),
                                     _oracle_rng(rng)))
    for d in (2, 3, -2):
        jobs.append(_semiconj1d_linear(d, rng.uniform(-0.5, 0.5), _oracle_rng(rng)))
    jobs.append(_rotation({"family": "sine", "degree": 2, "amplitude": rng.uniform(0.09, 0.11),
                           "offset": rng.uniform(-0.5, 0.5)}))
    jobs.append(_rotation({"family": "sine", "degree": -2, "amplitude": rng.uniform(0.09, 0.11),
                           "offset": rng.uniform(-0.5, 0.5)}))
    jobs.append(_rotation({"family": "linear", "degree": 3, "offset": rng.uniform(-0.5, 0.5)}))
    for d, period in ((2, 1), (3, 2), (2, 3), (3, 1)):
        jobs.extend(_blowup_round_trip(d, period, rng))
    jobs.append(_periodic("model", 2, 6, 0.0, 0.0))
    jobs.append(_periodic("model", 3, 4, 0.0, 0.0))
    jobs.append(_periodic("sine", 2, 5, rng.uniform(0.09, 0.11), rng.uniform(-0.5, 0.5)))
    jobs.append(_periodic("sine", 3, 3, rng.uniform(0.09, 0.11), rng.uniform(-0.5, 0.5)))
    jobs.append(_semiconj2d_sine_fiber(rng.uniform(0.05, 0.15), _oracle_rng(rng)))
    return jobs


def _semiconj1d_sine(d, o, a, c, point_rng) -> Job:
    cfg = {"family": "sine", "degree": d, "amplitude": a, "offset": c}
    argv = ["semiconj1d", "--map", _js(cfg), "--orientation", "+" if o > 0 else "-"]
    f = orc.sine_lift(d, a, c)
    kinks = functools.cache(lambda: orc.grid_preimages(f, GRID))

    def check(out: CliOutput) -> Check:
        samples, reported = orc.field_1d_from_csv(out.text)
        r = point_rng()
        err = orc.defect_bound_1d(samples, o, d, f, r, kinks())
        gap = _node_gap(samples, lambda x: o * orc.limit_semiconjugacy(f, d, x), r)
        return Check(out.code == 0 and err <= ERR_1D_CAP and gap <= 2 * err + 1e-9,
                     f"exit {out.code}, limit gap {gap:.2e}",
                     err_1d=err, reported_1d=reported)

    return Job(f"semiconj1d sine d={d} o={o:+d} a={a:.2f}", lambda: run_cli(argv), check,
               cli=True)


def _semiconj1d_linear(d, c, point_rng) -> Job:
    cfg = {"family": "linear", "degree": d, "offset": c}
    argv = ["semiconj1d", "--map", _js(cfg), "--tol", "1e-9"]
    f = orc.sine_lift(d, 0.0, c)
    kinks = functools.cache(lambda: orc.grid_preimages(f, GRID))

    def check(out: CliOutput) -> Check:
        samples, reported = orc.field_1d_from_csv(out.text)
        xs = np.linspace(0.0, 1.0, len(samples))
        gap = float(np.max(np.abs(samples - orc.affine_semiconjugacy(d, c, xs))))
        err = orc.defect_bound_1d(samples, 1, d, f, point_rng(), kinks())
        return Check(out.code == 0 and gap <= 1e-8,             # acceptance c04
                     f"exit {out.code}, affine gap {gap:.2e}", err_1d=err, reported_1d=reported)

    return Job(f"semiconj1d linear d={d}", lambda: run_cli(argv), check, cli=True)


def _rotation(cfg) -> Job:
    argv = ["rotation", "--map", _js(cfg)]
    f = orc.sine_lift(cfg["degree"], cfg.get("amplitude", 0.0), cfg["offset"])

    def check(out: CliOutput) -> Check:
        _, header, rows = orc.parse_csv(out.text)
        truth = orc.limit_semiconjugacy(f, cfg["degree"], rows[:, 0])
        gap = float(np.max(np.abs(rows[:, 1] - truth)))
        tol = ROTATION_TOL if cfg["family"] == "sine" else 1e-8
        return Check(out.code == 0 and header == ["x", "rho"] and len(rows) == 256
                     and gap <= tol, f"exit {out.code}, limit gap {gap:.2e}")

    return Job(f"rotation {cfg['family']} d={cfg['degree']}", lambda: run_cli(argv), check,
               cli=True)


def _blowup_round_trip(d: int, period: int, rng) -> list[Job]:
    """Acceptance c06: classify a seeded blow-up, compare a rotated and an altered copy.

    Degree and period are fixed per slot, so the work per pass does not
    depend on the seed; angle, kind, length and the self-conjugacy do."""
    q = d ** period - 1
    base = Fraction(int(rng.integers(0, q)), q)
    kind = KINDS[int(rng.integers(0, len(KINDS)))]
    length = float(rng.uniform(0.08, 0.18))
    # a non-identity self-conjugacy theta -> j/|d-1| + s theta of z -> z^d
    mod = abs(d - 1)
    j, reflect = divmod(int(rng.integers(1, 2 * mod)), 2)
    turned = ((-base if reflect else base) + Fraction(j, mod)) % 1

    def blowup(angle: Fraction, k: str) -> str:
        return _js({"family": "blowup", "degree": d, "insertions": [
            {"base_angle": f"{angle.numerator}/{angle.denominator}", "length": length,
             "kind": k}]})

    cycle, th = set(), base
    for _ in range(period + 1):
        cycle.add(float(th))
        th = (d * th) % 1
    label = f"blowup d={d} p={period} {kind}"

    def seam_split(records) -> list[dict]:
        # a plateau straddling angle 0 comes back as two records with a wrong
        # kind or signature: a known classify defect, counted rather than failed
        return [r for r in records if r["interval"][0] == 0.0 or r["interval"][1] == 1.0]

    def check_classify(out: CliOutput) -> Check:
        close = [r for r in json.loads(out.text)["records"]
                 if min(orc.circle_gap(r["image_angle"], a) for a in cycle) < 1e-3]
        split = seam_split(close)
        whole = [r for r in close if r not in split and r["kind"] == "periodic"]
        covered = {min(cycle, key=lambda a: orc.circle_gap(r["image_angle"], a))
                   for r in whole + split}
        signatures = [_signature(r["signature"]) for r in whole]
        resolved = {sig for sig in signatures if sig is not None}
        expected = ("identity",) if kind == "identity" else EXPECTED_SIGNATURES[kind]
        ok = out.code == 0 and covered == cycle and resolved == {expected}
        return Check(ok, f"exit {out.code}, signatures {sorted(map(str, signatures))}, "
                         f"{len(split)} seam-split records", seam_split=len(split),
                     unresolved=signatures.count(None))

    @functools.cache
    def split_records(cfg: str) -> int:
        """Seam-split records of one compared map (cycle or not), from its classify artifact."""
        return len(seam_split(json.loads(run_cli(["classify", "--map", cfg]).text)["records"]))

    def check_compare(expected_status: str, expected_code: int, other: str):
        # "inconclusive" (exit 2) is the documented answer at the grid's
        # resolution floor: counted as unresolved, not as a wrong verdict.
        # A wrong verdict on maps with a plateau straddling angle 0 (on the
        # cycle or off it) is the seam-split defect again, so it is counted
        # with it; any other wrong verdict fails the job.
        def check(out: CliOutput) -> Check:
            status = json.loads(out.text)["status"]
            unresolved = out.code == 2 and status == "inconclusive"
            if unresolved or (out.code == expected_code and status == expected_status):
                return Check(True, f"exit {out.code}, {status}", unresolved=int(unresolved))
            split = split_records(a) + split_records(other)
            return Check(split > 0, f"exit {out.code}, {status}; {split} seam-split records "
                                    "in the compared maps", seam_split=split)
        return check

    a = blowup(base, kind)
    b_rot = blowup(turned, kind)
    b_alt = blowup(base, ALTERED_KIND[kind])
    argv_cls = ["classify", "--map", a]
    argv_rot = ["compare", "--a", a, "--b", b_rot]
    argv_alt = ["compare", "--a", a, "--b", b_alt]
    return [Job(f"classify {label}", lambda: run_cli(argv_cls), check_classify, cli=True),
            Job(f"compare turned {label}", lambda: run_cli(argv_rot),
                check_compare("equivalent", 0, b_rot), cli=True),
            Job(f"compare altered {label}", lambda: run_cli(argv_alt),
                check_compare("distinct", 1, b_alt), cli=True)]


def _signature(sig: dict):
    """Comparable form of a record's signature; None when it is unresolved."""
    if sig["identity_like"]:
        return ("identity",)
    if sig["fixed_point_count"] is None:
        return None
    return sig["fixed_point_count"], tuple(sig["sign_pattern"])


def _periodic(family: str, d: int, n: int, a: float, c: float) -> Job:
    """Acceptance c07: exactly |d^n - 1| periodic angles, each a root of F^n - id."""
    f = orc.sine_lift(d, a, c)
    tol = 1e-9 if family == "model" else 1e-6 * abs(d) ** n     # sampled-lift slack

    def run():
        from semicov import circle
        m = circle.model_lift(d) if family == "model" else circle.from_function(f, 4096)
        return circle.find_periodic_points(m, n, tol=1e-9)

    def check(points) -> Check:
        defect = orc.periodic_defect(f, n, [p for p, _ in points])
        return Check(len(points) == abs(d ** n - 1) and defect <= tol,
                     f"{len(points)} points, defect {defect:.1e}")

    return Job(f"periodic {family} d={d} n={n}", run, check)


SINE_FIBER_AMPLITUDE = 0.1  # fixed: the band defect is a max over columns, each a new offset


def _sine_fiber_map(a: float, s: float):
    fiber = orc.sine_lift(2, a, 0.0)
    return lambda x, y: (x, fiber(y) + s * x)


def _check_band_field(band, xs, values, fmap, point_rng, reported, cap: float) -> Check:
    """Defect bound plus the limit oracle at seeded nodes (identity base only)."""
    r = point_rng()
    err = orc.defect_bound_2d(band, xs, values, 2, fmap, r)
    i = r.integers(0, len(xs), ORACLE_NODES)
    j = r.integers(0, values.shape[1], ORACLE_NODES)
    y = j / (values.shape[1] - 1)
    truth = orc.limit_semiconjugacy(lambda t: fmap(xs[i], t)[1], 2, y)
    gap = float(np.max(np.abs(values[i, j] - truth)))
    return Check(err <= cap and gap <= 2 * err + 1e-9, f"limit gap {gap:.2e}",
                 err_2d=err, reported_2d=reported)


def _semiconj2d_sine_fiber(s: float, point_rng) -> Job:
    a = SINE_FIBER_AMPLITUDE
    cfg = {"base": {"family": "identity"},
           "fiber": {"family": "circle_map", "map": {"family": "sine", "degree": 2,
                                                     "amplitude": a},
                     "tau": {"family": "linear", "scale": s}}}
    argv = ["semiconj2d", "--map", _js(cfg), "--band", "0.2,0.8"]
    fmap = _sine_fiber_map(a, s)

    def check(out: CliOutput) -> Check:
        xs, values, reported = orc.field_2d_from_csv(out.text)
        if out.code != 0:
            return Check(False, f"exit {out.code}")
        return _check_band_field((0.2, 0.8), xs, values, fmap, point_rng, reported, 2e-2)

    return Job("semiconj2d sine fiber", lambda: run_cli(argv), check, cli=True)


# ---------------------------------------------------------------------------
# annulus-coding: repellers, the connector coding and the winding scan
# ---------------------------------------------------------------------------

CODING_DEPTH = {2: 10, 3: 5, -2: 6}       # d=3 at depth 8 takes ~40 s, too long for a pass
CONTRACTION = (0.5, 0.9)                  # base x -> c + r (x - c)
CODING_BAND = (0.2, 0.8)
C10_TOL = 1e-10


def _annulus_coding(rng) -> list[Job]:
    # one solve of the reference sine map, so that err_1d exists on this
    # workload too; it adds about 15 ms to a pass of about 5 s
    d, a, c = REFERENCE_SINE
    jobs: list[Job] = [_semiconj1d_sine(d, 1, a, c, _oracle_rng(rng))]
    for d in (2, 3, -2):
        # a constant connector strictly between the lines j/(d-1) is free
        height = float(rng.uniform(0.25, 0.75)) / abs(d - 1)
        jobs.append(_repellers_cli(d, height))
        jobs.append(_coding(d, height, _oracle_rng(rng)))
    jobs.append(_star_scan())
    return jobs


def _contraction_map_cfg(d: int) -> dict:
    return {"base": {"family": "contraction", "center": CONTRACTION[0], "rate": CONTRACTION[1]},
            "fiber": {"family": "linear", "degree": d}}


def _repellers_cli(d: int, height: float) -> Job:
    """Acceptance c09: depth-10 repellers lie on the lines j/(d-1) within 2 |d|^-10."""
    argv = ["repellers", "--map", _js(_contraction_map_cfg(d)),
            "--connector", _js({"kind": "const", "height": height}), "--depth", "10"]

    def check(out: CliOutput) -> Check:
        curves = orc.curves_from_csv(out.text)
        gaps = [orc.root_of_unity_gap(h, d) for h in curves]
        lines = {round(float(np.mean(h)) * abs(d - 1)) % abs(d - 1) for h in curves}
        ok = (out.code == 0 and len(curves) == abs(d - 1) and len(lines) == len(curves)
              and max(gaps) <= 2.0 * abs(d) ** -10.0)
        return Check(ok, f"exit {out.code}, {len(curves)} curves, gap {max(gaps):.1e}")

    return Job(f"repellers d={d}", lambda: run_cli(argv), check, cli=True)


def _self_conjugate(d: int, values) -> list[np.ndarray]:
    """Images of angles under all 2|d-1| self-conjugacies of z -> z^d."""
    mod = abs(d - 1)
    return [j / mod + s * values for j in range(mod) for s in (1.0, -1.0)]


def _coding(d: int, height: float, point_rng) -> Job:
    """Repellers -> coded field -> operator cross-check (acceptance c10)."""
    depth = CODING_DEPTH[d]
    c, r = CONTRACTION

    def fmap(x, y):
        return c + r * (x - c), d * y

    def run():
        from semicov import connectors, semiconj2d
        from semicov.annulus import BaseMap, FiberMap, make_skew_product
        m = make_skew_product(BaseMap("contraction", CONTRACTION), FiberMap(d))
        reps = connectors.repelling_connectors(m, connectors.constant_connector(height),
                                               depth=10)
        coded = connectors.semiconjugacy_from_repellers(m, reps, depth=depth, band=CODING_BAND)
        op = semiconj2d.solve_band_semiconjugacy(m, CODING_BAND, C10_TOL)
        return coded, op

    def check(out) -> Check:
        coded, op = out
        pr = point_rng()
        err_2d = orc.defect_bound_2d(coded.band, coded.x_samples, coded.values, d, fmap, pr)
        xg, yg = np.meshgrid(np.linspace(*CODING_BAND, 17), np.linspace(0, 1, 32, endpoint=False),
                             indexing="ij")
        hc = orc.eval_field_2d(coded.band, coded.x_samples, coded.values, xg, yg)
        ho = orc.eval_field_2d(op.band, op.x_samples, op.values, xg, yg)
        agree = min(float(np.max(orc.circle_gap(g, ho))) for g in _self_conjugate(d, hc))
        bound = abs(d) ** (-depth + 1.0) + 10 * C10_TOL
        return Check(agree <= bound, f"coded vs operator {agree:.1e} (bound {bound:.1e}), "
                     f"{coded.metadata['curves']} curves",
                     err_2d=err_2d, reported_2d=coded.residual)

    return Job(f"coding d={d} depth={depth}", run, check)


def _star_scan() -> Job:
    """Acceptance c11: invariant arc -> coded field -> winding scan, bound satisfied."""
    cfg = {"base": {"family": "affine_to_one"},
           "fiber": {"family": "linear", "degree": 2,
                     "tau": {"family": "inv_one_minus", "scale": 1.0}}}
    conn = {"kind": "invariant_arc", "p": [0.5, 0.0], "value": 0.0, "n_back": 9, "n_fwd": 16}
    argv = ["star-scan", "--map", _js(cfg), "--connector", _js(conn), "--band", "0.1,0.9",
            "--nmax", "6", "--depth", "8"]

    def check(out: CliOutput) -> Check:
        doc = json.loads(out.text)
        ok = (out.code == 0 and doc["satisfied"] is True
              and doc["max_winding"] <= doc["implied_bound"])
        return Check(ok, f"exit {out.code}, max winding {doc['max_winding']} "
                         f"<= {doc['implied_bound']:.2f}")

    return Job("star-scan c11", lambda: run_cli(argv), check, cli=True)


# ---------------------------------------------------------------------------
# fine-grid: a few large-array library calls, no CLI
# ---------------------------------------------------------------------------

FINE_1D = ((2 ** 18, 3), (2 ** 20, 2))
FINE_BAND = (1025, 2048)
SINE_FIBER_BAND = (257, 512)


def _fine_grid(rng) -> list[Job]:
    d, a, c = REFERENCE_SINE
    jobs = [_fine_1d(2 ** 19, d, a, c, _oracle_rng(rng))]
    jobs += [_fine_1d(n, d, rng.uniform(0.09, 0.11), rng.uniform(-0.5, 0.5), _oracle_rng(rng))
             for n, d in FINE_1D]
    jobs.append(_fine_band_affine(rng.uniform(0.05, 0.15)))
    jobs.append(_fine_band_sine(rng.uniform(0.05, 0.15), _oracle_rng(rng)))
    jobs.append(_perturbation(rng.uniform(0.08, 0.12), int(rng.integers(2 ** 31)),
                              _oracle_rng(rng)))
    return jobs


def _fine_1d(n: int, d: int, a: float, c: float, point_rng) -> Job:
    f = orc.sine_lift(d, a, c)
    kinks = functools.cache(lambda: orc.grid_preimages(f, n))

    def run():
        from semicov import circle, semiconj1d
        return semiconj1d.solve_semiconjugacy(circle.from_function(f, n), 1, 1e-8)

    def check(h) -> Check:
        r = point_rng()
        err = orc.defect_bound_1d(h.samples, 1, d, f, r, kinks())
        gap = _node_gap(h.samples, lambda x: orc.limit_semiconjugacy(f, d, x), r)
        return Check(gap <= 2 * err + 1e-9, f"limit gap {gap:.2e}, {h.iterations} iterations",
                     err_1d=err, reported_1d=h.residual)

    return Job(f"solve1d n=2^{n.bit_length() - 1} d={d} a={a:.2f}", run, check)


def _fine_band_affine(s: float) -> Job:
    """Acceptance c08 at a large grid: the field is the ansatz y + s x."""
    nx, ny = FINE_BAND

    def run():
        from semicov import semiconj2d
        from semicov.annulus import BaseMap, FiberMap, TauSpec, make_skew_product
        m = make_skew_product(BaseMap("identity"), FiberMap(2, tau=TauSpec("linear", s)))
        return semiconj2d.solve_band_semiconjugacy(m, (0.2, 0.8), 1e-8, nx=nx, ny=ny)

    def check(h) -> Check:
        ys = np.linspace(0.0, 1.0, h.values.shape[1])
        gap = float(np.max(np.abs(h.values - (ys[None, :] + s * h.x_samples[:, None]))))
        return Check(gap <= 1e-6, f"ansatz gap {gap:.1e}, {h.iterations} iterations",
                     reported_2d=h.residual)

    return Job(f"band {nx}x{ny + 1} affine", run, check)


def _fine_band_sine(s: float, point_rng) -> Job:
    a = SINE_FIBER_AMPLITUDE
    nx, ny = SINE_FIBER_BAND
    fmap = _sine_fiber_map(a, s)

    def run():
        from semicov import circle, semiconj2d
        from semicov.annulus import BaseMap, FiberMap, TauSpec, make_skew_product
        fiber = FiberMap(2, circle=circle.from_function(orc.sine_lift(2, a, 0.0)),
                         tau=TauSpec("linear", s))
        m = make_skew_product(BaseMap("identity"), fiber)
        return semiconj2d.solve_band_semiconjugacy(m, (0.2, 0.8), 1e-8, nx=nx, ny=ny)

    def check(h) -> Check:
        return _check_band_field(h.band, h.x_samples, h.values, fmap, point_rng,
                                 h.residual, 2e-2)

    return Job(f"band {nx}x{ny + 1} sine fiber", run, check)


def _perturbation(eps: float, seed: int, point_rng) -> Job:
    """Acceptance c13, with the sup ratio re-measured at seeded points."""

    def run():
        from semicov import stability
        spec = stability.perturb_p2(stability.EpsilonSpec("const", eps))
        return spec, stability.verify_perturbation(spec, grid=10 ** 6, seed=seed)

    def check(out) -> Check:
        spec, report = out
        r = point_rng()
        x = np.exp(r.uniform(np.log(1e-6), np.log(1.0 - 1e-9), 20000))
        t = r.uniform(-np.pi, np.pi, x.size)
        _, gy = spec.g(x, t / orc.TWO_PI)
        ratio = np.abs(x ** 2 * np.exp(orc.TWO_PI * 1j * gy) - x ** 2 * np.exp(2j * t)) / eps
        sup = float(np.max(ratio))
        return Check(sup < 1.0 and report["invariance_fraction"] == 1.0,
                     f"sampled sup ratio {sup:.3f}")

    return Job("perturbation grid=1e6", run, check)
