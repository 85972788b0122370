"""semicov benchmark: one closed-loop client running a seeded job list.

    python3 perfbench/run.py --workload circle-batch --seed 0 --seconds 20 --trace 0

The client runs the workload's jobs one after another, each starting when
the previous one has finished, and repeats the whole list (a pass) until
--seconds have elapsed.  Every job's output is checked by an oracle that
does not read the solver's own report (workloads.py, oracles.py).

--trace 0 prints the end-to-end metrics: the median pass time, the set-up
time (median over fresh processes), this process's peak resident memory
and the worst off-grid defect bounds err_1d and err_2d.  Times are scaled
to nominal host speed by a reference loop timed around each job and each
set-up (hostspeed.py); the raw wall times are printed beside them.  --trace 1
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones (tracing.py) plus the tracing overhead; its spans are
written to .perfbench_out/ at the end.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from tracing import Tracer
from workloads import Check, CliOutput

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
TAIL_PERCENTILES = (75, 90, 95, 99, 99.9)
MIN_BEYOND = 10                  # samples that must lie beyond a reported percentile

END_TO_END = {                   # name -> unit
    "pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "err_1d": "turns", "err_2d": "turns",
}
PER_LAYER = {
    "connectors.preimage_connectors.calls": "count",
    "connectors.preimage_connectors.self_s": "s",
    "connectors.preimage_connectors.out_of_domain": "count",
    "connectors.height_at.calls": "count",
    "connectors.coding.calls": "count",
    "connectors.coding.self_s": "s",
    "connectors.coding.ops_computed": "ops",
    "connectors.coding.bytes_computed": "B",
    "connectors.curves": "count",
    "connectors.repelling_connectors.calls": "count",
    "connectors.repelling_connectors.self_s": "s",
    "annulus.fiber_inverse.calls": "count",
    "annulus.fiber_inverse.points": "count",
    "annulus.fiber_inverse.self_s": "s",
    "obstruction.star_condition_scan.calls": "count",
    "obstruction.star_condition_scan.self_s": "s",
    "obstruction.lift_loop_winding.calls": "count",
    "obstruction.ambiguous": "ratio",
    "circle.find_periodic_points.calls": "count",
    "circle.find_periodic_points.self_s": "s",
    "numerics.bisect_brackets.calls": "count",
    "numerics.bisect_brackets.self_s": "s",
    "circle.lift_eval.calls": "count",
    "circle.lift_eval.points": "count",
    "classify.blow_up.calls": "count",
    "classify.blow_up.self_s": "s",
    "classify.blow_up.samples": "count",
    "classify.classification_data.calls": "count",
    "classify.classification_data.self_s": "s",
    "classify.records": "count",
    "classify.interval_signature.calls": "count",
    "classify.compare_classification.calls": "count",
    "classify.compare_classification.self_s": "s",
    "classify.seam_split_records": "count",
    "classify.unresolved": "count",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "cli.artifact_bytes": "B",
    "cli.artifact_changed": "count",
    "configs.map_build.calls": "count",
    "configs.map_build.self_s": "s",
    "semiconj1d.solve_semiconjugacy.calls": "count",
    "semiconj1d.solve_semiconjugacy.self_s": "s",
    "semiconj1d.solve_semiconjugacy.iterations": "count",
    "semiconj1d.solve_semiconjugacy.ops_computed": "ops",
    "semiconj1d.solve_semiconjugacy.bytes_computed": "B",
    "semiconj1d.residual_reported": "turns",
    "semiconj2d.solve_band_semiconjugacy.calls": "count",
    "semiconj2d.solve_band_semiconjugacy.self_s": "s",
    "semiconj2d.solve_band_semiconjugacy.iterations": "count",
    "semiconj2d.solve_band_semiconjugacy.ops_computed": "ops",
    "semiconj2d.solve_band_semiconjugacy.bytes_computed": "B",
    "stability.verify_perturbation.calls": "count",
    "stability.verify_perturbation.self_s": "s",
    "stability.verify_perturbation.points": "count",
    "trace.overhead_s": "s",
}
GATHERS = (("1D gather", "semiconj1d.solve_semiconjugacy"),
           ("bilinear gather", "semiconj2d.solve_band_semiconjugacy"),
           ("coding gather", "connectors.coding"))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest of TAIL_PERCENTILES with at least MIN_BEYOND samples above it.

    Returns (percentile, value) or None when there are too few samples.
    """
    n = len(samples)
    ok = [p for p in TAIL_PERCENTILES if round(n * (100 - p) / 100, 6) >= MIN_BEYOND]
    if not ok:
        return None
    p = ok[-1]
    ordered = sorted(samples)
    return p, ordered[min(n - 1, int(round(p / 100.0 * n)) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------

def run_pass(jobs, tracer=None) -> tuple[float, float, list]:
    """Run every job once, in order.

    Returns the jobs' summed wall time, the same at nominal host speed
    (hostspeed.py; the reference loop runs around every job, untimed), and
    the outputs.
    """
    outs, wall, scaled = [], 0.0, 0.0
    for job in jobs:
        before = hostspeed.loop_s()
        start = time.perf_counter()
        try:
            if tracer is None:
                outs.append(job.run())
            else:
                with tracer.span("job"):
                    outs.append(job.run())
        except (Exception, SystemExit) as e:        # a failed job, counted below
            outs.append(e)
        took = time.perf_counter() - start
        wall += took
        scaled += hostspeed.scale(took, before, hostspeed.loop_s())
    return wall, scaled, outs


def check_pass(jobs, outs) -> list:
    """Oracle verdicts; a job that raised, or whose output the oracle cannot read, failed."""
    checks = []
    for job, out in zip(jobs, outs):
        if isinstance(out, BaseException):
            checks.append(Check(False, f"raised {type(out).__name__}: {out}"))
            continue
        try:
            checks.append(job.check(out))
        except Exception as e:
            checks.append(Check(False, f"oracle could not read the output: {e!r}"))
    return checks


def artifact_bytes(outs) -> int:
    return sum(len(o.text.encode()) for o in outs if isinstance(o, CliOutput))


def digests(jobs, outs) -> dict[str, str]:
    return {job.name: hashlib.sha256(out.text.encode()).hexdigest()
            for job, out in zip(jobs, outs) if job.cli and isinstance(out, CliOutput)}


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, nominal-speed) set-up seconds of SETUP_PROBES fresh processes, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               "--workload", workload, "--seed", str(seed)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        wall, scaled = done.stdout.split()
        times.append((float(wall), float(scaled)))
    return times


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed jobs, worst errors and the first pass's verdicts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: list = []
        self.worst: dict[str, float] = {}
        self.seam_split = 0              # per pass; the jobs are the same every pass
        self.unresolved = 0

    def add(self, jobs, checks):
        self.attempted += len(checks)
        self.failed += sum(not c.ok for c in checks)
        if not self.first:
            self.first = list(zip(jobs, checks))
            self.seam_split = sum(c.seam_split for c in checks)
            self.unresolved = sum(c.unresolved for c in checks)
        for c in checks:
            for key in ("err_1d", "err_2d", "reported_1d", "reported_2d"):
                value = getattr(c, key)
                if value is not None:
                    self.worst[key] = max(self.worst.get(key, 0.0), value)


def untraced_run(jobs, seconds: float, setup: list[float]) -> tuple[Tally, dict]:
    """Passes until `seconds` have elapsed; the end-to-end metrics."""
    tally, passes, walls, peak_mib = Tally(), [], [], 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        wall, scaled, outs = run_pass(jobs)
        if not passes:      # before any oracle runs, so the checks do not count
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB
        passes.append(scaled)
        walls.append(wall)
        tally.add(jobs, check_pass(jobs, outs))
    for key in ("err_1d", "err_2d"):
        if key not in tally.worst:
            raise RuntimeError(f"no job of this workload measures {key}")
    values = {"pass_s": median(passes), "setup_s": median([s for _, s in setup]),
              "peak_rss_mb": peak_mib, "err_1d": tally.worst["err_1d"],
              "err_2d": tally.worst["err_2d"]}

    tail = tail_percentile(passes)
    print(f"pass_s       {values['pass_s']:.4f} s     median of {len(passes)} passes at nominal "
          f"host speed (min {min(passes):.4f}, max {max(passes):.4f}); wall median "
          f"{median(walls):.4f} s")
    print("             tail: " + (f"p{tail[0]:g} = {tail[1]:.4f} s" if tail else
                                   f"none reported ({len(passes)} passes; p75 needs "
                                   f"{4 * MIN_BEYOND} with {MIN_BEYOND} beyond it)"))
    print(f"setup_s      {values['setup_s']:.4f} s     median of {len(setup)} fresh processes "
          f"(import numpy and semicov, build the jobs) at nominal host speed; wall median "
          f"{median([w for w, _ in setup]):.4f} s")
    print(f"peak_rss_mb  {peak_mib:.1f} MiB   this process after its first pass, before any check")
    print(f"fail_frac    {tally.failed / tally.attempted:.4f}       "
          f"{tally.failed} failed / {tally.attempted} attempted")
    _print_accuracy(tally)
    return tally, values


def _print_accuracy(tally: Tally):
    print(f"counted, not failed: {tally.seam_split} classify plateau records split at angle 0 "
          f"(a known defect) and {tally.unresolved} classify signatures or compare verdicts "
          "left unresolved at the grid's floor, per pass")
    w = tally.worst
    rep1 = f"{w['reported_1d']:.2e}" if "reported_1d" in w else "n/a (no 1D solver call)"
    rep2 = f"{w['reported_2d']:.2e}" if "reported_2d" in w else "n/a"
    print(f"err_1d       {w.get('err_1d', float('nan')):.3e} turns  measured off the grid; "
          f"semiconj1d.residual_reported {rep1}")
    print(f"err_2d       {w.get('err_2d', float('nan')):.3e} turns  measured off the grid; "
          f"largest reported 2D field residual {rep2}")


def traced_run(jobs, workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Alternate untraced and traced passes; per-layer medians and the tracing overhead."""
    changed, artifacts = _artifact_changes(workload)
    tracer = Tracer()
    tally, plain, traced, layer_runs, spans = Tally(), [], [], [], []
    start = time.perf_counter()
    while not traced or not plain or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            _, scaled, outs = run_pass(jobs)
            plain.append(scaled)
        else:
            tracer.reset()
            tracer.install()
            try:
                _, scaled, outs = run_pass(jobs, tracer)
            finally:
                tracer.remove()
            traced.append(scaled)
            layer = tracer.layer_metrics()
            layer["cli.artifact_bytes"] = artifact_bytes(outs)
            layer_runs.append(layer)
            spans.append([[s.id, s.parent, s.name, s.start, s.end] for s in tracer.spans])
        tally.add(jobs, check_pass(jobs, outs))

    keys = sorted({k for run in layer_runs for k in run})
    values = {k: median([run.get(k, 0) for run in layer_runs]) for k in keys}
    records = values.get("obstruction.records", 0)
    values["obstruction.ambiguous"] = values.get("obstruction.ambiguous_records", 0) / records \
        if records else 0.0
    values["cli.artifact_changed"] = changed
    values["classify.seam_split_records"] = tally.seam_split
    values["classify.unresolved"] = tally.unresolved
    values["trace.overhead_s"] = median(traced) - median(plain)

    print(f"tracing overhead {values['trace.overhead_s']:+.4f} s per pass at nominal host speed: "
          f"traced median "
          f"{median(traced):.4f} s over {len(traced)} passes, untraced {median(plain):.4f} s "
          f"over {len(plain)}")
    print(f"fail_frac {tally.failed / tally.attempted:.4f} ({tally.failed} failed / "
          f"{tally.attempted} attempted)")
    _print_accuracy(tally)
    print(f"artifacts: {changed} of {len(artifacts)} CLI artifacts of seed "
          f"{workloads.BASELINE_SEED} differ from the baseline digests (informational)")
    _print_gathers(values)
    print("per-layer metrics (median over traced passes):")
    for k in keys + ["obstruction.ambiguous", "cli.artifact_changed",
                     "classify.seam_split_records", "classify.unresolved", "trace.overhead_s"]:
        if k in values:
            print(f"  {k:52s} {values[k]:.6g}")

    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    dump.write_text(json.dumps({"workload": workload, "seed": seed,
                                "span_fields": ["id", "parent", "name", "start", "end"],
                                "passes": spans, "artifacts": artifacts}) + "\n")
    print(f"spans written to {dump.relative_to(ROOT)}")
    return tally, values


def _artifact_changes(workload: str) -> tuple[int, dict[str, str]]:
    """Run the baseline seed's CLI jobs once; count digests that differ from the stored ones."""
    jobs = [j for j in workloads.build_jobs(workload, workloads.BASELINE_SEED) if j.cli]
    _, _, outs = run_pass(jobs)
    found = digests(jobs, outs)
    stored = {}
    if BASELINE.is_file():
        stored = json.loads(BASELINE.read_text()).get("artifacts", {}).get(workload, {})
    return sum(stored.get(name) != digest for name, digest in found.items()), found


def _print_gathers(values):
    l3 = _machine().get("l3_cache_mib")
    l3_text = f"{l3} MiB L3 (recorded with the baseline)" if l3 else "the L3 (not recorded)"
    for label, layer in GATHERS:
        ops = values.get(f"{layer}.ops_computed", 0)
        if not ops:
            print(f"{label}: not run on this workload")
            continue
        largest = values.get(f"{layer}.largest_array_bytes", 0) / 2 ** 20
        print(f"{label}: {ops:.3g} ops, {values[f'{layer}.bytes_computed']:.3g} B per pass "
              f"(computed, ignores caches); largest array {largest:.2f} MiB beside {l3_text}")


def _machine() -> dict:
    if not BASELINE.is_file():
        return {}
    return json.loads(BASELINE.read_text()).get("machine", {})


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "semicov" / "__init__.py").is_file():
        print(f"error: no semicov sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    import semicov.cli  # noqa: F401  (every semicov module, as the set-up probe imports)
    if not Path(semicov.__file__).resolve().is_relative_to(SRC):
        print(f"error: semicov imported from {semicov.__file__}, not {SRC}", file=sys.stderr)
        return 2
    jobs = workloads.build_jobs(args.workload, args.seed)
    print(f"semicov benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, tracing {'on' if args.trace else 'off'}; closed loop, one "
          f"client, {len(jobs)} jobs per pass")

    if args.trace:
        tally, values = traced_run(jobs, args.workload, args.seed, args.seconds)
        wanted = PER_LAYER
    else:
        tally, values = untraced_run(jobs, args.seconds, setup)
        wanted = END_TO_END
    for job, check in tally.first:
        errs = "".join(f" {k}={getattr(check, k):.2e}" for k in ("err_1d", "err_2d")
                       if getattr(check, k) is not None)
        print(f"  {'ok  ' if check.ok else 'FAIL'} {job.name}: {check.detail}{errs}")

    metrics = {name: {"value": float(values.get(name, 0)), "unit": unit}
               for name, unit in wanted.items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
