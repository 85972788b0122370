"""Tests of the benchmark's own logic: span self time, the tail rule, the
defect oracles and the tracer's wrapping.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles as orc  # noqa: E402
import run  # noqa: E402
from tracing import Layer, Span, Tracer, self_times_by_name  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [Span(0, -1, "a", 0.0, 10.0),
             Span(1, 0, "b", 1.0, 4.0),
             Span(2, 1, "d", 2.0, 3.0),
             Span(3, 0, "c", 5.0, 7.0)]
    own = self_times_by_name(spans)
    assert own == pytest.approx({"a": 5.0, "b": 2.0, "c": 2.0, "d": 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, -1, "a", 0.0, 10.0),
             Span(1, 0, "b", 2.0, 6.0),
             Span(2, 0, "b", 4.0, 8.0),           # overlaps the first child
             Span(3, 0, "c", 9.0, 12.0)]          # overhangs the parent
    assert self_times_by_name(spans)["a"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(39))) is None
    p, value = run.tail_percentile(list(range(40)))
    assert p == 75 and sum(v > value for v in range(40)) == 10
    p, value = run.tail_percentile(list(range(100)))
    assert p == 90 and sum(v > value for v in range(100)) == 10
    p, value = run.tail_percentile(list(range(1000)))
    assert p == 99 and sum(v > value for v in range(1000)) == 10


@pytest.mark.parametrize("d,c", [(2, 0.25), (3, -0.4), (-2, 0.1)])
def test_defect_bound_of_exact_affine_field_is_roundoff(d, c):
    xs = np.linspace(0.0, 1.0, 65)
    exact = orc.affine_semiconjugacy(d, c, xs)
    f = orc.sine_lift(d, 0.0, c)
    rng = np.random.default_rng(0)
    assert orc.defect_bound_1d(exact, 1, d, f, rng) < 1e-13
    bent = exact + 1e-3 * np.sin(2 * np.pi * xs)
    assert orc.defect_bound_1d(bent, 1, d, f, rng) > 1e-4


def test_defect_bound_2d_of_band_ansatz_is_roundoff():
    s, band = 0.1, (0.2, 0.8)
    xs = np.linspace(*band, 33)
    ys = np.linspace(0.0, 1.0, 65)
    values = ys[None, :] + s * xs[:, None]
    fmap = lambda x, y: (x, 2 * y + s * x)
    rng = np.random.default_rng(1)
    assert orc.defect_bound_2d(band, xs, values, 2, fmap, rng) < 1e-13
    values[16, 30] += 1e-2
    assert orc.defect_bound_2d(band, xs, values, 2, fmap, rng) > 1e-3


def test_limit_oracle_matches_affine_field():
    x = np.linspace(0.0, 1.0, 11)
    f = orc.sine_lift(3, 0.0, 0.3)
    assert np.allclose(orc.limit_semiconjugacy(f, 3, x), orc.affine_semiconjugacy(3, 0.3, x),
                       atol=1e-9)


def test_tracer_wraps_every_import_name_and_restores_them():
    import semicov
    from semicov import classify, semiconj1d
    from semicov.circle import model_lift
    original = semiconj1d.solve_semiconjugacy
    tracer = Tracer()
    tracer.install()
    try:
        assert semicov.solve_semiconjugacy is classify.solve_semiconjugacy
        assert semicov.solve_semiconjugacy is not original
        classify.classification_data(model_lift(2, 256))
        semicov.solve_semiconjugacy(model_lift(3, 256))
    finally:
        tracer.remove()
    assert semicov.solve_semiconjugacy is original
    assert classify.solve_semiconjugacy is original
    metrics = tracer.layer_metrics()
    assert metrics["semiconj1d.solve_semiconjugacy.calls"] == 2
    assert metrics["classify.classification_data.calls"] == 1
    assert metrics["semiconj1d.solve_semiconjugacy.iterations"] > 0
    by_id = {s.id: s for s in tracer.spans}
    solves = [s for s in tracer.spans if s.name == "semiconj1d.solve_semiconjugacy"]
    assert {by_id[s.parent].name if s.parent >= 0 else None for s in solves} == \
        {"classify.classification_data", None}


def test_tracer_counts_exceptions_and_reraises():
    from semicov import circle
    tracer = Tracer(layers=(Layer("circle.make_lift", ("semicov.circle:make_lift",)),))
    tracer.install()
    try:
        with pytest.raises(ValueError):
            circle.make_lift([0.0, 1.0])
    finally:
        tracer.remove()
    assert tracer.layer_metrics()["circle.make_lift.value_error"] == 1


def test_missing_target_fails_loudly_and_patches_nothing():
    from semicov import circle
    original = circle.find_periodic_points
    tracer = Tracer(layers=(
        Layer("circle.find_periodic_points", ("semicov.circle:find_periodic_points",)),
        Layer("circle.renamed", ("semicov.circle:no_such_function",))))
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.install()
    assert circle.find_periodic_points is original


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_compare_verdict_hit_by_seam_split_is_counted_not_failed():
    # circle-batch seed 762156120: the d=2 period-3 north_south blow-up at
    # 4/7 and its reflection at 3/7 each have a cycle plateau straddling 0,
    # and compare answers "distinct" where "equivalent" is right
    import workloads
    jobs = workloads.build_jobs("circle-batch", 762156120)
    job = next(j for j in jobs if j.name.endswith("compare turned blowup d=2 p=3 north_south"))
    out = job.run()
    assert json.loads(out.text)["status"] == "distinct"
    check = job.check(out)
    assert check.ok and check.seam_split > 0


def test_wrong_compare_verdict_without_seam_split_fails():
    # neither compared map of this slot has a record at angle 0
    import workloads
    jobs = workloads.build_jobs("circle-batch", 0)
    job = next(j for j in jobs if "compare turned blowup d=3 p=2" in j.name)
    wrong = workloads.CliOutput(1, json.dumps({"status": "distinct"}))
    check = job.check(wrong)
    assert not check.ok and check.seam_split == 0
