import itertools
import json
import time

import numpy as np
import pytest

from semicov import cli, configs, numerics, schema, semiconj1d, semiconj2d
from semicov.cli import main, parse_config, run
from semicov.errors import ParseError, ValidationError

LINEAR2 = {"family": "linear", "degree": 2}
BLOWUP_NS = {"family": "blowup", "degree": 2,
             "insertions": [{"base_angle": 0, "length": 0.1, "kind": "north_south"}]}
BLOWUP_ID = {"family": "blowup", "degree": 2,
             "insertions": [{"base_angle": 0, "length": 0.1, "kind": "identity"}]}


def test_parse_config_defaults():
    cfg = parse_config({"command": "semiconj1d", "map": LINEAR2})
    assert cfg.params["tol"] == 1e-8
    assert cfg.params["orientation"] == 1


def test_parse_config_rejects_bad_tol():
    with pytest.raises(ValidationError):
        parse_config({"command": "semiconj1d", "map": LINEAR2, "tol": -1})


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValidationError) as err:
        parse_config({"command": "semiconj1d", "map": LINEAR2, "girth": 3})
    assert "girth" in str(err.value)


def test_parse_config_rejects_unknown_command():
    with pytest.raises(ValidationError):
        parse_config({"command": "conjugate-everything"})


def test_unknown_family_lists_known(tmp_path):
    code = main(["semiconj1d", "--map", '{"family": "cubic", "degree": 2}'])
    assert code == 3


def test_bad_json_is_parse_error():
    with pytest.raises(ParseError):
        parse_config("{not json")


def test_semiconj1d_artifact(tmp_path):
    out = tmp_path / "h.csv"
    code = main(["semiconj1d", "--map", json.dumps(LINEAR2), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#") and "config_sha256=" in lines[0]
    assert lines[1] == "x,H"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_map_config_from_a_file_matches_inline(tmp_path):
    path, a, b = tmp_path / "map.json", tmp_path / "a.csv", tmp_path / "b.csv"
    path.write_text(json.dumps(LINEAR2))
    assert main(["semiconj1d", "--map", str(path), "--out", str(a)]) == 0
    assert main(["semiconj1d", "--map", json.dumps(LINEAR2), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_semiconj1d_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["semiconj1d", "--map", json.dumps(LINEAR2), "--out", str(a)])
    main(["semiconj1d", "--map", json.dumps(LINEAR2), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_classify_artifact(tmp_path):
    out = tmp_path / "d.json"
    code = main(["classify", "--map", json.dumps(BLOWUP_NS), "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["degree"] == 2
    periodic = [r for r in data["records"] if r["kind"] == "periodic"]
    assert periodic and periodic[0]["image_angle"] == pytest.approx(0.0, abs=1e-9)


def test_classify_at_the_largest_max_period_matches_16(tmp_path):
    # the snap denominators stop at the first |d^n - 1| above their bound, so the
    # schema's largest max_period runs as fast as 16 and finds the same records
    records = []
    for max_period in ("16", str(schema.MAX_SIZE)):
        out = tmp_path / f"{max_period}.json"
        assert main(["classify", "--map", json.dumps(BLOWUP_NS), "--max-period", max_period,
                     "--out", str(out)]) == 0
        records.append(json.loads(out.read_text())["records"])
    assert records[0] and records[0] == records[1]


def test_compare_exit_codes(tmp_path):
    same = main(["compare", "--a", json.dumps(BLOWUP_NS), "--b", json.dumps(BLOWUP_NS),
                 "--out", str(tmp_path / "v0.json")])
    assert same == 0
    distinct = main(["compare", "--a", json.dumps(BLOWUP_NS), "--b", json.dumps(BLOWUP_ID),
                     "--out", str(tmp_path / "v1.json")])
    assert distinct == 1
    wander = dict(BLOWUP_NS)
    wander["insertions"] = BLOWUP_NS["insertions"] + [
        {"base_angle": 0.3819660112, "length": 0.0015, "kind": "identity"}]
    inconclusive = main(["compare", "--a", json.dumps(wander), "--b", json.dumps(BLOWUP_NS),
                         "--out", str(tmp_path / "v2.json")])
    assert inconclusive == 2


def test_semiconj2d_artifact(tmp_path):
    out = tmp_path / "h2.csv"
    cfg = {"base": {"family": "identity"},
           "fiber": {"family": "linear", "degree": 2,
                     "tau": {"family": "linear", "scale": 0.1}}}
    code = main(["semiconj2d", "--map", json.dumps(cfg), "--band", "0.2,0.8",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "x,y,H"
    x, y, h = map(float, lines[2].split(","))
    assert h == pytest.approx(y + 0.1 * x, abs=1e-6)


@pytest.mark.parametrize("nx, ny", [(129, 256), (100, 255)])      # short labels, then rounded ones
def test_semiconj2d_rows_match_three_float_formatting(tmp_path, nx, ny):
    cfg = {"base": {"family": "identity"},
           "fiber": {"family": "circle_map", "map": {"family": "sine", "degree": -3,
                                                     "amplitude": 0.08},
                     "tau": {"family": "linear", "scale": 0.05}}}
    out = tmp_path / "h2.csv"
    assert main(["semiconj2d", "--map", json.dumps(cfg), "--band", "0.2,0.8",
                 "--nx", str(nx), "--ny", str(ny), "--out", str(out)]) == 0
    h = semiconj2d.solve_band_semiconjugacy(configs.annulus_map_from_config(cfg), (0.2, 0.8),
                                            1e-8, nx=nx, ny=ny)
    ys = np.linspace(0.0, 1.0, h.ny + 1)
    rows = ["%.12g,%.12g,%.12g" % (x, y, h.values[i, j])
            for i, x in enumerate(h.x_samples.tolist()) for j, y in enumerate(ys.tolist())]
    assert len(rows) == nx * (ny + 1)
    assert out.read_text().split("\n")[2:] == rows + [""]


def _per_row_band_csv(h, meta):
    """The band artifact as _csv formats it from one (x, y, H) tuple per row, kept as the
    reference for the per-x-row template."""
    xs = ["%.12g" % x for x in h.x_samples.tolist()]
    ys = ["%.12g" % y for y in np.linspace(0.0, 1.0, h.ny + 1).tolist()]
    rows = zip([x for x in xs for _ in ys], ys * len(xs), h.values.ravel().tolist())
    return cli._csv(["x", "y", "H"], rows, meta)


# x labels 0.2..0.8, then in exponent form; y labels in exponent form from 1/2^14 on
@pytest.mark.parametrize("band, nx, ny", [((0.2, 0.8), 129, 256), ((1e-7, 3e-7), 5, 3),
                                          ((0.25, 0.75), 3, 2 ** 14)])
def test_band_artifact_text_matches_per_row_formatting(monkeypatch, band, nx, ny):
    rng = np.random.default_rng(nx * ny)
    values = rng.uniform(-2.0, 2.0, (nx, ny + 1))
    flat = values.ravel()
    specials = [-1.5, 1e-300, -1e-300, 1e17, -1e17, 123456789012345.6, -0.0, 0.0]
    flat[rng.choice(flat.size, len(specials), replace=False)] = specials
    field = semiconj2d.BandField2D(band, values, 2, residual=3.25e-9, iterations=7)
    monkeypatch.setattr(semiconj2d, "solve_band_semiconjugacy", lambda *args, **kw: field)
    cfg = parse_config({"command": "semiconj2d", "map": {"base": {"family": "identity"},
                                                         "fiber": LINEAR2}})
    meta = {"config_sha256": cfg.digest(), "nx": 129}
    text, code = cli._semiconj2d(cfg, meta)
    assert code == 0 and meta["residual"] == "3.250e-09"
    assert _first_difference(text, _per_row_band_csv(field, meta)) is None
    assert text.count("\n") == 2 + nx * (ny + 1)


def _per_row_1d_csv(h, meta):
    """The 1D artifact as _csv formats it from one (x, H) tuple per row, kept as the
    reference for the row template."""
    xs = np.linspace(0.0, 1.0, h.grid + 1)
    return cli._csv(["x", "H"], zip(xs.tolist(), h.samples.tolist()), meta)


def _first_difference(a: str, b: str):
    """None if a == b, else the first differing pair of lines: pytest's own diff of two
    texts of 2^20 lines takes minutes."""
    lines = itertools.zip_longest(a.split("\n"), b.split("\n"))
    return None if a == b else next((k, u, v) for k, (u, v) in enumerate(lines) if u != v)


# grids up to 2^16 - 1 are one block and keep their template; 2^20's x labels print in
# exponent form
@pytest.mark.parametrize("grid", [16, 4096, 2 ** 16 - 1, 2 ** 16, 2 ** 20])
@pytest.mark.parametrize("orientation", [1, -1])
def test_semiconj1d_artifact_text_matches_per_row_formatting(monkeypatch, grid, orientation):
    rng = np.random.default_rng(grid)
    samples = orientation * np.linspace(0.0, 1.0, grid + 1) + rng.uniform(-0.1, 0.1, grid + 1)
    specials = [-0.0, 1e17, -1e17, 1e-300, -1.5, 123456789012345.6]
    samples[rng.choice(grid + 1, len(specials), replace=False)] = specials
    field = semiconj1d.SemiconjugacyField1D(samples, orientation, 2, residual=3.25e-9,
                                            iterations=7)
    monkeypatch.setattr(semiconj1d, "solve_semiconjugacy", lambda *args, **kw: field)
    cfg = parse_config({"command": "semiconj1d", "map": LINEAR2, "orientation": orientation})
    meta = {"config_sha256": cfg.digest(), "orientation": orientation, "tol": 1e-8}
    cli._rows_1d.cache_clear()
    first, code = cli._semiconj1d(cfg, meta)
    assert code == 0 and meta["residual"] == "3.250e-09"
    assert cli._rows_1d.cache_info().currsize == (grid + 1 <= numerics.BLOCK)
    again, _ = cli._semiconj1d(cfg, meta)
    assert _first_difference(first, _per_row_1d_csv(field, meta)) is None
    assert _first_difference(again, first) is None
    assert first.count("\n") == 2 + grid + 1


def test_interleaved_1d_grids_write_the_bytes_of_fresh_runs(tmp_path):
    def artifact(grid, orientation, name):
        out = tmp_path / name
        assert main(["semiconj1d", "--orientation", orientation, "--out", str(out), "--map",
                     json.dumps({"family": "sine", "degree": 2, "grid": grid})]) == 0
        return out.read_bytes().decode()          # exact bytes, no newline translation

    runs = [(64, "+"), (2 ** 17, "-"), (64, "-"), (16, "+"), (2 ** 17, "+"), (64, "+")]
    cli._rows_1d.cache_clear()
    interleaved = []
    for k, (grid, orientation) in enumerate(runs):
        before = cli._rows_1d.cache_info()
        interleaved.append(artifact(grid, orientation, f"{k}.csv"))
        if grid + 1 > numerics.BLOCK:                 # above one block: built per call
            assert cli._rows_1d.cache_info() == before
    assert cli._rows_1d.cache_info().hits == 2        # the repeated 64 grids
    fresh = []
    for k, (grid, orientation) in enumerate(runs):
        cli._rows_1d.cache_clear()
        fresh.append(artifact(grid, orientation, f"fresh{k}.csv"))
    assert [_first_difference(a, b) for a, b in zip(interleaved, fresh)] == [None] * len(runs)


@pytest.mark.parametrize("command, map_cfg", [
    ("semiconj1d", {"family": "sine", "degree": 2, "grid": 64}),
    ("rotation", {"family": "sine", "degree": 2, "grid": 64}),
    ("semiconj2d", {"base": {"family": "identity"}, "fiber": {"family": "linear", "degree": 2}}),
])
def test_a_tol_above_every_step_exits_0(command, map_cfg, tmp_path):
    # the budget formula 2*ceil(log(tol)/log(1/|d|)) + 60 is negative here; one step converges
    out = tmp_path / "h.csv"
    assert main([command, "--map", json.dumps(map_cfg), "--tol", "1e300",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0].endswith("tol=1e+300")


def test_repellers_artifact(tmp_path):
    out = tmp_path / "curves.csv"
    cfg = {"base": {"family": "contraction", "center": 0.5, "rate": 0.9},
           "fiber": {"family": "linear", "degree": 2}}
    code = main(["repellers", "--map", json.dumps(cfg),
                 "--connector", '{"kind": "const", "height": 0.25}',
                 "--depth", "8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "curve_id,x,y"
    ids = {row.split(",")[0] for row in lines[2:]}
    assert ids == {"0"}


def test_star_scan_artifact(tmp_path):
    out = tmp_path / "scan.json"
    cfg = {"base": {"family": "affine_to_one"},
           "fiber": {"family": "linear", "degree": 2,
                     "tau": {"family": "inv_one_minus", "scale": 1.0}}}
    code = main(["star-scan", "--map", json.dumps(cfg),
                 "--connector", '{"kind": "invariant_arc", "p": [0.5, 0.0], '
                 '"n_back": 9, "n_fwd": 16, "margin": 1e-5, "value": 0.0}',
                 "--band", "0.1,0.9", "--nmax", "4", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["satisfied"] is True
    assert rep["max_winding"] <= rep["implied_bound"]


def test_star_scan_without_a_connector_reports_no_bound(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["star-scan", "--map", BAND_MAP, "--nmax", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["max_winding"] >= 1
    assert rep["satisfied"] is None
    assert rep["deviation_bound"] is None and rep["implied_bound"] is None


def test_star_scan_codes_to_depth_40_when_blocks_leave_the_margins(tmp_path):
    # affine_to_one pushes every block out of the margins by level 17, so no
    # level nears the coding's size limit
    out = tmp_path / "scan.json"
    code = main(["star-scan", "--map", json.dumps(STAR_MAP),
                 "--connector", '{"kind": "invariant_arc", "p": [0.5, 0.0], '
                 '"n_back": 9, "n_fwd": 16, "margin": 1e-5, "value": 0.0}',
                 "--band", "0.1,0.9", "--nmax", "3", "--depth", "40", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["satisfied"] is True


def test_counterexample_table_cli(tmp_path):
    out = tmp_path / "table.json"
    assert main(["counterexample-table", "--nmax", "6", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["lower_bound"] for r in rows] == [1, 2, 3, 4, 5]


def test_perturb_cli(tmp_path):
    out = tmp_path / "report.json"
    code = main(["perturb", "--epsilon", '{"family": "const", "value": 0.1}',
                 "--grid", "20000", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["ratio_ok"] and rep["invariance_fraction"] == 1.0


def test_perturb_cli_exits_1_when_its_certificate_fails(tmp_path):
    # power 25: eps is positive and finite, but the sampled maximum of |g - p2| / eps sits
    # at x = 1 - 1e-9, where |g - p2| reads double-precision rounding (about 1e-15)
    # against eps about 1e-211 (ROADMAP item 1)
    out = tmp_path / "report.json"
    code = main(["perturb", "--epsilon", '{"family": "edge_poly", "value": 0.1, "power": 25}',
                 "--grid", "20000", "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert not rep["ratio_ok"] and rep["sup_ratio"] > 1.0


@pytest.mark.parametrize("out", [2, []])
def test_parse_config_rejects_a_non_string_out(out):
    # an integer out would open and close that file descriptor
    with pytest.raises(ValidationError):
        parse_config({"command": "counterexample-table", "nmax": 3, "out": out})


def test_run_config_roundtrip(tmp_path):
    cfg = parse_config({"command": "counterexample-table", "nmax": 3,
                        "out": str(tmp_path / "t.json")})
    assert run(cfg) == 0
    assert (tmp_path / "t.json").exists()


BAND_MAP = '{"base": {"family": "identity"}, "fiber": {"family": "linear", "degree": 2}}'
STAR_MAP = {"base": {"family": "affine_to_one"},
            "fiber": {"family": "linear", "degree": 2,
                      "tau": {"family": "inv_one_minus", "scale": 1.0}}}


@pytest.mark.parametrize("argv", [
    ["semiconj1d", "--map", '{"family": "samples", "values": [0, 1, 2]}'],
    ["semiconj1d", "--map", '{"family": "sine", "degree": 2, "grid": 8}'],
    ["semiconj1d", "--map", '{"family": "samples", "values": [0, [1, 2]]}'],
    ["semiconj1d", "--map", '{"family": "sine", "degree": 2, "amplitude": NaN}'],
    ["semiconj2d", "--map", BAND_MAP, "--band", "0.2,0.5,0.8"],
    ["semiconj2d", "--map", BAND_MAP, "--band", "0.2"],
    ["counterexample-table", "--nmax", "1"],
    ["semiconj1d", "--map", '{"family": "sine", "degree": "2"}'],
    ["semiconj2d", "--map", '{"base": {"family": "identity"}, "fiber": {"family": "linear", '
     '"degree": 2, "tau": {"family": "const", "scale": NaN}}}', "--band", "0.2,0.8"],
    ["compare", "--a", json.dumps(BLOWUP_NS)],
    ["conjugate-everything"],
    [],
    ["rotation", "--map", json.dumps(LINEAR2), "--points", "abc"],
    ["semiconj1d", "--map", json.dumps(LINEAR2), "--orientation", "x"],
    ["semiconj1d", "--map", json.dumps(LINEAR2), "--tol", "inf"],
    ["semiconj1d", "--map", json.dumps(LINEAR2), "--tol", "nan"],
    ["semiconj1d", "--map", json.dumps(LINEAR2), "--girth", "3"],
    ["perturb", "--epsilon", '{"family": "const"}', "--grid", "2.5"],
    ["semiconj2d", "--map", '{"base": {"family": "identity"}, '
     '"fiber": {"family": "linear", "degree": 2.7}}'],
    ["semiconj2d", "--map", '{"base": {"family": "identity"}, '
     '"fiber": {"family": "linear", "degree": "3"}}'],
    ["semiconj1d", "--map", '{"family": "linear", "degree": 2, "grid": 64.5}'],
    ["classify", "--map", json.dumps({**BLOWUP_NS, "degree": 2.5})],
    ["classify", "--map", json.dumps({**BLOWUP_NS, "depth": 4.5})],
    ["repellers", "--map", BAND_MAP, "--connector",
     '{"kind": "const", "height": 0.25, "samples": 100.5}'],
    ["repellers", "--map", BAND_MAP, "--connector",
     '{"kind": "invariant_arc", "p": [0.5, 0.0], "n_back": 2.5}'],
    ["classify", "--map", json.dumps({**BLOWUP_NS, "insertions": [{"length": 0.1}]})],
    ["classify", "--map", json.dumps({**BLOWUP_NS, "insertions": "x"})],
    ["classify", "--map", json.dumps({**BLOWUP_NS, "insertions": [
        {"base_angle": "1/0", "length": 0.1}]})],
    ["classify", "--map", '{"family": "blowup", "degree": 2, "insertions": '
     '[{"base_angle": Infinity, "length": 0.1}]}'],
    ["classify", "--map", json.dumps({**BLOWUP_NS, "insertions": [
        {"base_angle": 0, "length": "0.1"}]})],
    ["classify", "--map", json.dumps({**BLOWUP_NS, "insertions": [
        {"base_angle": "a/b", "length": 0.1}]})],
    ["classify", "--map", json.dumps({**BLOWUP_NS, "insertions": [0]})],
    ["rotation", "--map", json.dumps(LINEAR2), "--points", "100000000000000000000"],
    ["semiconj1d", "--map", '{"family": "linear", "degree": 2, "grid": 16777217}'],
    ["classify", "--map", json.dumps({**BLOWUP_NS, "depth": 10 ** 20})],
    ["repellers", "--map", BAND_MAP, "--connector",
     '{"kind": "const", "height": 0.25, "samples": 100000000000000000000}'],
    ["semiconj2d", "--map", '{"base": "x", "fiber": {"family": "linear", "degree": 2}}'],
    ["semiconj2d", "--map", '{"base": {"family": "identity"}, "fiber": "x"}'],
    ["semiconj2d", "--map", '{"base": {"family": "identity"}, '
     '"fiber": {"family": "linear", "degree": 2, "tau": "x"}}'],
    ["semiconj2d", "--map", '{"base": {"family": "identity"}, '
     '"fiber": {"family": "circle_map", "map": "x"}}'],
    ["semiconj2d", "--map", '{"base": {"family": "samples", "values": [0.1, NaN, 0.5]}, '
     '"fiber": {"family": "linear", "degree": 2}}'],
    ["semiconj2d", "--map", '{"base": {"family": "samples", "values": "abc"}, '
     '"fiber": {"family": "linear", "degree": 2}}'],
    ["star-scan", "--map", BAND_MAP, "--connector", '{"kind": "invariant_arc", "p": [0.5]}'],
    ["star-scan", "--map", BAND_MAP, "--connector", '{"kind": "invariant_arc", "p": "x"}'],
    ["star-scan", "--map", BAND_MAP, "--connector", '{"kind": "const", "height": NaN}'],
    ["repellers", "--map", BAND_MAP, "--connector",
     '{"kind": "const", "height": 0.25, "margin": 0.5}'],
    ["repellers", "--map", BAND_MAP, "--connector",
     '{"kind": "const", "height": 0.25, "margin": 0.6}'],
    ["repellers", "--map", BAND_MAP, "--connector",
     '{"kind": "const", "height": 0.25, "samples": 1}'],
    ["star-scan", "--map", json.dumps(STAR_MAP), "--connector",
     '{"kind": "invariant_arc", "p": [0.5, 0.0], "margin": -1}'],
    ["star-scan", "--map", json.dumps(STAR_MAP), "--connector",
     '{"kind": "invariant_arc", "p": [0.5, 0.0], "margin": 0.5}'],
    ["star-scan", "--map", json.dumps(STAR_MAP), "--connector",
     '{"kind": "invariant_arc", "p": [0.5, 0.0], "n_back": -3}'],
    ["star-scan", "--map", json.dumps(STAR_MAP), "--connector",
     '{"kind": "invariant_arc", "p": [0.5, 0.0], "n_fwd": -1}'],
    ["semiconj2d", "--map", '{"base": {"family": "identity"}, "fiber": {"family": "linear", '
     '"degree": 2, "tau": {"family": "linear", "scale": 0.1}}}', "--nx", "1"],
    # eps profiles that underflow to 0 or overflow to inf at a sampled radius
    *[(["perturb", "--epsilon", json.dumps({"family": "edge_poly", "value": 0.1, "power": p})],
       "BadParams") for p in (1000, 40, -60)],
    # a circle-map fiber whose samples step backward once: not a covering
    (["semiconj2d", "--map", json.dumps(
        {"base": {"family": "contraction"},
         "fiber": {"family": "circle_map", "map": {"family": "samples", "values": [
             2 * (i - 2 * (i == 42)) / 128 for i in range(129)]}}}), "--band", "0.2,0.8"],
     "FiberNotMonotone"),
    # the same samples as a circle map: classify needs a covering
    (["classify", "--map", json.dumps({"family": "samples", "values": [
        2 * (i - 2 * (i == 42)) / 128 for i in range(129)]})], "NotACovering"),
    # each size within the limit, the band grid's nx * (ny + 1) nodes far beyond it
    ["semiconj2d", "--map", BAND_MAP, "--band", "0.2,0.8", "--nx", "16777216", "--ny", "16777216"],
    # an artifact path that cannot be opened
    (["counterexample-table", "--nmax", "3", "--out", "/nonexistent/x.json"], "FileNotFoundError"),
    (["counterexample-table", "--nmax", "3", "--out", ""], "FileNotFoundError"),
    # a table length beyond the size limit, which used to exit 1 with a ValueError traceback
    ["counterexample-table", "--nmax", "16777217"],
    # table lengths within the size limit whose last model no longer verifies (n + 2^-n == n)
    ["counterexample-table", "--nmax", "48"],
    ["counterexample-table", "--nmax", "16777216"],
    # 2^40 starts per loop, which used to exit 1 with a MemoryError traceback
    ["star-scan", "--map", BAND_MAP, "--nmax", "40"],
    # a coding level of 2^18 curves x 2 branches x 154 nodes, which used to exit 1
    # with a MemoryError traceback
    ["star-scan", "--map", '{"base": {"family": "contraction"}, '
     '"fiber": {"family": "linear", "degree": 2}}',
     "--connector", '{"kind": "const", "height": 0.25}', "--nmax", "2", "--depth", "40"],
    # amplitudes whose sine term shifts F(1) - F(0) away from the declared degree, which
    # used to exit 0 with residuals of 4.5e15 and 1e292
    ["semiconj1d", "--map", '{"family": "sine", "degree": 2, "amplitude": 4e31, "grid": 16}'],
    ["semiconj1d", "--map", '{"family": "sine", "degree": 2, "amplitude": 1e308, "grid": 16}'],
    ["rotation", "--map", '{"family": "sine", "degree": 2, "amplitude": 1e308, "grid": 16}'],
    # eps so large that the bump's window 2*rho passes the seam at pi, which used to exit 3
    # naming a fiber jump, after a RuntimeWarning at 1e308
    *[(["perturb", "--epsilon", json.dumps({"family": "const", "value": v})],
       f"BadParams: eps EpsilonSpec(kind='const', value={v!r}, power=1.0) too large")
      for v in (1e308, 3.21)],
    # arc piece counts past 2^24 samples at 200 a piece: 10^5 forward pieces on a contraction
    # base, none reaching the margin, used to run for 5 s, and 10^9 would need about 3 TB
    *[["star-scan", "--map", '{"base": {"family": "contraction"}, '
       '"fiber": {"family": "linear", "degree": 2}}', "--connector",
       json.dumps({"kind": "invariant_arc", "p": [0.2, 0.0], key: n})]
      for key, n in (("n_fwd", 10 ** 5), ("n_fwd", 10 ** 9), ("n_back", 10 ** 9))],
])
def test_malformed_input_exits_3_with_one_line(argv, capsys):
    argv, error = argv if isinstance(argv, tuple) else (argv, "ValidationError")
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and err.count("\n") == 1


def test_arc_pieces_stop_piling_up_on_an_attracting_base_point(capsys):
    # the contraction's fixed point 0.5 attracts the forward pieces: they end once they
    # shrink below the dedupe spacing, a few hundred pieces in, whatever n_fwd asks for
    from semicov.connectors import invariant_connector_from_arc
    m_cfg = {"base": {"family": "contraction"}, "fiber": {"family": "linear", "degree": 2}}
    m = configs.annulus_map_from_config(m_cfg)
    most = invariant_connector_from_arc(m, (0.2, 0.0), n_fwd=83885)
    some = invariant_connector_from_arc(m, (0.2, 0.0), n_fwd=1000)
    assert np.array_equal(most.xs, some.xs) and np.array_equal(most.heights, some.heights)
    argv = ["star-scan", "--map", json.dumps(m_cfg), "--connector",
            json.dumps({"kind": "invariant_arc", "p": [0.2, 0.0], "n_fwd": 83885})]
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == ("error: OutOfDomain: no coding curves over x = 0.5; "
                                       "lower the depth or shrink the band\n")


def test_a_non_finite_fiber_value_in_a_worker_block_exits_3(monkeypatch, capsys):
    # the rows x > 0.75 fall in the last of three blocks, whose plan a worker thread builds
    from semicov.annulus import AnnulusMapLift
    call = AnnulusMapLift.__call__

    def blows_up(self, x, y):
        fx, fy = call(self, x, y)
        return fx, np.where(np.asarray(x) > 0.75, np.inf, fy)

    monkeypatch.setattr(AnnulusMapLift, "__call__", blows_up)
    argv = ["semiconj2d", "--map", BAND_MAP, "--band", "0.2,0.8", "--nx", "300", "--ny", "511"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: OutOfDomain: evaluation points must be finite\n"


CONST_CONNECTOR = {"kind": "const", "height": 0.25}


@pytest.mark.parametrize("obj", [
    {"command": "repellers", "map": LINEAR2, "connector": CONST_CONNECTOR, "depth": 2.5},
    {"command": "repellers", "map": LINEAR2, "connector": CONST_CONNECTOR, "depth": "8"},
    {"command": "repellers", "map": LINEAR2, "connector": CONST_CONNECTOR, "depth": 0},
    {"command": "semiconj1d", "map": LINEAR2, "tol": True},
    {"command": "semiconj1d", "map": LINEAR2, "tol": float("inf")},
    {"command": "semiconj1d", "map": LINEAR2, "tol": float("nan")},
    {"command": "semiconj1d", "map": LINEAR2, "orientation": True},
    {"command": "semiconj1d", "map": "linear"},
    {"command": "rotation", "map": LINEAR2, "x": float("nan")},
    {"command": "rotation", "map": LINEAR2, "points": 64.5},
    {"command": "classify", "map": LINEAR2, "max_period": 1.5},
    {"command": "semiconj2d", "map": LINEAR2, "nx": True},
    {"command": "perturb", "epsilon": {"family": "const"}, "grid": -4},
    {"command": ["semiconj1d"], "map": LINEAR2},
    {"command": "rotation", "map": LINEAR2, "points": 10 ** 20},
    {"command": "semiconj2d", "map": LINEAR2, "ny": 2 ** 24 + 1},
    {"command": "classify", "map": LINEAR2, "max_period": 2 ** 24 + 1},
])
def test_parse_config_rejects_bad_values(obj):
    with pytest.raises(ValidationError):
        parse_config(obj)


MAP_KEYS = {k for k, key in cli.KEYS.items() if key.check is schema.config}
RUN_KEYS = [(name, key, bad) for name, command in cli.COMMANDS.items() for key in command.schema
            for bad in ["x", True, float("nan"), *([[1], 2] if key in MAP_KEYS else []),
                        *([[0.8, 0.2]] if key == "band" else [])]]


@pytest.mark.parametrize("command,key,bad", RUN_KEYS,
                         ids=[f"{c}.{k}-{b!r}" for c, k, b in RUN_KEYS])
def test_every_run_config_key_rejects_a_wrong_type(command, key, bad):
    assert set(cli.KEYS) == {k for c in cli.COMMANDS.values() for k in c.schema}
    required = {k: LINEAR2 for k, default in cli.COMMANDS[command].schema.items()
                if default is schema.REQUIRED}
    with pytest.raises(ValidationError):
        parse_config({"command": command, **required, key: bad})


BAD_BASES = ['{"base": {"family": "power", "exponent": %s}, "fiber": {"family": "linear", "degree": 2}}'
             % exponent for exponent in ('"x"', "-1")]


def test_failed_run_keeps_an_earlier_artifact(tmp_path, capsys):
    out = tmp_path / "h2.csv"
    for bad_base in BAD_BASES:
        out.write_bytes(b"earlier\r\n\x00")
        assert main(["semiconj2d", "--map", bad_base, "--out", str(out)]) == 3
        assert out.read_bytes() == b"earlier\r\n\x00"
        assert capsys.readouterr().err.startswith("error: ")


def test_failed_run_leaves_no_file_at_a_fresh_path(tmp_path, capsys):
    out = tmp_path / "fresh.csv"
    for bad_base in BAD_BASES:
        assert main(["semiconj2d", "--map", bad_base, "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")


def test_every_schema_key_is_a_flag(tmp_path):
    band_map = json.loads(BAND_MAP)
    out = tmp_path / "h2.csv"
    argv = ["semiconj2d", "--map", BAND_MAP, "--nx", "9", "--ny", "16", "--tol", "1e-6",
            "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    cfg = parse_config({"command": "semiconj2d", "map": band_map, "nx": 9, "ny": 16,
                        "tol": 1e-6})
    assert f"config_sha256={cfg.digest()}" in lines[0] and "nx=9 ny=16" in lines[0]
    assert len(lines) == 2 + 9 * 17
    out = tmp_path / "d.json"
    assert main(["classify", "--map", json.dumps(BLOWUP_NS), "--max-period", "4",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["max_period"] == 4


def _per_value_csv(header, rows, meta):
    """_csv formatting every value with its own f-string."""
    lines = ["# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(5))
def test_csv_matches_per_value_reference(seed):
    rng = np.random.default_rng(seed)
    special = [0.0, -0.0, 1.0, 0.1, 1 / 3, 2.5e-7, -7.25, 1e16, 123456789012345.0,
               1e-300, 5e-324, np.inf, -np.inf, np.nan]
    pool = np.concatenate((special, rng.normal(size=30) * 10.0 ** rng.integers(-20, 20, 30)))
    n = int(rng.integers(1, 60))
    f1, f2 = rng.choice(pool, n), rng.choice(pool, n)
    ids = rng.integers(-3, 10 ** 6, n)
    ids[0] = 10 ** 15                            # where %.12g and str differ
    meta = {"config_sha256": "0123abcd", "tol": 1e-8, "count": n, "residual": "1.234e-09"}
    tables = {
        "repellers": (["curve_id", "x", "y"], list(zip(ids.tolist(), f1.tolist(), f2.tolist()))),
        "floats": (["x", "H"], list(zip(f1.tolist(), f2.tolist()))),
        "numpy scalars": (["x", "y", "H"], list(zip(f1, f2, f1 * 0.5))),
        "empty": (["x", "H"], []),
    }
    for header, rows in tables.values():
        assert cli._csv(header, iter(rows), meta) == _per_value_csv(header, rows, meta)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["star-scan", "--help"])
    assert exc.value.code == 0
    assert "--connector" in capsys.readouterr().out


# One valid value per required family key; a family with a new required key
# needs an entry here before the table-driven tests below can build it.
REQUIRED_VALUES = {"degree": 2, "exponent": 2.0, "values": [0.0, 0.5, 1.0, 1.5, 2.0],
                   "insertions": BLOWUP_NS["insertions"], "map": LINEAR2, "height": 0.25,
                   "p": [0.5, 0.0]}
IDENTITY_BASE, LINEAR_FIBER = {"family": "identity"}, {"family": "linear", "degree": 2}
KIND_ARGV = {                           # map kind -> command line that builds one config
    "circle": lambda c: ["semiconj1d", "--map", json.dumps(c)],
    "base": lambda c: ["semiconj2d", "--map", json.dumps({"base": c, "fiber": LINEAR_FIBER})],
    "tau": lambda c: ["semiconj2d", "--map", json.dumps(
        {"base": IDENTITY_BASE, "fiber": {**LINEAR_FIBER, "tau": c}})],
    "fiber": lambda c: ["semiconj2d", "--map", json.dumps({"base": IDENTITY_BASE, "fiber": c})],
    "connector": lambda c: ["repellers", "--map", json.dumps(STAR_MAP),
                            "--connector", json.dumps(c)],
    "epsilon": lambda c: ["perturb", "--epsilon", json.dumps(c)],
}
FAMILY_KEYS = [(kind, name, key) for kind, k in configs.KINDS.items()
               for name, family in k.families.items() for key in family.schema]


def _family_config(kind, name):
    schema = configs.KINDS[kind].families[name].schema
    return {configs.KINDS[kind].key: name,
            **{k: REQUIRED_VALUES[k] for k, (d, _) in schema.items() if d is configs.REQUIRED}}


def test_every_map_kind_has_a_command_line():
    assert set(KIND_ARGV) == set(configs.KINDS)


@pytest.mark.parametrize("bad", ["x", True, float("nan")], ids=["string", "bool", "nan"])
@pytest.mark.parametrize("kind,name,key", FAMILY_KEYS, ids=[".".join(k) for k in FAMILY_KEYS])
def test_every_family_parameter_rejects_a_wrong_type(kind, name, key, bad, capsys):
    assert main(KIND_ARGV[kind]({**_family_config(kind, name), key: bad})) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError") and err.count("\n") == 1


NULLABLE = [k for k in FAMILY_KEYS
            if configs.KINDS[k[0]].families[k[1]].schema[k[2]][0] is None]


@pytest.mark.parametrize("kind,name,key", NULLABLE, ids=[".".join(k) for k in NULLABLE])
def test_nullable_family_parameters_accept_none(kind, name, key):
    context = [configs.annulus_map_from_config(STAR_MAP)] if kind == "connector" else []
    assert configs.build(kind, {**_family_config(kind, name), key: None}, *context) is not None
