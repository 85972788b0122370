import json

import pytest

from semicov import configs
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
])
def test_malformed_input_exits_3_with_one_line(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError") and err.count("\n") == 1


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
])
def test_parse_config_rejects_bad_values(obj):
    with pytest.raises(ValidationError):
        parse_config(obj)


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
