"""Golden CLI artifacts: one small reference run per command.

Each case regenerates an artifact through the command line and compares
its SHA-256 and the exit code with the values recorded before the solver
kernels were shared.  A refactor that changes any output byte fails here.
A deliberate output change pins the new digest and records the digest it
replaces in ``SUPERSEDED``, with the reason.
"""
import hashlib
import json

import pytest

from semicov.cli import main

SINE2 = {"family": "sine", "degree": 2, "amplitude": 0.1, "offset": 0.05, "grid": 1024}
SINE_NEG2 = {"family": "sine", "degree": -2, "amplitude": 0.15, "grid": 1024}
BLOWUP_NS = {"family": "blowup", "degree": 2, "grid": 1024,
             "insertions": [{"base_angle": 0, "length": 0.1, "kind": "north_south"}]}
BLOWUP_ID = {"family": "blowup", "degree": 2, "grid": 1024,
             "insertions": [{"base_angle": 0, "length": 0.1, "kind": "identity"}]}
BAND_MAP = {"base": {"family": "contraction", "center": 0.5, "rate": 0.8},
            "fiber": {"family": "circle_map", "map": SINE2,
                      "tau": {"family": "linear", "scale": 0.1}}}
REPELLER_MAP = {"base": {"family": "contraction", "center": 0.5, "rate": 0.9},
                "fiber": {"family": "linear", "degree": 2}}
STAR_MAP = {"base": {"family": "affine_to_one"},
            "fiber": {"family": "linear", "degree": 2,
                      "tau": {"family": "inv_one_minus", "scale": 1.0}}}
STAR_ARC = {"kind": "invariant_arc", "p": [0.5, 0.0], "n_back": 9, "n_fwd": 16,
            "margin": 1e-5, "value": 0.0}

CASES = {
    "semiconj1d": (["semiconj1d", "--map", json.dumps(SINE2)], 0,
                   "cb148700bef10d5ff8bf8e68d8b8a48550c3785d5a57bc4c47e7b62d61c70a7a"),
    "semiconj1d-reversed": (
        ["semiconj1d", "--map", json.dumps(SINE_NEG2), "--orientation", "-"], 0,
        "022628a7aa129b0198401a7155735e1be43967c62220a26c1f3df453463dfc39"),
    "rotation": (["rotation", "--map", json.dumps(SINE2), "--points", "64"], 0,
                 "30655902a5c67510d9244e110daeacfc5841b399cdb202bbc5e24d32a5e89c38"),
    "classify": (["classify", "--map", json.dumps(BLOWUP_NS)], 0,
                 "a75c0cc495bbcaa09edecc2815a7a550ad575c58a641571e36aa03e116e4b413"),
    "compare": (["compare", "--a", json.dumps(BLOWUP_NS), "--b", json.dumps(BLOWUP_ID)], 1,
                "4f3a846a4adc6bfc36cff305229fd3897be3cbf573a3edd082d72a1b85a565a3"),
    "semiconj2d": (["semiconj2d", "--map", json.dumps(BAND_MAP), "--band", "0.2,0.8"], 0,
                   "a6c26aabdac8d451c13763dd50f6bfdde0d3f720a1969fcdf6a3d63cbad3aa8b"),
    "repellers": (["repellers", "--map", json.dumps(REPELLER_MAP), "--connector",
                   '{"kind": "const", "height": 0.25}', "--depth", "6"], 0,
                  "987fbfb2ce70a8e607881ff99386ea08c3512fca0410cb464983df8627780d34"),
    "star-scan": (["star-scan", "--map", json.dumps(STAR_MAP), "--connector",
                   json.dumps(STAR_ARC), "--band", "0.1,0.9", "--nmax", "3",
                   "--depth", "6"], 0,
                  "763bfb6213021644a0e32cc2bda4f252a6d3c678ea25bcb81137f10e41e6fe2c"),
    "counterexample-table": (
        ["counterexample-table", "--nmax", "6"], 0,
        "8e6a67b64b20e7e472ee79d27a40c02335bd8bd485cf06015e04a98f5c2a8f07"),
    "perturb": (["perturb", "--epsilon", '{"family": "edge_poly", "value": 0.1}',
                 "--grid", "20000"], 0,
                "5b6cef2a6cde6dfc7028093bb9730d64a744bf6efb67779f3139b641db15b828"),
}

# name -> (replaced digest, why the artifact changed)
SUPERSEDED = {
    "star-scan": ("33b210f2618644fdea011e3ec101e39055dc68ead3201a674abceb2ce4fe8607",
                  "deviation_bound is the coded field's node maximum 13.203125, exact for the "
                  "bilinear field, in place of a 64 x 128 sample that read 13.203063484251969; "
                  "implied_bound follows, 27.406126968503937 -> 27.40625"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_artifact(name, tmp_path):
    argv, code, digest = CASES[name]
    out = tmp_path / "artifact"
    assert main(argv + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
