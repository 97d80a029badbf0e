"""Report, sweep and solve bytes against recorded files: ``analyze``,
``sweep`` and ``solve`` output must not move by a bit.

Each ``<name>.model.json`` under ``tests/golden/`` is analyzed into
``<name>.report.json``; each sweep CSV comes from its command in
:data:`SWEEPS`, and each ``<name>.solve.json`` from the solve in
:data:`SOLVES`, whose exit code is stated and whose field CSV is pinned
by its SHA-256.  To re-record
a file after a deliberate change of bytes, run the same command with
``--output`` pointing into ``tests/golden/``; a solve report is written
as ``<dir>/solve.json``, so that its ``field_csv`` reads
``solve_field.csv``, and copied to ``<name>.solve.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from crossdiff import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

ANALYZE = {
    "readme": cli.EXIT_OK,
    "skt-2d": cli.EXIT_OK,
    "square": cli.EXIT_OK,
    # One-sided cross-diffusion, alpha[1][0] = 0.1: d_A^{-1} A(u*) is
    # defective, which the roots of det(lambda A - J) do not see.
    "one-sided": cli.EXIT_OK,
    "bistable": cli.EXIT_OK,
    "three-species": cli.EXIT_OK,
    # The README model on (0, 1e5): 60,554 Neumann eigenvalues lie below
    # its two roots, counted in closed form; index +1 and total 1.
    "long-interval": cli.EXIT_OK,
    # A(u*) = I and J(u*) = diag(1.5, 6) on the pi x pi square: p < 0 on
    # (1.5, 6), which holds modes 3 to 7 (lambda_hat = 2, 4, 4, 5, 5)
    # counted with multiplicity; modes 0 to 2 lie below it.
    "square-band": cli.EXIT_OK,
}

SWEEPS = {
    # The benchmark's 12 x 48 grid, its one-sided alpha.0.1 = 0 rows
    # included: every point is conclusive.
    "sweep-d-alpha.csv": (
        "one-sided", ["d.0=0.05:1.0:12", "alpha.0.1=0:2:48"],
    ),
    # Forty interval lengths: forty domains in one ledger batch, with
    # predicting and non-predicting points on each and one-sided
    # alpha.1.0 = 0.1 points.
    "sweep-lengths.csv": (
        "readme", ["domain.lengths.0=0.5:40:40", "d.0=0.05:0.6:4", "alpha.1.0=0:0.1:2"],
    ),
    # The pi x pi square with its second side swept: a rectangle batch.
    # Twelve side-0 rows are errors, and at d.0 = 1e-9 five points have a
    # root with too many modes below it; of the other 55, 32 total 1 and
    # 23 total -1.
    "sweep-square-d-length.csv": (
        "square", ["d.0=1e-9:0.6:12", "domain.lengths.1=0:5:6"],
    ),
}

_SKT = json.loads((GOLDEN / "skt-2d.model.json").read_text())

_LOGISTIC = {
    "m": 1, "d": [1.0], "alpha": [[0.0]], "r": [1.0], "c": [[1.0]],
    "domain": {"kind": "interval", "lengths": [3.141592653589793]}, "bc": "neumann",
}

# name: (model config file or dict, solve arguments, exit code,
#        SHA-256 of the field CSV)
SOLVES = {
    # Direct Newton from a mode seed to the nonconstant Turing pattern.
    "readme-mode1-512": (
        "readme.model.json", ["--grid", "512", "--seed-mode", "1", "--amp", "1.5"], cli.EXIT_OK,
        "efe21c17ebb8cf77c84c6aabc3e84f76ba889b48ee0089c8dc758cd74ba09623",
    ),
    # The same on the pi x pi square at 64 x 64: a nonconstant 2D field,
    # whose oscillation scan runs over annular shells, in 3 factorizations.
    "square-mode1-64": (
        "square.model.json", ["--grid", "64", "--seed-mode", "1", "--amp", "1.5"], cli.EXIT_OK,
        "8c951046b79a10ac2cab05555fc9b19bc7a4a679e582ec9bf1de952f502ba567",
    ),
    # Grid-sequenced continuation: stages on 24x24, one Newton run on 48x48.
    "skt-2d-seed0": (
        "skt-2d.model.json", ["--grid", "48", "--seed-random", "0"], cli.EXIT_OK,
        "bbe8a373e9eee980a48dcd85f6fd2aa0fc904a7f71c5a783c5843f03156ca36f",
    ),
    "skt-2d-seed7": (
        "skt-2d.model.json", ["--grid", "48", "--seed-random", "7"], cli.EXIT_OK,
        "bbe8a373e9eee980a48dcd85f6fd2aa0fc904a7f71c5a783c5843f03156ca36f",
    ),
    # Dirichlet walls: 94 steps over 9 stages to a nonconstant field.
    "skt-dirichlet-32": (
        {**_SKT, "bc": "dirichlet"}, ["--grid", "32", "--seed-random", "1"], cli.EXIT_OK,
        "7764b05656e4f10bbba99f63995f8c06565ca542cde70203d216727158dd975c",
    ),
    # The failure paths.  A direct solve that stagnates: its last iterate,
    # 12 steps and 13 factorizations.
    "one-sided-seed3-newton": (
        "one-sided.model.json", ["--grid", "128", "--seed-random", "3", "--no-homotopy"],
        cli.EXIT_SOLVER,
        "29e4dbf8ef6cb4f8f80710327235d0eb51b3848b667d242a066691a499d630ba",
    ),
    # Coarse and full-grid stages both fail: the full-grid attempt ends
    # at its t = 1 stage, after 170 steps and 88 factorizations in all,
    # and the answer is its t = 0.875 stage.  The residual norm is the
    # answer's at t = 1.
    "one-sided-seed3": (
        "one-sided.model.json", ["--grid", "128", "--seed-random", "3"], cli.EXIT_SOLVER,
        "c01b7b435b96d7df7da49d985d6dbea068688ee272cee8bd916f25109de9fffa",
    ),
    # The coarse stages fail and the full-grid ones converge: no
    # refinement, and the factorizations of both attempts are counted
    # (48).
    "one-sided-seed5": (
        "one-sided.model.json", ["--grid", "128", "--seed-random", "5"], cli.EXIT_OK,
        "c8528a375530f7467c1c31d5104eddf98b2b4d80100fa61ce5c0f6c88008ee9e",
    ),
    # Logistic growth at u = 1/2, where the Jacobian is the bare Neumann
    # operator: the t = 0 stage fails on both grids, and the answer is
    # the seed with an empty t_path.
    "logistic-half": (
        _LOGISTIC, ["--grid", "32", "--seed-constant", "0.5"], cli.EXIT_SOLVER,
        "d85227bf4596bae6231c0922de79deae23b75bdaecc3622823e89d23e8801f01",
    ),
}


@pytest.mark.parametrize("name", list(ANALYZE))
def test_analyze_report_matches_golden_bytes(tmp_path, name):
    out = tmp_path / "report.json"
    config = GOLDEN / f"{name}.model.json"
    code = cli.main(["analyze", "--config", str(config), "--output", str(out)])
    assert code == ANALYZE[name]
    assert out.read_bytes() == (GOLDEN / f"{name}.report.json").read_bytes()


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_csv_matches_golden_bytes(tmp_path, name):
    model, params = SWEEPS[name]
    out = tmp_path / name
    argv = ["sweep", "--config", str(GOLDEN / f"{model}.model.json"), "--output", str(out)]
    for param in params:
        argv += ["--param", param]
    assert cli.main(argv) == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", list(SOLVES))
def test_solve_report_and_field_match_golden(tmp_path, name):
    config, args, exit_code, field_sha256 = SOLVES[name]
    if isinstance(config, dict):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config))
    else:
        path = GOLDEN / config
    out = tmp_path / "solve.json"
    code = cli.main(["solve", "--config", str(path), "--output", str(out), *args])
    assert code == exit_code
    assert out.read_bytes() == (GOLDEN / f"{name}.solve.json").read_bytes()
    field = (tmp_path / "solve_field.csv").read_bytes()
    assert hashlib.sha256(field).hexdigest() == field_sha256


def test_golden_reports_are_strict_json():
    # A non-finite float, such as C_star of a non-elliptic model, is
    # written as null: no report holds the tokens Infinity or NaN, which
    # strict JSON readers reject.
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    reports = sorted(GOLDEN.glob("*.report.json"))
    assert [p.name for p in reports] == sorted(f"{name}.report.json" for name in ANALYZE)
    solves = sorted(GOLDEN.glob("*.solve.json"))
    assert [p.name for p in solves] == sorted(f"{name}.solve.json" for name in SOLVES)
    for path in reports + solves:
        json.loads(path.read_text(), parse_constant=refuse)
    structure = json.loads((GOLDEN / "skt-2d.report.json").read_text())["structure"]
    assert (structure["elliptic"], structure["C_star"], structure["Lambda_sup"]) == (
        False, None, None
    )
