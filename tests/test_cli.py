"""End-to-end CLI behavior: exit codes, reports, CSV artifacts, sweeps."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import signal
import subprocess
import warnings

import numpy as np
import pytest

from crossdiff import (
    ModelError, build_model, cli, eigenfunction, find_constant_states, make_grid, pde_solver,
    seed_from_mode,
)
from test_spectral import brute_force_spectrum

WEAK_LV = {
    "m": 2,
    "d": [1.0, 1.0],
    "alpha": [[0.0, 0.0], [0.0, 0.0]],
    "r": [1.0, 1.0],
    "c": [[1.0, 0.5], [0.3, 1.0]],
    "domain": {"kind": "interval", "lengths": [float(np.pi)]},
    "bc": "neumann",
}

TURING = {
    "m": 2,
    "d": [0.4, 7.0],
    "alpha": [[0.0, 0.0], [0.0, 0.0]],
    "r": [1.0, 1.0],
    "c": [[-1.0, 2.0], [-3.0, 4.0]],
    "domain": {"kind": "interval", "lengths": [float(np.pi)]},
    "bc": "neumann",
}

# Logistic growth with u* = 1: at the constant seed u = 1/2 the kinetic
# derivative vanishes and the Jacobian is the bare Neumann operator.
LOGISTIC = {
    "m": 1,
    "d": [1.0],
    "alpha": [[0.0]],
    "r": [1.0],
    "c": [[1.0]],
    "domain": {"kind": "interval", "lengths": [float(np.pi)]},
    "bc": "neumann",
}


SKT = {
    "m": 2,
    "d": [0.05, 1.0],
    "alpha": [[0.1, 3.0], [0.5, 0.2]],
    "r": [1.0, 1.0],
    "c": [[1.0, 0.5], [0.3, 1.0]],
    "domain": {"kind": "rectangle", "lengths": [3.0, 3.0]},
    "bc": "neumann",
}


def write_config(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze_weak_competition(tmp_path, capsys):
    cfg = write_config(tmp_path, WEAK_LV)
    out = str(tmp_path / "report.json")
    code = cli.main(["analyze", "--config", cfg, "--output", out])
    captured = capsys.readouterr()
    assert code == 0
    assert "case" in captured.out
    assert "timing" in captured.out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["command"] == "analyze"
    assert report["verdict"]["case_label"] == "a"
    assert report["verdict"]["total"] == 1
    assert report["verdict"]["predicts_nonconstant"] is False
    assert "timing" not in (tmp_path / "report.json").read_text()


def test_analyze_turing_predicts_pattern(tmp_path):
    cfg = write_config(tmp_path, TURING)
    out = str(tmp_path / "report.json")
    assert cli.main(["analyze", "--config", cfg, "--output", out]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"]["total"] == -1
    assert report["verdict"]["predicts_nonconstant"] is True


def test_analyze_bistable_saddle_counts_the_constant_mode(tmp_path, capsys):
    # Strong competition at d = 100: nonexistence_threshold proves that
    # every solution is constant, and the saddle u* = (1/3, 1/3), with
    # det(-J) < 0, has index -1, so the indices sum to 0 + 1 + 1 - 1 = 1.
    bistable = dict(WEAK_LV, d=[100.0, 100.0], c=[[1.0, 2.0], [2.0, 1.0]])
    cfg = write_config(tmp_path, bistable)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--config", cfg, "--output", str(out)]) == 0
    summary = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["total", "1"] in summary
    assert ["predicts", "nonconstant", "no"] in summary
    verdict = json.loads(out.read_text())["verdict"]
    assert [index for _, index in verdict["nontrivial_constant_indices"]] == [-1]


ROOT_KEYS = {"mu", "imag", "real", "count", "gap"}
NEGATIVE_KEYS = {"lo", "hi", "first_mode", "modes"}


@pytest.mark.parametrize(
    "payload, counts, negative, kinds",
    [
        # Roots 1/2 and 10/7: p < 0 between them, at mode 1 (lambda_hat = 1).
        (TURING, [1, 2], [[1, 1]], "RR"),
        # The lambda_hat = 1 mode of the pi x pi square has two lattice points.
        ({**TURING, "domain": {"kind": "rectangle", "lengths": [np.pi, np.pi]}},
         [1, 3], [[1, 2]], "RR"),
        # A verdict-sweep model whose roots are a complex pair: p > 0 on
        # the whole spectrum.
        ({**TURING, "d": [0.3, 7.0], "alpha": [[0.0, 0.3], [0.1, 0.0]]},
         [0, 0], [], "CC"),
    ],
    ids=["readme", "square", "complex-next-to-real"],
)
def test_analyze_mode_records(tmp_path, payload, counts, negative, kinds):
    # One record per root of p(lambda) = det(lambda A(u*) - J(u*)) and one
    # per interval where p < 0, each with a fixed key set, checked against
    # the state's own matrices and a brute-force lattice spectrum.
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--config", cfg, "--output", str(out)]) == 0
    (rep,) = json.loads(out.read_text())["verdict"]["index_reports"]
    assert all(set(r) == ROOT_KEYS for r in rep["roots"])
    assert all(set(r) == NEGATIVE_KEYS for r in rep["negative"])
    assert [r["count"] for r in rep["roots"]] == counts
    assert rep["sigma"] == sum(counts)
    assert [[r["first_mode"], r["modes"]] for r in rep["negative"]] == negative
    assert "".join("R" if r["real"] else "C" for r in rep["roots"]) == kinds
    model = build_model(payload)
    u = np.array(rep["u_star"])
    A, J = model.A(u), model.jacobian_f(u)
    mu = np.linalg.eigvals(np.linalg.solve(A, J)).astype(complex)
    mu = mu[np.lexsort((mu.imag, mu.real))]
    np.testing.assert_allclose([[r["mu"], r["imag"]] for r in rep["roots"]],
                               np.stack([mu.real, mu.imag], -1), rtol=1e-12)
    values = np.array([v for v, _ in brute_force_spectrum(model.domain.lengths, 40.0)])
    for r in rep["roots"]:
        if r["real"]:
            assert r["count"] == int((values < r["mu"]).sum())
        nearest = np.abs(r["mu"] + 1j * r["imag"] - values).min()
        assert r["gap"] == pytest.approx(nearest / np.abs(mu).max(), rel=1e-9)
    # p < 0 at exactly the spectrum values inside the intervals.
    p = np.linalg.det(values[:, None, None] * A - J)
    inside = np.zeros(len(values), dtype=bool)
    for r in rep["negative"]:
        held = (values > r["lo"]) & (values < r["hi"])
        assert np.flatnonzero(held).tolist() == list(
            range(r["first_mode"], r["first_mode"] + r["modes"])
        )
        inside |= held
    assert ((p < 0) == inside).all()


def test_analyze_degenerate_states_exit_inconclusive(tmp_path):
    degenerate = json.loads(json.dumps(WEAK_LV))
    degenerate["c"] = [[1.0, 1.0], [1.0, 1.0]]
    cfg = write_config(tmp_path, degenerate)
    out = str(tmp_path / "report.json")
    code = cli.main(["analyze", "--config", cfg, "--output", out])
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"]["inconclusive"] is True
    assert "degenerate-subset" in report["verdict"]["cause"]


def test_analyze_dirichlet_notice(tmp_path, capsys):
    dirichlet = json.loads(json.dumps(WEAK_LV))
    dirichlet["bc"] = "dirichlet"
    cfg = write_config(tmp_path, dirichlet)
    out = str(tmp_path / "report.json")
    code = cli.main(["analyze", "--config", cfg, "--output", out])
    captured = capsys.readouterr()
    assert code == 0
    assert "zero-flux" in captured.out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] is None
    assert report["states"]["states"]


def test_analyze_byte_stability(tmp_path):
    cfg = write_config(tmp_path, WEAK_LV)
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert cli.main(["analyze", "--config", cfg, "--output", out1]) == 0
    assert cli.main(["analyze", "--config", cfg, "--output", out2]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_input_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.main(["analyze", "--config", str(bad)]) == 1

    unknown = json.loads(json.dumps(WEAK_LV))
    unknown["bogus"] = 1
    cfg = write_config(tmp_path, unknown)
    assert cli.main(["analyze", "--config", cfg]) == 1

    missing = str(tmp_path / "nope.json")
    assert cli.main(["analyze", "--config", missing]) == 1

    # argparse-level errors are remapped to the input-error exit code.
    assert cli.main(["analyze"]) == 1
    assert cli.main(["analyze", "--config", write_config(tmp_path, WEAK_LV), "--what"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("lengths", [5, ["x"]], ids=["number", "string"])
def test_malformed_domain_lengths_is_an_input_error(tmp_path, capsys, lengths):
    # Every command names the entry; none raises from inside Domain.
    cfg = write_config(tmp_path, dict(WEAK_LV, domain={"kind": "interval", "lengths": lengths}))
    message = f"domain.lengths must be a list of numbers, got {lengths!r}"
    for command in ("analyze", "solve"):
        out = str(tmp_path / f"{command}.json")
        assert cli.main([command, "--config", cfg, "--output", out]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
    rows = sweep_rows(tmp_path, cfg, ["d.0=0.5:1:2"], "s.csv")
    assert [row["error"] for row in rows] == [message, message]


def test_non_integral_m_is_an_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(WEAK_LV, m=2.7))
    assert cli.main(["analyze", "--config", cfg, "--output", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == "error: m must be an integer, got 2.7\n"
    # Each point is decided with the m its row is labelled with, or not at all.
    rows = sweep_rows(tmp_path, write_config(tmp_path, WEAK_LV, "two.json"), ["m=1.5:2.5:3"], "m.csv")
    assert [(row["m"], row["error"]) for row in rows] == [
        ("1.5", "m must be an integer, got 1.5"),
        ("2.0", ""),
        ("2.5", "m must be an integer, got 2.5"),
    ]


@pytest.mark.parametrize(
    "key, value, path, message",
    [
        ("m", True, "m", "m must be an integer, got True"),
        ("d", [True, 7.0], "d.0", "d is not numeric: [True, 7.0]"),
        ("alpha", [[0.0, False], [0.0, 0.0]], "alpha.0.1",
         "alpha is not numeric: [[0.0, False], [0.0, 0.0]]"),
        ("r", [1.0, True], "r.1", "r is not numeric: [1.0, True]"),
        ("c", [[1.0, 0.5], [True, 1.0]], "c.1.0", "c is not numeric: [[1.0, 0.5], [True, 1.0]]"),
        ("domain", {"kind": "interval", "lengths": [True]}, "domain.lengths.0",
         "domain.lengths must be a list of numbers, got [True]"),
    ],
    ids=["m", "d", "alpha", "r", "c", "lengths"],
)
def test_json_booleans_are_not_numbers(tmp_path, capsys, key, value, path, message):
    # int, float and np.asarray all read true as 1; a boolean in a numeric
    # entry is an input error that names the entry.
    assert_not_a_number(tmp_path, capsys, key, value, path, message)


@pytest.mark.parametrize(
    "key, value, path, message",
    [
        ("m", "2", "m", "m must be an integer, got '2'"),
        ("d", ["0.4", 7.0], "d.0", "d is not numeric: ['0.4', 7.0]"),
        ("alpha", [[0.0, "0"], [0.0, 0.0]], "alpha.0.1",
         "alpha is not numeric: [[0.0, '0'], [0.0, 0.0]]"),
        ("r", [1.0, "1"], "r.1", "r is not numeric: [1.0, '1']"),
        ("c", [[1.0, 0.5], ["0.3", 1.0]], "c.1.0", "c is not numeric: [[1.0, 0.5], ['0.3', 1.0]]"),
        ("domain", {"kind": "interval", "lengths": ["3.141592653589793"]}, "domain.lengths.0",
         "domain.lengths must be a list of numbers, got ['3.141592653589793']"),
    ],
    ids=["m", "d", "alpha", "r", "c", "lengths"],
)
def test_json_strings_are_not_numbers(tmp_path, capsys, key, value, path, message):
    # int, float and np.asarray all read "2" as 2; a string in a numeric
    # entry is an input error that names the entry, as --param already
    # refuses to sweep it.
    assert_not_a_number(tmp_path, capsys, key, value, path, message)


def assert_not_a_number(tmp_path, capsys, key, value, path, message):
    """WEAK_LV with ``value`` at ``key`` is refused with ``message``."""
    cfg = write_config(tmp_path, dict(WEAK_LV, **{key: value}))
    assert cli.main(["analyze", "--config", cfg, "--output", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    # A sweep over another entry writes the error on every row, and one
    # over the entry itself is refused before any point runs.
    other = "r.0" if key == "d" else "d.0"
    rows = sweep_rows(tmp_path, cfg, [f"{other}=0.5:1:2"], "s.csv")
    assert [row["error"] for row in rows] == [message, message]
    out = str(tmp_path / "b.csv")
    assert cli.main(["sweep", "--config", cfg, "--output", out, "--param", f"{path}=0:1:2"]) == 1
    assert capsys.readouterr().err == (
        f"error: --param path {path!r} does not name a numeric config entry\n"
    )


def test_solve_grid_too_coarse(tmp_path):
    cfg = write_config(tmp_path, WEAK_LV)
    out = str(tmp_path / "s.json")
    assert cli.main(["solve", "--config", cfg, "--output", out, "--grid", "4"]) == 1


def test_solve_seed_flags_are_exclusive(tmp_path):
    cfg = write_config(tmp_path, WEAK_LV)
    code = cli.main(
        ["solve", "--config", cfg, "--output", str(tmp_path / "s.json"),
         "--seed-random", "1", "--seed-constant", "0.5,0.5"]
    )
    assert code == 1


def test_solve_rejects_a_negative_random_seed(tmp_path, capsys):
    # Rejected as an input error before any solve, not by the RNG.
    cfg = write_config(tmp_path, WEAK_LV)
    out = tmp_path / "s.json"
    code = cli.main(
        ["solve", "--config", cfg, "--output", str(out), "--seed-random", "-1"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --seed-random")
    assert not out.exists()


def test_solve_seed_constant_length_checked(tmp_path):
    cfg = write_config(tmp_path, WEAK_LV)
    code = cli.main(
        ["solve", "--config", cfg, "--output", str(tmp_path / "s.json"),
         "--seed-constant", "0.5"]
    )
    assert code == 1


def test_solve_writes_report_and_field_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, WEAK_LV)
    out = str(tmp_path / "s.json")
    code = cli.main(
        ["solve", "--config", cfg, "--output", out, "--grid", "32",
         "--no-homotopy", "--seed-constant", "0.6,0.8"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "timing" in captured.out
    report = json.loads((tmp_path / "s.json").read_text())
    assert report["result"]["converged"] is True
    assert report["result"]["classification"] == "nontrivial-constant"
    assert report["field_csv"] == "s_field.csv"
    with open(tmp_path / "s_field.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "u_1", "u_2"]
    assert len(rows) == 33
    assert float(rows[1][1]) == pytest.approx(10.0 / 17.0, abs=1e-9)


def solve_result(tmp_path, config, seed, route):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "s.json"
    argv = ["solve", "--config", cfg, "--output", str(out), "--grid", "32"]
    assert cli.main(argv + ["--seed-constant", seed] + route) == 0
    return json.loads(out.read_text())["result"]


@pytest.mark.parametrize("route", [["--no-homotopy"], []], ids=["newton", "continuation"])
def test_solve_from_an_absent_species_keeps_its_support(tmp_path, route):
    # u_1 = 0 is invariant and Newton maps u_1 = 1e-9 to O(1e-18): the
    # answer is the semitrivial state, whose support is the seed's, so no
    # support warning is due.  A solve that does change the support warns
    # (test_pde_solver: test_newton_warns_when_a_species_appears).  But
    # species 1 grows at rate 1/2 at u = (0, 1), so the answer is invadable
    # and says so, once.
    result = solve_result(tmp_path, WEAK_LV, "1e-9,1", route)
    assert result["classification"] == "semitrivial-constant"
    assert result["warnings"] == [
        "species 1 absent from the solution can invade it: g_1 = 5.000e-01 > 0 at its mean"
    ]


def test_solve_to_a_negative_state_is_not_semitrivial(tmp_path, capsys):
    # The one-sided golden model seeded at (-0.9, 0.1) converges to the
    # constant (-1, 0), outside the positive cone.
    out = tmp_path / "solve.json"
    config = os.path.join(os.path.dirname(__file__), "golden", "one-sided.model.json")
    argv = ["solve", "--config", config, "--grid", "128",
            "--seed-constant=-0.9,0.1", "--output", str(out)]
    assert cli.main(argv) == 0
    assert re.search(r"classification\s+negative\n", capsys.readouterr().out)
    result = json.loads(out.read_text())["result"]
    assert result["converged"] is True and result["classification"] == "negative"


@pytest.mark.parametrize("route", [["--no-homotopy"], []], ids=["newton", "continuation"])
def test_solve_on_a_face_no_absent_species_invades_gives_no_warning(tmp_path, route):
    # Strong competition: species 1 declines at rate 1 at u = (0, 1).
    config = dict(WEAK_LV, c=[[1.0, 2.0], [2.0, 1.0]])
    result = solve_result(tmp_path, config, "1e-9,1", route)
    assert result["classification"] == "semitrivial-constant"
    assert result["warnings"] == []


@pytest.mark.parametrize("route", [["--no-homotopy"], []], ids=["newton", "continuation"])
def test_solve_rejects_a_seed_whose_residual_overflows(tmp_path, capsys, route):
    cfg = write_config(tmp_path, LOGISTIC)
    out = tmp_path / "s.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(
            ["solve", "--config", cfg, "--output", str(out), "--grid", "32",
             "--seed-constant", "1e200"] + route
        )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the residual at the seed overflows a float")
    assert not out.exists()


THREE_SPECIES = {
    "m": 3,
    "d": [0.3, 1.0, 2.0],
    "alpha": [[0.1, 0.5, 0.0], [0.2, 0.0, 0.6], [0.0, 0.4, 0.1]],
    "r": [1.0, 0.8, 0.9],
    "c": [[1.0, 0.3, 0.2], [0.25, 1.0, 0.3], [0.1, 0.2, 1.0]],
    "domain": {"kind": "rectangle", "lengths": [5.0, 2.0]},
    "bc": "neumann",
}


def random_values(model, grid):
    rng = np.random.default_rng(0)
    values = rng.normal(size=grid.shape + (model.m,)) * 10.0 ** rng.integers(-8, 8, grid.shape + (1,))
    values.flat[:3] = [0.0, -0.0, 1e-300]
    return values


def coexistence_values(model, grid):
    u_star = cli._positive_state(find_constant_states(model))
    return pde_solver.constant_field(grid, u_star).values


def stripe_values(model, grid):
    """Values that vary along the first axis only: each row repeats
    along the second."""
    x = grid.coords[0][:, None]
    stripes = np.stack([1.0 + 0.5 * np.cos(x), 2.0 - x**2], axis=-1)
    return np.broadcast_to(stripes, grid.shape + (model.m,)).copy()


def signed_zero_values(model, grid):
    values = random_values(model, grid)
    rng = np.random.default_rng(1)
    values[..., 0] = np.where(rng.random(grid.shape) < 0.5, 0.0, -0.0)
    return values


def semitrivial_values(model, grid):
    values = random_values(model, grid)
    values[..., 0] = 0.0
    return values


def subnormal_and_huge_values(model, grid):
    rng = np.random.default_rng(2)
    size = grid.shape + (model.m,)
    subnormal = rng.integers(1, 1 << 52, size).view(np.float64)
    huge = rng.uniform(1.0, 10.0, size) * 1e300
    return np.where(rng.random(size) < 0.5, subnormal, huge) * rng.choice([-1.0, 1.0], size)


@pytest.mark.parametrize(
    "payload, n, fill",
    [
        (TURING, 37, random_values),
        (SKT, (9, 11), random_values),
        (SKT, 48, coexistence_values),
        (SKT, (12, 10), stripe_values),
        (SKT, (9, 11), signed_zero_values),
        (SKT, (9, 11), semitrivial_values),
        (THREE_SPECIES, (10, 8), random_values),
        (TURING, 64, subnormal_and_huge_values),
    ],
    ids=["1d", "2d", "constant-48", "stripes", "signed-zero", "semitrivial", "m3", "subnormal-huge"],
)
def test_field_csv_bytes_equal_csv_writer(tmp_path, payload, n, fill):
    model = build_model(payload)
    grid = make_grid(model.domain, n)
    values = fill(model, grid)
    field = pde_solver.DiscreteField(grid, values)
    path = tmp_path / "field.csv"
    cli._field_csv(str(path), field)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list("xy"[: grid.ndim]) + [f"u_{i + 1}" for i in range(model.m)])
        data = np.hstack([grid.points().reshape(-1, grid.ndim), values.reshape(-1, model.m)])
        writer.writerows([repr(v) for v in row] for row in data.tolist())
    assert path.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "fill, formatted",
    [(coexistence_values, lambda values: values.shape[-1]), (random_values, np.size)],
    ids=["constant", "random"],
)
def test_field_csv_formats_each_distinct_value_once(tmp_path, monkeypatch, fill, formatted):
    model = build_model(SKT)
    grid = make_grid(model.domain, 48)
    values = fill(model, grid)
    calls = []

    def counted(obj):
        calls.append(obj)
        return repr(obj)

    monkeypatch.setattr(cli, "repr", counted, raising=False)
    cli._field_csv(str(tmp_path / "field.csv"), pde_solver.DiscreteField(grid, values))
    assert 0 < len(calls) <= formatted(values) + sum(grid.shape)


def test_solve_reports_its_factorizations(tmp_path, capsys, monkeypatch):
    calls = []
    factor = pde_solver._factor

    def recording(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(pde_solver, "_factor", recording)
    cfg = write_config(tmp_path, SKT)
    out = str(tmp_path / "s.json")
    code = cli.main(
        ["solve", "--config", cfg, "--output", out, "--grid", "16", "--seed-random", "0"]
    )
    captured = capsys.readouterr()
    assert code == 0
    result = json.loads((tmp_path / "s.json").read_text())["result"]
    assert result["factorizations"] == len(calls) >= 1
    assert result["iterations"] >= result["factorizations"]
    assert ["factorizations", str(len(calls))] in [line.split() for line in captured.out.splitlines()]


def printed_timings(out):
    """The ``timing NAME: SECONDS s ...`` lines of a command's output."""
    timings = {}
    for line in out.splitlines():
        if line.startswith("timing "):
            name, value = line[len("timing "):].split(": ")
            timings[name] = float(value.split(" s")[0])
    return timings


def test_solve_timing_covers_the_whole_command(tmp_path, capsys):
    cfg = write_config(tmp_path, WEAK_LV)
    out = str(tmp_path / "s.json")
    code = cli.main(
        ["solve", "--config", cfg, "--output", out, "--grid", "32",
         "--no-homotopy", "--seed-constant", "0.6,0.8"]
    )
    captured = capsys.readouterr()
    assert code == 0
    timings = printed_timings(captured.out)
    assert set(timings) == {"solve", "diagnostics", "total"}
    assert timings["total"] >= max(timings["solve"], timings["diagnostics"])
    assert "timing" not in (tmp_path / "s.json").read_text()


def test_analyze_and_sweep_timing_covers_the_whole_command(tmp_path, capsys):
    cfg = write_config(tmp_path, WEAK_LV)
    report = tmp_path / "r.json"
    assert cli.main(["analyze", "--config", cfg, "--output", str(report)]) == 0
    timings = printed_timings(capsys.readouterr().out)
    assert set(timings) == {"analyze", "total"}
    assert timings["total"] >= timings["analyze"]
    sweep = tmp_path / "s.csv"
    assert cli.main(
        ["sweep", "--config", cfg, "--output", str(sweep), "--param", "d.0=0.5:1.0:3"]
    ) == 0
    out = capsys.readouterr().out
    assert re.search(r"^timing sweep: \d+\.\d{3} s$", out, re.MULTILINE)
    timings = printed_timings(out)
    assert set(timings) == {"sweep", "total"}
    assert timings["total"] >= timings["sweep"]
    assert "timing" not in report.read_text() + sweep.read_text()


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_solve_rejects_bad_tol_before_solving(tmp_path, capsys, monkeypatch, tol):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver ran before the tolerance was checked")

    monkeypatch.setattr(cli, "newton_solve", no_solve)
    monkeypatch.setattr(cli, "continuation_solve", no_solve)
    cfg = write_config(tmp_path, TURING)
    out = tmp_path / "s.json"
    code = cli.main(
        ["solve", "--config", cfg, "--output", str(out), "--grid", "32",
         f"--tol={tol}"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: --tol must be positive and finite")
    assert not out.exists()


@pytest.mark.parametrize("radius", ["inf", "nan", "0.01"])
def test_solve_rejects_bad_radius_before_solving(tmp_path, capsys, monkeypatch, radius):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver ran before the radius was checked")

    monkeypatch.setattr(cli, "newton_solve", no_solve)
    monkeypatch.setattr(cli, "continuation_solve", no_solve)
    cfg = write_config(tmp_path, WEAK_LV)
    out = tmp_path / "s.json"
    code = cli.main(
        ["solve", "--config", cfg, "--output", str(out), "--grid", "32",
         "--radius", radius]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert not out.exists()


def test_solve_accepts_a_huge_finite_radius(tmp_path, capsys):
    # 1e308 / 2h overflows a float; the scan stops at the first ball that
    # holds the whole grid, as at any radius past it.
    out = tmp_path / "solve.json"
    config = os.path.join(os.path.dirname(__file__), "golden", "readme.model.json")
    argv = ["solve", "--config", config, "--grid", "64", "--radius", "1e308",
            "--output", str(out)]
    assert cli.main(argv) == 0
    assert "error" not in capsys.readouterr().err
    assert json.loads(out.read_text())["diagnostics"]["bmo_radius"] == 1e308


@pytest.mark.parametrize(
    "command, extra",
    [
        ("analyze", []),
        ("solve", ["--grid", "64", "--seed-mode", "1", "--amp", "1.5"]),
        ("sweep", ["--param", "d.0=0.3:0.5:3"]),
    ],
    ids=["analyze", "solve", "sweep"],
)
def test_missing_output_directory_fails_before_any_work(
    tmp_path, capsys, monkeypatch, command, extra
):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the output directory was checked")

    monkeypatch.setattr(cli, "build_model", no_work)
    monkeypatch.setattr(cli, "newton_solve", no_work)
    monkeypatch.setattr(cli, "continuation_solve", no_work)
    cfg = write_config(tmp_path, TURING)
    missing = tmp_path / "nodir"
    code = cli.main([command, "--config", cfg, "--output", str(missing / "out.json")] + extra)
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.err == f"error: --output directory {str(missing)!r} does not exist\n"
    assert os.listdir(tmp_path) == ["model.json"]


@pytest.mark.parametrize(
    "command, extra, field_dir",
    [
        ("analyze", [], False),
        ("sweep", ["--param", "d.0=0.3:0.5:3"], False),
        ("solve", ["--grid", "64", "--seed-mode", "1", "--amp", "1.5"], False),
        ("solve", ["--grid", "64", "--seed-mode", "1", "--amp", "1.5"], True),
    ],
    ids=["analyze", "sweep", "solve", "solve-field-csv"],
)
def test_output_that_is_a_directory_fails_before_any_work(
    tmp_path, capsys, monkeypatch, command, extra, field_dir
):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the output path was checked")

    cfg = write_config(tmp_path, TURING)
    monkeypatch.setattr(cli, "_load_config", no_work)
    out = tmp_path / "out"
    out.mkdir()
    if field_dir:
        # The report path is free, but the field CSV's is a directory.
        blocked, output = out / "solve_field.csv", out / "solve.json"
        blocked.mkdir()
    else:
        blocked = output = out
    code = cli.main([command, "--config", cfg, "--output", str(output)] + extra)
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.err == f"error: cannot write {str(blocked)!r}: it is a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["model.json", "out"]
    assert os.listdir(out) == (["solve_field.csv"] if field_dir else [])


@pytest.mark.parametrize(
    "payload, mode, message",
    [
        (SKT, "100000", "cannot resolve it"),
        (TURING, "32767", "mode 32767 is the lattice point (32767,): (16,) cells cannot resolve it"),
        # Mode n samples its cosine as zero, mode n + 1 as mode n - 1.
        (TURING, "16", "cannot resolve it"),
        (TURING, "17", "cannot resolve it"),
        (SKT, "100000001", "mode 100000001 requires too many modes"),
    ],
    ids=["skt-100000", "interval-32767", "interval-16", "interval-17", "skt-100000001"],
)
def test_solve_rejects_huge_seed_mode_before_solving(
    tmp_path, capsys, monkeypatch, payload, mode, message
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver ran before the seed mode was checked")

    monkeypatch.setattr(cli, "newton_solve", no_solve)
    monkeypatch.setattr(cli, "continuation_solve", no_solve)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "s.json"
    code = cli.main(
        ["solve", "--config", cfg, "--output", str(out), "--grid", "16",
         "--seed-mode", mode]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, mode, point", [(SKT, 181, (4, 14)), (TURING, 15, (15,))],
    ids=["skt-181", "interval-15"],
)
def test_solve_seeds_every_mode_the_grid_resolves(tmp_path, monkeypatch, payload, mode, point):
    # Mode 181 on the 3x3 square is the lattice point (4, 14), and mode
    # n - 1 the last one an interval of n cells resolves: each seeds u*
    # plus 0.1 times a unit vector times its cosine, and the solve runs.
    seeds = []
    solve = cli.newton_solve

    def recorded(model, grid, seed, **kwargs):
        seeds.append(seed)
        return solve(model, grid, seed, **kwargs)

    monkeypatch.setattr(cli, "newton_solve", recorded)
    cfg = write_config(tmp_path, payload)
    argv = ["solve", "--config", cfg, "--output", str(tmp_path / "s.json"), "--grid", "16",
            "--seed-mode", str(mode)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_SOLVER)
    (seed,) = seeds
    model = build_model(payload)
    u_star = cli._positive_state(find_constant_states(model))
    psi = eigenfunction(model.domain, point, seed.grid.points()).ravel()
    dev = (seed.values - u_star).reshape(-1, model.m)
    coeff = dev.T @ psi / (psi @ psi)
    np.testing.assert_allclose(dev, np.outer(psi, coeff), atol=1e-12)
    assert np.linalg.norm(coeff) == pytest.approx(0.1, rel=1e-10)


def test_solve_mode_seed_finds_pattern(tmp_path):
    cfg = write_config(tmp_path, TURING)
    out = str(tmp_path / "pattern.json")
    code = cli.main(
        ["solve", "--config", cfg, "--output", out, "--grid", "128",
         "--seed-mode", "1", "--amp", "1.5"]
    )
    assert code == 0
    report = json.loads((tmp_path / "pattern.json").read_text())
    assert report["result"]["classification"] == "nonconstant"
    assert report["diagnostics"]["grad_l2"] > 1e-2
    assert report["result"]["residual_norm"] < 1e-8


@pytest.mark.parametrize(
    "k, messages",
    [
        (1, []),
        # On the README model only mode 1 has N > 0.
        (4, ["mode lambda_hat=16 is not unstable (N=0); "
             "seeding along its least stable direction anyway"]),
    ],
    ids=["mode-1", "mode-4-stable"],
)
def test_solve_mode_seed_is_the_library_seed(tmp_path, monkeypatch, k, messages):
    # solve --seed-mode k seeds with seed_from_mode(model, u*, k, ...), warns
    # when that mode has no negative count, and writes the field that Newton
    # reaches from the seed, bit for bit.
    seeds = []
    solve = cli.newton_solve

    def recorded(model, grid, seed, **kwargs):
        seeds.append(seed)
        return solve(model, grid, seed, **kwargs)

    monkeypatch.setattr(cli, "newton_solve", recorded)
    cfg = write_config(tmp_path, TURING)
    argv = ["solve", "--config", cfg, "--output", str(tmp_path / "cli.json"),
            "--grid", "64", "--seed-mode", str(k), "--amp", "0.5"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 0
    assert [str(w.message) for w in caught] == messages
    model = build_model(TURING)
    grid = make_grid(model.domain, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        seed = seed_from_mode(model, np.ones(2), k, 0.5, grid)
    (cli_seed,) = seeds
    assert cli_seed.values.tobytes() == seed.values.tobytes()
    result = solve(model, grid, seed)
    cli._field_csv(str(tmp_path / "lib_field.csv"), result.field)
    written = (tmp_path / "cli_field.csv").read_bytes()
    assert written == (tmp_path / "lib_field.csv").read_bytes()


def test_solve_continuation_path_recorded(tmp_path):
    cfg = write_config(tmp_path, WEAK_LV)
    out = str(tmp_path / "c.json")
    code = cli.main(["solve", "--config", cfg, "--output", out, "--grid", "32"])
    assert code == 0
    report = json.loads((tmp_path / "c.json").read_text())
    path = report["result"]["t_path"]
    assert path[0] == 0.0
    assert path[-1] == 1.0
    assert len(path) >= 2
    assert "sigma_path" not in report["result"]


def test_solve_reports_its_refinement(tmp_path):
    # The continuation runs its stages on the half grid when every axis
    # can be halved, and on the grid itself when one is odd.  A direct
    # solve has no homotopy, so its refinement is null.
    cfg = write_config(tmp_path, SKT)
    results = {}
    for name, extra in (
        ("sequenced", ["--grid", "16"]),
        ("odd", ["--grid", "15"]),
        ("direct", ["--grid", "16", "--no-homotopy"]),
    ):
        out = tmp_path / f"{name}.json"
        argv = ["solve", "--config", cfg, "--output", str(out), "--seed-random", "0"]
        assert cli.main(argv + extra) == 0
        results[name] = json.loads(out.read_text())["result"]
    refinement = results["sequenced"]["refinement"]
    assert set(refinement) == {"coarse_grid", "coarse_classification", "prolongation_gap"}
    assert refinement["coarse_grid"] == [8, 8]
    assert refinement["coarse_classification"] == "nontrivial-constant"
    assert 0.0 <= refinement["prolongation_gap"] < 1e-8
    assert results["odd"]["refinement"] is None
    assert results["direct"]["refinement"] is None


ANALYZE_KEYS = {"schema_version", "version", "command", "model", "structure", "states", "verdict"}
SOLVE_RESULT_KEYS = {
    "converged", "residual_norm", "iterations", "factorizations", "t_path",
    "classification", "tolerance", "warnings", "refinement",
}


def test_reports_write_each_fact_once(tmp_path):
    # The boundary stabilities, indices and index reports live under
    # verdict only; grad_l2 lives under diagnostics only; every solve
    # has a refinement key, null on the direct route.
    cfg = write_config(tmp_path, TURING)
    out = tmp_path / "analyze.json"
    assert cli.main(["analyze", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == ANALYZE_KEYS
    assert {"boundary", "index_reports"} <= set(report["verdict"])
    for name, route in (("direct", ["--no-homotopy"]), ("sequenced", [])):
        out = tmp_path / f"{name}.json"
        argv = ["solve", "--config", cfg, "--output", str(out), "--grid", "16"]
        assert cli.main(argv + route) == 0
        report = json.loads(out.read_text())
        assert set(report["result"]) == SOLVE_RESULT_KEYS
        assert "grad_l2" in report["diagnostics"]
    assert json.loads((tmp_path / "direct.json").read_text())["result"]["refinement"] is None


def test_solve_default_keeps_skt_coexistence(tmp_path, capsys):
    cfg = write_config(tmp_path, SKT)
    out = str(tmp_path / "skt.json")
    code = cli.main(
        ["solve", "--config", cfg, "--output", out, "--grid", "16",
         "--seed-random", "0"]
    )
    assert code == 0
    assert "homotopy steps" in capsys.readouterr().out
    report = json.loads((tmp_path / "skt.json").read_text())
    assert report["result"]["classification"] == "nontrivial-constant"
    assert report["result"]["warnings"] == []
    table = np.loadtxt(tmp_path / "skt_field.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(
        table[:, 2:].mean(axis=0), [10.0 / 17.0, 14.0 / 17.0], atol=1e-9
    )


def test_solve_default_from_random_seed_is_not_trivial_on_turing(tmp_path):
    cfg = write_config(tmp_path, TURING)
    out = str(tmp_path / "t.json")
    code = cli.main(
        ["solve", "--config", cfg, "--output", out, "--seed-random", "0"]
    )
    assert code == 0
    report = json.loads((tmp_path / "t.json").read_text())
    assert report["result"]["classification"] != "trivial"


def test_solve_byte_stability(tmp_path):
    cfg = write_config(tmp_path, WEAK_LV)
    argsets = []
    for name in ("a", "b"):
        out = str(tmp_path / name / "run.json")
        (tmp_path / name).mkdir()
        argsets.append(
            ["solve", "--config", cfg, "--output", out, "--grid", "32",
             "--seed-constant", "1,1"]
        )
    assert cli.main(argsets[0]) == 0
    assert cli.main(argsets[1]) == 0
    assert (tmp_path / "a" / "run.json").read_bytes() == (
        tmp_path / "b" / "run.json"
    ).read_bytes()
    assert (tmp_path / "a" / "run_field.csv").read_bytes() == (
        tmp_path / "b" / "run_field.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "route, reason, factorizations",
    [
        (["--no-homotopy"], "linear solve failed", 1),
        # The stages fail on the 16-cell grid, then on the full grid.
        ([], "homotopy stage t = 0 failed", 2),
    ],
    ids=["newton", "continuation"],
)
def test_failed_solve_exits_3_with_its_report_and_field(tmp_path, route, reason, factorizations):
    cfg = write_config(tmp_path, LOGISTIC)
    out = tmp_path / "fail.json"
    argv = ["solve", "--config", cfg, "--output", str(out), "--grid", "32",
            "--seed-constant", "0.5"] + route
    assert cli.main(argv) == 3
    result = json.loads(out.read_text())["result"]
    assert result["converged"] is False
    # The residual at the seed: |f(1/2)| = 1/4 in each of 32 cells.
    assert math.isfinite(result["residual_norm"])
    assert result["residual_norm"] == pytest.approx(0.25 * math.sqrt(32))
    assert any(w.startswith(reason) for w in result["warnings"])
    assert result["factorizations"] == factorizations
    if not route:
        assert result["refinement"] is None
    assert (tmp_path / "fail_field.csv").is_file()


@pytest.mark.parametrize(
    "payload, args",
    [
        (SKT, ["--grid", "48", "--seed-random", "0"]),
        (TURING, ["--grid", "512", "--seed-mode", "1", "--amp", "1.5"]),
    ],
    ids=["skt-48", "turing-512"],
)
def test_solve_bytes_independent_of_the_cached_jacobian_pattern(tmp_path, payload, args):
    # The first run builds the grid's Jacobian pattern, the second reuses it.
    cfg = write_config(tmp_path, payload)
    pde_solver._jacobian_pattern.cache_clear()
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        out = str(tmp_path / name / "run.json")
        assert cli.main(["solve", "--config", cfg, "--output", out] + args) == 0
    for file in ("run.json", "run_field.csv"):
        first, second = (tmp_path / name / file for name in ("a", "b"))
        assert first.read_bytes() == second.read_bytes()


def test_sweep_produces_grid_rows(tmp_path):
    cfg = write_config(tmp_path, WEAK_LV)
    out = str(tmp_path / "sweep.csv")
    code = cli.main(
        ["sweep", "--config", cfg, "--output", out,
         "--param", "c.0.1=0.2:0.8:3", "--param", "d.0=0.5:1.0:2"]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert {r["c.0.1"] for r in rows} == {"0.2", "0.5", "0.8"}
    assert {r["d.0"] for r in rows} == {"0.5", "1.0"}
    assert all(r["error"] == "" for r in rows)
    assert all(r["case_label"] == "a" for r in rows)


def sweep_rows(tmp_path, cfg, params, name):
    """The rows of one sweep over ``params`` (``path=start:stop:num`` specs)."""
    out = tmp_path / name
    argv = ["sweep", "--config", cfg, "--output", str(out)]
    for param in params:
        argv += ["--param", param]
    assert cli.main(argv) == 0
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_rows_equal_points_swept_alone(tmp_path, cfg, paths, rows):
    for i, row in enumerate(rows):
        alone = [f"{path}={row[path]}:{row[path]}:1" for path in paths]
        assert sweep_rows(tmp_path, cfg, alone, f"point{i}.csv") == [row]


def test_sweep_batch_matches_points_swept_alone(tmp_path):
    # Every point is decided in one ledger batch, sharing the kinetic work
    # of the points with equal (m, r, c); each row must be the row its
    # point gives alone.
    cfg = write_config(tmp_path, WEAK_LV)
    rows = sweep_rows(tmp_path, cfg, ["c.0.1=0.1:0.7:4"], "batch.csv")
    assert len(rows) == 4 and all(row["error"] == "" for row in rows)
    assert_rows_equal_points_swept_alone(tmp_path, cfg, ["c.0.1"], rows)


def test_sweep_batch_with_error_rows_matches_points_swept_alone(tmp_path):
    # Negative d.0 values make error rows, so the batch mixes both kinds
    # of row.
    cfg = write_config(tmp_path, WEAK_LV)
    rows = sweep_rows(tmp_path, cfg, ["d.0=-0.3:1.0:64"], "batch.csv")
    errors = [row["error"] != "" for row in rows]
    assert len(errors) == 64 and 0 < sum(errors) < 64
    assert_rows_equal_points_swept_alone(tmp_path, cfg, ["d.0"], rows)


def test_sweep_runs_in_the_calling_process(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep started a process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    cfg = write_config(tmp_path, WEAK_LV)
    rows = sweep_rows(tmp_path, cfg, ["c.0.1=0.1:0.7:4", "d.0=-0.3:1.0:4"], "s.csv")
    assert len(rows) == 16


@pytest.mark.parametrize(
    "path, value",
    [("d.0", "0.0"), ("d.0", "-0.25"), ("alpha.0.1", "-0.5"), ("domain.lengths.0", "1e-300")],
)
def test_sweep_error_rows_carry_the_build_model_message(tmp_path, path, value):
    config = dict(TURING, alpha=[[0.0, 0.0], [0.1, 0.0]])
    cfg = write_config(tmp_path, config)
    (row,) = sweep_rows(tmp_path, cfg, [f"{path}={value}:{value}:1"], "s.csv")
    point = json.loads(json.dumps(config))
    *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = point
    for key in parents:
        node = node[key]
    node[last] = float(value)
    with pytest.raises(ModelError) as excinfo:
        build_model(point)
    assert row["error"] == str(excinfo.value) != ""
    assert row["case_label"] == row["cause"] == ""


def test_sweep_config_invalid_only_at_a_swept_entry_sweeps(tmp_path):
    # d.0 = 0 is no model, but every point overwrites it.
    params = ["d.0=0.05:1:12", "alpha.0.1=0:2:3"]
    template = dict(TURING, alpha=[[0.0, 0.0], [0.1, 0.0]])
    (tmp_path / "valid").mkdir()
    valid = write_config(tmp_path / "valid", template)
    invalid = write_config(tmp_path, dict(template, d=[0.0, 7.0]))
    rows = sweep_rows(tmp_path, invalid, params, "invalid.csv")
    assert len(rows) == 36 and all(row["error"] == "" for row in rows)
    assert rows == sweep_rows(tmp_path, valid, params, "valid.csv")


def test_sweep_config_invalid_at_an_unswept_entry_gives_error_rows(tmp_path):
    config = dict(WEAK_LV, d=[1.0, -1.0])
    cfg = write_config(tmp_path, config)
    rows = sweep_rows(tmp_path, cfg, ["d.0=0.5:1:2"], "s.csv")
    assert len(rows) == 2
    for row in rows:
        with pytest.raises(ModelError) as excinfo:
            build_model(dict(config, d=[float(row["d.0"]), -1.0]))
        assert row["error"] == str(excinfo.value)
        assert row["error"].startswith("diffusion rates d must be strictly positive")


def _timeout(signum, frame):
    raise TimeoutError("the sweep point did not return")


@pytest.mark.parametrize(
    "param, column, message",
    [
        # A root near 1e100: about 1e50 Neumann eigenvalues lie below it.
        ("d.0=1e-100:1e-100:1", "cause", "requires too many modes"),
        ("domain.lengths.0=1e300:1e300:1", "cause", "requires too many modes"),
        ("domain.lengths.0=1e-300:1e-300:1", "error", "too small for the spectrum"),
        # lambda_hat ~ 1e301 lies far past both roots: the point is decided.
        ("domain.lengths.0=1e-150:1e-150:1", "inconclusive", "False"),
    ],
)
def test_sweep_extreme_point_returns_a_row(tmp_path, param, column, message):
    cfg = write_config(tmp_path, dict(TURING, alpha=[[0.0, 0.0], [0.1, 0.0]]))
    out = str(tmp_path / "sweep.csv")
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(30)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["sweep", "--config", cfg, "--output", out, "--param", param])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    # The row names any overflow; numpy must not warn about it as well.
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    with open(out, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert message in row[column]
    if column == "cause":
        assert row["cause"].startswith("state (1.0, 1.0): ")
        assert "np.float64" not in row["cause"]
        assert "degenerate" not in row["cause"]


def test_sweep_mixed_chunks_match_points_swept_alone(tmp_path):
    # 45 points in one kernel batch, on the grid and on the reversed grid.
    # The batch mixes ordinary points, error rows (d.0 <= 0), points on
    # long intervals (lengths 5e4 and 1e5) and points whose first mode is
    # ~1e301 (length 1e-150), so the error rows sit at both ends of the
    # batch; every row must be the row its point gives when swept alone,
    # and no RuntimeWarning may escape.
    cfg = write_config(tmp_path, dict(TURING, alpha=[[0.0, 0.0], [0.1, 0.0]]))
    paths = ["alpha.0.1", "d.0", "domain.lengths.0"]
    grids = {
        "forward": ["0:1:3", "-0.2:0.6:5", "1e-150:1e5:3"],
        "reversed": ["1:0:3", "0.6:-0.2:5", "1e5:1e-150:3"],
    }

    def kind(row):
        if row["error"]:
            return "error"
        return "conclusive" if row["inconclusive"] == "False" else "inconclusive"

    kinds = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, specs in grids.items():
            params = [f"{path}={spec}" for path, spec in zip(paths, specs)]
            rows = sweep_rows(tmp_path, cfg, params, f"{name}.csv")
            assert len(rows) == 45
            assert_rows_equal_points_swept_alone(tmp_path, cfg, paths, rows)
            kinds[name] = [kind(r) for r in rows]

    # Rows 12 to 17 mix both kinds; every point with d.0 > 0 is decided,
    # and the reversed grid lists the rows in reverse order.
    assert kinds["forward"][12:18] == [
        "conclusive", "conclusive", "conclusive", "error", "error", "error",
    ]
    assert "inconclusive" not in kinds["forward"]
    assert kinds["reversed"] == kinds["forward"][::-1]


def test_sweep_decides_every_point_in_one_kernel_pass(tmp_path, monkeypatch):
    # The benchmark's 12 x 48 grid: every point's positive state has two
    # species, so the kernel takes one eigvals of the 576 flux matrices and
    # one of the 576 root matrices, and looks up no mode.
    from crossdiff import spectral

    shapes = []
    eigvals = np.linalg.eigvals

    def counted(stack):
        shapes.append(np.shape(stack))
        return eigvals(stack)

    def no_mode(*args, **kwargs):
        raise AssertionError("a mode was looked up")

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    monkeypatch.setattr(spectral, "mode", no_mode)
    cfg = write_config(tmp_path, dict(TURING, alpha=[[0.0, 0.0], [0.1, 0.0]]))
    rows = sweep_rows(tmp_path, cfg, ["d.0=0.05:1.0:12", "alpha.0.1=0:2:48"], "s.csv")
    assert len(rows) == 576 and all(row["inconclusive"] == "False" for row in rows)
    assert shapes == [(576, 2, 2), (576, 2, 2)]


def test_sweep_checks_its_points_in_one_batch(tmp_path, monkeypatch):
    # Only the first point is built by build_model; the others are checked
    # together, as columns of the batch's stacks.  Besides that first
    # model, one Model is built per distinct kinetics (m, r, c), and none
    # per point.
    from crossdiff.model import Model

    calls = []
    post_init = Model.__post_init__

    def counted_post_init(self):
        calls.append("__post_init__")
        post_init(self)

    monkeypatch.setattr(Model, "__post_init__", counted_post_init)
    cfg = write_config(tmp_path, dict(TURING, alpha=[[0.0, 0.0], [0.1, 0.0]]))
    for params, points, kinetics in [
        # The benchmark's 12 x 48 grid: one kinetics.
        (["d.0=0.05:1.0:12", "alpha.0.1=0:2:48"], 576, 1),
        (["d.0=0.05:1.0:12", "r.0=0.5:1.5:4", "c.1.0=-3.5:-2.5:3"], 144, 12),
    ]:
        calls.clear()
        rows = sweep_rows(tmp_path, cfg, params, "s.csv")
        assert len(rows) == points and all(row["error"] == "" for row in rows)
        swept = [param.split("=")[0] for param in params]
        kinetic = [path for path in swept if path[0] in "rc"]
        assert len({tuple(row[path] for path in kinetic) for row in rows}) == kinetics
        assert len(calls) <= 1 + kinetics


def test_sweep_batch_that_raises_decides_each_point_alone(tmp_path, monkeypatch):
    # The constant states of one kinetics cannot be enumerated, so the
    # batch's table raises: each point not in error is then built from the
    # batch and decided alone, and only that kinetics' points get the error.
    from crossdiff import index_theory

    find = index_theory.find_constant_states

    def failing(model):
        if model.r[0] == 0.5:
            raise ModelError("no constant states at r.0 = 0.5")
        return find(model)

    monkeypatch.setattr(index_theory, "find_constant_states", failing)
    cfg = write_config(tmp_path, dict(TURING, alpha=[[0.0, 0.0], [0.1, 0.0]]))
    paths = ["r.0", "d.0"]
    rows = sweep_rows(tmp_path, cfg, ["r.0=0.5:1.5:3", "d.0=-0.2:0.6:3"], "s.csv")
    failed = [row for row in rows if row["error"] == "no constant states at r.0 = 0.5"]
    assert [row["r.0"] for row in failed] == ["0.5", "0.5"]
    assert sum(row["error"] == "" for row in rows) == 4
    assert_rows_equal_points_swept_alone(tmp_path, cfg, paths, rows)


def test_sweep_rectangle_lengths_match_points_swept_alone(tmp_path):
    # Both sides of a rectangle swept: the batch's lengths have two
    # columns.  The grid holds square points (equal sides, double modes)
    # and error rows (a side <= 0); every row must be the row its point
    # gives alone.
    config = dict(TURING, domain={"kind": "rectangle", "lengths": [3.0, 2.0]})
    cfg = write_config(tmp_path, config)
    paths = ["domain.lengths.0", "domain.lengths.1"]
    rows = sweep_rows(tmp_path, cfg, [f"{paths[0]}=-1:5:7", f"{paths[1]}=1:5:3"], "s.csv")
    assert len(rows) == 21
    errors = [row for row in rows if row["error"]]
    assert len(errors) == 6
    assert all(row["error"].startswith("domain lengths must be positive") for row in errors)
    squares = [row for row in rows if row[paths[0]] == row[paths[1]]]
    assert len(squares) == 3 and not any(row["error"] for row in squares)
    assert len({(row["total"], row["predicts_nonconstant"]) for row in rows if not row["error"]}) > 1
    assert_rows_equal_points_swept_alone(tmp_path, cfg, paths, rows)


def test_sweep_builds_no_verdict_objects(tmp_path, monkeypatch):
    # The 576 rows are written from the verdict table's columns: no
    # ExistenceVerdict and no IndexReport is built for any point.  One
    # model's verdict afterwards builds one of each, so the counters work.
    from crossdiff.index_theory import ExistenceVerdict, IndexReport, existence_verdict

    calls = []
    for cls in (ExistenceVerdict, IndexReport):

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            calls.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    config = dict(TURING, alpha=[[0.0, 0.0], [0.1, 0.0]])
    cfg = write_config(tmp_path, config)
    rows = sweep_rows(tmp_path, cfg, ["d.0=0.05:1.0:12", "alpha.0.1=0:2:48"], "s.csv")
    assert len(rows) == 576 and all(row["error"] == "" for row in rows)
    assert calls == []
    existence_verdict(build_model(config))
    assert sorted(calls) == ["ExistenceVerdict", "IndexReport"]


def test_sweep_bad_param_spec(tmp_path, capsys):
    cfg = write_config(tmp_path, WEAK_LV)
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["sweep", "--config", cfg, "--param", "c.0.1=nope"]) == 1
    assert cli.main(["sweep", "--config", cfg]) == 1
    capsys.readouterr()
    # Paths are resolved against the config before any point runs: one
    # that does not reach a number, or names an entry twice, is an input
    # error naming the path.
    for params, message in [
        (["alpha.x.1=0:1:2"], "'alpha.x.1' does not name a numeric config entry"),
        (["alpha.0=0:1:2"], "'alpha.0' does not name a numeric config entry"),
        (["d.2=0:1:2"], "'d.2' does not name a numeric config entry"),
        (["bc=0:1:2"], "'bc' does not name a numeric config entry"),
        (["d.0=0.3:0.5:2", "d.0=0.7:0.9:2"], "'d.0' names the same entry as 'd.0'"),
        (["d.1=0.3:0.5:2", "d.-1=0.7:0.9:2"], "'d.-1' names the same entry as 'd.1'"),
    ]:
        argv = ["sweep", "--config", cfg, "--output", out]
        for param in params:
            argv += ["--param", param]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"], ["analyze", "--help"], ["solve", "--help"], ["sweep", "--help"],
        ["selftest", "--help"], ["--version"], [], ["bogus"], ["sweep"],
        ["solve", "--config", "m.json", "--grid", "x"], ["sweep", "--config"],
        ["-x", "sweep"], ["--", "sweep"], ["analyze", "--param", "d.0=0:1:2"],
    ],
)
def test_parser_output_equals_the_full_tree(argv, capsys, monkeypatch):
    # main gives only the named subcommand its options; help, version and
    # usage errors must be the bytes and exit code of the full tree.
    def run():
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    lazy = run()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert run() == lazy
    code, out, err = lazy
    if "--help" in argv or argv == ["--version"]:
        assert code == 0 and out and not err
    else:
        assert code == 1 and err.startswith("error: ") and not out


def test_parser_gives_options_only_to_its_command():
    # A parser built for one subcommand holds that subcommand alone.
    with pytest.raises(ModelError, match="invalid choice: 'solve'"):
        cli.build_parser("sweep").parse_args(["solve", "--config", "m.json", "--grid", "8"])
    args = cli.build_parser("solve").parse_args(["solve", "--config", "m.json", "--grid", "8"])
    assert args.grid == 8


def test_a_named_command_builds_two_parsers(tmp_path, monkeypatch):
    # The top level and the named subcommand; the other three subparsers
    # are not built.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cfg = write_config(tmp_path, TURING)
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["sweep", "--config", cfg, "--output", out, "--param", "d.0=0.1:0.2:2"]) == 0
    assert built == ["crossdiff", "crossdiff sweep"]


def test_version_flag_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
