"""End-to-end CLI behavior: exit codes, reports, CSV artifacts, sweeps."""

from __future__ import annotations

import csv
import json
import signal
import warnings

import numpy as np
import pytest

from crossdiff import build_model, cli, make_grid, pde_solver, seed_from_mode

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


MODE_RECORD_KEYS = {
    "A_i", "M", "N_i", "degenerate", "eigs", "lambda_hat", "margin", "mode_indices",
    "warnings",
}


@pytest.mark.parametrize(
    "payload, lambda_hat, M, N_i, mode_indices, kinds",
    [
        (TURING, [1, 4, 9, 16, 25], [1] * 5, [1, 0, 0, 0, 0],
         [[[k]] for k in range(1, 6)], "RRRRR"),
        # The lambda_hat = 1 mode of the pi x pi square has two lattice points.
        ({**TURING, "domain": {"kind": "rectangle", "lengths": [np.pi, np.pi]}},
         [1, 2, 4, 5, 8, 9, 10], [2, 1, 2, 2, 1, 2, 2], [1, 0, 0, 0, 0, 0, 0],
         [[[0, 1], [1, 0]], [[1, 1]], [[0, 2], [2, 0]], [[1, 2], [2, 1]], [[2, 2]],
          [[0, 3], [3, 0]], [[1, 3], [3, 1]]],
         "RRRRRRR"),
        # A verdict-sweep point whose first five modes have complex pairs.
        ({**TURING, "d": [0.3, 7.0], "alpha": [[0.0, 0.5], [0.1, 0.0]]},
         [1, 4, 9, 16, 25, 36, 49], [1] * 7, [0] * 7,
         [[[k]] for k in range(1, 8)], "CCCCCRR"),
    ],
    ids=["readme", "square", "complex-next-to-real"],
)
def test_analyze_mode_records(tmp_path, payload, lambda_hat, M, N_i, mode_indices, kinds):
    # One record per mode, with a fixed key set.  A row's eigenvalues are
    # plain floats when every imaginary part in that row is zero ("R") and
    # [re, im] pairs otherwise ("C").
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--config", cfg, "--output", str(out)]) == 0
    (rep,) = json.loads(out.read_text())["verdict"]["index_reports"]
    records = rep["mode_decisions"]
    assert all(set(r) == MODE_RECORD_KEYS for r in records)
    assert [r["lambda_hat"] for r in records] == lambda_hat
    assert [r["M"] for r in records] == M
    assert [r["N_i"] for r in records] == N_i
    assert [r["mode_indices"] for r in records] == mode_indices
    assert [(r["degenerate"], r["warnings"]) for r in records] == [(False, [])] * len(M)
    model = build_model(payload)
    u = np.array(rep["u_star"])
    written = ""
    for r in records:
        A_i = np.array(r["A_i"])
        reference = model.A(u) - model.jacobian_f(u) / r["lambda_hat"]
        assert A_i.tobytes() == reference.tobytes()
        w = np.linalg.eigvals(A_i / model.d_A(u)[:, None])
        w = w[np.lexsort((w.imag, w.real))]
        if all(isinstance(e, float) for e in r["eigs"]):
            written += "R"
            assert not w.imag.any()
            np.testing.assert_allclose(r["eigs"], w.real, rtol=1e-12)
        else:
            written += "C"
            assert all(isinstance(e, list) and len(e) == 2 for e in r["eigs"])
            np.testing.assert_allclose(r["eigs"], np.stack([w.real, w.imag], -1), rtol=1e-12)
        assert r["margin"] == pytest.approx(float(np.abs(w.real).min()), rel=1e-12)
    assert written == kinds


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


def test_solve_reports_its_factorizations(tmp_path, capsys, monkeypatch):
    calls = []
    factor = pde_solver.splu

    def recording(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(pde_solver, "splu", recording)
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


def test_analyze_and_sweep_timing_covers_the_whole_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CROSSDIFF_THREADS", "1")
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
    timings = printed_timings(capsys.readouterr().out)
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


@pytest.mark.parametrize(
    "payload, mode", [(SKT, "100000"), (SKT, "181"), (TURING, "32767")],
    ids=["skt-100000", "skt-181", "interval-32767"],
)
def test_solve_rejects_huge_seed_mode_before_solving(
    tmp_path, capsys, monkeypatch, payload, mode
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
    assert "requires too many modes" in captured.err
    assert not out.exists()


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
    assert report["result"]["grad_l2"] > 1e-2
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
    result = solve(model, grid, seed, strict=False)
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
    # solve has no homotopy and no refinement block.
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
    assert "refinement" not in results["direct"]


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


def test_sweep_produces_grid_rows(tmp_path, monkeypatch):
    monkeypatch.setenv("CROSSDIFF_THREADS", "1")
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


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, WEAK_LV)
    serial = str(tmp_path / "serial.csv")
    parallel = str(tmp_path / "parallel.csv")
    monkeypatch.setenv("CROSSDIFF_THREADS", "1")
    assert cli.main(
        ["sweep", "--config", cfg, "--output", serial, "--param", "c.0.1=0.1:0.7:4"]
    ) == 0
    monkeypatch.setenv("CROSSDIFF_THREADS", "2")
    assert cli.main(
        ["sweep", "--config", cfg, "--output", parallel, "--param", "c.0.1=0.1:0.7:4"]
    ) == 0
    assert (tmp_path / "serial.csv").read_bytes() == (
        tmp_path / "parallel.csv"
    ).read_bytes()


def test_sweep_chunked_parallel_matches_serial(tmp_path, monkeypatch):
    # 64 points on 2 workers go out in chunks of 8; negative d.0 values
    # make error rows, so the chunks mix both kinds of row.
    cfg = write_config(tmp_path, WEAK_LV)
    args = ["sweep", "--config", cfg, "--param", "d.0=-0.3:1.0:64"]
    monkeypatch.setenv("CROSSDIFF_THREADS", "1")
    assert cli.main(args + ["--output", str(tmp_path / "serial.csv")]) == 0
    monkeypatch.setenv("CROSSDIFF_THREADS", "2")
    assert cli.main(args + ["--output", str(tmp_path / "parallel.csv")]) == 0
    serial = (tmp_path / "serial.csv").read_bytes()
    assert serial == (tmp_path / "parallel.csv").read_bytes()
    with open(tmp_path / "serial.csv", newline="") as fh:
        errors = [row["error"] != "" for row in csv.DictReader(fh)]
    assert len(errors) == 64 and 0 < sum(errors) < 64


def _timeout(signum, frame):
    raise TimeoutError("the sweep point did not return")


@pytest.mark.parametrize(
    "param, column, message",
    [
        # The certified cutoff bound is ~2.8e114, far past the lattice limit.
        ("d.0=1e-100:1e-100:1", "cause", "requires too many modes"),
        ("domain.lengths.0=1e300:1e300:1", "cause", "requires too many modes"),
        ("domain.lengths.0=1e-300:1e-300:1", "error", "too small for the spectrum"),
        # lambda_hat ~ 1e301: the nondegeneracy determinant overflows.
        ("domain.lengths.0=1e-150:1e-150:1", "cause", "determinant or its scale overflow"),
    ],
)
def test_sweep_extreme_point_returns_a_row(tmp_path, monkeypatch, param, column, message):
    monkeypatch.setenv("CROSSDIFF_THREADS", "1")
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


def test_sweep_mixed_chunks_match_points_swept_alone(tmp_path, monkeypatch):
    # 30 points on 2 workers go out in chunks of 4, each decided in one
    # ledger pass.  The chunks mix ordinary points, error rows (d.0 <= 0),
    # one-sided points (alpha.0.1 = 0, too many modes) and points whose
    # nondegeneracy determinant overflows (length 1e-150); every row must
    # be the row its point gives when swept alone, and no RuntimeWarning
    # may escape from any process.
    cfg = write_config(tmp_path, dict(TURING, alpha=[[0.0, 0.0], [0.1, 0.0]]))
    paths = ["alpha.0.1", "d.0", "domain.lengths.0"]
    specs = ["0:1:3", "-0.2:0.6:5", "1e-150:3.0:2"]

    def sweep(values, threads, name):
        monkeypatch.setenv("CROSSDIFF_THREADS", str(threads))
        out = tmp_path / name
        argv = ["sweep", "--config", cfg, "--output", str(out)]
        for path, value in zip(paths, values):
            argv += ["--param", f"{path}={value}"]
        assert cli.main(argv) == 0
        with open(out, newline="") as fh:
            return list(csv.DictReader(fh))

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = sweep(specs, 2, "chunked.csv")
        assert len(rows) == 30
        for i, row in enumerate(rows):
            alone = [f"{row[p]}:{row[p]}:1" for p in paths]
            assert sweep(alone, 1, f"point{i}.csv") == [row]

    def kind(row):
        if row["error"]:
            return "error"
        if row["inconclusive"] == "False":
            return "conclusive"
        return "one-sided" if "too many modes" in row["cause"] else "overflow"

    # The third and fourth chunks (rows 8 to 15) mix all four kinds.
    assert [kind(r) for r in rows[8:16]] == [
        "overflow", "one-sided", "error", "error",
        "error", "error", "overflow", "conclusive",
    ]


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


def test_version_flag_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
