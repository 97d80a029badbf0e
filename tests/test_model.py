"""Model construction, coefficient evaluation, and structure validation."""

from __future__ import annotations

import json

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff import (
    ConfigError,
    Domain,
    Model,
    ModelError,
    build_model,
    validate_structure,
)
from crossdiff.model import replace_entries


def lv_config(**overrides):
    config = {
        "m": 2,
        "d": [0.05, 1.0],
        "alpha": [[0.0, 0.0], [0.0, 0.0]],
        "r": [1.0, 1.0],
        "c": [[1.0, 0.5], [0.3, 1.0]],
        "domain": {"kind": "interval", "lengths": [np.pi]},
        "bc": "neumann",
    }
    config.update(overrides)
    return config


def test_diagonal_model_has_constant_diagonal_flux_matrix():
    model = build_model(lv_config())
    for u in ([0.0, 0.0], [1.0, 2.0], [5.0, 0.3]):
        np.testing.assert_array_equal(model.A(np.array(u)), np.diag([0.05, 1.0]))


def test_cross_term_flux_entries_by_hand():
    # P_1 = u_1 (1 + 3 u_2) => a_12 = 3 u_1, a_11 = 1 + 3 u_2.
    model = build_model(
        lv_config(d=[1.0, 1.0], alpha=[[0.0, 3.0], [0.0, 0.0]])
    )
    u = np.array([2.0, 5.0])
    A = model.A(u)
    assert A[0, 1] == 3.0 * u[0]
    assert A[0, 0] == 1.0 + 3.0 * u[1]
    assert A[1, 0] == 0.0
    assert A[1, 1] == 1.0


def test_zero_diffusion_rejected():
    with pytest.raises(ModelError, match="d.*positive"):
        build_model(lv_config(d=[0.0, 1.0]))


def test_negative_alpha_rejected():
    with pytest.raises(ModelError):
        build_model(lv_config(alpha=[[0.0, -0.1], [0.0, 0.0]]))


def test_shape_mismatch_rejected():
    with pytest.raises(ModelError):
        build_model(lv_config(r=[1.0]))


def test_shape_message_is_the_same_from_both_entry_points():
    # alpha and r both have the wrong shape: build_model and Model name
    # the same one, in the order Model checks its fields.
    config = lv_config(alpha=[[0.0] * 3] * 2, r=[1.0] * 3)
    message = build_model_message(config)
    with pytest.raises(ConfigError) as raised:
        Model(
            m=2, d=np.array(config["d"]), alpha=np.array(config["alpha"]),
            r=np.array(config["r"]), c=np.array(config["c"]),
            domain=Domain(kind="interval", lengths=(np.pi,)),
        )
    assert str(raised.value) == message == "r must have shape (2,), got (3,)"


def test_unknown_config_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        build_model(lv_config(bogus=1))
    cfg = lv_config()
    cfg["domain"] = {"kind": "interval", "lengths": [np.pi], "units": "m"}
    with pytest.raises(ConfigError, match="unknown"):
        build_model(cfg)


def test_coefficients_at_origin():
    model = build_model(lv_config())
    u = np.zeros(2)
    np.testing.assert_array_equal(model.A(u), np.diag([0.05, 1.0]))
    np.testing.assert_array_equal(model.f(u), np.zeros(2))
    np.testing.assert_array_equal(model.jacobian_f(u), np.diag([1.0, 1.0]))


def test_reaction_vanishes_on_semitrivial_root():
    model = build_model(lv_config())
    np.testing.assert_array_equal(model.f(np.array([1.0, 0.0])), np.zeros(2))


def test_flux_entry_against_symbolic_differentiation():
    # a_11 at u=(1,2) for alpha=[[1,2],[0,1]], d=(1,1): oracle is the
    # symbolic Jacobian of P(u), evaluated exactly.
    model = build_model(lv_config(d=[1.0, 1.0], alpha=[[1.0, 2.0], [0.0, 1.0]]))
    u1, u2 = sympy.symbols("u1 u2")
    d = [1, 1]
    alpha = [[1, 2], [0, 1]]
    P = [
        ui * (di + sum(a * uj for a, uj in zip(row, (u1, u2))))
        for ui, di, row in zip((u1, u2), d, alpha)
    ]
    J_sym = sympy.Matrix(P).jacobian([u1, u2]).subs({u1: 1, u2: 2})
    A = model.A(np.array([1.0, 2.0]))
    assert A[0, 0] == 7.0
    np.testing.assert_array_equal(A, np.array(J_sym, dtype=float))


def test_flux_matrix_is_derivative_of_diffusion_polynomial():
    # Dual route: central finite differences of P recover A(u).
    model = build_model(
        lv_config(d=[0.7, 1.3], alpha=[[0.2, 1.5], [0.4, 0.1]])
    )

    def P(u):
        # The flux potential P_i(u) = u_i * (d_i + sum_j alpha_ij u_j).
        return u * (model.d + u @ model.alpha.T)

    rng = np.random.default_rng(3)
    for u in rng.uniform(0.0, 3.0, size=(5, 2)):
        A = model.A(u)
        eps = 1e-6
        fd = np.zeros((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = eps
            fd[:, j] = (P(u + e) - P(u - e)) / (2 * eps)
        np.testing.assert_allclose(A, fd, rtol=1e-6, atol=1e-6)


@given(
    st.floats(0.1, 5.0),
    st.floats(0.1, 5.0),
    st.floats(-3.0, 3.0),
)
def test_cross_entry_scaled_by_own_component_only(u1, u1_alt, u2):
    # a_12 / u_1 must not depend on u_1 (cross-diffusion form).
    model = build_model(
        lv_config(d=[1.0, 1.0], alpha=[[0.3, 2.0], [0.5, 0.0]])
    )
    a = model.A(np.array([u1, u2]))[0, 1] / u1
    b = model.A(np.array([u1_alt, u2]))[0, 1] / u1_alt
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@given(st.lists(st.floats(-1.0, 3.0), min_size=2, max_size=2))
def test_reaction_vanishes_at_origin_and_jacobian_is_growth_rates(r):
    model = build_model(lv_config(r=list(r)))
    np.testing.assert_array_equal(model.f(np.zeros(2)), np.zeros(2))
    np.testing.assert_array_equal(model.jacobian_f(np.zeros(2)), np.diag(r))


def test_coefficients_are_deterministic():
    model = build_model(lv_config(alpha=[[0.1, 0.9], [0.2, 0.3]]))
    u = np.array([0.37, 1.91])
    for coefficient in (model.A, model.f, model.jacobian_f):
        np.testing.assert_array_equal(coefficient(u), coefficient(u))


def test_restrict_keeps_selected_species():
    model = build_model(lv_config())
    sub = model.restrict((1,))
    assert sub.m == 1
    assert sub.d[0] == 1.0
    assert sub.r[0] == 1.0
    assert sub.c[0, 0] == 1.0


def rect_config(**overrides):
    return lv_config(
        alpha=[[0.1, 0.2], [0.3, 0.4]], domain={"kind": "rectangle", "lengths": [2.0, 3.0]},
        **overrides,
    )


def with_entry(config, keys, value):
    """A deep copy of ``config`` with the entry at ``keys`` set to ``value``."""
    point = json.loads(json.dumps(config))
    node = point
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return point


def assert_point_arrays_are_fresh(point, base):
    for name in ("d", "alpha", "r", "c"):
        arr = getattr(point, name)
        assert arr.dtype == np.float64 and not arr.flags.writeable
        assert arr is not getattr(base, name)


@pytest.mark.parametrize(
    "entries",
    [
        [(("d", 0), 0.7)],
        [(("alpha", 1, 0), 2.5), (("r", 1), -0.5)],
        [(("c", 0, 1), 0.9), (("domain", "lengths", 1), 0.25)],
        [(("domain", "lengths", 0), 5.0), (("domain", "lengths", 1), 1.5)],
        [(("m",), 2.0)],
    ],
)
def test_replace_entries_equals_build_model_of_the_replaced_config(entries):
    config = rect_config()
    base = build_model(config)
    for keys, value in entries:
        config = with_entry(config, keys, value)
    expected = build_model(config)
    keys, values = zip(*entries)
    batch = replace_entries(base, keys, [values])
    assert batch.errors == [None]
    model = batch.model(0)
    assert model.to_config() == expected.to_config()
    # Every attribute build_model sets, not only those to_config reads.
    assert vars(model).keys() == vars(expected).keys()
    assert_point_arrays_are_fresh(model, base)
    assert base.to_config() == build_model(rect_config()).to_config()


FAILING_ENTRIES = [
    (("d", 1), 0.0), (("d", 0), float("nan")), (("alpha", 0, 1), -1.0),
    (("r", 0), float("inf")), (("domain", "lengths", 0), 1e-300),
    (("domain", "lengths", 1), -2.0), (("m",), 3.0), (("m",), 0.0),
    (("m",), -1.0), (("m",), float("nan")), (("m",), float("inf")),
]


def build_model_message(config):
    with pytest.raises(ConfigError) as built:
        build_model(config)
    return str(built.value)


@pytest.mark.parametrize("keys, value", FAILING_ENTRIES)
def test_replace_entries_raises_what_build_model_raises(keys, value):
    # The point's message comes back in the batch, not raised; its model
    # view raises it.
    config = rect_config()
    batch = replace_entries(build_model(config), [keys], [(value,)])
    message = build_model_message(with_entry(config, keys, value))
    assert batch.errors == [message]
    with pytest.raises(ConfigError) as raised:
        batch.model(0)
    assert str(raised.value) == message


def test_replace_entries_checks_a_mixed_batch_point_by_point():
    # Every key of the failing entries swept at once: each point sets one
    # failing value or none, and every other key keeps a valid value that
    # differs from the base's, so each point is checked on its own row.
    config = rect_config()
    base = build_model(config)
    keys = list(dict.fromkeys(keys for keys, _ in FAILING_ENTRIES))
    valid = {
        ("d", 1): 0.8, ("d", 0): 0.07, ("alpha", 0, 1): 0.6, ("r", 0): 1.5,
        ("domain", "lengths", 0): 2.5, ("domain", "lengths", 1): 3.5, ("m",): 2.0,
    }
    points, configs = [], []
    for failing in [None, *FAILING_ENTRIES, None, None]:
        point = dict(valid)
        point[("d", 1)] += 0.01 * len(points)
        if failing is not None:
            point[failing[0]] = failing[1]
        point_config = config
        for key in keys:
            point_config = with_entry(point_config, key, point[key])
        points.append(tuple(point[key] for key in keys))
        configs.append(point_config)
    batch = replace_entries(base, keys, points)
    assert len(batch.errors) == len(points)
    failed = 0
    for k, (error, point_config) in enumerate(zip(batch.errors, configs)):
        if error is not None:
            failed += 1
            assert error == build_model_message(point_config)
        else:
            point = batch.model(k)
            expected = build_model(point_config)
            assert point.to_config() == expected.to_config()
            assert vars(point).keys() == vars(expected).keys()
            assert_point_arrays_are_fresh(point, base)
    assert failed == len(FAILING_ENTRIES)
    assert base.to_config() == build_model(rect_config()).to_config()


@pytest.mark.parametrize("owner", ["view", "owner"])
def test_model_keeps_no_view_of_a_caller_array(owner):
    # A read-only array, a view or one that owns its data, is still
    # copied: its holder can make it writable again.
    d = np.array([0.05, 1.0])
    given = d[:] if owner == "view" else d
    given.setflags(write=False)
    model = build_model(lv_config())
    model = type(model)(model.m, given, model.alpha, model.r, model.c, model.domain)
    d.setflags(write=True)
    d[0] = -9.0
    assert model.d[0] == 0.05


def test_config_round_trip():
    cfg = lv_config(alpha=[[0.1, 0.2], [0.3, 0.4]])
    model = build_model(cfg)
    again = build_model(model.to_config())
    np.testing.assert_array_equal(model.alpha, again.alpha)
    np.testing.assert_array_equal(model.c, again.c)
    assert model.domain == again.domain


def test_structure_report_diagonal_model():
    model = build_model(lv_config())
    report = validate_structure(model, [(0.0, 2.0), (0.0, 2.0)])
    assert report.lambda_floor == pytest.approx(0.05, rel=1e-12)
    assert report.elliptic


@given(
    st.lists(st.floats(0.1, 4.0), min_size=2, max_size=2),
    st.floats(0.5, 6.0),
)
@settings(max_examples=25, deadline=None)
def test_ellipticity_floor_for_plain_diffusion(d, hi):
    # Without cross terms A(u) = diag(d): the floor is min d, and lambda
    # has no gradient.
    model = build_model(lv_config(d=list(d)))
    report = validate_structure(model, [(0.0, hi)] * 2)
    assert report.lambda_floor == min(d)
    assert report.Lambda_sup == 0.0


def min_sym_eig(A):
    return np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2)))[..., 0]


def test_structure_bounds_hold_at_random_box_probes():
    # lambda(u) is concave and ||A(u)|| / lambda(u) quasi-convex on an
    # elliptic box, so no probe may beat the corners; and no central
    # difference of lambda, relative to lambda, may exceed Lambda_sup.
    rng = np.random.default_rng(22)
    elliptic = 0
    models = 240
    for trial in range(models):
        m = 1 + trial % 3
        alpha = rng.uniform(0.0, 3.0, (m, m)) * (rng.random((m, m)) < 0.6)
        config = {
            "m": m,
            "d": rng.uniform(0.05, 2.0, m).tolist(),
            "alpha": alpha.tolist(),
            "r": [1.0] * m,
            "c": np.eye(m).tolist(),
            "domain": {"kind": "interval", "lengths": [np.pi]},
        }
        model = build_model(config)
        lo = rng.uniform(0.0, 1.0, m)
        hi = lo + rng.uniform(0.1, 3.0, m)
        report = validate_structure(model, np.column_stack([lo, hi]))
        u = lo + rng.random((400, m)) * (hi - lo)
        A = model.A(u)
        lam = min_sym_eig(A)
        scale = 1.0 + np.abs(A).max()
        assert lam.min() >= report.lambda_floor - 1e-12 * scale
        if not report.elliptic:
            continue
        elliptic += 1
        ratio = np.linalg.norm(A, 2, axis=(-2, -1)) / lam
        assert ratio.max() <= report.C_star * (1.0 + 1e-12)
        h = 1e-6
        grad = np.stack(
            [
                (min_sym_eig(model.A(u + h * e)) - min_sym_eig(model.A(u - h * e))) / (2 * h)
                for e in np.eye(m)
            ],
            axis=-1,
        )
        relative = np.linalg.norm(grad, axis=-1) / lam
        assert relative.max() <= report.Lambda_sup + 1e-6 * (1.0 + report.Lambda_sup)
    # Both kinds of model are drawn.
    assert models // 4 < elliptic < models


def test_structure_check_is_bounded_at_max_species():
    m = 13
    model = build_model(
        {
            "m": m,
            "d": [1.0] * m,
            "alpha": np.zeros((m, m)).tolist(),
            "r": [1.0] * m,
            "c": np.eye(m).tolist(),
            "domain": {"kind": "interval", "lengths": [np.pi]},
        }
    )
    with pytest.raises(ModelError, match="2\\^m box corners"):
        validate_structure(model, [(0.0, 1.0)] * m)


def test_ellipticity_failure_is_loud():
    # Strong one-sided cross-diffusion makes the symmetric part
    # indefinite on part of the box; the report must say so.
    model = build_model(
        lv_config(d=[1.0, 1.0], alpha=[[0.0, 0.0], [10.0, 0.0]])
    )
    report = validate_structure(model, [(0.0, 2.0), (0.0, 2.0)])
    assert not report.elliptic
    assert report.C_star == np.inf
    assert any("elliptic" in w for w in report.warnings)


def test_domain_diameter_and_volume():
    interval = Domain(kind="interval", lengths=(np.pi,))
    assert interval.diameter == pytest.approx(np.pi)
    rect = Domain(kind="rectangle", lengths=(3.0, 4.0))
    assert rect.diameter == pytest.approx(5.0)
    assert np.prod(rect.lengths) == pytest.approx(12.0)
