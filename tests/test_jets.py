"""Jet engine: parser, coefficient pins, finite-difference cross-validation."""

import math

import numpy as np
import pytest

from swallowkit import jets
from swallowkit.jets import Jet2, JetError, ParseError, diff, parse, to_source


def test_parse_basic_trees():
    e = parse("2*v^3 + u*v")
    j = e.jet(0.0, 0.0, 3)
    assert j.coeff(1, 1) == 1.0
    assert j.coeff(0, 3) == 2.0
    assert parse("sinh(2*u)/2")(0.3, 0.0) == pytest.approx(math.sinh(0.6) / 2)


@pytest.mark.parametrize("source,offset", [
    ("u +", 3),
    ("2*", 2),
    ("sin(u", 5),
    ("(u+v", 4),
    ("(" * 101 + "u" + ")" * 101, 101),      # nested past jets.MAX_NESTING
])
def test_parse_errors_carry_offsets(source, offset):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert err.value.offset == offset


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'w'"):
        parse("w + 1")
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("tan(u)")


@pytest.mark.parametrize("source", [
    "2*v^3 + u*v",
    "sinh(2*u)/2",
    "sqrt(1 + u^2) - cos(v)*exp(u/2)",
    "(u + v)^3/(1 + v^2)",
    "u^-2 + 1",
])
def test_print_roundtrip(source):
    e = parse(source)
    assert parse(to_source(e)) == e


def test_bilinear_jet():
    j = parse("u*v").jet(1.0, 2.0, 2)
    assert j.coeff(0, 0) == 2.0
    assert j.coeff(1, 0) == 2.0
    assert j.coeff(0, 1) == 1.0
    assert j.coeff(1, 1) == 1.0
    assert j.coeff(2, 0) == 0.0


def test_sin_jet_pins():
    j = parse("sin(u)").jet(0.0, 0.0, 4)
    assert j.coeff(1, 0) == pytest.approx(1.0, abs=1e-12)
    assert j.coeff(3, 0) == pytest.approx(-1.0 / 6.0, abs=1e-12)
    # cross-check against central differences
    h = 1e-5
    fd = (math.sin(h) - math.sin(-h)) / (2 * h)
    assert j.partial(1, 0) == pytest.approx(fd, abs=1e-6)


def _random_tree(rng, depth):
    """Random expression tree, kept inside everyone's domain by squaring
    sqrt arguments and offsetting denominators."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.4:
            return parse("u")
        if r < 0.8:
            return parse("v")
        return jets.Const(float(rng.uniform(-2, 2)))
    op = rng.integers(0, 8)
    a = _random_tree(rng, depth - 1)
    if op == 0:
        return jets.Add(a, _random_tree(rng, depth - 1))
    if op == 1:
        return jets.Sub(a, _random_tree(rng, depth - 1))
    if op == 2:
        return jets.Mul(a, _random_tree(rng, depth - 1))
    if op == 3:
        den = jets.Add(jets.Mul(a, a), jets.Const(float(rng.uniform(0.5, 2.0))))
        return jets.Div(_random_tree(rng, depth - 1), den)
    if op == 4:
        return jets.Pow(a, int(rng.integers(1, 4)))
    if op == 5:
        return jets.Func(str(rng.choice(["sin", "cos", "sinh", "cosh"])), a)
    if op == 6:
        arg = jets.Add(jets.Mul(a, a), jets.Const(float(rng.uniform(0.5, 2.0))))
        return jets.Func("sqrt", arg)
    return jets.Func("exp", jets.Mul(jets.Const(0.3), a))


def _fd_partial(e, i, j, u0, v0):
    """Central differences with order-appropriate steps.

    A fixed step cannot serve every order: the roundoff of a third-order
    stencil scales like eps/h^3, which at h = 1e-5 is about 0.1 on any
    function, so each order uses a step near its own optimum.
    """
    def f(u, v):
        return e(u, v)
    h = {1: 1e-5, 2: 1e-4, 3: 1e-3}[i + j]
    if (i, j) == (1, 0):
        return (f(u0 + h, v0) - f(u0 - h, v0)) / (2 * h)
    if (i, j) == (0, 1):
        return (f(u0, v0 + h) - f(u0, v0 - h)) / (2 * h)
    if (i, j) == (2, 0):
        return (f(u0 + h, v0) - 2 * f(u0, v0) + f(u0 - h, v0)) / h ** 2
    if (i, j) == (0, 2):
        return (f(u0, v0 + h) - 2 * f(u0, v0) + f(u0, v0 - h)) / h ** 2
    if (i, j) == (1, 1):
        return (f(u0 + h, v0 + h) - f(u0 + h, v0 - h)
                - f(u0 - h, v0 + h) + f(u0 - h, v0 - h)) / (4 * h * h)
    if (i, j) == (3, 0):
        return (f(u0 + 2 * h, v0) - 2 * f(u0 + h, v0)
                + 2 * f(u0 - h, v0) - f(u0 - 2 * h, v0)) / (2 * h ** 3)
    if (i, j) == (0, 3):
        return (f(u0, v0 + 2 * h) - 2 * f(u0, v0 + h)
                + 2 * f(u0, v0 - h) - f(u0, v0 - 2 * h)) / (2 * h ** 3)
    raise ValueError((i, j))


def finite_difference_sweep(cases=1000, seed=20240801, depth=6):
    """Shared oracle: jets vs central differences on random trees.

    Returns the number of failures at relative tolerance 1e-5 (derivative
    orders up to 3; the h^2-truncation of the third-order stencils is the
    accuracy floor, so comparisons are scaled by the derivative magnitude).
    """
    rng = np.random.default_rng(seed)
    failures = 0
    done = 0
    while done < cases:
        e = _random_tree(rng, depth)
        u0, v0 = rng.uniform(-0.8, 0.8, size=2)
        try:
            j5 = e.jet(float(u0), float(v0), 5)
        except JetError:
            continue
        # derivatives beyond the tested order control the truncation error
        # of the difference stencils; keep the tree tame enough for the
        # stated tolerance to be meaningful
        high = np.array([j5.partial(i, k) for (i, k) in
                         [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4), (5, 0), (0, 5)]])
        if not np.all(np.isfinite(high)) or np.max(np.abs(high)) > 1e3:
            continue
        if abs(j5.value()) > 100.0:
            # stencil roundoff scales with |f|; keep it below the tolerance
            continue
        j = j5.truncate(3)
        vals = np.array([j.partial(i, k) for (i, k) in
                         [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (0, 3)]])
        if not np.all(np.isfinite(vals)) or np.max(np.abs(vals)) > 1e3:
            continue
        done += 1
        for (i, k) in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (0, 3)]:
            fd = _fd_partial(e, i, k, float(u0), float(v0))
            exact = j.partial(i, k)
            scale = max(1.0, abs(exact))
            tol = 1e-5 if i + k <= 2 else 5e-4
            if abs(exact - fd) > tol * scale:
                failures += 1
    return failures


def test_finite_difference_cross_validation():
    assert finite_difference_sweep(cases=1000) == 0


def test_leibniz_exact():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = Jet2(4, rng.standard_normal(15))
        b = Jet2(4, rng.standard_normal(15))
        tab = (a * b).c
        # manual truncated convolution in the same graded order
        from swallowkit._jettables import index_of, monomials
        ref = np.zeros(15)
        for (i1, j1) in monomials(4):
            for (i2, j2) in monomials(4):
                if i1 + i2 + j1 + j2 <= 4:
                    ref[index_of(i1 + i2, j1 + j2)] += (
                        a.c[index_of(i1, j1)] * b.c[index_of(i2, j2)])
        assert np.max(np.abs(tab - ref)) < 1e-12


def test_divide_multiply_roundtrip():
    e = parse("v*(1+u) + v^2*sin(u)")
    j = e.jet(0.4, 0.0, 5)
    back = j.divide_by_v().multiply_by_v()
    assert np.max(np.abs(back.c - j.truncate(back.order).c)) < 1e-14


def test_divide_by_v_values():
    j = parse("v*(1+u)").jet(0.3, 0.0, 4).divide_by_v()
    assert j.value() == pytest.approx(1.3)
    with pytest.raises(JetError, match="vanish"):
        parse("u").jet(0.2, 0.0, 3).divide_by_v()


def test_lambda_ratio_on_built_germ(ex217):
    """lambda/v at small v approaches lambda_v(u, 0) computed from jets."""
    from swallowkit.frontal import lambda_jet
    lam0 = lambda_jet(ex217, 0.0, 0.0, 2)
    lv = lam0.partial(0, 1)
    lam_small = lambda_jet(ex217, 0.0, 1e-4, 1).value()
    assert lam_small / 1e-4 == pytest.approx(lv, rel=1e-3)


def test_grid_evaluation_matches_pointwise():
    e = parse("sin(u)*v + u^2/(1+v^2)")
    uu, vv = np.meshgrid(np.linspace(-1, 1, 7), np.linspace(-1, 1, 7))
    jg = e.jet(uu, vv, 2)
    for i in (0, 3, 6):
        for j in (0, 4):
            js = e.jet(uu[i, j], vv[i, j], 2)
            assert jg.coeff(1, 1)[i, j] == pytest.approx(js.coeff(1, 1), abs=1e-14)


def test_series_helpers_batch_matches_columns():
    """p1_* with a trailing batch axis equal the 1-D calls column by column."""
    rng = np.random.default_rng(7)
    a, b = rng.uniform(0.5, 1.5, (9, 5)), rng.uniform(0.5, 1.5, (9, 5))
    f = a.copy()
    f[0] = 0.0
    batched = {"mul": jets.p1_mul(a, b), "div": jets.p1_div(a, b),
               "compose": jets.p1_compose(a, f), "invert": jets.p1_invert(f)}
    for k in range(5):
        cols = {"mul": jets.p1_mul(a[:, k], b[:, k]), "div": jets.p1_div(a[:, k], b[:, k]),
                "compose": jets.p1_compose(a[:, k], f[:, k]), "invert": jets.p1_invert(f[:, k])}
        for name, col in cols.items():
            np.testing.assert_allclose(batched[name][:, k], col, rtol=1e-12, err_msg=name)
    # the reversion inverts: f(g(y)) = y
    y = np.zeros_like(f)
    y[1] = 1.0
    np.testing.assert_allclose(jets.p1_compose(f, batched["invert"]), y, atol=1e-10)


def test_backends_agree():
    from swallowkit import _jetcore_py
    try:
        from swallowkit import _jetcore
    except ImportError:
        pytest.skip("compiled backend not built")
    rng = np.random.default_rng(11)
    for order in (2, 4, 6):
        T = (order + 1) * (order + 2) // 2
        a, b = rng.standard_normal(T), rng.standard_normal(T)
        b[0] += 3.0
        assert np.max(np.abs(_jetcore.jet_mul(a, b, order)
                             - _jetcore_py.jet_mul(a, b, order))) < 1e-12
        assert np.max(np.abs(_jetcore.jet_div(a, b, order)
                             - _jetcore_py.jet_div(a, b, order))) < 1e-12


def test_symbolic_diff_closed():
    e = parse("sqrt(1+u^2)*sin(v)")
    d = diff(e, "u")
    assert isinstance(d, jets.Expr)
    j = d.jet(0.3, 0.7, 0)
    h = 1e-6
    fd = (e(0.3 + h, 0.7) - e(0.3 - h, 0.7)) / (2 * h)
    assert j.value() == pytest.approx(fd, abs=1e-8)


def test_sqrt_domain_error():
    with pytest.raises(JetError, match="sqrt"):
        parse("sqrt(u)").jet(-1.0, 0.0, 2)
