"""Jet engine: parser, coefficient pins, finite-difference cross-validation."""

import itertools
import math

import numpy as np
import pytest

from swallowkit import jets
from swallowkit._jettables import index_of, monomials
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


def test_flat_sum_depth_bound():
    """A 50-term sum parses to the jet of its value; a chain longer than
    jets.MAX_NESTING is a ParseError."""
    from swallowkit.jets import MAX_NESTING
    terms = [f"{k}*u^{k % 4}*v" for k in range(1, 51)]
    got = parse(" + ".join(terms)).jet(0.3, -0.2, 4)
    want = sum(parse(t).jet(0.3, -0.2, 4).c for t in terms)
    np.testing.assert_allclose(got.c, want, rtol=1e-14, atol=1e-14)
    with pytest.raises(ParseError, match="nested deeper"):
        parse("u" + "*u" * (MAX_NESTING + 1))


def test_evaluation_takes_one_frame_per_level():
    """Each node's jet calls its children's jet itself, with no memo: a
    99-level chain evaluates within 150 frames above the caller's."""
    import inspect
    import sys
    e = parse("u" + "*u" * 99)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        j = e.jet(0.5, 0.0, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert j.value() == 0.5 ** 100
    assert j.coeff(1, 0) == pytest.approx(100 * 0.5 ** 99, rel=1e-14)


def test_flat_bins_memo_is_bounded():
    """The flat indices of batched products are kept for at most
    CACHE_BOUND + 1 (bins table, width) pairs, cleared whole as a
    BoundedCache is, and a product after the clear keeps its bits."""
    from swallowkit.jets import CACHE_BOUND
    rng = np.random.default_rng(3)
    a, b = (Jet2(4, rng.standard_normal((15, 3))) for _ in range(2))
    before = (a * b).c
    for order in range(1, 9):
        for width in range(1, 65):
            x = Jet2(order, np.ones(((order + 1) * (order + 2) // 2, width)))
            x * x
            assert len(jets._FLAT_BINS) <= CACHE_BOUND + 1
    assert np.array_equal((a * b).c.view(np.int64), before.view(np.int64))


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
        ref = _naive_mul(a.c, b.c, 4)
        assert np.max(np.abs(tab - ref)) < 1e-12


def _times_v(j):
    """Jet of v f from the jet of f, one order up, monomial by monomial."""
    c = np.zeros(jets.tables.term_count(j.order + 1))
    for (i, k) in monomials(j.order):
        c[index_of(i, k + 1)] = j.c[index_of(i, k)]
    return Jet2(j.order + 1, c)


def test_divide_multiply_roundtrip():
    e = parse("v*(1+u) + v^2*sin(u)")
    j = e.jet(0.4, 0.0, 5)
    back = _times_v(j.divide_by_v())
    assert np.max(np.abs(back.c - j.truncate(back.order).c)) < 1e-14


def test_divide_by_v_values():
    j = parse("v*(1+u)").jet(0.3, 0.0, 4).divide_by_v()
    assert j.value() == pytest.approx(1.3)
    with pytest.raises(JetError, match="vanish"):
        parse("u").jet(0.2, 0.0, 3).divide_by_v()
    # divide_by_u and axis_part equal their per-monomial definitions bit for
    # bit, on scalar and on array coefficients
    rng = np.random.default_rng(2)
    for c in (rng.standard_normal(21), rng.standard_normal((21, 4))):
        c[[index_of(0, j) for j in range(6)]] = 0.0       # vanishes on the v-axis
        j = Jet2(5, c)
        by_u, axis = np.zeros_like(c[:15]), c.copy()
        for (i, k) in monomials(4):
            by_u[index_of(i, k)] = c[index_of(i + 1, k)]
        for (i, k) in monomials(5):
            if k > 0:
                axis[index_of(i, k)] = 0.0
        assert np.array_equal(j.divide_by_u().c, by_u)
        assert np.array_equal(j.axis_part().c, axis)


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


def _newton_invert(f):
    """Series reversion by Newton steps on f(g) = y over jets of u alone,
    doubling the correct coefficients each step: a reference for
    Jet2.reversion."""
    F = Jet2.of_series(f)
    fp = F.du().series()
    y = Jet2.variable("u", 0.0, F.order)
    g = y * (1.0 / f[1])
    for _ in range(max(1, math.ceil(math.log2(max(len(f), 2))) + 1)):
        g = g - (jets._apply_series(f, g) - y) / jets._apply_series(fp, g)
    return g.series()


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _revert(f):
    """The series of the reversion of the jet of u alone of series f."""
    return Jet2.of_series(f).reversion().series()


def test_series_reversion_batch_matches_columns():
    """Jet2.reversion with a trailing batch axis equals the lone calls slot
    by slot, bit for bit, and gives a jet of u alone; it inverts,
    f(g(y)) = y, and agrees with Newton's reversion on jets of u alone to
    1e-13."""
    rng = np.random.default_rng(7)
    f = rng.uniform(0.5, 1.5, (9, 5))
    f[0] = 0.0
    assert Jet2.of_series(f).reversion().u_only
    g = _revert(f)
    for k in range(5):
        np.testing.assert_array_equal(_bits(g[:, k]), _bits(_revert(f[:, k])))
    y = np.zeros_like(f)
    y[1] = 1.0
    np.testing.assert_allclose(jets._apply_series(f, Jet2.of_series(g)).series(), y, atol=1e-10)
    np.testing.assert_allclose(g, _newton_invert(f), rtol=1e-13, atol=0.0)


def test_series_reversion_is_truncation_exact():
    """The reversion of the first m coefficients is the first m of the
    whole reversion, bit for bit, for a lone series and for a batch."""
    rng = np.random.default_rng(19)
    f = rng.uniform(-1.5, 1.5, (13, 4))
    f[0] = 0.0
    for g, ff in ((_revert(f), f), (_revert(f[:, 2]), f[:, 2])):
        for m in range(2, 13):
            np.testing.assert_array_equal(_bits(_revert(ff[:m])), _bits(g[:m]))


def _naive_mul(a, b, order):
    """Truncated product by a double loop over the monomials."""
    out = np.zeros_like(a)
    for (i1, j1) in monomials(order):
        for (i2, j2) in monomials(order):
            if i1 + i2 + j1 + j2 <= order:
                out[index_of(i1 + i2, j1 + j2)] += a[index_of(i1, j1)] * b[index_of(i2, j2)]
    return out


def _naive_div(a, b, order):
    """a / b by the triangular recurrence, one coefficient slot at a time."""
    out = np.zeros_like(a)
    for (i, j) in monomials(order):
        acc = a[index_of(i, j)]
        for (p, q) in monomials(order):
            if (p, q) != (0, 0) and p <= i and q <= j:
                acc = acc - out[index_of(i - p, j - q)] * b[index_of(p, q)]
        out[index_of(i, j)] = acc / b[0]
    return out


def test_kernels_match_naive_recurrences():
    """Jet2 * and / against the definitions, at orders 0-12, on scalar
    coefficients and on a batch of 16: the product bit for bit, the
    quotient to 1e-14 relative."""
    rng = np.random.default_rng(11)
    for order in range(13):
        T = (order + 1) * (order + 2) // 2
        for shape in ((T,), (T, 16)):
            a, b = rng.standard_normal(shape), rng.standard_normal(shape)
            b[0] += 3.0
            prod = (Jet2(order, a) * Jet2(order, b)).c
            assert np.array_equal(prod, _naive_mul(a, b, order)), (order, shape)
            quot, ref = (Jet2(order, a) / Jet2(order, b)).c, _naive_div(a, b, order)
            assert np.max(np.abs(quot - ref)) <= 1e-14 * np.max(np.abs(ref)), (order, shape)


def test_batched_kernels_equal_their_columns_bit_for_bit():
    """A batch of jets (trailing shape (N,) or (m, n)) multiplies and divides
    column by column exactly as the scalar kernels do, at orders 0-8, with
    0.0, -0.0, inf and nan among the coefficients: the int64 views agree,
    so the sign of every zero and the payload of every NaN does too."""
    rng = np.random.default_rng(12)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    for order in range(9):
        T = (order + 1) * (order + 2) // 2
        for shape in ((T, 37), (T, 5, 6)):
            a, b = rng.standard_normal(shape), rng.standard_normal(shape)
            for x in (a, b):
                hit = rng.random(shape) < 0.2
                x[hit] = rng.choice(special, hit.sum())
            with np.errstate(all="ignore"):
                for kernel in (jets._jet_mul, jets._jet_div):
                    batched = kernel(a, b, order)
                    for k in np.ndindex(shape[1:]):
                        col = (slice(None),) + k
                        want = kernel(a[col], b[col], order)
                        assert np.array_equal(batched[col].view(np.int64), want.view(np.int64)), \
                            (kernel.__name__, order, shape, k)


def _u_only_operands(rng, order, shape):
    """Coefficients of two jets of u alone: random pure-u coefficients, every
    other one 0.0 or -0.0."""
    ax = jets.tables.axis_indices(order)
    out = []
    for _ in range(2):
        c = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        c[ax] = rng.standard_normal((len(ax),) + shape[1:])
        out.append(c)
    return out


def test_u_only_kernels_equal_the_full_tables_bit_for_bit():
    """The product and the quotient of two jets of u alone, over the pure-u
    tables, give the bits of the full tables (int64 views) at orders 0-12,
    on scalar coefficients, at width 21 and on a (4, 21) batch of points by
    slots; off the axis the quotient holds a/b0, a zero of the sign of a
    times that of b0, as the full solve does.  An inf or a NaN among the
    pure-u coefficients makes NaN off the axis of the full sums (inf times
    0.0), and the kernels fall back to the full tables there, so the bits
    still agree."""
    rng = np.random.default_rng(15)
    for order in range(13):
        T = (order + 1) * (order + 2) // 2
        off = np.ones(T, dtype=bool)
        off[jets.tables.axis_indices(order)] = False
        for shape in ((T,), (T, 21), (T, 4, 21)):
            a, b = _u_only_operands(rng, order, shape)
            for sign in (1.0, -1.0):
                b[0] = sign * (3.0 + np.abs(b[0]))
                for kernel in (jets._jet_mul, jets._jet_div):
                    got = kernel(a, b, order, True)
                    np.testing.assert_array_equal(_bits(got), _bits(kernel(a, b, order)))
                got = (Jet2(order, a, True) / Jet2(order, b, True)).c
                np.testing.assert_array_equal(_bits(got), _bits((Jet2(order, a) / Jet2(order, b)).c))
                assert np.all(np.signbit(got[off]) == (np.signbit(a[off]) ^ (sign < 0.0)))
            if order == 0:
                continue
            for bad, i in itertools.product((np.inf, -np.inf, np.nan), (0, order - 1, order)):
                x = a.copy()
                x[index_of(i, 0)] = bad
                with np.errstate(all="ignore"):
                    for kernel in (jets._jet_mul, jets._jet_div):
                        for p, q in ((x, b), (b, x)):
                            want = kernel(p, q, order)
                            if kernel is jets._jet_mul and i < order:
                                assert np.isnan(want[off]).any()
                            np.testing.assert_array_equal(_bits(kernel(p, q, order, True)),
                                                          _bits(want))


def test_u_only_claim_follows_the_operations():
    """constant, variable("u") and axis_part claim u alone, variable("v") and
    raw coefficients do not; the arithmetic, truncate, du, divide_by_u,
    the elementary functions, compose2 and powers carry the claim."""
    u, v = Jet2.variable("u", 0.3, 5), Jet2.variable("v", 0.2, 5)
    one = Jet2.constant(1.5, 5)
    assert u.u_only and one.u_only and not v.u_only and not Jet2(5, u.c).u_only
    assert (u + v).axis_part().u_only
    for j in (u + one, u - 2.0, -u, u * one, 2.0 * u, u * np.ones(3), u / one, 1.0 / u,
              u / 2.0, u ** 3, u ** -2, u.truncate(3), u.truncate(7), u.du(),
              Jet2.variable("u", 0.0, 5).divide_by_u(),
              jets.jet_exp(u), jets.jet_sqrt(u), jets.jet_sin(u),
              jets.compose2(np.arange(21.0), 5, u, one)):
        assert j.u_only
    for j in (u + v, u * v, u / (one + v), jets.jet_exp(v), jets.compose2(np.arange(21.0), 5, u, v)):
        assert not j.u_only


def test_symbolic_diff_closed():
    h = 1e-6
    for source in ("sqrt(1+u^2)*sin(v)", "sin(u*v)", "cos(u*v)", "sinh(u*v)",
                   "cosh(u*v)", "exp(u*v)", "sqrt(1 + u*v)"):
        e = parse(source)
        d = diff(e, "u")
        assert isinstance(d, jets.Expr)
        j = d.jet(0.3, 0.7, 0)
        fd = (e(0.3 + h, 0.7) - e(0.3 - h, 0.7)) / (2 * h)
        assert j.value() == pytest.approx(fd, abs=1e-8), source


def test_nodes_are_frozen_values():
    """Nodes compare and hash by class and fields, and refuse assignment."""
    source = "sin(u)*v^2 - 3/(1 + u)"
    e = parse(source)
    assert e == parse(source) and hash(e) == hash(parse(source))
    assert jets.Add(jets.U, jets.V) != jets.Sub(jets.U, jets.V)
    assert jets.Const(2) == jets.Const(2.0) and type(jets.Const(2).value) is float
    for node, name in ((e, "a"), (jets.U, "name"), (e, "other"), (jets.ONE, "other")):
        with pytest.raises(AttributeError):
            setattr(node, name, jets.V)
    with pytest.raises(ValueError):
        jets.Var("w")
    with pytest.raises(ValueError):
        jets.Func("tan", jets.U)
    with pytest.raises(TypeError):
        jets.Pow(jets.U, 2.0)


def test_poly_u_coeffs_reads_polynomials_in_u():
    assert list(jets.poly_u_coeffs(parse("(1 + u)*(3*u - u^2)/2"))) == [0.0, 1.5, 1.0, -0.5]
    for source in ("u + v", "u*v - 1", "sin(u)", "1/(1 + u)", "u^-1"):
        assert jets.poly_u_coeffs(parse(source)) is None, source
    assert to_source(jets.integrate_u_times(parse("2 + 3*u"))) == "u^2 + u^3"


def test_poly2_coeffs_stops_past_the_degree_bound():
    """A product or a power of total degree above MAX_NESTING is no
    polynomial to poly2_coeffs, found before it is expanded: the closed-form
    primitive it feeds is a sum one level per term."""
    assert len(jets.poly2_coeffs(parse("(1+u)^100"))) == 101
    for source in ("(1+u)^101", "(1+u)^50*(1+u)^51", "u^1000000"):
        assert jets.poly2_coeffs(parse(source)) is None, source


def test_sqrt_domain_error():
    """jet_sqrt of a non-positive constant term raises JetError; so do a
    batched jet_sqrt, / and divide_by_v with one bad slot, for the batch."""
    with pytest.raises(JetError, match="sqrt"):
        parse("sqrt(u)").jet(-1.0, 0.0, 2)
    rng = np.random.default_rng(14)
    pos = Jet2(3, rng.standard_normal((10, 5)))
    pos.c[0] = [1.0, 2.0, 0.5, 3.0, 1.5]
    on_axis = Jet2(3, rng.standard_normal((10, 5)))
    on_axis.c[jets.tables.axis_indices(3)] = 0.0
    cases = ((jets.jet_sqrt, pos, 0, -1.0, "sqrt"),
             (lambda x: 1.0 / x, pos, 0, 0.0, "zero constant term"),
             (lambda x: x.divide_by_v(), on_axis, index_of(1, 0), 1.0, "vanish"))
    for fn, x, k, value, match in cases:
        fn(x)
        bad = Jet2(3, x.c.copy())
        bad.c[k, 2] = value
        with pytest.raises(JetError, match=match):
            fn(bad)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_batch_axes_align_from_the_left():
    """A jet with fewer batch axes, or an array multiplying or dividing a
    jet, gets trailing axes of length 1: (15,) meets (15, 21) and (15, 4)
    meets (15, 4, 3), and every slot is bit for bit the operation on that
    slot alone (int64 views)."""
    rng = np.random.default_rng(13)
    T = 15
    lone = Jet2(4, rng.standard_normal(T))
    for shape in ((T, 21), (T, 4, 3)):
        batch = Jet2(4, rng.standard_normal(shape))
        batch.c[0] += 3.0
        small = lone if len(shape) == 2 else Jet2(4, rng.standard_normal((T, shape[1])))
        ops = (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a / b, lambda a, b: a - b)
        for op in ops:
            for a, b in ((small, batch), (batch, small)):
                got = op(a, b).c
                assert got.shape == shape
                for k in np.ndindex(shape[1:]):
                    want = op(*(Jet2(4, x.c[(slice(None),) + k[:x.c.ndim - 1]])
                                for x in (a, b))).c
                    np.testing.assert_array_equal(_bits(got[(slice(None),) + k]), _bits(want))
    w = rng.standard_normal(21)
    for got in ((lone * w).c, (w * lone).c):
        assert got.shape == (T, 21)
        for j in range(21):
            np.testing.assert_array_equal(_bits(got[:, j]), _bits((lone * w[j]).c))
    grid, w4 = Jet2(4, rng.standard_normal((T, 4, 3))), rng.standard_normal(4)
    got = (grid * w4).c
    for i, j in np.ndindex(4, 3):
        np.testing.assert_array_equal(_bits(got[:, i, j]), _bits((Jet2(4, grid.c[:, i, j]) * w4[i]).c))
    got = (lone / w).c
    assert got.shape == (T, 21)
    for j in range(21):
        np.testing.assert_array_equal(_bits(got[:, j]), _bits(Jet2(4, lone.c / w[j]).c))
    # a (4,) divisor of a (T, 4, 4) grid divides row i by w4[i], not column i
    square = Jet2(4, rng.standard_normal((T, 4, 4)))
    got = (square / w4).c
    for i, j in np.ndindex(4, 4):
        np.testing.assert_array_equal(_bits(got[:, i, j]), _bits(Jet2(4, square.c[:, i, j] / w4[i]).c))


def _compose2_per_monomial(gc, order_g, U, V):
    """compose2 as it tested each monomial's coefficient on its own."""
    order = min(U.order, V.order)
    Uh = Jet2(order, U.truncate(order).c.copy())
    Vh = Jet2(order, V.truncate(order).c.copy())
    Uh.c[0] = np.zeros_like(Uh.c[0])
    Vh.c[0] = np.zeros_like(Vh.c[0])
    shape = np.broadcast_shapes(Uh.c.shape[1:], Vh.c.shape[1:])
    out = Jet2.constant(0.0, order, shape)
    upow = [Jet2.constant(1.0, order, shape)]
    for i in range(1, min(order, order_g) + 1):
        upow.append(upow[-1] * Uh)
    for (i, j) in monomials(order_g):
        g = gc[index_of(i, j)]
        if np.all(g == 0.0) or i > order:
            continue
        term = upow[i]
        for _ in range(j):
            term = term * Vh
        out = out + term * g
    return out


def test_compose2_skips_the_terms_the_per_monomial_test_skipped():
    """compose2's one zero test per call skips the same terms as a test per
    monomial, and its chain of powers U^i V^j from U^i V^(j-1) gives the bits
    of a chain per monomial: lone and batched, with rows of 0.0 and -0.0
    (skipped), rows zero in some slots only and rows holding NaN (kept), and
    for U and V of u alone at order 10 (make_admissible's singular curve);
    int64 views."""
    rng = np.random.default_rng(15)
    for order_g, order, u_alone in ((4, 4, False), (5, 3, False), (3, 6, False),
                                    (10, 10, False), (10, 10, True), (4, 6, True)):
        T = (order_g + 1) * (order_g + 2) // 2
        for batch in ((), (7,), (3, 4)):
            gc = rng.standard_normal((T,) + batch)
            gc[1] = 0.0
            gc[3] = -0.0
            if batch:
                gc[4][(0,) * len(batch)] = 0.0
                gc[5][(1,) * len(batch)] = np.nan
            else:
                gc[5] = np.nan
            terms = (order + 1) * (order + 2) // 2
            if u_alone:
                U = Jet2.of_series(rng.standard_normal(order + 1))
                V = Jet2.of_series(rng.standard_normal((order + 1,) + batch[:1]))
            else:
                U = Jet2(order, rng.standard_normal(terms))
                V = Jet2(order, rng.standard_normal((terms,) + batch[:1]))
            got = jets.compose2(gc, order_g, U, V).c
            want = _compose2_per_monomial(gc, order_g, U, V).c
            assert got.shape == want.shape
            np.testing.assert_array_equal(_bits(got), _bits(want))
