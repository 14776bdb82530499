"""Space-cusps, half-arclength normalization, Frenet integration."""

import numpy as np
import pytest

from swallowkit.curves import (CHECK_BLOCK, CurveError, CurveGerm, FrenetData, FrenetPath,
                               _frenet_series, classify_cusp, curvature_torsion_of, factor_cusp, integrate_frenet,
                               mirror_properties, normalize_half_arclength)
from swallowkit.deform import XiInterpolation
from swallowkit.fields import horner, rk4_step, xi_frame
from swallowkit.jets import Jet2, compose2, parse


class ComposeU:
    """Provider of f(phi(u), v) for a scalar provider phi of u."""

    def __init__(self, base, phi):
        self.base, self.phi = base, phi

    def jet(self, u, v, order):
        ph = self.phi.jet(u, 0.0, order)
        inner = self.base.jet(ph.value(), v, order)
        vj = Jet2.variable("v", v, order, np.shape(u))
        return compose2(inner.c, order, ph, vj)


def test_factor_cusp_planar():
    f = factor_cusp(CurveGerm(gamma=("u^2", "u^3", "0")))
    xj = f.jets(0.5, 1)
    assert [j.value() for j in xj] == pytest.approx([2.0, 1.5, 0.0])
    xi0, xi1, _ = xi_frame(f.xi, 0.0, 2)
    assert xi0 == pytest.approx([2, 0, 0])
    assert xi1 == pytest.approx([0, 3, 0])


def test_factor_cusp_generic():
    f = factor_cusp(CurveGerm(gamma=("u^2/2", "u^3/3", "u^4/4")))
    assert [j.value() for j in f.jets(0.2, 0)] == pytest.approx([1.0, 0.2, 0.04])


def test_factor_requires_singular_point():
    with pytest.raises(CurveError, match="not a singular curve point"):
        factor_cusp(CurveGerm(gamma=("u", "0", "0")))


def test_classify_cusp():
    non = classify_cusp(factor_cusp(CurveGerm(gamma=("u^2", "u^3", "0"))))
    assert non.kind == "non_generic"
    right = classify_cusp(factor_cusp(CurveGerm(gamma=("u^2/2", "u^3/3", "u^4/4"))))
    assert right.kind == "generic" and right.handedness == "right"
    assert right.det == pytest.approx(2.0)
    left = classify_cusp(factor_cusp(CurveGerm(gamma=("u^2/2", "u^3/3", "0-u^4/4"))))
    assert left.kind == "generic" and left.handedness == "left"
    assert left.det == pytest.approx(-2.0)
    flat = classify_cusp(factor_cusp(CurveGerm(gamma=("u^3", "0", "0"))))
    assert flat.kind == "not_a_cusp"


def test_mirror_properties():
    f = factor_cusp(CurveGerm(gamma=("u^2/2", "u^3/3", "u^4/4")))
    m = mirror_properties(f)
    assert m["original"].handedness == "right"
    assert m["u_reversed"].handedness == "left"
    assert m["negated"].handedness == "left"
    # and back: a left cusp mirrors to right
    g = factor_cusp(CurveGerm(gamma=("u^2/2", "u^3/3", "0-u^4/4")))
    mg = mirror_properties(g)
    assert mg["u_reversed"].handedness == "right"
    assert mg["negated"].handedness == "right"
    # non-generic mirrors stay non-generic
    n = mirror_properties(factor_cusp(CurveGerm(gamma=("u^2", "u^3", "0"))))
    assert n["u_reversed"].kind == "non_generic"
    assert n["negated"].kind == "non_generic"


def test_classification_parametrization_invariant():
    """Admissible reparametrizations u = phi(s), phi(0)=0, phi'(0)>0."""
    from swallowkit.jets import Const, Mul, Pow, U as UVAR, Add
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 100:
        c2 = rng.uniform(0.3, 2.0)
        c3 = rng.uniform(-1.5, 1.5)
        c4 = rng.uniform(-1.5, 1.5)
        gamma = (Mul(Const(c2), Pow(UVAR, 2)),
                 Add(Mul(Const(c3), Pow(UVAR, 3)), Mul(Const(0.3), Pow(UVAR, 2))),
                 Add(Mul(Const(c4), Pow(UVAR, 4)), Mul(Const(0.1), Pow(UVAR, 3))))
        base = classify_cusp(factor_cusp(CurveGerm(gamma=gamma)))
        a1 = rng.uniform(0.4, 1.8)
        a2 = rng.uniform(-0.5, 0.5)
        phi = Add(Mul(Const(a1), UVAR), Mul(Const(a2), Pow(UVAR, 2)))
        re_gamma = tuple(ComposeU(g, phi) for g in gamma)
        curve = CurveGerm(re_gamma)
        re_cls = classify_cusp(factor_cusp(curve))
        if base.indeterminate or re_cls.indeterminate:
            continue
        assert re_cls.kind == base.kind, (gamma, a1, a2)
        if base.kind == "generic":
            assert re_cls.handedness == base.handedness
        checked += 1


def test_normalize_half_arclength():
    curve = CurveGerm(gamma=("u^2", "u^3", "0"))
    norm, fact, H = normalize_half_arclength(curve)
    for u in (0.1, -0.1, 0.01, -0.01):
        xhat = np.array([j.value() for j in fact.jets(u, 0)])
        assert np.linalg.norm(xhat) == pytest.approx(1.0, abs=1e-8)
        gj = norm.jets(u, 1)
        gp = np.array([j.partial(1, 0) for j in gj])
        assert gp / u == pytest.approx(xhat, abs=1e-7)


def test_normalize_identity_when_unit():
    """A curve whose factorization field is already unit keeps its parameter."""
    curve = CurveGerm(gamma=("u^2/2", "0", "0"))
    _, fact, H = normalize_half_arclength(curve)
    assert H.t_of_u(0.3) == pytest.approx(0.3, abs=1e-12)
    assert H.t_of_u(-0.2) == pytest.approx(-0.2, abs=1e-12)


def test_normalize_requires_nonzero_second_derivative():
    with pytest.raises(CurveError):
        normalize_half_arclength(CurveGerm(gamma=("u^3", "0", "0")))


def test_frenet_circle():
    path = integrate_frenet(FrenetData(kappa="1", tau="0"),
                            interval=(0.0, 2 * np.pi + 1e-3))
    assert np.linalg.norm(path.gamma(2 * np.pi) - path.gamma(0.0)) < 1e-6
    T, N, B = path.frame(1.2)
    assert np.linalg.norm(T) == pytest.approx(1.0, abs=1e-9)


def test_frenet_helix_recovers_curvature_torsion():
    path = integrate_frenet(FrenetData(kappa="1", tau="1"), interval=(-1, 1))
    k, t = curvature_torsion_of(path.xi_providers(), 0.3)
    assert k.value() == pytest.approx(1.0, abs=1e-5)
    assert t.value() == pytest.approx(1.0, abs=1e-5)
    # closed form: radius r = k/(k^2+t^2), pitch c = t/(k^2+t^2)
    r, c = 0.5, 0.5
    assert r / (r * r + c * c) == pytest.approx(1.0)


def test_frenet_orthonormality_along_path():
    path = integrate_frenet(FrenetData(kappa="1+u^2", tau="0.5"), interval=(-1, 1))
    for u in np.linspace(-1, 1, 9):
        T, N, B = path.frame(float(u))
        G = np.stack([T, N, B])
        assert np.max(np.abs(G @ G.T - np.eye(3))) < 1e-9


def test_frenet_requires_positive_curvature():
    with pytest.raises(CurveError, match=r"kappa\(0\.0\) = 0\.0 <= 0"):
        integrate_frenet(FrenetData(kappa="u", tau="0"), interval=(-1, 1))


class _Columns:
    """Provider whose jets carry a trailing axis with a slot per expression."""

    def __init__(self, *texts):
        self.exprs = [parse(e) for e in texts]

    def jet(self, u, v, order):
        return Jet2(order, np.stack([e.jet(u, v, order).c for e in self.exprs], axis=-1))


def test_frenet_batch_rejects_nonpositive_kappa_in_any_column():
    """kappa <= 0 in one column of a batch raises the error of that path
    marched alone, naming the first bad abscissa."""
    with pytest.raises(CurveError) as alone:
        integrate_frenet(FrenetData(kappa="0.5-u", tau="0"), interval=(-1, 1))
    assert "<= 0 on the integration interval" in str(alone.value)

    batch = FrenetData(kappa=_Columns("1", "0.5-u", "2"), tau="0",
                       frame0=np.repeat(np.eye(3)[..., None], 3, axis=2))
    with pytest.raises(CurveError) as err:
        FrenetPath(batch, interval=(-1, 1))
    assert str(err.value) == str(alone.value)


def _rk4_states(path, h):
    """The states of path at the multiples of h in its interval, by a
    classical RK4 march of the Frenet equations from 0 with step h, kappa
    and tau read at every abscissa from one array call of each provider."""
    a, b = path.interval
    out = [(0.0, path.state(0.0))]
    for end, sign in ((b, 1.0), (a, -1.0)):
        m = round(abs(end) / h)
        xs = sign * 0.5 * h * np.arange(2 * m + 1)
        k, t = (np.reshape(p.jet(xs, 0.0, 0).value(), (len(xs), -1))
                for p in (path.data.kappa, path.data.tau))

        def rhs(x, Y):
            i = round(2 * abs(x) / h)
            T, N, B = Y[0:3], Y[3:6], Y[6:9]
            return np.concatenate([k[i] * N, -k[i] * T + t[i] * B, -t[i] * N, T, x * T])
        Y = out[0][1]
        for j in range(m):
            Y = rk4_step(rhs, sign * j * h, Y, sign * h)
            out.append((sign * (j + 1) * h, Y))
    return out


def _helix_path():
    return XiInterpolation(tuple(parse(c) for c in ("0.8*cos(u)", "0.8*sin(u)", "0.6")),
                           tuple(parse(c) for c in ("0.6*cos(u)", "0.6*sin(u)", "0.8"))
                           ).march([0.2, 0.5, 0.9])


def test_frenet_taylor_march_agrees_with_an_rk4_march():
    """The Taylor march (order 8, step 0.025) agrees with an RK4 march at
    every point of the RK4 grid, every node among them, to 1e-10 at step
    1e-3 for the helix interpolation and for kappa = 1 + u^2, tau = 0.5."""
    paths = [_helix_path(),
             integrate_frenet(FrenetData(kappa="1+u^2", tau="0.5"), interval=(-1, 1)).path]
    for path in paths:
        states = _rk4_states(path, 1e-3)
        ref_at = {round(x, 9): ref for x, ref in states}
        for x, ref in states + [(x, ref_at[round(x, 9)]) for x in path.dense.edges]:
            assert np.max(np.abs(path.state(x) - ref)) <= 1e-10, x


@pytest.mark.parametrize("kappa, bound", [("1+0.5/(1+10000*u^2)", 2e-9), ("100", 2e-8)])
def test_frenet_split_steps_agree_with_an_rk4_march(kappa, bound):
    """Where a step of 0.025 is too long for its series (kappa's series
    converge only out to 0.01 around 0, or kappa h = 2.5), the march splits
    it, and agrees with an RK4 march of step 1e-4 at every point of its
    grid (seen 3.6e-10 and 2.0e-9, the RK4 march's own error for kappa =
    100; unsplit, the first step of the narrow bump turned the tangent the
    wrong way)."""
    path = integrate_frenet(FrenetData(kappa=kappa, tau="0"), interval=(-0.3, 0.3)).path
    assert len(path.dense.starts) > 24
    for x, ref in _rk4_states(path, 1e-4):
        assert np.max(np.abs(path.state(x) - ref)) <= bound, x


def test_frenet_dense_output_is_bit_continuous_at_every_node():
    """At each node the polynomials of the two steps that meet there give
    the same bits, and state() reads one of them."""
    for path in (_helix_path(), integrate_frenet(FrenetData(kappa="1+u^2", tau="0.5", step=0.02),
                                                 interval=(-0.4, 0.9)).path):
        d = path.dense
        for k in range(len(d.starts) - 1):
            x = d.edges[k + 1]
            below, above = (horner(d.coeffs[i], x - d.starts[i])[0] for i in (k, k + 1))
            assert np.array_equal(below.view(np.int64), above.view(np.int64)), x
            assert np.array_equal(path.state(x).view(np.int64), below.view(np.int64)), x


class _Counting:
    """Provider of an expression that records the (u, order) of each read."""

    def __init__(self, text, calls):
        self.expr, self.calls = parse(text), calls

    def jet(self, u, v, order):
        self.calls.append((np.array(u), order))
        return self.expr.jet(u, v, order)


def test_frenet_step_starts_read_one_array_call_of_each_provider():
    """The march reads the check grid at order 0, both providers an equal
    block of at most CHECK_BLOCK points at a time, then the kappa and tau series
    at every step start, each start once, in one array call of each
    provider; the steps, none of them split here, call neither."""
    calls = []
    path = integrate_frenet(FrenetData(kappa=_Counting("2+u", calls), tau=_Counting("u", calls),
                                       step=0.02), (-0.3, 0.5)).path
    blocks = [len(b) for b in np.array_split(np.arange(1601), -(-1601 // CHECK_BLOCK))]
    assert [(np.shape(u), o) for u, o in calls] == (
        [((m,), 0) for m in blocks for _ in range(2)] + [((39,), 7)] * 2)
    grid = np.concatenate([u for u, _ in calls[:-2:2]])
    assert np.array_equal(grid, np.concatenate([u for u, _ in calls[1:-2:2]]))
    assert grid[0] == 0.0 and grid[-1] == -0.3 and 0.5 in grid
    starts = calls[-1][0]
    assert np.unique(starts).size == starts.size
    assert set(starts) == set(path.dense.starts)


@pytest.mark.parametrize("interval, blocks", [(XiInterpolation.INTERVAL, [1201]),
                                             ((-0.6, 0.6), [1201, 1200])])
def test_frenet_check_grid_is_read_in_equal_blocks(interval, blocks):
    """The order-0 check grid of spacing 5e-4 is one read of each provider
    on the interval of an xi-interpolation march, and equal blocks of at
    most CHECK_BLOCK points, in the order of the grid, on a longer one."""
    calls = []
    integrate_frenet(FrenetData(kappa=_Counting("2+u", calls), tau=_Counting("u", calls)),
                     interval)
    grid = [u for u, o in calls if o == 0]
    assert [len(u) for u in grid] == [m for m in blocks for _ in range(2)]
    assert max(blocks) <= CHECK_BLOCK
    assert np.array_equal(np.concatenate(grid[::2]), np.concatenate(grid[1::2]))


def _frenet_series_by_sums(Y, kser, tser, u0, order):
    """The Frenet series recurrence with one Python sum per convolution, in
    the order of its terms: the reference of _frenet_series."""
    S = np.zeros((order + 1,) + Y.shape)
    S[0] = Y
    T, N, B, G, G2 = (S[:, k:k + 3] for k in range(0, 15, 3))
    for n in range(order):
        conv_kN = sum(kser[m] * N[n - m] for m in range(n + 1))
        conv_kT = sum(kser[m] * T[n - m] for m in range(n + 1))
        conv_tB = sum(tser[m] * B[n - m] for m in range(n + 1))
        conv_tN = sum(tser[m] * N[n - m] for m in range(n + 1))
        T[n + 1] = conv_kN / (n + 1)
        N[n + 1] = (-conv_kT + conv_tB) / (n + 1)
        B[n + 1] = -conv_tN / (n + 1)
        G[n + 1] = T[n] / (n + 1)
        ut = u0 * T[n] + (T[n - 1] if n >= 1 else 0.0)
        G2[n + 1] = ut / (n + 1)
    return S


def _frenet_inputs(rng, nan=False):
    """Random (Y, kser, tser, u0, order) of _frenet_series: 1 to 25 columns,
    with or without an axis of points, orders 1 to 9, kappa and tau with
    order or order + 1 rows, a tenth of the entries +0.0 and a tenth -0.0,
    and some NaN if nan."""
    order, cols = int(rng.integers(1, 10)), int(rng.integers(1, 26))
    shape = ((int(rng.integers(1, 6)),) if rng.random() < 0.5 else ()) + (cols,)

    def draw(*s):
        x = rng.standard_normal(s)
        r = rng.random(s)
        x[r < 0.2] = 0.0
        x[r < 0.1] = -0.0
        if nan:
            x[rng.random(s) < 0.02] = np.nan
        return x
    rows = order + int(rng.integers(0, 2))
    u0 = draw(*shape[:-1], 1) if len(shape) > 1 else float(draw(1)[0])
    return draw(15, *shape), draw(rows, *shape), draw(rows, *shape), u0, order


def test_frenet_series_holds_the_bits_of_one_sum_per_convolution():
    """The stacked recurrence of _frenet_series holds, on 400 random finite
    inputs with signed zeros, the bits of the reference with one sum per
    convolution; on inputs holding NaN its NaN fall in the same slots."""
    rng = np.random.default_rng(37)
    for nan in (False, True):
        for _ in range(400 if not nan else 100):
            args = _frenet_inputs(rng, nan)
            got, want = _frenet_series(*args), _frenet_series_by_sums(*args)
            assert got.shape == want.shape
            if nan:
                assert np.array_equal(np.isnan(got), np.isnan(want))
                got, want = np.nan_to_num(got), np.nan_to_num(want)
            np.testing.assert_array_equal(_bits(got), _bits(want))


def test_frenet_unit_speed():
    path = integrate_frenet(FrenetData(kappa="2", tau="0.3"), interval=(-1, 1))
    for u in (-0.8, 0.0, 0.9):
        xj = [c for c in (path.series(u, 1)[0])]
        # first row is T(u): unit
        assert np.linalg.norm(path.series(u, 0)[0][0]) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Half-arclength: Gauss-Legendre phi table and vectorized t(u)
# ---------------------------------------------------------------------------

_C, _S = np.cos(0.4), np.sin(0.4)
_XI_FIELDS = {
    "rotated": (f"{_C} - {_S}*u", f"{_S} + {_C}*u", "1.5*u^2"),
    "exp": ("exp(u)", "u", "1"),
}


def _half_arclength(name):
    from swallowkit.builder import gamma_from_xi
    from swallowkit.curves import HalfArclength
    xi = tuple(parse(c) for c in _XI_FIELDS[name])
    curve = CurveGerm(gamma_from_xi(xi))
    return HalfArclength(curve, xi=xi), xi


@pytest.mark.parametrize("name", sorted(_XI_FIELDS))
def test_half_arclength_inverts_phi(name):
    """phi(t(u)) = u^2/2, with phi from a tight adaptive quadrature."""
    import warnings
    from scipy.integrate import quad
    H, xi = _half_arclength(name)

    def integrand(s):
        return s * np.sqrt(sum(c.jet(s, 0.0, 0).value() ** 2 for c in xi))

    us = np.linspace(-0.3, 0.3, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # quad reports its roundoff floor
        for u, t in zip(us, H.t_of_u(us)):
            phi, _ = quad(integrand, 0.0, t, epsabs=1e-17, epsrel=1e-14, limit=200)
            assert abs(phi - 0.5 * u * u) < 1e-13, (u, t)


def test_half_arclength_phi_continuous_across_panels():
    H, _ = _half_arclength("rotated")
    mids = (np.arange(-450, 450) + 0.5) * H._table._h        # includes 0.051, 0.251, 0.901
    jump = np.abs(H.phi(np.nextafter(mids, np.inf)) - H.phi(np.nextafter(mids, -np.inf)))
    assert jump.max() < 1e-14


@pytest.mark.parametrize("name", sorted(_XI_FIELDS))
def test_half_arclength_array_matches_scalar_bitwise(name):
    """Array and scalar t(u) agree bit for bit, whichever comes first, also
    past the end of the initial table (|u| = 2.5)."""
    us = np.concatenate([np.linspace(-0.3, 0.3, 601), [1e-9, -1e-9, 2.5, -2.5]])
    H, _ = _half_arclength(name)
    ts = H.t_of_u(us)
    scalar = np.array([H.t_of_u(float(u)) for u in us])
    np.testing.assert_array_equal(ts, scalar)
    H2, _ = _half_arclength(name)
    scalar2 = np.array([H2.t_of_u(float(u)) for u in us[::-1]])[::-1]
    np.testing.assert_array_equal(H2.t_of_u(us), scalar2)
    np.testing.assert_array_equal(scalar2, scalar)
    assert H.t_of_u(0.0) == 0.0 and ts[300] == 0.0


@pytest.mark.parametrize("name", sorted(_XI_FIELDS))
def test_u_series_reads_the_speed_to_the_order_asked(name):
    """The series of u(t0 + s) to order N, whose speed jets are read at
    N - 1 away from t0 = 0, holds the bits of the series to N + 3 cut to N,
    for N = 1 to 11: at scalar t0 != 0, and at an array of t0 with a slot
    t0 = 0, each call on a fresh table.  The t0 are those of u off every
    table node; -0.071168 and -0.0125 are the points where a Newton
    reversion was not truncation-exact (tests/test_deform.py)."""
    t0s = _half_arclength(name)[0].t_of_u(np.array([-0.071168, -0.0125, 0.0123, 0.2]))
    arr = np.concatenate([t0s, [0.0]])
    for n in range(1, 12):
        lo, hi = (_half_arclength(name)[0]._table for _ in range(2))
        for t0 in t0s.tolist():
            np.testing.assert_array_equal(_bits(lo._u_series(t0, n)),
                                          _bits(hi._u_series(t0, n + 3)[:n + 1]), err_msg=f"{t0} {n}")
        lo, hi = (_half_arclength(name)[0]._table for _ in range(2))
        np.testing.assert_array_equal(_bits(lo._u_series(arr, n)),
                                      _bits(hi._u_series(arr, n + 3)[:n + 1]), err_msg=f"{n}")


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_half_arclength_kappa_tau_table_matches_scalar():
    """One array call of curvature_torsion_of on the unit field equals the
    per-node scalar calls, the node u = 0 included."""
    H, _ = _half_arclength("rotated")
    xh = H.xi_hat()
    us = np.linspace(-0.3, 0.3, 61)
    k, tau = curvature_torsion_of(xh, us, 0)
    for j, u in enumerate(us):
        ks, ts = curvature_torsion_of(xh, float(u), 0)
        assert abs(k.value()[j] - ks.value()) < 1e-12
        assert abs(tau.value()[j] - ts.value()) < 1e-12


def test_normalize_half_arclength_array_u():
    """The unit field of a curve factored through fields.xi_over_u, at an array
    of u holding 0, equals its scalar jets point by point."""
    norm, fact, H = normalize_half_arclength(CurveGerm(gamma=("u^2", "u^3", "0")))
    us = np.array([-0.1, -0.01, 0.0, 0.01, 0.1])
    xa = fact.jets(us, 2)
    nrm = np.sqrt(sum(j.value() ** 2 for j in xa))
    np.testing.assert_allclose(nrm, 1.0, atol=1e-12)
    for i, u in enumerate(us):
        for ja, js in zip(xa, fact.jets(float(u), 2)):
            np.testing.assert_allclose(ja.c[:, i], js.c, atol=1e-12)
    gp = np.array([j.partial(1, 0) for j in norm.jets(us, 1)])
    np.testing.assert_allclose(gp[:, [0, 1, 3, 4]] / us[[0, 1, 3, 4]],
                               np.array([j.value() for j in xa])[:, [0, 1, 3, 4]], atol=1e-7)
