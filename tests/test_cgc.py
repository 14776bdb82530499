"""Constant-curvature pipeline: profile, forms, reconstruction, parallel."""

import hashlib
import math

import numpy as np
import pytest

from swallowkit import cgc
from swallowkit import frontal as fr
from swallowkit.fields import rk4_step
from swallowkit.jets import Jet2


@pytest.fixture(scope="module")
def profile():
    return cgc.solve_radial_ode()


@pytest.fixture(scope="module")
def omega(profile):
    return cgc.OmegaField(profile)


@pytest.fixture(scope="module")
def forms(omega):
    return cgc.FundamentalForms(omega)


@pytest.fixture(scope="module")
def small_grid(forms):
    return cgc.reconstruct_surface(forms, window=(-0.4, 0.4, 0.7, 1.3), res=(121, 121))


def test_profile_initial_conditions(profile):
    assert profile.F(1.0) == 0.0
    assert profile.Fp(1.0) == 1.0


def test_profile_taylor_at_1(profile):
    # F''(1) = -F'(1)/1 - sinh(0)/2 = -1
    for h in (1e-3, 1e-2):
        assert profile.F(1.0 + h) == pytest.approx(h - h * h / 2, abs=5 * h ** 3)


def test_profile_series_is_truncation_exact_over_series_jets():
    """Jet2.of_series(s).series() is s and claims u alone, scalar and
    batched; and profile_series, which fills each degree from jets of u
    alone cut to the degrees already filled, is truncation-exact: at order N
    cut to m + 1 terms it holds the bits of the call at order m, for
    m < N <= 13, at one radius and at 201 radii (int64 views)."""
    rng = np.random.default_rng(29)
    for s in (rng.standard_normal(7), rng.standard_normal((7, 3)), rng.standard_normal((1, 4, 2))):
        j = Jet2.of_series(s)
        assert j.u_only and j.order == len(s) - 1
        assert np.array_equal(j.series().view(np.int64), s.view(np.int64))
    for r0 in (0.85, np.linspace(0.5, 1.6, 201)):
        F0, Fp0 = np.sin(3.0 * np.asarray(r0)), np.cos(2.0 * np.asarray(r0))
        full = {N: cgc.profile_series(r0, F0, Fp0, N) for N in range(14)}
        for N in range(14):
            for m in range(N):
                np.testing.assert_array_equal(full[N][:m + 1].view(np.int64),
                                              full[m].view(np.int64))


def test_profile_residual(profile):
    """The dense output sampled on the grid of stride 1e-3 and differenced
    by a 5-point stencil satisfies the equation: the series is never read.

    F'' is the 5-point second difference of F at the grid points nearest
    the radii, not read from the series, which satisfies the equation by
    construction; at this stride the 1/h^2 amplification of roundoff stays
    near 1e-10."""
    h = 1e-3
    r = np.round(np.linspace(0.6, 1.5, 200) / h) * h
    Fm2, Fm1, F1, F2 = (profile.F(r + k * h) for k in (-2, -1, 1, 2))
    F0, Fp0 = profile.at(r)
    residual = ((-F2 + 16 * F1 - 30 * F0 + 16 * Fm1 - Fm2) / (12 * h ** 2)
                + Fp0 / r + np.sinh(2 * F0) / 2)
    assert np.max(np.abs(residual)) < 1e-8


def _rk4_profile(end, h=1e-4):
    """(r, F, F') at the nodes of an RK4 march of the profile equation, step
    h, from r = 1 out to end."""
    def rhs(r, y):
        return np.array([y[1], -y[1] / r - math.sinh(2.0 * y[0]) / 2.0])
    sign = math.copysign(1.0, end - 1.0)
    y, out = np.array([0.0, 1.0]), []
    for k in range(round(abs(end - 1.0) / h)):
        y = rk4_step(rhs, 1.0 + sign * k * h, y, sign * h)
        out.append((1.0 + sign * (k + 1) * h, *y))
    return np.array(out)


def test_profile_agrees_with_an_rk4_march(profile):
    """F and F' of the dense output, at 200 nodes of an RK4 march at
    h = 1e-4 over the whole domain, agree with it to 1e-12."""
    ref = np.concatenate([_rk4_profile(0.5)[::-1], _rk4_profile(1.6)])
    ref = ref[np.linspace(0, len(ref) - 1, 200).round().astype(int)]
    assert ref[0, 0] == pytest.approx(0.5) and ref[-1, 0] == pytest.approx(1.6)
    assert np.max(np.abs(profile.F(ref[:, 0]) - ref[:, 1])) <= 1e-12
    assert np.max(np.abs(profile.Fp(ref[:, 0]) - ref[:, 2])) <= 1e-12


def test_profile_step_halving(profile):
    """Halving the Taylor step (0.05 -> 0.025) moves F by at most 1e-13."""
    half = cgc.solve_radial_ode(step=0.025)
    rs = np.linspace(0.5, 1.6, 1101)
    assert np.max(np.abs(profile.F(rs) - half.F(rs))) <= 1e-13


def test_profile_dense_output(profile):
    """At every step node F and F' are, bit for bit, the values the march
    carried into the next step (its first two coefficients); an array of
    radii gives the bits of the scalar calls; the default domain takes at
    most 25 steps."""
    assert len(profile.starts) <= 25
    assert profile.edges[0] == 0.5 and profile.edges[-1] == 1.6
    for k, r in enumerate(profile.starts):
        assert profile.F(r).view(np.int64) == profile.coeffs[k, 0].view(np.int64), r
        assert profile.Fp(r).view(np.int64) == profile.coeffs[k, 1].view(np.int64), r
    rs = np.concatenate([profile.edges, np.linspace(0.45, 1.65, 241)]).reshape(3, -1)
    for fn in (profile.F, profile.Fp):
        scalar = np.array([fn(float(r)) for r in rs.ravel()]).reshape(rs.shape)
        assert np.array_equal(fn(rs).view(np.int64), scalar.view(np.int64))


def test_profile_domain_guard():
    with pytest.raises(cgc.CgcError, match="r = 0"):
        cgc.solve_radial_ode(domain=(-0.1, 1.2))
    for domain in ((1.0, 1.0), (1.6, 0.5)):
        with pytest.raises(cgc.CgcError, match="no step"):
            cgc.solve_radial_ode(domain=domain)


def test_sinh_gordon_identity(omega):
    uu, vv = np.meshgrid(np.linspace(-0.5, 0.5, 31), np.linspace(0.6, 1.4, 31),
                         indexing="ij")
    j = omega.jet(uu, vv, 2)
    residual = j.partial(2, 0) + j.partial(0, 2) + np.sinh(2 * np.asarray(j.value())) / 2
    assert np.max(np.abs(residual)) < 1e-7


def test_omega_jet_on_arrays_equals_scalar_calls(omega):
    """An array call is, slot for slot and bit for bit, the scalar call; the
    batch holds a u = 0 slot, where the radius jet has no u-linear term."""
    U = np.array([[0.0, 0.1, -0.37], [0.25, 0.0, 0.4]])
    V = np.array([[1.0, 0.9, 0.7], [1.3, 0.65, 1.1]])
    for order in range(7):
        arr = omega.jet(U, V, order).c
        scalar = np.stack([omega.jet(u, v, order).c for u, v in zip(U.ravel(), V.ravel())],
                          axis=-1).reshape(arr.shape)
        assert np.array_equal(arr.view(np.int64), scalar.view(np.int64)), order


def test_gauss_codazzi(forms):
    """Gauss holds to the accuracy of omega.  Codazzi holds identically for
    these forms, for any omega: (e^{-w} cosh w)_v = w_v (l2 - l1), and
    likewise for l2, so it has nothing to check."""
    uu, vv = np.meshgrid(np.linspace(-0.5, 0.5, 21), np.linspace(0.6, 1.4, 21),
                         indexing="ij")
    assert np.max(np.abs(forms.gauss_residual(uu, vv))) < 1e-5


def test_swallowtail_conditions(forms):
    chk = cgc.check_swallowtail_conditions(forms)
    assert chk["lambda1"] == 1.0
    assert chk["lambda2"] == 0.0
    assert chk["printed"]["l1_u"] == pytest.approx(0.0, abs=1e-6)
    assert chk["printed"]["l1_uu"] == pytest.approx(-1.0, abs=1e-6)
    assert chk["printed"]["l1_v"] == pytest.approx(-2.0, abs=1e-6)
    # integrable variant: same vanishing/non-vanishing pattern
    assert chk["integrable"]["l1_u"] == pytest.approx(0.0, abs=1e-6)
    assert chk["integrable"]["l1_uu"] == pytest.approx(-1.0, abs=1e-6)
    assert chk["integrable"]["l1_v"] == pytest.approx(-1.0, abs=1e-6)


def test_reconstruction_roundtrip(small_grid):
    rI, rII = cgc.roundtrip_residuals(small_grid)
    assert rI < 1e-4
    assert rII < 1e-4


def test_reconstruction_frame_orthogonality(small_grid):
    dots = np.sum(small_grid.fu * small_grid.fv, axis=2)
    om = small_grid.forms.omega
    UU, VV = np.meshgrid(small_grid.us, small_grid.vs, indexing="ij")
    E = np.exp(2 * np.asarray(om.jet(UU, VV, 0).value()))
    assert np.max(np.abs(dots) / E) < 1e-6
    assert np.max(np.abs(np.sum(small_grid.fu ** 2, axis=2) - E) / E) < 1e-4


def _omega_terms(j):
    """(w, w_u, w_v, E = e^{2w}) from a first-order jet of omega: the jet
    route that OmegaField.terms matches bit for bit."""
    w = np.asarray(j.value())
    return w, np.asarray(j.partial(1, 0)), np.asarray(j.partial(0, 1)), np.exp(2 * w)


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=float)).view(np.int64)


def test_omega_terms_equal_the_order_1_jet(omega):
    """OmegaField.terms, from F and F' at r, is bit for bit (down to the sign
    of a zero) the value and first partials of omega's order-1 jet: at
    random points, at u = 0 and u = -0.0, v = +-0.0, scalar, on arrays of one
    shape and on arrays that broadcast."""
    rng = np.random.default_rng(32)
    U, V = rng.uniform(-0.6, 0.6, 400), rng.uniform(0.5, 1.5, 400)
    U[:20], U[20:40] = 0.0, -0.0
    U[40:60], V[40:50], V[50:60] = rng.uniform(0.5, 1.2, 20), 0.0, -0.0
    cases = [(U, V), (U.reshape(20, 20), V.reshape(20, 20))]
    cases += [(float(u), float(v)) for u, v in zip(U[::10], V[::10])]
    for u, v in cases:
        for got, want in zip(omega.terms(u, v), _omega_terms(omega.jet(u, v, 1)), strict=True):
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(_bits(got), _bits(want)), (u, v)
    u, v = U[:7, None], V[None, 100:103]
    want = _omega_terms(omega.jet(*np.broadcast_arrays(u, v), 1))
    for got, w in zip(omega.terms(u, v), want, strict=True):
        assert np.array_equal(_bits(got), _bits(w))


def _reference_march(forms, window, res, base=(0.0, 1.0), nsub=4):
    """(f, fu, fv, nu) on the grid by RK4 of the frame equations, each leg of
    each sweep alone, with the coefficients from omega's order-1 jet called
    once per abscissa: a scalar call on the spine v = base[1], one call over
    the u nodes per v on the columns, memoised by abscissa."""
    om = forms.omega
    us = np.linspace(window[0], window[1], res[0])
    vs = np.linspace(window[2], window[3], res[1])
    bi = int(np.argmin(np.abs(vs - base[1])))
    b0 = int(np.argmin(np.abs(us - base[0])))
    vspine = vs[bi]
    memo = {}

    def coeffs(x, on_spine):
        if (x, on_spine) not in memo:
            if on_spine:
                w, wu, wv, E = _omega_terms(om.jet(x, vspine, 1))
                memo[x, on_spine] = w, wu, wv, np.exp(w) * np.cosh(w), E
            else:
                w, wu, wv, E = _omega_terms(om.jet(us, np.full_like(us, x), 1))
                memo[x, on_spine] = w, wu, wv, np.exp(w) * np.sinh(w), E
        return memo[x, on_spine]

    def march(f, xs, i0, y0):
        out = [None] * len(xs)
        out[i0] = y0
        for end, d in ((len(xs) - 1, 1), (0, -1)):
            y = y0
            for i in range(i0, end, d):
                h = (xs[i + d] - xs[i]) / nsub
                for k in range(nsub):
                    y = rk4_step(f, xs[i] + k * h, y, h)
                out[i + d] = y
        return out

    spine = np.stack(march(lambda u, st: cgc._gw_rhs_u(st, *coeffs(u, True)), us, b0,
                           cgc._base_frame(om, base[0], vspine)), axis=-1)
    cols = march(lambda v, st: cgc._gw_rhs_v(st, *coeffs(v, False)), vs, bi, spine)
    return np.stack([c.transpose(0, 2, 1) for c in cols], axis=2)


def test_reconstruction_evaluates_omega_once_per_abscissa(forms, monkeypatch):
    """One OmegaField.terms call per pair of grid intervals of each sweep,
    the two legs out of the base as one batch while both last, then the
    longer leg alone, every abscissa pair of the RK4 steps in it once; no
    order-1 jet of omega; the grid is bit for bit the march of each leg
    alone that calls omega's jet once per abscissa.  The base is off centre
    in u and v, so the two legs of each sweep differ in length."""
    window, res = (-0.1, 0.2, 0.92, 1.1), (21, 17)
    calls, orders = [], []
    terms, jet = cgc.OmegaField.terms, cgc.OmegaField.jet

    def counted(self, u, v):
        calls.append(np.broadcast_arrays(u, v))
        return terms(self, u, v)

    def ordered(self, u, v, order):
        orders.append(order)
        return jet(self, u, v, order)

    monkeypatch.setattr(cgc.OmegaField, "terms", counted)
    monkeypatch.setattr(cgc.OmegaField, "jet", ordered)
    grid = cgc.reconstruct_surface(forms, window=window, res=res)
    monkeypatch.undo()
    # the base (0, 1) is node 7 of 21 in u and node 7 of 17 in v: legs of
    # 13 and 7 intervals on the spine, 9 and 7 on the columns
    spine = [u for u, v in calls if u.ndim == 2]
    cols = [v[:, 0, :] for u, v in calls if u.ndim == 3]
    assert len(calls) == len(spine) + len(cols)
    assert [x.shape[1] for x in spine] == [2] * 7 + [1] * 6
    assert [x.shape[1] for x in cols] == [2] * 7 + [1] * 2
    for xs in spine + cols:
        assert len(set(map(tuple, xs.tolist()))) == len(xs)
    assert 1 not in orders
    for got, want in zip((grid.f, grid.fu, grid.fv, grid.nu), _reference_march(forms, window, res)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("window, res", [
    ((-0.1, 0.1, 0.9, 1.1), (11, 11)),       # legs of equal length
    ((-0.2, 0.4, 0.75, 1.3), (33, 57)),      # unequal legs, the u leg longer on the right
    ((-0.3, 0.3, 1.0, 1.3), (41, 31)),       # base on the edge v = 1: one column leg empty
    ((0.0, 0.3, 0.7, 1.0), (15, 13)),        # base in a corner: one leg of each sweep empty
])
def test_reconstruction_equals_the_march_of_each_leg_alone(forms, window, res):
    """The batched legs, the longer leg's rest and an empty leg give bit for
    bit the grid of the march that steps each leg alone."""
    grid = cgc.reconstruct_surface(forms, window=window, res=res)
    for got, want in zip((grid.f, grid.fu, grid.fv, grid.nu), _reference_march(forms, window, res)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_mean_curvature_is_half(small_grid):
    assert cgc.mean_curvature_check(small_grid) < 1e-4


def test_reconstruction_guard():
    class Bad:
        def __init__(self, om):
            self.omega = om

        def gauss_residual(self, u, v):
            return np.ones_like(np.asarray(u))

    prof = cgc.solve_radial_ode(domain=(0.8, 1.2))
    with pytest.raises(cgc.CgcError, match="Gauss"):
        cgc.reconstruct_surface(Bad(cgc.OmegaField(prof)),
                                window=(-0.1, 0.1, 0.9, 1.1), res=(21, 21))


def test_gauss_guard_refuses_a_non_solution():
    """omega = u^2 v + 3v solves no sinh-Gordon equation, and the Gauss
    residual, -e^{-2w} times its sinh-Gordon residual, stops the march."""
    class Poly:
        def jet(self, u, v, order):
            uj = Jet2.variable("u", u, order, np.shape(u))
            vj = Jet2.variable("v", v, order, np.shape(u))
            return uj * uj * vj + vj * 3.0

    with pytest.raises(cgc.CgcError, match="Gauss"):
        cgc.reconstruct_surface(cgc.FundamentalForms(Poly()), res=(7, 7))


def test_parallel_surface_constant_curvature(small_grid):
    par = cgc.parallel_surface(small_grid)
    du = small_grid.us[1] - small_grid.us[0]
    dv = small_grid.vs[1] - small_grid.vs[0]
    K, _ = cgc.curvatures_from_samples(par.f, du, dv)
    mask = cgc.parallel_safe_mask(small_grid, par)
    mask &= ~np.isnan(K)
    rng = np.random.default_rng(5)
    idx = np.argwhere(mask)
    picks = idx[rng.choice(len(idx), size=50, replace=False)]
    vals = K[picks[:, 0], picks[:, 1]]
    assert np.max(np.abs(vals - 1.0)) < 1e-3


def test_parallel_surface_singular_at_base(small_grid):
    par = cgc.parallel_surface(small_grid)
    reg = cgc.parallel_regularity(small_grid, par)
    i = int(np.argmin(np.abs(small_grid.us)))
    j = int(np.argmin(np.abs(small_grid.vs - 1.0)))
    assert not reg[i, j]
    # far from the singular curve the parallel surface is regular
    assert reg[i, 5] and reg[5, j]


def test_parallel_germ_classifies_as_swallowtail(omega):
    germ = cgc.ParallelGerm(omega).as_germ()
    rep = fr.classify(germ, at=(0.0, 1.0))
    assert rep.kind == "second"
    assert rep.is_wavefront and rep.is_swallowtail


def test_make_admissible_solves_the_singular_curve_once_per_s0(omega, monkeypatch):
    """classify of the parallel germ calls make_admissible's change of
    coordinates at 15 points with 9 distinct s0; the Newton solve of c(s0),
    the change's only reads of the germ at order 2, runs at the first call
    of each s0 only, and the report is that of a fresh solve at every call."""
    real = fr.make_admissible

    def classified(fresh):
        germ = cgc.ParallelGerm(omega).as_germ()
        reads, log = [], []
        fjet = germ.fjet
        germ.fjet = lambda u, v, order=fr.ORDER: (reads.append(order), fjet(u, v, order))[1]

        def spied(g, at):
            work = real(g, at)
            change = work._change

            def counted(s0, t0, o):
                n = reads.count(2)
                out = (real(g, at)._change if fresh else change)(s0, t0, o)
                log.append((s0, reads.count(2) - n))
                return out
            work._change = counted
            return work

        monkeypatch.setattr(fr, "make_admissible", spied)
        rep = fr.classify(germ, at=cgc.SWALLOWTAIL_POINT)
        monkeypatch.undo()
        return repr(rep), log

    rep, log = classified(fresh=False)
    first = {}
    for s0, _ in log:
        first.setdefault(s0, len(first))
    assert len(log) == 15 and len(first) == 9
    seen = set()
    for s0, solves in log:
        assert (solves > 0) == (s0 not in seen), s0
        seen.add(s0)
    fresh_rep, fresh_log = classified(fresh=True)
    assert [s0 for s0, _ in fresh_log] == [s0 for s0, _ in log]
    assert all(n > 0 for _, n in fresh_log)
    assert rep == fresh_rep


def _rk4_frame(omega, base, u, v, step=2e-3):
    """The frame (f, fu, fv, nu) at (u, v) by RK4 of the frame equations from
    the base: along v = base[1] to u, then along that u to v."""
    w0 = float(np.asarray(omega.jet(*base, 0).value()))
    st = np.stack([np.zeros(3), math.exp(w0) * np.array([1.0, 0.0, 0.0]),
                   math.exp(w0) * np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])])

    def coeffs(uu, vv):
        j = omega.jet(uu, vv, 1)
        wq = float(np.asarray(j.value()))
        return wq, j.partial(1, 0), j.partial(0, 1), math.exp(2 * wq)

    def rhs_u(uu, s):
        wq, wu, wv, E = coeffs(uu, base[1])
        return cgc._gw_rhs_u(s, wq, wu, wv, math.exp(wq) * math.cosh(wq), E)

    def rhs_v(vv, s):
        wq, wu, wv, E = coeffs(u, vv)
        return cgc._gw_rhs_v(s, wq, wu, wv, math.exp(wq) * math.sinh(wq), E)

    for rhs, cur, end in ((rhs_u, base[0], u), (rhs_v, base[1], v)):
        if abs(end - cur) > 0:
            n = max(1, int(math.ceil(abs(end - cur) / step)))
            h = (end - cur) / n
            for _ in range(n):
                st = rk4_step(rhs, cur, st, h)
                cur += h
    return st


def test_parallel_germ_states_match_an_rk4_march(omega):
    """The frame read from the base's Taylor polynomial agrees with an RK4
    march of the frame equations within 0.1 of the base."""
    germ = cgc.ParallelGerm(omega)
    points = [(0.0, 1.0)] + [(r * math.cos(t), 1.0 + r * math.sin(t))
                             for r in (0.05, 0.1) for t in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
    for u, v in points:
        st = np.array([[c.value() for c in row] for row in germ.jets(u, v, 0)])
        assert np.max(np.abs(st - _rk4_frame(omega, cgc.SWALLOWTAIL_POINT, u, v))) < 1e-12, (u, v)


def test_obj_and_csv_output(small_grid, tmp_path):
    obj = tmp_path / "s.obj"
    csv = tmp_path / "s.csv"
    cgc.write_obj(str(obj), small_grid.f)
    small_grid.write_csv(str(csv))
    lines = obj.read_text().splitlines()
    nverts = sum(1 for l in lines if l.startswith("v "))
    nfaces = sum(1 for l in lines if l.startswith("f "))
    assert nverts == 121 * 121
    assert nfaces == 120 * 120
    assert csv.read_text().splitlines()[0] == "u,v,x,y,z,K,H,lambda1,lambda2"


def _write_obj_loop(path, points):
    """The OBJ writer as a per-value f-string loop."""
    m, n = points.shape[:2]
    with open(path, "w") as out:
        for x, y, z in points.reshape(-1, 3):
            out.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
        for i in range(m - 1):
            for j in range(n - 1):
                a = i * n + j + 1
                b = (i + 1) * n + j + 1
                out.write(f"f {a} {b} {b + 1} {a + 1}\n")


def _write_csv_loop(grid, path, K=None, H=None, l1=None, l2=None):
    """The grid CSV writer as a per-value f-string loop."""
    with open(path, "w") as out:
        out.write("u,v,x,y,z,K,H,lambda1,lambda2\n")
        for i in range(len(grid.us)):
            for j in range(len(grid.vs)):
                x, y, z = grid.f[i, j]
                row = [grid.us[i], grid.vs[j], x, y, z]
                for arr in (K, H, l1, l2):
                    row.append(arr[i, j] if arr is not None else float("nan"))
                out.write(",".join(f"{val:.9g}" for val in row) + "\n")


def test_block_writers_equal_the_per_value_loops(tmp_path):
    """write_obj and write_csv are byte for byte the per-value loops on a
    non-square grid holding nan, +-inf, -0.0 and extreme magnitudes; so is
    each file of a write_obj call that writes two grids, sharing the face
    block."""
    rng = np.random.default_rng(7)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300]

    def table(*shape):
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
        k = min(a.size, len(special))
        a.reshape(-1)[rng.choice(a.size, k, replace=False)] = special[:k]
        return a

    m, n = 7, 11
    f = table(m, n, 3)
    grid = cgc.SurfaceGrid(us=table(m), vs=table(n), f=f, fu=f, fv=f, nu=f)
    K, H, l1, l2 = (table(m, n) for _ in range(4))

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    new, old = tmp_path / "new", tmp_path / "old"
    cgc.write_obj(new, f)
    _write_obj_loop(old, f)
    assert sha(new) == sha(old)
    other = tmp_path / "other"
    cgc.write_obj(new, f[::-1], (other, f))
    assert sha(other) == sha(old)
    _write_obj_loop(old, f[::-1])
    assert sha(new) == sha(old)
    assert old.read_text().count("\nf ") == (m - 1) * (n - 1)
    for cols in ({"K": K, "H": H, "l1": l1, "l2": l2}, {"H": H, "l2": l2}, {}):
        grid.write_csv(new, **cols)
        _write_csv_loop(grid, old, **cols)
        assert sha(new) == sha(old), sorted(cols)
