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


def _reference_march(forms, window, res, base=(0.0, 1.0), nsub=4):
    """(f, fu, fv, nu) on the grid by RK4 of the frame equations with omega
    called once per abscissa: a scalar call on the spine v = base[1], one
    call over the u nodes per v on the columns, memoised by abscissa."""
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
                w, wu, wv, E = cgc._omega_terms(om.jet(x, vspine, 1))
                memo[x, on_spine] = w, wu, wv, np.exp(w) * np.cosh(w), E
            else:
                w, wu, wv, E = cgc._omega_terms(om.jet(us, np.full_like(us, x), 1))
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
    """One omega call per grid interval of each sweep, every abscissa of the
    interval's RK4 steps in it once; the grid is bit for bit the march that
    calls omega once per abscissa.  The base is off centre in u and v, so the
    two legs of each sweep differ in length."""
    window, res = (-0.1, 0.2, 0.92, 1.1), (21, 17)
    calls = []
    jet = cgc.OmegaField.jet

    def counted(self, u, v, order):
        if order == 1:      # the frame coefficients; the guard reads orders 0 and 2
            calls.append((np.array(u), np.array(v)))
        return jet(self, u, v, order)

    monkeypatch.setattr(cgc.OmegaField, "jet", counted)
    grid = cgc.reconstruct_surface(forms, window=window, res=res)
    monkeypatch.undo()
    spine = [u for u, v in calls if u.ndim == 1]
    cols = [v[:, 0] for u, v in calls if u.ndim == 2]
    assert len(spine) == res[0] - 1 and len(cols) == res[1] - 1
    assert len(calls) == len(spine) + len(cols)
    for xs in spine + cols:
        assert np.unique(xs).size == xs.size
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
    non-square grid holding nan, +-inf, -0.0 and extreme magnitudes."""
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
    assert old.read_text().count("\nf ") == (m - 1) * (n - 1)
    for cols in ({"K": K, "H": H, "l1": l1, "l2": l2}, {"H": H, "l2": l2}, {}):
        grid.write_csv(new, **cols)
        _write_csv_loop(grid, old, **cols)
        assert sha(new) == sha(old), sorted(cols)
