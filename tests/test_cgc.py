"""Constant-curvature pipeline: profile, forms, reconstruction, parallel."""

import collections
import math

import numpy as np
import pytest

from swallowkit import cgc
from swallowkit import frontal as fr
from swallowkit.fields import rk4_step


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


def test_profile_residual(profile):
    rs = np.linspace(0.6, 1.5, 200)
    assert np.max(np.abs(profile.residual(rs))) < 1e-8


def test_profile_step_halving():
    p1 = cgc.solve_radial_ode(domain=(0.8, 1.2), step=2e-4)
    p2 = cgc.solve_radial_ode(domain=(0.8, 1.2), step=1e-4)
    rs = np.linspace(0.82, 1.18, 50)
    assert np.max(np.abs(p1.F(rs) - p2.F(rs))) < 1e-9


def test_profile_convergence_order():
    """Observed order of the solver is essentially 4."""
    ref = cgc.solve_radial_ode(domain=(0.9, 1.1), step=2.5e-5)
    errs = []
    for step in (4e-3, 2e-3, 1e-3):
        p = cgc.solve_radial_ode(domain=(0.9, 1.1), step=step)
        errs.append(np.max(np.abs(p.F(np.linspace(0.92, 1.08, 21))
                                  - ref.F(np.linspace(0.92, 1.08, 21)))))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.8


def test_profile_domain_guard():
    with pytest.raises(cgc.CgcError, match="r = 0"):
        cgc.solve_radial_ode(domain=(-0.1, 1.2))


def test_sinh_gordon_identity(omega):
    uu, vv = np.meshgrid(np.linspace(-0.5, 0.5, 31), np.linspace(0.6, 1.4, 31),
                         indexing="ij")
    assert np.max(np.abs(omega.sinh_gordon_residual(uu, vv))) < 1e-7


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
    uu, vv = np.meshgrid(np.linspace(-0.5, 0.5, 21), np.linspace(0.6, 1.4, 21),
                         indexing="ij")
    assert np.max(np.abs(forms.gauss_residual(uu, vv))) < 1e-5
    assert np.max(np.abs(forms.codazzi_residual(uu, vv))) < 1e-5


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


def test_reconstruction_evaluates_omega_once_per_abscissa(forms, monkeypatch):
    """RK4 reads x + h/2 twice and ends each step at the next one's x; each
    abscissa is evaluated once, but for the base abscissa of each of the two
    sweeps, which starts both of its directions."""
    keys = []
    jet = cgc.OmegaField.jet

    def counted(self, u, v, order):
        keys.append((np.asarray(u).tobytes(), np.asarray(v).tobytes(), order))
        return jet(self, u, v, order)

    monkeypatch.setattr(cgc.OmegaField, "jet", counted)
    cgc.reconstruct_surface(forms, window=(-0.1, 0.1, 0.9, 1.1), res=(21, 17))
    repeated = [n for n in collections.Counter(keys).values() if n > 1]
    assert repeated == [2, 2]
    assert len(keys) == len(set(keys)) + 2


def test_mean_curvature_is_half(small_grid):
    assert cgc.mean_curvature_check(small_grid) < 1e-4


def test_reconstruction_guard():
    class Bad:
        def __init__(self, om):
            self.omega = om

        def gauss_residual(self, u, v):
            return np.ones_like(np.asarray(u))

        def codazzi_residual(self, u, v):
            return np.zeros_like(np.asarray(u))

    prof = cgc.solve_radial_ode(domain=(0.8, 1.2))
    with pytest.raises(cgc.CgcError, match="Gauss"):
        cgc.reconstruct_surface(Bad(cgc.OmegaField(prof)),
                                window=(-0.1, 0.1, 0.9, 1.1), res=(21, 21))


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
        assert np.max(np.abs(st - _rk4_frame(omega, germ.base, u, v))) < 1e-12, (u, v)


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
