"""Space-cusps, half-arclength normalization, Frenet integration."""

import numpy as np
import pytest

from swallowkit.curves import (CurveError, CurveGerm, FrenetData, classify_cusp,
                               curvature_torsion_of, factor_cusp, integrate_frenet,
                               mirror_properties, normalize_half_arclength)
from swallowkit.fields import ComposeU
from swallowkit.jets import parse


def test_factor_cusp_planar():
    f = factor_cusp(CurveGerm(gamma=("u^2", "u^3", "0")))
    xj = f.jets(0.5, 1)
    assert [j.value() for j in xj] == pytest.approx([2.0, 1.5, 0.0])
    xi0, xi1, _ = f.frame0()
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
        curve = CurveGerm.__new__(CurveGerm)
        curve.gamma = re_gamma
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
    with pytest.raises(CurveError, match="kappa"):
        integrate_frenet(FrenetData(kappa="u", tau="0"), interval=(-1, 1))


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
    curve = CurveGerm.__new__(CurveGerm)
    curve.gamma = gamma_from_xi(xi)
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
    mids = (np.arange(-450, 450) + 0.5) * H._h        # includes 0.051, 0.251, 0.901
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
    """The unit field of a curve factored through _XiFromGamma, at an array
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
