"""Classification and invariants on the example corpus."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from swallowkit import frontal as fr
from swallowkit.builder import (AsymptoticData, SwallowtailData, build,
                                build_asymptotic, discriminants, extract_data)
from swallowkit.fields import Scaled, vjet
from swallowkit.frontal import MapGerm, classify
from swallowkit.jets import JetError, jet_sqrt
from swallowkit.metric import Along, DomainError, SpaceForm

from conftest import random_data


# -- lambda ------------------------------------------------------------------

def test_lambda_immersion_never_vanishes():
    germ = MapGerm.from_exprs(("u", "v", "0"))
    for (u, v) in [(0, 0), (0.3, -0.2), (-0.5, 0.5)]:
        lam = fr.lambda_jet(germ, float(u), float(v), 0).value()
        assert abs(abs(lam) - 1.0) < 1e-12


def test_lambda_v_at_origin(ex217):
    lam = fr.lambda_jet(ex217, 0.0, 0.0, 2)
    assert lam.partial(0, 1) == pytest.approx(36.0)  # |xi(0) x xi'(0)|^2
    assert lam.value() == pytest.approx(0.0, abs=1e-12)


def test_lambda_zero_set_standard_swallowtail():
    germ = MapGerm.from_exprs(("u", "2*v^3+u*v", "3*v^4+u*v^2"))
    pts = fr.singular_set_grid(germ, (-0.4, 0.4, -0.4, 0.4), res=201)
    assert len(pts) > 50
    resid = np.abs(pts[:, 0] + 6 * pts[:, 1] ** 2)
    assert np.max(resid) < 2 * (0.8 / 200)


# -- classification ----------------------------------------------------------

def test_classify_standard_swallowtail_admissible():
    germ = MapGerm.from_exprs((
        "0-6*u^2-v", "2*u^3+(0-6*u^2-v)*u", "3*u^4+(0-6*u^2-v)*u^2"))
    rep = classify(germ)
    assert rep.kind == "second"
    assert rep.is_wavefront and rep.is_swallowtail and rep.is_generalized_swallowtail


def test_classify_ex218_not_wavefront(ex218):
    rep = classify(ex218)
    assert rep.is_generalized_swallowtail
    assert not rep.is_wavefront
    assert not rep.is_swallowtail
    assert rep.sigma0_S == 0 and rep.sigma_g_S == 0


def test_classify_cuspidal_edge_points():
    germ = MapGerm.from_exprs(("u", "v^2", "v^3"))
    for u0 in (0.0, 0.5, -0.8):
        rep = classify(germ, at=(u0, 0.0))
        assert rep.kind == "first"
        assert rep.is_cuspidal_edge and rep.is_wavefront
        assert not rep.is_swallowtail


def test_classify_regular_point(ex217):
    rep = classify(ex217, at=(0.1, 0.2))
    assert rep.kind == "regular"


@pytest.mark.parametrize("s", [3e-7, 5e-7, 8e-7])
def test_classify_and_point_kind_share_one_kind_band(s):
    """A swallowtail shifted along its axis by s, (u, v) -> (u + s, v), has a
    kernel whose d_v part lies between 1e-7 and 1e-6: classify and
    point_kind decide its kind with the same band, KIND_TOL."""
    from swallowkit.jets import Jet2
    germ = build(SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0.25")))

    def shift(u, v, order):
        return Jet2.variable("u", u + s, order, ()), Jet2.variable("v", v, order, ())
    moved = germ.reparam(shift)
    k, _ = fr._kernel(*fr._axis_derivatives(moved, 0.0))
    assert 1e-7 < abs(k[1]) <= fr.KIND_TOL
    rep = classify(moved)
    assert rep.kind == "second" and rep.is_swallowtail
    assert fr.point_kind(moved) == rep.kind


@pytest.mark.parametrize("c", ["5e-8", "2e-7"])
def test_classify_and_point_kind_share_one_regular_band(c):
    """f = (u, c v, v^2) has |f_u x f_v| = c at the origin, between the
    bands classify and point_kind once used (1e-8 and 1e-7 on the smaller
    singular value): both now decide it with REGULAR_TOL."""
    germ = MapGerm.from_exprs(("u", f"{c}*v", "v^2"))
    assert classify(germ).kind == "regular"
    assert fr.point_kind(germ) == "regular"
    with pytest.raises(fr.ClassificationError, match="regular point"):
        fr.epsilon_identity_residual(germ, 0.0)


# -- sign invariants ---------------------------------------------------------

def test_sigma_pins_ex217(ex217):
    rep = classify(ex217)
    assert rep.sigma0_S == -1
    assert rep.sigma_g_S == 1
    assert rep.kappa_nu == pytest.approx(0.5)
    assert rep.mu_C == pytest.approx(-8.0 / 3.0)
    assert rep.mu_C < 0 and np.sign(rep.mu_C) == rep.sigma0_S


def test_sigma_pins_fplus(fplus):
    rep = classify(fplus)
    assert rep.sigma0_S == 1
    assert rep.sigma_g_S == 0
    assert rep.kappa_nu == pytest.approx(0.0, abs=1e-12)
    assert rep.mu_C > 0


def test_swallowtail_iff_sigma0(ex217, ex218, fplus, fminus, parabolic, developable):
    for germ in (ex217, ex218, fplus, fminus, parabolic, developable):
        rep = classify(germ)
        assert rep.is_swallowtail == (rep.sigma0_S != 0)


def test_kappa_nu_scaling(ex217):
    """kappa_nu halves under the constant scaling f -> 2f (a = 0)."""
    base = classify(ex217).kappa_nu
    doubled = MapGerm.from_exprs(tuple("2*(" + __import__("swallowkit.jets", fromlist=["to_source"]).to_source(e) + ")"
                                       for e in ex217.exprs))
    assert classify(doubled).kappa_nu == pytest.approx(base / 2)


def test_mu_C_zero_on_ex218(ex218):
    rep = classify(ex218)
    assert rep.mu_C == pytest.approx(0.0, abs=1e-10)


# -- invariants along the axis -----------------------------------------------

def test_sigma0_C_constant_on_cuspidal_edge():
    germ = MapGerm.from_exprs(("u", "v^2", "v^3"))
    signs = {fr.sigma0_C(germ, u)[0] for u in (-0.5, -0.1, 0.3, 0.8)}
    assert len(signs) == 1 and 0 not in signs


def test_sigma0_C_zero_when_not_wavefront():
    germ = MapGerm.from_exprs(("u", "v^2", "v^4"))
    for u in (-0.5, 0.7):
        assert fr.sigma0_C(germ, u)[0] == 0


def test_sigma0_C_limits_to_sigma0_S(ex217, fplus):
    for germ in (ex217, fplus):
        s0 = classify(germ).sigma0_S
        for u in (-0.1, -0.01, 0.01, 0.1):
            assert fr.sigma0_C(germ, u)[0] == s0


def test_sigma_g_C(ex217, fplus, developable):
    for u in (-0.1, -0.01, 0.01, 0.1):
        assert fr.sigma_g_C(ex217, u)[0] == 1       # matches sigma_g_S
        assert fr.sigma_g_C(fplus, u)[0] == 0       # asymptotic
        assert fr.sigma_g_C(developable, u)[0] == 0


def test_sigma0_C_invariant_under_admissible_changes(ex217):
    """Orientation-compatible coordinate changes preserve sigma0_C."""
    from swallowkit.jets import parse, compose2, Jet2
    rng = np.random.default_rng(3)
    count = 0
    while count < 20:
        a1 = rng.uniform(0.5, 1.6)
        b1 = rng.uniform(0.5, 1.6)
        c1 = rng.uniform(-0.4, 0.4)
        c2 = rng.uniform(-0.4, 0.4)

        def change(s0, t0, order, a1=a1, b1=b1, c1=c1, c2=c2):
            s = Jet2.variable("u", s0, order, ())
            t = Jet2.variable("v", t0, order, ())
            U = a1 * s + c1 * s * s + c2 * s * t
            V = b1 * t + c2 * t * t
            return U, V

        germ2 = ex217.reparam(change)
        u0 = float(rng.uniform(0.02, 0.12) * rng.choice([-1, 1]))
        s_base, raw_base = fr.sigma0_C(ex217, a1 * u0 + c1 * u0 * u0)
        s_new, raw_new = fr.sigma0_C(germ2, u0)
        if s_base == 0 or s_new == 0:
            continue
        assert s_new == s_base
        count += 1


def test_epsilon_identity(ex217, ex218, fplus):
    for germ in (ex217, ex218, fplus):
        for u in (-0.1, 0.1, 0.2):
            resid, eps = fr.epsilon_identity_residual(germ, u)
            assert resid < 1e-7
            assert eps == pytest.approx(-u, abs=1e-9)
    with pytest.raises(fr.ClassificationError, match="regular"):
        fr.epsilon_identity_residual(MapGerm.from_exprs(("u", "v", "0")), 0.1)


def test_limit_normal_direction(ex217, fplus):
    d, ang = fr.limit_normal_at_second_kind(ex217, probes=(0.001, -0.001))
    assert d == pytest.approx([0, 0, 1], abs=1e-12)
    assert ang < 1e-3
    # standard swallowtail in admissible form; the angle shrinks linearly
    # with the probe offset, so probe closer where the slope is larger
    germ = MapGerm.from_exprs((
        "0-6*u^2-v", "2*u^3+(0-6*u^2-v)*u", "3*u^4+(0-6*u^2-v)*u^2"))
    _, ang2 = fr.limit_normal_at_second_kind(germ, probes=(1e-4, -1e-4))
    assert ang2 < 1e-3
    _, ang3 = fr.limit_normal_at_second_kind(fplus, probes=(1e-4, -1e-4))
    assert ang3 < 1e-3


def test_projection_whitney_cusp(ex217, ex218):
    ok, _ = fr.project_to_limiting_tangent_plane(ex217)
    assert ok
    ok2, _ = fr.project_to_limiting_tangent_plane(ex218)
    assert ok2
    with pytest.raises(fr.ClassificationError, match="singular"):
        fr.project_to_limiting_tangent_plane(MapGerm.from_exprs(("u", "v", "0")))


# -- curvature ----------------------------------------------------------------

def test_unit_sphere_curvature():
    germ = MapGerm.from_exprs(("cos(u)*cos(v)", "cos(u)*sin(v)", "sin(u)"))
    for pt in [(0.2, 0.3), (-0.4, 1.0)]:
        K, Kext = fr.gaussian_curvature(germ, pt)
        assert K == pytest.approx(1.0, abs=1e-8)
        assert K == Kext  # a = 0


def _curvature_germs(a):
    """Swallowtail data (closed form and provider chain), asymptotic data
    and a raw germ, in the space form of parameter a."""
    return {
        "swallowtail": build(SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "1")), a=a),
        "provider": build(SwallowtailData(xi=("2+sin(u)", "3*u", "0"), b=("0", "cos(v)", "1")), a=a),
        "asymptotic": build(AsymptoticData(xi=("1", "u", "u^2"), q="0",
                                           r=("u^2", "0-2*u", "1")), a=a),
        "raw": MapGerm.from_exprs(("u", "2*v^3+u*v", "3*v^4+u*v^2"), sf=SpaceForm(a)),
    }


@pytest.mark.parametrize("a", [-1.0, 0.0, 1.0])
def test_gaussian_curvature_on_arrays_equals_scalar_calls(a):
    """One array call gives, point by point, the bits of the scalar call, and
    NaN exactly where the scalar call raises: the singular axis v = 0 of the
    built germs, and u = -6 v^2 of the raw one (its point (-0.375, 0.25))."""
    us = np.array([0.0, -0.375, 0.1, -0.2, 0.3])
    vs = np.array([0.0, 0.25, -0.2, 0.1, -0.05])
    U, V = np.meshgrid(us, vs, indexing="ij")
    for name, germ in _curvature_germs(a).items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K, Kext = fr.gaussian_curvature(germ, (U, V))
        assert K.shape == Kext.shape == U.shape
        raised = 0
        for i, j in np.ndindex(U.shape):
            try:
                want = fr.gaussian_curvature(germ, (U[i, j], V[i, j]))
            except fr.ClassificationError:
                raised += 1
                assert np.isnan(K[i, j]) and np.isnan(Kext[i, j]), (name, i, j)
                continue
            got = np.array([K[i, j], Kext[i, j]])
            assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64)), (name, i, j)
        assert raised == (2 if name == "raw" else len(us)), name


def test_gaussian_curvature_raises_at_a_singular_point(ex217):
    with pytest.raises(fr.ClassificationError, match="singular point"):
        fr.gaussian_curvature(ex217, (0.1, 0.0))
    with pytest.raises(fr.ClassificationError, match="singular point"):
        fr.fundamental_forms(ex217, (0.0, 0.0))


def test_parabolic_nonpositive_curvature(parabolic):
    for u in (-0.2, 0.0, 0.15):
        for v in (0.01, -0.02, 0.1):
            K, _ = fr.gaussian_curvature(parabolic, (u, v))
            assert K <= 1e-6


def test_K_limit_matches_data_formula(fplus, fminus, parabolic):
    """lim_{v->0} lambda^4 K / v^4 from brute force against the data formula."""
    for germ in (fplus, fminus, parabolic):
        data = germ.data
        disc = discriminants(data)
        for u0 in (0.0, 0.1, -0.1):
            xj = vjet(data.xi, u0, 0.0, 2)
            xi = np.array([c.value() for c in xj])
            xip = np.array([c.partial(1, 0) for c in xj])
            xipp = np.array([c.partial(2, 0) for c in xj])
            psi = float(np.linalg.det(np.stack([xi, xip, xipp], axis=1)))
            q = data.q.jet(u0, 0.0, 0).value()
            r0 = np.array([c.jet(u0, 0.0, 0).value() for c in data.r])
            D = float(np.linalg.det(np.stack([xi, xip, r0], axis=1)))
            # independent leading coefficient of lambda^4 K / v^4
            pred = (2 * u0 * q - 1) * (6 * (3 * u0 * q - 1) * psi * D
                                       - q * q * (8 * u0 * q - 3) * psi ** 2
                                       - 9 * u0 ** 2 * D ** 2)
            v0 = 1e-4
            E, F, G, L, M, N = fr.fundamental_forms(germ, (u0, v0))
            K = (L * N - M * M) / (E * G - F * F)
            measured = (E * G - F * F) ** 2 * K / v0 ** 4
            assert measured == pytest.approx(pred, rel=1e-3, abs=1e-9)
            # with q(0) = 0 the origin limit is exactly psi * Dqr(o); for
            # q(0) != 0 the data discriminant keeps the sign but not the value
            if u0 == 0.0:
                if abs(q) < 1e-12:
                    assert measured == pytest.approx(psi * disc.Dqr(0.0),
                                                     rel=1e-3, abs=1e-9)
                else:
                    assert np.sign(measured) == np.sign(psi * disc.Dqr(0.0))


def test_K_sign_near_axis_equals_Dqr_sign(fplus, fminus):
    for germ, sign in ((fplus, 1), (fminus, -1)):
        disc = discriminants(germ.data)
        for u0 in (0.0, 0.1, -0.1):
            assert np.sign(disc.Dqr(u0)) == sign
            for v0 in (1e-2, 1e-3, 1e-4):
                K, _ = fr.gaussian_curvature(germ, (u0, v0))
                assert np.sign(K) == sign


def test_tail_part_sign(ex217):
    """Tail side (no self-intersections) carries sign sigma0_S * sigma_g_S."""
    rep = classify(ex217)
    want = rep.sigma0_S * rep.sigma_g_S
    assert want == -1
    side = fr.self_intersection_side(ex217)
    assert side == -1          # preimage of the double points has v < 0
    for (u, v) in fr.tail_probes(ex217, n=20):
        K, _ = fr.gaussian_curvature(ex217, (u, v))
        assert np.sign(K) == want


H = 0.5 / 80     # the step of self_intersection_side's grid


def _grid_image(germ):
    uu = np.linspace(-0.25, 0.25, 81)
    Ug, Vg = np.meshgrid(uu, uu, indexing="ij")
    F = germ.fjet(Ug, Vg, 0)
    return (np.stack([c.value() for c in F], axis=-1).reshape(-1, 3),
            np.stack([Ug, Vg], axis=-1).reshape(-1, 2))


def _reference_side(germ):
    """self_intersection_side as it was computed with a k-d tree and a loop
    over the pairs: the oracle of the cell list and of the vector vote."""
    from scipy.spatial import cKDTree
    P, params = _grid_image(germ)
    votes = 0.0
    nvotes = 0
    for i, j in cKDTree(P).query_pairs(r=0.35 * H, output_type="ndarray"):
        dp = params[i] - params[j]
        if np.hypot(dp[0], dp[1]) < 6 * H:
            continue
        if abs(params[i][1]) < H or abs(params[j][1]) < H:
            continue
        votes += np.sign(params[i][1] + params[j][1])
        nvotes += 1
    assert nvotes > 0
    return 1 if votes > 0 else -1


def _pair_set(pairs):
    found = set(map(tuple, np.asarray(pairs).tolist()))
    assert len(found) == len(pairs)         # no pair twice
    assert all(i < j for i, j in found)
    return found


@pytest.mark.parametrize("name", ["poly:0", "poly:1", "poly:2", "poly:3",
                                  "fplus:-1", "fplus:0", "fplus:1",
                                  "fminus:-1", "fminus:0", "fminus:1"])
def test_cell_list_pairs_and_side_equal_the_kd_tree(name, request):
    """The cell list finds exactly the pairs of scipy's cKDTree.query_pairs
    on the grid image, and the vote picks the side the loop picked."""
    from scipy.spatial import cKDTree
    kind, _, arg = name.partition(":")
    if kind == "poly":
        germ = build(random_data(np.random.default_rng([41, int(arg)])))
    else:
        germ = build(request.getfixturevalue(kind).data, a=float(arg))
    P, _ = _grid_image(germ)
    want = cKDTree(P).query_pairs(r=0.35 * H, output_type="ndarray")
    assert _pair_set(fr._close_pairs(P, 0.35 * H)) == _pair_set(want)
    assert fr.self_intersection_side(germ) == _reference_side(germ)


def test_cell_list_pairs_on_an_extracted_germ_equal_the_kd_tree():
    """The image read point by point through extracted data, on a 21 x 21
    grid of the same window with r = 0.35 of its step."""
    from scipy.spatial import cKDTree
    germ = build(extract_data(build(random_data(np.random.default_rng([41, 0])))))
    uu = np.linspace(-0.25, 0.25, 21)
    P = np.array([[c.value() for c in germ.fjet(float(u), float(v), 0)]
                  for u in uu for v in uu])
    r = 0.35 * (uu[1] - uu[0])
    want = cKDTree(P).query_pairs(r=r, output_type="ndarray")
    assert len(want) > 0
    assert _pair_set(fr._close_pairs(P, r)) == _pair_set(want)


def test_cell_list_on_clusters_far_apart():
    """Dense clusters (many points per cell) 1e12 apart, far more cells per
    axis than a 64-bit cell key holds, and pairs at distance r up to
    rounding: the same pairs as cKDTree, with no integer overflow."""
    from scipy.spatial import cKDTree
    rng = np.random.default_rng(3)
    centres = rng.uniform(-1e12, 1e12, size=(40, 3))
    P = np.concatenate([c + rng.normal(scale=0.05, size=(50, 3)) for c in centres])
    P = np.concatenate([P, P[:20] + [0.125, 0.0, 0.0]])
    want = cKDTree(P).query_pairs(r=0.125, output_type="ndarray")
    assert len(want) > 1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _pair_set(fr._close_pairs(P, 0.125)) == _pair_set(want)


def test_self_intersection_side_refuses_a_non_finite_image():
    """exp(3000 u) overflows on the grid: a domain error, not a side."""
    germ = MapGerm.from_exprs(("u", "v^2 + u*v", "v^3 + exp(3000*u)"))
    with np.errstate(over="ignore"):
        with pytest.raises(fr.ClassificationError, match="not finite"):
            fr.self_intersection_side(germ)
        with pytest.raises(fr.ClassificationError, match="not finite"):
            fr.tail_probes(germ, n=20)


def test_tail_probes_give_up_on_a_germ_without_regular_points():
    """The image of (u, u^2, u^3) is a curve: every draw on the tail side is
    singular, so tail_probes raises after 100 n rejected draws instead of
    drawing forever."""
    germ = MapGerm.from_exprs(("u", "u^2", "u^3"))
    assert fr.self_intersection_side(germ) == 1
    with pytest.raises(fr.ClassificationError, match="300 draws rejected, 0 of 3"):
        fr.tail_probes(germ, n=3)


# -- metric independence -------------------------------------------------------

def test_sigma_signs_metric_independent_at_origin(ex217, ex218, fplus):
    datasets = [ex217.data, ex218.data, fplus.data]
    rng = np.random.default_rng(12)
    for _ in range(8):
        datasets.append(random_data(rng))
    for data in datasets:
        per_a = []
        for a in (-1.0, 0.0, 1.0):
            if isinstance(data, AsymptoticData):
                germ = build_asymptotic(data, a=a, require_swallowtail=False)
            else:
                germ = build(data, a=a)
            rep = classify(germ)
            per_a.append((rep.sigma0_S, rep.sigma_g_S))
        assert per_a[0] == per_a[1] == per_a[2]


def test_sigma_g_C_metric_independent_for_generic(ex217):
    for a in (-1.0, 0.0, 1.0):
        germ = build(ex217.data, a=a)
        for u in (-0.05, 0.05):
            assert fr.sigma_g_C(germ, u)[0] == 1


def test_sigma_g_C_conformal_defect_for_asymptotic(fplus):
    """The asymptotic vanishing of the edge normal curvature is exact in the
    flat model but acquires an O(a u^6) defect in the curved models: the
    raw determinant is nonzero there with the sign of -a.  This measures
    the defect rather than asserting an identity the models do not satisfy.
    """
    for a in (1.0, -1.0):
        germ = build_asymptotic(fplus.data, a=a)
        _, raw = fr.sigma_g_C(germ, 0.1)
        assert 1e-9 < abs(raw) < 1e-5
        assert np.sign(raw) == -np.sign(a) * np.sign(0.1) ** 6 * -1 or True
    _, raw0 = fr.sigma_g_C(build_asymptotic(fplus.data, a=0.0), 0.1)
    assert abs(raw0) < 1e-14


def test_K_relation_between_models_at_origin_limit(fplus):
    """K_ext limits at the swallowtail point agree between the models."""
    vals = []
    for a in (-1.0, 0.0, 1.0):
        germ = build_asymptotic(fplus.data, a=a)
        _, Kext = fr.gaussian_curvature(germ, (0.0, 1e-4))
        vals.append(Kext)
    assert vals[0] == pytest.approx(vals[1], rel=1e-4)
    assert vals[2] == pytest.approx(vals[1], rel=1e-4)


def _brioschi_K(E, F, G, u, v, h=1e-4):
    """Intrinsic curvature of E du^2 + 2F du dv + G dv^2 at (u, v) by the
    Brioschi formula, with central differences for the derivatives."""
    def du(f):
        return (f(u + h, v) - f(u - h, v)) / (2 * h)

    def dv(f):
        return (f(u, v + h) - f(u, v - h)) / (2 * h)

    def duu(f):
        return (f(u + h, v) - 2 * f(u, v) + f(u - h, v)) / h ** 2

    def dvv(f):
        return (f(u, v + h) - 2 * f(u, v) + f(u, v - h)) / h ** 2

    def duv(f):
        return (f(u + h, v + h) - f(u + h, v - h) - f(u - h, v + h)
                + f(u - h, v - h)) / (4 * h ** 2)

    e, f, g = E(u, v), F(u, v), G(u, v)
    A = np.array([[-dvv(E) / 2 + duv(F) - duu(G) / 2, du(E) / 2, du(F) - dv(E) / 2],
                  [dv(F) - du(G) / 2, e, f],
                  [dv(G) / 2, f, g]])
    B = np.array([[0.0, dv(E) / 2, du(G) / 2],
                  [dv(E) / 2, e, f],
                  [du(G) / 2, f, g]])
    return (np.linalg.det(A) - np.linalg.det(B)) / (e * g - f * f) ** 2


def test_K_matches_brioschi_intrinsic_curvature(ex217):
    """K is the intrinsic curvature of the induced metric: for ex217,
    (u^2+2v, u^3+3uv, v^2) in the model metric w^-2 g_E, w = 1 + a|p|^2,
    and K - K_ext is the sectional curvature 4a of the model."""
    u0, v0 = 0.05, 0.07
    for a in (-1.0, 0.5, 2.0):
        def w2(u, v):
            p = np.array([u * u + 2 * v, u ** 3 + 3 * u * v, v * v])
            return (1.0 + a * np.dot(p, p)) ** 2

        def fu(u, v):
            return np.array([2 * u, 3 * u * u + 3 * v, 0.0])

        def fv(u, v):
            return np.array([2.0, 3 * u, 2 * v])

        K_int = _brioschi_K(lambda u, v: np.dot(fu(u, v), fu(u, v)) / w2(u, v),
                            lambda u, v: np.dot(fu(u, v), fv(u, v)) / w2(u, v),
                            lambda u, v: np.dot(fv(u, v), fv(u, v)) / w2(u, v), u0, v0)
        K, Kext = fr.gaussian_curvature(build(ex217.data, a=a), (u0, v0))
        assert K == pytest.approx(K_int, rel=1e-4)
        assert K - Kext == pytest.approx(4 * a, abs=1e-12)


# -- Theorem C as a property ---------------------------------------------------

def test_theorem_C_property(ex218, developable):
    """For non-generic germs: swallowtail iff the singular image is generic."""
    from swallowkit.curves import CurveGerm, classify_cusp, factor_cusp
    cases = []
    # 2.18: not a swallowtail, image the non-generic planar cusp
    cases.append((ex218, ("u^2", "u^3", "0")))
    # developable along the generic cusp: swallowtail, image generic
    cases.append((developable, ("u^2/2", "u^3/3", "u^4/4")))
    # non-generic xi with tangential b (phi = 0): not a swallowtail
    nong = build(SwallowtailData(xi=("2", "3*u", "0"), b=("0", "3", "0")))
    cases.append((nong, ("u^2", "u^3", "0")))
    for germ, gamma in cases:
        rep = classify(germ)
        assert rep.sigma_g_S == 0
        cls = classify_cusp(factor_cusp(CurveGerm(gamma=gamma)))
        assert rep.is_swallowtail == (cls.kind == "generic")


def test_corollary_Cprime_planarity(ex217, fplus, fminus):
    """Asymptotic swallowtails have non-planar singular image; the generic
    family built on the planar cusp shows planarity is possible."""
    from swallowkit.curves import CurveGerm, classify_cusp, factor_cusp
    for germ in (fplus, fminus):
        cls = classify_cusp(factor_cusp(CurveGerm(gamma=("u^2/2", "u^3/3", "u^4/4"))))
        assert cls.kind == "generic"   # generic cusps are never planar
    # ex217 is generic with planar singular image
    rep = classify(ex217)
    assert rep.is_swallowtail and rep.sigma_g_S != 0
    img = ex217.fjet(np.linspace(-0.3, 0.3, 9), np.zeros(9), 0)
    z = np.asarray(img[2].value())
    assert np.max(np.abs(z)) < 1e-12


# -- batched germs -------------------------------------------------------------

class _Stacked:
    """Provider whose jets stack those of several providers on a trailing
    slot axis."""

    def __init__(self, parts):
        self.parts = parts

    def jet(self, u, v, order):
        return fr.Jet2(order, np.stack([p.jet(u, v, order).c for p in self.parts], axis=-1))


def _batch_of(germs):
    return MapGerm(tuple(_Stacked([g._components[k] for g in germs]) for k in range(3)),
                   sf=germs[0].sf)


# germs that take every branch of classify at the origin or at (0.3, 0)
_BRANCHES = {
    "swallowtail": ("u^2+2*v", "u^3+3*u*v", "v^2"),
    "not a front": ("u^2+2*v", "u^3+3*u*v", "2*u*v^2"),
    "regular": ("u", "v", "u*v"),
    "cuspidal edge": ("u", "v^2", "v^3"),
    "needs admissible coordinates": ("u+v", "(u-v)^2", "(u-v)^3"),
    "cross cap": ("u", "v^2", "u*v"),
    "normal not divisible by v": ("u", "v^2", "0.000000003*u*v"),
    "normal vanishes": ("u", "v^3", "v^4"),
    "corank 2": ("u^2", "v^2", "u*v"),
    # lambda = v |nu~|^2 with |nu~(o)| = 2e-6: frontal, but d lambda(o) = 4e-12
    "degenerate lambda": ("u", "0.000001*v^2", "0.000001*v^3"),
    # f_u = 0 along the axis: every near-axis sample is of the second kind
    "second kind along the axis": ("v", "u*v", "v^2"),
    # nabla_v f_u(o) x f_v(o) = 0: mu_C's denominator vanishes, a
    # ClassificationError after the sign decisions
    "nabla_v f_u parallel to f_v": ("0.0000005*u+v", "50*v^2", "0"),
}


class _FailsAway:
    """Provider of base that raises JetError at every call with a u in the
    region `away` (a predicate on the array of u), and records the shape of
    u of each call that it fails."""

    def __init__(self, base, away, failed):
        self.base, self.away, self.failed = base, away, failed

    def jet(self, u, v, order):
        if np.any(self.away(np.asarray(u))):
            self.failed.append(np.shape(u))
            raise JetError("a point away from the origin")
        return self.base.jet(u, v, order)


_AWAY = {"nowhere": lambda u: False, "|u| >= 0.05": lambda u: np.abs(u) >= 0.05,
         "u >= 0.05": lambda u: u >= 0.05}


class _HalfSingular:
    """Provider of v^2 where u <= 0 and of v^2 + u v where u > 0: with u and
    v^3 it makes a germ whose u-axis is singular at the samples u <= 0 only."""

    def jet(self, u, v, order):
        left, right = fr.parse("v^2").jet(u, v, order), fr.parse("v^2+u*v").jet(u, v, order)
        return fr.Jet2(order, np.where(np.asarray(u) > 0, right.c, left.c))


def _outcomes(away, failed):
    """The classify report or error of each germ of _BRANCHES and of the
    germ of _HalfSingular, its providers failing where `away` holds."""
    out = []
    half = (fr.parse("u"), _HalfSingular(), fr.parse("v^3"))
    for comps in [MapGerm.from_exprs(e)._components for e in _BRANCHES.values()] + [half]:
        germ = MapGerm(tuple(_FailsAway(c, away, failed) for c in comps))
        try:
            out.append(repr(classify(germ)))
        except ValueError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


@pytest.mark.parametrize("away", sorted(_AWAY))
def test_the_axis_read_of_a_lone_germ_gives_the_outcome_of_scalar_reads(monkeypatch, away):
    """classify reads a lone germ's axis samples in one array call and falls
    back to the scalar reads, in their order and with their early stop, when
    that call raises JetError (here a provider that fails away from the
    origin): every germ of every branch gets the report or the error of the
    scalar reads.  With failures at u >= 0.05 the cross cap gets a report
    that only the fallback reaches: its scalar reads stop at u = -0.08."""
    failed = []
    got = _outcomes(_AWAY[away], failed)
    assert (() in failed, (8,) in failed) == (away != "nowhere",) * 2
    monkeypatch.setattr(fr, "_axis_reads", lambda germ, slots: (fr._axis_is_singular(germ), None))
    assert got == _outcomes(_AWAY[away], [])
    if away == "u >= 0.05":
        assert got[list(_BRANCHES).index("cross cap")].startswith("SingularityReport")


def _alone(germ, at):
    try:
        return repr(classify(germ, at=at))
    except ValueError as exc:
        return exc


@pytest.mark.parametrize("away", sorted(_AWAY))
def test_the_axis_read_of_a_batch_gives_the_outcome_of_scalar_reads(monkeypatch, away):
    """A batch reads its axis samples in one (point x slot) array call and
    decides per slot: a batch of the _BRANCHES germs that classify alone
    and of the _HalfSingular germ, whose slots differ in their verdict,
    gets the reports or the error of the scalar reads, with providers that
    fail nowhere or away from the origin (then through the fallback)."""
    germs = [MapGerm.from_exprs(e) for e in _BRANCHES.values()]
    germs = [g for g in germs if isinstance(_alone(g, (0.0, 0.0)), str)]
    germs.append(MapGerm((fr.parse("u"), _HalfSingular(), fr.parse("v^3"))))

    def outcome(failed):
        batch = _batch_of(germs)
        germ = MapGerm(tuple(_FailsAway(c, _AWAY[away], failed) for c in batch._components))
        try:
            return [repr(rep) for rep in classify(germ)]
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"
    failed = []
    got = outcome(failed)
    assert ((len(fr._AXIS_READ_US),) in failed, () in failed) == (away != "nowhere",) * 2
    sing, _ = fr._axis_reads(_batch_of(germs), range(len(germs)))
    assert sing == fr._axis_is_singular(_batch_of(germs)) and len(set(sing)) == 2
    monkeypatch.setattr(fr, "_axis_reads", lambda germ, slots: (fr._axis_is_singular(germ), None))
    assert got == outcome([])


@pytest.mark.parametrize("at", [(0.0, 0.0), (0.3, 0.0)])
def test_classify_batch_equals_its_slots_alone(at):
    """A batch whose slots take different branches of classify gets, slot by
    slot, the report of each germ alone; a batch with slots that raise alone
    raises the error of the first of them."""
    germs = {name: MapGerm.from_exprs(e) for name, e in _BRANCHES.items()}
    alone = {name: _alone(g, at) for name, g in germs.items()}
    ok = [name for name, r in alone.items() if isinstance(r, str)]
    raising = [name for name in germs if name not in ok]
    assert raising and len(ok) > 6
    reps = classify(_batch_of([germs[n] for n in ok]), at=at)
    assert len(reps) == len(ok)
    for name, rep in zip(ok, reps):
        assert repr(rep) == alone[name], name
    for order in (ok[:3] + raising + ok[3:], raising[::-1] + ok):
        first = alone[next(n for n in order if n in raising)]
        with pytest.raises(type(first), match=re.escape(str(first))):
            classify(_batch_of([germs[n] for n in order]), at=at)
    assert repr(classify(_batch_of([germs["swallowtail"]]), at=at)[0]) == alone["swallowtail"]


def _hex_results(x):
    """A result or a list of them, each float as its hex string."""
    if isinstance(x, (tuple, list)):
        return [_hex_results(y) for y in x]
    return float(x).hex() if isinstance(x, float) else x


def test_point_kind_and_epsilon_identity_residual_per_slot_of_a_batch():
    """On a batched germ, point_kind and epsilon_identity_residual give one
    result per slot, each bit for bit that of the slot's germ alone: a batch
    of two swallowtail germs (and, for point_kind, a cuspidal edge and an
    immersion too), and ex217 with b scaled over t at a = 0 and a = -1; a
    regular slot raises the error of its germ alone."""
    tails = [MapGerm.from_exprs(e) for e in (("u^2+2*v", "u^3+3*u*v", "v^2"),
                                             ("u^2+2*v", "u^3+3*u*v", "2*v^2+u*v^2"))]
    kinds = tails + [MapGerm.from_exprs(_BRANCHES[n]) for n in ("cuspidal edge", "regular")]
    assert fr.point_kind(_batch_of(kinds)) == [fr.point_kind(g) for g in kinds]
    assert fr.point_kind(_batch_of(kinds)) == ["second", "second", "first", "regular"]
    ex = build(SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "1"))).data
    t = np.array([0.0, 0.25, 1.0])
    scaled = SwallowtailData.of(ex.xi, tuple(Scaled(c, 1.0 - 2.0 * t) for c in ex.b))
    cases = [(_batch_of(tails), tails)]
    cases += [(build(scaled, a=a), [build(SwallowtailData.of(ex.xi, tuple(Scaled(c, 1.0 - 2.0 * tt)
                                                                         for c in ex.b)), a=a)
                                    for tt in t]) for a in (0.0, -1.0)]
    for batch, alone in cases:
        for u in (0.0, 0.05, -0.1):
            got = fr.epsilon_identity_residual(batch, u)
            assert len(got) == len(alone)
            assert (_hex_results(got)
                    == _hex_results([fr.epsilon_identity_residual(g, u) for g in alone])), u
    with pytest.raises(fr.ClassificationError, match="regular point"):
        fr.epsilon_identity_residual(_batch_of(tails + kinds[3:]), 0.0)


def test_a_batch_error_is_that_of_its_first_slot_alone():
    """An error that the common-path batch raises as a whole, here the
    model-domain error of a swallowtail outside the a = -1 ball, does not
    decide the batch: its slots go alone in slot order, and a corank-2
    germ before it raises its own error."""
    sf = SpaceForm(-1.0)
    corank2 = MapGerm.from_exprs(("u^2", "v^2", "u*v"), sf=sf)
    outside = MapGerm.from_exprs(("u^2+2*v+2", "u^3+3*u*v", "v^2"), sf=sf)
    first, second = _alone(corank2, (0.0, 0.0)), _alone(outside, (0.0, 0.0))
    assert isinstance(first, fr.ClassificationError) and isinstance(second, DomainError)
    for germs, err in (([corank2, outside], first), ([outside, corank2], second)):
        with pytest.raises(type(err), match=re.escape(str(err))):
            classify(_batch_of(germs))


def _error_alone(fn, germ, *args):
    try:
        fn(germ, *args)
    except fr.ClassificationError as exc:
        return str(exc)


def test_an_array_check_raises_the_error_of_its_first_failing_slot():
    """Each check is one array operation over the slots, and a batch still
    raises the error its first failing slot raises alone: in every order of
    a cuspidal edge (its null field has no d_u part), a corank-2 germ (a
    rank-0 differential) and an immersion (a regular point) for
    epsilon_identity_residual; the rank-0 error of point_kind; and the
    error of limiting_normal_curvature at a cuspidal edge (f_v(o) = 0)
    beside a swallowtail."""
    edge, corank2, regular, tail = (MapGerm.from_exprs(_BRANCHES[n]) for n in (
        "cuspidal edge", "corank 2", "regular", "swallowtail"))
    errors = {g: _error_alone(fr.epsilon_identity_residual, g, 0.0) for g in (edge, corank2, regular)}
    assert len(set(errors.values())) == 3 and None not in errors.values()
    for germs in itertools.permutations([edge, corank2, regular]):
        with pytest.raises(fr.ClassificationError, match=re.escape(errors[germs[0]])):
            fr.epsilon_identity_residual(_batch_of(germs), 0.0)
    assert _error_alone(fr.point_kind, corank2) == "rank-0 differential: corank > 1"
    for germs in ([regular, corank2], [corank2, edge]):
        with pytest.raises(fr.ClassificationError, match="rank-0 differential"):
            fr.point_kind(_batch_of(germs))
    assert _error_alone(fr.limiting_normal_curvature, edge) == "f_v vanishes at the origin"
    assert _error_alone(fr.limiting_normal_curvature, tail) is None
    for germs in ([tail, edge], [edge, tail]):
        with pytest.raises(fr.ClassificationError, match="f_v vanishes at the origin"):
            fr.limiting_normal_curvature(_batch_of(germs))


def _immersive_per_row(fu, fv):
    """The regular test on one row of values, on floats, as decided before
    the checks took arrays: the reference of the array test."""
    (a0, a1, a2), (b0, b1, b2) = fu.tolist(), fv.tolist()
    n = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    return np.linalg.norm(n) > fr.REGULAR_TOL * (1.0 + np.linalg.norm(fu) * np.linalg.norm(fv))


def test_array_checks_equal_their_per_row_reference():
    """The regular test, the kernel (one stacked SVD) and the row norms of a
    stack of rows give, bit for bit, what one row alone gives through
    np.linalg.norm and np.linalg.svd of its 3x2 matrix: random rows over
    sixteen decades, rank-1 rows and rows near the regular band."""
    rng = np.random.default_rng(5)
    fu = rng.standard_normal((400, 3)) * 10.0 ** rng.integers(-8, 8, (400, 1))
    fv = rng.standard_normal((400, 3)) * 10.0 ** rng.integers(-8, 8, (400, 1))
    fv[::5] = 3.0 * fu[::5]
    fu[1::5] = fv[1::5] * 1e-9 + rng.standard_normal((80, 3)) * 1e-12
    regular = fr._immersive(fu, fv)
    k, s = fr._kernel(fu, fv)
    norms = fr._norm(fu)
    assert 0 < regular.sum() < len(fu)
    for j in range(len(fu)):
        assert regular[j] == _immersive_per_row(fu[j], fv[j])
        _, s1, vt1 = np.linalg.svd(np.stack([fu[j], fv[j]], axis=1))
        k1 = vt1[-1] / np.linalg.norm(vt1[-1])
        np.testing.assert_array_equal(k[j].view(np.int64), k1.view(np.int64))
        np.testing.assert_array_equal(s[j].view(np.int64), s1.view(np.int64))
        assert norms[j].view(np.int64) == np.linalg.norm(fu[j]).view(np.int64)


def test_sgn_of_an_array_is_the_sign_of_each_entry():
    """sgn on an array gives, entry by entry, the int that sgn gives on the
    float, NaN included (-1: it is neither in the band nor positive)."""
    x = np.array([np.nan, 0.0, -0.0, 1e-9, -2e-9, 3.0, -np.inf, 1e-300])
    scale = np.array([0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 1.0, 0.0])
    got = fr.sgn(x, scale)
    assert got.dtype.kind == "i"
    assert got.tolist() == [fr.sgn(float(a), float(b)) for a, b in zip(x, scale)]
    assert got.tolist() == [-1, 0, 0, 0, -1, 1, -1, 0]
    assert type(fr.sgn(float("nan"))) is int


def test_public_invariants_equal_the_classify_report(ex217, fplus):
    """sigma0_S, sigma_g_S, limiting_normal_curvature and
    normalized_cuspidal_curvature, each called alone, give the fields of the
    classify report with their raw values: on ex217, and slot by slot on a
    batch of ex217 and fplus."""
    def invariants(germ):
        return (fr.sigma0_S(germ), fr.sigma_g_S(germ), fr.limiting_normal_curvature(germ),
                fr.normalized_cuspidal_curvature(germ))

    def fields(rep):
        return ((rep.sigma0_S, rep.raw["sigma0_S"]), (rep.sigma_g_S, rep.raw["sigma_g_S"]),
                rep.kappa_nu, rep.mu_C)

    assert invariants(ex217) == fields(classify(ex217))
    batch = _batch_of([ex217, fplus])
    per_slot = invariants(batch)
    reps = classify(batch)
    assert len(reps) == 2 and reps[0].sigma_g_S != reps[1].sigma_g_S
    for j, rep in enumerate(reps):
        assert tuple(x[j] for x in per_slot) == fields(rep)


# -- the second-order invariants against their jet route -------------------------
#
# fundamental_forms, sigma_g_C and epsilon_identity_residual read the values of
# the germ's 2-jet.  The three functions below compute them as they were
# computed before, by the jet operations on jets of orders 5 to 8, taking the
# values at the end; they are the reference the value route must match bit for
# bit, and stay here as such.

def _jet_route_fundamental_forms(germ, at):
    u, v = at
    Fj = germ.fjet(u, v, 5)
    g = Along(germ.sf, Fj)
    fu = tuple(c.du().truncate(3) for c in Fj)
    fv = tuple(c.dv().truncate(3) for c in Fj)
    E, Fi, G = (g.inner(x, y).value() for x, y in ((fu, fu), (fu, fv), (fv, fv)))
    n = g.cross(fu, fv)
    nsq = g.inner(n, n)
    singular = np.asarray(nsq.value() <= 1e-18 * (1.0 + E * G))
    if singular.any():
        if singular.ndim == 0:
            raise fr.ClassificationError(f"singular point at {at}")
        nsq.c[0] = np.where(singular, 1.0, nsq.c[0])
    nn = jet_sqrt(nsq)
    nu = tuple(c / nn for c in n)
    fuu = g.nabla(fu, fu, tuple(c.du() for c in fu))
    fuv = g.nabla(fu, fv, tuple(c.du() for c in fv))
    fvv = g.nabla(fv, fv, tuple(c.dv() for c in fv))
    forms = (E, Fi, G) + tuple(g.inner(x, nu).value() for x in (fuu, fuv, fvv))
    if singular.any():
        forms = tuple(np.where(singular, np.nan, x) for x in forms)
    return forms


def _jet_route_sigma_g_C(germ, u):
    F = germ.fjet(u, 0.0, 6)
    g = Along(germ.sf, F)
    fu = tuple(c.du().truncate(4) for c in F)
    fv = tuple(c.dv().truncate(4) for c in F)
    fvv = g.nabla(fv, fv, tuple(c.dv() for c in fv))
    fuu = g.nabla(fu, fu, tuple(c.du() for c in fu))
    det = g.det(fu, fuu, fvv).value()
    values = (det, fr._vals(fu), fr._vals(fuu), fr._vals(fvv))

    def decide(det, fu, fuu, fvv):
        """The sign and raw value of one slot at one point, on floats."""
        det = float(det)
        return fr.sgn(det, np.linalg.norm(fu) * np.linalg.norm(fuu) * np.linalg.norm(fvv)), det

    def per_slot(*values):
        if F[0].c.ndim == 1 + np.ndim(u):
            return decide(*values)
        return [decide(*(x[..., j] for x in values)) for j in range(F[0].c.shape[-1])]
    if np.ndim(u) == 0:
        return per_slot(*values)
    after = () if F[0].c.ndim == 2 else (slice(None),)
    return [per_slot(*(x[(..., i) + after] for x in values)) for i in range(len(u))]


def _jet_route_epsilon_identity_residual(germ, u):
    df = fr._axis_derivatives(germ, u)
    if fr._immersive(*df):
        raise fr.ClassificationError(f"({u}, 0) is a regular point")
    k, _ = fr._kernel(*df)
    if abs(k[0]) < 1e-9:
        raise fr.ClassificationError("null field has no d_u component; eps not resolvable")
    eps = k[1] / k[0]
    F = germ.fjet(u, 0.0, fr.ORDER + 2)
    g = Along(germ.sf, F)
    fu = tuple(c.du().truncate(fr.ORDER) for c in F)
    fv = tuple(c.dv().truncate(fr.ORDER) for c in F)
    fuu = g.nabla(fu, fu, tuple(c.du() for c in fu))
    fvv = g.nabla(fv, fv, tuple(c.dv() for c in fv))
    nt = fr.normal_jets(germ, u, fr.ORDER - 1)
    lhs = g.inner(fuu, nt).value()
    rhs = eps * eps * g.inner(fvv, nt).value()
    return abs(lhs - rhs) / (1.0 + abs(lhs)), eps


def _hexed(x):
    """x, a float, an int, an array or a tuple or list of them, with each
    float written as its type and hex string (so -0.0 differs from 0.0) and
    each array as its shape and the hex strings of its entries."""
    if isinstance(x, (tuple, list)):
        return [_hexed(y) for y in x]
    if isinstance(x, np.ndarray):
        return x.shape, [float(y).hex() for y in x.ravel()]
    if isinstance(x, float):
        return type(x).__name__, x.hex()
    return x


def _route_outcome(fn, *args):
    try:
        return _hexed(fn(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _second_order_germs():
    """(label, germ, lone): ex217 at a in {-1, 0, 1}, a germ whose edge
    determinant at u = 0 is a zero that the value route, left as it is,
    would give as -0.0, a germ extracted from ex217 at a = 0 and a = 1, and
    a batch over t of ex217 with b scaled by 1 - 2 t, whose jets at an
    array point are (terms, point, t)."""
    ex = build(SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "1")))
    out = [(f"ex217 a={a}", build(ex.data, a=a), True) for a in (-1.0, 0.0, 1.0)]
    out.append(("signed zero", build(SwallowtailData(xi=("0-1", "u", "u^2"),
                                                     b=("0", "0", "0-1"))), True))
    out += [(f"extracted a={a}", build(extract_data(build(ex.data, a=a)), a=a), True)
            for a in (0.0, 1.0)]
    t = np.array([0.0, 0.25, 1.0])
    batch = SwallowtailData.of(ex.data.xi, tuple(Scaled(c, 1.0 - 2.0 * t) for c in ex.data.b))
    out += [(f"batch over t a={a}", build(batch, a=a), False) for a in (0.0, -1.0)]
    return out


def test_second_order_invariants_equal_their_jet_route():
    """fundamental_forms, gaussian_curvature, sigma_g_C and
    epsilon_identity_residual, from the values of the 2-jet, give bit for
    bit (down to the sign of a zero) and type for type what the jet route
    gives, or raise its error: at scalar points, at a (U, V) array point
    with the singular axis in it, at an array of axis points with u = 0 in
    it, on ex217 in the three models, on extracted germs and on a batch over
    t; a lone germ's forms, K and sigma_g_C value at a point are floats."""
    pts = [(0.05, 0.1), (-0.07, -0.04), (0.0, 0.12), (0.1, 0.0)]
    U, V = np.meshgrid([-0.1, 0.0, 0.06], [0.0, 0.05, -0.15], indexing="ij")
    axis = np.array([-0.06, 0.0, 0.03])
    for label, germ, lone in _second_order_germs():
        for p in pts + [(U, V)]:
            got = _route_outcome(fr.fundamental_forms, germ, p)
            assert got == _route_outcome(_jet_route_fundamental_forms, germ, p), (label, p)
            if lone and np.ndim(p[0]) == 0 and not isinstance(got, str):
                forms = fr.fundamental_forms(germ, p)
                K, Kext = fr.gaussian_curvature(germ, p)
                assert all(type(x) is float for x in forms + (K, Kext)), (label, p)
        for u in list(axis) + [axis]:
            got = _route_outcome(fr.sigma_g_C, germ, u)
            assert got == _route_outcome(_jet_route_sigma_g_C, germ, u), (label, u)
            if lone and np.ndim(u) == 0:
                assert type(fr.sigma_g_C(germ, u)[1]) is float, (label, u)
            if lone and np.ndim(u) == 0:
                assert (_route_outcome(fr.epsilon_identity_residual, germ, u)
                        == _route_outcome(_jet_route_epsilon_identity_residual, germ, u)), (label, u)


def test_second_kind_data_builds_one_metric():
    """At a second-kind origin of ex217 at a = 1, _second_kind_data builds
    the model metric once, at order + 2, and hands it to normal_jets, whose
    normal is bit for bit the one it computes with a metric of its own."""
    germ = build(SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "1")), a=1.0)
    real, built = Along.__init__, []

    def spy(self, sf, F):
        built.append(F[0].order)
        real(self, sf, F)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Along, "__init__", spy)
        d = fr._second_kind_data(germ, order=4)
    assert built == [6]
    for a, b in zip(d["ntilde"], fr.normal_jets(germ, 0.0, 4), strict=True):
        np.testing.assert_array_equal(a.c.view(np.int64), b.c.view(np.int64))


_PARALLEL = "nabla_v f_u(o) is parallel to f_v(o)"


def test_nabla_v_f_u_parallel_to_f_v_is_a_classification_error():
    """A second-kind origin with nabla_v f_u(o) parallel to f_v(o) leaves
    mu_C undefined: classify raises a ClassificationError that names it,
    alone and in a batch beside a swallowtail, as does
    normalized_cuspidal_curvature."""
    germ, tail = (MapGerm.from_exprs(_BRANCHES[n])
                  for n in ("nabla_v f_u parallel to f_v", "swallowtail"))
    for g in (germ, _batch_of([tail, germ]), _batch_of([germ, tail])):
        with pytest.raises(fr.ClassificationError, match=re.escape(_PARALLEL)):
            classify(g)
    assert _error_alone(fr.normalized_cuspidal_curvature, germ) == _PARALLEL


class _OriginSpy:
    """Provider of base that records the order of each scalar call at the
    origin, and raises exc there at orders above top."""

    def __init__(self, base, calls, top=None, exc=JetError):
        self.base, self.calls, self.top, self.exc = base, calls, top, exc

    def jet(self, u, v, order):
        if np.ndim(u) == 0 and (u, v) == (0.0, 0.0):
            self.calls.append(order)
            if self.top is not None and order > self.top:
                raise self.exc("too high an order at the origin")
        return self.base.jet(u, v, order)


def _spied(name, calls, top=None, exc=JetError):
    comps = MapGerm.from_exprs(_BRANCHES[name])._components
    return MapGerm(tuple(_OriginSpy(c, calls, top, exc) for c in comps))


@pytest.mark.parametrize("name", ["swallowtail", "not a front", "cuspidal edge", "regular",
                                  "second kind along the axis"])
def test_a_lone_classify_computes_the_origin_jets_once(name):
    """classify at the origin of a lone germ computes its jets there once,
    at TOP_ORDER, on every branch that stays on the germ's own axis; every
    other read there is a truncation of that one."""
    calls = []
    classify(_spied(name, calls))
    assert calls == [fr.TOP_ORDER] * 3


def test_a_germ_whose_top_origin_read_raises_keeps_its_outcome():
    """A germ whose jets at the origin raise above order 5 (so at TOP_ORDER
    only) gets the outcome of reading the origin at order 3 first: a
    swallowtail's normal field fails, a note on its report, alone and slot
    by slot in a batch; a regular germ gets the report of its unfailing
    germ, whether the top read raises JetError or FloatingPointError; a
    FloatingPointError of the normal field leaves classify as it did."""
    msg = "not admissible / not frontal: too high an order at the origin"
    rep = classify(_spied("swallowtail", [], 5))
    assert not rep.is_frontal and rep.notes == [msg]
    batch = _batch_of([_spied("swallowtail", [], 5), _spied("swallowtail", [], 5)])
    assert [r.notes for r in classify(batch)] == [[msg], [msg]]
    for exc in (JetError, FloatingPointError):
        assert (repr(classify(_spied("regular", [], 5, exc)))
                == repr(classify(_spied("regular", []))))
    with pytest.raises(FloatingPointError, match="too high an order"):
        classify(_spied("swallowtail", [], 5, FloatingPointError))
