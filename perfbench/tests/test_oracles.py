"""Each oracle accepts a right output and refuses a wrong one."""

import numpy as np
import pytest

import oracles as orc
from oracles import OracleError, PolyGerm
from workloads import F_MINUS, F_PLUS, PARABOLIC, random_germ, rotated

EX217 = PolyGerm.swallowtail([[2], [0, 3], [0]], [[0], [0], [1]])


def test_discriminants_of_known_germs():
    assert orc.discriminants(EX217) == pytest.approx((-12.0, 6.0))
    assert orc.discriminants(F_PLUS) == pytest.approx((2.0, 0.0))
    assert orc.discriminants(PARABOLIC)[1] == 0.0
    assert orc.dqr0(F_PLUS) == pytest.approx(6.0)
    assert orc.dqr0(F_MINUS) == pytest.approx(-6.0)
    # r = rscale (xi x xi'): det(xi, xi', r) = rscale |xi x xi'|^2
    assert np.sign(orc.dqr0(rotated(0.3, 0.1, -1.5))) == -1


def test_sources_round_trip_through_the_parser():
    from swallowkit.builder import SwallowtailData, discriminants
    g = random_germ(np.random.default_rng(5))
    src = g.sources()
    d = discriminants(SwallowtailData(xi=src["xi"], b=src["b"]))
    assert (d.D0, d.D1) == pytest.approx(orc.discriminants(g), rel=1e-12)


def test_check_signs_refuses_a_wrong_sign():
    g = random_germ(np.random.default_rng(1))
    D0, D1 = orc.discriminants(g)
    right = (orc.sign(D0), orc.sign(D1))
    orc.check_signs(right, g, "right")
    for wrong in ((-right[0], right[1]), (right[0], -right[1]), (right[0], 0)):
        with pytest.raises(OracleError):
            orc.check_signs(wrong, g, "wrong")


def _cert(g0, g1, passed=True):
    (a0, b0), (a1, b1) = (tuple(orc.sign(x) for x in orc.discriminants(g)) for g in (g0, g1))
    return {"pass": passed, "failures": [] if passed else ["x"],
            "per_t": [{"t": 0.0, "sigma0_S": a0, "sigma_g_S": b0},
                      {"t": 0.5, "sigma0_S": a0, "sigma_g_S": b0},
                      {"t": 1.0, "sigma0_S": a1, "sigma_g_S": b1}]}


def test_check_certificate_refuses_wrong_end_signs_and_failures():
    g0, g1 = F_PLUS, rotated(0.4, 0.05, 2.0)
    orc.check_certificate(_cert(g0, g1), g0, g1, "right")
    with pytest.raises(OracleError):
        orc.check_certificate(_cert(g0, g1, passed=False), g0, g1, "failed")
    for end in (0, -1):
        cert = _cert(g0, g1)
        cert["per_t"][end]["sigma0_S"] *= -1
        with pytest.raises(OracleError):
            orc.check_certificate(cert, g0, g1, "wrong sign")


def test_check_kext_sign_and_value():
    orc.check_kext_sign(1, F_PLUS, "right")
    with pytest.raises(OracleError):
        orc.check_kext_sign(-1, F_PLUS, "wrong")
    g = random_germ(np.random.default_rng(2))
    k = orc.extrinsic_curvature(g, 1.0, 0.05, 0.1)
    orc.check_kext(k, g, 1.0, (0.05, 0.1), "right")
    with pytest.raises(OracleError):
        orc.check_kext(k * (1 + 1e-4), g, 1.0, (0.05, 0.1), "wrong")


def test_extrinsic_curvature_of_the_flat_model_matches_differences():
    g = random_germ(np.random.default_rng(3))
    pos = lambda u, v: orc._derivs(g, u, v)["f"]
    for u, v in ((0.05, 0.1), (-0.1, -0.12)):
        assert orc.extrinsic_curvature(g, 0.0, u, v) == pytest.approx(
            orc.fd_gaussian_curvature(pos, u, v, h=1e-4), rel=1e-5)


def _mesh(m=24, n=24):
    us = np.repeat(np.linspace(-0.3, 0.3, m + 1), n + 1)
    vs = np.tile(np.linspace(-0.2, 0.2, n + 1), m + 1)
    P = np.stack([orc.ex217(u, v) for u, v in zip(us, vs)])
    K = np.array([np.nan if abs(v) < 1e-12 else orc.fd_gaussian_curvature(orc.ex217, u, v, h=1e-4)
                  for u, v in zip(us, vs)])
    csv = {"u": us, "v": vs, "x": P[:, 0], "y": P[:, 1], "z": P[:, 2], "K": K}
    return P, csv


def test_check_mesh_refuses_a_perturbed_vertex_and_a_wrong_k():
    P, csv = _mesh()
    assert orc.check_mesh(P, csv) > 0
    bad = P.copy()
    bad[37, 1] += 1e-6
    with pytest.raises(OracleError):
        orc.check_mesh(bad, csv)
    tail = np.flatnonzero((np.abs(csv["u"]) <= 0.1) & (csv["v"] >= 0.02))
    for change in ("sign", "value", "axis"):
        wrong = dict(csv, K=csv["K"].copy())
        if change == "sign":
            wrong["K"][tail[0]] *= -1
        elif change == "value":
            wrong["K"][0] *= 1.01
        else:
            wrong["K"][np.abs(csv["v"]) < 1e-12] = 0.0
        with pytest.raises(OracleError):
            orc.check_mesh(P, wrong)


def _sphere(shape=(81, 81), window=(-0.5, 0.5, -0.4, 0.4)):
    us = np.linspace(window[0], window[1], shape[0])
    vs = np.linspace(window[2], window[3], shape[1])
    U, V = np.meshgrid(us, vs, indexing="ij")
    f = np.stack([np.cos(V) * np.cos(U), np.cos(V) * np.sin(U), np.sin(V)], axis=-1)
    return np.round(f, 9).reshape(-1, 3), shape, window


def test_check_cgc_refuses_a_bump_bad_residuals_and_no_swallowtail():
    verts, shape, window = _sphere()
    ok = {"roundtrip": {"I": 1e-5, "II": 1e-5}, "parallel_report": {"is_swallowtail": True}}
    assert orc.check_cgc(ok, verts, shape, window) < 1e-3
    bumped = verts.reshape(shape + (3,)).copy()
    bumped[20:60, 20:60] *= 1.01
    with pytest.raises(OracleError):
        orc.check_cgc(ok, bumped.reshape(-1, 3), shape, window)
    with pytest.raises(OracleError):
        orc.check_cgc(dict(ok, roundtrip={"I": 2e-4, "II": 1e-5}), verts, shape, window)
    with pytest.raises(OracleError):
        orc.check_cgc(dict(ok, parallel_report={"is_swallowtail": False}), verts, shape, window)
