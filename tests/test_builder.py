"""Representation formulas: construction, discriminants, inverse problems."""

from functools import partial

import numpy as np
import pytest

from swallowkit import frontal as fr
from swallowkit.builder import (AsymptoticData, BuildError, SwallowtailData, _alpha_jet,
                                build, build_asymptotic, convert_to_asymptotic_form,
                                discriminants, exists_swallowtail_along,
                                extract_data, flip_data, normal_on_axis)
from swallowkit.fields import JetFn, vjet
from swallowkit.frontal import MapGerm, classify
from swallowkit.jets import poly2_coeffs

from conftest import random_data


def _poly_equal(exprs, expected):
    for e, ref in zip(exprs, expected):
        pe = poly2_coeffs(e)
        pr = poly2_coeffs(ref) if not isinstance(ref, dict) else ref
        assert pe is not None and pr is not None
        keys = set(pe) | set(pr)
        for k in keys:
            assert pe.get(k, 0.0) == pytest.approx(pr.get(k, 0.0), abs=1e-12), (k, pe, pr)


def test_build_planar_generic():
    from swallowkit.jets import parse
    g = build(SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "1")))
    _poly_equal(g.exprs, (parse("u^2+2*v"), parse("u^3+3*u*v"), parse("v^2")))
    rep = classify(g)
    assert rep.is_swallowtail and rep.sigma_g_S != 0


def test_build_nongeneric(ex218):
    from swallowkit.jets import parse
    _poly_equal(ex218.exprs, (parse("u^2+2*v"), parse("u^3+3*u*v"), parse("2*u*v^2")))
    assert not classify(ex218).is_swallowtail


def test_build_developable_singular_axis(developable):
    lam = fr.lambda_jet(developable, 0.07, 0.0, 4)
    from swallowkit._jettables import index_of
    for i in range(5):
        assert abs(lam.c[index_of(i, 0)]) < 1e-12


def test_build_rejects_zero_xi():
    with pytest.raises(BuildError, match="xi"):
        SwallowtailData(xi=("u", "u^2", "0"), b=("0", "0", "1"))


def test_build_asymptotic_fplus_expression(fplus):
    """The built germ is gamma + v xi + v^3 (xi x xi') componentwise."""
    ref = {
        0: {(2, 0): 0.5, (0, 1): 1.0, (2, 3): 1.0},
        1: {(3, 0): 1.0 / 3.0, (1, 1): 1.0, (1, 3): -2.0},
        2: {(4, 0): 0.25, (2, 1): 1.0, (0, 3): 1.0},
    }
    for k in range(3):
        pe = poly2_coeffs(fplus.exprs[k])
        keys = set(pe) | set(ref[k])
        for key in keys:
            assert pe.get(key, 0.0) == pytest.approx(ref[k].get(key, 0.0), abs=1e-12)


def test_build_asymptotic_rejects_nongeneric_cusp():
    with pytest.raises(BuildError, match="non-generic"):
        build_asymptotic(AsymptoticData(xi=("2", "3*u", "0"), q="0",
                                        r=("0", "0", "6")))


def test_discriminants_pins(ex217, ex218, fplus):
    d = discriminants(ex217.data)
    assert d.D0 == pytest.approx(-12.0)
    assert d.D1 == pytest.approx(6.0)
    d18 = discriminants(ex218.data)
    assert d18.D0 == pytest.approx(0.0, abs=1e-12)
    assert d18.D1 == pytest.approx(0.0, abs=1e-12)
    dp = discriminants(fplus.data)
    assert dp.D0 == pytest.approx(2.0)
    assert dp.D1 == pytest.approx(0.0, abs=1e-12)
    assert dp.Dqr(0.0) == pytest.approx(6.0)


def test_discriminant_signs_match_classifier(ex217, ex218, fplus, fminus, parabolic):
    from swallowkit.frontal import sgn
    for germ in (ex217, ex218, fplus, fminus, parabolic):
        data = germ.data
        disc = discriminants(data if not isinstance(data, AsymptoticData) else data)
        rep = classify(germ)
        assert sgn(disc.D0, disc.scale) == rep.sigma0_S
        assert sgn(disc.D1, disc.scale) == rep.sigma_g_S


def test_theorem_rep_gate():
    """Wave front iff D0 != 0, across a grid of b(o) crossing the wall."""
    for z in np.linspace(-1.0, 1.0, 9):
        data = SwallowtailData(xi=("1", "u", "u^2"),
                               b=("0", "0", f"{z}") if z >= 0 else ("0", "0", f"0-{-z}"))
        disc = discriminants(data)
        rep = classify(build(data))
        assert rep.is_swallowtail == (abs(disc.D0) > 1e-9), (z, disc.D0)


def test_eq_nongeneric_sign_identity():
    """For non-generic data (D1 = 0): sign D0 = sign det(xi, xi', xi'')."""
    rng = np.random.default_rng(31)
    from swallowkit.jets import poly_to_expr
    for _ in range(20):
        xi = tuple(poly_to_expr(rng.uniform(-1, 1, 3)) for _ in range(3))
        from swallowkit.jets import ZERO
        data = SwallowtailData.of(xi, (ZERO, ZERO, ZERO))
        disc = discriminants(data)
        assert disc.D0 == pytest.approx(disc.psi0, abs=1e-12)


def test_normal_on_axis(ex217, fplus):
    nt = normal_on_axis(ex217.data)
    n0 = np.array([c.value() for c in vjet(nt, 0.0, 0.0, 0)])
    assert n0 == pytest.approx([0.0, 0.0, 6.0])
    # perpendicular to xi everywhere on the axis; to xi' at the center
    for u in (-0.1, 0.1):
        nu_ = np.array([c.value() for c in vjet(nt, u, 0.0, 0)])
        xj = vjet(ex217.data.xi, u, 0.0, 1)
        xi = np.array([c.value() for c in xj])
        assert abs(np.dot(nu_, xi)) < 1e-9
    # delta(0) vanishes exactly when D0 does
    disc = discriminants(ex217.data)
    assert disc.delta(0.0) == pytest.approx(-4.0 * disc.D0)  # |xi(0)|^2 = 4
    discp = discriminants(fplus.data)
    assert discp.delta(0.0) == pytest.approx(-1.0 * discp.D0)
    d18 = discriminants(SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "2*u")))
    assert d18.delta(0.0) == pytest.approx(0.0, abs=1e-12)


def test_normal_on_axis_orthogonal_to_xi_prime_for_asymptotic(fplus):
    nt = normal_on_axis(fplus.data)
    for u in (-0.1, 0.1):
        nu_ = np.array([c.value() for c in vjet(nt, u, 0.0, 0)])
        xj = vjet(fplus.data.xi, u, 0.0, 1)
        xip = np.array([c.partial(1, 0) for c in xj])
        assert abs(np.dot(nu_, xip)) < 1e-9


def test_extract_data_roundtrip(ex217):
    data2 = extract_data(ex217)
    g2 = build(data2)
    r1, r2 = classify(ex217), classify(g2)
    assert (r1.sigma0_S, r1.sigma_g_S) == (r2.sigma0_S, r2.sigma_g_S)
    assert r1.kappa_nu == pytest.approx(r2.kappa_nu, rel=1e-7)
    d1, d2 = discriminants(ex217.data), discriminants(data2)
    assert np.sign(d1.D0) == np.sign(d2.D0)
    assert np.sign(d1.D1) == np.sign(d2.D1)


def test_extracted_germ_matches_off_the_axis():
    """With a(u, 0) = xi(u) (alpha = 1) the rebuilt germ is the germ itself,
    in value and in K_ext, away from the singular axis too: b subtracts
    gamma(u) = f(u, 0), not f(u, v)."""
    g = build(SwallowtailData(xi=("2+u", "3*u", "u^2"), b=("u*v", "1+v", "u")))
    h = build(extract_data(g))
    for p in ((0.0, 0.05), (0.05, 0.03), (-0.04, -0.06)):
        assert np.abs(g.value(*p) - h.value(*p)).max() < 1e-12
        assert fr.gaussian_curvature(h, p)[1] == pytest.approx(
            fr.gaussian_curvature(g, p)[1], rel=1e-9)


def test_extract_data_standard_swallowtail():
    germ = MapGerm.from_exprs((
        "0-6*u^2-v", "2*u^3+(0-6*u^2-v)*u", "3*u^4+(0-6*u^2-v)*u^2"))
    data = extract_data(germ)
    assert classify(build(data)).is_swallowtail


def test_extract_data_rejects_immersion():
    with pytest.raises(BuildError, match="regular"):
        extract_data(MapGerm.from_exprs(("u", "v", "0")))


def test_extract_roundtrip_random():
    rng = np.random.default_rng(17)
    for _ in range(10):
        data = random_data(rng)
        g = build(data)
        try:
            data2 = extract_data(g)
        except BuildError:
            continue
        g2 = build(data2)
        r1, r2 = classify(g), classify(g2)
        assert (r1.sigma0_S, r1.sigma_g_S) == (r2.sigma0_S, r2.sigma_g_S)
        assert r1.kappa_nu == pytest.approx(r2.kappa_nu, rel=1e-6, abs=1e-9)


def test_convert_to_asymptotic_identity(fplus):
    data = fplus.data.as_general()
    out = convert_to_asymptotic_form(data)
    assert out.q.jet(0.1, 0.0, 0).value() == pytest.approx(0.0, abs=1e-10)
    r0 = np.array([c.jet(0.0, 0.0, 0).value() for c in out.r])
    assert r0 == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)


def test_convert_to_asymptotic_constants():
    """b = 3 xi + 5 xi' extracts q = 5 with the tangential part absorbed."""
    from swallowkit.fields import JetFn, vjet as vj
    from swallowkit.jets import parse
    xi = tuple(parse(s) for s in ("1", "u", "u^2"))

    def bk(k):
        def fn(u, v, order):
            xj = [x.jet(u, 0.0, order + 1) for x in xi]
            dx = [x.du() for x in xj]
            return 3.0 * xj[k].truncate(order) + 5.0 * dx[k].truncate(order)
        return JetFn(fn)

    data = SwallowtailData.of(xi, tuple(bk(k) for k in range(3)))
    out = convert_to_asymptotic_form(data)
    for u in (0.0, 0.1, -0.1):
        assert out.q.jet(u, 0.0, 0).value() == pytest.approx(5.0, abs=1e-10)
    # rebuilt germ matches the original where both are defined
    g1 = build(data)
    g2 = build_asymptotic(out, require_swallowtail=False)
    for (u, v) in [(0.05, 0.04), (-0.1, 0.02), (0.0, -0.05)]:
        w = v + v * v * 3.0        # the absorbed substitution w = v + v^2 p(u)
        assert g1.value(u, v) == pytest.approx(g2.value(u, w), abs=1e-8)


def test_convert_rejects_generic(ex217):
    with pytest.raises(BuildError, match="span"):
        convert_to_asymptotic_form(ex217.data)


def test_exists_swallowtail_along_generic():
    for want in (1, -1, 0):
        data = exists_swallowtail_along(("1", "u", "u^2"), want)
        rep = classify(build(data))
        assert rep.is_swallowtail
        assert rep.sigma0_S == 1
        assert rep.sigma_g_S == want


def test_exists_swallowtail_along_nongeneric():
    with pytest.raises(BuildError, match="asymptotic"):
        exists_swallowtail_along(("2", "3*u", "0"), 0)
    for want in (1, -1):
        data = exists_swallowtail_along(("2", "3*u", "0"), want)
        rep = classify(build(data))
        assert rep.is_swallowtail
        assert rep.sigma_g_S == want
        disc = discriminants(data)
        assert disc.D0 * disc.D1 < 0      # the sign lock along non-generic cusps
    with pytest.raises(BuildError, match="tail"):
        exists_swallowtail_along(("2", "3*u", "0"), 1, tail_sign=+1)


def test_flip_data_reverses_sigma0(ex217):
    flipped = build(flip_data(ex217.data))
    r0, r1 = classify(ex217), classify(flipped)
    assert r1.sigma0_S == -r0.sigma0_S
    assert r1.sigma_g_S == -r0.sigma_g_S


def test_roundtrip_invariants_random():
    """build -> extract -> build preserves every reported sign."""
    rng = np.random.default_rng(23)
    count = 0
    while count < 12:
        data = random_data(rng)
        g = build(data)
        try:
            g2 = build(extract_data(g))
            g3 = build(extract_data(g2))
        except BuildError:
            continue
        r2, r3 = classify(g2), classify(g3)
        assert (r2.sigma0_S, r2.sigma_g_S) == (r3.sigma0_S, r3.sigma_g_S)
        d2, d3 = discriminants(extract_data(g)), discriminants(extract_data(g2))
        assert np.sign(d2.D0) == np.sign(d3.D0)
        count += 1


def _flipped_exp_data():
    """Data whose xi is a provider, not an expression: its gamma is integrated."""
    from swallowkit.fields import FlipU
    from swallowkit.jets import parse
    return SwallowtailData(xi=tuple(FlipU(parse(c)) for c in ("exp(u)", "u", "1")),
                           b=("0", "0", "1"))


@pytest.mark.parametrize("source", ["expr", "provider"])
def test_extracted_gamma_is_the_integrated_gamma(source):
    """The axis curve carried by extract_data equals the primitive of u xi
    integrated from the extracted xi, values and jets to order 3."""
    from swallowkit.builder import gamma_from_xi
    data = (SwallowtailData(xi=("exp(u)", "2 + sin(u)", "u"), b=("0.5", "0", "1 + u"))
            if source == "expr" else _flipped_exp_data())
    d = extract_data(build(data))
    integrated = gamma_from_xi(d.xi)
    for u in (-0.3, -0.05, 0.0, 0.1, 0.25):
        for carried, ref in zip(d.gamma, integrated):
            np.testing.assert_allclose(carried.jet(u, 0.0, 3).c, ref.jet(u, 0.0, 3).c,
                                       rtol=0, atol=1e-12)


def test_extraction_roundtrip_integrates_nothing(monkeypatch):
    """build -> extract -> build twice constructs no CurveIntegral: every
    extracted gamma is carried from the germ below."""
    from swallowkit import fields
    germ = build(_flipped_exp_data())       # its own gamma is integrated

    def refuse(self, g):
        raise AssertionError("CurveIntegral constructed on the extraction path")

    monkeypatch.setattr(fields.CurveIntegral, "__init__", refuse)
    r0 = classify(germ)
    g2 = build(extract_data(build(extract_data(germ))))
    r2 = classify(g2)
    assert r2.is_swallowtail
    assert (r2.sigma0_S, r2.sigma_g_S) == (r0.sigma0_S, r0.sigma_g_S)


def test_convert_to_asymptotic_recovers_r():
    """(xi, q xi' + v r) converts back to r = (u^2, -2u, 1), jets to order 3."""
    ad = AsymptoticData(xi=("1", "u", "u^2"), q="0", r=("u^2", "0-2*u", "1"))
    out = convert_to_asymptotic_form(ad.as_general())
    for u in (0.0, 0.1, -0.1):
        for w in (0.0, 0.05):
            for r, ref in zip(out.r, ad.r):
                np.testing.assert_allclose(r.jet(u, w, 3).c, ref.jet(u, w, 3).c,
                                           rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# The extraction providers: one order ledger, array points, truncation
# ---------------------------------------------------------------------------

_AXIS_US = (0.0, 0.05, -0.07)
_OFF_AXIS = ((0.0, 0.0), (0.05, 0.0), (0.03, 0.02), (-0.04, -0.03))
_F_PLUS = dict(xi=("1", "u", "u^2"), q="0", r=("u^2", "0-2*u", "1"))


def _random():
    return random_data(np.random.default_rng([5, 0]))


def _extracted(depth, data):
    """(data extracted depth times from build(data), the germ it was
    extracted from), built afresh."""
    germ = build(data)
    for _ in range(depth):
        below, data = germ, extract_data(germ)
        germ = build(data)
    return data, below


def _alpha(data, below):
    return (JetFn(partial(_alpha_jet, below, data.xi)),)


def _r(depth):
    return convert_to_asymptotic_form(_extracted(depth, AsymptoticData(**_F_PLUS))[0]).r


_PROVIDERS = {
    "xi": (lambda d: _extracted(d, _random())[0].xi, False),
    "alpha": (lambda d: _alpha(*_extracted(d, _random())), False),
    "b": (lambda d: _extracted(d, _random())[0].b, True),
    "gamma": (lambda d: _extracted(d, _random())[0].gamma, False),
    "r": (_r, True),
}


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("name", sorted(_PROVIDERS))
def test_extraction_providers_are_truncation_exact(name, depth):
    """On fresh data, the jet at order n equals bit for bit the jet at order
    n + 3 truncated to n: what lets the providers' memos and the extraction's
    order ledger answer a lower order from a higher one."""
    make, off_axis = _PROVIDERS[name]
    points = _OFF_AXIS if off_axis else [(u, 0.0) for u in _AXIS_US]
    for n in range(4):
        lo, hi = make(depth), make(depth)
        for u, v in points:
            for a, b in zip(vjet(lo, u, v, n), vjet(hi, u, v, n + 3)):
                np.testing.assert_array_equal(a.c, b.truncate(n).c)


_ARRAY_GERMS = {
    "extracted": lambda: build(_extracted(1, _random())[0]),
    "asymptotic-form-of-extracted": lambda: build(convert_to_asymptotic_form(
        _extracted(1, AsymptoticData(**_F_PLUS))[0])),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_GERMS))
def test_extracted_germ_array_fjet_matches_scalar_bitwise(name):
    """One fjet at 9 points of a germ built from extracted data (b) or from
    its asymptotic form (r), on the axis, at u = 0 and off the axis, equals
    its scalar calls bit for bit."""
    us = np.array([0.0, 0.0, 0.05, -0.07, 0.03, -0.04, 0.1, 0.0, 0.02])
    vs = np.array([0.0, 0.01, 0.0, 0.0, 0.02, -0.03, -0.05, -0.02, 0.04])
    arr = _ARRAY_GERMS[name]().fjet(us, vs, 4)
    one = _ARRAY_GERMS[name]()
    for i, (u, v) in enumerate(zip(us, vs)):
        for a, s in zip(arr, one.fjet(float(u), float(v), 4)):
            np.testing.assert_array_equal(a.c[:, i], s.c)


def test_self_intersection_side_of_an_extracted_germ():
    """The grid read as one array call through extracted data: the
    extracted germ (alpha = 1 here) has its source's side."""
    germ = build(random_data(np.random.default_rng([41, 0])))
    assert fr.self_intersection_side(build(extract_data(germ))) == fr.self_intersection_side(germ)


def test_twice_extracted_germ_reads_each_source_point_at_most_three_times():
    """The extraction's order ledger: under classify of a germ extracted
    twice, the depth-0 germ computes each point at most 3 times and is never
    asked an order above 16 (classify's top order 8, plus 4 per level).
    Each point of an array call counts as one computation of that point."""
    germ = build(_random())
    fn, calls = germ._jets._fn, {}

    def counted(u, v, order):
        for key in zip(*(np.ravel(x).tolist() for x in np.broadcast_arrays(u, v))):
            calls[key] = calls.get(key, []) + [order]
        return fn(u, v, order)

    germ._jets._fn = counted
    assert classify(build(extract_data(build(extract_data(germ))))).is_swallowtail
    assert max(len(orders) for orders in calls.values()) <= 3
    assert max(max(orders) for orders in calls.values()) <= 16
