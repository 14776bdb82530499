"""The one memo rule of the jet providers: scalar points are memoised in a
bounded cache that answers lower orders by truncation, array points are
shared for the length of the outermost array call only, and a components()
vector read through vjet comes from one call of its provider; every kind of
lone germ classify meets gives, at an array point, the bits of its scalar
calls; also the package's RK4 step."""

import gc
import warnings

import numpy as np
import pytest

from swallowkit import deform as dm
from swallowkit.builder import AsymptoticData, SwallowtailData, build
from swallowkit.fields import (CACHE_BOUND, CurveIntegral, JetFn, components, rk4_step, vjet,
                               xi_over_u)
from swallowkit.frontal import classify
from swallowkit.jets import JetError, jet_sqrt, parse

_F = parse("u^3 - 2*u*v + exp(u)*sin(v)")


def _composite(u, v, order):
    return jet_sqrt(2.0 + _F.jet(u, v, order) ** 2) / (1.0 + _F.jet(u, v, order))


@pytest.mark.parametrize("orders", [(6, 3, 0, 6), (0, 3, 6, 2)])
def test_memo_is_bit_identical_to_the_bare_function(orders):
    p = JetFn(_composite)
    for order in orders:
        got = p.jet(0.3, -0.2, order)
        assert got.order == order
        np.testing.assert_array_equal(got.c, _composite(0.3, -0.2, order).c)


def test_memo_answers_repeats_and_lower_orders_without_recomputing():
    calls = []

    def fn(u, v, order):
        calls.append(order)
        return _composite(u, v, order)

    p = JetFn(fn)
    p.jet(0.1, 0.2, 5)
    p.jet(0.1, 0.2, 5)
    p.jet(0.1, 0.2, 2)
    assert calls == [5]
    p.jet(0.1, 0.2, 6)
    assert calls == [5, 6]


def test_array_points_bypass_the_memo():
    calls = []

    def fn(u, v, order):
        calls.append(np.shape(u))
        return _composite(u, v, order)

    p = JetFn(fn)
    us = np.array([0.1, 0.2, 0.3])
    first = p.jet(us, np.zeros(3), 3)
    second = p.jet(us, np.zeros(3), 3)
    assert calls == [(3,), (3,)]
    assert len(p._memo) == 0
    np.testing.assert_array_equal(first.c, second.c)
    for k, u in enumerate(us):
        np.testing.assert_allclose(first.c[:, k], _composite(u, 0.0, 3).c, rtol=1e-14)


def _counted_vector(calls):
    """components() of (F, 2F, 3F, 4F), recording the shape of each point."""
    def fn(u, v, order):
        calls.append(np.shape(u))
        f = _F.jet(u, v, order)
        return tuple((k + 1.0) * f for k in range(4))
    return components(fn, 4)


def test_vjet_of_a_components_vector_makes_one_provider_call():
    """At array points, where nothing is memoised, vjet of the whole vector
    and of a slice of it (the x3 split reads entries 1 to 3 of 4) each call
    the provider once and return the entries in their order."""
    calls = []
    vec = _counted_vector(calls)
    us, vs = np.array([0.1, 0.2, 0.3]), np.array([-0.1, 0.0, 0.2])
    whole = vjet(vec, us, vs, 3)
    assert calls == [(3,)]
    tail = vjet(vec[1:], us, vs, 3)
    assert calls == [(3,), (3,)]
    f = _F.jet(us, vs, 3)
    for k, j in enumerate(whole):
        np.testing.assert_array_equal(j.c, ((k + 1.0) * f).c)
    for a, b in zip(tail, whole[1:]):
        np.testing.assert_array_equal(a.c, b.c)
    one = vjet((vec[2],), us, vs, 3)[0]
    assert len(calls) == 3
    np.testing.assert_array_equal(one.c, whole[2].c)


def _assert_one_vector(vec, n=3):
    """The entries of vec share one whole, which returns its n entries in one
    call, and vjet reads them from that call."""
    whole = vec[0].whole
    assert all(c.whole is whole for c in vec)
    assert len(whole.jet(0.05, 0.0, 2)) == n
    for a, b in zip(vjet(vec, 0.05, 0.0, 2), whole.jet(0.05, 0.0, 2)):
        assert a is b


def test_every_assembled_vector_field_is_one_components_vector():
    """Each 3-vector the package assembles from other providers is one
    components() vector: a germ built from non-expression data, the
    extracted xi, b and gamma, the (q, p) and r of the asymptotic form, its
    b = q xi' + v r, gamma-hat, the rescaled b and the unit xi of the
    half-arclength normalization, and the xi of a factored curve."""
    from swallowkit.builder import convert_to_asymptotic_form, extract_data
    from swallowkit.curves import CurveGerm, factor_cusp
    data = extract_data(build(_D217))
    for vec in (data.xi, data.b, data.gamma, build(data)._components):
        _assert_one_vector(vec)
    conv = convert_to_asymptotic_form(SwallowtailData(
        xi=("1", "u", "u^2"), b=("0.5 + u + v*u^2", "(0.5 + u)*u + 0.3 - 2*u*v",
                                 "(0.5 + u)*u^2 + 0.6*u + v")))
    _assert_one_vector((conv.q,), 2)
    for vec in (conv.r, conv.as_general().b):
        _assert_one_vector(vec)
    unit = dm._UnitXiData(_D217)
    for vec in (unit.gamma, unit.b, unit.xi, factor_cusp(CurveGerm(("u^2", "u^3", "0"))).xi):
        _assert_one_vector(vec)


def test_array_calls_of_the_half_arclength_chain_store_nothing():
    """t(u) and the speed at an array of u off 0 (u = 0 takes the scalar
    branch) leave the half-arclength memo empty; a scalar call fills it."""
    from swallowkit.curves import CurveGerm, HalfArclength
    H = HalfArclength(CurveGerm(("u^2/2", "u^3/3", "u^4/4")))
    us = np.array([-0.2, 0.05, 0.1])
    H.t_jet(us, 3)
    H.speed().jet(us, 0.0, 3)
    assert len(H._t_jets._memo) == len(H._speed_jets._memo) == 0
    H.t_jet(0.1, 3)
    assert len(H._t_jets._memo) > 0 and len(H._speed_jets._memo) > 0


def test_a_germ_of_one_vector_memoises_a_point_once():
    """A germ built from non-expression data reads its components() vector
    as its own: after one scalar read, the vector's memo is the one memo of
    the germ that holds the point."""
    from swallowkit.builder import extract_data
    germ = build(extract_data(build(_D217)))
    germ.fjet(0.05, 0.01, 3)
    jetfns = {id(p): p for p in (*vars(germ).values(), germ._components[0].whole)
              if isinstance(p, JetFn)}
    assert sum((0.05, 0.01) in p._memo._d for p in jetfns.values()) == 1


def test_memo_clears_past_its_bound():
    p = JetFn(_composite)
    for k in range(CACHE_BOUND + 1):
        p.jet(0.001 * k, 0.0, 1)
    assert len(p._memo) == CACHE_BOUND + 1
    p.jet(-0.5, 0.0, 1)
    assert len(p._memo) == 1


def test_classifying_the_same_germ_twice_gives_identical_reports():
    """The second classification is served by the memos of the composite
    providers of a xi-interpolation stage; it equals the first and the
    classification of a freshly generated germ."""
    d1 = SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0.25"))
    d2 = SwallowtailData(xi=("0.9 - 0.4*u", "0.4 + 0.9*u", "1.5*u^2"), b=("0.1", "0", "0.3"))
    fam = dm.deform_theorem_A(d1, d2)
    germ = build(fam.stages[1].generator(0.5))
    first, second = repr(classify(germ)), repr(classify(germ))
    assert first == second
    assert repr(classify(build(fam.stages[1].generator(0.5)))) == first


# classify's axis samples (frontal.AXIS_US and NEAR_US)
_AXIS_SAMPLES = np.array([-0.08, -0.05, -0.03, -0.0125, 0.0, 0.0125, 0.03, 0.05, 0.08])
_D217 = SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "1"))
_DPLUS = AsymptoticData(xi=("1", "u", "u^2"), q="0", r=("u^2", "0-2*u", "1"))


def _extracted(depth):
    from conftest import random_data
    from swallowkit.builder import extract_data
    germ = build(random_data(np.random.default_rng([3, 0])))
    for _ in range(depth):
        germ = build(extract_data(germ))
    return germ


def _theorem_D_stage(k):
    from test_deform import rotated_asym
    fam = dm.deform_theorem_D(_DPLUS, rotated_asym(0.4, "0.05", 2.0), preserve_sign=True)
    return build(fam.stages[k].generator(0.5))


def _theorem_A_interpolation():
    from test_deform import rotated_scaled_217
    return build(dm.deform_theorem_A(_D217, rotated_scaled_217()).stages[1].generator(0.5))


def _asymptotic_of_extracted():
    from swallowkit.builder import build_asymptotic, convert_to_asymptotic_form, extract_data
    return build(convert_to_asymptotic_form(extract_data(build_asymptotic(_DPLUS))))


def _made_admissible():
    from swallowkit.frontal import MapGerm, make_admissible
    return make_admissible(MapGerm.from_exprs(("u", "2*v^3+u*v", "3*v^4+u*v^2")), (0.0, 0.0))


def _unit_xi_endpoint():
    n = dm._UnitXiData(_D217)
    return build(SwallowtailData.of(n.xi, n.b, n.gamma))


_LONE_GERMS = {
    "built": lambda: _extracted(0),
    "extracted-once": lambda: _extracted(1),
    "extracted-twice": lambda: _extracted(2),
    "asymptotic": lambda: build(_DPLUS),
    "asymptotic-of-extracted": _asymptotic_of_extracted,
    "unit-xi-endpoint": _unit_xi_endpoint,
    "theorem-A-xi-interpolation": _theorem_A_interpolation,
    "theorem-D-normal-form": lambda: _theorem_D_stage(0),
    "theorem-D-xi-interpolation": lambda: _theorem_D_stage(1),
    "make-admissible": _made_admissible,
}


@pytest.mark.parametrize("kind", sorted(_LONE_GERMS))
def test_array_call_at_the_axis_samples_equals_scalar_calls(kind):
    """One array call of a lone germ at classify's nine axis samples, with v
    the scalar 0 or an array of zeros, holds at orders 1 to 3 the bits of
    the scalar calls of a fresh copy of the germ, whose memos the array
    calls have not filled."""
    germ, fresh = _LONE_GERMS[kind](), _LONE_GERMS[kind]()
    arrays = [(order, germ.fjet(_AXIS_SAMPLES, v, order))
              for v in (0.0, np.zeros(_AXIS_SAMPLES.shape)) for order in (1, 2, 3)]
    for i, u in enumerate(_AXIS_SAMPLES.tolist()):
        scalar = {order: fresh.fjet(u, 0.0, order) for order in (1, 2, 3)}
        for order, jets in arrays:
            for a, s in zip(jets, scalar[order], strict=True):
                assert a.order == s.order == order
                assert a.c.shape == s.c.shape[:1] + _AXIS_SAMPLES.shape
                np.testing.assert_array_equal(a.c[:, i], s.c)


def _certify_a_and_d():
    from test_deform import rotated_asym
    d1 = SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0.25"))
    d2 = SwallowtailData(xi=("0.9 - 0.4*u", "0.4 + 0.9*u", "1.5*u^2"), b=("0.1", "0", "0.3"))
    fam = dm.deform_theorem_A(d1, d2)
    assert dm.certify(fam, "generic_swallowtail", steps=3).passed
    dp = AsymptoticData(xi=("1", "u", "u^2"), q="0", r=("u^2", "0-2*u", "1"))
    fam = dm.deform_theorem_D(dp, rotated_asym(0.4, "0.05", 2.0), preserve_sign=True)
    assert dm.certify(fam, "asymptotic_swallowtail", steps=3,
                      track_kext_sign=fam.kext_sign).passed


def test_every_jet_that_claims_u_alone_is_zero_off_the_axis(monkeypatch, tmp_path):
    """Jet2.u_only is a promise the kernels act on: over a Theorem A and a
    Theorem D certificate, classify of a twice-extracted germ and the cgc
    command on a small grid, every operand of a sum, product or quotient
    that claims it, and every pair the kernels take as of u alone, is zero
    off the axis; and the claim reaches both kernels."""
    from swallowkit import jets
    from swallowkit._jettables import axis_indices
    from swallowkit.cli import main
    claimed = {"mul": 0, "div": 0}

    def zero_off_axis(c, order):
        off = np.ones(c.shape[0], dtype=bool)
        off[axis_indices(order)] = False
        return not np.any(c[off] != 0.0)

    def spy(name, kernel):
        def wrapper(a, b, order, u_only=False):
            if u_only:
                assert zero_off_axis(a, order) and zero_off_axis(b, order), name
                claimed[name] += 1
            return kernel(a, b, order, u_only)
        return wrapper

    def align(a, b, real=jets._align):
        for x in (a, b):
            assert not x.u_only or zero_off_axis(x.c, x.order)
        return real(a, b)

    monkeypatch.setattr(jets, "_jet_mul", spy("mul", jets._jet_mul))
    monkeypatch.setattr(jets, "_jet_div", spy("div", jets._jet_div))
    monkeypatch.setattr(jets, "_align", align)
    _certify_a_and_d()
    classify(_extracted(2))
    assert main(["cgc", "--grid", "21,21", "--window=-0.3,0.3,0.8,1.2",
                 "--out-prefix", str(tmp_path / "cgc")]) == 0
    assert claimed["mul"] > 0 and claimed["div"] > 0


def test_dropped_families_are_freed_by_reference_counting():
    """Building and certifying a Theorem A and a Theorem D family leaves no
    reference cycle behind: with the cyclic collector off, dropping them
    frees everything, so a later collection finds nothing."""
    _certify_a_and_d()          # first-use work (imports, index tables)
    gc.collect()
    gc.disable()
    try:
        _certify_a_and_d()
        assert gc.collect() == 0
    finally:
        gc.enable()


_INTEGRANDS = {"exp": "exp(u)", "sin": "2 + sin(3*u)"}


@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
def test_curve_integral_matches_adaptive_quadrature(name):
    """The fixed Gauss-Legendre rule gives int_0^u t g(t) dt to 1e-13 at
    |u| <= 1.5, against a tight adaptive quadrature."""
    from scipy.integrate import quad
    g = parse(_INTEGRANDS[name])
    ci = CurveIntegral(g)
    for u in np.linspace(-1.5, 1.5, 13):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # quad reports its roundoff floor
            ref, _ = quad(lambda t: t * g.jet(t, 0.0, 0).value(), 0.0, u,
                          epsabs=1e-17, epsrel=1e-14, limit=200)
        assert abs(ci.jet(float(u), 0.0, 0).value() - ref) < 1e-13


@pytest.mark.parametrize("side", [1, -1])
def test_primitive_table_does_not_depend_on_the_order_of_growth(side):
    """The table of a CurveIntegral holds the same bits, at its nodes and
    at the points read, whether one side grew by one read at 1.2, by reads
    at 0.3 and then 1.2, or by extend first."""
    us = side * np.linspace(0.0, 1.2, 97)

    def grown(reads, extend=None):
        ci = CurveIntegral(parse(_INTEGRANDS["sin"]))
        if extend is not None:
            ci._table.extend(extend)
        for u in reads:
            ci.jet(side * u, 0.0, 0)
        return ci._table.nodes(side, 1.2), ci.jet(us, 0.0, 0).c

    ref = grown([1.2])
    assert len(ref[0][1]) == 601
    for other in (grown([0.3, 1.2]), grown([], side * 1.2), grown([0.3], np.array([-1.2, 1.2]))):
        for a, b in zip(ref, other):
            np.testing.assert_array_equal(np.concatenate(a), np.concatenate(b))


def test_curve_integral_grows_each_side_only_as_far_as_it_is_read():
    """sqrt(1 - 4u) is real for u < 1/4 only: reads at 0.1 and at -0.5 do
    not reach past it, and the jets at u >= 1/4 raise."""
    ci = CurveIntegral(parse("sqrt(1 - 4*u)"))
    for u in (0.1, -0.5):
        assert np.isfinite(ci.jet(u, 0.0, 2).c).all()
    for u in (0.25, 0.3):
        with pytest.raises(JetError):
            ci.jet(u, 0.0, 2)


_US = np.array([-0.7, -0.1, 0.0, 0.05, 0.3, 1.2])


def _assert_array_matches_scalar(make, order=3):
    """make() gives a fresh provider; its jets over _US equal, bit for bit,
    the jets of another fresh one taken point by point."""
    arr = make().jet(_US, 0.0, order)
    one = make()
    for i, u in enumerate(_US):
        np.testing.assert_array_equal(arr.c[:, i], one.jet(float(u), 0.0, order).c)


def _extracted_germ():
    return build(SwallowtailData(xi=("exp(u)", "2 + sin(u)", "u"), b=("0.5", "0", "1 + u")))


@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
def test_curve_integral_array_matches_scalar_bitwise(name):
    _assert_array_matches_scalar(lambda: CurveIntegral(parse(_INTEGRANDS[name])))


def test_extracted_xi_array_matches_scalar_bitwise():
    """The extracted xi = gamma'/u (fields.xi_over_u of the germ's jets) at an
    array u, u = 0 among the points, and the primitive of u xi integrated
    from it, equal their scalar results."""
    for k in range(3):
        _assert_array_matches_scalar(lambda: xi_over_u(_extracted_germ().fjet)[k])
    _assert_array_matches_scalar(lambda: CurveIntegral(xi_over_u(_extracted_germ().fjet)[0]))


def _classify_extracted_twice():
    from swallowkit.builder import extract_data
    germ = build(extract_data(build(extract_data(_extracted_germ()))))
    assert classify(germ).is_swallowtail


def test_dropped_extracted_germs_are_freed_by_reference_counting():
    """A germ built from data extracted twice, classified and dropped, leaves
    no reference cycle behind."""
    _classify_extracted_twice()
    gc.collect()
    gc.disable()
    try:
        _classify_extracted_twice()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rk4_step_is_fourth_order():
    """y'' = -y as the 2-vector (y, y') over [0, 1]: halving h divides the
    error by about 2^4; a batch of states steps bit for bit as its columns."""
    def osc(x, y):
        return np.stack([y[1], -y[0]])

    def error(n):
        y, h = np.array([1.0, 0.0]), 1.0 / n
        for i in range(n):
            y = rk4_step(osc, i * h, y, h)
        return np.abs(y - [np.cos(1.0), -np.sin(1.0)]).max()

    assert 14.0 <= error(10) / error(20) <= 18.0

    def duffing(x, y):
        return np.stack([y[1], -y[0] * y[0] * y[0] + 0.3 * x * y[1]])

    batch = np.random.default_rng(5).uniform(-1, 1, (2, 5))
    stepped = rk4_step(duffing, 0.2, batch, 0.05)
    for j in range(5):
        np.testing.assert_array_equal(stepped[:, j], rk4_step(duffing, 0.2, batch[:, j], 0.05))
