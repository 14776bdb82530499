"""Certified deformation recipes."""

import numpy as np
import pytest

from swallowkit import deform as dm
from swallowkit.builder import (AsymptoticData, SwallowtailData, build,
                                build_asymptotic, discriminants)
from swallowkit.frontal import classify


def rotated_scaled_217(theta=0.5, scale=1.3, btweak=0.2):
    c, s = np.cos(theta), np.sin(theta)
    return SwallowtailData(
        xi=(f"{scale * 2 * c} - {scale * 3 * s}*u",
            f"{scale * 2 * s} + {scale * 3 * c}*u", "0"),
        b=(f"{btweak}", "0", f"{scale}"))


def rotated_asym(theta, q, rscale):
    from swallowkit.fields import JetFn, pjet
    from swallowkit.jets import parse
    from swallowkit.metric import cross
    c, s = np.cos(theta), np.sin(theta)
    xiE = tuple(parse(x) for x in (f"{c} - {s}*u", f"{s} + {c}*u", "u^2"))

    def nk(k):
        def fn(u, v, order):
            xj = [x.jet(u, 0.0, order + 1) for x in xiE]
            dx = tuple(x.du() for x in xj)
            return rscale * cross(tuple(x.truncate(order) for x in xj), dx)[k]
        return JetFn(fn)

    return AsymptoticData.of(xiE, parse(q), tuple(nk(k) for k in range(3)))


@pytest.fixture(scope="module")
def d217():
    return SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "1"))


@pytest.fixture(scope="module")
def dplus():
    return AsymptoticData(xi=("1", "u", "u^2"), q="0", r=("u^2", "0-2*u", "1"))


def test_theorem_A_certificate(d217):
    fam = dm.deform_theorem_A(d217, rotated_scaled_217())
    cert = dm.certify(fam, "generic_swallowtail", steps=9)
    assert cert.passed, cert.failures
    # endpoint invariants reproduce the inputs (same classification path)
    for e, ref in ((fam.stages[0].generator(0.0), d217),
                   (fam.stages[-1].generator(1.0), rotated_scaled_217())):
        re_ = classify(build(e))
        rr = classify(build(ref))
        # the chain is normalized to sigma0_S = +1, which flips both signs
        assert (re_.sigma0_S, re_.sigma_g_S) in {
            (rr.sigma0_S, rr.sigma_g_S), (-rr.sigma0_S, -rr.sigma_g_S)}


def test_theorem_A_constant_family(d217):
    fam = dm.deform_theorem_A(d217, d217)
    cert = dm.certify(fam, "generic_swallowtail", steps=5)
    assert cert.passed, cert.failures


def test_theorem_A_interpolated_genericity_is_linear_mix():
    """det(xi_t, xi_t', xi_t'')(0) = (1-t) det_1 + t det_2 along stage 2,
    positive throughout when both endpoint cusps are right-handed."""
    c, s = np.cos(0.4), np.sin(0.4)
    d1 = SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0.25"))
    d2 = SwallowtailData(
        xi=(f"{c} - {s}*u", f"{s} + {c}*u", "1.5*u^2"), b=("0", "0", "0.3"))
    fam = dm.deform_theorem_A(d1, d2)
    interp = fam.interp
    d_at = [interp.genericity_at0(t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    for k, t in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
        expected = (1 - t) * d_at[0] + t * d_at[-1]
        assert d_at[k] == pytest.approx(expected, abs=1e-4)
        assert d_at[k] > 0
    # a planar pair mixes to the identically-zero determinant but the
    # family still certifies (the wave-front discriminant is -2 phi there)
    famP = dm.deform_theorem_A(
        SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "1")),
        rotated_scaled_217())
    assert abs(famP.interp.genericity_at0(0.5)) < 1e-9


def _helix_interp():
    """Interpolation between two unit helix tangents (cheap exact fields)."""
    from swallowkit.jets import parse
    return dm.XiInterpolation(
        tuple(parse(c) for c in ("0.8*cos(u)", "0.8*sin(u)", "0.6")),
        tuple(parse(c) for c in ("0.6*cos(u)", "0.6*sin(u)", "0.8")))


def test_xi_interpolation_shares_endpoint_jets(monkeypatch):
    """Off-node endpoint (kappa, tau) jets are computed once and reused by
    every t; the reused jets equal those of a fresh interpolation."""
    from swallowkit.fields import vjet
    interp = _helix_interp()
    fresh_interp = _helix_interp()
    real = dm.curvature_torsion_of
    calls = []

    def counting(xi, u, order=3):
        calls.append((float(u), order))
        return real(xi, u, order)

    monkeypatch.setattr(dm, "curvature_torsion_of", counting)
    u, order = 0.0123, 3                        # off the kappa/tau table nodes
    vjet(interp.xi_t(0.3), u, 0.0, order)
    assert (u, order) in calls
    n_first = len(calls)
    cached = vjet(interp.xi_t(0.7), u, 0.0, order)
    assert len(calls) == n_first
    fresh = vjet(fresh_interp.xi_t(0.7), u, 0.0, order)
    assert len(calls) > n_first
    for a, b in zip(cached, fresh):
        np.testing.assert_array_equal(a.c, b.c)


def test_xi_interpolation_path_marches_on_the_tables(monkeypatch):
    """An interpolated path marches on the kappa/tau tables of the family:
    integrating it evaluates no endpoint curvature, and its kappa and tau
    providers agree with the tables at the nodes: kappa bit for bit, tau
    to rounding, as the tables form kappa^2 tau in another order."""
    from swallowkit.fields import pjet
    interp = _helix_interp()
    calls = []
    real = dm.curvature_torsion_of
    monkeypatch.setattr(dm, "curvature_torsion_of",
                        lambda xi, u, order=3: calls.append(u) or real(xi, u, order))
    path = interp.path(0.3)
    path.state(0.0)                      # the first read marches the batch
    assert calls == []
    batch = path.path_of()
    kp, tp = batch.data.kappa, batch.data.tau
    unodes = interp._mix.unodes
    j = np.array([0, 7, 150, 299])
    k, t = interp._mix.tabulated(np.array([0.3]), unodes[j])
    for i, x in enumerate(unodes[j]):
        assert pjet(kp, float(x), 0.0, 0).value()[path.j] == k[i, 0]
        assert pjet(tp, float(x), 0.0, 0).value()[path.j] == pytest.approx(t[i, 0], rel=1e-15)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_xi_interpolation_batch_columns_equal_lone_marches():
    """The paths of several t marched as one batch are, column by column,
    bit for bit the paths marched one t at a time: at the nodes, off the
    grid, and in the series at an off-grid point for orders 0 to 8."""
    ts = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
    batched = _helix_interp()
    cols = [batched.path(t) for t in ts]
    batch = cols[0].path_of()
    assert batch.data.frame0.shape == (3, 3, len(ts))
    lone = _helix_interp()
    u_off, u0 = 0.0123, -0.0771              # off the grid of step 2e-3
    for t, col in zip(ts, cols):
        alone = lone.path(t)
        assert alone.path_of().data.frame0.shape == (3, 3, 1)
        for u in batch.us:
            np.testing.assert_array_equal(_bits(col.state(u)), _bits(alone.state(u)))
        np.testing.assert_array_equal(_bits(col.state(u_off)), _bits(alone.state(u_off)))
        for order in range(9):
            for a, b in zip(col.series(u0, order), alone.series(u0, order)):
                np.testing.assert_array_equal(_bits(a), _bits(b))
    assert cols[-1].path_of() is batch


def test_xi_interpolation_pending_batch_read_by_threads(monkeypatch):
    """Threads reading the columns of one pending batch get the values of a
    serial reading, and the batch marches once."""
    import sys
    from concurrent.futures import ThreadPoolExecutor
    ts = [0.1 * k for k in range(1, 9)]
    u0 = 0.0123

    def read(col):
        return col.state(u0), col.series(u0, 4)

    serial = _helix_interp()
    ref = [read(serial.path(t)) for t in ts]
    marches = []
    real = dm.FrenetPath
    monkeypatch.setattr(dm, "FrenetPath",
                        lambda data, *a, **kw: marches.append(data) or real(data, *a, **kw))
    shared = _helix_interp()
    cols = [shared.path(t) for t in ts]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as ex:
            futs = [ex.submit(lambda k: [read(c) for c in cols[k::2] + cols[1 - k::2]], k)
                    for k in (0, 1, 0, 1)]
            results = [f.result(timeout=120) for f in futs]
    finally:
        sys.setswitchinterval(old)
    assert [d.frame0.shape for d in marches] == [(3, 3, len(ts))]
    for k, res in zip((0, 1, 0, 1), results):
        order = list(range(k, len(ts), 2)) + list(range(1 - k, len(ts), 2))
        for i, (state, series) in zip(order, res):
            np.testing.assert_array_equal(_bits(state), _bits(ref[i][0]))
            for a, b in zip(series, ref[i][1]):
                np.testing.assert_array_equal(_bits(a), _bits(b))


def test_xi_interpolation_batch_outlives_the_column_memo(monkeypatch):
    """A batch of more t than the column memo holds marches once: a column
    holds its batch, so clearing the memo under a pending batch marches
    nothing again, and the columns read the values of lone marches."""
    from swallowkit.fields import CACHE_BOUND
    marches = []
    real = dm.FrenetPath
    monkeypatch.setattr(dm, "FrenetPath", lambda data, *a, **kw:
                        marches.append(data.frame0.shape[-1]) or real(data, *a, **kw))
    ts = [(k + 0.5) / (CACHE_BOUND + 20) for k in range(CACHE_BOUND + 20)]
    interp = _helix_interp()
    cols = [interp.path(t) for t in ts]
    u = 0.0123
    states = [col.state(u) for col in cols]
    assert marches == [len(ts)]
    lone = _helix_interp()
    for t, state in list(zip(ts, states))[::60]:
        np.testing.assert_array_equal(_bits(state), _bits(lone.path(t).state(u)))


def test_certify_marches_the_interpolation_stage_once(monkeypatch, d217):
    """certify asks for every t of a stage before it checks one, so the 19
    interior t of the xi-interpolation make one batched march; the
    certificate equals one built a t at a time, each t a batch of one."""
    marches = []
    real = dm.FrenetPath
    monkeypatch.setattr(dm, "FrenetPath", lambda data, *a, **kw:
                        marches.append(data.frame0.shape[-1]) or real(data, *a, **kw))
    fam = dm.deform_theorem_A(d217, rotated_scaled_217())
    batched = dm.certify(fam, "generic_swallowtail", steps=21)
    assert marches == [19]

    marches.clear()
    fam = dm.deform_theorem_A(d217, rotated_scaled_217())

    def one_at_a_time(gen):
        def each(t):
            data = gen(t)
            if 0.0 < t < 1.0:                    # march t before the next t is asked for
                fam.interp.path(t).state(0.0)
            return data
        return each

    stage = fam.stages[1]
    assert stage.name == "xi-interpolation"
    stage.generator = one_at_a_time(stage.generator)
    single = dm.certify(fam, "generic_swallowtail", steps=21)
    assert marches == [1] * 19
    assert batched.passed
    assert repr(single.to_dict()) == repr(batched.to_dict())


def test_xi_interpolation_memo_shared_by_threads():
    """Workers sharing the endpoint memo, with more keys than its bound so
    that it clears under them, get the values of a serial computation."""
    import sys
    from concurrent.futures import ThreadPoolExecutor
    from swallowkit.fields import pjet
    us = [0.0005 + 0.002 * k for k in range(300)]     # off-node points

    def sweep(interp, order_of_us):
        kp, tp = interp.kappa_tau(np.array([0.4]))
        return {u: (pjet(kp, u, 0.0, 2).c, pjet(tp, u, 0.0, 2).c) for u in order_of_us}

    ref = sweep(_helix_interp(), us)
    shared = _helix_interp()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as ex:
            futs = [ex.submit(sweep, shared, us[k::2] + us[1 - k::2]) for k in (0, 1, 0, 1)]
            results = [f.result(timeout=120) for f in futs]
    finally:
        sys.setswitchinterval(old)
    for res in results:
        assert res.keys() == ref.keys()
        for u, (k, t) in res.items():
            np.testing.assert_array_equal(k, ref[u][0])
            np.testing.assert_array_equal(t, ref[u][1])


def test_xi_interpolation_endpoint_paths():
    """path(0) and path(1) are integrated like any other t and reproduce the
    endpoint unit fields at the integration nodes to RK4 accuracy."""
    from swallowkit.fields import vjet
    interp = _helix_interp()
    for t, xi in ((0.0, interp.xi[0]), (1.0, interp.xi[1])):
        path = interp.path(t)
        assert path is not None
        for u in np.linspace(-0.3, 0.3, 13):
            T = path.frame(float(u))[0]
            ref = np.array([j.value() for j in vjet(xi, float(u), 0.0, 0)])
            assert np.abs(T - ref).max() < 1e-9, (t, u)


def test_theorem_A_sign_mismatch_rejected(d217):
    other = SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0-0.5"))  # sigma_g < 0
    with pytest.raises(dm.DeformError, match="mismatch"):
        dm.deform_theorem_A(d217, other)


def test_theorem_A_nongeneric_rejected(d217, ):
    with pytest.raises(dm.DeformError, match="generic"):
        dm.deform_theorem_A(d217, AsymptoticData(
            xi=("1", "u", "u^2"), q="0", r=("u^2", "0-2*u", "1")).as_general())


def test_flip_sigma_lemma():
    d = SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0-0.5"))
    fam = dm.deform_flip_sigma_S(d)
    cert = dm.certify(fam, "swallowtail", steps=21)
    assert cert.passed, cert.failures
    mid = fam.stages[0].generator(0.5)          # the b = 0 midpoint
    assert discriminants(mid).D0 == pytest.approx(2.0)
    end = discriminants(fam.stages[0].generator(1.0))
    assert end.D1 > 0
    with pytest.raises(dm.DeformError):
        dm.deform_flip_sigma_S(SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0.5")))


def test_flip_sigma_infeasible_when_psi_zero():
    """Along a non-generic cusp the scaling family must cross the wall."""
    d = SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "0-1"))
    with pytest.raises(dm.DeformError, match="leaves the swallowtail class"):
        dm.deform_flip_sigma_S(d)


def test_make_generic_lemma():
    developable_data = SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0"))
    fam = dm.deform_make_generic(developable_data)
    cert = dm.certify(fam, "swallowtail", steps=21)
    assert cert.passed, cert.failures
    end = discriminants(fam.stages[0].generator(1.0))
    assert end.D0 > 0 and end.D1 > 0
    with pytest.raises(dm.DeformError, match="already generic"):
        dm.deform_make_generic(SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0.25")))


def test_make_generic_impossible_seed():
    """sigma_g = 0 with a non-generic cusp direction is not a swallowtail."""
    d = SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "0"))
    with pytest.raises(dm.DeformError, match="not a swallowtail"):
        dm.deform_make_generic(d)


def test_any_swallowtail_pipeline(d217, dplus):
    fam = dm.deform_any_swallowtail(d217, dplus)
    cert = dm.certify(fam, "swallowtail", steps=7)
    assert cert.passed, cert.failures
    fam2 = dm.deform_any_swallowtail(dplus, d217)
    cert2 = dm.certify(fam2, "swallowtail", steps=7)
    assert cert2.passed, cert2.failures


def test_any_swallowtail_rejects_nonswallowtail(d217):
    with pytest.raises(dm.DeformError, match="not a swallowtail"):
        dm.deform_any_swallowtail(
            SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "2*u")), d217)


def test_lemma_3_7_positive_branch():
    d = AsymptoticData(xi=("1", "u", "u^2"), q="0",
                       r=("2*u^2", "0-4*u", "2"))
    fam = dm.deform_lemma_3_7(d)
    cert = dm.certify(fam, "asymptotic_swallowtail", steps=21, track_kext_sign=fam.sign)
    assert fam.sign == 1
    assert cert.passed, cert.failures
    end = fam.stages[0].generator(1.0)
    disc = discriminants(end)
    assert disc.Dqr(0.0) == pytest.approx(6.0)


def test_lemma_3_7_negative_branch():
    d = AsymptoticData(xi=("1", "u", "u^2"), q="0.3",
                       r=("0-0.01*u^2", "0.02*u", "0-0.01"))
    disc = discriminants(d)
    assert disc.Dqr(0.0) < 0
    fam = dm.deform_lemma_3_7(d)
    assert fam.sign == -1
    cert = dm.certify(fam, "asymptotic_swallowtail", steps=21, track_kext_sign=-1)
    assert cert.passed, cert.failures
    assert discriminants(fam.stages[0].generator(1.0)).Dqr(0.0) == pytest.approx(-6.0)


def test_lemma_3_7_rejects_degenerate():
    with pytest.raises(dm.DeformError, match="Dqr"):
        dm.deform_lemma_3_7(AsymptoticData(xi=("1", "u", "u^2"), q="0",
                                           r=("0", "0", "0")))


def test_theorem_D_positive_pair(dplus):
    d2 = rotated_asym(0.4, "0.05", 2.0)
    fam = dm.deform_theorem_D(dplus, d2, preserve_sign=True)
    cert = dm.certify(fam, "asymptotic_swallowtail", steps=9,
                      track_kext_sign=fam.kext_sign)
    assert fam.kext_sign == 1
    assert cert.passed, cert.failures


def test_theorem_D_negative_pair():
    d1 = AsymptoticData(xi=("1", "u", "u^2"), q="0", r=("0-u^2", "2*u", "0-1"))
    d2 = rotated_asym(0.3, "0.1", -1.5)
    fam = dm.deform_theorem_D(d1, d2, preserve_sign=True)
    cert = dm.certify(fam, "asymptotic_swallowtail", steps=9,
                      track_kext_sign=fam.kext_sign)
    assert fam.kext_sign == -1
    assert cert.passed, cert.failures


def test_theorem_D_mixed_rejected(dplus):
    d2 = rotated_asym(0.3, "0.1", -1.5)
    with pytest.raises(dm.DeformError, match="sign preservation impossible"):
        dm.deform_theorem_D(dplus, d2, preserve_sign=True)


def test_theorem_D_general_route():
    d1 = AsymptoticData(xi=("1", "u", "u^2"), q="0.1", r=("0", "0", "0"))
    d2 = AsymptoticData(xi=("1", "u", "u^2"), q="0", r=("0", "0", "0"))
    fam = dm.deform_theorem_D(d1, d2, preserve_sign=False)
    cert = dm.certify(fam, "asymptotic_swallowtail", steps=9)
    assert cert.passed, cert.failures


def test_coordinate_homotopy():
    cert = dm.coordinate_homotopy("u + u^2", "v + u*v")
    assert cert.passed
    certI = dm.coordinate_homotopy("u", "v")
    assert certI.passed
    with pytest.raises(dm.DeformError, match="not admissible"):
        dm.coordinate_homotopy("0 - u", "v")
    with pytest.raises(dm.DeformError, match="axis"):
        dm.coordinate_homotopy("u", "v + u^2")


def test_endpoint_pointwise_fidelity(d217):
    """generator(0) is the input germ up to the documented normalizations:
    unit cusp field via u = u(t), transverse rescaling w = v |xi(t)|."""
    fam = dm.deform_theorem_A(d217, rotated_scaled_217())
    e0 = fam.stages[0].generator(0.0)
    g_norm = build(e0)
    # the chain flipped both endpoints to sigma0_S = +1
    from swallowkit.builder import flip_data
    from swallowkit.curves import HalfArclength, CurveGerm
    from swallowkit.builder import gamma_from_xi
    d_flip = flip_data(d217)
    g_raw = build(d_flip)
    curve = CurveGerm(d_flip.gamma)
    H = HalfArclength(curve, xi=d_flip.xi)
    from swallowkit.fields import pjet
    for u in np.linspace(-0.2, 0.2, 11):
        t = H.t_of_u(float(u))
        S = pjet(H.speed(), float(u), 0.0, 0).value()
        for w in np.linspace(-0.1, 0.1, 11):
            lhs = g_norm.value(float(u), float(w))
            rhs = g_raw.value(t, float(w) / S)
            assert np.max(np.abs(lhs - rhs)) < 1e-12
