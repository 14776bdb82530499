"""Certified deformation recipes."""

import numpy as np
import pytest

from swallowkit import deform as dm
from swallowkit.builder import (AsymptoticData, SwallowtailData, build,
                                build_asymptotic, discriminants)
from swallowkit.curves import FrenetPath
from swallowkit.fields import Scaled, xi_frame
from swallowkit.frontal import classify


def rotated_scaled_217(theta=0.5, scale=1.3, btweak=0.2):
    c, s = np.cos(theta), np.sin(theta)
    return SwallowtailData(
        xi=(f"{scale * 2 * c} - {scale * 3 * s}*u",
            f"{scale * 2 * s} + {scale * 3 * c}*u", "0"),
        b=(f"{btweak}", "0", f"{scale}"))


def rotated_asym(theta, q, rscale):
    from swallowkit.fields import JetFn
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


def _genericity_at0(interp, t):
    """det(xi_t, xi_t', xi_t'')(0) of the interpolated unit field at t."""
    return float(np.linalg.det(np.stack(xi_frame(interp.fields(t)[0], 0.0, 2), axis=1)))


def test_theorem_A_interpolated_genericity_is_linear_mix():
    """det(xi_t, xi_t', xi_t'')(0) = (1-t) det_1 + t det_2 along stage 2,
    positive throughout when both endpoint cusps are right-handed."""
    c, s = np.cos(0.4), np.sin(0.4)
    d1 = SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0.25"))
    d2 = SwallowtailData(
        xi=(f"{c} - {s}*u", f"{s} + {c}*u", "1.5*u^2"), b=("0", "0", "0.3"))
    fam = dm.deform_theorem_A(d1, d2)
    interp = fam.interp
    d_at = [_genericity_at0(interp, t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    for k, t in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
        expected = (1 - t) * d_at[0] + t * d_at[-1]
        assert d_at[k] == pytest.approx(expected, abs=1e-4)
        assert d_at[k] > 0
    # a planar pair mixes to the identically-zero determinant but the
    # family still certifies (the wave-front discriminant is -2 phi there)
    famP = dm.deform_theorem_A(
        SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "1")),
        rotated_scaled_217())
    assert abs(_genericity_at0(famP.interp, 0.5)) < 1e-9


def _helix_interp():
    """Interpolation between two unit helix tangents (cheap exact fields)."""
    from swallowkit.jets import parse
    return dm.XiInterpolation(
        tuple(parse(c) for c in ("0.8*cos(u)", "0.8*sin(u)", "0.6")),
        tuple(parse(c) for c in ("0.6*cos(u)", "0.6*sin(u)", "0.8")))


def test_xi_interpolation_shares_endpoint_jets(monkeypatch):
    """Off-node endpoint (kappa, tau) jets are computed once, one order up,
    and reused by every t and by the next order; the reused jets equal
    those of a fresh interpolation."""
    from swallowkit.fields import vjet
    interp = _helix_interp()
    fresh_interp = _helix_interp()
    real = dm.curvature_torsion_of
    calls = []

    def counting(xi, u, order=3):
        if np.ndim(u) == 0:                     # not the march's array calls
            calls.append((float(u), order))
        return real(xi, u, order)

    monkeypatch.setattr(dm, "curvature_torsion_of", counting)
    u, order = 0.0123, 3                        # off the nodes of the march
    xi_03 = interp.fields(0.3)[0]
    vjet(xi_03, u, 0.0, order)
    assert (u, order + 1) in calls and (u, order) not in calls
    n_first = len(calls)
    vjet(xi_03, u, 0.0, order + 1)              # the cusp frame's read, one order up
    assert len(calls) == n_first
    cached = vjet(interp.fields(0.7)[0], u, 0.0, order)
    assert len(calls) == n_first
    fresh = vjet(fresh_interp.fields(0.7)[0], u, 0.0, order)
    assert len(calls) > n_first
    for a, b in zip(cached, fresh):
        np.testing.assert_array_equal(a.c, b.c)


def _spy_kappa_tau(monkeypatch):
    """(id of the field, shape of u, order) of every curvature_torsion_of
    call of deform, in order."""
    real, calls = dm.curvature_torsion_of, []

    def spy(xi, u, order=3):
        calls.append((id(xi), np.shape(u), order))
        return real(xi, u, order)
    monkeypatch.setattr(dm, "curvature_torsion_of", spy)
    return calls


def _theorem_families(d217, dplus):
    """(family, predicate, tracked sign) of one Theorem A and one Theorem D
    certificate, each with one xi-interpolation stage."""
    famD = dm.deform_theorem_D(dplus, rotated_asym(0.4, "0.05", 2.0), preserve_sign=True)
    return [(dm.deform_theorem_A(d217, rotated_scaled_217()), "generic_swallowtail", None),
            (famD, "asymptotic_swallowtail", famD.kext_sign)]


def test_certificate_reads_each_endpoint_field_twice(monkeypatch, d217, dplus):
    """A certificate of 21 steps reads the (kappa, tau) of each endpoint
    field of its xi-interpolation in two curvature_torsion_of calls: the
    march's order-0 check grid, one block, and the union of the points the
    certificate asks, at the highest order asked."""
    for fam, predicate, sign in _theorem_families(d217, dplus):
        calls = _spy_kappa_tau(monkeypatch)
        cert = dm.certify(fam, predicate, steps=21, track_kext_sign=sign)
        assert cert.passed, cert.failures
        fields = sorted({f for f, _, _ in calls})
        assert len(fields) == 2
        for f in fields:
            assert [(s, o) for g, s, o in calls if g == f] == [
                ((1201,), 0), (dm._union_us().shape, dm._UNION_ORDER)]


def test_certify_of_two_steps_reads_no_kappa_tau(monkeypatch, d217, dplus):
    """A stage with no interior t marches nothing, so a certificate of
    t = 0 and t = 1 alone makes no curvature_torsion_of call."""
    calls = _spy_kappa_tau(monkeypatch)
    for fam, predicate, sign in _theorem_families(d217, dplus):
        assert dm.certify(fam, predicate, steps=2, track_kext_sign=sign).passed
    assert calls == []


def test_endpoint_union_reads_equal_direct_calls():
    """Every read of the union of an endpoint field and of its (kappa, tau),
    at each of its points alone and at all of them as one array, at each
    order up to the union's, equals bit for bit a direct read on a fresh
    field at that order: vjet for the field, curvature_torsion_of for its
    (kappa, tau)."""
    from swallowkit.curves import curvature_torsion_of
    from swallowkit.fields import vjet
    us = dm._union_us()
    xi, kt = dm._endpoint_providers(_fresh_unit_xi().xi)
    kt.jet(0.0, 0.0, 1)                         # the first read at order >= 1
    for read, direct, top in (
            (lambda u, o: vjet(xi, u, 0.0, o), lambda f, u, o: vjet(f, u, 0.0, o),
             dm._UNION_ORDER + 2),
            (lambda u, o: kt.jet(u, 0.0, o), curvature_torsion_of, dm._UNION_ORDER)):
        for order in range(top + 1):
            fresh = _fresh_unit_xi().xi
            arr = read(us, order)
            for i, u in enumerate(us.tolist()):
                for got, a, w in zip(read(u, order), arr, direct(fresh, u, order), strict=True):
                    assert got.order == a.order == order
                    np.testing.assert_array_equal(_bits(got.c), _bits(w.c), err_msg=f"{u} {order}")
                    np.testing.assert_array_equal(_bits(a.c[:, i]), _bits(w.c))


def test_endpoint_kappa_tau_off_the_union_is_computed_at_its_order(monkeypatch):
    """A read with a point off the union, or above the union's order, is
    computed at its own order, and equals a direct call on a fresh field."""
    from swallowkit.curves import curvature_torsion_of
    calls = _spy_kappa_tau(monkeypatch)
    xi, kt = dm._endpoint_providers(_fresh_unit_xi().xi)
    assert len(kt.jet(0.0, 0.0, 0)) == 2 and calls == [(id(xi), (), 0)]
    kt.jet(0.0, 0.0, 2)
    assert calls[1:] == [(id(xi), dm._union_us().shape, dm._UNION_ORDER)]
    top = dm._UNION_ORDER + 1
    for u, order in ((0.0123, 3), (np.array([0.0, 0.0123]), 4), (0.0, top)):
        del calls[:]
        got = kt.jet(u, 0.0, order)
        assert calls == [(id(xi), np.shape(u), order)]
        for a, w in zip(got, curvature_torsion_of(_fresh_unit_xi().xi, u, order), strict=True):
            np.testing.assert_array_equal(_bits(a.c), _bits(w.c))


def _spy_t_jet(monkeypatch):
    """(id of the table, shape of u, order) of every computation of t(u)
    (curves._PhiTable.t_jet) by a HalfArclength made after the call, in
    order."""
    from swallowkit import curves
    real, calls = curves._PhiTable.t_jet, []

    def spy(table, u0, v, order):
        calls.append((id(table), np.shape(u0), order))
        return real(table, u0, v, order)
    monkeypatch.setattr(curves._PhiTable, "t_jet", spy)
    return calls


def test_certificate_computes_each_endpoint_t_of_u_twice(monkeypatch, d217, dplus):
    """Building and certifying a Theorem A and a Theorem D family of 21
    steps computes the half-arclength t(u) of each endpoint field in two
    calls: the union of the points the certificate asks, at the order the
    xi union reads it, and the march's check grid, one block of 1,201
    points, at order 2 (its order-0 kappa and tau read the unit field two
    orders up)."""
    calls = _spy_t_jet(monkeypatch)
    for fam, predicate, sign in _theorem_families(d217, dplus):
        cert = dm.certify(fam, predicate, steps=21, track_kext_sign=sign)
        assert cert.passed, cert.failures
    tables = sorted({t for t, _, _ in calls})
    assert len(tables) == 4
    for t in tables:
        assert [(s, o) for g, s, o in calls if g == t] == [
            (dm._union_us().shape, dm._UNION_ORDER + 2), ((1201,), 2)]


def test_unit_xi_union_reads_equal_direct_calls(monkeypatch):
    """t(u), gamma-hat, the speed S and the rescaled b of a _UnitXiData
    read t(u) through its union: once the first read at an order >= 1 has
    filled it, a read at each union point alone and at all of them as one
    array, at every order up to the top (two below it for b, which reads
    t(u) two orders up), computes no t(u), and equals bit for bit the read
    on a fresh _UnitXiData whose t(u) is a plain JetFn, computed at each
    read's own points and order."""
    from swallowkit.fields import JetFn, vjet
    calls = _spy_t_jet(monkeypatch)
    us, top = dm._union_us(), dm._UNION_ORDER + 2
    n = _fresh_unit_xi()
    n.H.t_jet(0.0, 1)                           # the first read at order >= 1
    table = id(n.H._table)
    readers = {"t": (lambda m, u, o: [m.H.t_jet(u, o)], top),
               "gamma_hat": (lambda m, u, o: vjet(m.gamma, u, 0.0, o), top),
               "speed": (lambda m, u, o: [m.speed.jet(u, 0.0, o)], top),
               "b": (lambda m, u, o: vjet(m.b, u, 0.02, o), top - 2)}
    for order in range(top + 1):
        direct = _fresh_unit_xi()
        direct.H._t_jets = JetFn(direct.H._table.t_jet)
        for name, (read, high) in readers.items():
            if order > high:
                continue
            arr = read(n, us, order)
            for i, u in enumerate(us.tolist()):
                for got, a, w in zip(read(n, u, order), arr, read(direct, u, order), strict=True):
                    assert got.order == a.order == order
                    np.testing.assert_array_equal(_bits(got.c), _bits(w.c),
                                                  err_msg=f"{name} {u} {order}")
                    np.testing.assert_array_equal(_bits(a.c[:, i]), _bits(w.c))
    assert [(s, o) for t, s, o in calls if t == table] == [(us.shape, top)]


def _fresh_unit_xi(xi=("2", "3*u", "0"), b=("0", "0", "1")):
    """Half-arclength normalization of the flipped data, with empty memos."""
    from swallowkit.builder import flip_data
    return dm._UnitXiData(flip_data(SwallowtailData(xi=xi, b=b)))


# off every table node; -0.071168 at orders 2 and 6 and -0.0125 at order 6
# were not truncation-exact under a Newton series reversion
_TRUNCATION_POINTS = (-0.071168, -0.0125, 0.0, 0.0123, 0.2)


def _assert_truncation_exact(read):
    """read(order) gives, on fresh objects, a list over the points of lists
    of jets or series arrays; for N = 0 to 10 the result at order N + 1
    cut to N is the result at N bit for bit."""
    def cut(x, n):
        return x[: n + 1] if isinstance(x, np.ndarray) else x.truncate(n).c

    def raw(x):
        return x if isinstance(x, np.ndarray) else x.c
    got = [read(n) for n in range(12)]
    for n in range(11):
        for u, lo, hi in zip(_TRUNCATION_POINTS, got[n], got[n + 1]):
            for a, b in zip(lo, hi):
                assert np.array_equal(_bits(cut(b, n)), _bits(raw(a))), (u, n)


def test_half_arclength_chain_is_truncation_exact():
    """t(u), the unit field, the speed and the (kappa, tau) of the unit
    field: each asked at order N + 1 and cut to N equals the call at N, on
    fresh objects for each side, for N = 0 to 10."""
    from swallowkit.curves import curvature_torsion_of
    readers = {
        "t_jet": lambda n, u, o: [n.H.t_jet(u, o)],
        "xi_hat_jets": lambda n, u, o: list(n.H.xi_hat_jets(u, o)),
        "speed": lambda n, u, o: [n.speed.jet(u, 0.0, o)],
        "curvature_torsion_of": lambda n, u, o: list(curvature_torsion_of(n.xi, u, o)),
    }
    for r in readers.values():
        def read(o, r=r):
            n = _fresh_unit_xi()
            return [r(n, u, o) for u in _TRUNCATION_POINTS]
        _assert_truncation_exact(read)


def test_frenet_series_is_truncation_exact():
    """The Frenet series of an interpolation batch between two non-planar
    unit fields, at order N + 1 cut to N, is the series at N bit for bit,
    on a fresh interpolation for each side."""
    c, s = np.cos(0.4), np.sin(0.4)

    def read(o):
        e1 = _fresh_unit_xi(("1", "u", "u^2"), ("0", "0", "0.25"))
        e2 = _fresh_unit_xi((f"{c} - {s}*u", f"{s} + {c}*u", "1.5*u^2"), ("0", "0", "0.3"))
        path = dm.XiInterpolation(e1.xi, e2.xi).march([0.3, 0.6])
        return [path.series(u, o) for u in _TRUNCATION_POINTS]
    _assert_truncation_exact(read)


@pytest.mark.parametrize("array_first", [True, False])
def test_frenet_series_at_an_array_equals_scalar_calls(array_first):
    """FrenetPath.series at an array u0 (points on both sides of 0, a step
    edge and 0 among them) holds in each point's slot the bits of the
    scalar call at that point, for orders 2 to 9, whether the array or the
    scalar points are asked first."""
    path = _helix_interp().march([0.2, 0.5, 0.9])
    edges = path.dense.edges
    u0 = np.array([-0.0771, edges[1], -0.0125, 0.0, 0.0123, edges[-3]])
    assert u0[1] < 0.0 < u0[-1]
    for order in range(2, 10):
        if array_first:
            arr = path.series(u0, order)
        scalar = [path.series(u, order) for u in u0.tolist()]
        if not array_first:
            arr = path.series(u0, order)
        for i, s in enumerate(scalar):
            for a, b in zip(arr, s, strict=True):
                assert a.shape == (order + 1, 3) + u0.shape + (3,)
                np.testing.assert_array_equal(_bits(a[:, :, i]), _bits(b))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


_SERIES_AT = FrenetPath._series_at


def _frenet_memo_reads(monkeypatch, reads, order=3):
    """Reads of FrenetPath.series at each u0 of reads in turn, on a fresh
    march: for each read, the points that _series_at computed (each distinct
    point one slot), and the slots of the read checked bit for bit against
    a direct _series_at call at their point."""
    path = _helix_interp().march([0.2, 0.5, 0.9])
    real, computed = _SERIES_AT, []
    monkeypatch.setattr(FrenetPath, "_series_at", lambda self, u0, o: (
        computed.append((np.ravel(u0).tolist(), o)) or real(self, u0, o)))
    out = []
    for u0 in reads:
        computed.clear()
        got = path.series(u0, order)
        for idx in np.ndindex(np.shape(u0)):
            want = real(path, float(np.asarray(u0)[idx]), order + 1)
            for a, b in zip(got, want, strict=True):
                assert a.shape == (order + 1, 3) + np.shape(u0) + (3,)
                np.testing.assert_array_equal(_bits(a[(slice(None),) * 2 + idx]),
                                              _bits(b[:order + 1]))
        out.append(list(computed))
    return out


def test_frenet_memo_array_after_its_scalar_point(monkeypatch):
    """An array read after a scalar read at one of its points computes only
    its other distinct points, in one _series_at call, one order up."""
    u0 = np.array([0.0123, -0.05, 0.0123, 0.2])
    assert _frenet_memo_reads(monkeypatch, [0.0123, u0]) == [
        [([0.0123], 4)], [([-0.05, 0.2], 4)]]


def test_frenet_memo_overlapping_arrays(monkeypatch):
    """Of two overlapping array reads, the second computes only the points
    the first did not; a read one order up computes its points again."""
    a, b = np.array([-0.05, 0.03, 0.0]), np.array([0.03, 0.07, -0.05])
    assert _frenet_memo_reads(monkeypatch, [a, b, b, b[:1]]) == [
        [([-0.05, 0.0, 0.03], 4)], [([0.07], 4)], [], []]
    assert _frenet_memo_reads(monkeypatch, [a, b], order=4)[1] == [([0.07], 5)]


def test_frenet_memo_two_dimensional_u0_with_repeats(monkeypatch):
    """A 2-D u0 with repeated values computes each distinct point once, and
    each slot of the read holds its point's series."""
    u0 = np.array([[0.1, -0.1, 0.1], [0.0, 0.1, -0.1]])
    assert _frenet_memo_reads(monkeypatch, [u0, u0.T]) == [[([-0.1, 0.0, 0.1], 4)], []]


def test_xi_interpolation_batch_columns_equal_lone_marches():
    """The paths of several t marched as one batch are, column by column,
    bit for bit the paths marched one t at a time: at the nodes, off them,
    and in the series at a point off them for orders 0 to 8; and the
    providers of fields() at an array of t, endpoints included, give in
    each slot the jets of the providers at that t alone."""
    from swallowkit.curves import FrenetColumn
    from swallowkit.fields import vjet
    ts = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
    batched = _helix_interp()
    batch = batched.march(ts)
    assert batch.data.frame0.shape == (3, 3, len(ts))
    lone = _helix_interp()
    u_off, u0 = 0.0123, -0.0771              # off the nodes of the march
    for j, t in enumerate(ts):
        col, alone = FrenetColumn(batch, j), lone.path(t)
        assert alone.path.data.frame0.shape == (3, 3, 1)
        for u in batch.dense.edges:
            np.testing.assert_array_equal(_bits(col.state(u)), _bits(alone.state(u)))
        np.testing.assert_array_equal(_bits(col.state(u_off)), _bits(alone.state(u_off)))
        for order in range(9):
            for a, b in zip(col.series(u0, order), alone.series(u0, order)):
                np.testing.assert_array_equal(_bits(a), _bits(b))
    all_t = np.array([0.0] + ts + [1.0])
    interp = _helix_interp()
    interp.gammas = interp.xi                  # any providers for the endpoint slots
    spliced = interp.fields(all_t)
    for j, t in enumerate(all_t):
        alone = _helix_interp().fields(float(t)) if 0 < t < 1 else (interp.xi[int(t)],) * 2
        for got, want in zip(spliced, alone):
            for a, b in zip(vjet(got, u0, 0.0, 5), vjet(want, u0, 0.0, 5)):
                np.testing.assert_array_equal(_bits(a.c[:, j]), _bits(b.c))


def _certify_one_t_at_a_time(family, predicate, steps, track_kext_sign=None):
    """The per-t entries and failures of a certificate whose every t is
    generated, built and checked alone, as lone germs (a float t)."""
    from swallowkit import frontal as fr
    per_t, failures = [], []
    for stage in family.stages:
        for t in np.linspace(0.0, 1.0, steps):
            germ = build(stage.generator(float(t)), family.a)
            rep = fr.classify(germ)
            entry = {"stage": stage.name, "t": float(t), "is_swallowtail": rep.is_swallowtail,
                     "sigma0_S": rep.sigma0_S, "sigma_g_S": rep.sigma_g_S}
            if not rep.is_swallowtail:
                failures.append(f"{stage.name} t={t:.3f}: not a swallowtail")
            if predicate == "generic_swallowtail" and rep.sigma_g_S == 0:
                failures.append(f"{stage.name} t={t:.3f}: sigma_g_S = 0 (not generic)")
            if predicate == "asymptotic_swallowtail" or stage.asymptotic:
                worst = 0.0
                for uu in dm.AXIS_SAMPLES:
                    worst = max(worst, abs(fr.sigma_g_C(germ, uu)[1]))
                entry["sigma_g_C_max"] = worst
                if worst > 1e-7:
                    failures.append(f"{stage.name} t={t:.3f}: sigma_g_C residual {worst:.2e}")
            if track_kext_sign is not None:
                ks = []
                for p in dm.PROBES:
                    try:
                        ks.append(fr.sgn(fr.gaussian_curvature(germ, p)[1], 1e-6))
                    except fr.ClassificationError:
                        continue
                entry["kext_signs"] = ks
                if any(k != track_kext_sign for k in ks):
                    failures.append(f"{stage.name} t={t:.3f}: K_ext sign strayed from "
                                    f"{track_kext_sign}: {ks}")
            per_t.append(entry)
    return per_t, failures


def _recipes(d217, dplus):
    """(name, family, predicate, steps, tracked sign) for every recipe."""
    dminus = AsymptoticData(xi=("1", "u", "u^2"), q="0", r=("0-u^2", "2*u", "0-1"))
    famDp = dm.deform_theorem_D(dplus, rotated_asym(0.4, "0.05", 2.0), preserve_sign=True)
    famDm = dm.deform_theorem_D(dminus, rotated_asym(0.3, "0.1", -1.5), preserve_sign=True)
    famDg = dm.deform_theorem_D(
        AsymptoticData(xi=("1", "u", "u^2"), q="0.1", r=("0", "0", "0")),
        AsymptoticData(xi=("1", "u", "u^2"), q="0", r=("0", "0", "0")), preserve_sign=False)
    dflip = SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0-0.5"))
    famL = dm.deform_lemma_3_7(AsymptoticData(xi=("1", "u", "u^2"), q="0.3",
                                              r=("0-0.01*u^2", "0.02*u", "0-0.01")))
    return [
        ("Theorem A", dm.deform_theorem_A(d217, rotated_scaled_217()), "generic_swallowtail",
         9, None),
        ("Theorem D, positive", famDp, "asymptotic_swallowtail", 6, famDp.kext_sign),
        ("Theorem D, negative", famDm, "asymptotic_swallowtail", 6, famDm.kext_sign),
        ("Theorem D, scale-away", famDg, "asymptotic_swallowtail", 6, None),
        ("Prop 2.13", dm.deform_any_swallowtail(dflip, dplus), "swallowtail", 6, None),
        ("Prop 2.13, reversed", dm.deform_any_swallowtail(dplus, dflip), "swallowtail", 6, None),
        ("Lemma 3.7", famL, "asymptotic_swallowtail", 11, famL.kext_sign),
    ]


def test_certify_marches_the_interpolation_stage_once(monkeypatch, d217, dplus):
    """certify checks each stage as one batch of its t: the interior t of
    the xi-interpolation make one march, and the certificate of every
    recipe equals, at full repr precision, the one built a t at a time."""
    marches = []
    real = dm.FrenetPath
    monkeypatch.setattr(dm, "FrenetPath", lambda data, *a, **kw:
                        marches.append(data.frame0.shape[-1]) or real(data, *a, **kw))
    recipes = _recipes(d217, dplus)
    assert [s.name for s in recipes[4][1].stages] == [       # Lemmas S686a and S686b
        "0:b-scale", "1:strip-tangential-1", "2:xi-interpolation", "3:restore-tangential-2",
        "4:b-to-generic-reversed"]
    for name, fam, predicate, steps, sign in recipes:
        marches.clear()
        batched = dm.certify(fam, predicate, steps=steps, track_kext_sign=sign)
        if name == "Theorem A":
            assert marches == [7]
        assert batched.passed, (name, batched.failures)
        per_t, failures = _certify_one_t_at_a_time(fam, predicate, steps, sign)
        assert repr(batched.per_t) == repr(per_t), name
        assert batched.failures[:len(failures)] == failures, name
    # b through 0: the signs flip and t = 0.5 is no swallowtail, so it fails
    wall = dm.DeformationFamily(recipe="wall", stages=[dm.Stage("b-through-0", lambda t: (
        SwallowtailData.of(d217.xi, tuple(Scaled(c, 1.0 - 2.0 * t) for c in d217.b))),
        asymptotic=True)])
    batched = dm.certify(wall, "generic_swallowtail", steps=11, track_kext_sign=1)
    per_t, failures = _certify_one_t_at_a_time(wall, "generic_swallowtail", 11, 1)
    assert not batched.passed and failures
    assert repr(batched.per_t) == repr(per_t)
    assert batched.failures[:len(failures)] == failures


def test_classify_batch_through_sigma_g_S_zero():
    """The b-scale stage takes sigma_g_S through 0 at b = 0: its batch gets,
    slot by slot, the reports of its germs alone."""
    d = SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0-0.5"))
    gen = dm.deform_flip_sigma_S(d).stages[0].generator
    ts = np.linspace(0.0, 1.0, 21)
    reps = classify(build(gen(ts)))
    signs = [r.sigma_g_S for r in reps]
    assert signs[10] == 0 and signs[0] == -signs[-1] != 0
    for t, rep in zip(ts, reps):
        assert repr(rep) == repr(classify(build(gen(float(t)))))


def test_a_passing_certificate_never_classifies_slot_by_slot(monkeypatch, d217):
    """classify runs a batch slot by slot (on frontal._column) only after a
    domain error of the batch: a certificate that passes never does."""
    from swallowkit import frontal
    columns = []
    real = frontal._column
    monkeypatch.setattr(frontal, "_column", lambda germ, j: columns.append(j) or real(germ, j))
    cert = dm.certify(dm.deform_theorem_A(d217, rotated_scaled_217()), "generic_swallowtail",
                      steps=4)
    assert cert.passed, cert.failures
    assert columns == []


def _stage_batches(d217, dplus, ts=(0.0, 0.5, 1.0)):
    """(recipe: stage, germ) of every stage of every recipe, each germ a
    batch over ts built from fresh families."""
    return [(f"{name}: {stage.name}", build(stage.generator(np.array(ts)), fam.a))
            for name, fam, *_ in _recipes(d217, dplus) for stage in fam.stages]


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("away", ["nowhere", "|u| >= 0.05"])
def test_the_axis_read_of_a_stage_batch_gives_the_outcome_of_scalar_reads(
        monkeypatch, d217, dplus, away):
    """classify reads the axis samples of the batched germ of every stage in
    one (point x t) array call: its verdict per slot and its near values
    are, bit for bit, those of the scalar reads of a fresh batch.  With
    providers that raise JetError at |u| >= 0.05 the array call falls back
    to the scalar reads, and each batch gets the outcome of the scalar path,
    alone and in classify."""
    from swallowkit import frontal as fr
    from test_frontal import _FailsAway
    fails = {"nowhere": lambda u: False, "|u| >= 0.05": lambda u: np.abs(u) >= 0.05}[away]
    failed = []
    germs, fresh = ([(label, fr.MapGerm(tuple(_FailsAway(c, fails, failed) for c in g._components),
                                        sf=g.sf)) for label, g in _stage_batches(d217, dplus)]
                    for _ in range(2))
    got = [(label, _outcome(fr._axis_reads, g, range(3)), _outcome(classify, g))
           for label, g in germs]
    assert ((8,) in failed, () in failed) == (away != "nowhere",) * 2
    if away == "nowhere":
        for (label, germ), (_, alone) in zip(germs, fresh):
            sing, near = fr._axis_reads(germ, range(3))
            assert sing == fr._axis_is_singular(alone), label
            for uu, read in zip(fr.NEAR_US, near, strict=True):
                for a, b in zip(read, fr._axis_derivatives(alone, uu), strict=True):
                    np.testing.assert_array_equal(_bits(a), _bits(b), err_msg=label)
        return
    monkeypatch.setattr(fr, "_axis_reads", lambda germ, slots: (fr._axis_is_singular(germ), None))
    assert got == [(label, _outcome(fr._axis_reads, g, range(3)), _outcome(classify, g))
                   for label, g in fresh]


def test_sigma_g_C_max_passes_over_a_nan_raw(monkeypatch, dplus):
    """certify's sigma_g_C_max of a t is the largest |raw| of sigma_g_C at
    the AXIS_SAMPLES, with a NaN raw passed over as Python's max passes over
    it (np.max would give NaN): raws made NaN at the first sample of every
    slot and at every sample of slot 0 give 0.0 there and the largest of the
    others elsewhere."""
    from swallowkit import frontal as fr
    real, seen = fr._sigma_g_C, []

    def with_nans(germ, u):
        sign, raw, lone = real(germ, u)
        raw = raw.copy()
        raw[0, :] = raw[:, 0] = np.nan
        seen.append(raw)
        return sign, raw, lone
    monkeypatch.setattr(fr, "_sigma_g_C", with_nans)
    fam = dm.deform_theorem_D(dplus, rotated_asym(0.4, "0.05", 2.0), preserve_sign=True)
    cert = dm.certify(fam, "asymptotic_swallowtail", steps=3, track_kext_sign=fam.kext_sign)
    expected = []
    for raw in seen:
        assert np.isnan(np.max(np.abs(raw), axis=0)).all()
        for column in raw.T.tolist():
            worst = 0.0
            for x in column:
                worst = max(worst, abs(x))
            expected.append(worst)
    assert len(seen) == len(fam.stages) and expected[0] == 0.0 < max(expected)
    assert [e["sigma_g_C_max"] for e in cert.per_t] == expected


def test_certify_reads_of_a_stage_batch_equal_its_point_reads(d217, dplus):
    """sigma_g_C at the AXIS_SAMPLES and gaussian_curvature at the PROBES,
    each one call over (point x t) on the batched germ of every stage, and
    sigma_g_C at an array on a lone germ, equal bit for bit the calls at
    each point on a fresh germ."""
    from swallowkit import frontal as fr
    axis, probes = np.array(dm.AXIS_SAMPLES), tuple(np.array(dm.PROBES).T)
    pairs = list(zip(_stage_batches(d217, dplus), _stage_batches(d217, dplus)))
    pairs.append((("lone", build_asymptotic(dplus)), ("lone", build_asymptotic(dplus))))
    for (label, germ), (_, fresh) in pairs:
        got = fr.sigma_g_C(germ, axis)
        assert repr(got) == repr([fr.sigma_g_C(fresh, uu) for uu in dm.AXIS_SAMPLES]), label
        K = fr.gaussian_curvature(germ, probes)
        for i, p in enumerate(dm.PROBES):
            for a, b in zip(K, fr.gaussian_curvature(fresh, p), strict=True):
                np.testing.assert_array_equal(_bits(a[i]), _bits(b), err_msg=label)


def test_xi_interpolation_memo_shared_by_threads():
    """Workers sharing the endpoint memo, with more keys than its bound so
    that it clears under them, get the values of a serial computation."""
    import sys
    from concurrent.futures import ThreadPoolExecutor
    us = [0.0005 + 0.002 * k for k in range(300)]     # off-node points

    def sweep(interp, order_of_us):
        kp, tp = interp.kappa_tau(np.array([0.4]))
        return {u: (kp.jet(u, 0.0, 2).c, tp.jet(u, 0.0, 2).c) for u in order_of_us}

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
    endpoint unit fields along the interval to the accuracy of the march."""
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
    cert = dm.certify(fam, "asymptotic_swallowtail", steps=21, track_kext_sign=fam.kext_sign)
    assert fam.kext_sign == 1
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
    assert fam.kext_sign == -1
    cert = dm.certify(fam, "asymptotic_swallowtail", steps=21, track_kext_sign=-1)
    assert cert.passed, cert.failures
    assert discriminants(fam.stages[0].generator(1.0)).Dqr(0.0) == pytest.approx(-6.0)


def test_lemma_3_7_rejects_degenerate():
    with pytest.raises(dm.DeformError, match="Dqr"):
        dm.deform_lemma_3_7(AsymptoticData(xi=("1", "u", "u^2"), q="0",
                                           r=("0", "0", "0")))


def test_theorem_D_positive_pair(dplus, monkeypatch):
    """The certificate passes, and each batch of the xi-interpolation
    computes its Frenet series once per point for each pair of orders
    (N, N + 1) asked there: never twice at one order, one run for every
    two orders asked.  Each point of an array u0 counts as that point."""
    from swallowkit.curves import FrenetPath
    real_at, real_series, computed, asked = FrenetPath._series_at, FrenetPath.series, [], set()
    monkeypatch.setattr(FrenetPath, "_series_at", lambda self, u0, order: (
        computed.extend((id(self), u, order) for u in np.ravel(u0).tolist())
        or real_at(self, u0, order)))
    monkeypatch.setattr(FrenetPath, "series", lambda self, u0, order: (
        asked.update((id(self), u, order) for u in np.ravel(u0).tolist())
        or real_series(self, u0, order)))
    d2 = rotated_asym(0.4, "0.05", 2.0)
    fam = dm.deform_theorem_D(dplus, d2, preserve_sign=True)
    cert = dm.certify(fam, "asymptotic_swallowtail", steps=9,
                      track_kext_sign=fam.kext_sign)
    assert fam.kext_sign == 1
    assert cert.passed, cert.failures
    assert computed and len(set(computed)) == len(computed)
    assert set(computed) <= asked and 2 * len(computed) == len(asked)


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
    for u in np.linspace(-0.2, 0.2, 11):
        t = H.t_of_u(float(u))
        S = H.speed().jet(float(u), 0.0, 0).value()
        for w in np.linspace(-0.1, 0.1, 11):
            lhs = g_norm.value(float(u), float(w))
            rhs = g_raw.value(t, float(w) / S)
            assert np.max(np.abs(lhs - rhs)) < 1e-12
