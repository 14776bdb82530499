"""Space-form models: conformal factor, vector product, covariant derivative."""

import numpy as np
import pytest

from swallowkit import metric as mt
from swallowkit.jets import Jet2, parse
from swallowkit.metric import DomainError, SpaceForm, conformal_factor


def test_conformal_factor_values():
    assert conformal_factor(SpaceForm(0.0), (0.3, -0.1, 2.0)) == 2.0
    assert conformal_factor(SpaceForm(1.0), (1.0, 0.0, 0.0)) == pytest.approx(1.0)
    assert conformal_factor(SpaceForm(-1.0), (0.5, 0.0, 0.0)) == pytest.approx(8.0 / 3.0)


def test_domain_check():
    sf = SpaceForm(-1.0)
    assert sf.admissible((0.5, 0.5, 0.5))
    assert not sf.admissible((1.0, 0.5, 0.0))
    with pytest.raises(DomainError):
        conformal_factor(sf, (1.2, 0.0, 0.0))


def _const_vec(p, order=2):
    return tuple(Jet2.constant(float(x), order, ()) for x in p)


def test_cross_g_euclidean_cases():
    sf0 = SpaceForm(0.0)
    F = _const_vec((0.7, -0.2, 0.1))
    C = mt.cross_g(sf0, F, _const_vec((1, 0, 0)), _const_vec((0, 1, 0)))
    assert [c.value() for c in C] == pytest.approx([0, 0, 1])
    # at the model origin the frame is Euclidean for every a
    for a in (-1.0, 0.5, 2.0):
        C = mt.cross_g(SpaceForm(a), _const_vec((0, 0, 0)),
                       _const_vec((1, 0, 0)), _const_vec((0, 1, 0)))
        assert [c.value() for c in C] == pytest.approx([0, 0, 1])


def test_cross_g_defining_identity():
    """g(A x B, A x B) = g(A,A) g(B,B) - g(A,B)^2 for orthogonalized input."""
    rng = np.random.default_rng(0)
    for a in (1.0, -0.7):
        sf = SpaceForm(a)
        for _ in range(20):
            p = rng.uniform(-0.4, 0.4, 3)
            A = rng.standard_normal(3)
            B = rng.standard_normal(3)
            F = _const_vec(p)
            Cv = mt.cross_g(sf, F, _const_vec(A), _const_vec(B))
            lhs = mt.inner_g(sf, F, Cv, Cv).value()
            gAA = mt.inner_g(sf, F, _const_vec(A), _const_vec(A)).value()
            gBB = mt.inner_g(sf, F, _const_vec(B), _const_vec(B)).value()
            gAB = mt.inner_g(sf, F, _const_vec(A), _const_vec(B)).value()
            assert lhs == pytest.approx(gAA * gBB - gAB ** 2, rel=1e-12)
            # and g(A x B, C) = det_g(A, B, C) on a random C
            Cc = rng.standard_normal(3)
            assert mt.inner_g(sf, F, Cv, _const_vec(Cc)).value() == pytest.approx(
                mt.det_g(sf, F, _const_vec(A), _const_vec(B), _const_vec(Cc)).value(),
                rel=1e-12)


def test_christoffels_vanish_at_origin_and_symmetric():
    for a in (1.0, -1.0, 0.3):
        G = mt.christoffels(SpaceForm(a), (0.0, 0.0, 0.0))
        assert np.max(np.abs(G)) == 0.0
        G = mt.christoffels(SpaceForm(a), (0.2, -0.1, 0.3))
        assert np.max(np.abs(G - np.transpose(G, (0, 2, 1)))) < 1e-15


def _germ_jets(fexprs, u, v, order):
    return tuple(parse(s).jet(u, v, order) for s in fexprs)


def _cov_setup(a, fexprs, u, v, order=4):
    sf = SpaceForm(a)
    F = _germ_jets(fexprs, u, v, order + 1)
    fu = tuple(c.du() for c in F)
    fv = tuple(c.dv() for c in F)
    Ft = tuple(c.truncate(order) for c in F)
    return sf, Ft, fu, fv


def test_torsion_free():
    """nabla_v f_u = nabla_u f_v at random points and germs."""
    rng = np.random.default_rng(42)
    germs = [("u", "v", "u*v"), ("u+v^2", "v", "u^2*v"),
             ("sin(u)", "v*cos(u)", "u*v^2")]
    count = 0
    for fexprs in germs:
        for a in (1.0, -0.5, 0.0):
            for _ in range(23):
                u, v = rng.uniform(-0.4, 0.4, 2)
                sf, Ft, fu, fv = _cov_setup(a, fexprs, float(u), float(v))
                lhs = mt.covariant_derivative(sf, Ft, fv, fu, tuple(c.dv() for c in fu))
                rhs = mt.covariant_derivative(sf, Ft, fu, fv, tuple(c.du() for c in fv))
                diff = max(abs(lhs[k].value() - rhs[k].value()) for k in range(3))
                assert diff < 1e-9
                count += 1
    assert count >= 200


def test_metric_compatibility():
    """d/du g(X, Y) = g(nabla_u X, Y) + g(X, nabla_u Y) along a germ."""
    rng = np.random.default_rng(7)
    fexprs = ("u", "v + u^2/4", "u*v/3")
    for a in (1.0, -0.8):
        sf = SpaceForm(a)
        for _ in range(30):
            u, v = rng.uniform(-0.3, 0.3, 2)
            F = _germ_jets(fexprs, float(u), float(v), 5)
            fu = tuple(c.du() for c in F)
            fv = tuple(c.dv() for c in F)
            Ft = tuple(c.truncate(4) for c in F)
            X, Y = fu, fv
            g = mt.inner_g(sf, Ft, X, Y)
            lhs = g.partial(1, 0)
            DX = mt.covariant_derivative(sf, Ft, fu, X, tuple(c.du() for c in X))
            DY = mt.covariant_derivative(sf, Ft, fu, Y, tuple(c.du() for c in Y))
            rhs = (mt.inner_g(sf, Ft, DX, Y).value()
                   + mt.inner_g(sf, Ft, X, DY).value())
            assert lhs == pytest.approx(rhs, abs=1e-6 * (1 + abs(lhs)))


def test_flat_model_reduces_to_euclidean():
    sf = SpaceForm(0.0)
    F = _germ_jets(("u", "v", "u*v"), 0.3, -0.2, 4)
    fu = tuple(c.du() for c in F)
    Ft = tuple(c.truncate(3) for c in F)
    D = mt.covariant_derivative(sf, Ft, fu, fu, tuple(c.du() for c in fu))
    plain = tuple(c.du() for c in fu)
    for k in range(3):
        assert D[k].value() == plain[k].value()
    assert mt.inner_g(sf, Ft, fu, fu).value() == pytest.approx(
        sum(c.value() ** 2 for c in fu))


def test_covariant_derivative_at_mapped_origin():
    """With f(o) = 0 the covariant derivative is the plain partial there."""
    for a in (1.0, -1.0):
        sf, Ft, fu, fv = _cov_setup(a, ("u", "v", "u*v"), 0.0, 0.0)
        D = mt.covariant_derivative(sf, Ft, fu, fu, tuple(c.du() for c in fu))
        plain = tuple(c.du() for c in fu)
        for k in range(3):
            assert abs(D[k].value() - plain[k].value()) < 1e-15


def test_covariant_against_finite_difference_of_connection():
    """Componentwise check against the Christoffel contraction at a point."""
    a = 1.0
    sf = SpaceForm(a)
    fexprs = ("u", "v", "0")
    u0, v0 = 0.3, 0.2
    sfq, Ft, fu, fv = _cov_setup(a, fexprs, u0, v0)
    D = mt.covariant_derivative(sf, Ft, fu, fu, tuple(c.du() for c in fu))
    # reference: partial + Gamma(f)(df(u), X)
    p = np.array([c.value() for c in Ft])
    G = mt.christoffels(sf, p)
    dfu = np.array([c.value() for c in fu])
    ref = np.einsum("kij,i,j->k", G, dfu, dfu)
    for k in range(3):
        assert D[k].value() == pytest.approx(ref[k], abs=1e-12)
