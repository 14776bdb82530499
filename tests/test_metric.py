"""Space-form models: conformal factor, vector product, covariant derivative."""

import numpy as np
import pytest

from swallowkit import jets
from swallowkit import metric as mt
from swallowkit._jettables import term_count
from swallowkit.jets import Jet2, jet_sqrt, parse
from swallowkit.metric import Along, DomainError, SpaceForm, conformal_factor


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
    C = Along(sf0, F).cross(_const_vec((1, 0, 0)), _const_vec((0, 1, 0)))
    assert [c.value() for c in C] == pytest.approx([0, 0, 1])
    # at the model origin the frame is Euclidean for every a
    for a in (-1.0, 0.5, 2.0):
        C = Along(SpaceForm(a), _const_vec((0, 0, 0))).cross(
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
            g = Along(sf, _const_vec(p))
            Cv = g.cross(_const_vec(A), _const_vec(B))
            lhs = g.inner(Cv, Cv).value()
            gAA = g.inner(_const_vec(A), _const_vec(A)).value()
            gBB = g.inner(_const_vec(B), _const_vec(B)).value()
            gAB = g.inner(_const_vec(A), _const_vec(B)).value()
            assert lhs == pytest.approx(gAA * gBB - gAB ** 2, rel=1e-12)
            # and g(A x B, C) = det_g(A, B, C) on a random C
            Cc = rng.standard_normal(3)
            assert g.inner(Cv, _const_vec(Cc)).value() == pytest.approx(
                g.det(_const_vec(A), _const_vec(B), _const_vec(Cc)).value(), rel=1e-12)


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
    return Along(sf, Ft), Ft, fu, fv


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
                g, Ft, fu, fv = _cov_setup(a, fexprs, float(u), float(v))
                lhs = g.nabla(fv, fu, tuple(c.dv() for c in fu))
                rhs = g.nabla(fu, fv, tuple(c.du() for c in fv))
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
            metric = Along(sf, tuple(c.truncate(4) for c in F))
            X, Y = fu, fv
            g = metric.inner(X, Y)
            lhs = g.partial(1, 0)
            DX = metric.nabla(fu, X, tuple(c.du() for c in X))
            DY = metric.nabla(fu, Y, tuple(c.du() for c in Y))
            rhs = metric.inner(DX, Y).value() + metric.inner(X, DY).value()
            assert lhs == pytest.approx(rhs, abs=1e-6 * (1 + abs(lhs)))


def test_flat_model_reduces_to_euclidean():
    sf = SpaceForm(0.0)
    F = _germ_jets(("u", "v", "u*v"), 0.3, -0.2, 4)
    fu = tuple(c.du() for c in F)
    g = Along(sf, tuple(c.truncate(3) for c in F))
    D = g.nabla(fu, fu, tuple(c.du() for c in fu))
    plain = tuple(c.du() for c in fu)
    for k in range(3):
        assert D[k].value() == plain[k].value()
    assert g.inner(fu, fu).value() == pytest.approx(sum(c.value() ** 2 for c in fu))


def test_covariant_derivative_at_mapped_origin():
    """With f(o) = 0 the covariant derivative is the plain partial there."""
    for a in (1.0, -1.0):
        g, Ft, fu, fv = _cov_setup(a, ("u", "v", "u*v"), 0.0, 0.0)
        D = g.nabla(fu, fu, tuple(c.du() for c in fu))
        plain = tuple(c.du() for c in fu)
        for k in range(3):
            assert abs(D[k].value() - plain[k].value()) < 1e-15


def test_covariant_against_finite_difference_of_connection():
    """Componentwise check against the Christoffel contraction at a point."""
    a = 1.0
    sf = SpaceForm(a)
    fexprs = ("u", "v", "0")
    u0, v0 = 0.3, 0.2
    g, Ft, fu, fv = _cov_setup(a, fexprs, u0, v0)
    D = g.nabla(fu, fu, tuple(c.du() for c in fu))
    # reference: partial + Gamma(f)(df(u), X)
    p = np.array([c.value() for c in Ft])
    G = mt.christoffels(sf, p)
    dfu = np.array([c.value() for c in fu])
    ref = np.einsum("kij,i,j->k", G, dfu, dfu)
    for k in range(3):
        assert D[k].value() == pytest.approx(ref[k], abs=1e-12)


# -- Along against the per-call functions it replaced ------------------------
#
# Each function below recomputed the factor from F on every call.  They are
# the reference: Along must give their bits, with F one or two orders above
# the vectors where the functions were handed F truncated to the vectors.

def _ref_weight(sf, F):
    w = 1.0 + sf.a * mt.dot(F, F)
    val = w.value() if isinstance(w, Jet2) else w
    if np.any(np.asarray(val) <= 0.0):
        raise DomainError(f"map leaves the a={sf.a} model domain")
    return w


def _ref_rho_bar(sf, F):
    return 1.0 / _ref_weight(sf, F)


def _ref_inner_g(sf, F, A, B):
    r = _ref_rho_bar(sf, F)
    return r * r * mt.dot(A, B)


def _ref_norm_g(sf, F, A):
    q = _ref_inner_g(sf, F, A, A)
    return jet_sqrt(q) if isinstance(q, Jet2) else np.sqrt(q)


def _ref_cross_g(sf, F, A, B):
    return mt.vscale(_ref_rho_bar(sf, F), mt.cross(A, B))


def _ref_det_g(sf, F, A, B, C):
    r = _ref_rho_bar(sf, F)
    return r * r * r * mt.det3(A, B, C)


def _ref_sigma_gradient(sf, F):
    w = _ref_weight(sf, F)
    s = (-2.0 * sf.a) / w
    return mt.vscale(s, F)


def _ref_covariant_derivative(sf, F, dF, X, dX):
    if sf.a == 0.0:
        return dX
    sg = _ref_sigma_gradient(sf, F)
    sX = mt.dot(sg, X)
    sD = mt.dot(sg, dF)
    XD = mt.dot(dF, X)
    return tuple(dX[k] + sD * X[k] + sX * dF[k] - XD * sg[k] for k in range(3))


def _rand_vec(rng, order, shape, scale=1.0):
    return tuple(Jet2(order, scale * rng.standard_normal((term_count(order),) + shape))
                 for _ in range(3))


def _same(x, y):
    """x and y bit for bit: jets (order, shape and coefficients) or tuples of them."""
    if isinstance(x, tuple):
        return len(x) == len(y) and all(_same(p, q) for p, q in zip(x, y))
    return (x.order == y.order and x.c.shape == y.c.shape
            and x.c.tobytes() == y.c.tobytes())


# lone point, array point, batched slots, (point x slot)
SHAPES = [(), (5,), (3,), (4, 3)]


# -0.7 as well: with a = +-1 the factor -2a is a power of two, and
# ((-2a)/w) F and (-2a)(1/w) F round alike
@pytest.mark.parametrize("a", [-1.0, 0.0, 1.0, -0.7])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("above", [0, 1, 2])
def test_along_equals_the_per_call_functions_bit_for_bit(a, shape, above):
    rng = np.random.default_rng(hash((a, shape, above)) % 2 ** 32)
    sf = SpaceForm(a)
    order = 4
    F = _rand_vec(rng, order + above, shape, scale=0.3)
    Ft = tuple(c.truncate(order) for c in F)
    A, B, C = (_rand_vec(rng, order, shape) for _ in range(3))
    dF, dX = _rand_vec(rng, order, shape), _rand_vec(rng, order - 1, shape)
    for _ in range(2):     # the second round reads the factors built by the first
        g = Along(sf, F)
        assert _same(g.inner(A, B), _ref_inner_g(sf, Ft, A, B))
        assert _same(g.norm(A), _ref_norm_g(sf, Ft, A))
        assert _same(g.cross(A, B), _ref_cross_g(sf, Ft, A, B))
        assert _same(g.det(A, B, C), _ref_det_g(sf, Ft, A, B, C))
        assert _same(g.nabla(dF, A, dX), _ref_covariant_derivative(sf, Ft, dF, A, dX))
        assert _same(g.inner(B, C), _ref_inner_g(sf, Ft, B, C))
        assert _same(g.nabla(dF, B, dX), _ref_covariant_derivative(sf, Ft, dF, B, dX))


def test_along_on_numbers_matches_the_per_call_functions():
    p = np.array([0.3, -0.2, 0.4])
    A, B, C = np.eye(3) + 0.1
    def bits(x):
        return np.asarray(x, dtype=float).tobytes()

    for a in (-1.0, 0.0, 1.0):
        sf = SpaceForm(a)
        g = Along(sf, p)
        assert bits(g.inner(A, B)) == bits(_ref_inner_g(sf, p, A, B))
        assert bits(g.norm(A)) == bits(_ref_norm_g(sf, p, A))
        assert bits(g.cross(A, B)) == bits(_ref_cross_g(sf, p, A, B))
        assert bits(g.det(A, B, C)) == bits(_ref_det_g(sf, p, A, B, C))
        assert bits(g.nabla(B, A, C)) == bits(_ref_covariant_derivative(sf, p, B, A, C))


def test_along_raises_outside_the_model_domain():
    rng = np.random.default_rng(3)
    far = tuple(Jet2.constant(x, 3) for x in (1.0, 0.5, 0.0))
    with pytest.raises(DomainError):
        Along(SpaceForm(-1.0), far)
    with pytest.raises(DomainError):
        _ref_weight(SpaceForm(-1.0), far)
    # one slot of an array point outside the ball fails the whole point
    F = _rand_vec(rng, 3, (4,), scale=0.1)
    F[0].c[0, 2] = 1.5
    with pytest.raises(DomainError):
        Along(SpaceForm(-1.0), F)
    # on the boundary w = 0, inside for a >= 0
    with pytest.raises(DomainError):
        Along(SpaceForm(-1.0), tuple(Jet2.constant(x, 3) for x in (1.0, 0.0, 0.0)))
    for a in (0.0, 1.0):
        Along(SpaceForm(a), far)


def test_along_is_euclidean_at_a_zero_with_no_factor(monkeypatch):
    calls = []

    def spy(kernel):
        def wrapped(*args, **kwargs):
            calls.append(kernel.__name__)
            return kernel(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(jets, "_jet_mul", spy(jets._jet_mul))
    monkeypatch.setattr(jets, "_jet_div", spy(jets._jet_div))
    rng = np.random.default_rng(8)
    F = _rand_vec(rng, 5, (3,), scale=0.3)
    g = Along(SpaceForm(0.0), F)
    assert calls == []
    A, B, C = (_rand_vec(rng, 4, (3,)) for _ in range(3))
    dX = _rand_vec(rng, 3, (3,))
    assert g.nabla(A, B, dX) is dX
    assert calls == []
    assert _same(g.inner(A, B), mt.dot(A, B))
    assert _same(g.cross(A, B), mt.cross(A, B))
    assert _same(g.det(A, B, C), mt.det3(A, B, C))
    # the factor itself is built once, whatever is asked of it
    Along(SpaceForm(1.0), F)
    assert calls.count("_jet_div") == 1
