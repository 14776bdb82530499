"""Representation formulas for (generalized) swallowtail germs.

A germ is built from a cusp direction field xi(u) and either a bulk field
b(u, v) (general form gamma + v xi + v^2 b) or an asymptotic triple
(xi, q, r) (form gamma + v xi + v^2 q xi' + v^3 r), where gamma is the
primitive of u xi(u) vanishing at 0.  The discriminants read the germ's
class off the data:

    D0 = -det(xi, xi', -xi'' + 2 b)(0)   swallowtail  <=>  D0 != 0
    D1 =  det(xi, xi', b)(0)             generic      <=>  D1 != 0
    Dqr(u) = (2 u q - 1)^2 (6 det(xi, xi', r) - 4 q^2 det(xi, xi', xi''))

and for right-handed data the sign of Dqr(0) is the sign of the Gaussian
curvature limit at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .fields import (CurveIntegral, DU, FlipU, JetFn, Scaled, components, cusp_frame,
                     over_v, vjet, xi_frame, xi_over_u)
from .frontal import MapGerm, _immersive, sgn
from .jets import (ZERO, Add, Const, Expr, Jet2, Mul, Pow, V, as_expr, compose2, diff, fold,
                   integrate_u_times, parse)
from .metric import SpaceForm, cross, det3, dot


class BuildError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Jet providers
# ---------------------------------------------------------------------------


def gamma_from_xi(xi):
    """Curve gamma with gamma' = u xi, gamma(0) = 0; closed form when polynomial."""
    out = []
    for comp in xi:
        if isinstance(comp, Expr):
            closed = integrate_u_times(comp)
            if closed is not None:
                out.append(closed)
                continue
        out.append(CurveIntegral(comp))
    return tuple(out)


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

def _parse_vec(v):
    return tuple(parse(c) if isinstance(c, str) else (as_expr(c) if isinstance(c, (int, float)) else c)
                 for c in v)


@dataclass
class SwallowtailData:
    xi: tuple
    b: tuple
    gamma: tuple | None = None    # precomputed primitive of u xi (optional)

    def __post_init__(self):
        self.xi = _parse_vec(self.xi)
        self.b = _parse_vec(self.b)
        x0 = np.array([c.jet(0.0, 0.0, 0).value() for c in self.xi])
        if np.linalg.norm(x0) < 1e-12:
            raise BuildError("xi(0) = 0: not a cusp direction field")

    @classmethod
    def of(cls, xi, b, gamma=None):
        """Data from the package's own providers: no parsing, no xi(0) check."""
        d = cls.__new__(cls)
        d.xi, d.b, d.gamma = tuple(xi), tuple(b), gamma
        return d


@dataclass
class AsymptoticData:
    xi: tuple
    q: object
    r: tuple
    gamma: tuple | None = None

    def __post_init__(self):
        self.xi = _parse_vec(self.xi)
        self.q = parse(self.q) if isinstance(self.q, str) else (
            as_expr(self.q) if isinstance(self.q, (int, float)) else self.q)
        self.r = _parse_vec(self.r)
        x0 = np.array([c.jet(0.0, 0.0, 0).value() for c in self.xi])
        if np.linalg.norm(x0) < 1e-12:
            raise BuildError("xi(0) = 0: not a cusp direction field")

    @classmethod
    def of(cls, xi, q, r, gamma=None):
        """Data from the package's own providers: no parsing, no xi(0) check."""
        d = cls.__new__(cls)
        d.xi, d.q, d.r, d.gamma = tuple(xi), q, tuple(r), gamma
        return d

    def as_general(self) -> SwallowtailData:
        """Same germ as (xi, b) with b = q xi' + v r."""
        dxi = tuple(_derivative(c) for c in self.xi)
        q, r = self.q, self.r
        if all(isinstance(c, Expr) for c in (*self.xi, self.q, *self.r)):
            b = tuple(fold(Add(Mul(self.q, dxi[k]), Mul(V, self.r[k]))) for k in range(3))
            return SwallowtailData.of(self.xi, b, self.gamma)

        def fn(u, v, order):
            vj = Jet2.variable("v", v, order, np.shape(u))
            qj = q.jet(u, v, order)
            return tuple(qj * d.jet(u, v, order) + vj * rk
                         for d, rk in zip(dxi, vjet(r, u, v, order)))
        return SwallowtailData.of(self.xi, components(fn), self.gamma)


def _derivative(comp):
    if isinstance(comp, Expr):
        return diff(comp, "u")
    return DU(comp)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build(data, a: float = 0.0) -> MapGerm:
    """Germ gamma + v xi + v^2 b in the space form of parameter a.

    AsymptoticData is built as its general form (b = q xi' + v r); the germ
    carries the data it was given."""
    gen = data.as_general() if isinstance(data, AsymptoticData) else data
    gamma = gen.gamma or gamma_from_xi(gen.xi)
    sf = SpaceForm(a)
    if all(isinstance(c, Expr) for c in (*gamma, *gen.xi, *gen.b)):
        comps = tuple(fold(Add(Add(gamma[k], Mul(V, gen.xi[k])),
                               Mul(Pow(V, 2), gen.b[k]))) for k in range(3))
        return MapGerm.from_exprs(comps, sf=sf, data=data)

    def fn(u, v, order):
        vj = Jet2.variable("v", v, order, np.shape(u))
        vv = vj * vj
        gj, xj, bj = (vjet(vec, u, v, order) for vec in (gamma, gen.xi, gen.b))
        return tuple(gj[k] + vj * xj[k] + vv * bj[k] for k in range(3))

    return MapGerm(components(fn), sf=sf, data=data)


def build_asymptotic(data: AsymptoticData, a: float = 0.0,
                     require_swallowtail: bool = True) -> MapGerm:
    """Germ gamma + v xi + v^2 q xi' + v^3 r; needs a generic cusp direction."""
    disc = discriminants(data)
    if require_swallowtail and sgn(disc.psi0, disc.scale) == 0:
        raise BuildError(
            "non-generic cusp direction: no asymptotic swallowtail exists along it "
            f"(det(xi, xi', xi'')(0) = {disc.psi0:.3g})")
    return build(data, a=a)


# ---------------------------------------------------------------------------
# Discriminants
# ---------------------------------------------------------------------------

@dataclass
class Discriminants:
    D0: float          # wave-front discriminant; sign = sigma0_S
    D1: float          # genericity discriminant; sign = sigma_g_S
    psi0: float        # det(xi, xi', xi'')(0)
    scale: float
    Dqr: object = None   # u -> Dqr(u, 0), asymptotic data only
    delta: object = None  # u -> delta(u)


def discriminants(data) -> Discriminants:
    xi, xip, xipp = xi_frame(data.xi, 0.0, 3)
    psi0 = float(np.linalg.det(np.stack([xi, xip, xipp], axis=1)))
    scale = max(np.linalg.norm(xi) * np.linalg.norm(xip), 1e-6) ** 1.5
    if isinstance(data, AsymptoticData):
        q0 = data.q.jet(0.0, 0.0, 0).value()
        b0 = q0 * xip  # b(o) = q(0) xi'(0) since the v r term vanishes on the axis

        def Dqr(u):
            xi_u, xip_u, xipp_u = xi_frame(data.xi, u, 3)
            q_u = data.q.jet(u, 0.0, 0).value()
            r_u = np.array([c.jet(u, 0.0, 0).value() for c in data.r])
            det_r = float(np.linalg.det(np.stack([xi_u, xip_u, r_u], axis=1)))
            det_x = float(np.linalg.det(np.stack([xi_u, xip_u, xipp_u], axis=1)))
            return (2 * u * q_u - 1.0) ** 2 * (6.0 * det_r - 4.0 * q_u ** 2 * det_x)
    else:
        b0 = np.array([c.jet(0.0, 0.0, 0).value() for c in data.b])
        Dqr = None
    D0 = -float(np.linalg.det(np.stack([xi, xip, -xipp + 2 * b0], axis=1)))
    D1 = float(np.linalg.det(np.stack([xi, xip, b0], axis=1)))

    def delta(u):
        nt = normal_on_axis(data)
        n0, n1, _ = xi_frame(nt, u, 2)
        return float(np.dot(n1, np.cross(n0, xi_frame(data.xi, u, 2)[0])))

    return Discriminants(D0=D0, D1=D1, psi0=psi0, scale=scale, Dqr=Dqr, delta=delta)


def normal_on_axis(data):
    """Provider of nu~(u, 0) = xi x xi' - 2u (xi x b(.,0)) from the data."""
    gen = data.as_general() if isinstance(data, AsymptoticData) else data

    def fn(u, v, order):
        xj, _, n = cusp_frame(gen.xi, u, order)
        bj = tuple(c.axis_part() for c in vjet(gen.b, u, 0.0, order))
        uj = Jet2.variable("u", u, order, np.shape(u))
        c2 = cross(xj, bj)
        return tuple(n[k] - 2.0 * uj * c2[k] for k in range(3))

    return components(fn)


# ---------------------------------------------------------------------------
# Inverse problems: extract data, convert to asymptotic form
# ---------------------------------------------------------------------------

def _gamma_jet(germ, f00, u, v, order):
    """gamma(u) = f(u, 0) - f(0, 0), the germ's own axis curve.

    The extraction providers read f(u, 0) at one ledger of orders: b at
    order o asks alpha at o + 2, alpha asks xi at o + 2, and xi reads f at
    o + 4.  gamma reads f at that top order, so build's first read at a
    point computes f(u, 0) once for gamma, xi, alpha and b; the others are
    answered from the germ's memo by truncation, which is exact."""
    return tuple(c.axis_part().truncate(order) - c0
                 for c, c0 in zip(germ.fjet(u, 0.0, order + 4), f00))


def _alpha_jet(germ, xi, u, v, order):
    """alpha(u) with a(u, 0) = alpha(u) xi(u); xi is read first, so that it
    reads f(u, 0) at the higher order."""
    xj = vjet(xi, u, 0.0, order)
    Fj = germ.fjet(u, 0.0, order + 1)
    a_axis = tuple((c - c.axis_part()).divide_by_v().axis_part() for c in Fj)
    return dot(a_axis, xj) / dot(xj, xj)


def _b_jet(germ, alpha, u, w, order):
    """b in the normalized coordinates (v replaced by v alpha(u)).  u and w
    may be arrays of one shape; the points v = 0 are spliced in by over_v."""
    K = order + 2
    aj = alpha.jet(u, 0.0, K)
    v_here = w / aj.value()
    on_axis = np.ndim(v_here) == 0 and v_here == 0.0
    # compose with v = w / alpha(u): U = u-var, V = w-var / alpha, at the
    # order of b~, two below K (each over_v takes one)
    a_o = aj.truncate(order)
    uj = Jet2.variable("u", u, order, np.shape(u))
    Vin = Jet2.variable("v", w, order, np.shape(u)) / a_o
    a2 = a_o * a_o
    F0 = germ.fjet(u, 0.0, K)
    F = F0 if on_axis else germ.fjet(u, v_here, K)
    out = []
    for f0, f in zip(F0, F):
        # b~(u, v) = (a(u,v) - a(u,0)) / v with a = (f - gamma)/v; gamma(u)
        # and a(u, 0) are u-only, read from the jet at (u, 0)
        gamma = f0.axis_part()
        a0 = over_v(f0 - gamma, 0.0)
        a_full = a0 if on_axis else over_v(f - gamma, v_here)
        btilde = over_v(a_full - a0.axis_part(), v_here)
        out.append(compose2(btilde.c, order, uj, Vin) / a2)
    return tuple(out)


def _dv_du(F):
    """Values of f_v and f_u from the jets F of a germ."""
    return np.array([c.dv().value() for c in F]), np.array([c.du().value() for c in F])


def extract_data(germ: MapGerm) -> SwallowtailData:
    """Recover (xi, b) with germ = gamma + v xi + v^2 b up to v-rescaling.

    Requires the germ to be in admissible form (singular set = u-axis).
    The v-coefficient field a(u,0) must be parallel to xi(u); the residual
    of that projection is the admissibility diagnostic.  gamma is carried,
    not integrated: it is the germ's own axis curve f(u, 0) - f(0, 0), read
    at the top order of the extraction's ledger (see _gamma_jet).
    """
    F0 = germ.fjet(0.0, 0.0, 8)
    fu0 = np.array([c.du().value() for c in F0])
    fv0 = np.array([c.dv().value() for c in F0])
    if _immersive(fu0, fv0):
        raise BuildError("origin is a regular point: nothing to extract")
    if np.linalg.norm(fu0) > 1e-8 * (1 + np.linalg.norm(fv0)):
        raise BuildError("origin is not of the second kind in these coordinates")

    # consistency: a(u,0) parallel to xi at samples, read in one array call;
    # if it raises, point by point, so the first failing sample decides
    us = (-0.1, -0.05, 0.05, 0.1)
    try:
        a0s, fus = _dv_du(germ.fjet(np.array(us), 0.0, 3))
        reads = zip(a0s.T, fus.T)
    except ValueError:
        reads = (_dv_du(germ.fjet(uu, 0.0, 3)) for uu in us)
    for uu, (a0, fu) in zip(us, reads):
        gp = fu / uu
        c = np.cross(a0, gp)
        if np.linalg.norm(c) > 1e-7 * (1 + np.linalg.norm(a0) * np.linalg.norm(gp)):
            raise BuildError(f"not admissible: f_v(u,0) not parallel to xi(u) at u={uu}"
                             f" (residual {np.linalg.norm(c):.3g})")

    xi = xi_over_u(germ.fjet)
    alpha = JetFn(partial(_alpha_jet, germ, xi))
    a0val = alpha.jet(0.0, 0.0, 0).value()
    if abs(a0val) < 1e-10:
        raise BuildError("degenerate extraction: alpha(0) = 0")
    b = components(partial(_b_jet, germ, alpha))
    f00 = tuple(c.value() for c in F0)
    return SwallowtailData.of(xi, b, components(partial(_gamma_jet, germ, f00)))


def _r_jet(data, p, q, u, w, order):
    """r(u, w) = (f(u, v(w)) - gamma - w xi - w^2 q xi') / w^3, with
    f - gamma = v xi + v^2 b, so gamma is never evaluated.  u and w may be
    arrays of one shape."""
    K = order + 3
    pj = p.jet(u, 0.0, K)
    pval = pj.value()
    # v solving v + v^2 p(u) = w; Newton from v = w stays at 0 where w = 0
    v0 = w
    for _ in range(60):
        v0 = v0 - (v0 + v0 * v0 * pval - w) / (1 + 2 * v0 * pval)
    shape = np.shape(u)
    uj = Jet2.variable("u", u, K, shape)
    wj = Jet2.variable("v", w, K, shape)
    # jets of v(u, w): Newton on jets for W(u, v) = v + v^2 p(u)
    Vj = Jet2.constant(v0, K, shape)
    for _ in range(6):
        Wv = Vj + Vj * Vj * pj
        dW = 1.0 + 2.0 * Vj * pj
        Vj = Vj - (Wv - wj) / dW
    xj = vjet(data.xi, u, 0.0, K)
    dxj = tuple(c.du() for c in vjet(data.xi, u, 0.0, K + 1))
    qj = q.jet(u, 0.0, K)
    # f(u, v(w)) - gamma(u) assembled from the data, with b composed through
    # v(w); every jet here is of order K, and each division by w takes one
    vv, wwq = Vj * Vj, wj * wj * qj
    out = []
    for x, dx, b in zip(xj, dxj, vjet(data.b, u, v0, K)):
        core = Vj * x + vv * compose2(b.c, K, uj, Vj) - wj * x - wwq * dx
        for _ in range(3):
            core = over_v(core, w, tol=1e-7)
        out.append(core)
    return tuple(out)


def convert_to_asymptotic_form(data: SwallowtailData) -> AsymptoticData:
    """Rewrite (xi, b) as (xi, q, r); rejects data violating the span condition.

    The condition is b(u, 0) in span{xi(u), xi'(u)} at each sampled u; the
    tangential multiple p(u) is then absorbed by the substitution
    v -> v + v^2 p(u), leaving the normal form with q and r only.
    """
    worst_u, worst = None, 0.0
    for uu in (-0.1, -0.05, 0.0, 0.05, 0.1):
        xi, xip = xi_frame(data.xi, uu, 1)
        b0 = np.array([c.value() for c in vjet(data.b, uu, 0.0, 0)])
        n = np.cross(xi, xip)
        resid = abs(np.dot(b0, n)) / (np.linalg.norm(n) * (1 + np.linalg.norm(b0)))
        if resid > worst:
            worst, worst_u = resid, uu
    if worst > 1e-8:
        raise BuildError(f"b(u,0) leaves span(xi, xi') (worst residual {worst:.3g} at u={worst_u})")

    def qp(u, v, order):
        xj, dx, n = cusp_frame(data.xi, u, order)
        bj = tuple(c.axis_part() for c in vjet(data.b, u, 0.0, order))
        den = det3(xj, dx, n)
        return det3(xj, bj, n) / den, det3(bj, dx, n) / den

    q, p = components(qp, 2)
    return AsymptoticData.of(data.xi, q, components(partial(_r_jet, data, p, q)), data.gamma)


# ---------------------------------------------------------------------------
# Existence along a prescribed cusp
# ---------------------------------------------------------------------------

def flip_data(data):
    """Data of the germ composed with (u, v) -> (-u, -v); flips sigma0_S."""
    g = data.gamma or gamma_from_xi(data.xi)
    # the primitive of u xi(-u) vanishing at 0 is gamma(-u)
    gflip = tuple(FlipU(c) for c in g)
    xi = tuple(FlipU(c) for c in data.xi)
    if isinstance(data, AsymptoticData):
        return AsymptoticData.of(xi, Scaled(FlipU(data.q), -1.0),
                                 tuple(FlipU(c) for c in data.r), gflip)
    return SwallowtailData.of(xi, tuple(FlipU(c) for c in data.b), gflip)


def scale_vec(c, vec):
    out = []
    for comp in vec:
        if isinstance(comp, Expr):
            out.append(fold(Mul(Const(c), comp)))
        else:
            out.append(Scaled(comp, c))
    return tuple(out)


def normal_field(xi):
    """Providers of xi x xi' for a cusp direction field xi."""
    return components(lambda u, v, order: cusp_frame(xi, u, order)[2])


def exists_swallowtail_along(xi, want_sigma_g: int, tail_sign=None) -> SwallowtailData:
    """Swallowtail data along the cusp with direction field xi.

    For a generic cusp any sign of sigma_g_S can be requested (0 yields an
    asymptotic germ).  Along a non-generic cusp the wave-front condition
    forces sigma0_S * sigma_g_S < 0, the request 0 is impossible, and the
    tail-part curvature is always negative, so a positive tail request is
    rejected.
    """
    xi = _parse_vec(xi)
    xi0, xip0, xipp0 = xi_frame(xi, 0.0, 3)
    if np.linalg.norm(np.cross(xi0, xip0)) < 1e-12:
        raise BuildError("not a space-cusp direction field: xi(0) x xi'(0) = 0")
    psi = float(np.linalg.det(np.stack([xi0, xip0, xipp0], axis=1)))
    scale = max(np.linalg.norm(xi0) * np.linalg.norm(xip0), 1e-6) ** 1.5
    generic = sgn(psi, scale) != 0
    if generic and psi < 0:
        xi = tuple(FlipU(c) for c in xi)
        psi = -psi

    ddxi = tuple(_derivative(_derivative(c)) for c in xi)
    if generic:
        if want_sigma_g == 0:
            return SwallowtailData.of(xi, (ZERO, ZERO, ZERO))
        return SwallowtailData.of(xi, scale_vec(0.25 * want_sigma_g, ddxi))
    if want_sigma_g == 0:
        raise BuildError("no asymptotic swallowtails along a non-generic space-cusp")
    if tail_sign is not None and tail_sign > 0:
        raise BuildError("swallowtails along a non-generic cusp always have a "
                         "negatively curved tail part")

    return SwallowtailData.of(xi, scale_vec(0.5 * want_sigma_g, normal_field(xi)))
