"""Space-cusps: factorization gamma' = u xi, classification, handedness,
half-arclength normalization, and curve reconstruction from curvature and
torsion by Frenet integration.

A curve germ is a triple of jet providers in u.  The cusp tests read
xi(0), xi'(0), xi''(0): the cusp condition is xi(0) x xi'(0) != 0 and
genericity is det(xi, xi', xi'')(0) != 0, the sign of which is the
handedness.  Both are parametrization-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import JetFn, Scaled, pjet, vjet
from .frontal import sgn
from ._jettables import index_of
from .jets import Jet2, compose2, jet_sqrt, p1_invert, parse
from .metric import det3, dot


class CurveError(ValueError):
    pass


def _parse_vec(v):
    return tuple(parse(c) if isinstance(c, str) else c for c in v)


@dataclass
class CurveGerm:
    gamma: tuple

    def __post_init__(self):
        self.gamma = _parse_vec(self.gamma)

    def jets(self, u, order):
        return vjet(self.gamma, u, 0.0, order)

    def value(self, u):
        return np.array([c.value() for c in self.jets(u, 0)])


@dataclass
class CuspFactorization:
    xi: tuple

    def jets(self, u, order):
        return vjet(self.xi, u, 0.0, order)

    def frame0(self):
        xj = self.jets(0.0, 2)
        return (np.array([c.value() for c in xj]),
                np.array([c.partial(1, 0) for c in xj]),
                np.array([c.partial(2, 0) for c in xj]))


@dataclass
class CuspClass:
    kind: str                  # "not_a_cusp" | "non_generic" | "generic"
    handedness: str = ""       # "right" | "left" for generic cusps
    det: float = 0.0
    cross_norm: float = 0.0
    indeterminate: bool = False


class _XiFromGamma:
    def __init__(self, curve, k):
        self.curve, self.k = curve, k

    def jet(self, u, v, order, memo=None):
        gp = pjet(self.curve.gamma[self.k], u, 0.0, order + 2).axis_part().du()
        if np.ndim(u) == 0 and u == 0.0:
            return gp.divide_by_u()
        # an array u may hold the point 0: divide elsewhere, then splice it in
        at0 = np.asarray(u) == 0.0
        uj = Jet2.variable("u", np.where(at0, 1.0, u), order + 1, np.shape(u))
        out = (gp / uj).truncate(order)
        if at0.any():
            out.c[:, at0] = self.jet(0.0, v, order).c[:, None]
        return out


def factor_cusp(curve: CurveGerm) -> CuspFactorization:
    """xi with gamma'(u) = u xi(u); requires gamma'(0) = 0."""
    gj = curve.jets(0.0, 2)
    gp0 = np.array([c.partial(1, 0) for c in gj])
    scale = np.linalg.norm([c.partial(2, 0) for c in gj]) + 1.0
    if np.linalg.norm(gp0) > 1e-10 * scale:
        raise CurveError(f"gamma'(0) = {tuple(gp0)} != 0: not a singular curve point")
    return CuspFactorization(xi=tuple(_XiFromGamma(curve, k) for k in range(3)))


def classify_cusp(fact: CuspFactorization, tol=1e-9) -> CuspClass:
    xi0, xi1, xi2 = fact.frame0()
    cr = np.cross(xi0, xi1)
    cross_norm = float(np.linalg.norm(cr))
    scale_a = np.linalg.norm(xi0) * np.linalg.norm(xi1)
    if cross_norm <= tol * (1.0 + scale_a):
        return CuspClass(kind="not_a_cusp", cross_norm=cross_norm)
    det = float(np.dot(cr, xi2))
    scale_b = cross_norm * np.linalg.norm(xi2)
    s = sgn(det, scale_b, tol=tol)
    gray = tol * (1.0 + scale_b) < abs(det) < 10 * tol * (1.0 + scale_b)
    if s == 0:
        return CuspClass(kind="non_generic", det=det, cross_norm=cross_norm,
                         indeterminate=abs(det) > 0.1 * tol * (1.0 + scale_b))
    return CuspClass(kind="generic", handedness="right" if s > 0 else "left",
                     det=det, cross_norm=cross_norm, indeterminate=gray)


def mirror_properties(fact: CuspFactorization):
    """Classes of the u-reversed and negated curves; handedness must flip."""
    from .fields import FlipU
    rev = CuspFactorization(xi=tuple(FlipU(c) for c in fact.xi))
    neg = CuspFactorization(xi=tuple(Scaled(c, -1.0) for c in fact.xi))
    return {
        "original": classify_cusp(fact),
        "u_reversed": classify_cusp(rev),
        "negated": classify_cusp(neg),
    }


# ---------------------------------------------------------------------------
# Half-arclength normalization
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes and weights on [-1, 1]: every piece of phi is one
# application of this rule to an interval no longer than half a table panel
# or one panel.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def _bounded_put(cache, key, value):
    """Store in a provider cache, cleared past 256 entries (as MapGerm._cache)."""
    if len(cache) > 256:
        cache.clear()
    cache[key] = value


class HalfArclength:
    """Reparametrization u = sgn(t) sqrt(2 phi(t)), phi(t) = int_0^t s|xi(s)| ds.

    In the new parameter the factorization field is the unit field
    xi(t(u))/|xi(t(u))|.  Exposes jets of t(u), of the reparametrized curve
    and unit field, and of the speed |xi(t(u))| used to rescale transverse
    data.

    phi is tabulated at the nodes i*h of a grid on [-1.5, 1.5] (h = 0.002),
    cumulated outward from 0, each panel integrated by an 8-point
    Gauss-Legendre rule; the speed at all the nodes of all the panels comes
    from one array-valued jet call.  phi(t) at any t is the table value at
    the nearest node plus the same rule over [node, t], so phi is smooth to
    rounding across panels.  Past +-1.5 the table doubles in whole panels.
    t(u) is one vectorized Newton iteration on phi(t) = u^2/2, seeded by
    interpolating the table and clamped to the side of sign(u); a scalar u
    goes through it as a one-element array.  Every method taking u or t
    also takes an array of them (one jet per point).
    """

    T, PANELS = 1.5, 750          # half-width of the table and panels per side

    def __init__(self, curve: CurveGerm, xi=None):
        self.curve = curve
        self.fact = CuspFactorization(xi=tuple(xi)) if xi is not None else factor_cusp(curve)
        xj = self.fact.jets(0.0, 1)
        xi0 = np.array([c.value() for c in xj])
        if np.linalg.norm(xi0) < 1e-10:
            raise CurveError("gamma''(0) = 0: half-arclength parameter undefined")
        self._h = self.T / self.PANELS
        # cumulative phi at the nodes 0, h, 2h, ... and 0, -h, -2h, ...
        self._cum = {1.0: np.zeros(1), -1.0: np.zeros(1)}
        self._extend(self.PANELS)
        self._jet_cache = {}
        self._t_cache = {}

    def _speed(self, t):
        """|xi(t)| at an array of points, from one jet call."""
        x, y, z = (c.value() for c in self.fact.jets(t, 0))
        return np.sqrt(x * x + y * y + z * z)

    def _rule(self, a, b):
        """Gauss-Legendre rule for int_a^b s|xi(s)| ds, elementwise over arrays."""
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        s = mid + half * _GL_X.reshape((-1,) + (1,) * np.ndim(a))
        f = s * self._speed(s)
        acc = _GL_W[0] * f[0]
        for k in range(1, len(_GL_W)):
            acc = acc + _GL_W[k] * f[k]
        return half * acc

    def _extend(self, n):
        """Grow the table to at least n panels per side, doubling each time, so
        that its values never depend on the order of the calls."""
        have = len(self._cum[1.0]) - 1
        if n <= have:
            return
        new = have or n
        while have + new < n:
            new *= 2
        i = np.arange(have, have + new)
        ends = np.concatenate([i, -i]) * self._h, np.concatenate([i + 1, -(i + 1)]) * self._h
        panels = self._rule(*ends)
        for side, p in ((1.0, panels[:new]), (-1.0, panels[new:])):
            cum = self._cum[side]
            self._cum[side] = np.concatenate([cum, cum[-1] + np.cumsum(p)])

    def phi(self, t):
        """phi(t) = int_0^t s|xi(s)| ds, elementwise over an array of t."""
        t = np.asarray(t, dtype=float)
        i = np.rint(t / self._h).astype(int)
        self._extend(int(np.max(np.abs(i), initial=0)))
        base = np.where(i >= 0, self._cum[1.0][np.abs(i)], self._cum[-1.0][np.abs(i)])
        return base + self._rule(i * self._h, t)

    def u_of_t(self, t):
        return math.copysign(math.sqrt(max(2.0 * float(self.phi(t)), 0.0)), t)

    def _invert(self, u):
        """t(u) for a 1-D array u: Newton on phi(t) = u^2/2 with phi' = t|xi(t)|.

        Each entry stops on its own step size, so its result does not depend
        on the rest of the array."""
        target = 0.5 * u * u
        side = np.where(u > 0, 1.0, -1.0)
        t = np.zeros_like(u)
        n = self.PANELS + 1          # seeds from [-1.5, 1.5] only, however far the table grew
        for sd in (1.0, -1.0):
            on = (side == sd) & (u != 0.0)
            nodes = sd * self._h * np.arange(n)
            t[on] = np.interp(np.abs(u[on]), np.sqrt(2.0 * self._cum[sd][:n]), nodes)
        active = np.flatnonzero(u != 0.0)
        for _ in range(60):
            if not active.size:
                break
            ta, sa = t[active], side[active]
            g = self.phi(ta) - target[active]
            gp = ta * self._speed(ta)
            step = np.divide(g, gp, out=np.zeros_like(g), where=gp != 0.0)
            ta = ta - step
            ta = np.where(ta * sa <= 0.0, sa * 1e-12, ta)
            t[active] = ta
            active = active[np.abs(step) >= 1e-14 * (1 + np.abs(ta))]
        return t

    def t_of_u(self, u):
        if np.ndim(u) != 0:
            return self._invert(np.asarray(u, dtype=float))
        u = float(u)
        if u not in self._t_cache:
            _bounded_put(self._t_cache, u, float(self._invert(np.array([u]))[0]))
        return self._t_cache[u]

    def _cached(self, tag, x, order, compute):
        """Jets at x memoised per (tag, x) and reused at lower orders; an
        array x is keyed by its bytes."""
        key = (tag, float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float).tobytes())
        hit = self._jet_cache.get(key)
        if hit is not None and hit[0] >= order:
            out = hit[1]
            return tuple(c.truncate(order) for c in out) if isinstance(out, tuple) \
                else out.truncate(order)
        out = compute()
        _bounded_put(self._jet_cache, key, (order, out))
        return out

    def _speed_jet(self, t, order):
        def compute():
            xj = self.fact.jets(t, order)
            return jet_sqrt(dot(xj, xj))
        return self._cached("sp", t, order, compute)

    def _u_series(self, t0, order):
        """Taylor coefficients of u(t0 + s) about s = 0, shape (order+1,) + shape(t0)."""
        shape = np.shape(t0)
        at0 = np.asarray(t0) == 0.0
        if shape and at0.any():
            # the node t = 0 goes through the scalar branch below
            ser = np.zeros((order + 1,) + shape)
            if not at0.all():
                ser[:, ~at0] = self._u_series(np.asarray(t0)[~at0], order)
            ser[:, at0] = self._u_series(0.0, order)[:, None]
            return ser
        K = order + 2
        sp = self._speed_jet(t0, K)
        tj = Jet2.variable("u", t0, K, shape)
        integrand = tj * sp                       # t |xi(t)|
        phi = Jet2.constant(self.phi(t0), K + 1, shape)
        for i in range(integrand.order + 1):
            phi.c[index_of(i + 1, 0)] = integrand.c[index_of(i, 0)] / (i + 1)
        if shape or t0 != 0.0:
            uj = jet_sqrt(2.0 * phi) * np.sign(t0)
        else:
            psi = phi.divide_by_u().divide_by_u()   # phi / t^2
            tvar = Jet2.variable("u", 0.0, psi.order, ())
            uj = tvar * jet_sqrt(2.0 * psi)
        ser = np.zeros((order + 1,) + shape)
        for i in range(min(order, uj.order) + 1):
            ser[i] = uj.c[index_of(i, 0)]
        return ser

    def t_jet(self, u0, order):
        """Jet2 (u-only) of t(u) at u0."""
        def compute():
            t0 = self.t_of_u(u0)
            us = self._u_series(t0, order + 1)
            us[0] = 0.0                            # shift: series of u(t0+s) - u0
            tser = p1_invert(us[: order + 2])
            out = Jet2.constant(t0, order, np.shape(t0))
            for i in range(1, order + 1):
                out.c[index_of(i, 0)] = tser[i]
            return out
        return self._cached("tj", u0, order, compute)

    def gamma_hat(self):
        def comp(k):
            def fn(u, v, order):
                tj = self.t_jet(u, order)
                gj = pjet(self.curve.gamma[k], tj.value(), 0.0, order)
                vj = Jet2.constant(0.0, order, np.shape(u))
                return compose2(gj.c, order, tj, vj)
            return JetFn(fn)
        return tuple(comp(k) for k in range(3))

    def xi_hat_jets(self, u, order):
        """All three components of the unit field at u, cached."""
        def compute():
            tj = self.t_jet(u, order)
            xj = vjet(self.fact.xi, tj.value(), 0.0, order)
            zero = Jet2.constant(0.0, order, np.shape(u))
            all_c = [compose2(xj[m].c, order, tj, zero) for m in range(3)]
            nrm = jet_sqrt(dot(all_c, all_c))
            return tuple(c / nrm for c in all_c)
        return self._cached("xh", u, order, compute)

    def xi_hat(self):
        """Unit factorization field in the new parameter."""
        def comp(k):
            def fn(u, v, order):
                return self.xi_hat_jets(u, order)[k]
            return JetFn(fn)
        return tuple(comp(k) for k in range(3))

    def speed(self):
        """Provider of |xi(t(u))| (the transverse rescaling factor)."""
        def fn(u, v, order):
            tj = self.t_jet(u, order)
            sp = self._speed_jet(tj.value(), order)
            return compose2(sp.c, order, tj, Jet2.constant(0.0, order, np.shape(u)))
        return JetFn(fn)


def normalize_half_arclength(curve: CurveGerm):
    """Reparametrized curve with unit factorization field; also returns it."""
    H = HalfArclength(curve)
    out = CurveGerm.__new__(CurveGerm)
    out.gamma = H.gamma_hat()
    return out, CuspFactorization(xi=H.xi_hat()), H


# ---------------------------------------------------------------------------
# Frenet integration: curve from curvature and torsion
# ---------------------------------------------------------------------------

@dataclass
class FrenetData:
    kappa: object
    tau: object
    frame0: np.ndarray = field(default_factory=lambda: np.eye(3))
    step: float = 1e-3

    def __post_init__(self):
        if isinstance(self.kappa, str):
            self.kappa = parse(self.kappa)
        if isinstance(self.tau, str):
            self.tau = parse(self.tau)
        self.frame0 = np.asarray(self.frame0, dtype=float)


def _frenet_rhs(u, Y, kappa, tau):
    T, N, B = Y[0:3], Y[3:6], Y[6:9]
    k = pjet(kappa, u, 0.0, 0).value()
    t = pjet(tau, u, 0.0, 0).value()
    dT = k * N
    dN = -k * T + t * B
    dB = -t * N
    dG = T
    dG2 = u * T          # primitive of u xi(u): the cusp curve
    return np.concatenate([dT, dN, dB, dG, dG2])


def _gram_schmidt(Y):
    T, N, B = Y[0:3].copy(), Y[3:6].copy(), Y[6:9].copy()
    T /= np.linalg.norm(T)
    N -= np.dot(N, T) * T
    N /= np.linalg.norm(N)
    B -= np.dot(B, T) * T + np.dot(B, N) * N
    B /= np.linalg.norm(B)
    return np.concatenate([T, N, B, Y[9:]])


class FrenetPath:
    """Integrated frame and curve on an interval around 0."""

    def __init__(self, data: FrenetData, interval=(-1.0, 1.0), gamma0=(0.0, 0.0, 0.0),
                 reorthonormalize=True):
        self.data = data
        self.interval = interval
        a, b = interval
        if not (a <= 0.0 <= b):
            raise CurveError("integration interval must contain 0")
        k0 = pjet(data.kappa, 0.5 * (a + b), 0.0, 0).value()
        self._nodes = {}
        Y0 = np.concatenate([data.frame0[0], data.frame0[1], data.frame0[2],
                             np.asarray(gamma0, dtype=float), np.zeros(3)])
        self._nodes[0.0] = Y0
        h = data.step
        for sign, end in ((1.0, b), (-1.0, a)):
            Y = Y0.copy()
            u = 0.0
            n = int(math.ceil(abs(end) / h))
            for i in range(n):
                step = sign * min(h, abs(end) - abs(u))
                Y = self._rk4(u, Y, step)
                if reorthonormalize:
                    Y = _gram_schmidt(Y)
                u = u + step
                self._nodes[round(u, 12)] = Y
        self.us = np.array(sorted(self._nodes))

    def _rk4(self, u, Y, h):
        f = lambda uu, YY: _frenet_rhs(uu, YY, self.data.kappa, self.data.tau)
        k1 = f(u, Y)
        k2 = f(u + h / 2, Y + h / 2 * k1)
        k3 = f(u + h / 2, Y + h / 2 * k2)
        k4 = f(u + h, Y + h * k3)
        kval = pjet(self.data.kappa, u + h / 2, 0.0, 0).value()
        if kval <= 0.0:
            raise CurveError(f"kappa({u + h / 2}) = {kval} <= 0")
        return Y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    def state(self, u):
        """Frame+curve at u, integrating a fractional step from the grid."""
        key = round(u, 12)
        if key in self._nodes:
            return self._nodes[key]
        idx = np.searchsorted(self.us, u)
        candidates = []
        if idx < len(self.us):
            candidates.append(self.us[idx])
        if idx > 0:
            candidates.append(self.us[idx - 1])
        base = min(candidates, key=lambda x: abs(x - u))
        Y = self._nodes[round(base, 12)].copy()
        Y = self._rk4(base, Y, u - base)
        return _gram_schmidt(Y)

    def frame(self, u):
        Y = self.state(u)
        return Y[0:3], Y[3:6], Y[6:9]

    def gamma(self, u):
        return self.state(u)[9:12]

    def series(self, u0, order):
        """Taylor series of (T, N, B, Gamma, int u T) at u0 from the Frenet relations."""
        Y = self.state(u0)
        T0, N0, B0, G0, G20 = Y[0:3], Y[3:6], Y[6:9], Y[9:12], Y[12:15]
        kj = pjet(self.data.kappa, u0, 0.0, order)
        tj = pjet(self.data.tau, u0, 0.0, order)
        kser = np.array([kj.c[index_of(i, 0)] for i in range(order + 1)])
        tser = np.array([tj.c[index_of(i, 0)] for i in range(order + 1)])
        T = np.zeros((order + 1, 3))
        N = np.zeros((order + 1, 3))
        B = np.zeros((order + 1, 3))
        G = np.zeros((order + 1, 3))
        G2 = np.zeros((order + 1, 3))
        T[0], N[0], B[0], G[0], G2[0] = T0, N0, B0, G0, G20
        for n in range(order):
            conv_kN = sum(kser[m] * N[n - m] for m in range(n + 1))
            conv_kT = sum(kser[m] * T[n - m] for m in range(n + 1))
            conv_tB = sum(tser[m] * B[n - m] for m in range(n + 1))
            conv_tN = sum(tser[m] * N[n - m] for m in range(n + 1))
            T[n + 1] = conv_kN / (n + 1)
            N[n + 1] = (-conv_kT + conv_tB) / (n + 1)
            B[n + 1] = -conv_tN / (n + 1)
            G[n + 1] = T[n] / (n + 1)
            # d/du (int u T) = u T: coefficients u0 T_n + T_{n-1}
            ut = u0 * T[n] + (T[n - 1] if n >= 1 else 0.0)
            G2[n + 1] = ut / (n + 1)
        return T, N, B, G, G2

    def xi_providers(self):
        """Unit tangent field T(u) = dGamma/du as three jet providers."""
        path = self

        def comp(k):
            def fn(u, v, order):
                T, _, _, _, _ = path.series(u, order)
                out = Jet2.constant(0.0, order, ())
                for i in range(order + 1):
                    out.c[index_of(i, 0)] = T[i][k]
                return out
            return JetFn(fn)
        return tuple(comp(k) for k in range(3))

    def cusp_curve_providers(self):
        """Providers of int_0^u w T(w) dw (the cusp curve of the field T)."""
        path = self

        def comp(k):
            def fn(u, v, order):
                _, _, _, _, G2 = path.series(u, order)
                out = Jet2.constant(0.0, order, ())
                for i in range(order + 1):
                    out.c[index_of(i, 0)] = G2[i][k]
                return out
            return JetFn(fn)
        return tuple(comp(k) for k in range(3))


def integrate_frenet(data: FrenetData, interval=(-1.0, 1.0), gamma0=(0.0, 0.0, 0.0)) -> FrenetPath:
    """Curve with prescribed curvature (positive) and torsion, unit speed."""
    for u in np.linspace(interval[0], interval[1], 41):
        if pjet(data.kappa, float(u), 0.0, 0).value() <= 0.0:
            raise CurveError(f"kappa({u}) <= 0 on the integration interval")
    return FrenetPath(data, interval=interval, gamma0=gamma0)


def curvature_torsion_of(xi, u, order=3):
    """(kappa, tau) jets of a unit field xi: kappa = |xi'|, tau = det(xi,xi',xi'')/kappa^2."""
    xj = vjet(xi, u, 0.0, order + 2)
    dx = tuple(c.du() for c in xj)
    ddx = tuple(c.du().du() for c in xj)
    xj = tuple(c.truncate(order) for c in xj)
    dx = tuple(c.truncate(order) for c in dx)
    kappa = jet_sqrt(dot(dx, dx))
    tau = det3(xj, dx, ddx) / (kappa * kappa)
    return kappa, tau
