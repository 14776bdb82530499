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
from functools import partial

import numpy as np

from .fields import (BoundedCache, DenseOutput, FlipU, JetFn, Scaled, components,
                     gauss_legendre, horner, step_count, step_ends, vjet, xi_frame,
                     xi_over_u)
from .frontal import sgn
from .jets import Jet2, compose2, jet_sqrt, parse
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


@dataclass
class CuspClass:
    kind: str                  # "not_a_cusp" | "non_generic" | "generic"
    handedness: str = ""       # "right" | "left" for generic cusps
    det: float = 0.0
    cross_norm: float = 0.0
    indeterminate: bool = False


def factor_cusp(curve: CurveGerm) -> CuspFactorization:
    """xi with gamma'(u) = u xi(u); requires gamma'(0) = 0."""
    gj = curve.jets(0.0, 2)
    gp0 = np.array([c.partial(1, 0) for c in gj])
    scale = np.linalg.norm([c.partial(2, 0) for c in gj]) + 1.0
    if np.linalg.norm(gp0) > 1e-10 * scale:
        raise CurveError(f"gamma'(0) = {tuple(gp0)} != 0: not a singular curve point")
    return CuspFactorization(xi=xi_over_u(partial(vjet, curve.gamma)))


def classify_cusp(fact: CuspFactorization) -> CuspClass:
    tol = 1e-9
    xi0, xi1, xi2 = xi_frame(fact.xi, 0.0, 2)
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

class _PhiTable:
    """phi(t) = int_0^t s|xi(s)| ds of a cusp factorization, its inverse
    t(u) (phi(t(u)) = u^2/2, u of the sign of t) and the jets of t(u), for
    HalfArclength.

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

    The jet of t(u) at u0 is the series reversion (Jet2.reversion) of
    u(t0 + s) - u0, whose coefficient k comes from the first k of that
    series only.  The series of u to order N at t0 != 0 (a point, or every
    slot of an array) is sgn(t0) sqrt(2 phi), phi the primitive of t|xi(t)|,
    so it reads the speed jets at K = N - 1: the primitive adds the order
    back.  Only the node t0 = 0, where u = t sqrt(2 phi / t^2), reads them
    at K = N + 2, since dividing by t^2 takes two orders.  Each step (the
    product, the primitive, the square root, the reversion) fills its
    coefficient k from coefficients of degree <= k only, by the same float
    operations whatever the order (Griewank & Walther, Evaluating
    Derivatives, 2008, ch. 13), so K changes no bit of the first N + 1
    coefficients, and every jet here is truncation-exact: asked at order
    N + 1 and cut to N, it holds the bits of the call at N.  The table
    holds no memo of t(u)'s jets, so a JetFn over t_jet forms no cycle.
    """

    T, PANELS = 1.5, 750          # half-width of the table and panels per side

    def __init__(self, fact):
        self.fact = fact
        self._h = self.T / self.PANELS
        # cumulative phi at the nodes 0, h, 2h, ... and 0, -h, -2h, ...
        self._cum = {1.0: np.zeros(1), -1.0: np.zeros(1)}
        self._extend(self.PANELS)
        self._t_cache = BoundedCache()
        self.speed_jets = JetFn(partial(_speed_jet, fact))

    def _speed(self, t):
        """|xi(t)| at an array of points, from one jet call."""
        x, y, z = (c.value() for c in self.fact.jets(t, 0))
        return np.sqrt(x * x + y * y + z * z)

    def _rule(self, a, b):
        """Gauss-Legendre rule for int_a^b s|xi(s)| ds, elementwise over arrays;
        every piece of phi is one application of it to an interval no longer
        than one panel."""
        return gauss_legendre(lambda s: s * self._speed(s), a, b)

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
        return self._t_cache.value(u, lambda: float(self._invert(np.array([u]))[0]))

    def _u_series(self, t0, order):
        """Taylor coefficients of u(t0 + s) about s = 0, shape (order+1,) + shape(t0),
        from the speed jets at order K (see the class docstring)."""
        shape = np.shape(t0)
        at0 = np.asarray(t0) == 0.0
        if shape and at0.any():
            # the node t = 0 goes through the scalar branch below
            ser = np.zeros((order + 1,) + shape)
            if not at0.all():
                ser[:, ~at0] = self._u_series(np.asarray(t0)[~at0], order)
            ser[:, at0] = self._u_series(0.0, order)[:, None]
            return ser
        away = bool(shape) or t0 != 0.0
        K = order - 1 if away else order + 2
        sp = self.speed_jets.jet(t0, 0.0, K)
        tj = Jet2.variable("u", t0, K, shape)
        phi = (tj * sp).primitive(self.phi(t0))   # of t |xi(t)|, order K + 1
        if away:
            uj = jet_sqrt(2.0 * phi) * np.sign(t0)
        else:
            psi = phi.divide_by_u().divide_by_u()   # phi / t^2
            tvar = Jet2.variable("u", 0.0, psi.order, ())
            uj = tvar * jet_sqrt(2.0 * psi)
        return uj.series()[:order + 1]

    def t_jet(self, u0, v, order):
        """Jet2 (u-only) of t(u) at u0, read as a provider of (u, v)."""
        t0 = self.t_of_u(u0)
        us = self._u_series(t0, max(order, 1))  # order 0 keeps the domain checks
        us[0] = 0.0                            # shift: series of u(t0+s) - u0
        tser = Jet2.of_series(us).reversion().series()[:order + 1]
        tser[0] = t0
        return Jet2.of_series(tser)


def _speed_jet(fact, t, v, order):
    """Jet of |xi(t)| at t."""
    xj = fact.jets(t, order)
    return jet_sqrt(dot(xj, xj))


class HalfArclength:
    """Reparametrization u = sgn(t) sqrt(2 phi(t)), phi(t) = int_0^t s|xi(s)| ds.

    In the new parameter the factorization field is the unit field
    xi(t(u))/|xi(t(u))|.  Exposes jets of t(u), of the reparametrized curve
    and unit field, and of the speed |xi(t(u))| used to rescale transverse
    data.  phi, t(u) and their jets come from a _PhiTable (see there); the
    jets of t(u) and of the speed are JetFns, under the memo rule of fields.
    """

    def __init__(self, curve: CurveGerm, xi=None):
        self.curve = curve
        self.fact = CuspFactorization(xi=tuple(xi)) if xi is not None else factor_cusp(curve)
        if np.linalg.norm(xi_frame(self.fact.xi, 0.0, 1)[0]) < 1e-10:
            raise CurveError("gamma''(0) = 0: half-arclength parameter undefined")
        self._table = table = _PhiTable(self.fact)
        self.phi, self.t_of_u, self._speed_jets = table.phi, table.t_of_u, table.speed_jets
        self._t_jets = JetFn(table.t_jet)

    def t_jet(self, u0, order):
        """Jet2 (u-only) of t(u) at u0."""
        return self._t_jets.jet(u0, 0.0, order)

    def gamma_hat(self):
        """The curve in the new parameter, gamma(t(u))."""
        t_jet, curve = self.t_jet, self.curve

        def fn(u, v, order):
            tj = t_jet(u, order)
            vj = Jet2.constant(0.0, order, np.shape(u))
            return tuple(compose2(gj.c, order, tj, vj) for gj in curve.jets(tj.value(), order))
        return components(fn)

    def xi_hat_jets(self, u, order):
        """All three components of the unit field at u."""
        tj = self.t_jet(u, order)
        xj = vjet(self.fact.xi, tj.value(), 0.0, order)
        zero = Jet2.constant(0.0, order, np.shape(u))
        all_c = [compose2(xj[m].c, order, tj, zero) for m in range(3)]
        nrm = jet_sqrt(dot(all_c, all_c))
        return tuple(c / nrm for c in all_c)

    def xi_hat(self):
        """Unit factorization field in the new parameter, its jets memoised
        by the components' JetFn."""
        xi_hat_jets = self.xi_hat_jets
        return components(lambda u, v, order: xi_hat_jets(u, order))

    def speed(self):
        """Provider of |xi(t(u))| (the transverse rescaling factor)."""
        t_jet, speed_jets = self.t_jet, self._speed_jets

        def fn(u, v, order):
            tj = t_jet(u, order)
            sp = speed_jets.jet(tj.value(), 0.0, order)
            return compose2(sp.c, order, tj, Jet2.constant(0.0, order, np.shape(u)))
        return JetFn(fn)


def normalize_half_arclength(curve: CurveGerm):
    """Reparametrized curve with unit factorization field; also returns it."""
    H = HalfArclength(curve)
    return CurveGerm(H.gamma_hat()), CuspFactorization(xi=H.xi_hat()), H


# ---------------------------------------------------------------------------
# Frenet integration: curve from curvature and torsion
# ---------------------------------------------------------------------------

FRENET_ORDER = 8        # degree of the Taylor polynomial of one Frenet step
FRENET_TOL = 1e-8       # bound on the last two terms of a step's frame series
FRENET_MAX_STEPS = 100_000  # most steps times columns one march may take
KAPPA_CHECK = 5e-4      # finest spacing of the kappa/tau check grid
CHECK_BLOCK = 2048      # most check points read by one provider call


@dataclass
class FrenetData:
    kappa: object
    tau: object
    frame0: np.ndarray = field(default_factory=lambda: np.eye(3))
    step: float = 0.025

    def __post_init__(self):
        if isinstance(self.kappa, str):
            self.kappa = parse(self.kappa)
        if isinstance(self.tau, str):
            self.tau = parse(self.tau)
        self.frame0 = np.asarray(self.frame0, dtype=float)


def march_steps(interval, h):
    """The ends of the steps of h that a FrenetPath on interval marches out
    of 0 before any split, toward its left end and toward its right one
    (step_ends), and the starts of those steps, each once: 0 starts both
    marches."""
    a, b = interval
    ends = step_ends(0.0, a, -h), step_ends(0.0, b, h)
    return ends, np.concatenate([[0.0], ends[0][:-1], ends[1][:-1]])


_OPERANDS = [3, 4, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8]   # the rows (N, T, N, B) of a state


def _frenet_series(Y, kser, tser, u0, order):
    """Taylor coefficients (order + 1, 15, ...) at u0 of the state
    (T, N, B, Gamma, int u T) from the Frenet relations, given the state Y
    (15, ...) at u0 and the series of kappa and tau there, each with at
    least order rows (a row per degree, a column per path).

    The four Cauchy products of degree n are one: row m of W[:n + 1] *
    F[n::-1] is (kappa_m N_{n-m}, kappa_m T_{n-m}, tau_m N_{n-m}, tau_m
    B_{n-m}), and np.add.reduce sums the rows one by one from 0, as a Python
    sum over m does, so each coefficient holds the bits of four such sums."""
    S = np.zeros((order + 1,) + Y.shape)
    S[0] = Y
    F = np.empty((order + 1, 12) + Y.shape[1:])
    np.take(Y, _OPERANDS, axis=0, out=F[0])
    W = np.repeat(np.stack([kser[:order], kser[:order], tser[:order], tser[:order]], 1), 3, 1)
    deg = np.arange(1.0, order + 1).reshape((order, 1) + (1,) * (Y.ndim - 1))
    signed = deg * np.repeat([1.0, 1.0, -1.0], 3).reshape((9,) + (1,) * (Y.ndim - 1))
    for n in range(order):
        c = np.add.reduce(W[:n + 1] * F[n::-1], axis=0, initial=0.0)  # kN, kT, tN, tB
        np.subtract(c[9:12], c[3:6], out=c[3:6])
        np.divide(c[:9], signed[n], out=S[n + 1, :9])   # B' = tN / -(n + 1)
        np.take(S[n + 1, :9], _OPERANDS, axis=0, out=F[n + 1])
    T = S[:-1, 0:3]
    S[1:, 9:12] = T / deg
    ut = u0 * T             # d/du (int u T) = u T: coefficients u0 T_n + T_{n-1}
    ut[0] += 0.0            # T_{-1} = 0: a zero comes out +0.0
    ut[1:] += T[:-1]
    S[1:, 12:15] = ut / deg
    return S


def _admissible_step(c):
    """Longest step at which the last two terms (degrees FRENET_ORDER - 1
    and FRENET_ORDER) of the frame rows T, N, B of the step series c
    (15, n, FRENET_ORDER + 1) stay within FRENET_TOL, in every column: the
    step control of Jorba & Zou.  The rows Gamma and int u T are primitives
    of T and u T, so their truncation follows the frame's.  NaN when a
    coefficient is not finite."""
    with np.errstate(divide="ignore"):
        return np.min([(FRENET_TOL / np.abs(c[:9, :, j]).max()) ** (1.0 / j)
                       for j in (FRENET_ORDER - 1, FRENET_ORDER)])


class FrenetPath:
    """Integrated frames and curves of a batch of n paths on an interval
    around 0, one column per path.

    The paths share the interval and the steps; each has its own kappa, tau
    and initial frame.  A state is an array (15, n) of (T, N, B, Gamma,
    int u T), data.frame0 is (3, 3, n), and the jets of the providers
    data.kappa and data.tau carry a trailing axis of n after the axes of
    their point.  A lone path is a batch of one, with frame0 (3, 3) and
    unbatched jets; FrenetColumn reads one column as a path.

    The paths are stepped by their own Taylor series (Jorba & Zou, Exp.
    Math. 14, 2005): from 0 out to each end of the interval, each step the
    degree-FRENET_ORDER series of the Frenet relations at its start
    (_frenet_series), on the steps of data.step (fields.step_ends, the
    last one of each side shorter) split where their series ask it (see
    _march).  state(u) is the polynomial of the step that holds u
    (fields.DenseOutput), continuous bit for bit at every node.

    Before the march, kappa > 0 and the finiteness of kappa and tau are
    checked on a grid of spacing max(KAPPA_CHECK, data.step / 50), both ends
    included, by one order-0 array read of (kappa, tau) (fields.vjet) per
    equal block of at most CHECK_BLOCK points, which bound the memory of
    the check; the 1,201 points of a default xi-interpolation march
    (deform.XiInterpolation) are one block, so one read.  The grid is
    scanned from 0 out to the right end and then to the left one, and an
    error names the first bad abscissa.  The kappa and tau series at the
    starts of the steps (march_steps) are one more array read.

    Every step is elementwise across the columns, so a column steps bit for
    bit as it would alone when the batch takes the steps it takes alone: a
    split that one column needs splits the step for every column.
    The Taylor series are computed for the whole batch, one order above
    the first request, and memoised per point (see series), whether it was
    read alone or in an array of points.  Every column, and the three
    components of its xi and cusp-curve providers, read the same series,
    and the pair of orders (N, N + 1) that the cusp frame asks at a point
    makes one series."""

    def __init__(self, data: FrenetData, interval=(-1.0, 1.0)):
        self.data = data
        self.interval = interval
        a, b = interval
        if not (a <= 0.0 <= b):
            raise CurveError("integration interval must contain 0")
        h = data.step
        frame0 = data.frame0 if data.frame0.ndim == 3 else data.frame0[..., None]
        self.n = n = frame0.shape[2]
        count = step_count(0.0, a, -h) + step_count(0.0, b, h)
        if count == 0:
            raise CurveError(f"integration interval {interval} takes no step from u = 0")
        budget = FRENET_MAX_STEPS // n
        if count > budget:
            raise CurveError(f"integration interval {interval} takes {count} steps of {h}, "
                             f"more than {budget}")
        self._check_kappa_tau(a, b, max(KAPPA_CHECK, h / 50))
        Y0 = np.concatenate([frame0[0], frame0[1], frame0[2], np.zeros((6, n))])
        self.dense = DenseOutput.of_marches(self._march(Y0, *march_steps(interval, h),
                                                        budget - count))
        self._series = BoundedCache()

    def _march(self, Y0, ends, starts, budget):
        """The (start, end, coefficient rows) of each step of the marches from
        0 out through ends[0] and through ends[1] (march_steps).  A step
        longer than its series admits (_admissible_step) is split into equal
        steps that it does admit, each checked again at its own start.  The
        kappa and tau series at the starts of the steps come from one array
        read of (kappa, tau), and those at the starts of a split from one
        more.  A split beyond budget steps, or series that admit no step, is
        a CurveError."""
        series = {}

        def add_starts(us):
            kser, tser = self._kappa_tau_series(us, FRENET_ORDER - 1)
            series.update((x, (kser[:, i], tser[:, i])) for i, x in enumerate(us.tolist()))

        add_starts(starts)
        marches = []
        for side in ends:
            out, u, Y, todo = [], 0.0, Y0, side.tolist()[::-1]
            while todo:
                u1 = todo[-1]
                c = np.moveaxis(_frenet_series(Y, *series[u], u, FRENET_ORDER), 0, -1)
                h_ok = _admissible_step(c)
                if not h_ok > 1e-12 * max(1.0, abs(u)):
                    raise CurveError(f"the Frenet series at u = {u} admit no Taylor step")
                m = math.ceil(abs(u1 - u) / h_ok)
                if m > 1:
                    budget -= m - 1
                    if budget < 0:
                        raise CurveError(f"the Frenet march needs more than "
                                         f"{FRENET_MAX_STEPS // self.n} steps near u = {u}")
                    new = u + (u1 - u) * np.arange(1, m) / m
                    add_starts(new)
                    todo.extend(new[::-1].tolist())
                    u1 = todo[-1]
                Y = horner(c, u1 - u)[0]
                out.append((u, u1, c))
                u = todo.pop()
            marches.append(out)
        return marches

    def _check_kappa_tau(self, a, b, spacing):
        grid = np.concatenate([[0.0], step_ends(0.0, b, spacing), step_ends(0.0, a, -spacing)])
        for us in np.array_split(grid, -(-len(grid) // CHECK_BLOCK)):
            k, t = (np.reshape(j.value(), (len(us), -1))
                    for j in vjet((self.data.kappa, self.data.tau), us, 0.0, 0))
            bad = ~((k > 0.0) & np.isfinite(k) & np.isfinite(t))
            if bad.any():
                i, j = np.argwhere(bad)[0]
                why = "<= 0" if k[i, j] <= 0.0 else f"and tau = {t[i, j]}: not finite"
                raise CurveError(f"kappa({us[i]}) = {k[i, j]} {why} on the integration interval")

    def state(self, u):
        """Frames and curves (15, n) at u, from the polynomial of its step."""
        return self.dense.at(u)[0]

    def series(self, u0, order):
        """Taylor series of (T, N, B, Gamma, int u T) at u0 from the Frenet
        relations, each (order + 1, 3, *shape(u0), n); never written into.
        u0 is a point or an array of them, and each point's slot holds the
        bits of its scalar call.

        The series are memoised per point in a BoundedCache, which answers
        a lower order by truncation: a read computes the distinct points
        it is missing in one _series_at call, and gathers every point from
        its distinct ones by the inverse of np.unique.  A miss computes
        order + 1, since the cusp frame reads the series one order above
        the field and the curve (requests come as (N, N + 1) pairs).  The
        recurrence and the kappa/tau providers are truncation-exact, so a
        slice holds the bits of a direct call."""
        us, inv = np.unique(np.asarray(u0, dtype=float), return_inverse=True)
        keys = us.tolist()
        got = [self._series.jets(x, order) for x in keys]
        miss = [i for i, hit in enumerate(got) if hit is None]
        if miss:
            # a lone point is read as a point, so its providers memoise it
            S = self._series_at(us[miss] if np.ndim(u0) else keys[0], order + 1)
            S = [np.reshape(s, s.shape[:2] + (len(miss), self.n)) for s in S]
            for k, i in enumerate(miss):
                self._series.put_jets(keys[i], order + 1, tuple(s[:, :, k] for s in S))
                got[i] = tuple(s[:order + 1, :, k] for s in S)
        return tuple(np.stack(e, axis=2)[:, :, inv] for e in zip(*got))

    def series_jets(self, u0, order, which):
        """Coefficients (3, term_count(order), *shape(u0), n) of the u-only
        jets at u0 of the three components of entry `which` of the series,
        for every path: 0 is the unit tangent T, 4 the cusp curve
        int_0^u w T(w) dw."""
        return np.moveaxis(Jet2.of_series(self.series(u0, order)[which]).c, 1, 0)

    def _kappa_tau_series(self, u, order):
        """Taylor coefficients of kappa and tau at u, a point or an array of
        them: a row per degree up to order, then the axes of u and a column
        per path."""
        return tuple(j.series().reshape((order + 1,) + np.shape(u) + (-1,))
                     for j in vjet((self.data.kappa, self.data.tau), u, 0.0, order))

    def _series_at(self, u0, order):
        """The series at a point u0 or at an array of them: the states are
        read point by point, the kappa and tau series in one array read, and
        u0 meets the column axis in the recurrence, so every step stays
        elementwise."""
        shape = np.shape(u0)
        Y = self.state(u0) if not shape else np.stack(
            [self.state(x) for x in u0.ravel().tolist()], axis=1).reshape(
                (15,) + shape + (self.n,))
        S = _frenet_series(Y, *self._kappa_tau_series(u0, order),
                           np.reshape(u0, shape + (1,)), order)
        return tuple(S[:, k:k + 3] for k in range(0, 15, 3))


class FrenetColumn:
    """Column j of a FrenetPath batch, read as a lone path; its providers
    take a point or an array of them, as the batch's series do."""

    __slots__ = ("path", "j")

    def __init__(self, path, j):
        self.path = path
        self.j = j

    def state(self, u):
        return self.path.state(u)[:, self.j]

    def frame(self, u):
        Y = self.state(u)
        return Y[0:3], Y[3:6], Y[6:9]

    def gamma(self, u):
        return self.state(u)[9:12]

    def series(self, u0, order):
        """Taylor series of (T, N, B, Gamma, int u T) at u0, each (order + 1, 3):
        slices of the batch's series, never written into."""
        return tuple(s[..., self.j] for s in self.path.series(u0, order))

    def _providers(self, which):
        """Three providers of the u-only jets of entry `which` of the series."""
        path, j = self.path, self.j

        def fn(u, v, order):
            return tuple(Jet2(order, ck, True) for ck in path.series_jets(u, order, which)[..., j])
        return components(fn)

    def xi_providers(self):
        """Unit tangent field T(u) = dGamma/du as three jet providers."""
        return self._providers(0)

    def cusp_curve_providers(self):
        """Providers of int_0^u w T(w) dw (the cusp curve of the field T)."""
        return self._providers(4)


def integrate_frenet(data: FrenetData, interval=(-1.0, 1.0)) -> FrenetColumn:
    """Curve with prescribed curvature (positive) and torsion, unit speed:
    the one column of a batch of one (see FrenetPath)."""
    return FrenetColumn(FrenetPath(data, interval), 0)


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
