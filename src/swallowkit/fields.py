"""Jet providers: wrappers that deliver jets of derived or numeric fields.

Anything with a .jet(u, v, order) method can serve as a germ component or
a data field; expressions are the parseable case, these wrappers cover
derivatives, pullbacks, primitives of u*g(u) by a fixed Gauss-Legendre rule
and ad-hoc formulas.  The package's numeric rules live here too: every
integral is gauss_legendre; the cgc radial profile and the Frenet paths are
stepped by their own Taylor series, each module with its own recurrence, on
the steps of step_ends (the Frenet paths split a step that the last terms
of its series do not admit), and read between the nodes from the step's
polynomial (DenseOutput, by horner); the frame equations of the cgc surface
are marched by rk4_step.

The constructions every germ gamma + v xi + v^2 b is written in are shared
from here as well: cusp_frame gives the jets of the moving frame
(xi, xi', xi x xi') of a cusp direction field and xi_frame the values
(xi, xi', xi'') at a point; over_u and over_v divide a jet by u or v
through the singular axes; components splits one provider of a vector
into its component providers, so the vector is built once per point; and
xi_over_u is the one construction of xi = gamma'/u, for a curve and for a
germ's axis curve.  The rule: every vector field the package assembles
from other providers (a built germ, extracted, converted or rescaled data,
gamma-hat) is one components() vector, read through vjet.

Provider contract: jet(u, v, order) is a pure function of (u, v, order),
and the jets it returns may be shared (with its memo and with every other
caller), so callers never write into the .c of a jet they were given; they
build a new jet instead.  A provider that builds a jet of u alone from raw
coefficients, a truncated power series in u, builds it by Jet2.of_series,
which claims that it is of u alone (Jet2.u_only), as the jets of t(u),
CurveIntegral and the Frenet series and cusp curves do; any other jet
assembled from raw coefficients claims it only when every coefficient it
writes is pure-u (deform's spliced series), and one that writes
coefficients in v (cgc's prolongation) does not.  The claim lets products
and quotients skip the monomials in v.  One memo rule holds
for every provider: a scalar point is memoised in a BoundedCache, which
answers a lower order by truncation; an array point is shared, keyed by
the bytes of u and v, by the array calls of every JetFn made inside the
outermost array call of its thread, answered at a lower order by
truncation too, and dropped when that call returns (JetFn._shared).  So
no array entry outlives the call that made it, and the memory the entries
hold is bounded by that call.  The Frenet series of curves.FrenetPath,
which are not a provider, are memoised per point in a BoundedCache
whether the point is read alone or in an array.  Composite
providers, whose jet assembles a new jet from other providers, are JetFns;
thin wrappers that only rescale, flip or differentiate a base provider
(Scaled, FlipU, DU) are not cached.  A vector built by components is
computed by one call of its provider, at an array point too, when it is
read through vjet.

Array points: u and v may be arrays of one shape, and jet(u, v, order) then
returns one jet per point, along the axes of .c after the coefficient axis
and before any batch axis.  Points on an axis are spliced in (over_u,
over_v), and every point is computed on its own, so its slot holds the bits
of the scalar call; the Frenet series at an array point are one
computation for the distinct points that their memo is missing, and a
provider that keeps its state per scalar point (make_admissible's change
of coordinates) reads an array point by point (pointwise).  A domain error
of the jet arithmetic (JetError) still fails the whole call.  The per-point
failure of frontal.fundamental_forms and gaussian_curvature is NaN: a
singular point raises ClassificationError when it is the one point asked
for, and gives NaN in its slot of an array call.

Batched data: the providers of a deformation stage's data at the array of
its t (deform) give jets with one trailing batch axis, a slot per t, each
slot bit for bit the jet of the data at that t alone; at an array point the
point axes come before the slot axis, so .c is (terms, *point, t).  Batch
axes align from the left (jets): a jet or weight without them, such as an
endpoint field or a float, meets a batched one as if copied into every
slot, and Scaled and the weights of deform's combinations may be arrays
over the slots, placed behind the point axes (slot_weight).  A domain error
of the jet arithmetic (JetError: over_v, jet_sqrt, a division by a zero
constant term) fails the whole call, in a provider and in a batch alike, so
no memo keeps a jet with failed slots.  The germ checks still decide per
slot: whatever a batch raises in frontal.classify (a JetError, a
model-domain error of the metric, a ClassificationError), its slots go
again one by one, each gets the verdict it gets alone, and the first slot
that raises alone decides the error.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .jets import CACHE_BOUND, Jet2
from ._jettables import index_of, monomials
from .metric import cross


_MISS = object()

# Gauss-Legendre nodes and weights on [-1, 1]: every integral of the package
# is this rule applied panel by panel.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def gauss_legendre(f, a, b):
    """8-point Gauss-Legendre rule for int_a^b f, elementwise over arrays a, b.

    f takes the array of nodes, of shape (8,) + shape(a), and returns its
    values at them; the weights are summed in a fixed order, so each entry
    depends only on its own a, b."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    s = mid + half * _GL_X.reshape((-1,) + (1,) * np.ndim(a))
    fs = f(s)
    acc = _GL_W[0] * fs[0]
    for k in range(1, len(_GL_W)):
        acc = acc + _GL_W[k] * fs[k]
    return half * acc


def rk4_step(f, x, y, h):
    """One classical Runge-Kutta step of y' = f(x, y) from x to x + h.

    y may be an array of any shape.  The step's own arithmetic is
    elementwise, so when f acts on a batch of states column by column, the
    batch steps bit for bit as its columns would one by one."""
    k1 = f(x, y)
    k2 = f(x + h / 2, y + h / 2 * k1)
    k3 = f(x + h / 2, y + h / 2 * k2)
    k4 = f(x + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_abscissae(steps):
    """The distinct abscissae that rk4_step reads over the steps (x, h), in
    the order it first reads them: x, x + h/2 and x + h, by its own float
    expressions, so a table keyed by them answers every one of its reads.
    x and h are 1-D arrays of one shape, one slot per march of a batch, and
    each abscissa is the tuple of its slots."""
    return list(dict.fromkeys(tuple(a.tolist()) for x, h in steps for a in (x, x + h / 2, x + h)))


def step_count(x0, end, h):
    """Number of steps of length |h| from x0 toward end (see step_ends)."""
    return max(0, math.ceil((end - x0) / h - 1e-9))


def step_ends(x0, end, h):
    """Ends of the steps of length |h| from x0 toward end, h signed by the
    direction, the last one shorter and ending at end exactly; none when
    end is not beyond x0 in that direction.  The slack keeps a span of a
    whole number of steps, up to rounding, from ending in a sliver step."""
    n = step_count(x0, end, h)
    out = x0 + np.arange(1, n + 1) * h
    out[n - 1:] = end
    return out


def horner(c, t):
    """(p(t), p'(t)) of p(t) = sum_k c[..., k] t^k by Horner, one coefficient
    row per slot of t."""
    p, dp = c[..., -1], 0.0
    for k in range(c.shape[-1] - 2, -1, -1):
        dp = dp * t + p
        p = p * t + c[..., k]
    return p, dp


@dataclass
class DenseOutput:
    """Dense output of Taylor steps (Hairer, Norsett & Wanner, Solving ODEs I,
    II.6): between edges[k] and edges[k + 1] the solution is the polynomial
    of coefficient rows coeffs[k] (the coefficient along the last axis) in
    x - starts[k], where the step's start starts[k] is its edge nearer the
    initial point.  A step's end value, which starts the next step, is its
    polynomial there by horner, so the output is continuous bit for bit at
    every node.  A point on an edge is read from the step below it, and one
    outside the steps from the end step nearer to it."""
    edges: np.ndarray    # (steps + 1,), ascending
    starts: np.ndarray   # (steps,)
    coeffs: np.ndarray   # (steps, ..., order + 1)

    @classmethod
    def of_marches(cls, marches):
        """From the (start, end, coefficient rows) of the steps of two
        marches out of one initial point, the one toward lower x first."""
        steps = marches[0][::-1] + marches[1]
        return cls(edges=np.array([min(a, b) for a, b, _ in steps] + [max(steps[-1][:2])]),
                   starts=np.array([s[0] for s in steps]),
                   coeffs=np.array([s[2] for s in steps]))

    def at(self, x):
        """(value, derivative) at x: one point, or an array of them when the
        coefficient rows have one axis."""
        x = np.asarray(x, dtype=float)
        k = np.clip(np.searchsorted(self.edges, x) - 1, 0, len(self.starts) - 1)
        return horner(self.coeffs[k], x - self.starts[k])


def over_u(gp, u):
    """Jet of g(u)/u at u, one order below the u-only jet gp of g at u, for
    g vanishing at u = 0.  u may be an array: its points u = 0 go through
    divide_by_u and are spliced in."""
    if np.ndim(u) == 0 and u == 0.0:
        return gp.divide_by_u()
    at0 = np.asarray(u) == 0.0
    uj = Jet2.variable("u", np.where(at0, 1.0, u), gp.order, np.shape(u))
    out = (gp / uj).truncate(gp.order - 1)
    if at0.any():
        out.c[:, at0] = Jet2(gp.order, gp.c[:, at0]).divide_by_u().c
    return out


def over_v(g, v, tol=1e-9):
    """Jet of g/v at (u, v), one order below g, for g vanishing on the u-axis
    v = 0: there through divide_by_v(tol), elsewhere by dividing by the
    v-jet.  v may be an array: its points v = 0 are spliced in."""
    if np.ndim(v) == 0 and v == 0.0:
        return g.divide_by_v(tol)
    shape = g.c.shape[1:]
    at0 = np.broadcast_to(np.asarray(v) == 0.0, shape)
    vj = Jet2.variable("v", np.where(at0, 1.0, v), g.order, shape)
    out = (g / vj).truncate(g.order - 1)
    if at0.any():
        out.c[:, at0] = Jet2(g.order, g.c[:, at0]).divide_by_v(tol).c
    return out


def _truncate(out, order):
    """A jet, a series array (coefficients along its first axis) or a tuple
    of them, cut to the given order."""
    if isinstance(out, tuple):
        return tuple(_truncate(c, order) for c in out)
    return out[: order + 1] if isinstance(out, np.ndarray) else out.truncate(order)


class BoundedCache:
    """The one cache policy of the providers: a dict cleared, whole, once it
    holds more than CACHE_BOUND entries (jets._FLAT_BINS keeps the same
    rule).

    value() memoises a plain value per key.  put_jets() stores a jet, a
    series array or a tuple of them, computed at some order; jets() answers
    that order and every lower one by truncation.  That is exact: a Taylor
    coefficient of degree k depends only on coefficients of degree <= k, and
    the providers compute it by the same steps whatever the order asked
    (the series reversion included), so a truncated entry holds the bits of
    a direct call at the lower order; tests/test_deform.py checks this along
    the half-arclength chain and the Frenet series, tests/test_builder.py
    for the extraction providers.
    A racing thread at worst recomputes an entry.
    """

    __slots__ = ("_d",)

    def __init__(self):
        self._d = {}

    def __len__(self):
        return len(self._d)

    def _put(self, key, item):
        if len(self._d) > CACHE_BOUND:
            self._d.clear()
        self._d[key] = item

    def value(self, key, compute):
        out = self._d.get(key, _MISS)
        if out is _MISS:
            out = compute()
            self._put(key, out)
        return out

    def jets(self, key, order):
        """The jets at key truncated to order, or None if not computed to it."""
        hit = self._d.get(key)
        if hit is not None and hit[0] >= order:
            return _truncate(hit[1], order)
        return None

    def put_jets(self, key, order, jets):
        self._put(key, (order, jets))
        return jets


def pointwise(fn, u, v, order):
    """fn(u, v, order), a tuple of jets, at an array point from one scalar
    call per point: each point's jets fill its slot, along the axes of the
    point after the coefficient axis."""
    ub, vb = np.broadcast_arrays(u, v)
    outs = [fn(a, b, order) for a, b in zip(ub.ravel().tolist(), vb.ravel().tolist())]
    return tuple(Jet2(js[0].order, np.stack([j.c for j in js], axis=1).reshape(
        js[0].c.shape[:1] + ub.shape + js[0].c.shape[1:])) for js in zip(*outs))


def vjet(vec, u, v, order):
    """Jets at (u, v) of the providers of a vector: when they are entries of
    one components() vector, from one call of their shared provider."""
    whole = getattr(vec[0], "whole", None)
    if whole is not None and all(getattr(c, "whole", None) is whole for c in vec):
        out = whole.jet(u, v, order)
        return tuple(out[c.k] for c in vec)
    return tuple(c.jet(u, v, order) for c in vec)


def xi_frame(xi, u, order):
    """Values (xi, xi', xi'') at u of a direction field, read from its jets of
    the given order; order 1 gives (xi, xi') only.  The order is the caller's,
    because a memoised provider answers a lower order by truncating the jet it
    computed at a higher one."""
    xj = vjet(xi, u, 0.0, order)
    return tuple(np.array([c.partial(i, 0) for c in xj]) for i in range(min(order, 2) + 1))


def cusp_frame(xi, u, order):
    """Jets at (u, 0) of the cusp frame (xi, xi', xi x xi') of a direction
    field xi, all of the given order."""
    xj = vjet(xi, u, 0.0, order + 1)
    dx = tuple(c.du() for c in xj)
    xj = tuple(c.truncate(order) for c in xj)
    return xj, dx, cross(xj, dx)


class _Scope(threading.local):
    """The entries shared by the array calls nested in the outermost one in
    progress in this thread: (provider, shape, bytes of u, bytes of v) ->
    (order, jets), or None outside such a call."""
    entries = None


_SCOPE = _Scope()


class JetFn:
    """Composite provider: wraps a function (u, v, order) -> Jet2 (or a
    tuple of jets) that assembles jets from other providers.  It memoises
    it per scalar point (u, v) in a BoundedCache; an array point is shared
    with the other array calls of every JetFn made inside the outermost
    array call, and dropped when that call returns."""

    def __init__(self, fn):
        self._fn = fn
        self._memo = BoundedCache()

    def _shared(self, u, v, order):
        """The jets at an array point.  The outermost array call opens the
        scope and drops it when it returns; its own entry could serve no
        later call, so it keeps none.  A nested call is answered from the
        scope, keyed by u and v broadcast to one shape, so a scalar v and an
        array of its value share one entry, and a lower order by
        truncation."""
        scope = _SCOPE.entries
        if scope is None:
            _SCOPE.entries = {}
            try:
                return self._fn(u, v, order)
            finally:
                _SCOPE.entries = None
        ub, vb = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        key = (self, ub.shape, ub.tobytes(), vb.tobytes())
        hit = scope.get(key)
        if hit is None or hit[0] < order:
            hit = scope[key] = (order, self._fn(u, v, order))
        return _truncate(hit[1], order)

    def jet(self, u, v, order):
        if np.ndim(u) or np.ndim(v):
            return self._shared(u, v, order)
        key = (float(u), float(v))
        out = self._memo.jets(key, order)
        if out is None:
            out = self._memo.put_jets(key, order, self._fn(u, v, order))
        return out


class _Component:
    """Entry k of the vector a JetFn returns."""

    __slots__ = ("whole", "k")

    def __init__(self, whole, k):
        self.whole, self.k = whole, k

    def jet(self, u, v, order):
        return self.whole.jet(u, v, order)[self.k]


def components(fn, n=3):
    """The n component providers of one JetFn fn(u, v, order) -> tuple of n
    jets: the vector is assembled and memoised once per scalar point, each
    component reads its entry, and vjet reads them all from one call."""
    whole = JetFn(fn)
    return tuple(_Component(whole, k) for k in range(n))


def xi_over_u(gamma_jets):
    """The components() vector of xi = gamma'/u, the direction field of a
    curve gamma(u) with gamma'(0) = 0.  gamma_jets(u, v, order) gives the
    jets of gamma's three components; they are read at (u, 0), two orders
    above xi, and only their pure-u part is used, so the jets of a germ f
    serve for its axis curve f(u, 0)."""
    def fn(u, v, order):
        return tuple(over_u(c.axis_part().du(), u) for c in gamma_jets(u, 0.0, order + 2))
    return components(fn)


class DU:
    """u-derivative of a provider."""

    def __init__(self, base):
        self.base = base

    def jet(self, u, v, order):
        return self.base.jet(u, v, order + 1).du()


def slot_weight(w, u, v=0.0):
    """A weight over the slots of a batch (a float, or an array with an axis
    per batch axis), reshaped to multiply the jets at the point (u, v): its
    axes go behind the axes of the point, where the batch axes of those jets
    begin."""
    if np.ndim(w) == 0:
        return w
    return np.reshape(w, (1,) * np.broadcast(u, v).ndim + np.shape(w))


class Scaled:
    """Provider of s times a base provider; s is a float or a weight over
    the slots of a batch (slot_weight)."""

    def __init__(self, base, s):
        self.base, self.s = base, s

    def jet(self, u, v, order):
        return slot_weight(self.s, u, v) * self.base.jet(u, v, order)


class FlipU:
    """Provider of f(-u, v)."""

    def __init__(self, base):
        self.base = base

    def jet(self, u, v, order):
        j = self.base.jet(-u, v, order)
        c = j.c.copy()
        for (i, jj) in monomials(order):
            if i % 2:
                c[index_of(i, jj)] = -c[index_of(i, jj)]
        return Jet2(order, c)


class CurveIntegral:
    """Primitive of u*g(u) vanishing at u = 0, jets from the integrand.

    The value at u is the 8-point Gauss-Legendre rule on panels of width
    PANEL laid from 0 toward u, the last one ending at u, with the integrand
    at all the nodes from one array jet call.  An array u is integrated in
    the same call, its shorter runs of panels padded with empty ones at u,
    so each entry equals the scalar result; scalar values are memoised."""

    PANEL = 0.125

    def __init__(self, g):
        self.g = g
        self._cache = BoundedCache()

    def _integrand(self, s):
        return s * self.g.jet(s.ravel(), 0.0, 0).value().reshape(s.shape)

    def _integrate(self, u):
        """int_0^u t g(t) dt for a 1-D array u."""
        out = np.zeros_like(u)
        on = u != 0.0
        if on.any():
            r, side = np.abs(u[on]), np.sign(u[on])
            j = np.arange(int(np.ceil(r / self.PANEL).max())).reshape(-1, 1)
            panels = gauss_legendre(self._integrand, side * np.minimum(j * self.PANEL, r),
                                    side * np.minimum((j + 1) * self.PANEL, r))
            acc = panels[0]
            for p in panels[1:]:
                acc = acc + p
            out[on] = acc
        return out

    def _value(self, u):
        if np.ndim(u) != 0:
            return self._integrate(np.asarray(u, dtype=float).ravel()).reshape(np.shape(u))
        u = float(u)
        return self._cache.value(u, lambda: float(self._integrate(np.array([u]))[0]))

    def jet(self, u, v, order):
        value = self._value(u)
        if order == 0:
            return Jet2.constant(value, 0, np.shape(u))
        uj = Jet2.variable("u", u, order - 1, np.shape(u))
        return (uj * self.g.jet(u, v, order - 1)).primitive(value)
