"""Jet providers: wrappers that deliver jets of derived or numeric fields.

Anything with a .jet(u, v, order) method can serve as a germ component or
a data field; expressions are the parseable case, these wrappers cover
derivatives, pullbacks, quadrature-backed primitives and ad-hoc formulas.

Provider contract: jet(u, v, order) is a pure function of (u, v, order),
and the jets it returns may be shared (with its memo and with every other
caller), so callers never write into the .c of a jet they were given; they
build a new jet instead.  Composite providers, whose jet assembles a new
jet from other providers, are JetFns, which memoise their jets per scalar
point in a BoundedCache; thin wrappers that only rescale, flip or
differentiate a base provider (Scaled, FlipU, DU) are not cached.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from .jets import Expr, Jet2
from ._jettables import index_of, monomials


CACHE_BOUND = 256
_MISS = object()


def _truncate(out, order):
    return tuple(c.truncate(order) for c in out) if isinstance(out, tuple) \
        else out.truncate(order)


class BoundedCache:
    """The one cache policy of the providers: a dict cleared, whole, once it
    holds more than CACHE_BOUND entries.

    value() memoises a plain value per key.  put_jets() stores a jet, or a
    tuple of jets, computed at some order; jets() answers that order and
    every lower one by truncation, which is exact because a Taylor
    coefficient of degree k depends only on coefficients of degree <= k.
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


def pjet(p, u, v, order):
    """Jet of a provider or expression."""
    return p.jet(u, v, order)


def vjet(vec, u, v, order):
    return tuple(pjet(c, u, v, order) for c in vec)


class JetFn:
    """Composite provider: wraps a function (u, v, order) -> Jet2 (or a
    tuple of jets) that assembles jets from other providers, and memoises
    it per scalar point (u, v); array u or v bypass the memo."""

    def __init__(self, fn):
        self._fn = fn
        self._memo = BoundedCache()

    def jet(self, u, v, order, memo=None):
        if np.ndim(u) or np.ndim(v):
            return self._fn(u, v, order)
        key = (float(u), float(v))
        out = self._memo.jets(key, order)
        if out is None:
            out = self._memo.put_jets(key, order, self._fn(u, v, order))
        return out


class DU:
    """u-derivative of a provider."""

    def __init__(self, base):
        self.base = base

    def jet(self, u, v, order, memo=None):
        return pjet(self.base, u, v, order + 1).du()


class Scaled:
    def __init__(self, base, s):
        self.base, self.s = base, s

    def jet(self, u, v, order, memo=None):
        return self.s * pjet(self.base, u, v, order)


class FlipU:
    """Provider of f(-u, v)."""

    def __init__(self, base):
        self.base = base

    def jet(self, u, v, order, memo=None):
        j = pjet(self.base, -u, v, order)
        c = j.c.copy()
        for (i, jj) in monomials(order):
            if i % 2:
                c[index_of(i, jj)] = -c[index_of(i, jj)]
        return Jet2(order, c)


class ComposeU:
    """Provider of f(phi(u), v) for a scalar provider phi of u."""

    def __init__(self, base, phi):
        self.base, self.phi = base, phi

    def jet(self, u, v, order, memo=None):
        from .jets import compose2
        ph = pjet(self.phi, u, 0.0, order)
        inner = pjet(self.base, ph.value(), v, order)
        vj = Jet2.variable("v", v, order, np.shape(u))
        return compose2(inner.c, order, ph, vj)


class CurveIntegral:
    """Primitive of u*g(u) vanishing at u = 0, jets from the integrand."""

    def __init__(self, g):
        self.g = g
        self._cache = BoundedCache()

    def _value(self, u):
        g = self.g
        return self._cache.value(float(u), lambda: quad(
            lambda t: t * pjet(g, t, 0.0, 0).value(), 0.0, float(u), limit=200)[0])

    def jet(self, u, v, order, memo=None):
        if np.ndim(u) != 0:
            vals = np.vectorize(self._value)(u)
            out = Jet2.constant(0.0, order, np.shape(u))
            out.c[0] = vals
        else:
            out = Jet2.constant(self._value(u), order, ())
        if order >= 1:
            uj = Jet2.variable("u", u, order - 1, np.shape(u))
            integ = uj * pjet(self.g, u, v, order - 1)
            for i in range(integ.order + 1):
                out.c[index_of(i + 1, 0)] = integ.c[index_of(i, 0)] / (i + 1)
        return out
