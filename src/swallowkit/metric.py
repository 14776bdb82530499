"""Conformal space-form models on R^3 and their connection.

The model of curvature parameter a is R^3 (a ball for a < 0) with the
conformal metric w(p)^-2 g_E, w(p) = 1 + a|p|^2.  This normalization makes
the metric equal to g_E at the origin for every a, so frames, signs and
inner products taken at a germ with f(o) = 0 agree with the Euclidean ones
exactly; the classical factor 2/w used to present these models is exposed
as `conformal_factor`.  A point is admissible iff w(p) > 0.

Vector helpers (dot/cross/det3) are generic over the coefficient ring:
they accept floats, numpy arrays or Jet2 objects componentwise.

Along(sf, F) is the model metric along a map at one point, from the jets F
of the map there: its inner product, norm, vector product, determinant and
covariant derivative nabla.  It computes the conformal factor 1/w once per
point, and every quantity at the point reads it.  At a = 0 the model is g_E
and no factor is computed: the methods are the Euclidean operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jets import Jet2, jet_sqrt


# -- generic 3-vector algebra (entries: floats, arrays, or jets) -------------

def dot(A, B):
    return A[0] * B[0] + A[1] * B[1] + A[2] * B[2]


def cross(A, B):
    return (A[1] * B[2] - A[2] * B[1],
            A[2] * B[0] - A[0] * B[2],
            A[0] * B[1] - A[1] * B[0])


def det3(A, B, C):
    return dot(A, cross(B, C))


def vscale(s, A):
    return (s * A[0], s * A[1], s * A[2])


class DomainError(ValueError):
    """Point outside the model domain (1 + a|p|^2 <= 0)."""


@dataclass(frozen=True)
class SpaceForm:
    a: float = 0.0

    def admissible(self, p) -> bool:
        return 1.0 + self.a * float(np.dot(p, p)) > 0.0

    def check(self, p):
        if not self.admissible(p):
            raise DomainError(f"point {tuple(p)} outside the a={self.a} model domain")


def conformal_factor(sf: SpaceForm, p) -> float:
    """Classical normalization 2/(1 + a|p|^2) of the model's conformal factor."""
    sf.check(p)
    return 2.0 / (1.0 + sf.a * float(np.dot(p, p)))


# -- the model metric along a map at one point ------------------------------

class Along:
    """The model metric w^-2 g_E along a map at the point where F holds the
    jets (or values) of the map's components; the fields A, B, C, dF, X, dX
    along the map there are of F's order or below.  w and rho = 1/w are
    computed once, at F's order, and rho^2 and nabla's gradient of log rho
    when first needed.  A lower-order operand meets them truncated, with the
    bits of their computation at its order: the graded product and solve sum
    the same pairs in the same order for every degree up to it.  At a = 0 no
    factor is computed.  A point with w <= 0 raises DomainError."""

    def __init__(self, sf: SpaceForm, F):
        self.a = sf.a
        self.F = F
        self.rho = None
        if self.a != 0.0:
            self.w = 1.0 + self.a * dot(F, F)
            if np.any((self.w.c[0] if isinstance(self.w, Jet2) else self.w) <= 0.0):
                raise DomainError(f"map leaves the a={self.a} model domain")
            self.rho = 1.0 / self.w

    @cached_property
    def _rho2(self):
        return self.rho * self.rho

    @cached_property
    def _grad(self):
        return vscale((-2.0 * self.a) / self.w, self.F)

    def inner(self, A, B):
        if self.rho is None:
            return dot(A, B)
        return self._rho2 * dot(A, B)

    def norm(self, A):
        q = self.inner(A, A)
        return jet_sqrt(q) if isinstance(q, Jet2) else np.sqrt(q)

    def cross(self, A, B):
        """Vector product of g: g(A x_g B, C) = det(A, B, C) for all C."""
        if self.rho is None:
            return cross(A, B)
        return vscale(self.rho, cross(A, B))

    def det(self, A, B, C):
        if self.rho is None:
            return det3(A, B, C)
        return (self._rho2 * self.rho) * det3(A, B, C)

    def nabla(self, dF, X, dX):
        """nabla_d X along the map, from jets of d f, X and d X.

        d is either coordinate direction; the caller supplies the directional
        derivatives dF = d f and dX = d X (componentwise jets).  Uses the
        conformal Christoffel symbols Gamma^k_ij = d^k_i s_j + d^k_j s_i -
        d_ij s^k with s = log rho, so Gamma vanishes wherever f = 0; the
        Euclidean gradient of s along the map is -2a f / w."""
        if self.rho is None:
            return dX
        sg = self._grad
        sX = dot(sg, X)
        sD = dot(sg, dF)
        XD = dot(dF, X)
        return tuple(dX[k] + sD * X[k] + sX * dF[k] - XD * sg[k] for k in range(3))


def christoffels(sf: SpaceForm, p):
    """Numeric Christoffel symbols Gamma[k][i][j] of the model at p."""
    sf.check(p)
    p = np.asarray(p, dtype=float)
    w = 1.0 + sf.a * np.dot(p, p)
    sg = -2.0 * sf.a * p / w
    G = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                G[k, i, j] = ((k == i) * sg[j] + (k == j) * sg[i] - (i == j) * sg[k])
    return G
