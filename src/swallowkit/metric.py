"""Conformal space-form models on R^3 and their connection.

The model of curvature parameter a is R^3 (a ball for a < 0) with the
conformal metric w(p)^-2 g_E, w(p) = 1 + a|p|^2.  This normalization makes
the metric equal to g_E at the origin for every a, so frames, signs and
inner products taken at a germ with f(o) = 0 agree with the Euclidean ones
exactly; the classical factor 2/w used to present these models is exposed
as `conformal_factor`.  A point is admissible iff w(p) > 0.

Vector helpers (dot/cross/det3) are generic over the coefficient ring:
they accept floats, numpy arrays or Jet2 objects componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# -- jet-level metric quantities along a map ---------------------------------
#
# F below is a 3-tuple of jets of the map components at the working point;
# A, B, C are 3-tuples of jets (or numbers) representing tangent vectors /
# fields along the map at the same point.

def weight(sf: SpaceForm, F):
    """Jet of w = 1 + a (f . f); must stay positive on the model domain."""
    w = 1.0 + sf.a * dot(F, F)
    val = w.value() if isinstance(w, Jet2) else w
    if np.any(np.asarray(val) <= 0.0):
        raise DomainError(f"map leaves the a={sf.a} model domain")
    return w


def rho_bar(sf: SpaceForm, F):
    """Jet of the model conformal factor 1/w (so rho_bar(0) = 1)."""
    return 1.0 / weight(sf, F)


def inner_g(sf: SpaceForm, F, A, B):
    r = rho_bar(sf, F)
    return r * r * dot(A, B)


def norm_g(sf: SpaceForm, F, A):
    q = inner_g(sf, F, A, A)
    return jet_sqrt(q) if isinstance(q, Jet2) else np.sqrt(q)


def cross_g(sf: SpaceForm, F, A, B):
    """Vector product of g: g(A x_g B, C) = det_g(A, B, C) for all C."""
    return vscale(rho_bar(sf, F), cross(A, B))


def det_g(sf: SpaceForm, F, A, B, C):
    r = rho_bar(sf, F)
    return r * r * r * det3(A, B, C)


def _sigma_gradient(sf: SpaceForm, F):
    """Euclidean gradient of sigma = log rho_bar along the map: -2a f / w."""
    w = weight(sf, F)
    s = (-2.0 * sf.a) / w
    return vscale(s, F)


def covariant_derivative(sf: SpaceForm, F, dF, X, dX):
    """nabla_d X along the map, from jets of f, d f, X and d X.

    d is either coordinate direction; the caller supplies the directional
    derivatives dF = d f and dX = d X (componentwise jets).  Uses the
    conformal Christoffel symbols Gamma^k_ij = d^k_i s_j + d^k_j s_i -
    d_ij s^k with s = log rho_bar, so Gamma vanishes wherever f = 0.
    """
    if sf.a == 0.0:
        return dX
    sg = _sigma_gradient(sf, F)
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
