"""Classification of frontal map germs and their sign/curvature invariants.

A MapGerm is a map (u, v) -> R^3(a) given by three jet providers.  All
invariants are computed from one jet evaluation per point: the normal
field is recovered as nu~ = (f_v x_g f_u)/v (jet division through the
singular axis), then the non-degeneracy, kind, wave-front rank test and
the sign invariants are read off.

Orientation convention: nu is oriented so that the frame
{nabla_v f_u(o), f_v(o), nu(o)} is negatively oriented at a singular
point of the second kind.  This fixes every reported sign; the report
carries the orientation tag so the +- ambiguity of a unit normal stays
explicit.  Points where a sign magnitude falls inside the tolerance band
are reported as 0 with the raw value attached, never guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metric as mt
from .jets import Expr, Jet2, JetError, compose2, parse
from .metric import SpaceForm, cross, det3, dot, vadd, vscale, vsub

SIGN_TOL = 1e-9
ORDER = 6


def sgn(x, scale=1.0, tol=None):
    """Sign with a tolerance band: |x| <= tol*(1+scale) counts as zero.

    tol defaults to SIGN_TOL as it is when called (the CLI's --tol-sign)."""
    if tol is None:
        tol = SIGN_TOL
    if abs(x) <= tol * (1.0 + abs(scale)):
        return 0
    return 1 if x > 0 else -1


class ClassificationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Germs
# ---------------------------------------------------------------------------

class MapGerm:
    """Map germ (u,v) -> R^3(a) with jets available to any order."""

    def __init__(self, components, sf=SpaceForm(0.0), p0=(0.0, 0.0), exprs=None, data=None):
        self._components = tuple(components)
        self.sf = sf
        self.p0 = (float(p0[0]), float(p0[1]))
        self.exprs = exprs
        self.data = data
        self._cache = {}

    @staticmethod
    def from_exprs(exprs, sf=SpaceForm(0.0), p0=(0.0, 0.0), data=None):
        comps = tuple(parse(e) if isinstance(e, str) else e for e in exprs)
        return MapGerm(comps, sf=sf, p0=p0, exprs=comps, data=data)

    def fjet(self, u, v, order=ORDER):
        if np.ndim(u) == 0:
            key = (float(u), float(v))
            hit = self._cache.get(key)
            if hit is not None and hit[0].order >= order:
                return tuple(c.truncate(order) for c in hit)
            memo = {}
            out = tuple(c.jet(u, v, order, memo) if isinstance(c, Expr) else c.jet(u, v, order)
                        for c in self._components)
            if len(self._cache) > 256:
                self._cache.clear()
            self._cache[key] = out
            return out
        memo = {}
        return tuple(c.jet(u, v, order, memo) if isinstance(c, Expr) else c.jet(u, v, order)
                     for c in self._components)

    def value(self, u, v):
        return np.array([j.value() for j in self.fjet(u, v, order=0)])

    def reparam(self, change, p0=(0.0, 0.0)):
        """Germ composed with a coordinate change (jets of (U, V) at a point)."""
        return _ReparamGerm(self, change, p0)


class _ReparamGerm(MapGerm):
    def __init__(self, base, change, p0):
        super().__init__(base._components, sf=base.sf, p0=p0, data=base.data)
        self._base = base
        self._change = change

    def fjet(self, u, v, order=ORDER):
        Uj, Vj = self._change(u, v, order + 1)
        F = self._base.fjet(Uj.value(), Vj.value(), order + 1)
        return tuple(compose2(fj.c, order + 1, Uj, Vj).truncate(order) for fj in F)


def germ_jets(germ: MapGerm, u, v, order=ORDER):
    return germ.fjet(u, v, order)


# ---------------------------------------------------------------------------
# Normal field and lambda
# ---------------------------------------------------------------------------

def normal_jets(germ: MapGerm, u, v, order=ORDER):
    """Jet of the unnormalized normal nu~ = (f_v x_g f_u)/v at (u, v).

    On the singular axis v = 0 the division is the coefficient shift of a
    jet vanishing on the axis; if that fails the parametrization is not
    admissible at this point.
    """
    F = germ.fjet(u, v, order + 2)
    Fu = tuple(c.du() for c in F)
    Fv = tuple(c.dv() for c in F)
    n = mt.cross_g(germ.sf, tuple(c.truncate(order + 1) for c in F), Fv, Fu)
    if v == 0.0 and np.ndim(u) == 0:
        return tuple(c.divide_by_v() for c in n)
    vj = Jet2.variable("v", v, order + 1, np.shape(u))
    return tuple(c / vj for c in n)


def lambda_jet(germ: MapGerm, u, v, order=ORDER):
    """Jet of the degeneracy function lambda.

    For germs whose singular set is the u-axis this is det_g taken with
    the forward-oriented field (f_u x_g f_v)/v, which makes
    lambda = v |nu~|_g^2 and lambda_v(o) = |xi(0) x xi'(0)|^2 > 0;
    away from that structure (immersions, general germs) the unit normal
    is used instead, so an immersion has |lambda| = |f_u x f_v|_g.
    """
    mode = getattr(germ, "_lambda_mode", None)
    if mode is None:
        mode = "axis" if _axis_is_singular(germ) else "unit"
        germ._lambda_mode = mode
    F = germ.fjet(u, v, order + 3)
    Fu = tuple(c.du() for c in F)
    Fv = tuple(c.dv() for c in F)
    Ftr = tuple(c.truncate(order + 2) for c in F)
    n = mt.cross_g(germ.sf, Ftr, Fu, Fv)
    if mode == "unit":
        from .jets import jet_sqrt
        nn = jet_sqrt(mt.inner_g(germ.sf, Ftr, n, n))
        nt = tuple((c / nn).truncate(order + 1) for c in n)
    elif v == 0.0 and np.ndim(u) == 0:
        nt = tuple(c.divide_by_v() for c in n)
    else:
        vj = Jet2.variable("v", v, order + 2, np.shape(u))
        nt = tuple(c / vj for c in n)
    return mt.det_g(germ.sf, tuple(c.truncate(order + 1) for c in Ftr),
                    tuple(c.truncate(order + 1) for c in Fu),
                    tuple(c.truncate(order + 1) for c in Fv),
                    nt).truncate(order)


def unit_normal_jets(germ: MapGerm, u, v, order=ORDER):
    """Jet of the oriented unit normal nu = nu~/|nu~|_g."""
    nt = normal_jets(germ, u, v, order)
    F = germ.fjet(u, v, order)
    nn = mt.norm_g(germ.sf, F, nt)
    if np.any(np.asarray(nn.value()) == 0.0):
        raise ClassificationError("normal field vanishes: map is not a frontal here")
    return tuple(c / nn for c in nt)


def _covariant(germ_sf, F, dirF, X, dirX):
    return mt.covariant_derivative(germ_sf, F, dirF, X, dirX)


# ---------------------------------------------------------------------------
# Null field along the axis
# ---------------------------------------------------------------------------

def null_kernel(germ: MapGerm, u, order=1):
    """Kernel direction (alpha, eps) of df at the axis point (u, 0)."""
    F = germ.fjet(u, 0.0, order + 1)
    fu = np.array([c.du().value() for c in F])
    fv = np.array([c.dv().value() for c in F])
    J = np.stack([fu, fv], axis=1)
    _, s, vt = np.linalg.svd(J)
    if s[0] == 0.0:
        raise ClassificationError("rank-0 differential: corank > 1")
    k = vt[-1]
    return k / np.linalg.norm(k), s


def point_kind(germ: MapGerm, u, tol=1e-7):
    """'regular' | 'first' | 'second' at the axis point (u, 0)."""
    k, s = null_kernel(germ, u)
    if s[-1] > tol * (1.0 + s[0]):
        return "regular"
    return "first" if abs(k[1]) > tol else "second"


def _eps_field_jets(germ: MapGerm, u, order):
    """Jets at (u,0) of a null field zeta = alpha(u) d_u + eps(u) d_v.

    Built from the kernel of the first fundamental form along the axis:
    (F, -E) with E = <f_u, f_u>, F = <f_u, f_v>; smooth in u away from
    second-kind points, oriented so eps < 0 at the working point.
    """
    F = germ.fjet(u, 0.0, order + 1)
    fu = tuple(c.du() for c in F)
    fv = tuple(c.dv() for c in F)
    E = dot(fu, fu)
    Fg = dot(fu, fv)
    norm = (Fg * Fg + E * E)
    from .jets import jet_sqrt
    nrm = jet_sqrt(norm)
    alpha = Fg / nrm
    eps = -E / nrm
    if eps.value() > 0:
        alpha, eps = -alpha, -eps
    return alpha, eps, fu, fv, F


# ---------------------------------------------------------------------------
# Sign invariants at a second-kind origin (germ in admissible form)
# ---------------------------------------------------------------------------

@dataclass
class SingularityReport:
    at: tuple
    a: float
    is_frontal: bool = False
    is_nondegenerate: bool = False
    kind: str = "regular"                 # regular | first | second
    is_wavefront: bool = False
    is_swallowtail: bool = False
    is_generalized_swallowtail: bool = False
    is_cuspidal_edge: bool = False
    sigma0_S: int = 0
    sigma_g_S: int = 0
    kappa_nu: float = float("nan")
    mu_C: float = float("nan")
    null_vector: tuple = (0.0, 0.0)
    lambda_v: float = float("nan")
    raw: dict = field(default_factory=dict)
    orientation: str = "negative-frame"   # det_g(f_uv, f_v, nu)(o) < 0
    notes: list = field(default_factory=list)

    def to_dict(self):
        d = {
            "at": list(self.at),
            "a": self.a,
            "is_frontal": self.is_frontal,
            "is_nondegenerate": self.is_nondegenerate,
            "kind": self.kind,
            "is_wavefront": self.is_wavefront,
            "is_swallowtail": self.is_swallowtail,
            "is_generalized_swallowtail": self.is_generalized_swallowtail,
            "is_cuspidal_edge": self.is_cuspidal_edge,
            "sigma0_S": self.sigma0_S,
            "sigma_g_S": self.sigma_g_S,
            "kappa_nu": self.kappa_nu,
            "mu_C": self.mu_C,
            "null_vector": list(self.null_vector),
            "lambda_v": self.lambda_v,
            "orientation": self.orientation,
            "raw": dict(self.raw),
            "notes": list(self.notes),
        }
        return d


def _second_kind_data(germ: MapGerm, order=ORDER):
    """Shared jets for the invariants at a second-kind origin."""
    sf = germ.sf
    F = germ.fjet(0.0, 0.0, order + 2)
    Ftr = tuple(c.truncate(order) for c in F)
    fu = tuple(c.du().truncate(order) for c in F)
    fv = tuple(c.dv().truncate(order) for c in F)
    fuv = tuple(c.du().dv().truncate(order - 1) for c in F)
    nt = normal_jets(germ, 0.0, 0.0, order)
    nn = mt.norm_g(sf, Ftr, nt)
    nu = tuple(c / nn for c in nt)
    # covariant derivatives at the origin of the germ
    nu_u = _covariant(sf, Ftr, fu, nu, tuple(c.du() for c in nu))
    nu_v = _covariant(sf, Ftr, fv, nu, tuple(c.dv() for c in nu))
    fvv = _covariant(sf, Ftr, fv, fv, tuple(c.dv() for c in fv))
    fuv_cov = _covariant(sf, Ftr, fu, fv, tuple(c.du() for c in fv))
    return {
        "F": Ftr, "fu": fu, "fv": fv, "fuv": fuv_cov, "fuv_plain": fuv,
        "nu": nu, "nu_u": nu_u, "nu_v": nu_v, "fvv": fvv, "ntilde": nt,
    }


def _vals(vec):
    return np.array([c.value() if isinstance(c, Jet2) else c for c in vec])


def sigma0_S(germ: MapGerm, shared=None):
    """Sign invariant whose non-vanishing detects a swallowtail (o 2nd kind)."""
    d = shared or _second_kind_data(germ)
    ip = mt.inner_g(germ.sf, d["F"], d["fuv"], d["nu_u"])
    val = ip.value()
    scale = float(np.linalg.norm(_vals(d["fuv"])) * np.linalg.norm(_vals(d["nu_u"])))
    return -sgn(val, scale), -val


def sigma_g_S(germ: MapGerm, shared=None):
    """Sign of the limiting-normal-curvature numerator (genericity)."""
    d = shared or _second_kind_data(germ)
    ip = mt.inner_g(germ.sf, d["F"], d["fvv"], d["nu"])
    val = ip.value()
    scale = float(np.linalg.norm(_vals(d["fvv"])))
    return sgn(val, scale), val


def limiting_normal_curvature(germ: MapGerm, shared=None):
    d = shared or _second_kind_data(germ)
    num = mt.inner_g(germ.sf, d["F"], d["fvv"], d["nu"]).value()
    den = mt.inner_g(germ.sf, d["F"], d["fv"], d["fv"]).value()
    if den == 0.0:
        raise ClassificationError("f_v vanishes at the origin")
    return num / den


def normalized_cuspidal_curvature(germ: MapGerm, shared=None):
    """mu_C; its sign equals sigma0_S."""
    d = shared or _second_kind_data(germ)
    sf = germ.sf
    fv_norm = mt.norm_g(sf, d["F"], d["fv"]).value()
    num = mt.inner_g(sf, d["F"], d["fuv"], d["nu_u"]).value()
    cr = mt.cross_g(sf, d["F"], d["fuv"], d["fv"])
    den = mt.norm_g(sf, d["F"], cr).value()
    if den == 0.0:
        raise ClassificationError("degenerate: nabla_v f_u(o) x f_v(o) = 0")
    return -(fv_norm ** 3) * num / den


def classify(germ: MapGerm, at=(0.0, 0.0), order=ORDER, neighborhood=0.05) -> SingularityReport:
    """Full singularity report at a point (admissible or general position)."""
    at = (float(at[0]), float(at[1]))
    rep = SingularityReport(at=at, a=germ.sf.a)

    F = germ.fjet(at[0], at[1], 3)
    fu = _vals(tuple(c.du() for c in F))
    fv = _vals(tuple(c.dv() for c in F))
    n = np.cross(fu, fv)
    scale = np.linalg.norm(fu) * np.linalg.norm(fv)
    if np.linalg.norm(n) > 1e-8 * (1.0 + scale):
        rep.kind = "regular"
        rep.is_frontal = True
        rep.is_nondegenerate = True
        return rep

    work = germ
    if at != (0.0, 0.0) or not _axis_is_singular(germ):
        work = make_admissible(germ, at, order=order)

    try:
        nt = normal_jets(work, 0.0, 0.0, order)
    except JetError as exc:
        rep.notes.append(f"not admissible / not frontal: {exc}")
        return rep
    nt0 = _vals(nt)
    ntscale = max(np.linalg.norm(_vals(tuple(c.du() for c in work.fjet(0, 0, 3)))), 1.0)
    rep.is_frontal = np.linalg.norm(nt0) > 1e-9 * ntscale
    if not rep.is_frontal:
        rep.notes.append("unnormalized normal vanishes at the point")
        return rep

    lam = lambda_jet(work, 0.0, 0.0, 2)
    rep.lambda_v = lam.partial(0, 1)
    dlam = math.hypot(lam.partial(1, 0), lam.partial(0, 1))
    rep.is_nondegenerate = dlam > 1e-9 * (1.0 + abs(lam.partial(0, 2)))
    if not rep.is_nondegenerate:
        rep.notes.append("degenerate singular point (d lambda = 0); invariants suppressed")
        return rep

    k, _ = null_kernel(work, 0.0)
    rep.null_vector = (float(k[0]), float(k[1]))
    rep.kind = "first" if abs(k[1]) > 1e-6 else "second"

    if rep.kind == "first":
        s0c, raw = sigma0_C(work, 0.0)
        rep.is_cuspidal_edge = s0c != 0
        rep.is_wavefront = rep.is_cuspidal_edge
        rep.raw["sigma0_C"] = raw
        return rep

    # second kind: generalized swallowtail status from nearby axis points
    nearby = []
    for uu in (-neighborhood, -neighborhood / 4, neighborhood / 4, neighborhood):
        nearby.append(point_kind(work, uu))
    rep.is_generalized_swallowtail = all(km in ("first", "regular") for km in nearby)

    shared = _second_kind_data(work, order=min(order, 4))
    s0, raw0 = sigma0_S(work, shared)
    sg, rawg = sigma_g_S(work, shared)
    rep.sigma0_S = s0
    rep.sigma_g_S = sg
    rep.raw["sigma0_S"] = raw0
    rep.raw["sigma_g_S"] = rawg
    rep.kappa_nu = limiting_normal_curvature(work, shared)
    try:
        rep.mu_C = normalized_cuspidal_curvature(work, shared)
    except ClassificationError as exc:
        rep.notes.append(str(exc))

    # wave front: (f, nu) immersive, i.e. the stacked 6x2 differential has rank 2
    M = np.zeros((6, 2))
    M[:3, 0] = _vals(shared["fu"])
    M[:3, 1] = _vals(shared["fv"])
    M[3:, 0] = _vals(shared["nu_u"])
    M[3:, 1] = _vals(shared["nu_v"])
    sv = np.linalg.svd(M, compute_uv=False)
    rep.is_wavefront = sv[1] > 1e-8 * (1.0 + sv[0])
    rep.is_swallowtail = bool(rep.is_wavefront and rep.is_generalized_swallowtail)
    return rep


def _axis_is_singular(germ: MapGerm, samples=(-0.08, -0.03, 0.0, 0.03, 0.08)) -> bool:
    for uu in samples:
        F = germ.fjet(uu, 0.0, 1)
        fu = _vals(tuple(c.du() for c in F))
        fv = _vals(tuple(c.dv() for c in F))
        if np.linalg.norm(np.cross(fu, fv)) > 1e-8 * (1.0 + np.linalg.norm(fu) * np.linalg.norm(fv)):
            return False
    return True


# ---------------------------------------------------------------------------
# Invariants along the axis (first-kind points)
# ---------------------------------------------------------------------------

def sigma0_C(germ: MapGerm, u, order=ORDER):
    """Cuspidal-curvature sign at the first-kind point (u, 0).

    Uses the null field zeta oriented with negative v-component, which makes
    the limit at a second-kind center agree with sigma0_S.
    """
    sf = germ.sf
    alpha, eps, fu, fv, F = _eps_field_jets(germ, u, order)
    if abs(eps.value()) < 1e-12 and abs(alpha.value()) > 1e-6:
        raise ClassificationError(f"(u,0)=({u},0) is not of the first kind")
    Ftr = tuple(c.truncate(order - 1) for c in F)

    def cov_zeta(X):
        Xu = tuple(c.du() for c in X)
        Xv = tuple(c.dv() for c in X)
        o = min(Xu[0].order, alpha.order)
        zX = tuple(alpha.truncate(o) * Xu[k].truncate(o) + eps.truncate(o) * Xv[k].truncate(o)
                   for k in range(3))
        dfz = tuple(alpha.truncate(o) * fu[k].truncate(o) + eps.truncate(o) * fv[k].truncate(o)
                    for k in range(3))
        return _covariant(sf, tuple(c.truncate(o) for c in F), dfz, tuple(c.truncate(o) for c in X), zX)

    fz = tuple(alpha * fu[k] + eps * fv[k] for k in range(3))
    fzz = cov_zeta(fz)
    fzzz = cov_zeta(fzz)
    det = mt.det_g(sf, Ftr, fu, fzz, fzzz).value()
    scale = (np.linalg.norm(_vals(fu)) * np.linalg.norm(_vals(fzz)) * np.linalg.norm(_vals(fzzz)))
    return sgn(det, scale), det


def sigma_g_C(germ: MapGerm, u, order=4):
    """Limiting-normal-curvature sign at the first-kind point (u, 0)."""
    sf = germ.sf
    F = germ.fjet(u, 0.0, order + 2)
    Ftr = tuple(c.truncate(order) for c in F)
    fu = tuple(c.du().truncate(order) for c in F)
    fv = tuple(c.dv().truncate(order) for c in F)
    fvv = _covariant(sf, Ftr, fv, fv, tuple(c.dv() for c in fv))
    fuu = _covariant(sf, Ftr, fu, fu, tuple(c.du() for c in fu))
    det = mt.det_g(sf, Ftr, fu, fuu, fvv).value()
    scale = (np.linalg.norm(_vals(fu)) * np.linalg.norm(_vals(fuu)) * np.linalg.norm(_vals(fvv)))
    return sgn(det, scale), det


def epsilon_identity_residual(germ: MapGerm, u, order=ORDER):
    """Residual of <f_uu, nu~> = eps^2 <f_vv, nu~> at the singular point (u,0)."""
    k, s = null_kernel(germ, u)
    if s[-1] > 1e-7 * (1.0 + s[0]):
        raise ClassificationError(f"({u}, 0) is a regular point")
    if abs(k[0]) < 1e-9:
        raise ClassificationError("null field has no d_u component; eps not resolvable")
    eps = k[1] / k[0]
    sf = germ.sf
    F = germ.fjet(u, 0.0, order + 2)
    Ftr = tuple(c.truncate(order) for c in F)
    fu = tuple(c.du().truncate(order) for c in F)
    fv = tuple(c.dv().truncate(order) for c in F)
    fuu = _covariant(sf, Ftr, fu, fu, tuple(c.du() for c in fu))
    fvv = _covariant(sf, Ftr, fv, fv, tuple(c.dv() for c in fv))
    nt = normal_jets(germ, u, 0.0, order - 1)
    lhs = mt.inner_g(sf, tuple(c.truncate(order - 1) for c in Ftr),
                     tuple(c.truncate(order - 1) for c in fuu), nt).value()
    rhs = eps * eps * mt.inner_g(sf, tuple(c.truncate(order - 1) for c in Ftr),
                                 tuple(c.truncate(order - 1) for c in fvv), nt).value()
    return abs(lhs - rhs) / (1.0 + abs(lhs)), eps


def limit_normal_at_second_kind(germ: MapGerm, order=ORDER, probes=(0.01, -0.01)):
    """Limit direction of the unit normal along the axis at a 2nd-kind origin.

    Returns (direction, worst_angle): the direction f_v(o) x_g f_uv(o) up to
    positive scale, and the largest angle to the normalized nu~ at the probe
    points, which must be small for a consistent frontal.
    """
    d = _second_kind_data(germ, order=order)
    direction = _vals(mt.cross_g(germ.sf, d["F"], d["fv"], d["fuv"]))
    nd = np.linalg.norm(direction)
    if nd == 0.0:
        raise ClassificationError("degenerate limit normal")
    direction = direction / nd
    worst = 0.0
    for uu in probes:
        nt = _vals(normal_jets(germ, uu, 0.0, 2))
        nt = nt / np.linalg.norm(nt)
        ang = math.acos(max(-1.0, min(1.0, float(np.dot(nt, direction)))))
        worst = max(worst, ang)
    return direction, worst


def project_to_limiting_tangent_plane(germ: MapGerm, order=ORDER):
    """Project to the plane orthogonal to nu(o); test for a planar cusp.

    Returns (is_whitney_cusp, planar_curve_jets): the projected singular
    curve u -> f^(u, 0) written in an orthonormal basis of the plane.
    """
    rep_kind = point_kind(germ, 0.0)
    if rep_kind == "regular":
        raise ClassificationError("immersion at the origin: no singular curve")
    d = _second_kind_data(germ, order=order)
    nu0 = _vals(d["nu"])
    # orthonormal basis of the limiting tangent plane
    e1 = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(e1, nu0)) > 0.9:
        e1 = np.array([0.0, 1.0, 0.0])
    e1 = e1 - np.dot(e1, nu0) * nu0
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nu0, e1)
    G = germ.fjet(0.0, 0.0, order)
    gu = [c for c in G]
    x = sum(float(e1[k]) * gu[k] for k in range(3))
    y = sum(float(e2[k]) * gu[k] for k in range(3))
    xpp, ypp = x.partial(2, 0), y.partial(2, 0)
    xppp, yppp = x.partial(3, 0), y.partial(3, 0)
    det2 = xpp * yppp - ypp * xppp
    scale = (xpp * xpp + ypp * ypp) ** 1.5
    is_cusp = (abs(x.partial(1, 0)) < 1e-9 and abs(y.partial(1, 0)) < 1e-9
               and sgn(det2, scale, tol=1e-10) != 0)
    return is_cusp, (x, y)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------

def fundamental_forms(germ: MapGerm, at, order=3):
    """(E, F, G, L, M, N) of the germ in its space form at a regular point."""
    sf = germ.sf
    u, v = at
    Fj = germ.fjet(u, v, order + 2)
    Ftr = tuple(c.truncate(order) for c in Fj)
    fu = tuple(c.du().truncate(order) for c in Fj)
    fv = tuple(c.dv().truncate(order) for c in Fj)
    n = mt.cross_g(sf, Ftr, fu, fv)
    nsq = mt.inner_g(sf, Ftr, n, n)
    scale = mt.inner_g(sf, Ftr, fu, fu).value() * mt.inner_g(sf, Ftr, fv, fv).value()
    if np.any(np.asarray(nsq.value()) <= 1e-18 * (1.0 + np.asarray(scale))):
        raise ClassificationError(f"singular point at {at}")
    from .jets import jet_sqrt
    nn = jet_sqrt(nsq)
    nu = tuple(c / nn for c in n)
    fuu = _covariant(sf, Ftr, fu, fu, tuple(c.du() for c in fu))
    fuv = _covariant(sf, Ftr, fu, fv, tuple(c.du() for c in fv))
    fvv = _covariant(sf, Ftr, fv, fv, tuple(c.dv() for c in fv))
    E = mt.inner_g(sf, Ftr, fu, fu).value()
    Fi = mt.inner_g(sf, Ftr, fu, fv).value()
    G = mt.inner_g(sf, Ftr, fv, fv).value()
    L = mt.inner_g(sf, Ftr, fuu, nu).value()
    M = mt.inner_g(sf, Ftr, fuv, nu).value()
    N = mt.inner_g(sf, Ftr, fvv, nu).value()
    return E, Fi, G, L, M, N


def gaussian_curvature(germ: MapGerm, at):
    """(K, K_ext) at a regular point; K = a + K_ext by the Gauss equation."""
    E, F, G, L, M, N = fundamental_forms(germ, at)
    den = E * G - F * F
    if den == 0.0:
        raise ClassificationError(f"singular point at {at}")
    K_ext = (L * N - M * M) / den
    return germ.sf.a + K_ext, K_ext


def mean_curvature(germ: MapGerm, at):
    E, F, G, L, M, N = fundamental_forms(germ, at)
    return (E * N - 2 * F * M + G * L) / (2 * (E * G - F * F))


# ---------------------------------------------------------------------------
# Admissible coordinates at a general singular point
# ---------------------------------------------------------------------------

def _proxy_direction(germ: MapGerm, at):
    """Reference direction making <f_u x f_v, w> a signed local equation."""
    F = germ.fjet(at[0], at[1], 3)
    fu = tuple(c.du() for c in F)
    fv = tuple(c.dv() for c in F)
    n = cross(fu, fv)
    L = np.zeros((3, 2))
    for k in range(3):
        L[k, 0] = n[k].partial(1, 0)
        L[k, 1] = n[k].partial(0, 1)
    Uw, _, _ = np.linalg.svd(L)
    return Uw[:, 0]


def make_admissible(germ: MapGerm, at, order=ORDER):
    """Reparametrize so the singular curve through `at` becomes the u-axis.

    The singular curve is solved as a series v = c(s) of the local signed
    equation <f_u x f_v, w> = 0; the change of coordinates is
    (s, t) -> at + s T + (t + c(s)) N with T the curve tangent at `at` and
    N transverse.
    """
    at = (float(at[0]), float(at[1]))
    w = _proxy_direction(germ, at)

    def lam_jet(u, v, o):
        F = germ.fjet(u, v, o + 1)
        fu = tuple(c.du() for c in F)
        fv = tuple(c.dv() for c in F)
        n = cross(fu, fv)
        return sum(float(w[k]) * n[k] for k in range(3))

    l0 = lam_jet(at[0], at[1], 2)
    gu, gv = l0.partial(1, 0), l0.partial(0, 1)
    gn = math.hypot(gu, gv)
    if gn < 1e-12:
        raise ClassificationError("degenerate singular point: cannot straighten the singular set")
    # positively oriented frame (det [T N] = +1) so the reparametrization
    # does not silently flip the orientation-sensitive signs
    T = np.array([gv, -gu]) / gn
    Nv = np.array([gu, gv]) / gn

    def offset_at(s0):
        """Value c0 and Taylor series of c about s0 (c_k for k >= 1)."""
        c0 = 0.0
        for _ in range(80):
            p = (at[0] + s0 * T[0] + c0 * Nv[0], at[1] + s0 * T[1] + c0 * Nv[1])
            lj = lam_jet(p[0], p[1], 1)
            g = lj.partial(1, 0) * Nv[0] + lj.partial(0, 1) * Nv[1]
            if g == 0.0:
                break
            step = lj.value() / g
            c0 -= step
            if abs(step) < 1e-15:
                break
        return c0

    def change(s0, t0, o):
        K = o + 1
        c0 = offset_at(s0)
        base = (at[0] + s0 * T[0] + c0 * Nv[0], at[1] + s0 * T[1] + c0 * Nv[1])
        lj = lam_jet(base[0], base[1], K)
        # psi(s, c) = lam(base + s T + c N): 2-D jet via the linear change
        sj = Jet2.variable("u", 0.0, K, ())
        cjv = Jet2.variable("v", 0.0, K, ())
        psi = compose2(lj.c, K,
                       float(base[0]) + float(T[0]) * sj + float(Nv[0]) * cjv,
                       float(base[1]) + float(T[1]) * sj + float(Nv[1]) * cjv)
        # implicit series c(s) with psi(s, c(s)) = 0 by Newton on 1-D series
        from .jets import p1_div
        psi_c = psi.dv()
        cser = np.zeros(K + 1)
        for _ in range(max(2, math.ceil(math.log2(K + 1)) + 1)):
            num = _pad(_eval_series_in_v(psi, cser), K + 1)
            den = _pad(_eval_series_in_v(psi_c, cser), K + 1)
            cser = cser - p1_div(num, den)
        # assemble (U, V) jets at (s0, t0)
        s = Jet2.variable("u", 0.0, o, ())
        t = Jet2.variable("v", t0, o, ())
        top = min(len(cser) - 1, o)
        cj = Jet2.constant(cser[top], o, ())
        for k in range(top - 1, -1, -1):
            cj = cj * s
            cj.c[0] = cj.c[0] + cser[k]
        offs = t + cj
        Uj = float(base[0]) + float(T[0]) * s + float(Nv[0]) * offs
        Vj = float(base[1]) + float(T[1]) * s + float(Nv[1]) * offs
        return Uj, Vj

    return germ.reparam(change)


def _pad(a, n):
    a = np.asarray(a, dtype=float)
    return a[:n] if len(a) >= n else np.pad(a, (0, n - len(a)))


def _eval_series_in_v(jet: Jet2, vser):
    """1-D series in s of jet(s, c(s)) for a series c with c[0] = 0."""
    K = jet.order
    from ._jettables import index_of, monomials
    from .jets import p1_mul
    out = np.zeros(K + 1)
    vpow = [np.zeros(K + 1)]
    vpow[0][0] = 1.0
    cpad = np.pad(np.asarray(vser, dtype=float), (0, max(0, K + 1 - len(vser))))[: K + 1]
    for _ in range(K):
        vpow.append(p1_mul(vpow[-1], cpad))
    for (i, j) in monomials(K):
        coef = jet.c[index_of(i, j)]
        if coef == 0.0:
            continue
        term = vpow[j].copy()
        shifted = np.zeros(K + 1)
        if i <= K:
            shifted[i:] = term[: K + 1 - i]
        out += coef * shifted
    return out


# ---------------------------------------------------------------------------
# Singular-set recovery on a grid, self-intersections, tail side
# ---------------------------------------------------------------------------

def singular_set_grid(germ: MapGerm, window, res=401):
    """Zero set of the degeneracy function on a grid; array of (u, v) points.

    The signed local equation is <f_u x f_v, w> with a fixed reference
    direction w; crossings are accepted only where |f_u x f_v| itself is
    small, which filters zeros of the projection at regular points.
    """
    u0, u1, v0, v1 = window
    uu = np.linspace(u0, u1, res)
    vv = np.linspace(v0, v1, res)
    Ug, Vg = np.meshgrid(uu, vv, indexing="ij")
    F = germ.fjet(Ug, Vg, 1)
    fu = tuple(c.du() for c in F)
    fv = tuple(c.dv() for c in F)
    n = cross(fu, fv)
    ncomp = np.stack([c.value() for c in n])          # (3, res, res)
    nmag = np.sqrt(np.sum(ncomp ** 2, axis=0))
    # dominant direction of n over the grid
    flat = ncomp.reshape(3, -1)
    Uw, _, _ = np.linalg.svd(flat @ flat.T)
    w = Uw[:, 0]
    s = np.tensordot(w, ncomp, axes=1)
    pts = []

    def accept(sa, sb, ma, mb):
        # at a real degeneracy |n| itself is comparable to its jump across
        # the cell; a zero of the projection at a regular point is not
        if sa == sb:
            return None
        jump = abs(sa - sb) + 1e-300
        if min(ma, mb) > 4.0 * jump:
            return None
        return sa / (sa - sb)

    cu = s[:-1, :] * s[1:, :] <= 0
    for i, j in zip(*np.nonzero(cu)):
        t = accept(s[i, j], s[i + 1, j], nmag[i, j], nmag[i + 1, j])
        if t is not None:
            pts.append((uu[i] + t * (uu[i + 1] - uu[i]), vv[j]))
    cv = s[:, :-1] * s[:, 1:] <= 0
    for i, j in zip(*np.nonzero(cv)):
        t = accept(s[i, j], s[i, j + 1], nmag[i, j], nmag[i, j + 1])
        if t is not None:
            pts.append((uu[i], vv[j] + t * (vv[j + 1] - vv[j])))
    return np.array(pts) if pts else np.zeros((0, 2))


def self_intersection_side(germ: MapGerm, extent=0.25, res=81):
    """Sign of v on the side of the axis carrying the self-intersections.

    Proximity search on a local grid: pairs of well-separated parameter
    points with nearly equal images vote with the v-sign of their midpoints.
    """
    uu = np.linspace(-extent, extent, res)
    vv = np.linspace(-extent, extent, res)
    Ug, Vg = np.meshgrid(uu, vv, indexing="ij")
    F = germ.fjet(Ug, Vg, 0)
    P = np.stack([c.value() for c in F], axis=-1).reshape(-1, 3)
    params = np.stack([Ug, Vg], axis=-1).reshape(-1, 2)
    from scipy.spatial import cKDTree
    tree = cKDTree(P)
    h = 2 * extent / (res - 1)
    close = tree.query_pairs(r=0.35 * h, output_type="ndarray")
    votes = 0.0
    nvotes = 0
    for i, j in close:
        dp = params[i] - params[j]
        if np.hypot(dp[0], dp[1]) < 6 * h:
            continue
        vsum = params[i][1] + params[j][1]
        if abs(params[i][1]) < h or abs(params[j][1]) < h:
            continue
        votes += np.sign(vsum)
        nvotes += 1
    if nvotes == 0:
        raise ClassificationError("no self-intersections detected near the origin")
    return 1 if votes > 0 else -1


def tail_probes(germ: MapGerm, n=20, extent=0.2):
    """Probe points on the tail side (the side without self-intersections)."""
    side = -self_intersection_side(germ)
    rng = np.random.default_rng(7)
    pts = []
    while len(pts) < n:
        u = rng.uniform(-extent / 2, extent / 2)
        v = side * rng.uniform(0.02, extent)
        try:
            gaussian_curvature(germ, (u, v))
        except ClassificationError:
            continue
        pts.append((u, v))
    return pts
