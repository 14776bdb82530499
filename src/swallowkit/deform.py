"""Constructive deformations between swallowtail germs, with certificates.

Each recipe returns a DeformationFamily: a chain of stages, every stage a
map t in [0,1] -> germ data.  Certificates sample each stage on a t-grid,
classify the built germ, and verify the class predicate plus constancy of
the relevant signs (and of the curvature sign at probe points when sign
preservation is claimed).  Continuity between samples is not proven, only
sampled, and the report says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import frontal as fr
from .builder import (AsymptoticData, BuildError, SwallowtailData, build,
                      build_asymptotic, discriminants, flip_data)
from .curves import (CurveGerm, FrenetData, FrenetPath, HalfArclength,
                     curvature_torsion_of, integrate_frenet)
from .fields import JetFn, Scaled, pjet, vjet
from .frontal import sgn
from .jets import Jet2, compose2, jet_sqrt
from .metric import cross, det3, dot


class DeformError(ValueError):
    pass


DEFAULT_TGRID = 21
PROBES = ((0.04, 0.05), (-0.05, 0.04), (0.03, -0.05), (-0.04, -0.04))
AXIS_SAMPLES = (-0.06, -0.02, 0.02, 0.06)


@dataclass
class Stage:
    name: str
    generator: object            # t -> data
    asymptotic: bool = False


@dataclass
class DeformationFamily:
    recipe: str
    stages: list
    a: float = 0.0
    notes: list = field(default_factory=list)

    def endpoint(self, which):
        if which == 0:
            return self.stages[0].generator(0.0)
        return self.stages[-1].generator(1.0)


@dataclass
class Certificate:
    recipe: str
    t_grid: list
    per_t: list
    passed: bool
    failures: list
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "recipe": self.recipe,
            "t_grid": list(self.t_grid),
            "per_t": self.per_t,
            "pass": self.passed,
            "failures": list(self.failures),
            "notes": list(self.notes),
        }


def _build_any(data, a):
    if isinstance(data, AsymptoticData):
        return build_asymptotic(data, a=a, require_swallowtail=False)
    return build(data, a=a)


def certify(family: DeformationFamily, predicate: str, steps: int = DEFAULT_TGRID,
            track_kext_sign: int | None = None) -> Certificate:
    """Sample every stage of the family and check the class predicate.

    predicate: 'swallowtail' | 'generic_swallowtail' | 'asymptotic_swallowtail'.
    track_kext_sign: required sign of K_ext at the probe points (Theorem D).
    """
    ts = np.linspace(0.0, 1.0, steps)
    failures = []
    per_t = []

    def check_one(stage, t):
        data = stage.generator(float(t))
        germ = _build_any(data, family.a)
        rep = fr.classify(germ)
        entry = {
            "stage": stage.name, "t": float(t),
            "is_swallowtail": rep.is_swallowtail,
            "sigma0_S": rep.sigma0_S, "sigma_g_S": rep.sigma_g_S,
        }
        errs = []
        if not rep.is_swallowtail:
            errs.append(f"{stage.name} t={t:.3f}: not a swallowtail")
        if predicate == "generic_swallowtail" and rep.sigma_g_S == 0:
            errs.append(f"{stage.name} t={t:.3f}: sigma_g_S = 0 (not generic)")
        if predicate == "asymptotic_swallowtail" or stage.asymptotic:
            worst = 0.0
            for uu in AXIS_SAMPLES:
                _, raw = fr.sigma_g_C(germ, uu)
                worst = max(worst, abs(raw))
            entry["sigma_g_C_max"] = worst
            if worst > 1e-7:
                errs.append(f"{stage.name} t={t:.3f}: sigma_g_C residual {worst:.2e}")
        if track_kext_sign is not None:
            ks = []
            for p in PROBES:
                try:
                    _, kext = fr.gaussian_curvature(germ, p)
                    ks.append(sgn(kext, 1e-6))
                except fr.ClassificationError:
                    continue
            entry["kext_signs"] = ks
            if any(k != track_kext_sign for k in ks):
                errs.append(f"{stage.name} t={t:.3f}: K_ext sign strayed from "
                            f"{track_kext_sign}: {ks}")
        return entry, errs

    for stage in family.stages:
        for t in ts:
            entry, errs = check_one(stage, t)
            per_t.append(entry)
            failures.extend(errs)

    # sign constancy: within every stage always; across the chain for the
    # stronger predicates (stage boundaries of a mixed chain may interpose
    # a recorded orientation flip, which reverses sigma0_S)
    for stage in family.stages:
        s0s = {e["sigma0_S"] for e in per_t if e["stage"] == stage.name}
        if len(s0s) > 1:
            failures.append(f"sigma0_S not constant within {stage.name}: {sorted(s0s)}")
    if predicate in ("generic_swallowtail", "asymptotic_swallowtail"):
        s0s = {e["sigma0_S"] for e in per_t}
        if len(s0s) > 1:
            failures.append(f"sigma0_S not constant along the chain: {sorted(s0s)}")
    if predicate == "generic_swallowtail":
        sgs = {e["sigma_g_S"] for e in per_t}
        if len(sgs) > 1:
            failures.append(f"sigma_g_S not constant along the chain: {sorted(sgs)}")

    notes = list(family.notes)
    notes.append("per-t verification is sampled on the grid; continuity between "
                 "samples is not proven")
    return Certificate(recipe=family.recipe, t_grid=[float(t) for t in ts],
                       per_t=per_t, passed=not failures, failures=failures, notes=notes)


# ---------------------------------------------------------------------------
# Data-level helpers
# ---------------------------------------------------------------------------

def data_signs(data, a=0.0):
    """(sigma0_S, sigma_g_S) of the built germ."""
    rep = fr.classify(_build_any(data, a))
    return rep.sigma0_S, rep.sigma_g_S, rep


def normalize_positive(data, a=0.0):
    """Flip (u,v) -> (-u,-v) when needed so that sigma0_S = +1."""
    s0, sg, rep = data_signs(data, a)
    if s0 == 0:
        raise DeformError("endpoint is not a swallowtail (sigma0_S = 0)")
    if s0 > 0:
        return data, False
    return flip_data(data), True


class _UnitXiData:
    """Half-arclength normalization of SwallowtailData: unit xi, rescaled b.

    With u = u(t) the new parameter and S(u) = |xi(t(u))| the old speed,
    b_new(u, w) = b(t(u), w / S(u)) / S(u)^2.
    """

    def __init__(self, data: SwallowtailData):
        from .builder import gamma_from_xi
        self.data = data
        self.curve = CurveGerm.__new__(CurveGerm)
        self.curve.gamma = getattr(data, "gamma", None) or gamma_from_xi(data.xi)
        self.H = HalfArclength(self.curve, xi=data.xi)
        self.xi = self.H.xi_hat()
        self.speed = self.H.speed()

        def bcomp(k):
            def fn(u, w, order):
                K = order + 2
                tj = self.H.t_jet(u, K)
                Sj = pjet(self.speed, u, 0.0, K)
                wj = Jet2.variable("v", w, K, ())
                Vin = wj / Sj
                bj = pjet(self.data.b[k], tj.value(), w / Sj.value(), K)
                out = compose2(bj.c, K, tj, Vin)
                o = out.order
                return (out / (Sj.truncate(o) * Sj.truncate(o))).truncate(order)
            return JetFn(fn)

        self.b = tuple(bcomp(k) for k in range(3))
        self.gamma = self.H.gamma_hat()

    def as_data(self):
        d = SwallowtailData.__new__(SwallowtailData)
        d.xi = self.xi
        d.b = self.b
        d.gamma = self.gamma
        return d


def _data_with(xi, b, gamma=None):
    d = SwallowtailData.__new__(SwallowtailData)
    d.xi = tuple(xi)
    d.b = tuple(b)
    d.gamma = gamma
    return d


def _asym_with(xi, q, r, gamma=None):
    d = AsymptoticData.__new__(AsymptoticData)
    d.xi = tuple(xi)
    d.q = q
    d.r = r
    d.gamma = gamma
    return d


def _tangential_part(xi, b):
    """b minus its xi x xi' component: the part stripped in stage 1."""
    def comp(k):
        def fn(u, v, order):
            xj = vjet(xi, u, 0.0, order + 1)
            dx = tuple(c.du() for c in xj)
            xj = tuple(c.truncate(order) for c in xj)
            n = cross(xj, dx)
            bj = vjet(b, u, v, order)
            x3 = det3(xj, dx, bj) / dot(n, n)
            return bj[k] - x3 * n[k]
        return JetFn(fn)
    return tuple(comp(k) for k in range(3))


def _x3_field(xi, b):
    def fn(u, v, order):
        xj = vjet(xi, u, 0.0, order + 1)
        dx = tuple(c.du() for c in xj)
        xj = tuple(c.truncate(order) for c in xj)
        n = cross(xj, dx)
        bj = vjet(b, u, v, order)
        return det3(xj, dx, bj) / dot(n, n)
    return JetFn(fn)


def _mix(p1, p2, t):
    def fn(u, v, order):
        return (1.0 - t) * pjet(p1, u, v, order) + t * pjet(p2, u, v, order)
    return JetFn(fn)


def _combine(*weighted):
    def fn(u, v, order):
        out = None
        for w, p in weighted:
            j = w * pjet(p, u, v, order)
            out = j if out is None else out + j
        return out
    return JetFn(fn)


def _normal_field(xi):
    """xi x xi' as providers."""
    def comp(k):
        def fn(u, v, order):
            xj = vjet(xi, u, 0.0, order + 1)
            dx = tuple(c.du() for c in xj)
            return cross(tuple(c.truncate(order) for c in xj), dx)[k]
        return JetFn(fn)
    return tuple(comp(k) for k in range(3))


# ---------------------------------------------------------------------------
# The xi-interpolation stage shared by Theorems A and D
# ---------------------------------------------------------------------------

def _rotation_log(R):
    tr = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    th = math.acos(tr)
    if th < 1e-12:
        return np.zeros(3)
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return th / (2 * math.sin(th)) * w


def _rotation_exp(w):
    th = np.linalg.norm(w)
    if th < 1e-14:
        return np.eye(3)
    k = w / th
    K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(th) * K + (1 - math.cos(th)) * (K @ K)


class XiInterpolation:
    """Frenet interpolation between two unit cusp-direction fields.

    Curvature is mixed linearly, torsion through kappa^2 tau (so the
    genericity determinant det(xi, xi', xi'') mixes linearly), and the
    initial frames ride a geodesic in the rotation group so the endpoint
    curves are reproduced exactly: path(0) and path(1) integrate the
    endpoint fields themselves.

    The values of kappa and tau at every point the fixed-step RK4 touches
    (the half-step grid) are tabulated once per family, by one
    array-valued curvature_torsion_of call per endpoint field.  Jets at
    the (few) sample points off that grid go through the exact providers
    at scalar u; those endpoint (kappa, tau) jets do not depend on t, so
    they are memoised per endpoint field and shared by every interpolated
    path.
    """

    def __init__(self, xi1, xi2, interval=(-0.3, 0.3), step=2e-3, gammas=(None, None)):
        self.xi = (xi1, xi2)
        self.gammas = gammas
        self.interval = interval
        self.step = step
        self._frames = []
        for xi in self.xi:
            xj = vjet(xi, 0.0, 0.0, 1)
            T = np.array([c.value() for c in xj])
            dx = np.array([c.partial(1, 0) for c in xj])
            N = dx / np.linalg.norm(dx)
            B = np.cross(T, N)
            self._frames.append(np.stack([T, N, B]))
        R1, R2 = self._frames
        self._w = _rotation_log(R1.T @ R2)
        self._R1 = R1
        self._paths = {}
        self._kt = {}
        # kappa/tau value tables at half-step resolution (every point the
        # fixed-step RK4 integrator touches)
        n = int(round((interval[1] - interval[0]) / (step / 2.0))) + 1
        self._unodes = np.linspace(interval[0], interval[1], n)
        self._ktab = np.zeros((2, n))
        self._k2ttab = np.zeros((2, n))
        for i, xi in enumerate(self.xi):
            k, tau = curvature_torsion_of(xi, self._unodes, 0)
            self._ktab[i] = k.value()
            self._k2ttab[i] = k.value() * k.value() * tau.value()

    def _node_index(self, u):
        h = self._unodes[1] - self._unodes[0]
        j = (u - self._unodes[0]) / h
        jr = round(j)
        if abs(j - jr) < 1e-9 and 0 <= jr < len(self._unodes):
            return int(jr)
        return None

    def _endpoint_kt(self, i, u, order):
        """(kappa, tau) jets of endpoint field i at u, memoised (bounded as
        MapGerm._cache).  Callers only combine them into new jets: the cached
        jets are never mutated, so a racing worker at worst recomputes one."""
        if np.ndim(u) != 0:
            return curvature_torsion_of(self.xi[i], u, order)
        key = (i, float(u), order)
        hit = self._kt.get(key)
        if hit is None:
            hit = curvature_torsion_of(self.xi[i], u, order)
            if len(self._kt) > 256:
                self._kt.clear()
            self._kt[key] = hit
        return hit

    def kappa_tau(self, t):
        interp = self

        def kfn(u, v, order):
            if order == 0 and np.ndim(u) == 0:
                j = interp._node_index(float(u))
                if j is not None:
                    val = (1.0 - t) * interp._ktab[0, j] + t * interp._ktab[1, j]
                    return Jet2.constant(val, 0, ())
            k1, _ = interp._endpoint_kt(0, u, order)
            k2, _ = interp._endpoint_kt(1, u, order)
            return (1.0 - t) * k1 + t * k2

        def tfn(u, v, order):
            if order == 0 and np.ndim(u) == 0:
                j = interp._node_index(float(u))
                if j is not None:
                    kv = (1.0 - t) * interp._ktab[0, j] + t * interp._ktab[1, j]
                    num = (1.0 - t) * interp._k2ttab[0, j] + t * interp._k2ttab[1, j]
                    return Jet2.constant(num / (kv * kv), 0, ())
            k1, t1 = interp._endpoint_kt(0, u, order)
            k2, t2 = interp._endpoint_kt(1, u, order)
            kt = (1.0 - t) * k1 + t * k2
            num = (1.0 - t) * k1 * k1 * t1 + t * k2 * k2 * t2
            return num / (kt * kt)

        return JetFn(kfn), JetFn(tfn)

    def path(self, t) -> FrenetPath:
        key = round(float(t), 12)
        if key not in self._paths:
            kp, tp = self.kappa_tau(t)
            frame0 = self._R1 @ _rotation_exp(t * self._w)
            fd = FrenetData(kappa=kp, tau=tp, frame0=frame0, step=self.step)
            self._paths[key] = integrate_frenet(fd, interval=self.interval)
        return self._paths[key]

    def xi_t(self, t):
        """Providers of the interpolated unit field at parameter t."""
        if float(t) == 0.0:
            return self.xi[0]
        if float(t) == 1.0:
            return self.xi[1]
        return self.path(t).xi_providers()

    def gamma_t(self, t):
        """Primitive of u xi_t: endpoint gammas at t = 0, 1, integrated between."""
        if float(t) == 0.0:
            return self.gammas[0]
        if float(t) == 1.0:
            return self.gammas[1]
        return self.path(t).cusp_curve_providers()

    def genericity_at0(self, t):
        xj = vjet(self.xi_t(t), 0.0, 0.0, 2)
        xi = np.array([c.value() for c in xj])
        dx = np.array([c.partial(1, 0) for c in xj])
        ddx = np.array([c.partial(2, 0) for c in xj])
        return float(np.linalg.det(np.stack([xi, dx, ddx], axis=1)))


# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------

def deform_theorem_A(d1: SwallowtailData, d2: SwallowtailData, a: float = 0.0):
    """Three-stage deformation between generic swallowtails with equal signs."""
    notes = []
    s01, sg1, _ = data_signs(d1, a)
    s02, sg2, _ = data_signs(d2, a)
    if 0 in (s01, s02) or 0 in (sg1, sg2):
        raise DeformError(f"endpoints must be generic swallowtails "
                          f"(sigma0={s01},{s02}, sigma_g={sg1},{sg2})")
    if s01 != s02 or sg1 != sg2:
        raise DeformError(f"sign mismatch between endpoints: "
                          f"sigma0 {s01} vs {s02}, sigma_g {sg1} vs {sg2}")
    if s01 < 0:
        d1, d2 = flip_data(d1), flip_data(d2)
        notes.append("both endpoints flipped (u,v) -> (-u,-v) to normalize sigma0_S = +1")

    n1, n2 = _UnitXiData(d1), _UnitXiData(d2)
    e1, e2 = n1.as_data(), n2.as_data()
    notes.append("endpoints reparametrized to unit cusp fields (half-arclength)")

    tang1 = _tangential_part(e1.xi, e1.b)
    tang2 = _tangential_part(e2.xi, e2.b)

    def gen_stage1(t):
        b = tuple(_combine((1.0, e1.b[k]), (-t, tang1[k])) for k in range(3))
        return _data_with(e1.xi, b, gamma=e1.gamma)

    def gen_stage3(t):
        b = tuple(_combine((1.0, e2.b[k]), (-(1.0 - t), tang2[k])) for k in range(3))
        return _data_with(e2.xi, b, gamma=e2.gamma)

    interp = XiInterpolation(e1.xi, e2.xi, gammas=(e1.gamma, e2.gamma))
    x31 = _x3_field(e1.xi, e1.b)
    x32 = _x3_field(e2.xi, e2.b)

    def gen_stage2(t):
        xi_t = interp.xi_t(t)
        n = _normal_field(xi_t)
        m = _mix(x31, x32, t)

        def comp(k):
            def fn(u, v, order):
                return pjet(m, u, v, order) * pjet(n[k], u, v, order)
            return JetFn(fn)
        return _data_with(xi_t, tuple(comp(k) for k in range(3)),
                          gamma=interp.gamma_t(t))

    fam = DeformationFamily(
        recipe="TheoremA",
        stages=[Stage("strip-tangential-1", gen_stage1),
                Stage("xi-interpolation", gen_stage2),
                Stage("restore-tangential-2", gen_stage3)],
        a=a, notes=notes)
    fam.interp = interp
    return fam


def deform_flip_sigma_S(d: SwallowtailData, a: float = 0.0):
    """Scale b through 0 to flip the sign of sigma_g_S.

    Needs sigma_g_S = -sigma0_S != 0; along b -> t b the wave-front
    discriminant is psi - 2 t phi, so feasibility requires |psi| > 2 |phi|
    with sign(psi) = sigma0_S.  Reported as an error otherwise (the germ
    must then be carried through a curve deformation instead).
    """
    s0, sg, _ = data_signs(d, a)
    if s0 == 0 or sg != -s0:
        raise DeformError(f"requires sigma_g_S = -sigma0_S != 0 (got {s0}, {sg})")
    disc = discriminants(d if isinstance(d, SwallowtailData) else d.as_general())
    psi, phi = disc.psi0, disc.D1
    if sgn(psi, disc.scale) != s0 or abs(psi) <= 2 * abs(phi):
        raise DeformError(
            f"family b -> t b leaves the swallowtail class: needs "
            f"|det(xi,xi',xi'')| > 2 |det(xi,xi',b)| with matching sign "
            f"(got {psi:.3g} vs {2 * phi:.3g})")

    def gen(tau):
        t = 1.0 - 2.0 * tau        # runs from +1 to -1
        return _data_with(d.xi, tuple(Scaled(c, t) for c in d.b),
                          gamma=getattr(d, "gamma", None))

    return DeformationFamily(recipe="LemmaS686a", stages=[Stage("b-scale", gen)], a=a)


def deform_make_generic(d: SwallowtailData, a: float = 0.0):
    """Deform a non-generic swallowtail to a generic one.

    Target field sigma0_S * xi''/4: with psi of the sign of sigma0_S the
    wave-front discriminant along the family is psi (1 - t/2), bounded away
    from 0, and the endpoint satisfies sigma_g_S = +1 for sigma0_S = +1
    (resp. +1 for sigma0_S = -1, since phi_end = sigma0_S psi / 4 > 0).
    """
    s0, sg, _ = data_signs(d, a)
    if s0 == 0:
        raise DeformError("seed is not a swallowtail")
    if sg != 0:
        raise DeformError("input is already generic")
    disc = discriminants(d)
    if sgn(disc.psi0, disc.scale) != s0:
        raise DeformError("impossible seed: a non-generic swallowtail needs "
                          "sign(det(xi, xi', xi'')(0)) = sigma0_S")
    from .builder import _derivative
    ddxi = tuple(_derivative(_derivative(c)) for c in d.xi)

    def gen(t):
        b = tuple(_combine((1.0 - t, d.b[k]), (0.25 * s0 * t, ddxi[k])) for k in range(3))
        return _data_with(d.xi, b, gamma=getattr(d, "gamma", None))

    return DeformationFamily(recipe="LemmaS686b", stages=[Stage("b-to-generic", gen)], a=a)


def _reachable_pairs(d, a):
    """Attainable (sigma0_S, sigma_g_S) pairs for each orientation of d.

    Returns {(s0, sg): (oriented data, fix-up stages)}.  Fix-ups use the
    b-deformations only; sign pairs needing a curve deformation are not
    offered.
    """
    out = {}
    for flip in (False, True):
        dd = flip_data(d) if flip else d
        dd = dd.as_general() if isinstance(dd, AsymptoticData) else dd
        s0, sg, _ = data_signs(dd, a)
        if s0 == 0:
            raise DeformError("endpoint is not a swallowtail (sigma0_S = 0)")
        pre = []
        note = "flipped (u,v) -> (-u,-v)" if flip else None
        if sg == 0:
            try:
                fam = deform_make_generic(dd, a)
            except DeformError:
                continue
            pre.append(fam.stages[0])
            dd = fam.stages[0].generator(1.0)
            _, sg, _ = data_signs(dd, a)
        key = (s0, sg)
        if key not in out:
            out[key] = (dd, pre, note)
        # offer the 2.14-flip of sigma_g_S when feasible
        try:
            fam = deform_flip_sigma_S(dd, a)
        except DeformError:
            continue
        key2 = (s0, -sg)
        if key2 not in out:
            out[key2] = (fam.stages[0].generator(1.0), pre + [fam.stages[0]], note)
    return out


def deform_any_swallowtail(d1, d2, a: float = 0.0):
    """Pipeline between arbitrary swallowtails: orient, make generic,
    equalize the genericity sign, interpolate the cusp fields."""
    r1 = _reachable_pairs(d1, a)
    r2 = _reachable_pairs(d2, a)
    common = [k for k in r1 if k in r2 and k[1] != 0]
    if not common:
        raise DeformError(
            f"no common attainable sign pair: endpoint 1 reaches {sorted(r1)}, "
            f"endpoint 2 reaches {sorted(r2)}")
    key = common[0]
    e1, pre1, note1 = r1[key]
    e2, pre2, note2 = r2[key]
    notes = [n for n in (note1 and f"endpoint 1: {note1}",
                         note2 and f"endpoint 2: {note2}") if n]
    notes.append(f"common sign pair {key}")
    famA = deform_theorem_A(e1, e2, a)
    rev = [Stage(s.name + "-reversed", _reversed_gen(s.generator)) for s in reversed(pre2)]
    stages = [*pre1, *famA.stages, *rev]
    stages = [Stage(f"{i}:{s.name}", s.generator, s.asymptotic)
              for i, s in enumerate(stages)]
    fam = DeformationFamily(recipe="Prop2.13", stages=stages, a=a,
                            notes=notes + famA.notes)
    return fam


def _reversed_gen(gen):
    return lambda t: gen(1.0 - t)


def deform_lemma_3_7(d: AsymptoticData, a: float = 0.0):
    """Normalize asymptotic data to (xi, 0, +-xi x xi'), preserving sign(Dqr)."""
    disc = discriminants(d)
    if sgn(disc.psi0, disc.scale) <= 0:
        raise DeformError("requires sigma0_S > 0, i.e. det(xi, xi', xi'')(0) > 0")
    Dqr0 = disc.Dqr(0.0)
    s = sgn(Dqr0, disc.scale)
    if s == 0:
        raise DeformError("Dqr(o) = 0: curvature sign not determined")
    n = _normal_field(d.xi)

    g0 = getattr(d, "gamma", None)
    if s > 0:
        def gen(t):
            q = Scaled(d.q, 1.0 - t)
            r = tuple(_combine((1.0 - t, d.r[k]), (t, n[k])) for k in range(3))
            return _asym_with(d.xi, q, r, gamma=g0)
        name = "to-positive-normal-form"
    else:
        def gen(t):
            q = Scaled(d.q, math.sqrt(max(0.0, 1.0 - t)))
            r = tuple(_combine((1.0 - t, d.r[k]), (-t, n[k])) for k in range(3))
            return _asym_with(d.xi, q, r, gamma=g0)
        name = "to-negative-normal-form"

    fam = DeformationFamily(recipe="Lemma3.7",
                            stages=[Stage(name, gen, asymptotic=True)], a=a)
    fam.sign = s
    return fam


def deform_theorem_D(d1: AsymptoticData, d2: AsymptoticData, a: float = 0.0,
                     preserve_sign: bool | None = None):
    """Deformation of asymptotic swallowtails with common sigma0_S.

    When both endpoints are positively (negatively) curved, the chain runs
    through the (xi, 0, +-xi x xi') normal forms and the curvature sign is
    tracked at probe points; otherwise q and r are scaled away and the
    developable skeletons are interpolated.
    """
    notes = []
    disc1, disc2 = discriminants(d1), discriminants(d2)
    s01 = sgn(disc1.psi0, disc1.scale)
    s02 = sgn(disc2.psi0, disc2.scale)
    if 0 in (s01, s02):
        raise DeformError("endpoints must be asymptotic swallowtails "
                          "(det(xi,xi',xi'')(0) != 0)")
    if s01 != s02:
        raise DeformError(f"sigma0_S mismatch: {s01} vs {s02}")
    if s01 < 0:
        d1, d2 = flip_data(d1), flip_data(d2)
        notes.append("both endpoints flipped to sigma0_S = +1")
        disc1, disc2 = discriminants(d1), discriminants(d2)

    k1 = sgn(disc1.Dqr(0.0), disc1.scale)
    k2 = sgn(disc2.Dqr(0.0), disc2.scale)
    curved = k1 != 0 and k1 == k2
    if preserve_sign and not curved:
        raise DeformError(f"curvature signs do not match ({k1} vs {k2}): "
                          "sign preservation impossible")
    if preserve_sign is None:
        preserve_sign = curved

    if curved and preserve_sign:
        famL1 = deform_lemma_3_7(d1, a)
        famL2 = deform_lemma_3_7(d2, a)
        n1 = _UnitXiData(_data_with(d1.xi, _normal_field(d1.xi)))
        n2 = _UnitXiData(_data_with(d2.xi, _normal_field(d2.xi)))
        interp = XiInterpolation(n1.xi, n2.xi, gammas=(n1.gamma, n2.gamma))

        def gen_mid(t):
            xi_t = interp.xi_t(t)
            n = _normal_field(xi_t)
            return _asym_with(xi_t, Scaled(d1.q, 0.0),
                              tuple(Scaled(c, float(k1)) for c in n),
                              gamma=interp.gamma_t(t))

        stages = [famL1.stages[0],
                  Stage("xi-interpolation", gen_mid, asymptotic=True),
                  Stage(famL2.stages[0].name + "-reversed",
                        _reversed_gen(famL2.stages[0].generator), asymptotic=True)]
        fam = DeformationFamily(recipe="TheoremD", stages=stages, a=a, notes=notes)
        fam.kext_sign = int(k1)
        return fam

    # general asymptotic route: scale (q, r) away, interpolate developables
    def gen_scale1(t):
        return _asym_with(d1.xi, Scaled(d1.q, 1.0 - t),
                          tuple(Scaled(c, 1.0 - t) for c in d1.r),
                          gamma=getattr(d1, "gamma", None))

    def gen_scale2(t):
        return _asym_with(d2.xi, Scaled(d2.q, t), tuple(Scaled(c, t) for c in d2.r),
                          gamma=getattr(d2, "gamma", None))

    n1 = _UnitXiData(_data_with(d1.xi, _normal_field(d1.xi)))
    n2 = _UnitXiData(_data_with(d2.xi, _normal_field(d2.xi)))
    interp = XiInterpolation(n1.xi, n2.xi, gammas=(n1.gamma, n2.gamma))

    def gen_mid(t):
        xi_t = interp.xi_t(t)
        return _asym_with(xi_t, Scaled(d1.q, 0.0), tuple(Scaled(c, 0.0) for c in d1.r),
                          gamma=interp.gamma_t(t))

    stages = [Stage("scale-away-1", gen_scale1, asymptotic=True),
              Stage("developable-interpolation", gen_mid, asymptotic=True),
              Stage("scale-in-2", gen_scale2, asymptotic=True)]
    fam = DeformationFamily(recipe="TheoremD", stages=stages, a=a, notes=notes)
    fam.kext_sign = None
    return fam


# ---------------------------------------------------------------------------
# Admissible-coordinate homotopy
# ---------------------------------------------------------------------------

def coordinate_homotopy(U, V, box=0.1, samples=9):
    """Family of coordinate changes (u^t, v^t) = (a s + t A, b e + t B).

    U, V are expressions in (u, v) standing for the new coordinates; the
    admissibility inequalities are verified on a sample grid for each t
    and the result reports per-t pass/fail.
    """
    from .jets import parse as _parse
    if isinstance(U, str):
        U = _parse(U)
    if isinstance(V, str):
        V = _parse(V)
    j0 = U.jet(0.0, 0.0, 1)
    if abs(j0.value()) > 1e-12:
        raise DeformError("u(0,0) != 0")
    alpha = j0.partial(1, 0)
    beta = V.jet(0.0, 0.0, 1).partial(0, 1)
    if alpha <= 0:
        raise DeformError(f"u_xi(0,0) = {alpha} <= 0: not admissible")
    if beta <= 0:
        raise DeformError(f"v_eta(0,0) = {beta} <= 0: not admissible")
    ss = np.linspace(-box, box, samples)
    for s in ss:
        if abs(V.jet(float(s), 0.0, 0).value()) > 1e-10:
            raise DeformError(f"v(xi, 0) != 0 at xi={s}: axis not preserved")

    ts = np.linspace(0.0, 1.0, DEFAULT_TGRID)
    per_t = []
    failures = []
    for t in ts:
        ok = True
        for s in ss:
            Uj = U.jet(float(s), 0.0, 1)
            Vj = V.jet(float(s), 0.0, 1)
            a_x = Uj.partial(1, 0) - alpha
            b_e = Vj.partial(0, 1) - beta
            c1 = alpha + t * a_x
            c2 = (alpha + t * a_x) * (beta + t * b_e)
            if c1 <= 0 or c2 <= 0:
                ok = False
                failures.append(f"t={t:.3f}, xi={s:.3f}: admissibility "
                                f"inequalities fail ({c1:.3g}, {c2:.3g})")
        per_t.append({"t": float(t), "admissible": ok})
    return Certificate(recipe="CoordLemma1.5", t_grid=[float(t) for t in ts],
                       per_t=per_t, passed=not failures, failures=failures)
