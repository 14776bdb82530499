"""Constructive deformations between swallowtail germs, with certificates.

Each recipe returns a DeformationFamily: a chain of stages, every stage a
map t in [0,1] -> germ data.  Certificates sample each stage on a t-grid,
classify the built germ, and verify the class predicate plus constancy of
the relevant signs (and of the curvature sign at probe points when sign
preservation is claimed).  Continuity between samples is not proven, only
sampled, and the report says so.

A stage generator takes a float t, or the array of a stage's t: then it
returns one data object whose jets carry a trailing t axis, one slot per t,
each slot bit for bit the data at that t alone.  Its providers take array
points too, the point axes before the t axis (so a weight over t goes
behind the point axes: fields.slot_weight).  certify checks a stage as that
one batch, and reads each point set of it in one (point x t) call: one
build, one classify (its axis samples in one array read), one
gaussian_curvature at all the PROBES and one sigma_g_C at all the
AXIS_SAMPLES, each decision one array operation over points and slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import frontal as fr
from .builder import (AsymptoticData, SwallowtailData, _derivative, build, discriminants,
                      flip_data, gamma_from_xi, normal_field)
from ._jettables import term_count
from .curves import (CurveGerm, FrenetColumn, FrenetData, FrenetPath, HalfArclength,
                     curvature_torsion_of, march_steps)
from .fields import (JetFn, Scaled, _Component, components, cusp_frame, slot_weight, vjet,
                     xi_frame)
from .frontal import sgn
from .jets import Jet2, compose2, parse
from .metric import det3, dot


class DeformError(ValueError):
    pass


DEFAULT_TGRID = 21
PROBES = ((0.04, 0.05), (-0.05, 0.04), (0.03, -0.05), (-0.04, -0.04))
AXIS_SAMPLES = (-0.06, -0.02, 0.02, 0.06)


@dataclass
class Stage:
    name: str
    generator: object            # t (a float, or an array: one slot per t) -> data
    asymptotic: bool = False


@dataclass
class DeformationFamily:
    recipe: str
    stages: list
    a: float = 0.0
    notes: list = field(default_factory=list)
    kext_sign: int | None = None   # K_ext sign kept at the probes (Theorem D, Lemma 3.7)
    interp: object = None          # Theorem A's XiInterpolation, which its middle stage reads


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


def certify(family: DeformationFamily, predicate: str, steps: int = DEFAULT_TGRID,
            track_kext_sign: int | None = None) -> Certificate:
    """Sample every stage of the family and check the class predicate.

    Each stage is checked as one batch of its t (see the module docstring),
    so each per-t entry equals the check of that t alone.
    predicate: 'swallowtail' | 'generic_swallowtail' | 'asymptotic_swallowtail'.
    track_kext_sign: required sign of K_ext at the probe points (Theorem D).
    """
    if steps < 2:
        raise ValueError(f"certify needs at least 2 t-samples per stage, got {steps}")
    ts = np.linspace(0.0, 1.0, steps)
    failures = []
    per_t = []

    for stage in family.stages:
        # one batch per stage: a slot per t, each decision an array operation
        germ = build(stage.generator(ts), family.a)
        reps = fr.classify(germ)
        asymptotic = predicate == "asymptotic_swallowtail" or stage.asymptotic
        if asymptotic:
            # (sample, slot) raws; fmax passes over a NaN raw, as max does
            raws = fr._sigma_g_C(germ, np.array(AXIS_SAMPLES))[1]
            worsts = np.fmax.reduce(np.abs(raws), axis=0, initial=0.0).tolist()
        if track_kext_sign is not None:
            # (probe, slot); NaN where a probe is a singular point of the germ
            kexts = fr.gaussian_curvature(germ, tuple(np.array(PROBES).T))[1]
            kext_signs = sgn(kexts, 1e-6)
        for i, (t, rep) in enumerate(zip(ts, reps)):
            entry = {
                "stage": stage.name, "t": float(t),
                "is_swallowtail": rep.is_swallowtail,
                "sigma0_S": rep.sigma0_S, "sigma_g_S": rep.sigma_g_S,
            }
            if not rep.is_swallowtail:
                failures.append(f"{stage.name} t={t:.3f}: not a swallowtail")
            if predicate == "generic_swallowtail" and rep.sigma_g_S == 0:
                failures.append(f"{stage.name} t={t:.3f}: sigma_g_S = 0 (not generic)")
            if asymptotic:
                worst = entry["sigma_g_C_max"] = worsts[i]
                if worst > 1e-7:
                    failures.append(f"{stage.name} t={t:.3f}: sigma_g_C residual {worst:.2e}")
            if track_kext_sign is not None:
                ks = kext_signs[:, i][~np.isnan(kexts[:, i])].tolist()
                entry["kext_signs"] = ks
                if any(k != track_kext_sign for k in ks):
                    failures.append(f"{stage.name} t={t:.3f}: K_ext sign strayed from "
                                    f"{track_kext_sign}: {ks}")
            per_t.append(entry)

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
    rep = fr.classify(build(data, a))
    return rep.sigma0_S, rep.sigma_g_S, rep


class _UnitXiData:
    """Half-arclength normalization of SwallowtailData: unit xi, rescaled b.

    With u = u(t) the new parameter and S(u) = |xi(t(u))| the old speed,
    b_new(u, w) = b(t(u), w / S(u)) / S(u)^2.

    Its t(u) is a _UnionJets at _UNION_ORDER + 2, the order at which the xi
    union of an XiInterpolation reads it: the first read at an order >= 1
    computes t(u) at every point of _union_us(), and every later read there
    (by xi, gamma-hat, the speed S and b) takes it as a slice; their own
    compositions with t(u) run at each read.
    """

    def __init__(self, data: SwallowtailData):
        self.data = data
        self.curve = CurveGerm(data.gamma or gamma_from_xi(data.xi))
        self.H = H = HalfArclength(self.curve, xi=data.xi)
        H._t_jets = _UnionJets(H._table.t_jet, _UNION_ORDER + 2)
        self.xi = H.xi_hat()
        self.speed = H.speed()
        t_jet, speed, b = H.t_jet, self.speed, data.b

        def fn(u, w, order):
            K = order + 2
            tj = t_jet(u, K)
            Sj = speed.jet(u, 0.0, K)
            Vin = Jet2.variable("v", w, K, np.shape(u)) / Sj
            S2 = Sj * Sj
            return tuple((compose2(bj.c, K, tj, Vin) / S2).truncate(order)
                         for bj in vjet(b, tj.value(), w / Sj.value(), K))

        self.b = components(fn)
        self.gamma = H.gamma_hat()


def _normal_split(xi, b):
    """Providers (x3, tangential part) of b = x3 xi x xi' + tangential part:
    Theorem A interpolates x3 and strips the tangential part."""
    def fn(u, v, order):
        xj, dx, n = cusp_frame(xi, u, order)
        bj = vjet(b, u, v, order)
        x3 = det3(xj, dx, bj) / dot(n, n)
        return (x3, *(bj[k] - x3 * n[k] for k in range(3)))
    x3, *tang = components(fn, 4)
    return x3, tang


def _combine(*weighted):
    """Provider of the sum of w p over the (weight, provider) pairs; a weight
    is a float or a weight over the slots of a batch (fields.slot_weight)."""
    def fn(u, v, order):
        out = None
        for w, p in weighted:
            j = slot_weight(w, u, v) * p.jet(u, v, order)
            out = j if out is None else out + j
        return out
    return JetFn(fn)


# ---------------------------------------------------------------------------
# The xi-interpolation stage shared by Theorems A and D
# ---------------------------------------------------------------------------

def _kappa_tau(xi, u, v, order):
    """The (kappa, tau) jets of the unit field xi at u: the function of an
    endpoint's provider."""
    return curvature_torsion_of(xi, u, order)


def _union_us():
    """The u at which a certificate reads the endpoint fields of an
    XiInterpolation, each once, ascending: the starts of the march's steps,
    the axis reads of classify (frontal._AXIS_READ_US and the origin), the
    AXIS_SAMPLES of sigma_g_C and the u of the PROBES."""
    starts = march_steps(XiInterpolation.INTERVAL, FrenetData.step)[1]
    return np.unique(np.concatenate([starts, fr._AXIS_READ_US, AXIS_SAMPLES,
                                     [u for u, _ in PROBES]]))


# the highest order a certificate reads the endpoint (kappa, tau) at:
# classify's normal_jets reads the germ, so the interior xi, at the origin at
# fr.ORDER + 2, and the Frenet series memo computes one order above a read
# (FrenetPath.series); curvature_torsion_of reads xi two orders above that
_UNION_ORDER = fr.ORDER + 3


class _UnionJets(JetFn):
    """A JetFn of a function of u alone, whatever v it is read at, that reads
    the union of the points a certificate asks (_union_us()) once.  The
    function returns a jet or a tuple of jets: an endpoint field of an
    XiInterpolation, its (kappa, tau), or the half-arclength t(u) of a
    _UnitXiData.

    Its first read at an order >= 1 computes its jets at every point of the
    union at the order top, in one array call kept for the life of the
    provider; a read whose points all lie in the union, at an order up to
    top, is answered from it by slicing and truncation, which holds the bits
    of a direct call (fields.BoundedCache).  Any other read is computed at
    its own order, as a JetFn computes it: the order-0 check grid of a march,
    the starts of a split step, a point off the union.  A racing thread at
    worst computes the union twice."""

    def __init__(self, fn, top):
        super().__init__(fn)
        self._top = top
        self._union = None          # ({u: slot}, jets at top)

    def jet(self, u, v, order):
        union = self._union
        if union is None and order:
            us = _union_us()
            union = self._union = ({x: i for i, x in enumerate(us.tolist())},
                                   super().jet(us, 0.0, self._top))
        if union is not None and order <= self._top:
            slots = [union[0].get(x) for x in np.ravel(u).tolist()]
            if None not in slots:
                n = term_count(order)

                def cut(j):
                    return Jet2(order, j.c[:n, slots].reshape((n,) + np.shape(u)), j.u_only)
                jets = union[1]
                return cut(jets) if isinstance(jets, Jet2) else tuple(map(cut, jets))
        return super().jet(u, v, order)


def _endpoint_providers(xi):
    """The providers of an endpoint field xi of an XiInterpolation, each
    reading the union once: the three components of xi, read there two
    orders above _UNION_ORDER (curvature_torsion_of reads them so), and the
    (kappa, tau) of those, read there at _UNION_ORDER."""
    whole = _UnionJets(lambda u, v, order: vjet(xi, u, v, order), _UNION_ORDER + 2)
    xi_u = tuple(_Component(whole, k, 3) for k in range(3))
    return xi_u, _UnionJets(partial(_kappa_tau, xi_u), _UNION_ORDER)


def _initial_frame(xi):
    """Frenet frame (T, N, B) of a unit field at u = 0, as the rows."""
    T, dx = xi_frame(xi, 0.0, 1)
    N = dx / np.linalg.norm(dx)
    return np.stack([T, N, np.cross(T, N)])


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

    march(ts) integrates the paths of several t as one FrenetPath on
    INTERVAL, with a column per t, each column bit for bit the path marched
    alone.  fields(t) at the array of a stage's t marches its interior t so,
    right away; its providers take a float u or an array of them and fill
    (3, terms, *shape(u), len(t)): the interior slots from the batch's
    series, one computation per point set for all columns, and the slots
    t = 0 and t = 1 from the endpoint providers, spliced in.

    The kappa and tau of a batch are the two components of one provider,
    which takes a float u or an array of them, with the t axis after the
    axes of u.  The endpoint (kappa, tau) jets behind it do not depend on
    t, so they come from one provider per endpoint field, shared by every
    batch, and an array u reads them once for all its points.

    The endpoint fields xi and their (kappa, tau) are read through the
    union of the points that a certificate asks (_UnionJets): the march's
    step starts, classify's axis reads, sigma_g_C's AXIS_SAMPLES and the u
    of the K PROBES.  The first read of each at an order >= 1 computes it at
    all of them, at the highest order a certificate asks, and every later
    read there is a slice.  So a certificate reads the (kappa, tau) of each
    endpoint field in two curvature_torsion_of calls: the order-0 check grid
    of the march (FrenetPath), one call, and the union.  The unit fields of
    Theorems A and D read their half-arclength t(u) through the same union
    (_UnitXiData), so each endpoint's t(u) is computed in two calls as well:
    the union, and the check grid at order 2.  A stage with no
    interior t marches nothing and reads no (kappa, tau).  The end stages
    of Theorem A read their unit fields through the same providers, and the
    spliced slots t = 0 and t = 1 of every batch read them too.
    """

    INTERVAL = (-0.3, 0.3)

    def __init__(self, xi1, xi2, gammas=(None, None)):
        self.gammas = gammas
        R1, R2 = (_initial_frame(xi) for xi in (xi1, xi2))
        self.w = _rotation_log(R1.T @ R2)
        self.R1 = R1
        self.xi, self.kt = zip(*(_endpoint_providers(xi) for xi in (xi1, xi2)))

    def kappa_tau(self, t):
        """Providers of kappa and tau of the paths at the array t: the two
        components of one provider, with jets with a t axis after the axes
        of the point u (batch axes align from the left)."""
        kt1, kt2 = self.kt

        def fn(u, v, order):
            k1, t1 = kt1.jet(u, 0.0, order)
            k2, t2 = kt2.jet(u, 0.0, order)
            w = slot_weight(t, u)
            kt = k1 * (1.0 - w) + k2 * w
            num = k1 * (1.0 - w) * k1 * t1 + k2 * w * k2 * t2
            return kt, num / (kt * kt)

        return components(fn, 2)

    def march(self, ts):
        """One FrenetPath with a column per t of the sequence ts."""
        frame0 = np.stack([self.R1 @ _rotation_exp(t * self.w) for t in ts], axis=-1)
        kp, tp = self.kappa_tau(np.array(ts))
        return FrenetPath(FrenetData(kappa=kp, tau=tp, frame0=frame0), interval=self.INTERVAL)

    def path(self, t) -> FrenetColumn:
        """The path at the float t, marched alone: a batch of one."""
        return FrenetColumn(self.march([float(t)]), 0)

    def fields(self, t):
        """Providers (xi_t, gamma_t) of the interpolated unit field and of its
        cusp curve, the primitive of u xi_t: at a float t the endpoint
        providers at t = 0 and 1 and those of path(t) between; at an array
        of t, providers whose jets carry a slot per t."""
        if np.ndim(t) == 0:
            if float(t) in (0.0, 1.0):
                return self.xi[int(t)], self.gammas[int(t)]
            col = self.path(t)
            return col.xi_providers(), col.cusp_curve_providers()
        t = np.asarray(t, dtype=float)
        ends = (t == 0.0, t == 1.0)
        inner = ~(ends[0] | ends[1])
        path = self.march(t[inner]) if inner.any() else None

        def spliced(which, endpoint):
            def fn(u, v, order):
                c = np.empty((3, term_count(order)) + np.shape(u) + t.shape)
                u_only = True       # the series are of u alone
                if path is not None:
                    c[..., inner] = path.series_jets(u, order, which)
                for at, p in zip(ends, endpoint):
                    if at.any():
                        # read on the axis as the series are; of u alone if they say so
                        js = vjet(p, u, 0.0, order)
                        u_only = u_only and all(j.u_only for j in js)
                        c[..., at] = np.stack([j.c for j in js])[..., None]
                return tuple(Jet2(order, ck, u_only) for ck in c)
            return components(fn)
        return spliced(0, self.xi), spliced(4, self.gammas)


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
    interp = XiInterpolation(n1.xi, n2.xi, gammas=(n1.gamma, n2.gamma))
    # the end stages read the unit fields through the interpolation's union too
    e1, e2 = (SwallowtailData.of(xi, n.b, n.gamma) for xi, n in zip(interp.xi, (n1, n2)))
    notes.append("endpoints reparametrized to unit cusp fields (half-arclength)")

    x31, tang1 = _normal_split(e1.xi, e1.b)
    x32, tang2 = _normal_split(e2.xi, e2.b)

    def gen_stage1(t):
        b = tuple(_combine((1.0, e1.b[k]), (-t, tang1[k])) for k in range(3))
        return SwallowtailData.of(e1.xi, b, gamma=e1.gamma)

    def gen_stage3(t):
        b = tuple(_combine((1.0, e2.b[k]), (-(1.0 - t), tang2[k])) for k in range(3))
        return SwallowtailData.of(e2.xi, b, gamma=e2.gamma)

    def gen_stage2(t):
        xi_t, gamma_t = interp.fields(t)
        n = normal_field(xi_t)
        m = _combine((1.0 - t, x31), (t, x32))

        def fn(u, v, order):
            mj = m.jet(u, v, order)
            return tuple(mj * c for c in vjet(n, u, v, order))
        return SwallowtailData.of(xi_t, components(fn), gamma=gamma_t)

    return DeformationFamily(
        recipe="TheoremA",
        stages=[Stage("strip-tangential-1", gen_stage1),
                Stage("xi-interpolation", gen_stage2),
                Stage("restore-tangential-2", gen_stage3)],
        a=a, notes=notes, interp=interp)


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
        return SwallowtailData.of(d.xi, tuple(Scaled(c, t) for c in d.b), gamma=d.gamma)

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
    ddxi = tuple(_derivative(_derivative(c)) for c in d.xi)

    def gen(t):
        b = tuple(_combine((1.0 - t, d.b[k]), (0.25 * s0 * t, ddxi[k])) for k in range(3))
        return SwallowtailData.of(d.xi, b, gamma=d.gamma)

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
    n = normal_field(d.xi)

    if s > 0:
        def gen(t):
            q = Scaled(d.q, 1.0 - t)
            r = tuple(_combine((1.0 - t, d.r[k]), (t, n[k])) for k in range(3))
            return AsymptoticData.of(d.xi, q, r, gamma=d.gamma)
        name = "to-positive-normal-form"
    else:
        def gen(t):
            q = Scaled(d.q, np.sqrt(np.maximum(0.0, 1.0 - t)))
            r = tuple(_combine((1.0 - t, d.r[k]), (-t, n[k])) for k in range(3))
            return AsymptoticData.of(d.xi, q, r, gamma=d.gamma)
        name = "to-negative-normal-form"

    return DeformationFamily(recipe="Lemma3.7", stages=[Stage(name, gen, asymptotic=True)],
                             a=a, kext_sign=s)


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
    n1 = _UnitXiData(SwallowtailData.of(d1.xi, normal_field(d1.xi)))
    n2 = _UnitXiData(SwallowtailData.of(d2.xi, normal_field(d2.xi)))
    interp = XiInterpolation(n1.xi, n2.xi, gammas=(n1.gamma, n2.gamma))

    if curved and preserve_sign:
        famL1 = deform_lemma_3_7(d1, a)
        famL2 = deform_lemma_3_7(d2, a)

        def gen_mid(t):
            xi_t, gamma_t = interp.fields(t)
            n = normal_field(xi_t)
            return AsymptoticData.of(xi_t, Scaled(d1.q, 0.0),
                                     tuple(Scaled(c, float(k1)) for c in n), gamma=gamma_t)

        stages = [famL1.stages[0],
                  Stage("xi-interpolation", gen_mid, asymptotic=True),
                  Stage(famL2.stages[0].name + "-reversed",
                        _reversed_gen(famL2.stages[0].generator), asymptotic=True)]
        return DeformationFamily(recipe="TheoremD", stages=stages, a=a, notes=notes,
                                 kext_sign=int(k1))

    # general asymptotic route: scale (q, r) away, interpolate developables
    def gen_scale1(t):
        return AsymptoticData.of(d1.xi, Scaled(d1.q, 1.0 - t),
                                 tuple(Scaled(c, 1.0 - t) for c in d1.r), gamma=d1.gamma)

    def gen_scale2(t):
        return AsymptoticData.of(d2.xi, Scaled(d2.q, t), tuple(Scaled(c, t) for c in d2.r),
                                 gamma=d2.gamma)

    def gen_mid(t):
        xi_t, gamma_t = interp.fields(t)
        return AsymptoticData.of(xi_t, Scaled(d1.q, 0.0), tuple(Scaled(c, 0.0) for c in d1.r),
                                 gamma=gamma_t)

    stages = [Stage("scale-away-1", gen_scale1, asymptotic=True),
              Stage("developable-interpolation", gen_mid, asymptotic=True),
              Stage("scale-in-2", gen_scale2, asymptotic=True)]
    return DeformationFamily(recipe="TheoremD", stages=stages, a=a, notes=notes)


# ---------------------------------------------------------------------------
# Admissible-coordinate homotopy
# ---------------------------------------------------------------------------

def coordinate_homotopy(U, V):
    """Family of coordinate changes (u^t, v^t) = (a s + t A, b e + t B).

    U, V are expressions in (u, v) standing for the new coordinates; the
    admissibility inequalities are verified on a sample grid for each t
    and the result reports per-t pass/fail.
    """
    if isinstance(U, str):
        U = parse(U)
    if isinstance(V, str):
        V = parse(V)
    j0 = U.jet(0.0, 0.0, 1)
    if abs(j0.value()) > 1e-12:
        raise DeformError("u(0,0) != 0")
    alpha = j0.partial(1, 0)
    beta = V.jet(0.0, 0.0, 1).partial(0, 1)
    if alpha <= 0:
        raise DeformError(f"u_xi(0,0) = {alpha} <= 0: not admissible")
    if beta <= 0:
        raise DeformError(f"v_eta(0,0) = {beta} <= 0: not admissible")
    ss = np.linspace(-0.1, 0.1, 9)
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
