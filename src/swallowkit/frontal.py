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

import itertools
import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .fields import JetFn, over_v, pointwise
from .jets import Expr, Jet2, JetError, _apply_series, compose2, jet_sqrt, parse
from .metric import Along, SpaceForm, cross, dot

SIGN_TOL = 1e-9
ORDER = 6
# a point is regular when |f_u x f_v| > REGULAR_TOL (1 + |f_u||f_v|), and a
# singular point is of the first kind when the d_v part of its unit kernel
# exceeds KIND_TOL in size: the one band of each in classify, point_kind and
# epsilon_identity_residual
REGULAR_TOL = 1e-8
KIND_TOL = 1e-6
# the u of the axis samples of classify: where the u-axis must be singular
# (_axis_is_singular), and where a second-kind origin's neighbours are read
# for the generalized swallowtail status (_on_axis); a lone germ is read at
# their union but the origin in one array call (_axis_reads)
AXIS_US = (-0.08, -0.03, 0.0, 0.03, 0.08)
NEAR_US = (-0.05, -0.0125, 0.0125, 0.05)
_AXIS_READ_US = tuple(sorted(uu for uu in AXIS_US + NEAR_US if uu != 0.0))


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

    def __init__(self, components, sf=SpaceForm(0.0), exprs=None, data=None):
        self._components = tuple(components)
        self.sf = sf
        self.exprs = exprs
        self.data = data
        # over a module function, not a bound method: no reference cycle
        self._jets = JetFn(partial(_component_jets, self._components))

    @staticmethod
    def from_exprs(exprs, sf=SpaceForm(0.0), data=None):
        comps = tuple(parse(e) if isinstance(e, str) else e for e in exprs)
        return MapGerm(comps, sf=sf, exprs=comps, data=data)

    def fjet(self, u, v, order=ORDER):
        return self._jets.jet(u, v, order)

    def value(self, u, v):
        return np.array([j.value() for j in self.fjet(u, v, order=0)])

    def reparam(self, change):
        """Germ composed with a coordinate change (jets of (U, V) at a point)."""
        return _ReparamGerm(self, change)


def _column(germ, j):
    """Slot j of a batched germ as a lone germ; the germ itself for j None."""
    return germ if j is None else _ColumnGerm(germ, j)


def _component_jets(components, u, v, order):
    """Jets of the components at (u, v); expressions share one memo."""
    memo = {}
    return tuple(c.jet(u, v, order, memo) if isinstance(c, Expr) else c.jet(u, v, order)
                 for c in components)


class _ReparamGerm(MapGerm):
    def __init__(self, base, change):
        super().__init__(base._components, sf=base.sf, data=base.data)
        self._base = base
        self._change = change

    def fjet(self, u, v, order=ORDER):
        if np.ndim(u) or np.ndim(v):    # the change of coordinates takes scalar points
            return pointwise(self.fjet, u, v, order)
        Uj, Vj = self._change(u, v, order + 1)
        F = self._base.fjet(Uj.value(), Vj.value(), order + 1)
        return tuple(compose2(fj.c, order + 1, Uj, Vj).truncate(order) for fj in F)


class _ColumnGerm(MapGerm):
    """Slot j of a germ whose jets carry a batch axis, read as a lone germ:
    its jets are copies of the batch's column j."""

    def __init__(self, base, j):
        super().__init__(base._components, sf=base.sf, data=base.data)
        self._base = base
        self._j = j

    def fjet(self, u, v, order=ORDER):
        return tuple(Jet2(c.order, c.c[..., self._j].copy()) for c in self._base.fjet(u, v, order))


# ---------------------------------------------------------------------------
# Slots: the jets of a germ may carry one trailing batch axis, and every
# decision below is taken slot by slot, on floats, as for a lone germ
# ---------------------------------------------------------------------------

def _slots(jets, point_ndim=0):
    """Slot keys of jets at a point with point_ndim axes: [None] without a
    batch axis, else one per slot."""
    shape = jets[0].c.shape[1 + point_ndim:]
    return range(shape[0]) if shape else [None]


def _float(x):
    """A value read off jets: a float, or an array such as a 3-vector."""
    return float(x) if x.ndim == 0 else x


def _slot(x, j):
    """Slot j of values x read off a germ's jets (x itself for j None): a
    float, or an array such as a 3-vector."""
    return x if j is None else _float(x[..., j])


def _per_slot(fn, slots, *values):
    """fn at the values of a lone germ, or the list of fn at every slot."""
    out = [fn(*(_slot(x, j) for x in values)) for j in slots]
    return out[0] if slots == [None] else out


# ---------------------------------------------------------------------------
# Normal field and lambda
# ---------------------------------------------------------------------------

def normal_jets(germ: MapGerm, u, order=ORDER, g=None):
    """Jet of the unnormalized normal nu~ = (f_v x_g f_u)/v at the axis
    point (u, 0); g, if given, is the metric along the germ's jets of order
    order + 2 there.

    The division is the coefficient shift of a jet vanishing on the axis;
    if that fails the parametrization is not admissible at this point.
    """
    F = germ.fjet(u, 0.0, order + 2)
    Fu = tuple(c.du() for c in F)
    Fv = tuple(c.dv() for c in F)
    n = (Along(germ.sf, F) if g is None else g).cross(Fv, Fu)
    return tuple(c.divide_by_v() for c in n)


def lambda_jet(germ: MapGerm, u, v, order=ORDER, mode=None):
    """Jet of the degeneracy function lambda.

    For germs whose singular set is the u-axis (mode "axis") this is the
    g-determinant of f_u, f_v and the forward-oriented field (f_u x_g f_v)/v,
    which makes lambda = v |nu~|_g^2 and lambda_v(o) = |xi(0) x xi'(0)|^2 > 0;
    away from that structure (immersions, general germs; mode "unit") the
    unit normal is used instead, so an immersion has |lambda| = |f_u x f_v|_g.
    Without a mode it is found from the germ, "axis" if every slot's axis
    is singular.
    """
    if mode is None:
        mode = "axis" if np.all(_axis_is_singular(germ)) else "unit"
    F = germ.fjet(u, v, order + 3)
    Fu = tuple(c.du() for c in F)
    Fv = tuple(c.dv() for c in F)
    g = Along(germ.sf, F)
    n = g.cross(Fu, Fv)
    if mode == "unit":
        nn = g.norm(n)
        nt = tuple((c / nn).truncate(order + 1) for c in n)
    else:
        nt = tuple(over_v(c, v) for c in n)
    return g.det(Fu, Fv, nt).truncate(order)


# ---------------------------------------------------------------------------
# Null field along the axis
# ---------------------------------------------------------------------------

def _second_order(F):
    """The values (f, f_u, f_v, f_uu, f_uv, f_vv) at the point of the jets F
    of a map, each a 3-tuple of floats, or of arrays at an array point or
    for a batched germ: all that an invariant of at most second derivatives
    reads, so its jets are read at order 2."""
    return tuple(tuple(c.partial(i, j) for c in F)
                 for i, j in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))


def _axis_derivatives(germ, u):
    """Values of f_u and f_v at the axis point (u, 0), from jets of order 2."""
    _, fu, fv, *_ = _second_order(germ.fjet(u, 0.0, 2))
    return np.array(fu), np.array(fv)


def _kernel(fu, fv):
    """Kernel direction and singular values of the differential [fu fv]."""
    _, s, vt = np.linalg.svd(np.stack([fu, fv], axis=1))
    if s[0] == 0.0:
        raise ClassificationError("rank-0 differential: corank > 1")
    k = vt[-1]
    return k / np.linalg.norm(k), s


def _immersive(fu, fv):
    """Whether f_u and f_v (values at a point) span a plane."""
    # np.cross's products and differences, without its per-call set-up,
    # which costs several times the rest of the test: the test runs for
    # every slot and near-axis sample of classify
    (a0, a1, a2), (b0, b1, b2) = fu.tolist(), fv.tolist()
    n = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    return np.linalg.norm(n) > REGULAR_TOL * (1.0 + np.linalg.norm(fu) * np.linalg.norm(fv))


def _kind(fu, fv):
    """'regular' | 'first' | 'second' at a point with values f_u, f_v."""
    if _immersive(fu, fv):
        return "regular"
    k, _ = _kernel(fu, fv)
    return "first" if abs(k[1]) > KIND_TOL else "second"


def point_kind(germ: MapGerm):
    """'regular' | 'first' | 'second' at the origin, or a list of them, one
    per slot of a batched germ."""
    F = germ.fjet(0.0, 0.0, 2)
    _, fu, fv, *_ = _second_order(F)
    return _per_slot(_kind, _slots(F), np.array(fu), np.array(fv))


def _eps_field_jets(germ: MapGerm, u):
    """Jets at (u,0) of a null field zeta = alpha(u) d_u + eps(u) d_v.

    Built from the kernel of the first fundamental form along the axis:
    (F, -E) with E = <f_u, f_u>, F = <f_u, f_v>; smooth in u away from
    second-kind points, oriented so eps < 0 at the working point.
    """
    F = germ.fjet(u, 0.0, ORDER + 1)
    fu = tuple(c.du() for c in F)
    fv = tuple(c.dv() for c in F)
    E = dot(fu, fu)
    Fg = dot(fu, fv)
    norm = (Fg * Fg + E * E)
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
    orientation: str = "negative-frame"   # det(f_uv, f_v, nu)(o) < 0 in g
    raw: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def _second_kind_data(germ: MapGerm, order=ORDER):
    """Shared jets for the invariants at a second-kind origin."""
    F = germ.fjet(0.0, 0.0, order + 2)
    g = Along(germ.sf, F)
    fu = tuple(c.du().truncate(order) for c in F)
    fv = tuple(c.dv().truncate(order) for c in F)
    fuv = tuple(c.du().dv().truncate(order - 1) for c in F)
    nt = normal_jets(germ, 0.0, order, g)
    nn = g.norm(nt)
    nu = tuple(c / nn for c in nt)
    # covariant derivatives at the origin of the germ
    nu_u = g.nabla(fu, nu, tuple(c.du() for c in nu))
    nu_v = g.nabla(fv, nu, tuple(c.dv() for c in nu))
    fvv = g.nabla(fv, fv, tuple(c.dv() for c in fv))
    fuv_cov = g.nabla(fu, fv, tuple(c.du() for c in fv))
    return {
        "g": g, "fu": fu, "fv": fv, "fuv": fuv_cov, "fuv_plain": fuv,
        "nu": nu, "nu_u": nu_u, "nu_v": nu_v, "fvv": fvv, "ntilde": nt,
    }


def _vals(vec):
    return np.array([c.value() if isinstance(c, Jet2) else c for c in vec])


# Each invariant at the origin is its values, read off the jets of a lone
# germ or of a batch (_..._values), and a decision on the floats of one slot.

def _sigma0_S_values(d):
    return d["g"].inner(d["fuv"], d["nu_u"]).value(), _vals(d["fuv"]), _vals(d["nu_u"])


def _sigma0_S(val, fuv, nu_u):
    return -sgn(val, float(np.linalg.norm(fuv) * np.linalg.norm(nu_u))), -val


def sigma0_S(germ: MapGerm):
    """Sign invariant whose non-vanishing detects a swallowtail (o 2nd kind):
    (sign, raw value), or a list of them, one per slot of a batched germ."""
    d = _second_kind_data(germ)
    return _per_slot(_sigma0_S, _slots(d["fu"]), *_sigma0_S_values(d))


def _sigma_g_S_values(d):
    return d["g"].inner(d["fvv"], d["nu"]).value(), _vals(d["fvv"])


def _sigma_g_S(val, fvv):
    return sgn(val, float(np.linalg.norm(fvv))), val


def sigma_g_S(germ: MapGerm):
    """Sign of the limiting-normal-curvature numerator (genericity)."""
    d = _second_kind_data(germ)
    return _per_slot(_sigma_g_S, _slots(d["fu"]), *_sigma_g_S_values(d))


def _kappa_nu_values(d):
    return d["g"].inner(d["fvv"], d["nu"]).value(), d["g"].inner(d["fv"], d["fv"]).value()


def _kappa_nu(num, den):
    if den == 0.0:
        raise ClassificationError("f_v vanishes at the origin")
    return num / den


def limiting_normal_curvature(germ: MapGerm):
    d = _second_kind_data(germ)
    return _per_slot(_kappa_nu, _slots(d["fu"]), *_kappa_nu_values(d))


def _mu_C_values(d):
    g = d["g"]
    fv_norm = g.norm(d["fv"]).value()
    num = g.inner(d["fuv"], d["nu_u"]).value()
    return fv_norm, num, g.norm(g.cross(d["fuv"], d["fv"])).value()


def _mu_C(fv_norm, num, den):
    if den == 0.0:
        raise ClassificationError("degenerate: nabla_v f_u(o) x f_v(o) = 0")
    return -(fv_norm ** 3) * num / den


def normalized_cuspidal_curvature(germ: MapGerm):
    """mu_C; its sign equals sigma0_S."""
    d = _second_kind_data(germ)
    return _per_slot(_mu_C, _slots(d["fu"]), *_mu_C_values(d))


def classify(germ: MapGerm, at=(0.0, 0.0)):
    """Full singularity report at a point (admissible or general position).

    A germ whose jets carry a trailing batch axis (one slot per t of a
    deformation stage, say) gets a list of reports, one per slot, each
    equal to the report of that slot's germ checked alone; a lone germ is a
    batch of one.  The jets are computed once for the batch, and every
    threshold, SVD, norm and sign is decided per slot.  The slots singular
    at the origin along a singular u-axis go on together, as one batch
    (_on_axis); any other singular slot goes on alone, on its column of the
    germ, after make_admissible.  One failure rule covers the batch: if it
    raises (any ValueError), it keeps no partial report, and its slots go
    alone too, each on its own singular axis.  The slots that go alone run
    in slot order, so the first of them that raises decides the batch's
    error; a lone germ raises what it raises."""
    at = (float(at[0]), float(at[1]))
    F = germ.fjet(at[0], at[1], 3)
    if not all(np.isfinite(c.c).all() for c in F):
        raise ClassificationError(f"the jets of the germ at {at} are not finite")
    slots = _slots(F)
    reps = {j: SingularityReport(at=at, a=germ.sf.a) for j in slots}
    fu = _vals(tuple(c.du() for c in F))
    fv = _vals(tuple(c.dv() for c in F))
    # slot -> mode of the slots that go alone: None through make_admissible,
    # "axis" on their own singular axis
    axis, near, common, alone = None, None, {}, {}
    for j, rep in reps.items():
        if _immersive(_slot(fu, j), _slot(fv, j)):
            rep.kind = "regular"
            rep.is_frontal = True
            rep.is_nondegenerate = True
            continue
        if at == (0.0, 0.0):
            if axis is None:
                axis, near = _axis_reads(germ, slots)
            if axis if j is None else axis[j]:
                common[j] = rep
                continue
        alone[j] = None
    if common:
        try:
            _on_axis(germ, common, mode="axis", near=near)
        except ValueError:
            if None in common:
                raise
            for j in common:
                reps[j] = SingularityReport(at=at, a=germ.sf.a)
                alone[j] = "axis"
    for j in sorted(alone):
        work = _column(germ, j)
        if alone[j] is None:
            work = make_admissible(work, at)
        _on_axis(work, {None: reps[j]}, alone[j])
    return reps[None] if slots == [None] else list(reps.values())


def _on_axis(work, reps, mode=None, near=None):
    """The rest of classify at the origin of work, a germ whose singular set
    is the u-axis: fills in reps (slot -> report, for some slots of work,
    or {None: report} for a lone germ).  near, if given, holds the values
    (f_u, f_v) at NEAR_US, else they are read here.  A slot that leaves on
    a verdict is dropped from the later steps; an exception of any slot is
    raised for the whole call.  Two rules hold for a lone germ only: a
    normal field that v does not divide is a note on the report, not an
    error, and a domain error of mu_C comes after the three sign
    decisions."""
    live = dict(reps)
    try:
        nt = normal_jets(work, 0.0)
    except JetError as exc:
        if None not in reps:
            raise
        reps[None].notes.append(f"not admissible / not frontal: {exc}")
        return
    nt0 = _vals(nt)
    du0 = _vals(tuple(c.du() for c in work.fjet(0, 0, 3)))
    for j, rep in list(live.items()):
        ntscale = max(np.linalg.norm(_slot(du0, j)), 1.0)
        rep.is_frontal = np.linalg.norm(_slot(nt0, j)) > 1e-9 * ntscale
        if not rep.is_frontal:
            rep.notes.append("unnormalized normal vanishes at the point")
            del live[j]
    if not live:
        return

    lam = lambda_jet(work, 0.0, 0.0, 2, mode)
    l10, l01, l02 = lam.partial(1, 0), lam.partial(0, 1), lam.partial(0, 2)
    for j, rep in list(live.items()):
        rep.lambda_v = _slot(l01, j)
        dlam = math.hypot(_slot(l10, j), _slot(l01, j))
        rep.is_nondegenerate = dlam > 1e-9 * (1.0 + abs(_slot(l02, j)))
        if not rep.is_nondegenerate:
            rep.notes.append("degenerate singular point (d lambda = 0); invariants suppressed")
            del live[j]
    if not live:
        return

    fu, fv = _axis_derivatives(work, 0.0)
    for j, rep in list(live.items()):
        k, _ = _kernel(_slot(fu, j), _slot(fv, j))
        rep.null_vector = (float(k[0]), float(k[1]))
        rep.kind = "first" if abs(k[1]) > KIND_TOL else "second"
        if rep.kind == "second":
            continue
        s0c, raw = sigma0_C(_column(work, j), 0.0)
        rep.is_cuspidal_edge = s0c != 0
        rep.is_wavefront = rep.is_cuspidal_edge
        rep.raw["sigma0_C"] = raw
        del live[j]
    if not live:
        return

    # second kind: generalized swallowtail status from nearby axis points
    if near is None:
        near = [_axis_derivatives(work, uu) for uu in NEAR_US]
    for j, rep in live.items():
        kinds = [_kind(_slot(a, j), _slot(b, j)) for a, b in near]
        rep.is_generalized_swallowtail = all(km in ("first", "regular") for km in kinds)

    shared = _second_kind_data(work, order=4)
    s0, sg, kn = (f(shared) for f in (_sigma0_S_values, _sigma_g_S_values, _kappa_nu_values))
    for j, rep in live.items():
        rep.sigma0_S, rep.raw["sigma0_S"] = _sigma0_S(*(_slot(x, j) for x in s0))
        rep.sigma_g_S, rep.raw["sigma_g_S"] = _sigma_g_S(*(_slot(x, j) for x in sg))
        rep.kappa_nu = _kappa_nu(*(_slot(x, j) for x in kn))

    # a domain error of mu_C comes after the three sign decisions
    mu = _mu_C_values(shared)
    # wave front: (f, nu) immersive, i.e. the stacked 6x2 differential has rank 2
    dfs = [_vals(shared[key]) for key in ("fu", "fv", "nu_u", "nu_v")]
    for j, rep in live.items():
        try:
            rep.mu_C = _mu_C(*(_slot(x, j) for x in mu))
        except ClassificationError as exc:
            rep.notes.append(str(exc))
        M = np.zeros((6, 2))
        M[:3, 0], M[:3, 1], M[3:, 0], M[3:, 1] = (_slot(x, j) for x in dfs)
        sv = np.linalg.svd(M, compute_uv=False)
        rep.is_wavefront = sv[1] > 1e-8 * (1.0 + sv[0])
        rep.is_swallowtail = bool(rep.is_wavefront and rep.is_generalized_swallowtail)


def _axis_reads(germ, slots):
    """(_axis_is_singular(germ), the values (f_u, f_v) at NEAR_US or None),
    for a germ singular at the origin in some slot, as classify calls it.

    The germ is read at the union of AXIS_US and NEAR_US but the origin,
    whose sample classify has already decided, in one array call of order
    2, the point axis before the slot axis of a batched germ; each point of
    each slot holds the bits of its scalar read, and the verdict is taken
    per slot.  If that call raises, the axis is read point by point as
    _axis_is_singular reads it, and _on_axis reads the near points itself,
    so no verdict and no error moves."""
    try:
        fu, fv = _axis_derivatives(germ, np.array(_AXIS_READ_US))
    except ValueError:
        return _axis_is_singular(germ), None
    read = {uu: (fu[:, i], fv[:, i]) for i, uu in enumerate(_AXIS_READ_US)}
    sing = [all(not _immersive(*(_slot(x, j) for x in read[uu])) for uu in AXIS_US if uu != 0.0)
            for j in slots]
    return sing[0] if slots == [None] else sing, [read[uu] for uu in NEAR_US]


def _axis_is_singular(germ: MapGerm):
    """Whether the u-axis is singular at every sample: a bool, or a list of
    them, one per slot of a batched germ."""
    out = None
    for uu in AXIS_US:
        F = germ.fjet(uu, 0.0, 1)
        fu = _vals(tuple(c.du() for c in F))
        fv = _vals(tuple(c.dv() for c in F))
        slots = _slots(F)
        sing = [not _immersive(_slot(fu, j), _slot(fv, j)) for j in slots]
        out = sing if out is None else [a and b for a, b in zip(out, sing)]
        if not any(out):
            break
    return out[0] if slots == [None] else out


# ---------------------------------------------------------------------------
# Invariants along the axis (first-kind points)
# ---------------------------------------------------------------------------

def sigma0_C(germ: MapGerm, u):
    """Cuspidal-curvature sign at the first-kind point (u, 0).

    Uses the null field zeta oriented with negative v-component, which makes
    the limit at a second-kind center agree with sigma0_S.
    """
    alpha, eps, fu, fv, F = _eps_field_jets(germ, u)
    if abs(eps.value()) < 1e-12 and abs(alpha.value()) > 1e-6:
        raise ClassificationError(f"(u,0)=({u},0) is not of the first kind")
    g = Along(germ.sf, F)

    def cov_zeta(X):
        Xu = tuple(c.du() for c in X)
        Xv = tuple(c.dv() for c in X)
        o = min(Xu[0].order, alpha.order)
        zX = tuple(alpha.truncate(o) * Xu[k].truncate(o) + eps.truncate(o) * Xv[k].truncate(o)
                   for k in range(3))
        dfz = tuple(alpha.truncate(o) * fu[k].truncate(o) + eps.truncate(o) * fv[k].truncate(o)
                    for k in range(3))
        return g.nabla(dfz, X, zX)

    fz = tuple(alpha * fu[k] + eps * fv[k] for k in range(3))
    fzz = cov_zeta(fz)
    fzzz = cov_zeta(fzz)
    det = g.det(fu, fzz, fzzz).value()
    scale = (np.linalg.norm(_vals(fu)) * np.linalg.norm(_vals(fzz)) * np.linalg.norm(_vals(fzzz)))
    return sgn(det, scale), det


def sigma_g_C(germ: MapGerm, u):
    """Limiting-normal-curvature sign at the first-kind point (u, 0):
    (sign, raw value), or a list of them, one per slot of a batched germ.
    At a 1-D array u, the list of those at its points, from one jet call
    (the point axis before the slot axis), each bit for bit its scalar
    call."""
    F = germ.fjet(u, 0.0, 2)
    f, fu, fv, fuu, _, fvv = _second_order(F)
    g = Along(germ.sf, f)
    fvv = g.nabla(fv, fv, fvv)
    fuu = g.nabla(fu, fu, fuu)
    # + 0.0: a zero comes out +0.0, as from the value slot of a jet product
    values = (g.det(fu, fuu, fvv) + 0.0, np.array(fu), np.array(fuu), np.array(fvv))
    slots = _slots(F, np.ndim(u))
    if np.ndim(u) == 0:
        return _per_slot(_sigma_g_C, slots, *values)
    after = () if slots == [None] else (slice(None),)
    return [_per_slot(_sigma_g_C, slots, *(_float(x[(..., i) + after]) for x in values))
            for i in range(len(u))]


def _sigma_g_C(det, fu, fuu, fvv):
    return sgn(det, np.linalg.norm(fu) * np.linalg.norm(fuu) * np.linalg.norm(fvv)), det


def epsilon_identity_residual(germ: MapGerm, u):
    """Residual of <f_uu, nu~> = eps^2 <f_vv, nu~> at the singular point (u,0):
    (residual, eps), or a list of them, one per slot of a batched germ, each
    that of the slot's germ alone."""
    F = germ.fjet(u, 0.0, 2)
    f, fu, fv, fuu, _, fvv = _second_order(F)
    slots = _slots(F)
    # [()]: a float for a lone germ, an array over the slots of a batch
    eps = np.array(_per_slot(partial(_eps, u), slots, np.array(fu), np.array(fv)))[()]
    g = Along(germ.sf, f)
    fuu = g.nabla(fu, fu, fuu)
    fvv = g.nabla(fv, fv, fvv)
    nt = _vals(normal_jets(germ, u, ORDER - 1))
    lhs = g.inner(fuu, nt)
    rhs = eps * eps * g.inner(fvv, nt)
    return _per_slot(lambda r, e: (r, e), slots, abs(lhs - rhs) / (1.0 + abs(lhs)), eps)


def _eps(u, fu, fv):
    """eps of the null field d_u + eps d_v at the singular point (u, 0)."""
    if _immersive(fu, fv):
        raise ClassificationError(f"({u}, 0) is a regular point")
    k, _ = _kernel(fu, fv)
    if abs(k[0]) < 1e-9:
        raise ClassificationError("null field has no d_u component; eps not resolvable")
    return k[1] / k[0]


def limit_normal_at_second_kind(germ: MapGerm, probes=(0.01, -0.01)):
    """Limit direction of the unit normal along the axis at a 2nd-kind origin.

    Returns (direction, worst_angle): the direction f_v(o) x_g f_uv(o) up to
    positive scale, and the largest angle to the normalized nu~ at the probe
    points, which must be small for a consistent frontal.
    """
    d = _second_kind_data(germ)
    direction = _vals(d["g"].cross(d["fv"], d["fuv"]))
    nd = np.linalg.norm(direction)
    if nd == 0.0:
        raise ClassificationError("degenerate limit normal")
    direction = direction / nd
    worst = 0.0
    for uu in probes:
        nt = _vals(normal_jets(germ, uu, 2))
        nt = nt / np.linalg.norm(nt)
        ang = math.acos(max(-1.0, min(1.0, float(np.dot(nt, direction)))))
        worst = max(worst, ang)
    return direction, worst


def project_to_limiting_tangent_plane(germ: MapGerm):
    """Project to the plane orthogonal to nu(o); test for a planar cusp.

    Returns (is_whitney_cusp, planar_curve_jets): the projected singular
    curve u -> f^(u, 0) written in an orthonormal basis of the plane.
    """
    rep_kind = point_kind(germ)
    if rep_kind == "regular":
        raise ClassificationError("immersion at the origin: no singular curve")
    d = _second_kind_data(germ)
    nu0 = _vals(d["nu"])
    # orthonormal basis of the limiting tangent plane
    e1 = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(e1, nu0)) > 0.9:
        e1 = np.array([0.0, 1.0, 0.0])
    e1 = e1 - np.dot(e1, nu0) * nu0
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nu0, e1)
    G = germ.fjet(0.0, 0.0, ORDER)
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

def fundamental_forms(germ: MapGerm, at):
    """(E, F, G, L, M, N) of the germ in its space form at a regular point.

    The six forms are values, so they are computed from the values of the
    germ's jets of order 2 (_second_order): floats at a point.  at = (u, v)
    may hold arrays (one germ.fjet call for all points, points on an axis
    spliced in by the providers), and each point is computed on its own,
    bit for bit as a scalar call.  A singular point raises
    ClassificationError when at is a point, and gives NaN in its slots of
    all six forms when at holds arrays."""
    u, v = at
    f, fu, fv, fuu, fuv, fvv = _second_order(germ.fjet(u, v, 2))
    g = Along(germ.sf, f)
    E, Fi, G = (g.inner(x, y) for x, y in ((fu, fu), (fu, fv), (fv, fv)))
    n = g.cross(fu, fv)
    nsq = g.inner(n, n)
    singular = np.asarray(nsq <= 1e-18 * (1.0 + E * G))
    if singular.ndim == 0 and singular:
        raise ClassificationError(f"singular point at {at}")
    # |n|^2 = 1 carries singular slots through sqrt and division; NaN below
    nn = np.sqrt(np.where(singular, 1.0, nsq))
    nu = tuple(c / nn for c in n)
    fuu = g.nabla(fu, fu, fuu)
    fuv = g.nabla(fu, fv, fuv)
    fvv = g.nabla(fv, fv, fvv)
    forms = (E, Fi, G) + tuple(g.inner(x, nu) for x in (fuu, fuv, fvv))
    # + 0.0: a zero form comes out +0.0, as from the value slot of a jet product
    return tuple(_float(np.where(singular, np.nan, x + 0.0)) for x in forms)


def gaussian_curvature(germ: MapGerm, at):
    """(K, K_ext) at a regular point.

    The model metric w^-2 g_E, w = 1 + a|p|^2, has constant sectional
    curvature 4a (at the origin Hess(-ln w) = -2a I, and each of the two
    directions of a plane contributes 2a), so the Gauss equation gives
    K = 4a + K_ext.

    at = (u, v) may hold arrays, as for fundamental_forms: then K and K_ext
    are arrays, NaN at the singular points (where EG - F^2 = 0 too), and a
    scalar call there raises ClassificationError."""
    E, F, G, L, M, N = fundamental_forms(germ, at)
    den = E * G - F * F
    if np.ndim(den):
        den = np.where(den == 0.0, np.nan, den)
    elif den == 0.0:
        raise ClassificationError(f"singular point at {at}")
    K_ext = (L * N - M * M) / den
    return 4.0 * germ.sf.a + K_ext, K_ext


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


def make_admissible(germ: MapGerm, at):
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

    solved = {}

    def offset_at(s0):
        """Value c0 of c at s0, by Newton's method on lambda along N.  It
        depends on s0 alone, so it is solved once per s0 (a zero by its sign
        too) for the life of the change of coordinates."""
        key = (s0, math.copysign(1.0, s0))
        if key in solved:
            return solved[key]
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
        solved[key] = c0
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
        # implicit series c(s) with psi(s, c(s)) = 0 by Newton on jets of s
        # alone; psi_c is known to degree K - 1, so its series is cut there
        psi_c = psi.dv()
        cser = Jet2.constant(0.0, K)
        for _ in range(max(2, math.ceil(math.log2(K + 1)) + 1)):
            den = compose2(psi_c.c, K - 1, sj.truncate(K - 1), cser.truncate(K - 1))
            cser = cser - compose2(psi.c, K, sj, cser) / den.truncate(K)
        # assemble (U, V) jets at (s0, t0)
        s = Jet2.variable("u", 0.0, o, ())
        t = Jet2.variable("v", t0, o, ())
        offs = t + _apply_series(cser.series()[:o + 1], s)
        Uj = float(base[0]) + float(T[0]) * s + float(Nv[0]) * offs
        Vj = float(base[1]) + float(T[1]) * s + float(Nv[1]) * offs
        return Uj, Vj

    return germ.reparam(change)


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


# (0, 0, 0) and the 13 cell offsets after it in lexicographic order: they
# visit each cell and each unordered pair of neighbouring cells once
_OFFSETS = [d for d in itertools.product((-1, 0, 1), repeat=3) if d >= (0, 0, 0)]


def _close_pairs(P, r):
    """Index pairs (i, j), i < j, of the rows of P (n x 3, finite) at
    distance <= r, each once: the pair set of a k-d tree's query_pairs(r).

    A cell list (Bentley, Stanat & Williams, "The complexity of finding
    fixed-radius near neighbors", IPL 6, 1977): the points are binned into
    cubes of side r, and each occupied cube is compared with itself and its
    13 forward neighbours."""
    # the side is a hair over r, so that rounding cannot put two points at
    # distance r two cells apart
    c = np.floor((P - P.min(axis=0)) / (r * (1.0 + 1e-9))).astype(np.int64)
    # per axis, a gap between occupied layers closes to 2: neighbours stay
    # neighbours, and the cell key stays small whatever the extent of P
    for k in range(3):
        layers, inv = np.unique(c[:, k], return_inverse=True)
        c[:, k] = np.concatenate(([1], np.minimum(np.diff(layers), 2))).cumsum()[inv]
    dims = c.max(axis=0) + 2
    key = (c[:, 0] * dims[1] + c[:, 1]) * dims[2] + c[:, 2]
    order = np.argsort(key, kind="stable")
    cells, start, count = np.unique(key[order], return_index=True, return_counts=True)
    found = []
    for dx, dy, dz in _OFFSETS:
        other = cells + (dx * dims[1] + dy) * dims[2] + dz
        pos = np.minimum(np.searchsorted(cells, other), len(cells) - 1)
        a = np.nonzero(cells[pos] == other)[0]
        b = pos[a]
        m = count[a] * count[b]
        owner = np.repeat(np.arange(len(a)), m)
        ia, ib = np.divmod(np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m), count[b][owner])
        if dx == dy == dz == 0:     # within a cell, each pair once
            once = ia < ib
            ia, ib, owner = ia[once], ib[once], owner[once]
        i, j = order[start[a][owner] + ia], order[start[b][owner] + ib]
        # tested per offset: only one offset's candidates are held at a time
        near = sum((P[i, k] - P[j, k]) ** 2 for k in range(3)) <= r * r
        i, j = i[near], j[near]
        found.append(np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1))
    return np.concatenate(found)


def self_intersection_side(germ: MapGerm):
    """Sign of v on the side of the axis carrying the self-intersections.

    Proximity search on a local 81 x 81 grid, by a cell list (_close_pairs):
    pairs of well-separated parameter points with nearly equal images vote
    with the v-sign of their midpoints."""
    uu = np.linspace(-0.25, 0.25, 81)
    Ug, Vg = np.meshgrid(uu, uu, indexing="ij")
    F = germ.fjet(Ug, Vg, 0)
    P = np.stack([c.value() for c in F], axis=-1).reshape(-1, 3)
    if not np.isfinite(P).all():
        raise ClassificationError("the image of the grid near the origin is not finite")
    h = 0.5 / 80   # the step of the grid
    i, j = _close_pairs(P, 0.35 * h).T
    U, V = Ug.ravel(), Vg.ravel()
    voters = ((np.hypot(U[i] - U[j], V[i] - V[j]) >= 6 * h)
              & (np.abs(V[i]) >= h) & (np.abs(V[j]) >= h))
    if not voters.any():
        raise ClassificationError("no self-intersections detected near the origin")
    return 1 if np.sign(V[i] + V[j])[voters].sum() > 0 else -1


def tail_probes(germ: MapGerm, n=20):
    """Probe points on the tail side (the side without self-intersections):
    n random draws at which the Gaussian curvature is defined.  Once 100 n
    draws have been rejected, it raises ClassificationError."""
    side = -self_intersection_side(germ)
    rng = np.random.default_rng(7)
    pts, rejected = [], 0
    while len(pts) < n:
        u = rng.uniform(-0.1, 0.1)
        v = side * rng.uniform(0.02, 0.2)
        try:
            gaussian_curvature(germ, (u, v))
        except ClassificationError:
            rejected += 1
            if rejected == 100 * n:
                raise ClassificationError(f"no regular point on the tail side: {rejected} "
                                          f"draws rejected, {len(pts)} of {n} probes found")
            continue
        pts.append((u, v))
    return pts
