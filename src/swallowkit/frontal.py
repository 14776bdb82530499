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
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .fields import JetFn, over_v, pointwise, vjet, whole_vector
from .jets import Jet2, JetError, _apply_series, compose2, jet_sqrt, parse
from .metric import Along, SpaceForm, cross, dot

SIGN_TOL = 1e-9
ORDER = 6
# the order classify reads the origin at first: the highest it reads there
# (normal_jets at ORDER), so that every later read there is a memo truncation
TOP_ORDER = ORDER + 2
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
    """Sign with a tolerance band: |x| <= tol*(1+|scale|) counts as zero (NaN
    as -1).  An int, or an int array of the signs of an array x.

    tol defaults to SIGN_TOL as it is when called (the CLI's --tol-sign)."""
    if tol is None:
        tol = SIGN_TOL
    s = np.where(np.abs(x) <= tol * (1.0 + np.abs(scale)), 0, np.where(x > 0, 1, -1))
    return int(s) if s.ndim == 0 else s


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
        # a whole components() vector is read through its own JetFn and memo;
        # separate components share a JetFn over a module function, not a
        # bound method: no reference cycle
        self._jets = whole_vector(self._components) or JetFn(partial(vjet, self._components))

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


_column = _ColumnGerm     # slot j of a batched germ, as classify takes it alone


# ---------------------------------------------------------------------------
# Slots: the jets of a germ may carry one trailing batch axis, and every
# decision below is one array operation over that axis, a lone germ being a
# batch of one.  Each slot holds the bits of its germ decided alone: vectors
# are rows, their norms np.sqrt(np.vecdot(x, x)) (the 1-D np.linalg.norm;
# its axis form rounds otherwise) and stacked SVDs are those of each matrix
# ---------------------------------------------------------------------------

def _lone(jets, point_ndim=0):
    """Whether jets at a point with point_ndim axes carry no batch axis."""
    return jets[0].c.ndim == 1 + point_ndim


def _batched(x, point_ndim=0):
    """Values x read off a germ's jets at a point with point_ndim axes, with
    one slot axis after the point axes: a lone germ's as a batch of one."""
    x = np.asarray(x)
    return x.reshape(x.shape[:point_ndim] + (-1,))


def _rows(vec, point_ndim=0):
    """The values of a 3-vector of jets (or of values) as rows (point...,
    slot, 3), contiguous."""
    x = np.array([c.value() if isinstance(c, Jet2) else c for c in vec])
    x = x.reshape(x.shape[:1 + point_ndim] + (-1,))
    return np.ascontiguousarray(x.transpose(tuple(range(1, x.ndim)) + (0,)))


def _norm(x):
    """The norm of each row of x, as np.linalg.norm gives it for the row."""
    return np.sqrt(np.vecdot(x, x))


def _unbatch(lone, *columns):
    """Python values per slot of arrays over the slots (a tuple per slot for
    several): the values of a lone germ, or the list of them of a batch."""
    out = list(zip(*(c.tolist() for c in columns))) if len(columns) > 1 else columns[0].tolist()
    return out[0] if lone else out


def _raise_first(*checks):
    """Raise the ClassificationError of the first failing slot: checks are
    (failing, message) pairs, failing a mask over the slots, in the order in
    which one slot is checked."""
    failing = [(int(bad.argmax()), i) for i, (bad, _) in enumerate(checks) if bad.any()]
    if failing:
        raise ClassificationError(checks[min(failing)[1]][1])


def _write(reps, slots, **fields):
    """Write each field's array over the slots, as Python values, into the
    report of each slot."""
    for name, x in fields.items():
        for j, value in zip(slots.tolist(), x.tolist()):
            setattr(reps[j], name, value)


def _verdict(reps, slots, name, ok, note):
    """Write verdict `name` into the reports of the slots, note it where it
    fails, and return the slots that pass."""
    _write(reps, slots, **{name: ok})
    for j in slots[~ok].tolist():
        reps[j].notes.append(note)
    return slots[ok]


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
    """Values of f_u and f_v at the axis point (u, 0), from jets of order 2,
    as rows (..., 3): the point axes, then the slot axis of a batch."""
    _, fu, fv, *_ = _second_order(germ.fjet(u, 0.0, 2))
    return np.stack(fu, axis=-1), np.stack(fv, axis=-1)


_RANK0 = "rank-0 differential: corank > 1"


def _kernel(fu, fv):
    """Unit kernel directions (..., 2) and singular values (..., 2) of the
    differentials [f_u f_v], rows (..., 3) of values: one stacked SVD.  A
    rank-0 differential (singular values 0) is the caller's to refuse."""
    _, s, vt = np.linalg.svd(np.stack([fu, fv], axis=-1))
    k = vt[..., -1, :]
    return k / _norm(k)[..., None], s


def _immersive(fu, fv):
    """Whether f_u and f_v span a plane, at each row (..., 3) of values."""
    # the cross product by hand (np.cross's set-up costs more than the test):
    # component i is fu[i+1] fv[i+2] - fu[i+2] fv[i+1]
    n = fu[..., [1, 2, 0]] * fv[..., [2, 0, 1]] - fu[..., [2, 0, 1]] * fv[..., [1, 2, 0]]
    return _norm(n) > REGULAR_TOL * (1.0 + _norm(fu) * _norm(fv))


def _kinds(fu, fv):
    """'regular' | 'first' | 'second' at each row (..., 3) of values f_u, f_v."""
    regular = _immersive(fu, fv)
    k, s = _kernel(fu, fv)
    _raise_first((~regular & (s[..., 0] == 0.0), _RANK0))
    return np.where(regular, "regular", np.where(np.abs(k[..., 1]) > KIND_TOL, "first", "second"))


def point_kind(germ: MapGerm):
    """'regular' | 'first' | 'second' at the origin, or a list of them, one
    per slot of a batched germ."""
    F = germ.fjet(0.0, 0.0, 2)
    _, fu, fv, *_ = _second_order(F)
    return _unbatch(_lone(F), _kinds(_rows(fu), _rows(fv)))


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
    nt = normal_jets(germ, 0.0, order, g)
    nn = g.norm(nt)
    nu = tuple(c / nn for c in nt)
    # covariant derivatives at the origin of the germ
    nu_u = g.nabla(fu, nu, tuple(c.du() for c in nu))
    nu_v = g.nabla(fv, nu, tuple(c.dv() for c in nu))
    fvv = g.nabla(fv, fv, tuple(c.dv() for c in fv))
    fuv_cov = g.nabla(fu, fv, tuple(c.du() for c in fv))
    return {
        "g": g, "fu": fu, "fv": fv, "fuv": fuv_cov,
        "nu": nu, "nu_u": nu_u, "nu_v": nu_v, "fvv": fvv, "ntilde": nt,
    }


def _vals(vec):
    return np.array([c.value() if isinstance(c, Jet2) else c for c in vec])


# Each invariant at the origin is an array over some slots (those classify
# has left; slice(None) for all) of the second-kind data d.

def _sigma0_S(d, slots):
    val = _batched(d["g"].inner(d["fuv"], d["nu_u"]).value())[slots]
    return -sgn(val, _norm(_rows(d["fuv"])[slots]) * _norm(_rows(d["nu_u"])[slots])), -val


def sigma0_S(germ: MapGerm):
    """Sign invariant whose non-vanishing detects a swallowtail (o 2nd kind):
    (sign, raw value), or a list of them, one per slot of a batched germ."""
    d = _second_kind_data(germ)
    return _unbatch(_lone(d["fu"]), *_sigma0_S(d, slice(None)))


def _sigma_g_S(d, slots):
    val = _batched(d["g"].inner(d["fvv"], d["nu"]).value())[slots]
    return sgn(val, _norm(_rows(d["fvv"])[slots])), val


def sigma_g_S(germ: MapGerm):
    """Sign of the limiting-normal-curvature numerator (genericity)."""
    d = _second_kind_data(germ)
    return _unbatch(_lone(d["fu"]), *_sigma_g_S(d, slice(None)))


def _kappa_nu(d, slots):
    num, den = (_batched(d["g"].inner(d[x], d[y]).value())[slots]
                for x, y in (("fvv", "nu"), ("fv", "fv")))
    _raise_first((den == 0.0, "f_v vanishes at the origin"))
    return num / den


def limiting_normal_curvature(germ: MapGerm):
    d = _second_kind_data(germ)
    return _unbatch(_lone(d["fu"]), _kappa_nu(d, slice(None)))


def _mu_C(d, slots):
    """mu_C at the slots.  Its denominator |nabla_v f_u x f_v|(o) is 0 where
    nabla_v f_u(o) is parallel to f_v(o): a ClassificationError.  The cube is
    taken on Python floats: numpy's array power may round otherwise."""
    g = d["g"]
    cr = g.cross(d["fuv"], d["fv"])
    sq = g.inner(cr, cr)
    _raise_first((_batched(sq.value())[slots] <= 0.0, "nabla_v f_u(o) is parallel to f_v(o)"))
    fv_norm, num, den = (_batched(x.value())[slots] for x in (
        g.norm(d["fv"]), g.inner(d["fuv"], d["nu_u"]), jet_sqrt(sq)))
    return -np.array([x ** 3 for x in fv_norm.tolist()]) * num / den


def normalized_cuspidal_curvature(germ: MapGerm):
    """mu_C; its sign equals sigma0_S."""
    d = _second_kind_data(germ)
    return _unbatch(_lone(d["fu"]), _mu_C(d, slice(None)))


def classify(germ: MapGerm, at=(0.0, 0.0)):
    """Full singularity report at a point (admissible or general position).

    A germ whose jets carry a trailing batch axis (one slot per t of a
    deformation stage, say) gets a list of reports, one per slot, each
    equal to the report of that slot's germ checked alone; a lone germ is a
    batch of one.  The jets are computed once for the batch, and each
    decision (regular, frontal, nondegenerate, kind, the signs, the wave
    front) is one array operation over the slots it still concerns.  The
    slots singular at the origin along a singular u-axis go on together, as
    one batch (_on_axis); any other singular slot goes on alone, on its
    column of the germ, after make_admissible.  One failure rule covers the
    batch: if it raises (any ValueError), it keeps no partial report, and its
    slots go alone too, each on its own singular axis.  The slots that go
    alone run in slot order, so the first of them that raises decides the
    batch's error; a lone germ raises what it raises.

    The origin is read first at TOP_ORDER; each later read there is a
    truncation by the germ's memo (checks 3, normal field TOP_ORDER, lambda
    5, kind 2, sigma0_C 7, second-kind data 3).  If the top read raises a
    ValueError or ArithmeticError, the read at order 3 decides."""
    at = (float(at[0]), float(at[1]))
    F = None
    if at == (0.0, 0.0):
        with suppress(ValueError, ArithmeticError):
            F = tuple(c.truncate(3) for c in germ.fjet(0.0, 0.0, TOP_ORDER))
    F = F or germ.fjet(at[0], at[1], 3)
    if not all(np.isfinite(c.c).all() for c in F):
        raise ClassificationError(f"the jets of the germ at {at} are not finite")
    lone = _lone(F)
    regular = _immersive(_rows(tuple(c.du() for c in F)), _rows(tuple(c.dv() for c in F)))
    reps = [SingularityReport(at=at, a=germ.sf.a, is_frontal=r, is_nondegenerate=r)
            for r in regular.tolist()]
    common, near = ~regular & False, None
    if at == (0.0, 0.0) and not regular.all():
        axis, near = _axis_reads(germ, range(len(reps)))
        common = ~regular & np.array(axis).reshape(-1)
    # slot -> mode of the slots that go alone: None through make_admissible,
    # "axis" on their own singular axis
    alone = dict.fromkeys(np.flatnonzero(~regular & ~common).tolist())
    common = np.flatnonzero(common)
    if common.size:
        try:
            _on_axis(germ, {j: reps[j] for j in common.tolist()}, lone, mode="axis", near=near)
        except ValueError:
            if lone:
                raise
            for j in common.tolist():
                reps[j] = SingularityReport(at=at, a=germ.sf.a)
                alone[j] = "axis"
    for j in sorted(alone):
        work = germ if lone else _column(germ, j)
        if alone[j] is None:
            work = make_admissible(work, at)
        _on_axis(work, {0: reps[j]}, True, alone[j])
    return reps[0] if lone else reps


def _on_axis(work, reps, lone, mode=None, near=None):
    """The rest of classify at the origin of work, a germ whose singular set
    is the u-axis: fills in reps (slot -> report, for some slots of work;
    slot 0 of a lone germ).  near, if given, holds the values (f_u, f_v) at
    NEAR_US, else they are read here.  A slot that leaves on a verdict is
    dropped from the later steps; an exception of any slot is raised for the
    whole call.  One rule holds for a lone germ only: a normal field that v
    does not divide is a note on the report, not an error."""
    try:
        nt = normal_jets(work, 0.0, TOP_ORDER - 2)
    except JetError as exc:
        if not lone:
            raise
        reps[0].notes.append(f"not admissible / not frontal: {exc}")
        return
    live = np.array(list(reps))
    du0 = _rows(tuple(c.du() for c in work.fjet(0, 0, 3)))[live]
    frontal = _norm(_rows(nt)[live]) > 1e-9 * np.maximum(_norm(du0), 1.0)
    live = _verdict(reps, live, "is_frontal", frontal, "unnormalized normal vanishes at the point")
    if not live.size:
        return

    lam = lambda_jet(work, 0.0, 0.0, 2, mode)
    l10, l01, l02 = (_batched(lam.partial(*ij))[live] for ij in ((1, 0), (0, 1), (0, 2)))
    _write(reps, live, lambda_v=l01)
    # math.hypot per slot: np.hypot rounds otherwise
    dlam = np.array([math.hypot(a, b) for a, b in zip(l10.tolist(), l01.tolist())])
    live = _verdict(reps, live, "is_nondegenerate", dlam > 1e-9 * (1.0 + np.abs(l02)),
                    "degenerate singular point (d lambda = 0); invariants suppressed")
    if not live.size:
        return

    fu, fv = (x.reshape(-1, 3)[live] for x in _axis_derivatives(work, 0.0))
    k, s = _kernel(fu, fv)
    _raise_first((s[:, 0] == 0.0, _RANK0))
    first = np.abs(k[:, 1]) > KIND_TOL
    for j, kj in zip(live.tolist(), k.tolist()):
        reps[j].null_vector = tuple(kj)
    _write(reps, live, kind=np.where(first, "first", "second"))
    for j in live[first].tolist():
        s0c, raw = sigma0_C(work if lone else _column(work, j), 0.0)
        reps[j].is_cuspidal_edge = reps[j].is_wavefront = s0c != 0
        reps[j].raw["sigma0_C"] = raw
    live = live[~first]
    if not live.size:
        return

    # second kind: generalized swallowtail status from nearby axis points
    if near is None:
        near = [_axis_derivatives(work, uu) for uu in NEAR_US]
    nfu, nfv = (np.stack([read[i].reshape(-1, 3)[live] for read in near]) for i in (0, 1))
    general = (_kinds(nfu, nfv) != "second").all(axis=0)
    _write(reps, live, is_generalized_swallowtail=general)

    shared = _second_kind_data(work, order=1)   # values only: nu_u and nu_v need order 1
    s0, s0_raw = _sigma0_S(shared, live)
    sg, sg_raw = _sigma_g_S(shared, live)
    _write(reps, live, sigma0_S=s0, sigma_g_S=sg, kappa_nu=_kappa_nu(shared, live),
           mu_C=_mu_C(shared, live))
    for j, a, b in zip(live.tolist(), s0_raw.tolist(), sg_raw.tolist()):
        reps[j].raw.update(sigma0_S=a, sigma_g_S=b)
    # wave front: (f, nu) immersive, i.e. the stacked 6x2 differential has rank 2
    dfs = [_rows(shared[key])[live] for key in ("fu", "nu_u", "fv", "nu_v")]
    M = np.stack([np.concatenate(dfs[:2], axis=-1), np.concatenate(dfs[2:], axis=-1)], axis=-1)
    sv = np.linalg.svd(M, compute_uv=False)
    wave = sv[:, 1] > 1e-8 * (1.0 + sv[:, 0])
    _write(reps, live, is_wavefront=wave, is_swallowtail=wave & general)


def _axis_reads(germ, slots):
    """(the verdicts of _axis_is_singular(germ), the values (f_u, f_v) at
    NEAR_US or None), for a germ singular at the origin in some slot, as
    classify calls it; slots is the range of the germ's slots, range(1) for
    a lone germ, and the verdicts are a list over them.

    The germ is read at the union of AXIS_US and NEAR_US but the origin,
    whose sample classify has already decided, in one array call of order
    2, the point axis before the slot axis of a batched germ; each point of
    each slot holds the bits of its scalar read.  If that call raises, the
    axis is read point by point as _axis_is_singular reads it, and _on_axis
    reads the near points itself, so no verdict and no error moves."""
    try:
        fu, fv = _axis_derivatives(germ, np.array(_AXIS_READ_US))
    except ValueError:
        return _axis_is_singular(germ), None
    fu, fv = (x.reshape(len(_AXIS_READ_US), len(slots), 3) for x in (fu, fv))
    axis = [_AXIS_READ_US.index(uu) for uu in AXIS_US if uu != 0.0]
    sing = ~_immersive(fu[axis], fv[axis]).any(axis=0)
    return sing.tolist(), [(fu[i], fv[i]) for i in map(_AXIS_READ_US.index, NEAR_US)]


def _axis_is_singular(germ: MapGerm):
    """Whether the u-axis is singular at every sample: a bool, or a list of
    them, one per slot of a batched germ.  The samples are read one by one,
    in order, until no slot is left singular."""
    out = True
    for uu in AXIS_US:
        F = germ.fjet(uu, 0.0, 1)
        out = out & ~_immersive(_rows(tuple(c.du() for c in F)), _rows(tuple(c.dv() for c in F)))
        if not out.any():
            break
    return bool(out[0]) if _lone(F) else out.tolist()


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
    sign, det, lone = _sigma_g_C(germ, u)
    if np.ndim(u) == 0:
        return _unbatch(lone, sign, det)
    return [_unbatch(lone, s, d) for s, d in zip(sign, det)]


def _sigma_g_C(germ, u):
    """(signs, raw values, whether the germ is lone) of sigma_g_C at the
    axis points u, arrays (point..., slot)."""
    F = germ.fjet(u, 0.0, 2)
    f, fu, fv, fuu, _, fvv = _second_order(F)
    g = Along(germ.sf, f)
    fvv = g.nabla(fv, fv, fvv)
    fuu = g.nabla(fu, fu, fuu)
    n = np.ndim(u)
    # + 0.0: a zero comes out +0.0, as from the value slot of a jet product
    det = _batched(g.det(fu, fuu, fvv) + 0.0, n)
    scale = _norm(_rows(fu, n)) * _norm(_rows(fuu, n)) * _norm(_rows(fvv, n))
    return sgn(det, scale), det, _lone(F, n)


def epsilon_identity_residual(germ: MapGerm, u):
    """Residual of <f_uu, nu~> = eps^2 <f_vv, nu~> at the singular point (u,0):
    (residual, eps), or a list of them, one per slot of a batched germ, each
    that of the slot's germ alone (numpy floats)."""
    F = germ.fjet(u, 0.0, 2)
    f, fu, fv, fuu, _, fvv = _second_order(F)
    # eps of the null field d_u + eps d_v of each slot: the error of the
    # first slot that has none
    k, s = _kernel(_rows(fu), _rows(fv))
    _raise_first((_immersive(_rows(fu), _rows(fv)), f"({u}, 0) is a regular point"),
                 (s[:, 0] == 0.0, _RANK0),
                 (np.abs(k[:, 0]) < 1e-9, "null field has no d_u component; eps not resolvable"))
    eps = k[:, 1] / k[:, 0]
    g = Along(germ.sf, f)
    fuu = g.nabla(fu, fu, fuu)
    fvv = g.nabla(fv, fv, fvv)
    nt = _vals(normal_jets(germ, u, ORDER - 1))
    lhs = g.inner(fuu, nt)
    rhs = eps * eps * g.inner(fvv, nt)
    out = list(zip(_batched(abs(lhs - rhs) / (1.0 + abs(lhs))), eps))
    return out[0] if _lone(F) else out


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
    forms = tuple(np.where(singular, np.nan, x + 0.0) for x in forms)
    return forms if singular.ndim else tuple(map(float, forms))


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
