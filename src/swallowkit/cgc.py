"""Constant-curvature pipeline: radial profile, fundamental forms, surface
reconstruction and the unit-distance parallel surface.

The profile F solves F'' + F'/r + sinh(2F)/2 = 0 with F(1) = 0, F'(1) = 1,
and omega(u,v) = F(sqrt(u^2+v^2)) then satisfies the sinh-Gordon equation
Delta omega + sinh(2 omega)/2 = 0.  The integrable fundamental forms

    I = e^{2 omega}(du^2 + dv^2),  II = e^{omega}(cosh omega du^2 + sinh omega dv^2)

satisfy Gauss and Codazzi identically and describe a surface of constant
mean curvature 1/2; its parallel surface at unit distance has constant
Gaussian curvature 1 with a swallowtail point at (u, v) = (0, 1).  The
form printed with cosh u / sinh u in place of cosh omega / sinh omega is
kept as a separate diagnostic: it is not integrable, but its principal-
curvature derivatives at (0, 1) are the classical swallowtail test values
(0, -1, -2), which the report also exposes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._jettables import index_of, monomials
from .fields import DenseOutput, components, horner, rk4_abscissae, rk4_step, step_ends
from .frontal import MapGerm
from .jets import Jet2, _apply_series, jet_cosh, jet_exp, jet_sinh, jet_sqrt
from .metric import SpaceForm


class CgcError(ValueError):
    pass


SWALLOWTAIL_POINT = (0.0, 1.0)   # of the parallel surface; reconstruction starts there


# ---------------------------------------------------------------------------
# Radial ODE
# ---------------------------------------------------------------------------

PROFILE_ORDER = 12   # degree of the Taylor polynomial of one profile step


def profile_series(r0, F0, Fp0, order):
    """Taylor coefficients of F about r0, along the first axis, from the
    equation itself, given F(r0) = F0 and F'(r0) = Fp0; r0 may be an array
    of radii, one series per slot.

    Degree n of the equation reads F to degree n + 1 only, which is filled
    by then, so each degree is computed from those coefficients alone, as
    jets of u alone.  The series is truncation-exact: cut to m + 1 terms it
    holds the bits of the call at order m."""
    r0 = np.asarray(r0)
    f = np.zeros((order + 1,) + r0.shape)
    f[0] = F0
    if order >= 1:
        f[1] = Fp0
    # 1/r series at r0
    inv_r = Jet2.of_series(np.array([(-1.0) ** k / r0 ** (k + 1) for k in range(order + 1)]))
    for n in range(order - 1):
        # F'' = -F'/r - sinh(2F)/2, matched degree by degree
        F = Jet2.of_series(f[:n + 2])
        term1 = (F.du() * inv_r).series()[n]
        sh = jet_sinh(2.0 * F.truncate(n)).series()[n]
        f[n + 2] = (-term1 - 0.5 * sh) / ((n + 2) * (n + 1))
    return f


class RadialProfile(DenseOutput):
    """F by the dense output of the Taylor steps of solve_radial_ode: the
    coefficient rows are those of F in r - start, and at returns (F, F')."""

    def F(self, r):
        return self.at(r)[0]

    def Fp(self, r):
        return self.at(r)[1]

    def series(self, r0, order):
        """Taylor coefficients of F at r0 (profile_series from the dense
        output), along the first axis; r0 may be an array of radii."""
        return profile_series(r0, *self.at(r0), order)

    def jet(self, rjet: Jet2) -> Jet2:
        """F composed with a jet of r (chain rule through the series)."""
        return _apply_series(self.series(rjet.value(), rjet.order), rjet)


def solve_radial_ode(domain=(0.5, 1.6), step=0.05) -> RadialProfile:
    """Taylor-series solve of the profile equation from r = 1 out to each end
    of domain (Jorba & Zou, Exp. Math. 14, 2005): steps of length step, the
    last of each direction shorter, each the degree-PROFILE_ORDER series of
    the equation at its start (profile_series).  Each step's polynomial is
    the dense output between its ends (Hairer, Norsett & Wanner, Solving
    ODEs I, II.6), and F, F' at its end, which start the next step, are its
    values there: the dense output is continuous bit for bit at every node,
    and F(1) = 0, F'(1) = 1 exactly."""
    lo, hi = domain
    if lo <= 0.0:
        raise CgcError("domain must not contain r = 0")

    def march(end, sign):
        """(start, end, coefficient row) of each step from 1 out to end."""
        out, r, F0, Fp0 = [], 1.0, 0.0, 1.0
        for r1 in step_ends(1.0, end, sign * step):
            c = profile_series(r, F0, Fp0, PROFILE_ORDER)
            F0, Fp0 = horner(c, r1 - r)
            if abs(F0) > 50.0:
                raise CgcError(f"profile blow-up at r = {r1}")
            out.append((r, r1, c))
            r = r1
        return out

    marches = march(lo, -1.0), march(hi, 1.0)
    if not any(marches):
        raise CgcError(f"domain {domain} takes no step from r = 1")
    return RadialProfile.of_marches(marches)


# ---------------------------------------------------------------------------
# Omega and the fundamental forms
# ---------------------------------------------------------------------------

class OmegaField:
    """omega(u, v) = F(sqrt(u^2 + v^2)) with jets of any order."""

    def __init__(self, profile: RadialProfile):
        self.profile = profile

    def jet(self, u, v, order):
        """Jet at (u, v); u and v may be arrays of one shape, one jet per slot."""
        uj = Jet2.variable("u", u, order, np.shape(u))
        vj = Jet2.variable("v", v, order, np.shape(u))
        return self.profile.jet(jet_sqrt(uj * uj + vj * vj))


def _principal(w):
    """Principal curvatures e^{-w} cosh w and e^{-w} sinh w."""
    return np.exp(-w) * np.cosh(w), np.exp(-w) * np.sinh(w)


@dataclass
class FundamentalForms:
    omega: OmegaField

    def principal(self, u, v):
        return _principal(np.asarray(self.omega.jet(u, v, 0).value()))

    def gauss_residual(self, u, v):
        j = self.omega.jet(u, v, 2)
        w = np.asarray(j.value())
        lap = j.partial(2, 0) + j.partial(0, 2)
        K_intrinsic = -np.exp(-2 * w) * lap
        l1, l2 = self.principal(u, v)
        return K_intrinsic - l1 * l2


def check_swallowtail_conditions(forms: FundamentalForms):
    """Principal-curvature test values at the swallowtail point.

    Returns both the printed-formula triple (the classical test values
    0, -1, -2) and the derivatives of the integrable principal curvature
    (0, -1, -1); all four non-degeneracy requirements coincide in sign.
    """
    u0, v0 = SWALLOWTAIL_POINT
    j = forms.omega.jet(u0, v0, 3)
    w = float(np.asarray(j.value()))
    wu, wv = j.partial(1, 0), j.partial(0, 1)
    wuu = j.partial(2, 0)

    l1, l2 = forms.principal(u0, v0)
    # printed variant: l1_hat = e^{-2w} cosh u
    l1h_u = -2 * wu * math.exp(-2 * w) * math.cosh(u0) + math.exp(-2 * w) * math.sinh(u0)
    l1h_uu = ((4 * wu * wu - 2 * wuu) * math.exp(-2 * w) * math.cosh(u0)
              - 4 * wu * math.exp(-2 * w) * math.sinh(u0)
              + math.exp(-2 * w) * math.cosh(u0))
    l1h_v = -2 * wv * math.exp(-2 * w) * math.cosh(u0)
    # integrable variant: l1 = e^{-w} cosh w, (l1)_x = -w_x e^{-2w}
    l1_u = -wu * math.exp(-2 * w)
    l1_uu = (-wuu + 2 * wu * wu) * math.exp(-2 * w)
    l1_v = -wv * math.exp(-2 * w)
    return {
        "lambda1": float(l1), "lambda2": float(l2),
        "printed": {"l1_u": l1h_u, "l1_uu": l1h_uu, "l1_v": l1h_v},
        "integrable": {"l1_u": l1_u, "l1_uu": l1_uu, "l1_v": l1_v},
    }


# ---------------------------------------------------------------------------
# Reconstruction by the frame equations
# ---------------------------------------------------------------------------

def write_rows(out, fmt, table):
    """Write a (blocks, rows, columns) table to out, each row formatted by the
    %-format fmt; one string per block, so the file is never held whole."""
    for block in table:
        out.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def write_obj(path, points):
    """Write an (m, n, 3) grid of points as an OBJ quad mesh, row by row."""
    m, n = points.shape[:2]
    a = np.arange(1, m * n + 1).reshape(m, n)[:-1, :-1]
    with open(path, "w") as out:
        write_rows(out, "v %.9g %.9g %.9g\n", points)
        write_rows(out, "f %d %d %d %d\n", np.stack([a, a + n, a + n + 1, a + 1], axis=-1))


@dataclass
class SurfaceGrid:
    us: np.ndarray
    vs: np.ndarray
    f: np.ndarray        # (nu, nv, 3)
    fu: np.ndarray
    fv: np.ndarray
    nu: np.ndarray
    forms: FundamentalForms | None = None

    @functools.cached_property
    def w(self):
        """omega on the grid (nu, nv), evaluated once per grid."""
        U, V = np.meshgrid(self.us, self.vs, indexing="ij")
        return np.asarray(self.forms.omega.jet(U, V, 0).value())

    @functools.cached_property
    def principal(self):
        """The principal curvatures (l1, l2) on the grid, from w."""
        return _principal(self.w)

    @functools.cached_property
    def curvatures(self):
        """(K, H) on the grid, by central differences of the samples f."""
        return curvatures_from_samples(self.f, self.us[1] - self.us[0], self.vs[1] - self.vs[0])

    def write_csv(self, path, K=None, H=None, l1=None, l2=None):
        """One row per grid point, u-major; a column not given is nan."""
        U, V = np.meshgrid(self.us, self.vs, indexing="ij")
        cols = [U, V, *np.moveaxis(self.f, -1, 0)]
        cols += [np.full(U.shape, np.nan) if arr is None else arr for arr in (K, H, l1, l2)]
        with open(path, "w") as out:
            out.write("u,v,x,y,z,K,H,lambda1,lambda2\n")
            write_rows(out, ",".join(["%.9g"] * 9) + "\n", np.stack(cols, axis=-1))


def _omega_terms(j):
    """(w, w_u, w_v, E = e^{2w}) from a first-order jet of omega."""
    w = np.asarray(j.value())
    return w, np.asarray(j.partial(1, 0)), np.asarray(j.partial(0, 1)), np.exp(2 * w)


def _base_frame(om, u, v):
    """(f, f_u, f_v, nu) at (u, v) placed at the origin: f_u and f_v of length
    e^w along the first two axes, nu the third."""
    w0 = float(np.asarray(om.jet(u, v, 0).value()))
    return np.stack([np.zeros(3),
                     np.exp(w0) * np.array([1.0, 0.0, 0.0]),
                     np.exp(w0) * np.array([0.0, 1.0, 0.0]),
                     np.array([0.0, 0.0, 1.0])])


def _gw_rhs_u(state, w, wu, wv, L, E):
    f, fu, fv, nu = state
    fuu = wu * fu - wv * fv + L * nu
    fuv = wv * fu + wu * fv
    nuu = -(L / E) * fu
    return np.stack([fu, fuu, fuv, nuu])


def _gw_rhs_v(state, w, wu, wv, N, E):
    f, fu, fv, nu = state
    fuv = wv * fu + wu * fv
    fvv = -wu * fu + wv * fv + N * nu
    nuv = -(N / E) * fv
    return np.stack([f * 0 + fv, fuv, fvv, nuv])


def _sweep(rhs, coeffs, xs, i0, y0):
    """States at every node of xs, marched by RK4 of y' = rhs(y, *coefficients
    at x) from y0 at xs[i0] out to both ends, four steps per interval.

    Each interval lists its steps first; coeffs(x) then gives the
    coefficients at every abscissa x those steps read, each once, as arrays
    along the first axis, in one call, and the right-hand side reads that
    table.  A table per interval, not per sweep, keeps the call small."""
    out = [None] * len(xs)
    out[i0] = y0
    for end, d in ((len(xs) - 1, 1), (0, -1)):
        y = y0
        for i in range(i0, end, d):
            h = (xs[i + d] - xs[i]) / 4
            steps = [(xs[i] + k * h, h) for k in range(4)]
            at = rk4_abscissae(steps)
            table = dict(zip(at, zip(*coeffs(np.array(at)))))
            for x, s in steps:
                y = rk4_step(lambda a, st: rhs(st, *table[a]), x, y, s)
            out[i + d] = y
    return out


def reconstruct_surface(forms: FundamentalForms, window=(-0.5, 0.5, 0.6, 1.4),
                        res=(201, 201)) -> SurfaceGrid:
    """Integrate the frame equations over the grid: along the spine from the
    grid point nearest SWALLOWTAIL_POINT, then every column from the spine
    at once, states vectorized over u.  The coefficients (w, w_u, w_v, L or
    N, E) of each grid interval come from one array call of omega (see
    _sweep).

    Guard: the Gauss residual, which is the sinh-Gordon residual of omega
    times -e^{-2w}, is sampled first; reconstruction refuses to run on
    non-integrable input.  Codazzi needs no guard: these forms satisfy it
    for every omega.
    """
    u0, u1, v0, v1 = window
    nu_, nv_ = res
    us = np.linspace(u0, u1, nu_)
    vs = np.linspace(v0, v1, nv_)
    gu, gv = np.meshgrid(us[:: max(1, nu_ // 8)], vs[:: max(1, nv_ // 8)], indexing="ij")
    if np.max(np.abs(forms.gauss_residual(gu, gv))) > 1e-5:
        raise CgcError("Gauss equation residual above guard: forms not integrable")

    om = forms.omega

    # states (4, 3) on the spine and (4, 3, nu) on the columns, of (f, fu, fv, nu)
    bu, bv = SWALLOWTAIL_POINT
    bi = int(np.argmin(np.abs(vs - bv)))
    vspine = vs[bi]
    b0 = int(np.argmin(np.abs(us - bu)))

    def coeffs_u(u):
        w, wu, wv, E = _omega_terms(om.jet(u, np.full_like(u, vspine), 1))
        return w, wu, wv, np.exp(w) * np.cosh(w), E

    def coeffs_v(v):
        V, U = np.meshgrid(v, us, indexing="ij")
        w, wu, wv, E = _omega_terms(om.jet(U, V, 1))
        return w, wu, wv, np.exp(w) * np.sinh(w), E

    spine = np.stack(_sweep(_gw_rhs_u, coeffs_u, us, b0, _base_frame(om, bu, vspine)),
                     axis=-1)
    cols = _sweep(_gw_rhs_v, coeffs_v, vs, bi, spine)
    f, fu, fv, nu = np.stack([c.transpose(0, 2, 1) for c in cols], axis=2)
    return SurfaceGrid(us=us, vs=vs, f=f, fu=fu, fv=fv, nu=nu, forms=forms)


def roundtrip_residuals(grid: SurfaceGrid):
    """Sup-norm of I and II recomputed from the sampled immersion."""
    us, vs = grid.us, grid.vs
    w = grid.w
    E_ref = np.exp(2 * w)
    L_ref = np.exp(w) * np.cosh(w)
    N_ref = np.exp(w) * np.sinh(w)
    du = us[1] - us[0]
    dv = vs[1] - vs[0]
    fu = np.gradient(grid.f, du, axis=0)
    fv = np.gradient(grid.f, dv, axis=1)
    sl = (slice(2, -2), slice(2, -2))
    E = np.sum(fu * fu, axis=2)
    G = np.sum(fv * fv, axis=2)
    Fm = np.sum(fu * fv, axis=2)
    rel_I = np.max(np.abs(np.stack([
        (E - E_ref)[sl] / E_ref[sl],
        (G - E_ref)[sl] / E_ref[sl],
        Fm[sl] / E_ref[sl]])))
    fuu = np.gradient(grid.fu, du, axis=0)
    fvv = np.gradient(grid.fv, dv, axis=1)
    fuv = np.gradient(grid.fu, dv, axis=1)
    L = np.sum(fuu * grid.nu, axis=2)
    N = np.sum(fvv * grid.nu, axis=2)
    M = np.sum(fuv * grid.nu, axis=2)
    rel_II = np.max(np.abs(np.stack([
        (L - L_ref)[sl] / E_ref[sl],
        (N - N_ref)[sl] / E_ref[sl],
        M[sl] / E_ref[sl]])))
    return rel_I, rel_II


def curvatures_from_samples(f, du, dv):
    """(K, H) by central differences from grid samples of an immersion."""
    fu = np.gradient(f, du, axis=0)
    fv = np.gradient(f, dv, axis=1)
    n = np.cross(fu, fv)
    nn = np.linalg.norm(n, axis=2, keepdims=True)
    nn = np.where(nn == 0, 1.0, nn)
    nu_ = n / nn
    fuu = np.gradient(fu, du, axis=0)
    fvv = np.gradient(fv, dv, axis=1)
    fuv = np.gradient(fu, dv, axis=1)
    E = np.sum(fu * fu, axis=2)
    G = np.sum(fv * fv, axis=2)
    Fm = np.sum(fu * fv, axis=2)
    L = np.sum(fuu * nu_, axis=2)
    M = np.sum(fuv * nu_, axis=2)
    N = np.sum(fvv * nu_, axis=2)
    den = E * G - Fm * Fm
    den = np.where(den == 0, np.nan, den)
    K = (L * N - M * M) / den
    H = (E * N - 2 * Fm * M + G * L) / (2 * den)
    return K, H


def mean_curvature_check(grid: SurfaceGrid):
    rng = np.random.default_rng(3)
    _, H = grid.curvatures
    nu_, nv_ = grid.f.shape[:2]
    worst = 0.0
    for _ in range(100):
        i = rng.integers(4, nu_ - 4)
        j = rng.integers(4, nv_ - 4)
        worst = max(worst, abs(abs(H[i, j]) - 0.5))
    return worst


# ---------------------------------------------------------------------------
# Parallel surface
# ---------------------------------------------------------------------------

def parallel_surface(grid: SurfaceGrid) -> SurfaceGrid:
    h = grid.f + grid.nu
    l1, l2 = grid.principal
    hu = grid.fu * (1 - l1)[..., None]
    hv = grid.fv * (1 - l2)[..., None]
    return SurfaceGrid(us=grid.us, vs=grid.vs, f=h, fu=hu, fv=hv, nu=grid.nu,
                       forms=grid.forms)


def parallel_regularity(grid: SurfaceGrid, par: SurfaceGrid):
    """Rank check of dh on the grid: singular where a principal curvature is 1."""
    n = np.cross(par.fu, par.fv)
    scale = (np.linalg.norm(par.fu, axis=2) * np.linalg.norm(par.fv, axis=2)
             + np.linalg.norm(grid.fu, axis=2) * np.linalg.norm(grid.fv, axis=2))
    return np.linalg.norm(n, axis=2) > 1e-6 * scale


def parallel_safe_mask(grid: SurfaceGrid, par: SurfaceGrid):
    """Regular points a quantified distance from the degeneracy, |1 - l_i| >
    0.05, less a border strip of 4 points for the difference stencils."""
    l1, l2 = grid.principal
    mask = parallel_regularity(grid, par)
    mask &= np.abs(1.0 - l1) > 0.05
    mask &= np.abs(1.0 - l2) > 0.05
    mask[:4, :] = mask[-4:, :] = False
    mask[:, :4] = mask[:, -4:] = False
    return mask


class ParallelGerm:
    """Jet provider for the parallel surface near SWALLOWTAIL_POINT, its base.

    The frame (f, fu, fv, nu) at the base is prolonged once, by the jet
    prolongation of the frame equations, to its Taylor polynomial of degree
    ORDER, and the frame at a nearby point is that polynomial's value there.
    Within 0.1 of the base it agrees with an RK4 march of the frame equations
    to 1e-12; classify at the base reads points within 0.06.  The jets at a
    point are prolonged from that frame by the same equations, so they are
    exact solutions of the structure equations.
    """

    ORDER = 12

    def __init__(self, omega: OmegaField):
        self.om = omega
        fields = self._prolong(*SWALLOWTAIL_POINT, self.ORDER,
                               _base_frame(omega, *SWALLOWTAIL_POINT))
        self._taylor = np.array([[c.c for c in row] for row in fields])   # (4, 3, terms)

    def _state_at(self, u, v):
        du, dv = u - SWALLOWTAIL_POINT[0], v - SWALLOWTAIL_POINT[1]
        return self._taylor @ np.array([du ** i * dv ** j for i, j in monomials(self.ORDER)])

    def jets(self, u, v, order):
        """2-D jets of (f, fu, fv, nu) at (u, v) by prolongation."""
        return self._prolong(u, v, order, self._state_at(u, v))

    def _prolong(self, u, v, order, st):
        wj = self.om.jet(u, v, order + 1)
        E = jet_exp(2.0 * wj).truncate(order)
        L = (jet_exp(wj) * jet_cosh(wj)).truncate(order)
        N = (jet_exp(wj) * jet_sinh(wj)).truncate(order)
        LE, NE = L / E, N / E
        wu = wj.du()
        wv = wj.dv()
        # jets in (u, v): the loop below writes their v-coefficients, so they
        # are built without the claim of u alone of Jet2.constant
        fields = [[Jet2(order, Jet2.constant(st[m][k], order).c) for k in range(3)]
                  for m in range(4)]
        for d in range(order):
            f, fu, fv, nuf = fields
            fuu = [wu * fu[k] - wv * fv[k] + L * nuf[k] for k in range(3)]
            fuv = [wv * fu[k] + wu * fv[k] for k in range(3)]
            fvv = [-wu * fu[k] + wv * fv[k] + N * nuf[k] for k in range(3)]
            nuu = [-LE * fu[k] for k in range(3)]
            nuv = [-NE * fv[k] for k in range(3)]
            rhs_u_all = [fu, fuu, fuv, nuu]
            rhs_v_all = [fv, fuv, fvv, nuv]
            for m in range(4):
                for k in range(3):
                    for i in range(d + 2):
                        j = d + 1 - i
                        if i > 0:
                            val = rhs_u_all[m][k].c[index_of(i - 1, j)] / i
                        else:
                            val = rhs_v_all[m][k].c[index_of(0, j - 1)] / j
                        fields[m][k].c[index_of(i, j)] = val
        return fields

    def as_germ(self) -> MapGerm:
        """The germ h = f + nu of the parallel surface: its three components
        come from one prolongation per call."""
        def h(u, v, order):
            f, _, _, nu = self.jets(u, v, order)
            return tuple(f[k] + nu[k] for k in range(3))
        return MapGerm(components(h), sf=SpaceForm(0.0))
