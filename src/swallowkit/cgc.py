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

import math
from dataclasses import dataclass, field

import numpy as np

from ._jettables import index_of
from .fields import JetFn
from .frontal import MapGerm, classify
from .jets import Jet2, jet_cosh, jet_exp, jet_sinh, jet_sqrt, p1_mul
from .metric import SpaceForm


class CgcError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Radial ODE
# ---------------------------------------------------------------------------

def _ode_rhs(r, y):
    F, Fp = y
    return np.array([Fp, -Fp / r - math.sinh(2.0 * F) / 2.0])


@dataclass
class RadialProfile:
    rs: np.ndarray
    Fs: np.ndarray
    Fps: np.ndarray

    def F(self, r):
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(self.rs, r) - 1, 0, len(self.rs) - 2)
        h = self.rs[i + 1] - self.rs[i]
        t = (r - self.rs[i]) / h
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        return (h00 * self.Fs[i] + h10 * h * self.Fps[i]
                + h01 * self.Fs[i + 1] + h11 * h * self.Fps[i + 1])

    def Fp(self, r):
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(self.rs, r) - 1, 0, len(self.rs) - 2)
        h = self.rs[i + 1] - self.rs[i]
        t = (r - self.rs[i]) / h
        d00 = (6 * t * t - 6 * t) / h
        d10 = 3 * t * t - 4 * t + 1
        d01 = (6 * t - 6 * t * t) / h
        d11 = 3 * t * t - 2 * t
        return (d00 * self.Fs[i] + d10 * self.Fps[i]
                + d01 * self.Fs[i + 1] + d11 * self.Fps[i + 1])

    def series(self, r0, order):
        """Taylor coefficients of F at r0 from the equation itself."""
        f = np.zeros(order + 1)
        f[0] = float(self.F(r0))
        if order >= 1:
            f[1] = float(self.Fp(r0))
        # 1/r series at r0
        inv_r = np.array([(-1.0) ** k / r0 ** (k + 1) for k in range(order + 1)])
        for n in range(order - 1):
            # F'' = -F'/r - sinh(2F)/2, matched degree by degree
            fp = np.zeros(order + 1)
            fp[:order] = [(k + 1) * f[k + 1] for k in range(order)]
            term1 = p1_mul(fp, inv_r)
            sh = _sinh_series(2.0 * f, order)
            rhs = -term1[n] - 0.5 * sh[n]
            f[n + 2] = rhs / ((n + 2) * (n + 1))
        return f

    def jet(self, rjet: Jet2) -> Jet2:
        """F composed with a jet of r (chain rule through the series)."""
        ser = self.series(rjet.value(), rjet.order)
        rhat = Jet2(rjet.order, rjet.c.copy())
        rhat.c[0] = np.zeros_like(rhat.c[0])
        out = Jet2.constant(ser[-1], rjet.order, rjet.c.shape[1:])
        for k in range(len(ser) - 2, -1, -1):
            out = out * rhat
            out.c[0] = out.c[0] + ser[k]
        return out

    def residual(self, r):
        """Defect of the computed solution against the equation.

        Evaluated at solver nodes with a node-aligned second difference,
        so only the solution error enters, not interpolation artifacts.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        # stride the nodes so the second difference is not roundoff-bound:
        # at the raw step the 1/h^2 amplification of float noise would
        # already exceed the solution error being measured
        s = 10
        i = np.clip(np.searchsorted(self.rs, r), 2 * s, len(self.rs) - 2 * s - 1)
        h = self.rs[i + s] - self.rs[i]
        F2 = (-self.Fs[i + 2 * s] + 16 * self.Fs[i + s] - 30 * self.Fs[i]
              + 16 * self.Fs[i - s] - self.Fs[i - 2 * s]) / (12 * h ** 2)
        out = F2 + self.Fps[i] / self.rs[i] + np.sinh(2 * self.Fs[i]) / 2
        return out if out.size > 1 else float(out[0])


def _sinh_series(a, order):
    """Series of sinh(a(t)) for a series a."""
    s0, c0 = math.sinh(a[0]), math.cosh(a[0])
    ahat = a.copy()
    ahat[0] = 0.0
    out = np.zeros(order + 1)
    coeffs = [(s0 if n % 2 == 0 else c0) / math.factorial(n) for n in range(order + 1)]
    res = np.zeros(order + 1)
    res[0] = coeffs[-1]
    for k in range(order - 1, -1, -1):
        res = p1_mul(res, ahat)
        res[0] += coeffs[k]
    return res


def solve_radial_ode(domain=(0.5, 1.6), step=1e-4, blowup=50.0) -> RadialProfile:
    """RK4 solve of the profile equation from r = 1 in both directions."""
    lo, hi = domain
    if lo <= 0.0:
        raise CgcError("domain must not contain r = 0")
    nodes = {1.0: (0.0, 1.0)}

    def march(r_end, sign):
        r, y = 1.0, np.array([0.0, 1.0])
        while (r_end - r) * sign > 1e-14:
            h = sign * min(step, abs(r_end - r))
            k1 = _ode_rhs(r, y)
            k2 = _ode_rhs(r + h / 2, y + h / 2 * k1)
            k3 = _ode_rhs(r + h / 2, y + h / 2 * k2)
            k4 = _ode_rhs(r + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            r = r + h
            if abs(y[0]) > blowup:
                raise CgcError(f"profile blow-up at r = {r}")
            nodes[round(r, 12)] = (y[0], y[1])

    march(hi, +1.0)
    march(lo, -1.0)
    rs = np.array(sorted(nodes))
    Fs = np.array([nodes[r][0] for r in rs])
    Fps = np.array([nodes[r][1] for r in rs])
    return RadialProfile(rs=rs, Fs=Fs, Fps=Fps)


# ---------------------------------------------------------------------------
# Omega and the fundamental forms
# ---------------------------------------------------------------------------

class OmegaField:
    """omega(u, v) = F(sqrt(u^2 + v^2)) with jets of any order."""

    def __init__(self, profile: RadialProfile):
        self.profile = profile

    def jet(self, u, v, order):
        uj = Jet2.variable("u", u, order, np.shape(u))
        vj = Jet2.variable("v", v, order, np.shape(u))
        rj = jet_sqrt(uj * uj + vj * vj)
        if np.ndim(u) == 0:
            return self.profile.jet(rj)
        # array case: series about each radius would differ; evaluate the
        # composition pointwise through the dense table instead
        out = Jet2.constant(0.0, order, np.shape(u))
        r = rj.value()
        F = self.profile.F(r)
        out.c[0] = F
        if order >= 1:
            Fp = self.profile.Fp(r)
            out.c[index_of(1, 0)] = Fp * rj.c[index_of(1, 0)]
            out.c[index_of(0, 1)] = Fp * rj.c[index_of(0, 1)]
        if order >= 2:
            Fpp = -Fp / r - np.sinh(2 * F) / 2
            ru, rv = rj.c[index_of(1, 0)], rj.c[index_of(0, 1)]
            out.c[index_of(2, 0)] = (Fpp * ru * ru + Fp * 2 * rj.c[index_of(2, 0)]) / 2 * 1.0
            out.c[index_of(2, 0)] = 0.5 * Fpp * ru * ru + Fp * rj.c[index_of(2, 0)]
            out.c[index_of(0, 2)] = 0.5 * Fpp * rv * rv + Fp * rj.c[index_of(0, 2)]
            out.c[index_of(1, 1)] = Fpp * ru * rv + Fp * rj.c[index_of(1, 1)]
        return out

    def sinh_gordon_residual(self, u, v):
        j = self.jet(u, v, 2)
        lap = j.partial(2, 0) + j.partial(0, 2)
        return lap + np.sinh(2 * np.asarray(j.value())) / 2


@dataclass
class FundamentalForms:
    omega: OmegaField

    # integrable data (cosh omega / sinh omega): used for reconstruction
    def EFG(self, u, v):
        w = np.asarray(self.omega.jet(u, v, 0).value())
        E = np.exp(2 * w)
        return E, 0.0 * E, E

    def LMN(self, u, v):
        w = np.asarray(self.omega.jet(u, v, 0).value())
        return np.exp(w) * np.cosh(w), 0.0 * w, np.exp(w) * np.sinh(w)

    def principal(self, u, v):
        w = np.asarray(self.omega.jet(u, v, 0).value())
        return np.exp(-w) * np.cosh(w), np.exp(-w) * np.sinh(w)

    def gauss_residual(self, u, v):
        j = self.omega.jet(u, v, 2)
        w = np.asarray(j.value())
        lap = j.partial(2, 0) + j.partial(0, 2)
        K_intrinsic = -np.exp(-2 * w) * lap
        l1, l2 = self.principal(u, v)
        return K_intrinsic - l1 * l2

    def codazzi_residual(self, u, v):
        j = self.omega.jet(u, v, 1)
        w = np.asarray(j.value())
        wu, wv = j.partial(1, 0), j.partial(0, 1)
        l1 = np.exp(-w) * np.cosh(w)
        l2 = np.exp(-w) * np.sinh(w)
        dl1_v = wv * (-np.exp(-w) * np.cosh(w) + np.exp(-w) * np.sinh(w))
        dl2_u = wu * (-np.exp(-w) * np.sinh(w) + np.exp(-w) * np.cosh(w))
        r1 = dl1_v - wv * (l2 - l1)
        r2 = dl2_u - wu * (l1 - l2)
        return np.maximum(np.abs(r1), np.abs(r2))


def check_swallowtail_conditions(forms: FundamentalForms, at=(0.0, 1.0)):
    """Principal-curvature test values at the swallowtail point.

    Returns both the printed-formula triple (the classical test values
    0, -1, -2) and the derivatives of the integrable principal curvature
    (0, -1, -1); all four non-degeneracy requirements coincide in sign.
    """
    u0, v0 = at
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
    wuv = j.partial(1, 1)
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

@dataclass
class SurfaceGrid:
    us: np.ndarray
    vs: np.ndarray
    f: np.ndarray        # (nu, nv, 3)
    fu: np.ndarray
    fv: np.ndarray
    nu: np.ndarray
    forms: FundamentalForms | None = None

    def write_obj(self, path):
        nu_, nv_ = self.f.shape[:2]
        with open(path, "w") as out:
            for i in range(nu_):
                for j in range(nv_):
                    x, y, z = self.f[i, j]
                    out.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
            for i in range(nu_ - 1):
                for j in range(nv_ - 1):
                    a = i * nv_ + j + 1
                    b = (i + 1) * nv_ + j + 1
                    out.write(f"f {a} {b} {b + 1} {a + 1}\n")

    def write_csv(self, path, K=None, H=None, l1=None, l2=None):
        nu_, nv_ = self.f.shape[:2]
        with open(path, "w") as out:
            out.write("u,v,x,y,z,K,H,lambda1,lambda2\n")
            for i in range(nu_):
                for j in range(nv_):
                    x, y, z = self.f[i, j]
                    row = [self.us[i], self.vs[j], x, y, z]
                    for arr in (K, H, l1, l2):
                        row.append(arr[i, j] if arr is not None else float("nan"))
                    out.write(",".join(f"{val:.9g}" for val in row) + "\n")


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


def reconstruct_surface(forms: FundamentalForms, window=(-0.5, 0.5, 0.6, 1.4),
                        res=(201, 201), base=(0.0, 1.0), guard=1e-5) -> SurfaceGrid:
    """Integrate the frame equations over the grid.

    Guard: Gauss and Codazzi residuals are sampled first; reconstruction
    refuses to run on non-integrable input.
    """
    u0, u1, v0, v1 = window
    nu_, nv_ = res
    us = np.linspace(u0, u1, nu_)
    vs = np.linspace(v0, v1, nv_)
    gu, gv = np.meshgrid(us[:: max(1, nu_ // 8)], vs[:: max(1, nv_ // 8)], indexing="ij")
    if np.max(np.abs(forms.gauss_residual(gu, gv))) > guard:
        raise CgcError("Gauss equation residual above guard: forms not integrable")
    if np.max(np.abs(forms.codazzi_residual(gu, gv))) > guard:
        raise CgcError("Codazzi residual above guard: forms not integrable")

    om = forms.omega

    def coeffs(u, v):
        j = om.jet(u, v, 1)
        w = np.asarray(j.value())
        return w, np.asarray(j.partial(1, 0)), np.asarray(j.partial(0, 1))

    def rk4_u(u, v, state, h):
        def rhs(uu, st):
            w, wu, wv = coeffs(uu, v)
            E = np.exp(2 * w)
            L = np.exp(w) * np.cosh(w)
            return _gw_rhs_u(st, w, wu, wv, L, E)
        k1 = rhs(u, state)
        k2 = rhs(u + h / 2, state + h / 2 * k1)
        k3 = rhs(u + h / 2, state + h / 2 * k2)
        k4 = rhs(u + h, state + h * k3)
        return state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    def rk4_v(u, v, state, h):
        def rhs(vv, st):
            j = om.jet(u, vv, 1)
            w = np.asarray(j.value())
            wu = np.asarray(j.partial(1, 0))
            wv = np.asarray(j.partial(0, 1))
            E = np.exp(2 * w)
            N = np.exp(w) * np.sinh(w)
            return _gw_rhs_v(st, w, wu, wv, N, E)
        k1 = rhs(v, state)
        k2 = rhs(v + h / 2, state + h / 2 * k1)
        k3 = rhs(v + h / 2, state + h / 2 * k2)
        k4 = rhs(v + h, state + h * k3)
        return state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    # spine along v = base[1] through the base point, with substeps
    bi = int(np.argmin(np.abs(vs - base[1])))
    vspine = vs[bi]
    w0 = float(np.asarray(om.jet(base[0], vspine, 0).value()))
    state0 = np.stack([np.zeros(3),
                       np.exp(w0) * np.array([1.0, 0.0, 0.0]),
                       np.exp(w0) * np.array([0.0, 1.0, 0.0]),
                       np.array([0.0, 0.0, 1.0])])
    spine = {}
    b0 = int(np.argmin(np.abs(us - base[0])))
    nsub = 4
    st = state0.copy()
    spine[b0] = st.copy()
    for i in range(b0, nu_ - 1):
        h = (us[i + 1] - us[i]) / nsub
        for k in range(nsub):
            st = rk4_u(us[i] + k * h, vspine, st, h)
        spine[i + 1] = st.copy()
    st = state0.copy()
    for i in range(b0, 0, -1):
        h = (us[i - 1] - us[i]) / nsub
        for k in range(nsub):
            st = rk4_u(us[i] + k * h, vspine, st, h)
        spine[i - 1] = st.copy()

    # all columns at once, vectorized over u
    S = np.stack([spine[i] for i in range(nu_)])      # (nu, 4, 3)
    Sv = np.transpose(S, (1, 2, 0))                    # (4, 3, nu)
    F = np.zeros((nu_, nv_, 3))
    FU = np.zeros((nu_, nv_, 3))
    FV = np.zeros((nu_, nv_, 3))
    NUF = np.zeros((nu_, nv_, 3))

    def put(j, state):
        F[:, j] = state[0].T
        FU[:, j] = state[1].T
        FV[:, j] = state[2].T
        NUF[:, j] = state[3].T

    def rk4_v_vec(v, state, h):
        def rhs(vv, st):
            j = om.jet(us, np.full_like(us, vv), 1)
            w = np.asarray(j.value())
            wu = np.asarray(j.partial(1, 0))
            wv = np.asarray(j.partial(0, 1))
            E = np.exp(2 * w)
            N = np.exp(w) * np.sinh(w)
            f, fu, fv, nu = st
            fuv = wv * fu + wu * fv
            fvv = -wu * fu + wv * fv + N * nu
            nuv = -(N / E) * fv
            return np.stack([fv, fuv, fvv, nuv])
        k1 = rhs(v, state)
        k2 = rhs(v + h / 2, state + h / 2 * k1)
        k3 = rhs(v + h / 2, state + h / 2 * k2)
        k4 = rhs(v + h, state + h * k3)
        return state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    put(bi, Sv)
    st = Sv.copy()
    for j in range(bi, nv_ - 1):
        h = (vs[j + 1] - vs[j]) / nsub
        for k in range(nsub):
            st = rk4_v_vec(vs[j] + k * h, st, h)
        put(j + 1, st)
    st = Sv.copy()
    for j in range(bi, 0, -1):
        h = (vs[j - 1] - vs[j]) / nsub
        for k in range(nsub):
            st = rk4_v_vec(vs[j] + k * h, st, h)
        put(j - 1, st)

    return SurfaceGrid(us=us, vs=vs, f=F, fu=FU, fv=FV, nu=NUF, forms=forms)


def roundtrip_residuals(grid: SurfaceGrid):
    """Sup-norm of I and II recomputed from the sampled immersion."""
    om = grid.forms.omega
    us, vs = grid.us, grid.vs
    UU, VV = np.meshgrid(us, vs, indexing="ij")
    j = om.jet(UU, VV, 0)
    w = np.asarray(j.value())
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


def mean_curvature_check(grid: SurfaceGrid, n_samples=100, seed=3):
    rng = np.random.default_rng(seed)
    du = grid.us[1] - grid.us[0]
    dv = grid.vs[1] - grid.vs[0]
    K, H = curvatures_from_samples(grid.f, du, dv)
    nu_, nv_ = grid.f.shape[:2]
    worst = 0.0
    for _ in range(n_samples):
        i = rng.integers(4, nu_ - 4)
        j = rng.integers(4, nv_ - 4)
        worst = max(worst, abs(abs(H[i, j]) - 0.5))
    return worst


# ---------------------------------------------------------------------------
# Parallel surface
# ---------------------------------------------------------------------------

def parallel_surface(grid: SurfaceGrid) -> SurfaceGrid:
    h = grid.f + grid.nu
    om = grid.forms.omega
    UU, VV = np.meshgrid(grid.us, grid.vs, indexing="ij")
    w = np.asarray(om.jet(UU, VV, 0).value())
    l1 = np.exp(-w) * np.cosh(w)
    l2 = np.exp(-w) * np.sinh(w)
    hu = grid.fu * (1 - l1)[..., None]
    hv = grid.fv * (1 - l2)[..., None]
    return SurfaceGrid(us=grid.us, vs=grid.vs, f=h, fu=hu, fv=hv, nu=grid.nu,
                       forms=grid.forms)


def parallel_regularity(grid: SurfaceGrid, par: SurfaceGrid, tol=1e-6):
    """Rank check of dh on the grid: singular where a principal curvature is 1."""
    n = np.cross(par.fu, par.fv)
    scale = (np.linalg.norm(par.fu, axis=2) * np.linalg.norm(par.fv, axis=2)
             + np.linalg.norm(grid.fu, axis=2) * np.linalg.norm(grid.fv, axis=2))
    return np.linalg.norm(n, axis=2) > tol * scale


def parallel_safe_mask(grid: SurfaceGrid, par: SurfaceGrid, margin=0.05, border=4):
    """Regular points a quantified distance from the degeneracy (|1 - l_i| >
    margin), with a border strip excluded for the difference stencils."""
    om = grid.forms.omega
    UU, VV = np.meshgrid(grid.us, grid.vs, indexing="ij")
    w = np.asarray(om.jet(UU, VV, 0).value())
    l1 = np.exp(-w) * np.cosh(w)
    l2 = np.exp(-w) * np.sinh(w)
    mask = parallel_regularity(grid, par)
    mask &= np.abs(1.0 - l1) > margin
    mask &= np.abs(1.0 - l2) > margin
    mask[:border, :] = mask[-border:, :] = False
    mask[:, :border] = mask[:, -border:] = False
    return mask


class ParallelGerm:
    """Jet provider for the parallel surface near the base point (0, 1).

    Initial frames at a nearby point come from a short high-order
    integration of the frame equations from (0, 1); higher derivatives
    follow from the jet prolongation of the same equations, so the jets
    are exact solutions of the structure equations.
    """

    def __init__(self, omega: OmegaField, base=(0.0, 1.0), step=2e-3):
        self.om = omega
        self.base = base
        self.step = step
        self._states = {}

    def _state_at(self, u, v):
        key = (float(u), float(v))
        if key in self._states:
            return self._states[key]
        w0 = float(np.asarray(self.om.jet(*self.base, 0).value()))
        st = np.stack([np.zeros(3),
                       math.exp(w0) * np.array([1.0, 0.0, 0.0]),
                       math.exp(w0) * np.array([0.0, 1.0, 0.0]),
                       np.array([0.0, 0.0, 1.0])])
        # march u then v with small RK4 steps
        def rhs_u(uu, vv, s):
            j = self.om.jet(uu, vv, 1)
            wq = float(np.asarray(j.value()))
            wu, wv = j.partial(1, 0), j.partial(0, 1)
            E = math.exp(2 * wq)
            L = math.exp(wq) * math.cosh(wq)
            return _gw_rhs_u(s, wq, wu, wv, L, E)

        def rhs_v(uu, vv, s):
            j = self.om.jet(uu, vv, 1)
            wq = float(np.asarray(j.value()))
            wu, wv = j.partial(1, 0), j.partial(0, 1)
            E = math.exp(2 * wq)
            N = math.exp(wq) * math.sinh(wq)
            return _gw_rhs_v(s, wq, wu, wv, N, E)

        for target, fixed, rhs, axis in ((u, self.base[1], rhs_u, 0),
                                         (v, None, rhs_v, 1)):
            if axis == 0:
                cur, end, vv = self.base[0], u, self.base[1]
                if abs(end - cur) > 0:
                    n = max(1, int(math.ceil(abs(end - cur) / self.step)))
                    h = (end - cur) / n
                    for _ in range(n):
                        k1 = rhs(cur, vv, st)
                        k2 = rhs(cur + h / 2, vv, st + h / 2 * k1)
                        k3 = rhs(cur + h / 2, vv, st + h / 2 * k2)
                        k4 = rhs(cur + h, vv, st + h * k3)
                        st = st + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                        cur += h
            else:
                cur, end, uu = self.base[1], v, u
                if abs(end - cur) > 0:
                    n = max(1, int(math.ceil(abs(end - cur) / self.step)))
                    h = (end - cur) / n
                    for _ in range(n):
                        k1 = rhs(uu, cur, st)
                        k2 = rhs(uu, cur + h / 2, st + h / 2 * k1)
                        k3 = rhs(uu, cur + h / 2, st + h / 2 * k2)
                        k4 = rhs(uu, cur + h, st + h * k3)
                        st = st + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                        cur += h
        self._states[key] = st
        return st

    def jets(self, u, v, order):
        """2-D jets of (f, fu, fv, nu) at (u, v) by prolongation."""
        st = self._state_at(u, v)
        wj = self.om.jet(u, v, order + 1)
        E = jet_exp(2.0 * wj)
        L = jet_exp(wj) * jet_cosh(wj)
        N = jet_exp(wj) * jet_sinh(wj)
        wu = wj.du()
        wv = wj.dv()
        fields = [[Jet2.constant(st[m][k], order, ()) for k in range(3)] for m in range(4)]
        for d in range(order):
            f, fu, fv, nuf = fields
            o = order
            fuu = [wu.truncate(o) * fu[k] - wv.truncate(o) * fv[k] + L.truncate(o) * nuf[k]
                   for k in range(3)]
            fuv = [wv.truncate(o) * fu[k] + wu.truncate(o) * fv[k] for k in range(3)]
            fvv = [-wu.truncate(o) * fu[k] + wv.truncate(o) * fv[k] + N.truncate(o) * nuf[k]
                   for k in range(3)]
            nuu = [-(L.truncate(o) / E.truncate(o)) * fu[k] for k in range(3)]
            nuv = [-(N.truncate(o) / E.truncate(o)) * fv[k] for k in range(3)]
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

    def h_component(self, k):
        germ = self

        def fn(u, v, order):
            fields = germ.jets(u, v, order)
            return fields[0][k] + fields[3][k]
        return JetFn(fn)

    def as_germ(self) -> MapGerm:
        return MapGerm(tuple(self.h_component(k) for k in range(3)), sf=SpaceForm(0.0))
