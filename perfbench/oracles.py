"""Independent oracles for the benchmark.

Everything here is computed with numpy from the polynomial coefficients the
input generator drew, never through swallowkit.  A germ is described by
``PolyGerm``: the map f(u, v) = sum_k v^k P_k(u) with polynomial P_k, which
covers both kinds of data the package builds:

- swallowtail data (xi, b):   f = gamma + v xi + v^2 b,
- asymptotic data (xi, q, r): f = gamma + v xi + v^2 q xi' + v^3 r,

where gamma(u) = int_0^u s xi(s) ds.  Every check raises ``OracleError``
with a message naming what disagreed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P


class OracleError(AssertionError):
    """An output of the program disagrees with its oracle."""


def _poly_source(coeffs) -> str:
    """Expression string of sum c_i u^i in the package grammar."""
    terms = []
    for i, c in enumerate(coeffs):
        c = float(c)
        if c == 0.0:
            continue
        num = repr(c) if c > 0 else f"(0-{-c!r})"
        terms.append(num if i == 0 else (f"{num}*u" if i == 1 else f"{num}*u^{i}"))
    return " + ".join(terms) if terms else "0"


def _vec(rows):
    return [np.asarray(r, dtype=float) for r in rows]


@dataclass
class PolyGerm:
    """Polynomial data, kept as coefficient arrays (ascending powers in u)."""

    xi: list                 # three coefficient arrays
    b: list | None = None    # swallowtail data
    q: np.ndarray | None = None   # asymptotic data
    r: list | None = None

    @staticmethod
    def swallowtail(xi, b):
        return PolyGerm(xi=_vec(xi), b=_vec(b))

    @staticmethod
    def asymptotic(xi, q, r):
        return PolyGerm(xi=_vec(xi), q=np.atleast_1d(np.asarray(q, dtype=float)), r=_vec(r))

    @property
    def is_asymptotic(self) -> bool:
        return self.q is not None

    # -- the inputs handed to the program
    def sources(self) -> dict:
        out = {"xi": [_poly_source(c) for c in self.xi]}
        if self.is_asymptotic:
            out["q"] = _poly_source(self.q)
            out["r"] = [_poly_source(c) for c in self.r]
        else:
            out["b"] = [_poly_source(c) for c in self.b]
        return out

    # -- frame of the cusp field at u = 0
    def xi_frame0(self):
        def at(c, k):
            return math.factorial(k) * (c[k] if len(c) > k else 0.0)
        return tuple(np.array([at(c, k) for c in self.xi]) for k in range(3))

    def b0(self):
        if self.is_asymptotic:
            return self.q[0] * self.xi_frame0()[1]
        return np.array([c[0] for c in self.b])

    # -- the map as v-polynomial coefficients P_k(u), each a (3,) list of arrays
    def v_terms(self):
        gamma = [P.polyint(P.polymulx(c)) for c in self.xi]   # int_0^u s xi(s) ds
        terms = [gamma, list(self.xi)]
        if self.is_asymptotic:
            terms.append([P.polymul(self.q, P.polyder(c)) for c in self.xi])
            terms.append(list(self.r))
        else:
            terms.append(list(self.b))
        return terms


def det3(a, b, c) -> float:
    return float(np.linalg.det(np.stack([a, b, c], axis=1)))


def discriminants(g: PolyGerm):
    """(D0, D1): D0 = -det(xi, xi', -xi'' + 2b)(0), D1 = det(xi, xi', b)(0)."""
    x, xp, xpp = g.xi_frame0()
    b0 = g.b0()
    return -det3(x, xp, -xpp + 2.0 * b0), det3(x, xp, b0)


def dqr0(g: PolyGerm) -> float:
    """Dqr(0) = 6 det(xi, xi', r)(0) - 4 q(0)^2 det(xi, xi', xi'')(0)."""
    x, xp, xpp = g.xi_frame0()
    r0 = np.array([c[0] for c in g.r])
    q0 = float(g.q[0])
    return 6.0 * det3(x, xp, r0) - 4.0 * q0 * q0 * det3(x, xp, xpp)


def sign(x: float, tol: float = 1e-12) -> int:
    if abs(x) <= tol:
        return 0
    return 1 if x > 0 else -1


def cusp_cross(g: PolyGerm) -> float:
    x, xp, _ = g.xi_frame0()
    return float(np.linalg.norm(np.cross(x, xp)))


# ---------------------------------------------------------------------------
# Curvature of the polynomial map in the conformal models w^-2 g_E
# ---------------------------------------------------------------------------

def _derivs(g: PolyGerm, u, v):
    """f, f_u, f_v, f_uu, f_uv, f_vv at (u, v), exactly from the coefficients."""
    out = {k: np.zeros(3) for k in ("f", "fu", "fv", "fuu", "fuv", "fvv")}
    for k, comp in enumerate(g.v_terms()):
        vk = v ** k
        dvk = k * v ** (k - 1) if k >= 1 else 0.0
        ddvk = k * (k - 1) * v ** (k - 2) if k >= 2 else 0.0
        for i, c in enumerate(comp):
            p, dp, ddp = (P.polyval(u, c), P.polyval(u, P.polyder(c)),
                          P.polyval(u, P.polyder(c, 2)))
            out["f"][i] += vk * p
            out["fu"][i] += vk * dp
            out["fv"][i] += dvk * p
            out["fuu"][i] += vk * ddp
            out["fuv"][i] += dvk * dp
            out["fvv"][i] += ddvk * p
    return out


def extrinsic_curvature(g: PolyGerm, a: float, u: float, v: float) -> float:
    """K_ext of the map in the model w^-2 g_E, w = 1 + a|p|^2.

    Under g~ = e^{2 phi} g_E the shape operator becomes
    e^{-phi}(A - d phi(nu) I), so det = e^{-2 phi}(K_E - 2 H_E phi_nu + phi_nu^2)
    with phi = -log w.
    """
    d = _derivs(g, u, v)
    fu, fv = d["fu"], d["fv"]
    n = np.cross(fu, fv)
    nu = n / np.linalg.norm(n)
    E, F, G = fu @ fu, fu @ fv, fv @ fv
    L, M, N = d["fuu"] @ nu, d["fuv"] @ nu, d["fvv"] @ nu
    den = E * G - F * F
    KE = (L * N - M * M) / den
    HE = (E * N - 2 * F * M + G * L) / (2 * den)
    p = d["f"]
    w = 1.0 + a * (p @ p)
    phi_nu = float(-2.0 * a * (p @ nu) / w)
    return float(w * w * (KE - 2.0 * HE * phi_nu + phi_nu * phi_nu))


def fd_gaussian_curvature(fn, u: float, v: float, h: float = 1e-3) -> float:
    """Euclidean K of a position map fn(u, v) -> (3,) by central differences."""
    f = lambda du, dv: np.asarray(fn(u + du, v + dv), dtype=float)
    f0 = f(0, 0)
    fu = (f(h, 0) - f(-h, 0)) / (2 * h)
    fv = (f(0, h) - f(0, -h)) / (2 * h)
    fuu = (f(h, 0) - 2 * f0 + f(-h, 0)) / (h * h)
    fvv = (f(0, h) - 2 * f0 + f(0, -h)) / (h * h)
    fuv = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)
    n = np.cross(fu, fv)
    nu = n / np.linalg.norm(n)
    E, F, G = fu @ fu, fu @ fv, fv @ fv
    return float(((fuu @ nu) * (fvv @ nu) - (fuv @ nu) ** 2) / (E * G - F * F))


def grid_gaussian_curvature(f, du, dv):
    """Euclidean K of grid samples f (nu, nv, 3) by second-order differences."""
    fu = np.gradient(f, du, axis=0)
    fv = np.gradient(f, dv, axis=1)
    fuu = np.gradient(fu, du, axis=0)
    fuv = np.gradient(fu, dv, axis=1)
    fvv = np.gradient(fv, dv, axis=1)
    n = np.cross(fu, fv)
    nn = np.linalg.norm(n, axis=2)
    nu = n / np.where(nn == 0, 1.0, nn)[..., None]
    E, F, G = (np.einsum("ijk,ijk->ij", x, y) for x, y in ((fu, fu), (fu, fv), (fv, fv)))
    L, M, N = (np.einsum("ijk,ijk->ij", x, nu) for x in (fuu, fuv, fvv))
    den = E * G - F * F
    with np.errstate(divide="ignore", invalid="ignore"):
        return (L * N - M * M) / den, den


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_signs(report_signs, g: PolyGerm, where: str):
    """(sigma0_S, sigma_g_S) of a report against (sign D0, sign D1)."""
    D0, D1 = discriminants(g)
    want = (sign(D0), sign(D1))
    got = tuple(int(s) for s in report_signs)
    if got != want:
        raise OracleError(f"{where}: signs {got} != (sign D0, sign D1) = {want} "
                          f"(D0={D0:.6g}, D1={D1:.6g})")


def check_kext(K_ext: float, g: PolyGerm, a: float, at, where: str, rtol=1e-6):
    want = extrinsic_curvature(g, a, *at)
    if not abs(K_ext - want) <= rtol * max(1.0, abs(want)):
        raise OracleError(f"{where}: K_ext {K_ext!r} at {at} != oracle {want!r}")


def check_certificate(cert: dict, g0: PolyGerm, g1: PolyGerm, where: str):
    """A passed certificate whose end signs are the oracle signs of its data."""
    if not cert["pass"]:
        raise OracleError(f"{where}: certificate failed: {cert['failures'][:3]}")
    first, last = cert["per_t"][0], cert["per_t"][-1]
    if first["t"] != 0.0 or last["t"] != 1.0:
        raise OracleError(f"{where}: certificate does not span t = 0..1")
    check_signs((first["sigma0_S"], first["sigma_g_S"]), g0, f"{where} t=0")
    check_signs((last["sigma0_S"], last["sigma_g_S"]), g1, f"{where} t=1")


def check_kext_sign(kext_sign: int, g: PolyGerm, where: str):
    want = sign(dqr0(g))
    if kext_sign != want:
        raise OracleError(f"{where}: kext_sign {kext_sign} != sign Dqr(0) = {want}")


# -- surfaces: the ex217 spec xi = (2, 3u, 0), b = (0, 0, 1) -----------------

def ex217(u, v):
    """Closed form (u^2 + 2v, u^3 + 3uv, v^2)."""
    return np.array([u * u + 2 * v, u ** 3 + 3 * u * v, v * v])


def read_obj_vertices(path):
    with open(path) as fh:
        rows = [line.split()[1:] for line in fh if line.startswith("v ")]
    return np.array(rows, dtype=float)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def check_mesh(vertices, csv, atol=1e-8, rtol_k=1e-3, v_margin=0.02):
    """Vertices on the closed form, CSV K against finite differences away from
    the singular set v = 0, K undefined on it, and K < 0 at the tail probes.

    The self-intersections of (u^2 + 2v, u^3 + 3uv, v^2) pair (u, v) with
    (-u, v) on v = -u^2/3 < 0, so the tail is the side v > 0; its probes are
    the vertices with |u| <= 0.1 and 0.02 <= v <= 0.2.
    """
    us, vs = csv["u"], csv["v"]
    want = np.stack([ex217(u, v) for u, v in zip(us, vs)])
    if vertices.shape != want.shape:
        raise OracleError(f"mesh: {len(vertices)} vertices, {len(want)} CSV rows")
    scale = atol * (1 + np.abs(want).max())
    err = np.abs(vertices - want).max()
    if not err <= scale:
        raise OracleError(f"mesh: vertex off the closed form by {err:.3g}")
    xyz = np.stack([csv["x"], csv["y"], csv["z"]], axis=1)
    if not np.abs(xyz - want).max() <= scale:
        raise OracleError("mesh: CSV positions off the closed form")
    K = csv["K"]
    if not np.all(np.isnan(K[np.abs(vs) < 1e-12])):
        raise OracleError("mesh: K reported on the singular set v = 0")
    away = np.abs(vs) >= v_margin
    ref = np.array([fd_gaussian_curvature(ex217, u, v) for u, v in zip(us[away], vs[away])])
    bad = ~(np.abs(K[away] - ref) <= rtol_k * np.maximum(1.0, np.abs(ref)))
    if bad.any():
        j = int(np.argmax(bad))
        raise OracleError(f"mesh: CSV K {K[away][j]!r} at ({us[away][j]}, {vs[away][j]}) "
                          f"!= finite-difference {ref[j]!r}")
    tail = (np.abs(us) <= 0.1) & (vs >= 0.02) & (vs <= 0.2)
    if not tail.any() or not np.all(K[tail] < 0):
        raise OracleError(f"mesh: K >= 0 at a tail probe: max {np.max(K[tail])!r}")
    return int(away.sum())


def check_cgc(summary: dict, par_vertices, shape, window, kdev_tol=1e-3, resid_tol=1e-4):
    """Round-trip residuals, K = 1 on the parallel surface (recomputed from its
    OBJ away from its singular curves) and the swallowtail at (0, 1).

    The OBJ keeps 9 significant digits, so the difference stencil spans two
    grid steps to keep that rounding well below the tolerance.
    """
    rI, rII = summary["roundtrip"]["I"], summary["roundtrip"]["II"]
    if not (rI < resid_tol and rII < resid_tol):
        raise OracleError(f"cgc: round-trip residuals ({rI:.3g}, {rII:.3g}) >= {resid_tol}")
    if not summary["parallel_report"]["is_swallowtail"]:
        raise OracleError("cgc: ParallelGerm at (0, 1) is not classified a swallowtail")
    m, n = shape
    f = par_vertices.reshape(m, n, 3)[::2, ::2]
    du = 2 * (window[1] - window[0]) / (m - 1)
    dv = 2 * (window[3] - window[2]) / (n - 1)
    K, den = grid_gaussian_curvature(f, du, dv)
    inner = np.zeros(K.shape, dtype=bool)
    inner[2:-2, 2:-2] = True
    # regular points: the area element is not small next to its typical size
    safe = inner & np.isfinite(K) & (den > 0.2 * np.median(den[inner]))
    if safe.sum() < 0.5 * inner.sum():
        raise OracleError(f"cgc: only {int(safe.sum())} regular samples on the parallel surface")
    kdev = float(np.percentile(np.abs(K[safe] - 1.0), 95))
    if not kdev < kdev_tol:
        raise OracleError(f"cgc: parallel surface |K - 1| p95 = {kdev:.3g} >= {kdev_tol}")
    return kdev
