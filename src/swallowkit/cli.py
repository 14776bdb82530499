"""Command-line surface.

Subcommands: classify, invariants, cusp (factor/classify/normalize), build,
deform, mesh, cgc, frenet.  Inputs are germ-spec JSON documents
(see germspec); outputs are deterministic JSON reports, OBJ meshes and CSV
tables.

Exit codes: 0 success / certificate passed; 1 certificate failed;
2 malformed input; 3 domain error; 4 deformation precondition mismatch.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import cgc as cgcmod
from . import curves as cv
from . import deform as dm
from . import frontal as fr
from . import germspec as gs
from .builder import AsymptoticData, BuildError, SwallowtailData, build, discriminants
from .jets import JetError, ParseError, to_source
from .metric import DomainError


def _emit(obj):
    sys.stdout.write(gs.dumps(obj) + "\n")


def _numbers(text, n, what, cast=float):
    """The n comma-separated finite numbers of a flag value."""
    try:
        out = tuple(cast(x) for x in text.split(","))
    except ValueError as exc:
        raise gs.SpecError(f"bad {what} {text!r}: {exc}") from exc
    if len(out) != n or not all(math.isfinite(x) for x in out):
        raise gs.SpecError(f"{what} needs {n} comma-separated finite numbers, got {text!r}")
    return out


def _load_germ(path):
    kind, obj = gs.load_file(path)
    if kind != "germ":
        raise gs.SpecError(f"{path}: expected a germ document, got a {kind}")
    return obj


def _load_curve(path):
    kind, obj = gs.load_file(path)
    if kind == "curve":
        return obj
    raise gs.SpecError(f"{path}: expected a curve document")


def cmd_classify(args):
    at = _numbers(args.at, 2, "--at u,v")
    rep = fr.classify(_load_germ(args.spec), at=at)
    _emit(rep.to_dict())
    return 0


def cmd_invariants(args):
    germ = _load_germ(args.spec)
    rep = fr.classify(germ)
    out = rep.to_dict()
    if germ.data is not None:
        data = germ.data
        disc = discriminants(data)
        out["discriminants"] = {"D0": disc.D0, "D1": disc.D1,
                                "det_xi": disc.psi0}
        if disc.Dqr is not None:
            out["discriminants"]["Dqr_at_0"] = disc.Dqr(0.0)
        out["delta_at_0"] = disc.delta(0.0)
    _emit(out)
    return 0


def cmd_cusp(args):
    curve = _load_curve(args.spec)
    fact = cv.factor_cusp(curve)
    if args.action == "factor":
        xj = fact.jets(0.0, 2)
        _emit({"xi_at_0": [j.value() for j in xj],
               "xi_prime_at_0": [j.partial(1, 0) for j in xj]})
        return 0
    if args.action == "classify":
        cls = cv.classify_cusp(fact)
        _emit({"kind": cls.kind, "handedness": cls.handedness, "det": cls.det,
               "cross_norm": cls.cross_norm, "indeterminate": cls.indeterminate})
        return 0
    # normalize
    _, nfact, H = cv.normalize_half_arclength(curve)
    samples = {}
    for u in (-0.1, -0.01, 0.01, 0.1):
        xn = [j.value() for j in nfact.jets(u, 0)]
        samples[f"{u:g}"] = float(np.linalg.norm(xn))
    _emit({"unit_field_norms": samples,
           "t_of_u": {f"{u:g}": H.t_of_u(u) for u in (-0.1, 0.1)}})
    return 0


def cmd_build(args):
    data, a = gs.load_data_file(args.spec)
    germ = build(data, a=a)
    rep = fr.classify(germ)
    out = {"report": rep.to_dict()}
    if germ.exprs is not None:
        out["f"] = [to_source(e) for e in germ.exprs]
    disc = discriminants(data)
    out["discriminants"] = {"D0": disc.D0, "D1": disc.D1, "det_xi": disc.psi0}
    if disc.Dqr is not None:
        out["discriminants"]["Dqr_at_0"] = disc.Dqr(0.0)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(gs.dumps(out) + "\n")
    else:
        _emit(out)
    return 0


def cmd_deform(args):
    if args.steps < 2:
        raise gs.SpecError(f"--steps must be at least 2, got {args.steps}")
    d1, a = gs.load_data_file(args.spec1)
    d2, a2 = gs.load_data_file(args.spec2)
    try:
        if a2 != a:
            raise dm.DeformError(f"endpoints in different space forms: a = {a:g} and a = {a2:g}")
        if args.recipe == "A":
            if not isinstance(d1, SwallowtailData) or not isinstance(d2, SwallowtailData):
                raise dm.DeformError("recipe A expects swallowtail-data endpoints")
            fam = dm.deform_theorem_A(d1, d2, a=a)
            predicate = "generic_swallowtail"
            track = None
        elif args.recipe == "D":
            if not isinstance(d1, AsymptoticData) or not isinstance(d2, AsymptoticData):
                raise dm.DeformError("recipe D expects asymptotic-data endpoints")
            fam = dm.deform_theorem_D(d1, d2, a=a,
                                      preserve_sign=True if args.preserve_sign else None)
            predicate = "asymptotic_swallowtail"
            track = fam.kext_sign
        else:
            fam = dm.deform_any_swallowtail(d1, d2, a=a)
            predicate = "swallowtail"
            track = None
    except dm.DeformError as exc:
        _emit({"error": str(exc), "pass": False})
        return 4
    cert = dm.certify(fam, predicate, steps=args.steps, track_kext_sign=track)
    _emit(cert.to_dict())
    return 0 if cert.passed else 1


def cmd_mesh(args):
    u0, u1, v0, v1 = _numbers(args.domain, 4, "--domain u0,u1,v0,v1")
    m, n = _numbers(args.res, 2, "--res m,n", int)
    germ = _load_germ(args.spec)
    if m < 1 or n < 1:
        raise gs.SpecError(f"resolution must be positive, got {m},{n}")
    csv_path = os.path.splitext(args.out)[0] + ".csv"
    if csv_path == args.out:
        raise gs.SpecError(f"--out {args.out!r} is also the path of the CSV: give it another extension")
    us = np.linspace(u0, u1, m + 1)
    vs = np.linspace(v0, v1, n + 1)
    UU, VV = np.meshgrid(us, vs, indexing="ij")
    F = germ.fjet(UU, VV, 0)
    P = np.stack([c.value() for c in F], axis=-1)
    if germ.sf.a < 0:
        w = 1.0 + germ.sf.a * np.sum(P * P, axis=-1)
        if np.any(w <= 0):
            raise DomainError("mesh leaves the model domain (1 + a|p|^2 <= 0)")
    cgcmod.write_obj(args.out, P)
    K, _ = fr.gaussian_curvature(germ, (UU, VV))
    with open(csv_path, "w") as out:
        out.write("u,v,x,y,z,K\n")
        cgcmod.write_rows(out, ",".join(["%.9g"] * 6) + "\n",
                          np.stack([UU, VV, *np.moveaxis(P, -1, 0), K], axis=-1))
    _emit({"vertices": (m + 1) * (n + 1), "faces": m * n,
           "obj": args.out, "csv": csv_path})
    return 0


def cmd_cgc(args):
    m, n = _numbers(args.grid, 2, "--grid m,n", int)
    if m < 9 or n < 9:
        raise gs.SpecError("cgc grid must be at least 9x9")
    window = _numbers(args.window, 4, "--window u0,u1,v0,v1")
    prof = cgcmod.solve_radial_ode()
    # omega reads F at the radii of the window: past the profile's domain the
    # end steps' polynomials are extrapolated, which the Gauss guard cannot see
    (ua, ub), (va, vb) = sorted(window[:2]), sorted(window[2:])
    radii = (math.hypot(max(ua, -ub, 0.0), max(va, -vb, 0.0)),
             math.hypot(max(-ua, ub), max(-va, vb)))
    if radii[0] < prof.edges[0] or radii[1] > prof.edges[-1]:
        raise cgcmod.CgcError(f"--window {args.window} spans radii {radii[0]:g} to {radii[1]:g}, "
                              f"outside the radial profile's domain "
                              f"[{prof.edges[0]:g}, {prof.edges[-1]:g}]")
    om = cgcmod.OmegaField(prof)
    forms = cgcmod.FundamentalForms(om)
    chk = cgcmod.check_swallowtail_conditions(forms)
    grid = cgcmod.reconstruct_surface(forms, window=window, res=(m, n))
    rI, rII = cgcmod.roundtrip_residuals(grid)
    hdev = cgcmod.mean_curvature_check(grid)
    par = cgcmod.parallel_surface(grid)
    K, _ = par.curvatures
    mask = cgcmod.parallel_safe_mask(grid, par) & ~np.isnan(K)
    if not mask.any():
        raise cgcmod.CgcError(f"--grid {args.grid} leaves no point of the parallel surface "
                              f"inside its 4-point border that is safe to measure K at")
    Kdev = float(np.percentile(np.abs(K[mask] - 1.0), 95))
    rep = fr.classify(cgcmod.ParallelGerm(om).as_germ(), at=cgcmod.SWALLOWTAIL_POINT)
    out_prefix = args.out_prefix
    cgcmod.write_obj(out_prefix + "_cmc.obj", grid.f)
    cgcmod.write_obj(out_prefix + "_k1.obj", par.f)
    l1, l2 = grid.principal
    Ks, Hs = grid.curvatures
    grid.write_csv(out_prefix + "_cmc.csv", K=Ks, H=Hs, l1=l1, l2=l2)
    _emit({
        "profile": {"F_at_1": float(prof.F(1.0)), "Fp_at_1": float(prof.Fp(1.0))},
        "swallowtail_conditions": chk,
        "roundtrip": {"I": rI, "II": rII},
        "mean_curvature_dev": hdev,
        "parallel_K_dev_p95": Kdev,
        "parallel_report": rep.to_dict(),
        "outputs": [out_prefix + "_cmc.obj", out_prefix + "_k1.obj",
                    out_prefix + "_cmc.csv"],
    })
    return 0


def cmd_frenet(args):
    a, b = _numbers(args.interval, 2, "--interval a,b")
    if not (args.step > 0 and math.isfinite(args.step)):
        raise gs.SpecError(f"--step must be a positive number, got {args.step}")
    if args.samples < 1:
        raise gs.SpecError(f"--samples must be an integer >= 1, got {args.samples}")
    fd = cv.FrenetData(kappa=args.kappa, tau=args.tau, step=args.step)
    path = cv.integrate_frenet(fd, interval=(a, b))
    rows = []
    for u in np.linspace(a, b, args.samples):
        T, N, B = path.frame(float(u))
        g = path.gamma(float(u))
        rows.append((float(u), *g, *T))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("u,x,y,z,Tx,Ty,Tz\n")
            cgcmod.write_rows(fh, ",".join(["%.9g"] * 7) + "\n", np.array([rows]))
    k, t = cv.curvature_torsion_of(path.xi_providers(), 0.5 * (a + b))
    T, N, B = path.frame(0.5 * (a + b))
    G = np.stack([T, N, B])
    _emit({
        "recovered_kappa_mid": k.value(),
        "recovered_tau_mid": t.value(),
        "frame_orthonormality": float(np.abs(G @ G.T - np.eye(3)).max()),
        "samples": len(rows),
        "out": args.out,
    })
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(
        prog="swallowkit",
        description="Swallowtail germs: classification, invariants, certified "
                    "deformations and the constant-curvature pipeline.")
    p.add_argument("--tol-sign", type=float, default=fr.SIGN_TOL,
                   help="tolerance band for sign invariants (default %(default)g)")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("classify", help="classification report at a point")
    q.add_argument("spec")
    q.add_argument("--at", default="0,0")
    q.set_defaults(fn=cmd_classify)

    q = sub.add_parser("invariants", help="full invariant report at the origin")
    q.add_argument("spec")
    q.set_defaults(fn=cmd_invariants)

    q = sub.add_parser("cusp", help="space-cusp operations on a curve document")
    q.add_argument("action", choices=("factor", "classify", "normalize"))
    q.add_argument("spec")
    q.set_defaults(fn=cmd_cusp)

    q = sub.add_parser("build", help="build a germ from data and classify it")
    q.add_argument("spec")
    q.add_argument("--out")
    q.set_defaults(fn=cmd_build)

    q = sub.add_parser("deform", help="certified deformation between two data documents")
    q.add_argument("spec1")
    q.add_argument("spec2")
    q.add_argument("--recipe", choices=("A", "D", "any"), default="any")
    q.add_argument("--steps", type=int, default=21)
    q.add_argument("--preserve-sign", action="store_true")
    q.set_defaults(fn=cmd_deform)

    q = sub.add_parser("mesh", help="sample a germ to OBJ + curvature CSV")
    q.add_argument("spec")
    q.add_argument("--domain", required=True, help="u0,u1,v0,v1")
    q.add_argument("--res", required=True, help="m,n grid cells")
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_mesh)

    q = sub.add_parser("cgc", help="constant-curvature pipeline artifacts")
    q.add_argument("--grid", default="201,201")
    q.add_argument("--window", default="-0.5,0.5,0.6,1.4")
    q.add_argument("--out-prefix", default="cgc")
    q.set_defaults(fn=cmd_cgc)

    q = sub.add_parser("frenet", help="curve from curvature and torsion")
    q.add_argument("--kappa", required=True)
    q.add_argument("--tau", required=True)
    q.add_argument("--interval", default="-1,1")
    q.add_argument("--step", type=float, default=0.025)
    q.add_argument("--samples", type=int, default=41)
    q.add_argument("--out")
    q.set_defaults(fn=cmd_frenet)

    args = p.parse_args(argv)
    saved_tol, fr.SIGN_TOL = fr.SIGN_TOL, args.tol_sign
    try:
        if not (args.tol_sign >= 0 and math.isfinite(args.tol_sign)):
            raise gs.SpecError(f"--tol-sign must be a finite number >= 0, got {args.tol_sign}")
        with np.errstate(all="ignore"):
            return args.fn(args)
    except dm.DeformError as exc:
        print(f"precondition mismatch: {exc}", file=sys.stderr)
        return 4
    except (DomainError, fr.ClassificationError, JetError, cv.CurveError,
            BuildError, cgcmod.CgcError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (gs.SpecError, ParseError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    finally:
        fr.SIGN_TOL = saved_tol


if __name__ == "__main__":
    sys.exit(main())
