"""Command-line surface.

Subcommands: classify, invariants, cusp (factor/classify/normalize), build,
deform, mesh, cgc, frenet, bench.  Inputs are germ-spec JSON documents
(see germspec); outputs are deterministic JSON reports, OBJ meshes and CSV
tables.

Exit codes: 0 success / certificate passed; 1 certificate failed;
2 malformed input; 3 domain error; 4 deformation precondition mismatch.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import cgc as cgcmod
from . import curves as cv
from . import deform as dm
from . import frontal as fr
from . import germspec as gs
from .builder import AsymptoticData, BuildError, SwallowtailData, build, discriminants
from .jets import JetError, ParseError
from .metric import DomainError


def _emit(obj):
    sys.stdout.write(gs.dumps(obj) + "\n")


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
    germ = _load_germ(args.spec)
    at = tuple(float(x) for x in args.at.split(","))
    rep = fr.classify(germ, at=at)
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
    if isinstance(data, AsymptoticData):
        from .builder import build_asymptotic
        germ = build_asymptotic(data, a=a, require_swallowtail=False)
    else:
        germ = build(data, a=a)
    rep = fr.classify(germ)
    out = {"report": rep.to_dict()}
    if germ.exprs is not None:
        from .jets import to_source
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
    d1, a1 = gs.load_data_file(args.spec1)
    d2, a2 = gs.load_data_file(args.spec2)
    a = a1
    try:
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
            track = getattr(fam, "kext_sign", None)
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
    germ = _load_germ(args.spec)
    try:
        u0, u1, v0, v1 = (float(x) for x in args.domain.split(","))
        m, n = (int(x) for x in args.res.split(","))
    except ValueError as exc:
        raise gs.SpecError(f"bad domain/res: {exc}") from exc
    if m < 1 or n < 1:
        raise gs.SpecError(f"resolution must be positive, got {m},{n}")
    us = np.linspace(u0, u1, m + 1)
    vs = np.linspace(v0, v1, n + 1)
    UU, VV = np.meshgrid(us, vs, indexing="ij")
    F = germ.fjet(UU, VV, 0)
    P = np.stack([c.value() for c in F], axis=-1)
    if germ.sf.a < 0:
        w = 1.0 + germ.sf.a * np.sum(P * P, axis=-1)
        if np.any(w <= 0):
            raise DomainError("mesh leaves the model domain (1 + a|p|^2 <= 0)")
    with open(args.out, "w") as out:
        for i in range(m + 1):
            for j in range(n + 1):
                x, y, z = P[i, j]
                out.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
        for i in range(m):
            for j in range(n):
                aa = i * (n + 1) + j + 1
                bb = (i + 1) * (n + 1) + j + 1
                out.write(f"f {aa} {bb} {bb + 1} {aa + 1}\n")
    csv_path = args.out.rsplit(".", 1)[0] + ".csv"
    with open(csv_path, "w") as out:
        out.write("u,v,x,y,z,K\n")
        for i in range(m + 1):
            for j in range(n + 1):
                try:
                    K, _ = fr.gaussian_curvature(germ, (us[i], vs[j]))
                except (fr.ClassificationError, JetError):
                    K = float("nan")
                x, y, z = P[i, j]
                out.write(f"{us[i]:.9g},{vs[j]:.9g},{x:.9g},{y:.9g},{z:.9g},{K:.9g}\n")
    _emit({"vertices": (m + 1) * (n + 1), "faces": m * n,
           "obj": args.out, "csv": csv_path})
    return 0


def cmd_cgc(args):
    m, n = (int(x) for x in args.grid.split(","))
    if m < 9 or n < 9:
        raise gs.SpecError("cgc grid must be at least 9x9")
    window = tuple(float(x) for x in args.window.split(","))
    prof = cgcmod.solve_radial_ode()
    om = cgcmod.OmegaField(prof)
    forms = cgcmod.FundamentalForms(om)
    chk = cgcmod.check_swallowtail_conditions(forms)
    grid = cgcmod.reconstruct_surface(forms, window=window, res=(m, n))
    rI, rII = cgcmod.roundtrip_residuals(grid)
    hdev = cgcmod.mean_curvature_check(grid)
    par = cgcmod.parallel_surface(grid)
    du, dv = grid.us[1] - grid.us[0], grid.vs[1] - grid.vs[0]
    K, H = cgcmod.curvatures_from_samples(par.f, du, dv)
    mask = cgcmod.parallel_safe_mask(grid, par) & ~np.isnan(K)
    Kdev = float(np.percentile(np.abs(K[mask] - 1.0), 95))
    rep = fr.classify(cgcmod.ParallelGerm(om).as_germ(), at=(0.0, 1.0))
    out_prefix = args.out_prefix
    grid.write_obj(out_prefix + "_cmc.obj")
    par.write_obj(out_prefix + "_k1.obj")
    l1, l2 = forms.principal(*np.meshgrid(grid.us, grid.vs, indexing="ij"))
    Ks, Hs = cgcmod.curvatures_from_samples(grid.f, du, dv)
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
    a, b = (float(x) for x in args.interval.split(","))
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
            for row in rows:
                fh.write(",".join(f"{x:.9g}" for x in row) + "\n")
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


def cmd_bench(args):
    from .bench import run_benchmark
    run_benchmark(repeats=args.repeats)
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(
        prog="swallowkit",
        description="Swallowtail germs: classification, invariants, certified "
                    "deformations and the constant-curvature pipeline.")
    p.add_argument("--tol-sign", type=float, default=fr.SIGN_TOL,
                   help="tolerance band for sign invariants (default %(default)g)")
    p.add_argument("--tol-residual", type=float, default=1e-7,
                   help="residual tolerance for identity checks (default %(default)g)")
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
    q.add_argument("--res", required=True, help="m,n quads")
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
    q.add_argument("--step", type=float, default=1e-3)
    q.add_argument("--samples", type=int, default=41)
    q.add_argument("--out")
    q.set_defaults(fn=cmd_frenet)

    q = sub.add_parser("bench", help="compare compiled and fallback jet kernels")
    q.add_argument("--repeats", type=int, default=5)
    q.set_defaults(fn=cmd_bench)

    args = p.parse_args(argv)
    fr.SIGN_TOL = args.tol_sign
    try:
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


if __name__ == "__main__":
    sys.exit(main())
