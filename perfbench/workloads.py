"""The four workloads: seeded inputs, one round of operations, checks.

A workload object generates its inputs from the seed (``generate``), then
runs whole rounds (``run_round``); every round attempts the same operations.
An operation that raises counts as failed; an output that disagrees with
its oracle makes the run incorrect.  Module functions of swallowkit are
looked up at call time (``builder.build``, not a bound name) so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import traceback

import numpy as np

import oracles as orc
from oracles import OracleError, PolyGerm
from speed import SpeedProbe

A_VALUES = (-1.0, 0.0, 1.0)
N_PROBES = 10


def random_germ(rng) -> PolyGerm:
    """Quadratic xi, linear b; a well-conditioned cusp (|xi x xi'|(0) >= 0.3)
    and |D0|, |D1| >= 0.1, all decided by the numpy oracle."""
    while True:
        xi = [np.round(rng.uniform(-1, 1, 3), 9) for _ in range(3)]
        b = [np.round(rng.uniform(-1, 1, 2), 9) for _ in range(3)]
        g = PolyGerm.swallowtail(xi, b)
        D0, D1 = orc.discriminants(g)
        if orc.cusp_cross(g) >= 0.3 and abs(D0) >= 0.1 and abs(D1) >= 0.1:
            return g


def rotated(theta, q, rscale):
    """xi = (c - s u, s + c u, u^2), r = rscale (xi x xi'), constant q."""
    c, s = round(np.cos(theta), 12), round(np.sin(theta), 12)
    R = rscale
    return PolyGerm.asymptotic(
        [[c, -s], [s, c], [0, 0, 1]], [q],
        [[0, 2 * s * R, c * R], [0, -2 * c * R, s * R], [R]])


F_PLUS = PolyGerm.asymptotic([[1], [0, 1], [0, 0, 1]], [0], [[0, 0, 1], [0, -2], [1]])
F_MINUS = PolyGerm.asymptotic([[1], [0, 1], [0, 0, 1]], [0], [[0, 0, -1], [0, 2], [-1]])
PARABOLIC = PolyGerm.asymptotic([[1], [0, 1], [0, 0, 1]], [0.1], [[0], [0], [0]])


def make_data(g: PolyGerm):
    from swallowkit.builder import AsymptoticData, SwallowtailData
    src = g.sources()
    if g.is_asymptotic:
        return AsymptoticData(xi=src["xi"], q=src["q"], r=src["r"])
    return SwallowtailData(xi=src["xi"], b=src["b"])


def build_germ(g: PolyGerm, a: float):
    from swallowkit import builder
    data = make_data(g)
    if g.is_asymptotic:
        return builder.build_asymptotic(data, a=a, require_swallowtail=False)
    return builder.build(data, a=a)


class Workload:
    name = ""
    op_statistic = staticmethod(statistics.median)

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []     # oracle disagreements
        self.timings: list[tuple] = []   # (kind, start, end, items)
        self.speed = SpeedProbe()

    def generate(self):
        raise NotImplementedError

    def run_round(self, i: int, tracer=None):
        raise NotImplementedError

    # -- bookkeeping
    def attempt(self, fn, *args):
        """Run one operation; an exception counts it failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:          # a failed operation is recorded, the run goes on
            self.failed += 1
            print(f"[{self.name}] operation failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def check(self, fn, *args):
        try:
            fn(*args)
        except OracleError as exc:
            self.errors.append(str(exc))

    def timed(self, kind, m0, items=1):
        """Record the work from mark m0 to now: kind 'op' (one headline
        operation) or 'items' (work measured as items per second)."""
        self.timings.append((kind, m0, self.speed.mark(), items))

    def metrics(self, adjusted=True) -> dict:
        """op_s: median (op_statistic) seconds per operation; items_per_s:
        items over their summed seconds.  Adjusted to the nominal host speed
        unless raw."""
        secs = self.speed.seconds
        ops = [secs(m0, m1, adjusted) for kind, m0, m1, _ in self.timings if kind == "op"]
        items = [(n, secs(m0, m1, adjusted)) for kind, m0, m1, n in self.timings
                 if kind == "items"]
        return {"op_s": self.op_statistic(ops),
                "items_per_s": sum(n for n, _ in items) / sum(d for _, d in items)}


class Certify(Workload):
    """Theorem A and Theorem D certificates, and the mixed pair rejected."""

    name = "certify"

    def generate(self):
        c, s = round(np.cos(0.4), 12), round(np.sin(0.4), 12)
        a1 = PolyGerm.swallowtail([[1], [0, 1], [0, 0, 1]], [[0], [0], [0.25]])
        a2 = PolyGerm.swallowtail([[c, -s], [s, c], [0, 0, 1.5]], [[0.1], [0], [0.3]])
        self.pairs = [("theorem-A", a1, a2),
                      ("theorem-D+", F_PLUS, rotated(0.4, 0.05, 2.0)),
                      ("theorem-D-", F_MINUS, rotated(0.3, 0.1, -1.5))]
        self.mixed = (F_PLUS, rotated(0.3, 0.1, -1.5))

    def _certificate(self, label, g1, g2):
        from swallowkit import deform
        m0 = self.speed.mark()
        d1, d2 = make_data(g1), make_data(g2)
        if label == "theorem-A":
            fam = deform.deform_theorem_A(d1, d2)
            m1 = self.speed.mark()
            cert = deform.certify(fam, "generic_swallowtail", steps=21)
        else:
            fam = deform.deform_theorem_D(d1, d2, preserve_sign=True)
            m1 = self.speed.mark()
            cert = deform.certify(fam, "asymptotic_swallowtail", steps=21,
                                  track_kext_sign=fam.kext_sign)
        self.timed("items", m1, len(cert.per_t))
        self.timed("op", m0)
        return fam, cert

    def _mixed(self):
        from swallowkit import deform
        try:
            deform.deform_theorem_D(make_data(self.mixed[0]), make_data(self.mixed[1]),
                                    preserve_sign=True)
        except deform.DeformError:
            return True
        return False

    def run_round(self, i, tracer=None):
        for label, g1, g2 in self.pairs:
            out = self.attempt(self._certificate, label, g1, g2)
            if out is None:
                continue
            fam, cert = out
            self.check(orc.check_certificate, cert.to_dict(), g1, g2, label)
            if label != "theorem-A":
                self.check(orc.check_kext_sign, fam.kext_sign, g1, f"{label} start")
                self.check(orc.check_kext_sign, fam.kext_sign, g2, f"{label} end")
        rejected = self.attempt(self._mixed)
        if rejected is False:
            self.errors.append("mixed-sign pair was not rejected")


class Classify(Workload):
    """Random polynomial germs and the fixed asymptotic germs at a in {-1, 0, 1}:
    build and classify at the origin, then K at the tail probes."""

    name = "classify"
    FIXED = (F_PLUS, F_MINUS, PARABOLIC)
    # half of the germs are asymptotic and cost differently, so a median
    # would sit between two clusters: op_s is 1 / germs per second instead
    op_statistic = staticmethod(statistics.fmean)

    def generate(self):
        rng = np.random.default_rng([self.seed, 1])
        self.corpus = [random_germ(rng) for _ in range(64)]

    def _classify(self, g, a):
        from swallowkit import frontal
        m0 = self.speed.mark()
        germ = build_germ(g, a)
        rep = frontal.classify(germ)
        self.timed("op", m0)
        return germ, rep

    def _curvature(self, germ, p):
        from swallowkit import frontal
        m0 = self.speed.mark()
        out = frontal.gaussian_curvature(germ, p)
        self.timed("items", m0)
        return out

    def run_round(self, i, tracer=None):
        from swallowkit import frontal
        for g in (self.corpus[i % len(self.corpus)], self.FIXED[i % len(self.FIXED)]):
            for a in A_VALUES:
                where = f"round {i} a={a}"
                out = self.attempt(self._classify, g, a)
                probes = None if out is None else self.attempt(frontal.tail_probes, out[0], N_PROBES)
                if probes is None:     # the steps that depend on it fail with it
                    left = N_PROBES + (out is None)
                    self.attempted += left
                    self.failed += left
                    continue
                germ, rep = out
                if not rep.is_swallowtail:
                    self.errors.append(f"{where}: not classified a swallowtail")
                self.check(orc.check_signs, (rep.sigma0_S, rep.sigma_g_S), g, where)
                for p in probes:
                    k = self.attempt(self._curvature, germ, p)
                    if k is not None:
                        self.check(orc.check_kext, k[1], g, a, p, where)


class Roundtrip(Workload):
    """build -> extract_data -> build -> extract_data -> build, classified at
    every depth."""

    name = "roundtrip"
    DEPTH = 2

    def generate(self):
        rng = np.random.default_rng([self.seed, 2])
        self.corpus = [random_germ(rng) for _ in range(16)]

    @staticmethod
    def _build_classify(data):
        from swallowkit import builder, frontal
        germ = builder.build(data)
        return germ, frontal.classify(germ)

    def run_round(self, i, tracer=None):
        from swallowkit import builder
        g = self.corpus[i % len(self.corpus)]
        left = 2 * self.DEPTH + 1          # classifications and extractions
        m0 = self.speed.mark()
        data = make_data(g)
        for depth in range(self.DEPTH + 1):
            if depth:
                data = self.attempt(builder.extract_data, germ)
                left -= 1
            out = None if data is None else self.attempt(self._build_classify, data)
            left -= data is not None
            if out is None:            # the steps that depend on it fail with it
                self.attempted += left
                self.failed += left
                return
            germ, rep = out
            if not rep.is_swallowtail:
                self.errors.append(f"round {i} depth {depth}: not classified a swallowtail")
            self.check(orc.check_signs, (rep.sigma0_S, rep.sigma_g_S), g, f"round {i} depth {depth}")
        self.timed("op", m0)
        self.timed("items", m0, self.DEPTH + 1)


class Surfaces(Workload):
    """``mesh`` on the ex217 spec and ``cgc`` at its default grid, through the CLI."""

    name = "surfaces"
    SPEC = {"kind": "swallowtail-data", "xi": ["2", "3*u", "0"], "b": ["0", "0", "1"], "a": 0.0}
    DOMAIN = (-0.3, 0.3, -0.2, 0.2)
    RES = (60, 60)    # a round outlasts a 10 s run, so each run times one mesh, its first
    CGC_GRID = (201, 201)
    CGC_WINDOW = (-0.5, 0.5, 0.6, 1.4)

    def generate(self):
        os.makedirs(self.outdir, exist_ok=True)
        self.spec = os.path.join(self.outdir, "ex217.json")
        with open(self.spec, "w") as fh:
            json.dump(self.SPEC, fh)

    def _cli(self, argv):
        from swallowkit import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"swallowkit {argv[0]} exited with {code}")
        return json.loads(buf.getvalue().strip().splitlines()[-1])

    def _mesh(self, i):
        obj = os.path.join(self.outdir, f"mesh{i}.obj")
        domain = ",".join(repr(x) for x in self.DOMAIN)
        m0 = self.speed.mark()
        out = self._cli(["mesh", self.spec, f"--domain={domain}",
                         "--res=%d,%d" % self.RES, "--out", obj])
        self.timed("items", m0, out["vertices"])
        return out

    def _cgc(self, i):
        prefix = os.path.join(self.outdir, f"cgc{i}")
        m0 = self.speed.mark()
        out = self._cli(["cgc", "--grid=%d,%d" % self.CGC_GRID,
                         "--window=" + ",".join(repr(x) for x in self.CGC_WINDOW),
                         "--out-prefix", prefix])
        self.timed("op", m0)
        return out

    def run_round(self, i, tracer=None):
        mesh = self.attempt(self._mesh, i)
        if mesh is not None:
            self.check(lambda: orc.check_mesh(orc.read_obj_vertices(mesh["obj"]),
                                              orc.read_csv(mesh["csv"])))
            self._written(tracer, mesh["obj"], mesh["csv"])
        cgc = self.attempt(self._cgc, i)
        if cgc is not None:
            par = orc.read_obj_vertices(cgc["outputs"][1])
            self.check(lambda: orc.check_cgc(cgc, par, self.CGC_GRID, self.CGC_WINDOW))
            self._written(tracer, *cgc["outputs"])
        for name in os.listdir(self.outdir):
            if name != "ex217.json":
                os.remove(os.path.join(self.outdir, name))

    @staticmethod
    def _written(tracer, *paths):
        if tracer is not None:
            tracer.count("cli.bytes_written", sum(os.path.getsize(p) for p in paths))


WORKLOADS = {w.name: w for w in (Certify, Classify, Roundtrip, Surfaces)}
