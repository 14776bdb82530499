"""Spans and counts around the calls into each layer of swallowkit.

``Tracer.install`` replaces functions with timing wrappers under every name
a caller looks them up by: a function imported by name into another module
(``deform.build``, ``deform.curvature_torsion_of``) is wrapped there too, and
methods are wrapped on their class.  Nothing inside the package changes.

Each call records its duration; a stack of child-time accumulators gives
self time (a span minus the time its traced children cover).  Coarse spans
are kept in memory with their parent and written out at the end; the hot
leaf calls (jet kernels, ``fjet``, ``compose2``, quadratures, Frenet states)
are only counted and timed, since they run hundreds of thousands of times.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# Per-layer metrics: (name, unit, source statistic).
LAYER_METRICS = (
    ("jets.mul_calls", "count", ("jets.mul", "calls")),
    ("jets.div_calls", "count", ("jets.div", "calls")),
    ("jets.kernel_s", "s", ("jets.kernel", "total")),
    ("jets.scalar_ops", "count", ("jets.scalar", "calls")),
    ("jets.array_ops", "count", ("jets.array", "calls")),
    ("jets.compose2_calls", "count", ("jets.compose2", "calls")),
    ("curves.curvature_torsion_calls", "count", ("curves.curvature_torsion", "calls")),
    ("curves.curvature_torsion_s", "s", ("curves.curvature_torsion", "total")),
    ("curves.quad_calls", "count", ("curves.quad", "calls")),
    ("curves.frenet_state_calls", "count", ("curves.frenet_state", "calls")),
    ("builder.build_s", "s", ("builder.build", "total")),
    ("builder.discriminants_s", "s", ("builder.discriminants", "total")),
    ("builder.extract_data_s", "s", ("builder.extract_data", "total")),
    ("frontal.fjet_calls", "count", ("frontal.fjet", "calls")),
    ("frontal.classify_calls", "count", ("frontal.classify", "calls")),
    ("frontal.classify_self_s", "s", ("frontal.classify", "self")),
    ("frontal.gaussian_curvature_s", "s", ("frontal.gaussian_curvature", "total")),
    ("frontal.sigma_g_C_s", "s", ("frontal.sigma_g_C", "total")),
    ("deform.family_s", "s", ("deform.family", "total")),
    ("deform.certify_s", "s", ("deform.certify", "total")),
    ("deform.certify_self_s", "s", ("deform.certify", "self")),
    ("deform.generator_s", "s", ("deform.generator", "total")),
    ("deform.samples", "count", ("deform.generator", "calls")),
    ("cgc.solve_radial_ode_s", "s", ("cgc.solve_radial_ode", "total")),
    ("cgc.reconstruct_surface_s", "s", ("cgc.reconstruct_surface", "total")),
    ("cgc.parallel_germ_classify_s", "s", ("cgc.parallel_germ_classify", "total")),
    ("cli.mesh_self_s", "s", ("cli.mesh", "self")),
    ("cli.cgc_self_s", "s", ("cli.cgc", "self")),
    ("cli.bytes_written", "bytes", ("cli.bytes_written", "calls")),
)


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list = []        # (id, parent id, name, start, end)
        self._stack = [0.0]          # child time of each open span
        self._ids = [0]              # id of each open recorded span
        self._next_id = 1
        self._patches: list = []     # (owner, attribute, original)

    def stat(self, name) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def count(self, name, n=1):
        self.stat(name).calls += n

    # -- wrappers
    def span(self, name, fn, record=True, also=None):
        """Wrap fn in a span; ``also(args)`` may name a second statistic
        that is charged the same call (e.g. classify of a parallel germ)."""
        st = self.stat(name)
        stack, ids, clock, spans = self._stack, self._ids, time.perf_counter, self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = also(args) if also is not None else None
            if record:
                sid = tracer._next_id
                tracer._next_id += 1
                parent = ids[-1]
                ids.append(sid)
            st.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                child = stack.pop()
                stack[-1] += dt
                st.depth -= 1
                st.calls += 1
                st.self_time += dt - child
                if st.depth == 0:          # a recursive call is covered by its outer span
                    st.total += dt
                if extra is not None:
                    xs = tracer.stat(extra)
                    xs.calls += 1
                    xs.total += dt
                if record:
                    ids.pop()
                    spans.append((sid, parent, name, t0, t1))
        return wrapper

    def jet_op(self, name, fn):
        """Leaf wrapper for Jet2 arithmetic: counts by operation and by
        coefficient shape (scalar: 1-D coefficients on both sides)."""
        op, kern = self.stat(name), self.stat("jets.kernel")
        scalar, array = self.stat("jets.scalar"), self.stat("jets.array")
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(self_, other):
            t0 = clock()
            out = fn(self_, other)
            dt = clock() - t0
            stack[-1] += dt
            op.calls += 1
            kern.calls += 1
            kern.total += dt
            oc = getattr(other, "c", None)
            if self_.c.ndim == 1 and (oc.ndim == 1 if oc is not None else np.ndim(other) == 0):
                scalar.calls += 1
            else:
                array.calls += 1
            return out
        return wrapper

    # -- installation
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_everywhere(self, fn, wrapper):
        """Replace fn under every name that holds it in a swallowkit module."""
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "swallowkit"]:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapper)

    def install(self):
        import scipy.integrate

        from swallowkit import builder, cgc, cli, curves, deform, frontal, jets

        J = jets.Jet2
        mul = self.jet_op("jets.mul", J.__mul__)
        self._set(J, "__mul__", mul)
        self._set(J, "__rmul__", mul)
        self._set(J, "__truediv__", self.jet_op("jets.div", J.__truediv__))
        self._wrap_everywhere(jets.compose2, self.span("jets.compose2", jets.compose2, record=False))

        ct = curves.curvature_torsion_of
        self._wrap_everywhere(ct, self.span("curves.curvature_torsion", ct, record=False))
        # HalfArclength imports quad from scipy.integrate when it is built
        self._set(scipy.integrate, "quad",
                  self.span("curves.quad", scipy.integrate.quad, record=False))
        self._set(curves.FrenetPath, "state",
                  self.span("curves.frenet_state", curves.FrenetPath.state, record=False))

        for fn, name in ((builder.build, "builder.build"),
                         (builder.discriminants, "builder.discriminants"),
                         (builder.extract_data, "builder.extract_data"),
                         (frontal.gaussian_curvature, "frontal.gaussian_curvature"),
                         (frontal.sigma_g_C, "frontal.sigma_g_C"),
                         (deform.certify, "deform.certify"),
                         (cgc.solve_radial_ode, "cgc.solve_radial_ode"),
                         (cgc.reconstruct_surface, "cgc.reconstruct_surface"),
                         (cli.cmd_mesh, "cli.mesh"),
                         (cli.cmd_cgc, "cli.cgc")):
            self._wrap_everywhere(fn, self.span(name, fn))
        self._set(frontal.MapGerm, "fjet",
                  self.span("frontal.fjet", frontal.MapGerm.fjet, record=False))

        def parallel(args):
            germ = args[0] if args else None
            return "cgc.parallel_germ_classify" if getattr(germ, "_parallel_germ", False) else None
        self._wrap_everywhere(frontal.classify,
                              self.span("frontal.classify", frontal.classify, also=parallel))

        as_germ = cgc.ParallelGerm.as_germ

        def tagged_as_germ(pg):
            germ = as_germ(pg)
            germ._parallel_germ = True
            return germ
        self._set(cgc.ParallelGerm, "as_germ", tagged_as_germ)

        gen_span = self.span("deform.generator", lambda gen, t: gen(t), record=False)

        def family(fn):
            def build_family(*args, **kwargs):
                fam = fn(*args, **kwargs)
                for stage in fam.stages:
                    stage.generator = functools.partial(gen_span, stage.generator)
                return fam
            return self.span("deform.family", functools.wraps(fn)(build_family))
        for fn in (deform.deform_theorem_A, deform.deform_theorem_D):
            self._wrap_everywhere(fn, family(fn))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results
    def metrics(self) -> dict:
        out = {}
        for name, unit, (stat, field) in LAYER_METRICS:
            st = self.stats.get(stat)
            if st is None:
                value = 0
            elif field == "calls":
                value = st.calls
            elif field == "total":
                value = st.total
            else:
                value = st.self_time
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path, meta):
        doc = {"meta": meta,
               "stats": {k: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
                         for k, s in sorted(self.stats.items())},
               "spans": [{"id": i, "parent": p, "name": n, "start": a, "end": b}
                         for i, p, n, a, b in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh)
