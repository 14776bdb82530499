"""The fixed list of calls whose outputs must not move: the input specs, the
CLI calls run on them and the library scripts, each run after PRELUDE.

tools/compare_outputs.py runs them in two checkouts and compares the
outputs; tests/test_golden_outputs.py runs them in one process and compares
the digests of the outputs with a committed table.
"""

SPECS = {
    "ex217.json": {"kind": "swallowtail-data", "xi": ["2", "3*u", "0"],
                   "b": ["0", "0", "1"], "a": 0.0},
    "ex217s.json": {"kind": "swallowtail-data", "xi": ["4", "6*u", "0"],
                    "b": ["0", "0", "2"], "a": 0.0},
    "fplus.json": {"kind": "asymptotic-data", "xi": ["1", "u", "u^2"],
                   "q": "0", "r": ["u^2", "0-2*u", "1"], "a": 0.0},
    "fplus2.json": {"kind": "asymptotic-data", "xi": ["1", "u", "2*u^2"],
                    "q": "0", "r": ["u^2", "0-3*u", "1"], "a": 0.0},
    "fminus.json": {"kind": "asymptotic-data", "xi": ["1", "u", "u^2"],
                    "q": "0", "r": ["0-u^2", "2*u", "0-1"], "a": 0.0},
    "fminus2.json": {"kind": "asymptotic-data", "xi": ["1", "u", "2*u^2"],
                     "q": "0", "r": ["0-u^2", "3*u", "0-1"], "a": 0.0},
    "flipb.json": {"kind": "swallowtail-data", "xi": ["1", "u", "u^2"],
                   "b": ["0", "0", "0-0.5"], "a": 0.0},
    # a non-polynomial xi: gamma is a quadrature (fields.CurveIntegral), not a closed form
    "trig.json": {"kind": "swallowtail-data", "xi": ["cos(u)", "sin(u)", "u"],
                  "b": ["0", "0", "1"], "a": 0.0},
    # the conformal models: ex217 and ex217s at a = -1, fplus and fplus2 at a = 1
    "h217.json": {"kind": "swallowtail-data", "xi": ["2", "3*u", "0"],
                  "b": ["0", "0", "1"], "a": -1.0},
    "h217s.json": {"kind": "swallowtail-data", "xi": ["4", "6*u", "0"],
                   "b": ["0", "0", "2"], "a": -1.0},
    "sfplus.json": {"kind": "asymptotic-data", "xi": ["1", "u", "u^2"],
                    "q": "0", "r": ["u^2", "0-2*u", "1"], "a": 1.0},
    "sfplus2.json": {"kind": "asymptotic-data", "xi": ["1", "u", "2*u^2"],
                     "q": "0", "r": ["u^2", "0-3*u", "1"], "a": 1.0},
    "cusp3.json": {"kind": "curve", "gamma": ["u^2/2", "u^3/3", "u^4/4"]},
    "corank2.json": {"kind": "raw-germ", "f": ["u^2", "v^2", "u*v"], "a": 0.0},
    "raw.json": {"kind": "raw-germ", "f": ["u", "2*v^3+u*v", "3*v^4+u*v^2"], "a": 0.0},
}

CALLS = [
    ["cgc", "--out-prefix", "cgc"],
    ["cgc", "--grid", "61,41", "--window=-0.3,0.3,0.8,1.2", "--out-prefix", "small"],
    # base (0, 1) off centre in both directions: each sweep's two legs differ in length
    ["cgc", "--grid", "33,57", "--window=-0.2,0.4,0.75,1.3", "--out-prefix", "asym"],
    # base (0, 1) on the window's edge v = 1: the column sweep has one leg only
    ["cgc", "--grid", "41,31", "--window=-0.3,0.3,1.0,1.3", "--out-prefix", "edge"],
    ["mesh", "ex217.json", "--domain=-0.3,0.3,-0.2,0.2", "--res=60,60", "--out", "mesh.obj"],
    ["classify", "ex217.json"],
    ["classify", "ex217.json", "--at", "0.05,0.03"],
    # the jets of gamma by quadrature, at every vertex of the mesh and its K column
    ["mesh", "trig.json", "--domain=-0.3,0.3,-0.2,0.2", "--res=30,30", "--out", "trig.obj"],
    # a singular set off the u-axis: classified after make_admissible
    ["classify", "raw.json"],
    ["build", "ex217.json"],
    ["frenet", "--kappa", "1+u^2", "--tau", "0.5*sin(u)", "--out", "curve.csv"],
    # an asymmetric interval, each side ending in a shorter step
    ["frenet", "--kappa", "2+u", "--tau", "u", "--interval=-0.4,0.9", "--step", "0.02",
     "--samples", "17", "--out", "curve2.csv"],
    # the half-arclength chain (t(u) by series reversion) outside a certificate
    ["cusp", "normalize", "cusp3.json"],
    ["cusp", "classify", "cusp3.json"],
    ["cusp", "factor", "cusp3.json"],
    ["deform", "ex217.json", "ex217s.json", "--recipe", "A"],
    ["deform", "fplus.json", "fplus2.json", "--recipe", "D"],
    # the xi-interpolation marches its 2 and 4 interior t as one batch
    ["deform", "ex217.json", "ex217s.json", "--recipe", "A", "--steps", "4"],
    ["deform", "fplus.json", "fplus2.json", "--recipe", "D", "--steps", "6"],
    # t = 0 and 1 alone: an xi-interpolation stage with no interior t marches nothing
    ["deform", "fplus.json", "fplus2.json", "--recipe", "D", "--steps", "2"],
    # negatively curved: the sqrt(1 - t) weights of the to-negative-normal-form stage
    ["deform", "fminus.json", "fminus2.json", "--recipe", "D"],
    ["deform", "fminus.json", "fminus2.json", "--recipe", "D", "--steps", "6"],
    # curvature signs differ: the general route, scaling (q, r) away
    ["deform", "fplus.json", "fminus.json", "--recipe", "D"],
    # Prop 2.13: the b-scale and b-to-generic stages around Theorem A
    ["deform", "ex217.json", "fplus.json", "--recipe", "any"],
    ["deform", "flipb.json", "fplus.json", "--recipe", "any", "--steps", "6"],
    # a band wider than every sign, and a certificate decided in a wider band
    ["--tol-sign", "10", "classify", "ex217.json"],
    ["--tol-sign", "1e-3", "deform", "ex217.json", "ex217s.json", "--recipe", "A", "--steps", "4"],
    # a != 0: the conformal factor and connection of the model metric
    ["classify", "h217.json"],
    ["invariants", "sfplus.json"],
    ["classify", "sfplus.json", "--at", "0.05,0.03"],
    ["mesh", "h217.json", "--domain=-0.3,0.3,-0.2,0.2", "--res=30,30", "--out", "h217.obj"],
    # the K column at a = 1
    ["mesh", "sfplus.json", "--domain=-0.3,0.3,-0.2,0.2", "--res=30,30", "--out", "sfplus.obj"],
    ["deform", "h217.json", "h217s.json", "--recipe", "A"],
    ["deform", "sfplus.json", "sfplus2.json", "--recipe", "D"],
    # exit 3: a corank-2 origin cannot be made admissible
    ["classify", "corank2.json"],
    # exit 4: recipe A on asymptotic endpoints is a precondition mismatch
    ["deform", "fplus.json", "fplus2.json", "--recipe", "A"],
]


# the setup of every library call: show() prints the jets of a vector of
# providers, or of a germ, at scalar points and at an array of them
PRELUDE = """
import numpy as np
from swallowkit import deform
from swallowkit.builder import SwallowtailData, build, convert_to_asymptotic_form, extract_data
US = np.array([-0.1, 0.0, 0.05])
VS = np.array([0.0, 0.02, -0.03])
EX217 = SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "1"))
# b(u, 0) = p xi + q xi' with p = 0.5 + u and q = 0.3, plus v (u^2, -2u, 1)
SPAN = SwallowtailData(xi=("1", "u", "u^2"),
                       b=("0.5 + u + v*u^2", "(0.5 + u)*u + 0.3 - 2*u*v",
                          "(0.5 + u)*u^2 + 0.6*u + v"))

def show(name, vec, v=0.0, vs=0.0, order=3):
    def jets(u, v):
        if hasattr(vec, "fjet"):
            return vec.fjet(u, v, order)
        return [c.jet(u, v, order) for c in vec]
    for u in US.tolist():
        print(name, u, v, [repr(j.c.tolist()) for j in jets(u, v)])
    print(name, "array", [repr(j.c.tolist()) for j in jets(US, vs)])
"""

LIBRARY = [
    # xi, b and gamma extracted once and twice, and the germ built in between
    ("extract ex217", """
d1 = extract_data(build(EX217))
germ = build(d1)
d2 = extract_data(germ)
for tag, d in (("once", d1), ("twice", d2)):
    show(tag + " xi", d.xi)
    show(tag + " b", d.b, 0.02, VS)
    show(tag + " gamma", d.gamma)
show("germ", germ, 0.02, VS)
"""),
    # q, p and r of converted data; p is the second argument of r's provider
    ("convert span", """
conv = convert_to_asymptotic_form(SPAN)
p = getattr(conv.r[0], "whole", conv.r[0])._fn.args[1]
show("q", [conv.q])
show("p", [p])
show("r", conv.r, 0.02, VS)
show("b = q xi' + v r", conv.as_general().b, 0.02, VS)
show("germ", build(conv), 0.02, VS)
"""),
    # the half-arclength normalization of ex217's data; then, once the first
    # read has filled the union of a certificate's points, t(u), gamma-hat,
    # the speed and b there at orders 2, 4 and 11, point by point and as one
    # array, and at the 1,201 points of a march's kappa/tau check grid at 2
    ("unit-xi ex217", """
from swallowkit.curves import KAPPA_CHECK
from swallowkit.fields import step_ends
n = deform._UnitXiData(EX217)
show("gamma_hat", n.gamma)
show("xi_hat", n.xi)
show("b", n.b, 0.02, VS)
READS = {"t": lambda u, o: [n.H.t_jet(u, o)],
         "gamma_hat": lambda u, o: [c.jet(u, 0.0, o) for c in n.gamma],
         "speed": lambda u, o: [n.speed.jet(u, 0.0, o)],
         "b": lambda u, o: [c.jet(u, 0.02, o) for c in n.b]}
lo, hi = deform.XiInterpolation.INTERVAL
GRID = np.concatenate([[0.0], step_ends(0.0, hi, KAPPA_CHECK), step_ends(0.0, lo, -KAPPA_CHECK)])
for name, read in READS.items():
    for order in (2, 4, 11):
        for u in deform._union_us().tolist():
            print(name, order, u, [repr(j.c.tolist()) for j in read(u, order)])
        print(name, order, "union", [repr(j.c.tolist()) for j in read(deform._union_us(), order)])
    print(name, 2, "check grid", [repr(j.c.tolist()) for j in read(GRID, 2)])
"""),
    # the Taylor series of a batch of three Frenet paths, the second one's
    # steps split (kappa near 20), at the starts of the steps and at an array
    # of points, at orders 3 and 9
    ("frenet series", """
from swallowkit.curves import FrenetData, FrenetPath
from swallowkit.fields import components
from swallowkit.jets import Jet2, parse
KAPPA = [parse(e) for e in ("1+u^2", "20+u", "2+sin(u)")]
TAU = [parse(e) for e in ("0.5*sin(u)", "u", "u^2-0.3")]

def kappa_tau(u, v, order):
    return tuple(Jet2(order, np.stack([e.jet(u, v, order).c for e in es], axis=-1), True)
                 for es in (KAPPA, TAU))

c, s = np.cos(0.7), np.sin(0.7)
FRAMES = [np.eye(3), np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]),
          np.array([[0.0, 0.0, 1.0], [c, s, 0.0], [-s, c, 0.0]])]
path = FrenetPath(FrenetData(*components(kappa_tau, 2), frame0=np.stack(FRAMES, axis=-1),
                             step=0.05), interval=(-0.2, 0.35))
for order in (3, 9):
    for u in path.dense.starts.tolist():
        print("series", order, u, [repr(e.tolist()) for e in path.series(u, order)])
    us = np.linspace(-0.2, 0.35, 8)
    print("series", order, "array", [repr(e.tolist()) for e in path.series(us, order)])
"""),
]
