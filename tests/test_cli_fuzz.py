"""Seeded fuzz of the command line: malformed germ specs and flag values.

Every case must come back from cli.main as an exit code in {0, ..., 4},
never as an exception.  The explicit cases are inputs that once escaped
as a traceback or exited 0 when they should have exited 2.
"""

import json

import numpy as np
import pytest

from swallowkit.cli import main

SW = {"kind": "swallowtail-data", "xi": ["2", "3*u", "0"], "b": ["0", "0", "1"], "a": 0.0}
ASYM = {"kind": "asymptotic-data", "xi": ["1", "u", "u^2"], "q": "0",
        "r": ["u^2", "0-2*u", "1"], "a": 0.0}
RAW = {"kind": "raw-germ", "f": ["u", "2*v^3+u*v", "3*v^4+u*v^2"], "a": 0.0}
CURVE = {"kind": "curve", "gamma": ["u^2", "u^3", "0"]}

WRONG_TYPES = [None, True, 0, 1.5, -3, "", "u", [], {}, [1, 2], ["u"] * 4,
               [[1], "u", "0"], [None, "u", "0"], {"kind": "curve"}]
GARBAGE_EXPRS = ["1e999", "0-1e999", "nan", "inf", "u^", "((u", "", "1/0", "0/0",
                 "sqrt(0-1)", "exp(1000)", "--u", "u**2", "u^-1", "1e-400", "u^99999",
                 "sin()", "w", "1.2.3", ")", "10^400", "exp(exp(10))", "sqrt(u)",
                 "0^-2", "(1-1)^-1", "2^-1"]
GARBAGE_NUMBERS = ["x", None, [], {}, [1], 1e308, -1e308, float("nan"), float("inf"),
                   "1e999", "0.5", True]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _code(*argv):
    code = main([str(a) for a in argv])
    assert code in range(5), (argv, code)
    return code


@pytest.fixture()
def good(tmp_path):
    return {name: _write(tmp_path, name + ".json", doc)
            for name, doc in (("sw", SW), ("asym", ASYM), ("curve", CURVE))}


def test_malformed_cases_exit_2(tmp_path, good, capsys):
    no_q = {k: v for k, v in ASYM.items() if k != "q"}
    cases = [
        ("deform", _write(tmp_path, "list.json", [SW, SW]), good["sw"]),
        ("classify", _write(tmp_path, "noq.json", no_q)),
        ("build", _write(tmp_path, "noq.json", no_q)),
        ("deform", good["asym"], _write(tmp_path, "noq.json", no_q)),
        ("classify", _write(tmp_path, "anull.json", dict(SW, a=None))),
        ("build", _write(tmp_path, "alist.json", dict(SW, a=[1]))),
        ("deform", _write(tmp_path, "alist.json", dict(SW, a=[1])), good["sw"]),
        ("classify", good["sw"], "--at", "1"),
        ("classify", good["sw"], "--at", "0,0,0"),
        ("frenet", "--kappa", "1", "--tau", "1", "--step", "0"),
        ("frenet", "--kappa", "1", "--tau", "1", "--step", "-1"),
        ("deform", good["sw"], good["sw"], "--steps", "0"),
        ("deform", good["sw"], good["sw"], "--steps", "1"),
        # nan and -1 leave no band, and inf made every sign 0
        ("--tol-sign", "nan", "build", good["sw"]),
        ("--tol-sign", "-1", "build", good["sw"]),
        ("--tol-sign", "inf", "build", good["sw"]),
        ("classify", _write(tmp_path, "deep.json", "[" * 100000 + "]" * 100000)),
    ]
    for argv in cases:
        assert _code(*argv) == 2, argv
    err = capsys.readouterr().err
    assert "Traceback" not in err


def test_constant_out_of_range_is_a_domain_error(tmp_path, capsys):
    for i, e in enumerate(("10^400", "0^-2", "(1-1)^-1", "1e308*10")):
        path = _write(tmp_path, f"c{i}.json", dict(SW, b=["0", e, "1"]))
        assert _code("classify", path) == 3, e
    # never folded (gamma = int u xi has no closed form), so its jets overflow
    path = _write(tmp_path, "exp.json", dict(SW, xi=["exp(1000)", "3*u", "0"]))
    assert _code("classify", path) == 3
    assert _code("classify", _write(tmp_path, "lit.json", dict(SW, b=["0", "1e999", "1"]))) == 2
    assert "Traceback" not in capsys.readouterr().err


def _mutate(rng, doc):
    doc = json.loads(json.dumps(doc))
    key = list(doc)[rng.integers(len(doc))]
    what = rng.integers(4)
    if what == 0:
        del doc[key]
    elif what == 1:
        doc[key] = WRONG_TYPES[rng.integers(len(WRONG_TYPES))]
    elif what == 2 and isinstance(doc[key], list):
        doc[key][rng.integers(len(doc[key]))] = GARBAGE_EXPRS[rng.integers(len(GARBAGE_EXPRS))]
    elif what == 2 and key not in ("kind", "a"):
        doc[key] = GARBAGE_EXPRS[rng.integers(len(GARBAGE_EXPRS))]
    else:
        doc["a"] = GARBAGE_NUMBERS[rng.integers(len(GARBAGE_NUMBERS))]
    return doc


def test_fuzz_germ_specs(tmp_path, good, capsys):
    rng = np.random.default_rng(20261018)
    bases = (SW, ASYM, RAW, CURVE)
    for i in range(120):
        doc = _mutate(rng, bases[rng.integers(len(bases))])
        path = _write(tmp_path, f"m{i}.json", doc)
        command = ("classify", "invariants", "build", "deform", "cusp")[rng.integers(5)]
        if command == "deform":
            # the curve document as second endpoint stops every run at loading
            _code("deform", path, good["curve"])
        elif command == "cusp":
            _code("cusp", "classify", path)
        else:
            _code(command, path)
    assert "Traceback" not in capsys.readouterr().err


FLAGS = [
    ("classify", "{sw}", "--at", ["1", "a,b", "0,0,0", "nan,0", "inf,0", "", ",", "1e999,0",
                                 "0.01,0.02", "0.05,0"]),
    ("mesh", "{sw}", "--domain={v}", "--res", "2,2", "--out", "{out}",
     ["1,2", "a,b,c,d", "nan,0,0,1", "-0.1,0.1,-0.1,0.1", "0,0,0,0", "1e999,0,0,1"]),
    ("mesh", "{sw}", "--domain=-0.1,0.1,-0.1,0.1", "--res={v}", "--out", "{out}",
     ["0,0", "-1,2", "1.5,2", "2", "x,y", "1,1"]),
    ("frenet", "--kappa", "1", "--tau", "1", "--interval=-0.1,0.1", "--step",
     ["0", "-1", "nan", "inf", "0.05", "1e9"]),
    ("frenet", "--kappa", "1", "--tau", "1", "--step", "0.05", "--interval={v}",
     ["1", "0,1,2", "nan,1", "0.5,1", "x,0", "-0.1,0.1", "0,0"]),
    ("frenet", "--kappa", "0.001", "--tau", "0", "--interval={v}", "--step", "1",
     ["-1e3,1e3", "0,1e3", "-1e6,1e6"]),
    ("frenet", "--kappa", "1", "--tau", "1", "--interval=-0.1,0.1", "--samples",
     ["0", "-1", "1", "3"]),
    ("frenet", "--kappa", "{v}", "--tau", "1", "--interval=-0.1,0.1", "--step", "0.05",
     ["0", "0-1", "u", "1/0", "((", "1e999"]),
    ("deform", "{sw}", "{curve}", "--steps", ["0", "1", "-5", "2"]),
    ("cgc", "--out-prefix", "{out}", "--grid", ["1", "5,5", "a,b", "9,9,9", "0,0"]),
    ("cgc", "--out-prefix", "{out}", "--grid", "9,9", "--window",
     ["1", "a,b,c,d", "nan,0,0,1", "0,0,0"]),
    # a valid window on which a 9x9 or 10x10 grid leaves no point to measure K at (exit 3)
    ("cgc", "--out-prefix", "{out}", "--window=-0.3,0.3,0.8,1.2", "--grid={v}", ["9,9", "10,10"]),
    ("--tol-sign", "{v}", "classify", "{sw}", ["nan", "-1", "inf", "0", "1e-3"]),
    # radii outside the radial profile's domain [0.5, 1.6], and r = 0
    ("cgc", "--out-prefix", "{out}", "--grid", "9,9", "--window={v}",
     ["-0.1,0.1,0.1,0.3", "-0.2,0.2,2.6,3.0", "-0.1,0.1,-0.1,0.1"]),
]


@pytest.mark.parametrize("spec", FLAGS, ids=lambda s: f"{s[0]}-{s[-2]}")
def test_fuzz_flag_values(spec, tmp_path, good, capsys):
    *argv, values = spec
    out = str(tmp_path / "out.obj")
    for v in values:
        args = [a.format(v=v, out=out, **good) for a in argv]
        if "{v}" not in "".join(argv):
            args.append(v)
        _code(*args)
    assert "Traceback" not in capsys.readouterr().err
