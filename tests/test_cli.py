"""Command-line interface: commands, exit codes, deterministic output."""

import json
import os

import numpy as np
import pytest

from swallowkit import frontal as fr
from swallowkit import germspec as gs
from swallowkit.cli import main
from swallowkit.jets import JetError


@pytest.fixture()
def specs(tmp_path):
    docs = {
        "ex217.json": {"kind": "swallowtail-data", "xi": ["2", "3*u", "0"],
                       "b": ["0", "0", "1"], "a": 0.0},
        "ex218.json": {"kind": "swallowtail-data", "xi": ["2", "3*u", "0"],
                       "b": ["0", "0", "2*u"], "a": 0.0},
        "fplus.json": {"kind": "asymptotic-data", "xi": ["1", "u", "u^2"],
                       "q": "0", "r": ["u^2", "0-2*u", "1"], "a": 0.0},
        "dev.json": {"kind": "asymptotic-data", "xi": ["1", "u", "u^2"],
                     "q": "0", "r": ["0", "0", "0"], "a": 0.0},
        "fminus.json": {"kind": "asymptotic-data", "xi": ["1", "u", "u^2"],
                        "q": "0", "r": ["0-u^2", "2*u", "0-1"], "a": 0.0},
        "cusp.json": {"kind": "curve", "gamma": ["u^2", "u^3", "0"]},
        "raw.json": {"kind": "raw-germ",
                     "f": ["u", "2*v^3+u*v", "3*v^4+u*v^2"], "a": 0.0},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "bad.json").write_text("not json")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_217(specs, capsys):
    code, out = run(capsys, "classify", str(specs / "ex217.json"), "--at", "0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_swallowtail"] is True
    assert doc["sigma0_S"] == -1
    assert doc["sigma_g_S"] == 1


def test_classify_218_not_swallowtail(specs, capsys):
    code, out = run(capsys, "classify", str(specs / "ex218.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["is_swallowtail"] is False
    assert doc["sigma_g_S"] == 0


def test_malformed_json_exit_2(specs, capsys):
    code, _ = run(capsys, "classify", str(specs / "bad.json"))
    assert code == 2
    # an unknown command is rejected by argparse: exit 2, no traceback
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bench'" in err and "Traceback" not in err


def test_tol_sign_flag_changes_verdict(tmp_path, capsys, monkeypatch):
    """A raw sigma_g_S of 2e-5 is a sign at the default band and zero in a
    band of 1e-3."""
    from swallowkit import frontal
    monkeypatch.setattr(frontal, "SIGN_TOL", frontal.SIGN_TOL)   # restored after
    spec = tmp_path / "small.json"
    spec.write_text(json.dumps({"kind": "swallowtail-data", "xi": ["2", "3*u", "0"],
                                "b": ["0", "0", "0.00001"], "a": 0.0}))
    code, out = run(capsys, "classify", str(spec))
    assert code == 0
    assert json.loads(out)["sigma_g_S"] == 1
    code, out = run(capsys, "--tol-sign", "1e-3", "classify", str(spec))
    assert code == 0
    assert json.loads(out)["sigma_g_S"] == 0


def test_tol_sign_flag_holds_for_its_call_only(specs, capsys, monkeypatch):
    """A later call without --tol-sign decides in the default band again."""
    from swallowkit import frontal
    monkeypatch.setattr(frontal, "SIGN_TOL", frontal.SIGN_TOL)   # restored after
    code, out = run(capsys, "--tol-sign", "10", "classify", str(specs / "ex217.json"))
    assert code == 0
    doc = json.loads(out)
    assert (doc["sigma0_S"], doc["sigma_g_S"]) == (0, 0)
    code, out = run(capsys, "classify", str(specs / "ex217.json"))
    assert code == 0
    doc = json.loads(out)
    assert (doc["sigma0_S"], doc["sigma_g_S"]) == (-1, 1)


def test_overflowing_jets_give_one_stderr_line(tmp_path, capsys):
    """numpy warns of nothing inside a command: a germ whose jets overflow
    exits 3 with its one-line error, even where warnings are errors."""
    import warnings
    spec = tmp_path / "exp.json"
    spec.write_text(json.dumps({"kind": "swallowtail-data", "xi": ["exp(1000)", "3*u", "0"],
                                "b": ["0", "0", "1"], "a": 0.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["classify", str(spec)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("domain error:") and err.count("\n") == 1


def test_classify_names_nabla_v_f_u_parallel_to_f_v(tmp_path, capsys):
    """A second-kind origin with nabla_v f_u(o) parallel to f_v(o) exits 3
    with the one line that names it."""
    spec = tmp_path / "parallel.json"
    spec.write_text(json.dumps({"kind": "raw-germ", "f": ["0.0000005*u+v", "50*v^2", "0"],
                                "a": 0.0}))
    assert main(["classify", str(spec)]) == 3
    assert capsys.readouterr().err == "domain error: nabla_v f_u(o) is parallel to f_v(o)\n"


def test_deeply_nested_expression_exit_2(tmp_path, capsys):
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps({"kind": "swallowtail-data",
                                "xi": ["(" * 3000 + "2" + ")" * 3000, "3*u", "0"],
                                "b": ["0", "0", "1"], "a": 0.0}))
    code = main(["classify", str(spec)])
    err = capsys.readouterr().err
    assert code == 2
    assert "nested" in err and "Traceback" not in err


def test_long_flat_sum_exit_2(tmp_path, capsys):
    """A sum builds a tree as deep as it is long; past jets.MAX_NESTING
    terms it is refused as input, not left to overflow the recursion."""
    spec = tmp_path / "long.json"
    spec.write_text(json.dumps({"kind": "swallowtail-data",
                                "xi": ["2" + "+0*u" * 3000, "3*u", "0"],
                                "b": ["0", "0", "1"], "a": 0.0}))
    code = main(["classify", str(spec)])
    err = capsys.readouterr().err
    assert code == 2
    assert "nested" in err and "Traceback" not in err


def test_invariants_includes_discriminants(specs, capsys):
    code, out = run(capsys, "invariants", str(specs / "fplus.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["discriminants"]["Dqr_at_0"] == pytest.approx(6.0)


def test_cusp_commands(specs, capsys):
    code, out = run(capsys, "cusp", "classify", str(specs / "cusp.json"))
    assert code == 0
    assert json.loads(out)["kind"] == "non_generic"
    code, out = run(capsys, "cusp", "normalize", str(specs / "cusp.json"))
    assert code == 0
    norms = json.loads(out)["unit_field_norms"]
    for v in norms.values():
        assert v == pytest.approx(1.0, abs=1e-8)


def test_cusp_factor_command(specs, capsys):
    """gamma = (u^2, u^3, 0) has gamma' = u (2, 3u, 0): xi(0) = (2, 0, 0)
    and xi'(0) = (0, 3, 0)."""
    code, out = run(capsys, "cusp", "factor", str(specs / "cusp.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["xi_at_0"] == pytest.approx([2.0, 0.0, 0.0])
    assert doc["xi_prime_at_0"] == pytest.approx([0.0, 3.0, 0.0])


def test_build_command(specs, capsys):
    code, out = run(capsys, "build", str(specs / "ex217.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["is_swallowtail"] is True
    assert doc["discriminants"]["D0"] == pytest.approx(-12.0)


def test_mesh_command(specs, capsys, tmp_path):
    out_obj = tmp_path / "m.obj"
    code, out = run(capsys, "mesh", str(specs / "ex217.json"),
                    "--domain=-0.666,0.666,-0.333,0.333", "--res", "24,12",
                    "--out", str(out_obj))
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 25 * 13
    text = out_obj.read_text()
    assert sum(1 for l in text.splitlines() if l.startswith("v ")) == 25 * 13
    assert (tmp_path / "m.csv").exists()


def test_mesh_csv_sits_beside_the_obj(specs, capsys, tmp_path):
    """The CSV path replaces the extension of --out, never a dot in a
    directory name."""
    (tmp_path / "runs.v2").mkdir()
    out = tmp_path / "runs.v2" / "mesh"
    code, text = run(capsys, "mesh", str(specs / "ex217.json"),
                     "--domain=-0.3,0.3,-0.2,0.2", "--res", "4,3", "--out", str(out))
    assert code == 0
    assert json.loads(text)["csv"] == str(out) + ".csv"
    assert out.read_text().startswith("v ")
    assert (tmp_path / "runs.v2" / "mesh.csv").read_text().startswith("u,v,x,y,z,K\n")
    assert not (tmp_path / "runs.csv").exists()


def test_mesh_out_that_is_its_own_csv_exit_2(specs, capsys, tmp_path):
    code = main(["mesh", str(specs / "ex217.json"), "--domain=-0.3,0.3,-0.2,0.2",
                 "--res", "4,3", "--out", str(tmp_path / "m.csv")])
    assert code == 2
    assert "m.csv" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_mesh_bad_resolution(specs, capsys, tmp_path):
    code, _ = run(capsys, "mesh", str(specs / "ex217.json"),
                  "--domain=-1,1,-1,1", "--res", "0,5",
                  "--out", str(tmp_path / "x.obj"))
    assert code == 2


def test_deform_precondition_exit_4(specs, capsys):
    code, _ = run(capsys, "deform", str(specs / "fplus.json"),
                  str(specs / "ex218.json"), "--recipe", "any", "--steps", "5")
    assert code == 4


def test_deform_certificate_passes(specs, capsys):
    code, out = run(capsys, "deform", str(specs / "fplus.json"),
                    str(specs / "dev.json"), "--recipe", "D", "--steps", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["t_grid"]) == 5


def test_deform_preserve_sign(specs, capsys):
    """--preserve-sign: recipe D on endpoints whose curvature signs differ
    is a precondition mismatch (exit 4); without the flag the same pair
    passes through the general route, which scales (q, r) away.  Recipe A
    ignores the flag."""
    pair = (str(specs / "fplus.json"), str(specs / "fminus.json"), "--recipe", "D", "--steps", "3")
    code, out = run(capsys, "deform", *pair, "--preserve-sign")
    assert code == 4
    doc = json.loads(out)
    assert doc["pass"] is False and "curvature signs do not match" in doc["error"]
    code, out = run(capsys, "deform", *pair)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["per_t"][0]["stage"] == "scale-away-1"
    theorem_a = ("deform", str(specs / "ex217.json"), str(specs / "ex217.json"),
                 "--recipe", "A", "--steps", "3")
    assert run(capsys, *theorem_a, "--preserve-sign") == run(capsys, *theorem_a)


def test_deform_endpoints_of_different_a_exit_4(specs, capsys, tmp_path):
    """A pair in two space forms is a precondition mismatch, not a
    certificate in the first one."""
    dev = json.loads((specs / "dev.json").read_text())
    spec2 = tmp_path / "dev_a.json"
    spec2.write_text(json.dumps(dict(dev, a=0.7)))
    code, out = run(capsys, "deform", str(specs / "fplus.json"), str(spec2),
                    "--recipe", "D", "--steps", "5")
    assert code == 4
    doc = json.loads(out)
    assert doc["pass"] is False and "a = 0.7" in doc["error"]


def test_deterministic_output(specs, capsys):
    _, out1 = run(capsys, "invariants", str(specs / "ex217.json"))
    _, out2 = run(capsys, "invariants", str(specs / "ex217.json"))
    assert out1 == out2


def test_frenet_command(capsys, tmp_path):
    out = tmp_path / "fr.csv"
    code, text = run(capsys, "frenet", "--kappa", "1", "--tau", "1",
                     "--interval=-1,1", "--out", str(out))
    assert code == 0
    doc = json.loads(text)
    assert doc["recovered_kappa_mid"] == pytest.approx(1.0, abs=1e-5)
    assert doc["frame_orthonormality"] < 1e-9
    assert out.exists()


SHEARED_Q1 = {"kind": "raw-germ",
              "f": ["v", "u^4/4 - u^3/6 - u^2*v + u*v + v^2",
                    "u*(2*u^4 - u^3 - 8*u^2*v + 4*u*v + 8*v^2)/4"],
              "a": 0.0}


def test_mesh_two_windows_of_the_steep_parabolic_germ(capsys, tmp_path):
    """The q = 1 parabolic germ over its natural window and over the sheared
    (u, w) window that exposes the swallowtail shape."""
    spec1 = tmp_path / "q1.json"
    spec1.write_text(json.dumps({
        "kind": "asymptotic-data", "xi": ["1", "u", "u^2"], "q": "1",
        "r": ["0", "0", "0"], "a": 0.0}))
    code, out = run(capsys, "mesh", str(spec1),
                    "--domain=-0.6666,0.6666,-0.3333,0.3333", "--res", "32,16",
                    "--out", str(tmp_path / "big.obj"))
    assert code == 0
    assert json.loads(out)["vertices"] == 33 * 17
    # sheared coordinates v = w - u^2/2 around the tail
    spec2 = tmp_path / "q1w.json"
    spec2.write_text(json.dumps(SHEARED_Q1))
    code, out = run(capsys, "mesh", str(spec2),
                    "--domain=-0.007,0.01,-0.26,0.35", "--res", "16,16",
                    "--out", str(tmp_path / "small.obj"))
    assert code == 0
    verts = [l for l in (tmp_path / "small.obj").read_text().splitlines()
             if l.startswith("v ")]
    assert len(verts) == 17 * 17
    vals = np.array([[float(x) for x in l.split()[1:]] for l in verts])
    assert np.all(np.isfinite(vals))
    # the sheared germ is the q=1 germ composed with v = w - u^2/2
    a_doc = json.loads((tmp_path / "q1.json").read_text())
    _, g1 = gs.load(a_doc)
    _, g2 = gs.load(json.loads(spec2.read_text()))
    for (u, w) in [(0.005, 0.1), (-0.004, -0.2)]:
        assert g2.value(u, w) == pytest.approx(g1.value(u, w - u * u / 2), abs=1e-12)


def _mesh_reference(spec, domain, res):
    """OBJ and CSV text of `mesh` built point by point: scalar positions and
    one scalar curvature call per vertex, NaN where that call raises."""
    _, germ = gs.load(spec)
    (u0, u1, v0, v1), (m, n) = domain, res
    us, vs = np.linspace(u0, u1, m + 1), np.linspace(v0, v1, n + 1)
    obj, csv = [], ["u,v,x,y,z,K\n"]
    for u in us:
        for v in vs:
            x, y, z = germ.value(u, v)
            try:
                K, _ = fr.gaussian_curvature(germ, (u, v))
            except (fr.ClassificationError, JetError):
                K = float("nan")
            obj.append(f"v {x:.9g} {y:.9g} {z:.9g}\n")
            csv.append(f"{u:.9g},{v:.9g},{x:.9g},{y:.9g},{z:.9g},{K:.9g}\n")
    for i in range(m):
        for j in range(n):
            aa, bb = i * (n + 1) + j + 1, (i + 1) * (n + 1) + j + 1
            obj.append(f"f {aa} {bb} {bb + 1} {aa + 1}\n")
    return "".join(obj), "".join(csv)


@pytest.mark.parametrize("spec, domain, res", [
    ({"kind": "swallowtail-data", "xi": ["2", "3*u", "0"], "b": ["0", "0", "1"], "a": -1.0},
     (-0.3, 0.3, -0.2, 0.2), (6, 8)),
    ({"kind": "swallowtail-data", "xi": ["2", "3*u", "0"], "b": ["0", "0", "1"], "a": 0.0},
     (-0.3, 0.3, -0.2, 0.2), (6, 8)),
    ({"kind": "swallowtail-data", "xi": ["2", "3*u", "0"], "b": ["0", "0", "1"], "a": 1.0},
     (-0.3, 0.3, -0.2, 0.2), (6, 8)),
    (SHEARED_Q1, (-0.007, 0.01, -0.26, 0.35), (16, 16)),
], ids=["ex217-a-1", "ex217-a0", "ex217-a1", "sheared-q1"])
def test_mesh_equals_the_scalar_loop(capsys, tmp_path, spec, domain, res):
    """The mesh K column, computed in one array call, is byte for byte the
    per-vertex loop, NaN on the singular row v = 0 included."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    code, _ = run(capsys, "mesh", str(path), "--domain=" + ",".join(map(repr, domain)),
                  "--res", "%d,%d" % res, "--out", str(tmp_path / "m.obj"))
    assert code == 0
    obj, csv = _mesh_reference(spec, domain, res)
    assert (tmp_path / "m.obj").read_text() == obj
    assert (tmp_path / "m.csv").read_text() == csv
    if spec["kind"] == "swallowtail-data":
        assert csv.count(",nan\n") == res[0] + 1


@pytest.mark.parametrize("kappa, tau", [("1+0*exp(1000*u)", "1"), ("1", "1+0*exp(1000*u)")])
def test_frenet_rejects_non_finite_kappa_or_tau(capsys, tmp_path, kappa, tau):
    """kappa or tau NaN at the end of the interval (0*inf past u = 0.71) is a
    domain error, not a row of nan."""
    out = tmp_path / "c.csv"
    code = main(["frenet", "--kappa", kappa, "--tau", tau, "--interval=-1,1",
                 "--step", "0.01", "--samples", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("domain error: kappa(0.71") and "not finite" in err
    assert not out.exists()


def test_frenet_rejects_a_kappa_dip_inside_a_step(capsys):
    """kappa < 0 only on (0.519, 0.521), shorter than one Taylor step."""
    code = main(["frenet", "--kappa", "(u-0.52)^2-0.000001", "--tau", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("domain error: kappa(0.519") and "<= 0" in err


def test_frenet_zero_length_interval_is_a_domain_error(capsys):
    code = main(["frenet", "--kappa", "1", "--tau", "1", "--interval=0,0"])
    assert code == 3
    assert capsys.readouterr().err == (
        "domain error: integration interval (0.0, 0.0) takes no step from u = 0\n")


@pytest.mark.parametrize("argv, message", [
    (["--kappa", "1e6", "--tau", "0"],
     "the Frenet march needs more than 100000 steps near u = 0.0"),
    (["--kappa", "1", "--tau", "0", "--step", "1e-9"],
     "integration interval (-1.0, 1.0) takes 2000000000 steps of 1e-09, more than 100000"),
    (["--kappa", "1+0*exp(1000*u)", "--tau", "0", "--interval=-1,0.705"],
     "the Frenet series at u = 0.675 admit no Taylor step"),
])
def test_frenet_march_it_cannot_take_is_a_domain_error(capsys, argv, message):
    """A curvature that asks steps of 4e-7, or a --step that lays 2e9, is
    refused before the march stores its steps; so is a step start where
    kappa is finite but its series is not (0 * inf beyond degree 0)."""
    assert main(["frenet", *argv]) == 3
    assert capsys.readouterr().err == f"domain error: {message}\n"


@pytest.mark.parametrize("samples", ["0", "-1", "1.5", "x"])
def test_frenet_samples_must_be_a_positive_integer(capsys, samples):
    argv = ["frenet", "--kappa", "1", "--tau", "1", "--samples", samples]
    try:
        code = main(argv)
    except SystemExit as exc:          # not an integer: argparse's own exit
        code = exc.code
    assert code == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("window, radii", [("-0.1,0.1,0.1,0.3", "0.1 to 0.316228"),
                                           ("-0.2,0.2,2.6,3.0", "2.6 to 3.00666"),
                                           ("-0.1,0.1,-0.1,0.1", "0 to 0.141421")])
def test_cgc_window_outside_the_profile_domain_is_a_domain_error(capsys, tmp_path, window, radii):
    """omega reads the radial profile, solved on [0.5, 1.6], at the radii of
    the window: one that leaves that domain (or holds r = 0) exits 3, where
    the end steps' polynomials were read past their domain and exited 0."""
    code = main(["cgc", "--grid", "21,21", f"--window={window}",
                 "--out-prefix", str(tmp_path / "cgc")])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == (f"domain error: --window {window} spans radii {radii}, "
                   "outside the radial profile's domain [0.5, 1.6]\n")
    assert not list(tmp_path.iterdir())


def test_cgc_command(capsys, tmp_path):
    code, out = run(capsys, "cgc", "--grid", "41,41",
                    "--window=-0.3,0.3,0.8,1.2",
                    "--out-prefix", str(tmp_path / "cgc"))
    assert code == 0
    doc = json.loads(out)
    assert doc["profile"]["F_at_1"] == 0.0
    assert doc["swallowtail_conditions"]["printed"]["l1_v"] == pytest.approx(-2.0)
    assert doc["parallel_report"]["is_swallowtail"] is True
    assert (tmp_path / "cgc_cmc.obj").exists()
    assert (tmp_path / "cgc_k1.obj").exists()
    assert (tmp_path / "cgc_cmc.csv").exists()
