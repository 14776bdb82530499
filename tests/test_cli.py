"""Command-line interface: commands, exit codes, deterministic output."""

import json
import os

import pytest

from swallowkit.cli import main


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


def test_deeply_nested_expression_exit_2(tmp_path, capsys):
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps({"kind": "swallowtail-data",
                                "xi": ["(" * 3000 + "2" + ")" * 3000, "3*u", "0"],
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


def test_mesh_two_windows_of_the_steep_parabolic_germ(capsys, tmp_path):
    """The q = 1 parabolic germ over its natural window and over the sheared
    (u, w) window that exposes the swallowtail shape."""
    import numpy as np
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
    spec2.write_text(json.dumps({
        "kind": "raw-germ",
        "f": ["v",
              "u^4/4 - u^3/6 - u^2*v + u*v + v^2",
              "u*(2*u^4 - u^3 - 8*u^2*v + 4*u*v + 8*v^2)/4"],
        "a": 0.0}))
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
    from swallowkit import germspec as gs
    _, g1 = gs.load(a_doc)
    _, g2 = gs.load(json.loads(spec2.read_text()))
    for (u, w) in [(0.005, 0.1), (-0.004, -0.2)]:
        assert g2.value(u, w) == pytest.approx(g1.value(u, w - u * u / 2), abs=1e-12)


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
