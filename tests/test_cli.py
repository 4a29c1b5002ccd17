"""Command-line surface: formats, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from triphase import EraserConfig, PureState, fringe_pair, inner_product, points_to_state, wrap_angle
from triphase.cli import _json_text, main
from triphase.eraser import MAX_GRID_SIZE
from triphase.sweep import MAX_SWEEP_INTERVALS
from triphase.states import BlochPoint

SQRT2 = math.sqrt(2.0)


def state_obj(amplitudes):
    return {"dim": len(amplitudes), "amplitudes": [[z.real, z.imag] for z in amplitudes]}


def quarter_turn_triple():
    s = 1 / SQRT2
    return {
        "psi1": state_obj([s + 0j, s + 0j]),
        "psi2": state_obj([1 + 0j, 0j]),
        "psi3": state_obj([s + 0j, s * 1j]),
    }


@pytest.fixture
def triple_file(tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(quarter_turn_triple()))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phase_human_and_json(triple_file, capsys):
    code, out, _ = run_cli(["phase", triple_file], capsys)
    assert code == 0
    assert out.startswith("gamma = 0.785398163397")
    code, out, _ = run_cli(["phase", triple_file, "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == pytest.approx(math.pi / 4, abs=1e-9)
    assert set(payload["overlaps"]) == {"psi1_psi3", "psi3_psi2", "psi2_psi1"}


def test_phase_repeated_state_gives_zero(tmp_path, capsys):
    obj = quarter_turn_triple()
    obj["psi2"] = obj["psi1"]
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(["phase", str(path), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["gamma"] == pytest.approx(0.0, abs=1e-12)


def test_phase_orthogonal_pair_exits_2(tmp_path, capsys):
    obj = quarter_turn_triple()
    obj["psi1"] = state_obj([1 + 0j, 0j])
    obj["psi2"] = state_obj([0j, 1 + 0j])
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(["phase", str(path)], capsys)
    assert code == 2
    assert "undefined phase" in err


def test_phase_tolerance_error_reports_the_product(tmp_path, capsys):
    # every overlap exceeds 0.9, but their product (~0.888) does not
    obj = {
        "psi1": state_obj(list(np.array([1, 0.2 + 0j]) / math.sqrt(1.04))),
        "psi2": state_obj(list(np.array([1, -0.2 + 0j]) / math.sqrt(1.04))),
        "psi3": state_obj([1 + 0j, 0j]),
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["phase", str(path), "--tolerance", "0.9"], capsys)
    assert code == 2 and out == ""
    assert err == "error: undefined phase: overlap product modulus 0.888 <= 0.9; phase undefined\n"


def test_parse_errors_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run_cli(["phase", missing], capsys)[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["phase", str(bad)], capsys)[0] == 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"psi1": state_obj([1 + 0j, 0j])}))
    assert run_cli(["phase", str(wrong)], capsys)[0] == 1
    assert run_cli(["nonsense-command"], capsys)[0] == 1


def test_norm_gate_and_renormalize_flag(tmp_path, capsys):
    obj = quarter_turn_triple()
    obj["psi1"] = {"dim": 2, "amplitudes": [[0.7072, 0.0], [0.7072, 0.0]]}  # off by ~1e-4
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(["phase", str(path)], capsys)
    assert code == 1 and "--renormalize" in err
    code, out, _ = run_cli(["phase", str(path), "--renormalize", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["gamma"] == pytest.approx(math.pi / 4, abs=1e-9)


def test_majorana_points_and_roundtrip(tmp_path, capsys):
    state_path = tmp_path / "s.json"
    s = 1 / SQRT2
    state_path.write_text(json.dumps(state_obj([s + 0j, 0j, s + 0j])))
    code, out, _ = run_cli(["majorana", str(state_path), "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 3 and "convention" in payload
    az = sorted(pt[1] for pt in payload["points"])
    assert az[0] == pytest.approx(math.pi / 2, abs=1e-9)
    assert az[1] == pytest.approx(3 * math.pi / 2, abs=1e-9)
    # feed the points back through --from-points
    pts_path = tmp_path / "pts.json"
    pts_path.write_text(out)
    code, out, _ = run_cli(["majorana", "--from-points", str(pts_path), "--json"], capsys)
    assert code == 0
    rebuilt = json.loads(out)
    vec = np.array([complex(re, im) for re, im in rebuilt["amplitudes"]])
    original = PureState(np.array([s, 0.0, s]))
    assert abs(inner_product(PureState.normalized(vec), original)) >= 1.0 - 1e-8


def test_majorana_pole_state(tmp_path, capsys):
    state_path = tmp_path / "s.json"
    state_path.write_text(json.dumps(state_obj([1 + 0j, 0j, 0j])))
    code, out, _ = run_cli(["majorana", str(state_path), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["points"] == [[0.0, 0.0], [0.0, 0.0]]


def test_canonicalize_json_passes_verification(tmp_path, capsys):
    rng = np.random.default_rng(17)
    obj = {}
    for key in ("psi1", "psi2", "psi3"):
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        obj[key] = state_obj(list(vec / np.linalg.norm(vec)))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(["canonicalize", str(path), "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["gram_delta"] < 1e-9
    assert payload["verification"]["overlap_delta"] < 1e-10
    assert payload["verification"]["phase_delta"] < 1e-9
    assert not payload["degenerate_frame"]
    u = np.array([[complex(re, im) for re, im in row] for row in payload["unitary"]])
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-9


def test_canonicalize_parallel_inputs_note(tmp_path, capsys):
    rng = np.random.default_rng(23)
    vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    vec /= np.linalg.norm(vec)
    obj = {
        "psi1": state_obj(list((lambda w: w / np.linalg.norm(w))(rng.standard_normal(3) + 0j))),
        "psi2": state_obj(list(vec)),
        "psi3": state_obj(list(np.exp(0.4j) * vec)),
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(["canonicalize", str(path), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["degenerate_frame"] is True


def test_eraser_reports_quarter_turn_and_scan(tmp_path, triple_file, capsys):
    scan_path = tmp_path / "scan.csv"
    code, out, _ = run_cli(
        ["eraser", triple_file, "--grid", "256", "--json", "--scan-csv", str(scan_path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == pytest.approx(math.pi / 4, abs=1e-9)
    assert payload["visibility"] == pytest.approx(1.0, abs=1e-9)
    lines = scan_path.read_text().splitlines()
    assert lines[0] == "delta,probability"
    assert len(lines) == 257


def test_eraser_grid_resolution_contract(tmp_path, capsys):
    rng = np.random.default_rng(31)
    obj = {}
    for key in ("psi1", "psi2", "psi3"):
        vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        obj[key] = state_obj(list(vec / np.linalg.norm(vec)))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))

    def gamma_for(grid, mode):
        code, out, _ = run_cli(
            ["eraser", str(path), "--grid", str(grid), "--mode", mode, "--json"], capsys)
        assert code == 0
        return json.loads(out)["gamma"]

    closed_64 = gamma_for(64, "closed_form")
    closed_4096 = gamma_for(4096, "closed_form")
    assert closed_64 == closed_4096  # closed form ignores the grid
    direct = gamma_for(4096, "both")
    assert abs(gamma_for(64, "grid_argmax") - direct) <= 2 * math.pi / 64
    assert abs(gamma_for(4096, "grid_argmax") - direct) <= 2 * math.pi / 4096


@pytest.mark.parametrize("dim", [2, 5, 13])
def test_eraser_mode_reads_scan_landmarks(tmp_path, capsys, dim):
    rng = np.random.default_rng(70 + dim)
    vecs = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
    states = [PureState.normalized(v) for v in vecs]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({f"psi{k + 1}": state_obj(list(s.amplitudes))
                                for k, s in enumerate(states)}))

    def eraser(mode, *flags):
        scan = tmp_path / f"{mode}.csv"
        code, out, _ = run_cli(["eraser", str(path), "--grid", "64", "--mode", mode,
                                "--scan-csv", str(scan), *flags], capsys)
        assert code == 0
        return out.replace(str(scan), "SCAN"), scan.read_bytes()

    for flags in ([], ["--degrees"]):
        assert eraser("both", *flags) == eraser("closed_form", *flags)
    projected, plain = fringe_pair(*states, EraserConfig(grid_size=64))
    for scan in (projected, plain):
        assert abs(wrap_angle(scan.peak - scan.center)) <= 2 * math.pi / 64
    payload = json.loads(eraser("grid_argmax", "--json")[0])
    assert payload["delta_f"] == pytest.approx(projected.peak, abs=1e-11)
    assert payload["delta_m"] == pytest.approx(plain.peak, abs=1e-11)
    assert payload["gamma"] == pytest.approx(wrap_angle(projected.peak - plain.peak), abs=1e-11)


def test_eraser_repeated_state(tmp_path, capsys):
    obj = quarter_turn_triple()
    obj["psi2"] = obj["psi1"]
    obj["psi3"] = obj["psi1"]
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(["eraser", str(path), "--grid", "64", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == 0.0
    assert payload["visibility"] == 1.0


def test_sweep_csv_sidecar_and_negation(tmp_path, capsys):
    out_pos = tmp_path / "pos.csv"
    code, _, _ = run_cli(["sweep", "--theta", str(math.pi / 6), "--phi", str(math.pi / 4),
                          "--steps", "1000", "--out", str(out_pos)], capsys)
    assert code == 0
    lines = out_pos.read_text().splitlines()
    assert lines[0] == "alpha,gamma1,gamma2,gamma_wrapped,gamma_unwrapped"
    assert len(lines) == 1002
    sidecar = json.loads((tmp_path / "pos.json").read_text())
    assert set(sidecar) == {"singular_alphas", "winding"}
    assert sidecar["winding"] == pytest.approx(4 * math.pi, abs=1e-6)
    assert len(sidecar["singular_alphas"]) == 2
    assert sidecar["singular_alphas"][0] == pytest.approx(3 * math.pi / 4, abs=2 * math.pi / 1000)
    assert sidecar["singular_alphas"][1] == pytest.approx(5 * math.pi / 4, abs=2 * math.pi / 1000)

    out_neg = tmp_path / "neg.csv"
    code, _, _ = run_cli(["sweep", "--theta", str(-math.pi / 6), "--phi", str(math.pi / 4),
                          "--steps", "1000", "--out", str(out_neg)], capsys)
    assert code == 0
    pos = np.genfromtxt(out_pos, delimiter=",", names=True)
    neg = np.genfromtxt(out_neg, delimiter=",", names=True)
    assert np.allclose(pos["alpha"], neg["alpha"], atol=1e-12)
    for col in ("gamma1", "gamma2", "gamma_wrapped", "gamma_unwrapped"):
        assert np.allclose(pos[col], -neg[col], atol=1e-9)


def test_sweep_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(["sweep", "--theta", "0.5", "--phi", "0.2",
                            "--steps", "10", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1 and "steps" in err
    code, _, err = run_cli(["sweep", "--theta", "1e-7", "--phi", "0.2",
                            "--steps", "64", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2


def test_grid_caps_exit_1(tmp_path, triple_file, capsys):
    # validation only: both requests fail before any grid is allocated
    code, _, err = run_cli(["sweep", "--theta", "0.5", "--phi", "0.2",
                            "--steps", str(MAX_SWEEP_INTERVALS + 1),
                            "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1 and "steps" in err
    assert not (tmp_path / "x.csv").exists()
    code, _, err = run_cli(["eraser", triple_file, "--grid", str(MAX_GRID_SIZE + 1)], capsys)
    assert code == 1 and "grid_size" in err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("command", ["phase", "canonicalize", "eraser"])
def test_non_finite_amplitude_exits_1(tmp_path, capsys, command, bad):
    obj = quarter_turn_triple()
    obj["psi2"]["amplitudes"][0][1] = bad  # written as a bare NaN / Infinity token
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    # even the lax --renormalize norm gate must reject it
    code, out, err = run_cli([command, str(path), "--json", "--renormalize"], capsys)
    assert code == 1
    assert out == "" and "norm" in err and "Traceback" not in err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["phase", "eraser"])
def test_bad_tolerance_exits_1(tmp_path, capsys, command, tolerance):
    obj = quarter_turn_triple()
    obj["psi1"] = state_obj([1 + 0j, 0j])
    obj["psi2"] = state_obj([0j, 1 + 0j])  # orthogonal: no phase, no reference fringe
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli([command, str(path), "--json", "--tolerance", tolerance], capsys)
    assert code == 1
    assert out == "" and "--tolerance" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag", [
    ("sweep", "--tolerance=0.5"),
    ("sweep", "--renormalize"),
    ("majorana", "--tolerance=0.5"),
    ("canonicalize", "--degrees"),
])
def test_flag_the_command_does_not_read_exits_1(tmp_path, triple_file, capsys, command, flag):
    state = tmp_path / "s.json"
    state.write_text(json.dumps(quarter_turn_triple()["psi1"]))
    out_csv = tmp_path / "x.csv"
    argv = {
        "sweep": ["sweep", "--theta", "0.5", "--phi", "0.2", "--steps", "64", "--out", str(out_csv)],
        "majorana": ["majorana", str(state)],
        "canonicalize": ["canonicalize", triple_file],
    }[command]
    code, out, err = run_cli(argv + [flag], capsys)
    assert code == 1
    assert out == "" and "unrecognized arguments" in err and flag.split("=")[0] in err
    assert not out_csv.exists()


def test_canonicalize_tolerance_reaches_phase_delta(triple_file, capsys):
    # the quarter-turn triple's overlap product is 2^(-3/2) ~ 0.35
    code, out, _ = run_cli(["canonicalize", triple_file, "--json"], capsys)
    assert code == 0 and json.loads(out)["verification"]["phase_delta"] < 1e-9
    assert run_cli(["phase", triple_file, "--tolerance", "0.9"], capsys)[0] == 2
    code, out, _ = run_cli(["canonicalize", triple_file, "--json", "--tolerance", "0.9"], capsys)
    assert code == 0 and json.loads(out)["verification"]["phase_delta"] is None
    code, out, _ = run_cli(["canonicalize", triple_file, "--tolerance", "0.9"], capsys)
    assert code == 0 and "phase_delta = n/a (undefined phase)" in out.splitlines()


def test_sweep_degrees_changes_text_only(tmp_path, capsys):
    def sweep(name, *flags):
        out = tmp_path / f"{name}.csv"
        code, text, _ = run_cli(["sweep", "--theta", str(math.pi / 6), "--phi", str(math.pi / 4),
                                 "--steps", "256", "--out", str(out), *flags], capsys)
        assert code == 0
        return text, out.read_bytes(), (tmp_path / f"{name}.json").read_bytes()

    rad_text, rad_csv, rad_sidecar = sweep("rad")
    deg_text, deg_csv, deg_sidecar = sweep("deg", "--degrees")
    assert (deg_csv, deg_sidecar) == (rad_csv, rad_sidecar)
    rad = dict(line.split(" = ") for line in rad_text.splitlines() if " = " in line)
    deg = dict(line.split(" = ") for line in deg_text.splitlines() if " = " in line)
    assert deg["winding"].endswith(" deg")
    assert float(deg["winding"][:-4]) == pytest.approx(720.0, abs=1e-4)
    alphas_rad = [float(a) for a in rad["singular_alphas"].split()]
    alphas_deg = deg["singular_alphas"].split(" deg")
    assert alphas_deg[-1] == "" and len(alphas_deg) == len(alphas_rad) + 1 == 3
    for a_rad, a_deg in zip(alphas_rad, alphas_deg):
        assert float(a_deg) == pytest.approx(math.degrees(a_rad), rel=1e-11)
    deg_json, _, _ = sweep("deg_json", "--degrees", "--json")
    assert json.loads(deg_json)["winding"] == pytest.approx(4 * math.pi, abs=1e-6)  # radians


def test_json_writer_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        _json_text({"gamma": math.nan})
    assert _json_text({"gamma": 0.5}) == '{\n  "gamma": 0.5\n}\n'


def test_byte_determinism(tmp_path, triple_file):
    # full process runs so stdout bytes are compared end to end
    def run(args):
        return subprocess.run([sys.executable, "-m", "triphase", *args],
                              capture_output=True, check=True).stdout

    first = run(["phase", triple_file, "--json"])
    assert first == run(["phase", triple_file, "--json"])

    out = tmp_path / "s.csv"
    sweep_args = ["sweep", "--theta", "0.52", "--phi", "0.785", "--steps", "200",
                  "--out", str(out)]
    run(sweep_args)
    csv_first = out.read_bytes()
    sidecar_first = (tmp_path / "s.json").read_bytes()
    run(sweep_args)
    assert out.read_bytes() == csv_first
    assert (tmp_path / "s.json").read_bytes() == sidecar_first
    assert b"\r" not in csv_first


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules imported by the test session do not count
    code = "import sys, triphase; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True).stdout
    assert out == b"False\n"


def test_degrees_flag_display_only(triple_file, capsys):
    code, out, _ = run_cli(["phase", triple_file, "--degrees"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "gamma = 45 deg"
    code, out, _ = run_cli(["phase", triple_file, "--degrees", "--json"], capsys)
    assert json.loads(out)["gamma"] == pytest.approx(math.pi / 4, abs=1e-9)  # radians


def test_points_file_validation(tmp_path, capsys):
    bad = tmp_path / "pts.json"
    bad.write_text(json.dumps({"points": []}))
    assert run_cli(["majorana", "--from-points", str(bad)], capsys)[0] == 1
    bad.write_text(json.dumps({"points": [[5.0, 0.0]]}))  # polar out of range
    assert run_cli(["majorana", "--from-points", str(bad)], capsys)[0] == 1
    good = tmp_path / "ok.json"
    good.write_text(json.dumps({"points": [[math.pi / 2, 1.0], [0.3, 4.0]]}))
    code, out, _ = run_cli(["majorana", "--from-points", str(good), "--json"], capsys)
    assert code == 0
    vec = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
    want = points_to_state([BlochPoint(math.pi / 2, 1.0), BlochPoint(0.3, 4.0)])
    assert abs(inner_product(PureState.normalized(vec), want)) >= 1.0 - 1e-9
