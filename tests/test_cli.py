"""Command-line surface: formats, exit codes, determinism."""

import cmath
import contextlib
import errno
import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reference import BEYOND_FLOAT, SQRT2, angle_dist, count_overlaps, phase_mp, triple_with_overlaps
from triphase import (
    EraserConfig,
    PureState,
    UndefinedPhaseError,
    fringe_pair,
    inner_product,
    points_to_state,
    sweep_alpha,
    three_vertex_phase,
    wrap_angle,
)
from triphase import cli
from triphase.cli import _json_text, main
from triphase.angles import MAX_GRID
from triphase.eraser import composite_intermediate
from triphase.majorana import MAX_DIM, MAX_POWER
from triphase.states import BlochPoint


def state_obj(amplitudes):
    return {"dim": len(amplitudes), "amplitudes": [[z.real, z.imag] for z in amplitudes]}


def quarter_turn_triple():
    s = 1 / SQRT2
    return {
        "psi1": state_obj([s + 0j, s + 0j]),
        "psi2": state_obj([1 + 0j, 0j]),
        "psi3": state_obj([s + 0j, s * 1j]),
    }


def orthogonal_triple():
    obj = quarter_turn_triple()
    obj["psi2"] = state_obj([SQRT2 / 2 + 0j, -SQRT2 / 2 + 0j])  # orthogonal to psi1: exit 2
    return obj


def haar_triple(seed, dim):
    rng = np.random.default_rng(seed)
    vecs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(3)]
    return {f"psi{k + 1}": state_obj(list(v / np.linalg.norm(v))) for k, v in enumerate(vecs)}


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def triple_file(tmp_path):
    return write_json(tmp_path / "triple.json", quarter_turn_triple())


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0 or captured.out == ""  # a failing command writes nothing to stdout
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


def test_phase_evaluates_each_overlap_once(triple_file, capsys, monkeypatch):
    calls = count_overlaps(monkeypatch)
    code, out, _ = run_cli(["phase", triple_file], capsys)
    assert code == 0 and out.startswith("gamma = 0.785398163397")
    assert len(calls) == 3


def test_phase_repeated_state_gives_zero(tmp_path, capsys):
    obj = quarter_turn_triple()
    obj["psi2"] = obj["psi1"]
    path = write_json(tmp_path / "t.json", obj)
    code, out, _ = run_cli(["phase", path, "--json"], capsys)
    assert code == 0
    assert json.loads(out)["gamma"] == pytest.approx(0.0, abs=1e-12)


def test_phase_overlap_args_lie_on_the_principal_branch(tmp_path, capsys):
    # <psi2|psi1> = -1 - 1e-17j, whose argument rounds to -pi; on (-pi, pi] it is pi
    s = 1 / SQRT2
    obj = {"psi1": state_obj([1 + 0j, 0j]), "psi2": state_obj([-1 + 1e-17j, 0j]),
           "psi3": state_obj([s + 0j, s + 0j])}
    code, out, _ = run_cli(["phase", write_json(tmp_path / "t.json", obj), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["overlaps"]["psi2_psi1"]["arg"] == 3.14159265359


def test_phase_orthogonal_pair_exits_2(tmp_path, capsys):
    obj = quarter_turn_triple()
    obj["psi1"] = state_obj([1 + 0j, 0j])
    obj["psi2"] = state_obj([0j, 1 + 0j])
    path = write_json(tmp_path / "t.json", obj)
    code, _, err = run_cli(["phase", path], capsys)
    assert code == 2
    assert "undefined phase" in err


def test_phase_tolerance_applies_to_each_overlap(tmp_path, capsys):
    # overlaps 0.981, 0.981 and 0.923: their product (~0.888) is below 0.9,
    # but the tolerance bounds each overlap, not the product
    obj = {
        "psi1": state_obj(list(np.array([1, 0.2 + 0j]) / math.sqrt(1.04))),
        "psi2": state_obj(list(np.array([1, -0.2 + 0j]) / math.sqrt(1.04))),
        "psi3": state_obj([1 + 0j, 0j]),
    }
    path = write_json(tmp_path / "t.json", obj)
    code, out, err = run_cli(["phase", path, "--tolerance", "0.9"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[:2] == ["gamma = 0", "|bargmann| = 0.887573964497"]
    code, out, err = run_cli(["phase", path, "--tolerance", "0.95"], capsys)
    assert code == 2 and out == ""
    assert err == "error: undefined phase: <psi2|psi1> has modulus 0.923, not above 0.95\n"


def triple_file_of(path, vecs) -> tuple[str, list]:
    """Write the triple's JSON file; return its path and the states as the
    CLI parses them."""
    write_json(path, {f"psi{k + 1}": state_obj(list(v)) for k, v in enumerate(vecs)})
    return str(path), [PureState.normalized(np.asarray(v)) for v in vecs]


def test_faint_product_is_a_phase_for_every_command(tmp_path, capsys):
    # overlaps 1.8e-5, 8.9e-6 and 1.0e-5, each resolved to ~1e-11 relative,
    # though their product, 1.6e-15, lies far below the 1e-12 tolerance
    overlaps = 1.8e-5 * cmath.exp(0.4j), 8.9e-6 * cmath.exp(-1.1j), 1.0e-5 * cmath.exp(2.0j)
    vecs = triple_with_overlaps(np.random.default_rng(5), 5, *overlaps)
    path, states = triple_file_of(tmp_path / "t.json", vecs)
    want = phase_mp(*states)
    assert angle_dist(want, 1.3) <= 1e-9  # 0.4 - 1.1 + 2.0
    code, out, _ = run_cli(["phase", path, "--json"], capsys)
    assert code == 0 and json.loads(out)["bargmann_abs"] == pytest.approx(1.6e-15, rel=0.01)
    assert angle_dist(json.loads(out)["gamma"], want) <= 1e-9
    code, out, _ = run_cli(["eraser", path, "--json"], capsys)
    assert code == 0 and angle_dist(json.loads(out)["gamma"], want) <= 1e-9
    code, out, _ = run_cli(["canonicalize", path, "--json"], capsys)
    assert code == 0 and json.loads(out)["verification"]["phase_delta"] <= 1e-9


def test_underflowing_products_keep_phase_and_visibility(tmp_path, capsys):
    # psi1 = e0 and a psi3 whose first two amplitudes are so faint that the
    # products of its overlaps leave the normal float range; --tolerance 0
    # keeps them defined. The phase is the 50-digit reference's, and the
    # projected fringe's visibility the closed form 2 sqrt(2)/3 = 2ab/(a^2 + b^2)
    # with b = sqrt(2) a
    e0, s = [1, 0, 0], 1 / SQRT2
    path, states = triple_file_of(tmp_path / "t.json", [np.array(v, dtype=complex) for v in (
        e0, [s, s * 1j, 0], [1e-170 * cmath.exp(1j), 1e-170, 1])])
    want = phase_mp(*states)
    assert abs(want - 1.2853981633974483) <= 1e-15
    assert angle_dist(three_vertex_phase(*states, eps_null=0.0), want) <= 1e-15
    projected, plain = fringe_pair(*states, EraserConfig(16), eps_null=0.0)
    assert angle_dist(projected.center - plain.center, want) <= 1e-15
    for command in ("phase", "eraser"):  # the product 1e-340 used to read gamma = 0
        code, out, err = run_cli([command, path, "--json", "--tolerance", "0"], capsys)
        assert code == 0, err
        assert angle_dist(json.loads(out)["gamma"], want) <= 1e-11, command  # 12 printed digits
    for faint in (1e-170, 1e-160):  # a ZeroDivisionError, then 0.942852437418
        path, states = triple_file_of(tmp_path / "t.json", [np.array(v, dtype=complex) for v in (
            e0, [s, s, 0], [faint, faint, 1])])
        for mode in ("both", "grid_argmax"):
            code, out, err = run_cli(["eraser", path, "--json", "--tolerance", "0", "--mode", mode], capsys)
            assert code == 0 and err == "", err
            payload = json.loads(out)
            assert payload["visibility"] == pytest.approx(2 * SQRT2 / 3, rel=1e-11), faint
            bound = 2 * math.pi / 4096 if mode == "grid_argmax" else 1e-11
            assert angle_dist(payload["gamma"], phase_mp(*states)) <= bound


def test_commands_agree_on_vanishing_overlaps(tmp_path, capsys):
    # each overlap log-uniform in [1e-14, 1e-8] about the 1e-12 tolerance:
    # phase and eraser fail, and canonicalize's check reads n/a, together
    rng = np.random.default_rng(20_111)
    undefined = 0
    for case in range(60):
        moduli = 10.0 ** rng.uniform(-14.0, -8.0, 3)
        overlaps = moduli * np.exp(1j * rng.uniform(-math.pi, math.pi, 3))
        vecs = triple_with_overlaps(rng, int(rng.integers(3, 9)), *overlaps)
        path, _ = triple_file_of(tmp_path / "t.json", vecs)
        phase = run_cli(["phase", path], capsys)[0]
        eraser = run_cli(["eraser", path, "--grid", "16"], capsys)[0]
        code, out, _ = run_cli(["canonicalize", path], capsys)
        assert code == 0 and phase in (0, 2) and eraser in (0, 2)
        na = "phase_delta = n/a (undefined phase)" in out.splitlines()
        assert (phase == 2) == (eraser == 2) == na, (case, moduli)
        undefined += na
    assert 0 < undefined < 60


def test_parse_errors_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run_cli(["phase", missing], capsys)[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    # bytes that are not UTF-8, and an amplitude past Python's 4300-digit
    # limit on int(): the error names the file, as for malformed JSON
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe{}")
    huge = tmp_path / "huge.json"
    huge.write_text('{"dim": 2, "amplitudes": [[1%s, 0], [0, 0]]}' % ("0" * 4999))
    for path in (bad, undecodable, huge):
        code, _, err = run_cli(["phase", str(path)], capsys)
        assert code == 1 and err.startswith(f"error: {path} is not valid JSON: "), err
    wrong = write_json(tmp_path / "wrong.json", {"psi1": state_obj([1 + 0j, 0j])})
    assert run_cli(["phase", wrong], capsys)[0] == 1
    assert run_cli(["nonsense-command"], capsys)[0] == 1


@pytest.mark.parametrize("error, code", [
    (UndefinedPhaseError, 2), (np.linalg.LinAlgError, 1), (ValueError, 1),
])
def test_exit_code_follows_the_exception_type(triple_file, capsys, monkeypatch, error, code):
    # UndefinedPhaseError is a ValueError: main must test for it first. Any
    # other ValueError exits 1, as LinAlgError from canonicalize's QR or SVD
    def failing_command(args):
        raise error("the command failed")

    monkeypatch.setattr(cli, "cmd_phase", failing_command)
    assert run_cli(["phase", triple_file], capsys) == (code, "", "error: the command failed\n")


def test_stdout_fails_before_any_file_is_written(tmp_path, triple_file, capsys, monkeypatch):
    # main builds stdout first: a payload JSON cannot hold (NaN) exits 1
    # before the command's files are written, and without --json both appear
    paths = tmp_path / "a.csv", tmp_path / "b.json"
    files = dict(zip(map(str, paths), ("a\n", "{}\n")))
    monkeypatch.setattr(cli, "cmd_phase", lambda args: ({"gamma": math.nan}, ["gamma = nan"], files))
    code, out, err = run_cli(["phase", triple_file, "--json"], capsys)
    assert (code, out) == (1, "") and err.startswith("error: ") and "Traceback" not in err
    assert not any(path.exists() for path in paths)
    assert run_cli(["phase", triple_file], capsys) == (0, "gamma = nan\n", "")
    assert [path.read_text() for path in paths] == list(files.values())


def test_commands_return_files_without_writing_them(tmp_path, triple_file):
    # the sweep's CSV comes before its sidecar, the order main writes them in
    out, scan = str(tmp_path / "x.csv"), str(tmp_path / "scan.csv")
    for argv, paths in ((["sweep", "--theta", "0.5", "--phi", "0.2", "--steps", "64", "--out", out],
                         [out, str(tmp_path / "x.json")]),
                        (["eraser", triple_file, "--scan-csv", scan], [scan]),
                        (["phase", triple_file], [])):
        args = cli.build_parser().parse_args(argv)
        assert list(args.func(args)[2]) == paths
    assert sorted(tmp_path.iterdir()) == [tmp_path / "triple.json"]


def test_undefined_requests_write_no_file(tmp_path, capsys):
    # exit 2 leaves neither the sweep's CSV and sidecar nor, in any mode, the eraser's scan
    out = str(tmp_path / "x.csv")
    code, stdout, _ = run_cli(["sweep", "--theta", "1e-12", "--phi", repr(math.pi / 4),
                               "--steps", "1024", "--out", out], capsys)
    assert (code, stdout) == (2, "")
    path = write_json(tmp_path / "t.json", orthogonal_triple())
    for mode in ("closed_form", "both", "grid_argmax"):
        code, stdout, _ = run_cli(["eraser", path, "--mode", mode, "--scan-csv", out], capsys)
        assert (code, stdout) == (2, "")
    assert sorted(tmp_path.iterdir()) == [tmp_path / "t.json"]


@pytest.mark.parametrize("case", ["dims", "majorana-no-input", "sweep-out", "sweep-sidecar", "eraser-scan-csv"])
def test_usage_and_write_errors_exit_1(tmp_path, triple_file, capsys, case):
    missing = str(tmp_path / "no-such-dir" / "x.csv")
    blocked = tmp_path / "blocked"
    (blocked / "x.json").mkdir(parents=True)  # the sidecar of blocked/x.csv is a directory
    mixed = quarter_turn_triple()
    mixed["psi2"] = state_obj([1 + 0j, 0j, 0j])
    args, message = {
        "dims": (["phase", write_json(tmp_path / "m.json", mixed)],
                 "states must share one dimension, got 2, 3, 2"),
        "majorana-no-input": (["majorana"], "majorana needs a state file or --from-points"),
        "sweep-out": (["sweep", "--theta", "0.5", "--phi", "0.2", "--steps", "64", "--out", missing],
                      f"cannot write {missing}: "),
        "sweep-sidecar": (["sweep", "--theta", "0.5", "--phi", "0", "--steps", "64",
                           "--out", str(blocked / "x.csv")], f"cannot write {blocked / 'x.json'}: "),
        "eraser-scan-csv": (["eraser", triple_file, "--scan-csv", missing], f"cannot write {missing}: "),
    }[case]
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    # the sweep's CSV, written before its sidecar failed, is removed again
    assert sorted(tmp_path.rglob("*")) == before


SRC = Path(cli.__file__).resolve().parents[1]  # the triphase under test, for child processes


def program_env(**overrides):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # buffered stdout unless a test asks for -u
    env.update(overrides)
    return env


def run_program(args, cwd, flags=(), **streams):
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, *flags, "-m", "triphase", *args], cwd=cwd, env=program_env(),
                          text=True, timeout=120, **streams)


@contextlib.contextmanager
def failing_sink(sink):
    """A write descriptor whose every write fails: /dev/full (ENOSPC), or a
    pipe whose read end is closed (EPIPE)."""
    if sink == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("this platform has no /dev/full")
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, fd = os.pipe()
        os.close(read_end)
    try:
        yield fd
    finally:
        os.close(fd)


@pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
def test_a_failed_stdout_write_exits_1_and_leaves_no_file(tmp_path, sink, flags):
    # buffered, such a failure surfaced only at teardown: "Exception ignored",
    # exit 120 and both sweep files left; unbuffered, a traceback and the files
    sweep = ["sweep", "--theta", "0.5", "--phi", "0.3", "--steps", "64", "--out", "f.csv"]
    with failing_sink(sink) as fd:
        for args in (sweep, ["--help"], ["phase", "--help"]):
            proc = run_program(args, tmp_path, flags, stdout=fd)
            assert proc.returncode == 1, (args, proc.stderr)
            assert re.fullmatch(r"error: cannot write stdout: \[Errno \d+\] [^\n]+\n", proc.stderr), proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
def test_a_failed_stderr_write_exits_1(tmp_path, flags):
    write_json(tmp_path / "orthogonal.json", orthogonal_triple())
    write_json(tmp_path / "t.json", quarter_turn_triple())
    with failing_sink("dev-full") as fd:
        for args in (["phase", "orthogonal.json"], ["phase", "t.json", "--grid", "64"], ["phase", "nope.json"]):
            proc = run_program(args, tmp_path, flags, stderr=fd)
            assert (proc.returncode, proc.stdout) == (1, ""), args
        # a command that writes nothing to stderr does not notice
        proc = run_program(["phase", "t.json"], tmp_path, flags, stderr=fd)
        assert proc.returncode == 0 and proc.stdout.startswith("gamma = 0.785398163397")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["orthogonal.json", "t.json"]


# the error line of a write to a stream whose descriptor was closed at start
EBADF_LINE = f"error: cannot write stdout: {OSError(errno.EBADF, os.strerror(errno.EBADF))}\n"


def test_a_stream_closed_at_start_fails_each_write(tmp_path, triple_file, capsys, monkeypatch):
    # a program started with descriptor 1 or 2 closed has sys.stdout or sys.stderr None
    orthogonal = write_json(tmp_path / "orthogonal.json", orthogonal_triple())
    missing = str(tmp_path / "nope.json")
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stderr", None)
        for argv in (["phase", triple_file, "--grid", "64"], ["phase", orthogonal], ["phase", missing]):
            with pytest.raises(OSError) as info:
                main(argv)
            assert info.value.errno == errno.EBADF, argv
    assert capsys.readouterr() == ("", "")
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", None)
        code = main(["phase", triple_file])
    assert (code, *capsys.readouterr()) == (1, "", EBADF_LINE)


def run_closed(fd, args, cwd):
    """python -m triphase as the program, started with descriptor fd closed."""
    code = (f"import os, sys; os.close({fd}); "
            "os.execv(sys.executable, [sys.executable, '-m', 'triphase', *sys.argv[1:]])")
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=program_env(), capture_output=True,
                          text=True, timeout=120)


def test_a_descriptor_closed_at_start(tmp_path):
    # such a run once ended in an AttributeError traceback and exit 1, undefined
    # phases included, and with stderr closed its error: and usage lines went to stdout
    write_json(tmp_path / "t.json", quarter_turn_triple())
    write_json(tmp_path / "orthogonal.json", orthogonal_triple())
    ebadf = re.escape(EBADF_LINE)
    for args, code, err in ((["phase", "t.json"], 1, ebadf), (["--help"], 1, ebadf),
                            (["phase", "orthogonal.json"], 2, "error: undefined phase: .*\n"),
                            (["phase", "nope.json"], 1, "error: cannot read nope.json: .*\n")):
        proc = run_closed(1, args, tmp_path)
        assert (proc.returncode, proc.stdout) == (code, ""), args
        assert re.fullmatch(err, proc.stderr), (args, proc.stderr)
    # with stderr closed, a failing command's error: line is a failed stderr write, exit 1
    for args in (["phase", "t.json"], ["--help"]):
        proc = run_closed(2, args, tmp_path)
        assert (proc.returncode, proc.stdout) == (0, run_program(args, tmp_path).stdout), args
    for args in (["phase", "orthogonal.json"], ["phase", "nope.json"], ["phase", "t.json", "--grid", "64"]):
        proc = run_closed(2, args, tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", ""), args
    assert sorted(p.name for p in tmp_path.iterdir()) == ["orthogonal.json", "t.json"]


ENTRY_CASES = {
    "exit-0": ["sweep", "--theta", "0.5", "--phi", "0.3", "--steps", "64", "--out", "s.csv"],
    "exit-1": ["phase", "t.json", "--grid", "64"],  # usage line and error on stderr
    "exit-2": ["phase", "orthogonal.json"],
}


@pytest.mark.parametrize("entry", ["module", "script"])
@pytest.mark.parametrize("case", sorted(ENTRY_CASES))
def test_program_entries_match_in_process_main(tmp_path, monkeypatch, capsys, case, entry):
    # python -m triphase and the triphase console script both run main() as
    # the program; each must give in-process main(argv)'s exit code and bytes
    if entry == "script":
        script = shutil.which("triphase")
        if script is None:
            pytest.skip("no triphase console script on PATH (pip install -e . provides one)")
        command, env = [script], program_env(PYTHONDEVMODE="1", PYTHONWARNINGS="error")
    else:
        command, env = [sys.executable, "-X", "dev", "-W", "error", "-m", "triphase"], program_env()
    results = []
    for name in ("in-process", "program"):
        workdir = tmp_path / name
        workdir.mkdir()
        write_json(workdir / "t.json", quarter_turn_triple())
        write_json(workdir / "orthogonal.json", orthogonal_triple())
        if name == "in-process":
            monkeypatch.chdir(workdir)
            code, out, err = main(ENTRY_CASES[case]), *capsys.readouterr()
        else:
            proc = subprocess.run(command + ENTRY_CASES[case], cwd=workdir, env=env, capture_output=True,
                                  text=True, timeout=120)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        results.append((code, out, err, files))
    assert results[0] == results[1]
    assert results[0][0] == int(case[-1])


def test_only_the_program_freezes_the_collector(tmp_path, triple_file, capsys):
    # main(argv) leaves an embedding caller's collector alone; main() as the
    # program freezes what it leaves alive, so teardown skips collecting it
    frozen = gc.get_freeze_count()
    for argv in (["phase", triple_file], ["phase", str(tmp_path / "nope.json")]):
        main(argv)
        assert gc.get_freeze_count() == frozen
    capsys.readouterr()
    code = ("import gc, sys; from triphase.cli import main; sys.argv[:] = ['triphase', 'phase', sys.argv[1]]; "
            "frozen = gc.get_freeze_count(); code = main(); print(code, gc.get_freeze_count() > frozen, "
            "file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, triple_file], env=program_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.stdout.startswith("gamma = 0.785398163397")
    assert proc.stderr == "0 True\n"


def test_norm_gate_and_renormalize_flag(tmp_path, capsys):
    obj = quarter_turn_triple()
    obj["psi1"] = {"dim": 2, "amplitudes": [[0.7072, 0.0], [0.7072, 0.0]]}  # off by ~1e-4
    path = write_json(tmp_path / "t.json", obj)
    code, _, err = run_cli(["phase", path], capsys)
    assert code == 1 and "--renormalize" in err
    code, out, _ = run_cli(["phase", path, "--renormalize", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["gamma"] == pytest.approx(math.pi / 4, abs=1e-9)


def test_majorana_points_and_roundtrip(tmp_path, capsys):
    s = 1 / SQRT2
    state_path = write_json(tmp_path / "s.json", state_obj([s + 0j, 0j, s + 0j]))
    code, out, _ = run_cli(["majorana", state_path, "--json"], capsys)
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
    state_path = write_json(tmp_path / "s.json", state_obj([1 + 0j, 0j, 0j]))
    code, out, _ = run_cli(["majorana", state_path, "--json"], capsys)
    assert code == 0
    assert json.loads(out)["points"] == [[0.0, 0.0], [0.0, 0.0]]


def complex_array(rows):
    """A JSON list of [re, im] pairs, or of rows of them, as a complex array."""
    pairs = np.array(rows, dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


@pytest.mark.parametrize("dim", [2, 3, 5, 13, 64, 100])
def test_canonicalize_json_passes_verification(tmp_path, capsys, dim):
    triple = haar_triple(17, dim)
    path = write_json(tmp_path / "t.json", triple)
    code, out, _ = run_cli(["canonicalize", path, "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["gram_delta"] < 1e-9
    assert payload["verification"]["overlap_delta"] < 1e-10
    assert payload["verification"]["phase_delta"] < 1e-9
    assert not payload["degenerate_frame"]
    # U = I + W (R - I) W^dagger from the printed factors alone
    w, r = complex_array(payload["span"]), complex_array(payload["rotation"])
    k = min(dim, 4)
    assert w.shape == (dim, k) and r.shape == (k, k)
    u = np.eye(dim) + w @ (r - np.eye(k)) @ w.conj().T
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-9
    for key in ("psi1", "psi2", "psi3"):
        phi = complex_array(triple[key]["amplitudes"])
        psi = complex_array(payload["transformed"][key]["amplitudes"])
        assert np.max(np.abs(u @ phi - psi)) <= 1e-9  # C4's tolerance


def test_canonicalize_json_at_the_dim_cap_stays_small(tmp_path, capsys):
    # N x k factors, not the N x N unitary (74.7 MB of JSON at this dim)
    for seed in (17, 1030):
        path = write_json(tmp_path / "t.json", haar_triple(seed, MAX_POWER + 1))
        code, out, _ = run_cli(["canonicalize", path, "--json"], capsys)
        assert code == 0
        assert len(out.encode()) < 1_000_000


def test_canonicalize_parallel_inputs_note(tmp_path, capsys):
    rng = np.random.default_rng(23)
    vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    vec /= np.linalg.norm(vec)
    obj = {
        "psi1": state_obj(list((lambda w: w / np.linalg.norm(w))(rng.standard_normal(3) + 0j))),
        "psi2": state_obj(list(vec)),
        "psi3": state_obj(list(np.exp(0.4j) * vec)),
    }
    path = write_json(tmp_path / "t.json", obj)
    code, out, _ = run_cli(["canonicalize", path, "--json"], capsys)
    assert code == 0
    assert json.loads(out)["degenerate_frame"] is True
    code, out, _ = run_cli(["canonicalize", path], capsys)
    assert code == 0
    assert out.splitlines()[1] == "note: psi2 and psi3 are parallel (1 - |<psi2|psi3>| < 1e-12)"


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
    path = write_json(tmp_path / "t.json", haar_triple(31, 3))

    def gamma_for(grid, mode):
        code, out, _ = run_cli(
            ["eraser", path, "--grid", str(grid), "--mode", mode, "--json"], capsys)
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
    path = write_json(tmp_path / "t.json", {f"psi{k + 1}": state_obj(list(s.amplitudes))
                                            for k, s in enumerate(states)})

    def eraser(mode, *flags):
        scan = tmp_path / f"{mode}.csv"
        code, out, _ = run_cli(["eraser", path, "--grid", "64", "--mode", mode,
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


@pytest.mark.parametrize("mode, scan_csv, samples", [
    ("closed_form", False, 0), ("both", False, 0), ("closed_form", True, 1), ("both", True, 1),
    ("grid_argmax", False, 2), ("grid_argmax", True, 2),
])
def test_eraser_samples_only_what_it_prints_or_writes(tmp_path, triple_file, capsys, monkeypatch,
                                                      mode, scan_csv, samples):
    # each sampled fringe builds its two-path composite once
    calls = []

    def counted(psi1, psi2):
        calls.append(psi1)
        return composite_intermediate(psi1, psi2)

    monkeypatch.setattr("triphase.eraser.composite_intermediate", counted)
    flags = ["--scan-csv", str(tmp_path / "scan.csv")] if scan_csv else []
    assert run_cli(["eraser", triple_file, "--mode", mode, *flags], capsys)[0] == 0
    assert len(calls) == samples


def test_eraser_repeated_state(tmp_path, capsys):
    obj = quarter_turn_triple()
    obj["psi2"] = obj["psi1"]
    obj["psi3"] = obj["psi1"]
    path = write_json(tmp_path / "t.json", obj)
    code, out, _ = run_cli(["eraser", path, "--grid", "64", "--json"], capsys)
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
    # a theta too steep for the grid is no usage error: the sweep keeps the
    # requested 64 intervals, and the sidecar's winding is 4pi at 12 digits
    for phi in ("0.2", "0.785"):
        code, out, _ = run_cli(["sweep", "--theta", "1e-7", "--phi", phi,
                                "--steps", "64", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 0 and out.startswith("wrote 65 rows")
        assert len((tmp_path / "x.csv").read_text().splitlines()) == 66
        assert json.loads((tmp_path / "x.json").read_text())["winding"] == float(format(4 * math.pi, ".12g"))


def test_sweep_exits_2_only_under_the_vanishing_rule(tmp_path, capsys):
    # theta = 1e-12 puts gamma1's pole on a sample, where <point|q3> = 5e-13
    out = str(tmp_path / "x.csv")
    code, stdout, err = run_cli(["sweep", "--theta", "1e-12", "--phi", repr(math.pi / 4),
                                 "--steps", "1024", "--out", out], capsys)
    assert code == 2 and stdout == "" and err.startswith("error: undefined phase: ")
    assert "<point|q3> has modulus 5e-13" in err
    code, _, _ = run_cli(["sweep", "--theta", "1e-12", "--phi", "1", "--steps", "1024", "--out", out], capsys)
    assert code == 0
    # theta = 3e-12 clears 2 asin(1e-12 + 1e-14), the orbit floor less its
    # margin, so the cross-check skips its vanishing scan: a header and 1025 rows
    code, _, _ = run_cli(["sweep", "--theta", "3e-12", "--phi", "0.785", "--steps", "1024", "--out", out], capsys)
    assert code == 0 and len((tmp_path / "x.csv").read_text().splitlines()) == 1026
    # within about 1e-12 of |theta| = pi/2, <q3|q2> = cos theta vanishes at every phi
    for sign in ("", "-"):
        rest = ["--phi", "0.7", "--steps", "64", "--out", out]
        code, stdout, err = run_cli(["sweep", f"--theta={sign}1.5707963267947966", *rest], capsys)
        assert (code, stdout) == (2, "")
        assert err == "error: undefined phase: <q3|q2> has modulus 1e-13, not above 1e-12\n"
        code, _, _ = run_cli(["sweep", f"--theta={sign}1.5707963267848966", *rest], capsys)
        assert code == 0


def test_sweep_exit_2_names_the_global_sample(tmp_path, capsys):
    # 32768 steps put the pole alpha = 3pi/4 at sample 12288, in the fourth
    # block of 4096 samples: stderr names that sample, not 12288 - 3 x 4096
    code, stdout, err = run_cli(["sweep", "--theta", "1e-12", "--phi", repr(math.pi / 4),
                                 "--steps", "32768", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2 and stdout == "" and not (tmp_path / "x.csv").exists()
    assert err == "error: undefined phase: component 12288, 1: <point|q3> has modulus 5e-13, not above 1e-12\n"


def test_negative_exponent_value_is_a_number(tmp_path, capsys):
    # argparse's own negative-number pattern takes "-1e-07" for a flag, which
    # exits 1 with "expected one argument"
    out = str(tmp_path / "x.csv")
    rest = ["--phi", "0.2", "--steps", "64", "--out", out]
    spaced = run_cli(["sweep", "--theta", "-1e-07", *rest], capsys)
    joined = run_cli(["sweep", "--theta=-1e-07", *rest], capsys)
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1].startswith("wrote 65 rows") and spaced[2] == ""
    # the winding's sign is theta's: the value was read as -1e-07
    assert json.loads((tmp_path / "x.json").read_text())["winding"] == float(f"{-4 * math.pi:.12g}")
    code, _, _ = run_cli(["sweep", "--theta", "0.5", "--phi", "-1e-3", "--steps", "64", "--out", out], capsys)
    assert code == 0


def test_grid_caps_exit_1(tmp_path, triple_file, capsys):
    # validation only: both requests fail before any grid is allocated
    code, _, err = run_cli(["sweep", "--theta", "0.5", "--phi", "0.2",
                            "--steps", str(MAX_GRID + 1),
                            "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1 and "steps" in err
    assert not (tmp_path / "x.csv").exists()
    code, _, err = run_cli(["eraser", triple_file, "--grid", str(MAX_GRID + 1)], capsys)
    assert code == 1 and "grid_size" in err


def test_constellation_cap_exits_1(tmp_path, capsys):
    # validation only: a state one dim past the cap, and MAX_DIM points
    state = write_json(tmp_path / "state.json", state_obj([1.0 + 0j] + [0j] * MAX_DIM))
    code, out, err = run_cli(["majorana", state], capsys)
    assert code == 1 and out == "" and "MAX_DIM" in err and "Traceback" not in err
    points = write_json(tmp_path / "points.json", {"points": [[0.5, 1.0]] * MAX_DIM})
    code, out, err = run_cli(["majorana", "--from-points", points], capsys)
    assert code == 1 and out == "" and "MAX_DIM" in err and "Traceback" not in err


def test_canonicalize_power_cap_exits_1(tmp_path, capsys):
    # validation only: one dim past the cap fails before any tensor power is built
    dim = MAX_POWER + 2
    basis = [[1.0 + 0j if k == i else 0j for k in range(dim)] for i in range(3)]
    triple = write_json(tmp_path / "triple.json",
                        {f"psi{i + 1}": state_obj(v) for i, v in enumerate(basis)})
    code, out, err = run_cli(["canonicalize", triple], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: dim must be at most MAX_POWER + 1 = {MAX_POWER + 1}, got {dim}\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("command", ["phase", "canonicalize", "eraser"])
def test_non_finite_amplitude_exits_1(tmp_path, capsys, command, bad):
    obj = quarter_turn_triple()
    obj["psi2"]["amplitudes"][0][1] = bad  # written as a bare NaN / Infinity token
    path = write_json(tmp_path / "t.json", obj)
    # even the lax --renormalize norm gate must reject it
    code, out, err = run_cli([command, path, "--json", "--renormalize"], capsys)
    assert code == 1
    assert out == "" and "norm" in err and "Traceback" not in err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["phase", "eraser"])
def test_bad_tolerance_exits_1(tmp_path, capsys, command, tolerance):
    obj = quarter_turn_triple()
    obj["psi1"] = state_obj([1 + 0j, 0j])
    obj["psi2"] = state_obj([0j, 1 + 0j])  # orthogonal: no phase, no reference fringe
    path = write_json(tmp_path / "t.json", obj)
    code, out, err = run_cli([command, path, "--json", "--tolerance", tolerance], capsys)
    assert code == 1
    assert out == "" and "--tolerance" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag", [
    ("sweep", "--tolerance=0.5"),
    ("sweep", "--renormalize"),
    ("majorana", "--tolerance=0.5"),
    ("canonicalize", "--degrees"),
])
def test_flag_the_command_does_not_read_exits_1(tmp_path, triple_file, capsys, command, flag):
    state = write_json(tmp_path / "s.json", quarter_turn_triple()["psi1"])
    out_csv = tmp_path / "x.csv"
    argv = {
        "sweep": ["sweep", "--theta", "0.5", "--phi", "0.2", "--steps", "64", "--out", str(out_csv)],
        "majorana": ["majorana", state],
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


def test_sweep_json_reports_the_pipeline_gap(tmp_path, capsys):
    # only --json gains the cross-check's gap: the CSV, the sidecar and the
    # text output carry no diagnostics
    args = ["sweep", "--theta", "0.02", "--phi", "0.785", "--steps", "256"]
    code, text, _ = run_cli([*args, "--out", str(tmp_path / "text.csv")], capsys)
    assert code == 0 and "pipeline_gap" not in text and "diagnostics" not in text
    # theta = 0.02 keeps the requested 256 intervals, and the loci are the
    # tangent poles pi -+ phi at 12 digits
    assert len((tmp_path / "text.csv").read_text().splitlines()) == 258
    loci = json.loads((tmp_path / "text.json").read_text())["singular_alphas"]
    assert loci == [float(format(math.pi + sign * 0.785, ".12g")) for sign in (-1, 1)]
    code, out, _ = run_cli([*args, "--out", str(tmp_path / "json.csv"), "--json"], capsys)
    assert code == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"json{suffix}").read_bytes() == (tmp_path / f"text{suffix}").read_bytes()
    payload = json.loads(out)
    assert list(payload) == ["out", "sidecar", "rows", "winding", "singular_alphas", "diagnostics"]
    assert payload["diagnostics"] == {"pipeline_gap": float(format(sweep_alpha(0.02, 0.785, 256).pipeline_gap, ".12g"))}
    assert 0.0 <= payload["diagnostics"]["pipeline_gap"] < 1e-8


def test_json_writer_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        _json_text({"gamma": math.nan})
    with pytest.raises(TypeError):  # json.dumps rejects a type JSON has no form for
        _json_text({"flag": np.bool_(True)})
    assert _json_text({"gamma": 0.5}) == '{\n  "gamma": 0.5\n}\n'


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
    good = write_json(tmp_path / "ok.json", {"points": [[math.pi / 2, 1.0], [0.3, 4.0]]})
    code, out, _ = run_cli(["majorana", "--from-points", good, "--json"], capsys)
    assert code == 0
    vec = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
    want = points_to_state([BlochPoint(math.pi / 2, 1.0), BlochPoint(0.3, 4.0)])
    assert abs(inner_product(PureState.normalized(vec), want)) >= 1.0 - 1e-9


@pytest.mark.parametrize("command", ["phase", "eraser", "canonicalize", "majorana", "from-points"])
def test_integer_beyond_float_range_exits_1(tmp_path, capsys, command):
    if command == "from-points":
        path = write_json(tmp_path / "p.json", {"points": [[BEYOND_FLOAT, 0.0]]})
        argv, message = ["majorana", "--from-points", path], f"{path}: point 0: "
    else:
        state = {"dim": 2, "amplitudes": [[BEYOND_FLOAT, 0.0], [0.0, 0.0]]}
        if command == "majorana":
            path = label = write_json(tmp_path / "s.json", state)
        else:
            obj = quarter_turn_triple()
            obj["psi2"] = state
            path = write_json(tmp_path / "t.json", obj)
            label = f"{path}:psi2"
        argv = [command, path]
        message = f"{label}: amplitudes must be [re, im] number pairs\n"
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and "Traceback" not in err


# each of these unpacks as two items that float() takes, but no item is a
# JSON number: digit strings, an object (its keys), bools
NOT_NUMBER_PAIRS = [["10", "00"], {"1": 0, "0": 0}, [True, False], ["1", 0.0]]


@pytest.mark.parametrize("pair", NOT_NUMBER_PAIRS + [[1.0], [1.0, 0.0, 0.0], 1.0, "10"])
@pytest.mark.parametrize("command", ["phase", "majorana"])
def test_amplitude_must_be_an_array_of_two_numbers(tmp_path, capsys, command, pair):
    state = {"dim": 2, "amplitudes": [pair, [0.0, 0.0]]}
    if command == "majorana":
        path = label = write_json(tmp_path / "s.json", state)
    else:
        obj = quarter_turn_triple()
        obj["psi2"] = state
        path = write_json(tmp_path / "t.json", obj)
        label = f"{path}:psi2"
    code, out, err = run_cli([command, path], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {label}: amplitudes must be [re, im] number pairs\n"


@pytest.mark.parametrize("pair", NOT_NUMBER_PAIRS + ["12", [1.0, 0.0, 0.0], 1.0])
def test_point_must_be_an_array_of_two_numbers(tmp_path, capsys, pair):
    path = write_json(tmp_path / "p.json", {"points": [[0.5, 1.0], pair]})
    code, out, err = run_cli(["majorana", "--from-points", path], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {path}: point 1: expected a pair of numbers\n"


@pytest.mark.parametrize("extra", ["STATE", "--degrees", "--renormalize"])
def test_majorana_from_points_refuses_inputs_it_never_reads(tmp_path, capsys, extra):
    state = write_json(tmp_path / "s3.json", state_obj([0.6 + 0j, 0j, 0.8 + 0j]))
    points = write_json(tmp_path / "p1.json", {"points": [[0.5, 1.0]]})
    argv = ["majorana", "--from-points", points, state if extra == "STATE" else extra]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == ("error: --from-points reads only the points file; "
                   "it takes no state file, --degrees or --renormalize\n")
    # --json is the one flag this mode reads
    code, out, _ = run_cli(["majorana", "--from-points", points, "--json"], capsys)
    assert code == 0 and json.loads(out)["dim"] == 2
