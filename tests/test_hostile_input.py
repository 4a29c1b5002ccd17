"""Hostile input files: every command exits 0, 1 or 2, never with a traceback."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import BEYOND_FLOAT, canonical_bounds
from triphase import PureState
from triphase.cli import main
from triphase.majorana import MAX_DIM

NUMBERS = st.one_of(
    st.floats(),  # NaN and +-Infinity literals, huge, tiny and subnormal values
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([BEYOND_FLOAT, -BEYOND_FLOAT]),
)
VALUES = st.one_of(NUMBERS, st.none(), st.booleans(), st.text(max_size=3), st.lists(NUMBERS, max_size=3))


def state_obj(vec) -> dict:
    return {"dim": len(vec), "amplitudes": [[float(z.real), float(z.imag)] for z in vec]}


def triple_vectors(seed: int, dim: int, geometry: str, eps: float) -> list[np.ndarray]:
    """Seeded unit vectors: three Haar states, or psi3 within eps of psi2, or
    psi2 within eps of orthogonal to psi1."""
    rng = np.random.default_rng(seed)
    psi1, psi2, noise = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
    psi1 /= np.linalg.norm(psi1)
    if geometry == "near_orthogonal":
        psi2 = psi2 - np.vdot(psi1, psi2) * psi1 + eps * psi1
    psi2 /= np.linalg.norm(psi2)
    psi3 = psi2 + eps * noise if geometry == "near_parallel" else noise
    return [psi1, psi2, psi3 / np.linalg.norm(psi3)]


def corrupt(draw, doc, keys):
    """Replace one part of doc, a state or a triple whose states sit under
    keys (None: doc is the state), by a hostile value; or leave doc intact."""
    where = draw(st.sampled_from(["intact"] * 6 + ["number", "pair", "length", "dim", "state", "file"]))
    if where == "file":
        return draw(VALUES)
    key = draw(st.sampled_from(keys))
    state = doc if key is None else doc[key]
    amplitudes = state["amplitudes"]
    if where == "number":
        amplitudes[draw(st.integers(0, len(amplitudes) - 1))][draw(st.integers(0, 1))] = draw(VALUES)
    elif where == "pair":
        amplitudes[draw(st.integers(0, len(amplitudes) - 1))] = draw(VALUES)
    elif where == "length":
        amplitudes.pop()
    elif where == "dim":
        state["dim"] = draw(VALUES)
    elif where == "state":
        return draw(VALUES) if key is None else {**doc, key: draw(VALUES)}
    return doc


def sweep_case(draw):
    theta = draw(st.one_of(
        st.floats(0.05, 1.5), st.floats(-1.5, -0.05),  # grids of at most 1024 intervals
        # 0, pi/2, nan, inf and 1e300 exit 1 at once; 1e-300 and -1e-7 sweep
        # the requested grid, exiting 2 where a sample meets the vanishing
        # rule; +-(pi/2 - 1e-13) exit 2, as <q3|q2> = cos theta vanishes
        st.sampled_from([0.0, 1e-300, -1e-7, math.pi / 2, math.nan, math.inf, 1e300,
                         math.pi / 2 - 1e-13, 1e-13 - math.pi / 2]),
    ))
    steps = draw(st.one_of(st.integers(-2, 1024), st.sampled_from([2 ** 20 + 1, 10 ** 30])))
    phi = draw(st.one_of(st.floats(-10, 10), st.floats()))
    argv = ["sweep", "--theta", repr(theta), "--phi", repr(phi),
            "--steps", str(steps), "--out", "sweep.csv"]
    return argv + draw(st.sampled_from([[], [], ["--degrees"], ["--renormalize"]])), {}


def points_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(1, MAX_DIM))  # MAX_DIM points is one past the cap
    points = [[math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)] for _ in range(count)]
    if draw(st.booleans()):
        points = [list(points[0]) for _ in range(count)]  # coincident points
    where = draw(st.sampled_from(["intact"] * 3 + ["coordinate", "point", "file"]))
    doc = {"points": points}
    if where == "coordinate":
        points[draw(st.integers(0, count - 1))][draw(st.integers(0, 1))] = draw(VALUES)
    elif where == "point":
        points[draw(st.integers(0, count - 1))] = draw(VALUES)
    elif where == "file":
        doc = draw(VALUES)
    extra = draw(st.sampled_from([[]] * 3 + [["state.json"], ["--degrees"], ["--renormalize"]]))
    files = {"points.json": doc, "state.json": {"dim": 2, "amplitudes": [[1, 0], [0, 0]]}}
    return ["majorana", "--from-points", "points.json", *extra], files


def state_case(draw, command):
    dim = draw(st.integers(2, MAX_DIM))
    eps = 10.0 ** draw(st.floats(-17, -3))
    geometry = draw(st.sampled_from(["haar", "near_parallel", "near_orthogonal"]))
    vecs = triple_vectors(draw(st.integers(0, 2 ** 32 - 1)), dim, geometry, eps)
    scale = draw(st.sampled_from([1.0] * 3 + [1.0 + 1e-4, 1e-300, 1e300]))
    triple = {f"psi{k + 1}": state_obj(v * scale) for k, v in enumerate(vecs)}
    flags = draw(st.sampled_from([[], [], ["--renormalize"], ["--degrees"]]))
    if command == "majorana":
        return ["majorana", "in.json", *flags], {"in.json": corrupt(draw, triple["psi1"], [None])}
    tolerance = draw(st.sampled_from([None] * 3 + ["0", "1e-300", "0.5", "1", "nan", "-1"]))
    flags += [] if tolerance is None else ["--tolerance", tolerance]
    if command == "eraser":
        flags += ["--grid", str(draw(st.sampled_from([16, 256, 4096]))),
                  "--mode", draw(st.sampled_from(["closed_form", "grid_argmax", "both"]))]
    return [command, "in.json", *flags], {"in.json": corrupt(draw, triple, ["psi1", "psi2", "psi3"])}


@st.composite
def hostile_cases(draw):
    """(argv, files): a command line naming files by key, and each file's
    JSON document (or raw text)."""
    command = draw(st.sampled_from(["phase", "canonicalize", "eraser", "majorana", "from-points", "sweep"]))
    if command == "sweep":
        argv, files = sweep_case(draw)
    elif command == "from-points":
        argv, files = points_case(draw)
    else:
        argv, files = state_case(draw, command)
    return argv + ["--json"] * draw(st.booleans()), files


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in JSON output")
    return value


def _no_constant(name: str):
    raise ValueError(f"non-finite literal {name} in JSON output")


KET0 = {"dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
KET1 = {"dim": 2, "amplitudes": [[0.0, 0.0], [1.0, 0.0]]}
# 1 - |<psi2|psi3>| = 2.9e-12, just above the parallel-frame tolerance
NEAR_PARALLEL = triple_vectors(6, 3, "near_parallel", 1e-6)


@settings(max_examples=400, deadline=None)
@given(case=hostile_cases())
@example(case=(["phase", "in.json", "--json"],
               {"in.json": {"psi1": KET0, "psi2": {"dim": 2, "amplitudes": [[BEYOND_FLOAT, 0], [0, 0]]},
                            "psi3": KET0}}))
@example(case=(["majorana", "--from-points", "points.json"], {"points.json": {"points": [[BEYOND_FLOAT, 0]]}}))
@example(case=(["eraser", "in.json", "--renormalize"],
               {"in.json": {"psi1": {"dim": 2, "amplitudes": [[1e200, 0], [1e200, 0]]},
                            "psi2": KET0, "psi3": KET1}}))
@example(case=(["phase", "in.json"], {"in.json": "[" * 100_000 + "]" * 100_000}))
def test_hostile_input_exits_0_1_or_2(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / name) for name in [*files, "sweep.csv"]}
        for name, doc in files.items():
            text = doc if isinstance(doc, str) else json.dumps(doc)
            Path(paths[name]).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2), (code, err.getvalue())
    if code == 0 and "--json" in argv:
        json.loads(out.getvalue(), parse_float=_finite, parse_constant=_no_constant)


def test_near_parallel_canonicalize_exits_0_within_conditioning_bound(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({f"psi{k + 1}": state_obj(v) for k, v in enumerate(NEAR_PARALLEL)}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["canonicalize", str(path), "--json"])
    assert code == 0
    check = json.loads(out.getvalue())["verification"]
    gram_bound, phase_bound = canonical_bounds(*(PureState.normalized(v) for v in NEAR_PARALLEL))
    assert check["gram_delta"] <= gram_bound and check["phase_delta"] <= phase_bound, check
