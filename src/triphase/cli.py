"""Command-line interface: states and triples in as JSON, phases, point
constellations, canonical form, eraser fringes, and family sweeps out.

Exit codes: 0 success, 1 I/O / parse / usage error, 2 mathematically
undefined request (an overlap the result is computed from has modulus at
most --tolerance, or for sweep at most 1e-12). Every exit-1 error is a
ValueError, raised by the CLI or by the library; an UndefinedPhaseError,
itself a ValueError, exits 2. Emitted angles are radians (--degrees
changes human output only, never JSON or files), each on one range: polar
angles on [0, pi]; azimuths, singular_alphas and eraser scan deltas on
[0, 2pi); phases, eraser landmarks and overlap args on (-pi, pi], except
the sweep's unwrapped series and winding; sweep alphas on the closed
[0, 2pi]. Floats are formatted with 12 significant digits and lowercase
exponents, lines end with \\n, so repeated invocations are byte-identical.

Each command returns its JSON object, its text lines and its output files
(path -> text, in write order), and writes nothing itself but eraser's
grid-readout warning, to stderr. main writes the files, then the JSON
(--json) or the lines to stdout. A failing command writes only its error,
to stderr, and leaves no output file: main removes any it had started.
Every printed byte, usage lines and help included, goes through one
writer, _write, which writes and flushes. A failed stdout write is such a
failure, exit 1; a failed stderr write raises its OSError out of main,
exit 1 too. A descriptor closed when the program starts leaves its stream
None, and each write to it fails with EBADF: with descriptor 1 closed,
output exits 1 with `error: cannot write stdout: ...` and an error keeps
its exit code; with descriptor 2 closed, a run that writes stderr (an
error, a usage line, eraser's warning) exits 1 with stdout empty.

main() without argv is the program, python -m triphase or the triphase
script: it flushes both open streams, points a failed one at os.devnull, and
calls gc.freeze(), so teardown neither retries the write nor collects the
~21k objects numpy and triphase leave alive. main(argv) leaves the caller's
descriptors and collector alone. Per process, p10 of 60 interleaved rounds
in two series (shared 2-vCPU x86-64 VM, Python 3.11.7, numpy 2.4.6): start
38 ms, numpy import 62-66, triphase import 25-31, phase at dim 5 about 3,
teardown 21-23 ms before gc.freeze and 5 after.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import json
import os
import re
import sys

import numpy as np

from .angles import MAX_GRID, TWO_PI, principal_phase, wrap_angle
from .eraser import MIN_GRID, EraserConfig, FringeScan, _landmarks, fringe_pair, fringe_scan
from .majorana import points_to_state, state_to_points
from .phases import (_PARALLEL_TOL, EPS_NULL, UndefinedPhaseError, bargmann_phases, canonicalize_triple,
                     three_vertex_phase)
from .states import NORM_TOL, BlochPoint, PureState, inner_product, vector_norm
from .sweep import _MIN_STEPS, SweepResult, sweep_alpha

EXIT_OK = 0
EXIT_IO = 1
EXIT_UNDEFINED = 2

MAJORANA_CONVENTION = (
    "p(z) = sum_k (-1)^k sqrt(C(n,k)) c_k z^(n-k); "
    "z = e^{i azimuth} tan(polar/2); deficient leading coefficients -> (pi, 0)"
)

_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

_DEG = 180.0 / np.pi


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern (Python 3.10-3.13) takes -1 and -1.5 for
        # numbers but -1e-07 for a flag, leaving `--theta -1e-07` without a value
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits with 2 on usage errors; 2 is reserved for undefined math
    def error(self, message):
        _write(sys.stderr, self.format_usage())
        raise ValueError(message)

    def print_help(self, file=None):  # argparse's own drops a failed write and exits 0
        _write_stdout(self.format_help())


def _write(stream, text: str) -> None:
    if stream is None:  # the program started with this descriptor closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    stream.write(text)
    stream.flush()


def _write_stdout(text: str) -> None:
    try:
        _write(sys.stdout, text)
    except OSError as exc:  # a full disk, a closed pipe or descriptor
        raise ValueError(f"cannot write stdout: {exc}") from None


def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # collapse -0.0 for stable bytes
    return format(x, ".12g")


def _clean(obj):
    """Round floats to the 12-significant-digit wire precision, recursively.
    Anything else is left to json.dumps, which raises TypeError on a non-JSON type."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    # NaN or inf would be invalid JSON: fail with ValueError (exit 1) instead
    return json.dumps(_clean(obj), indent=2, allow_nan=False) + "\n"


def _angle_text(x: float, degrees: bool) -> str:
    return f"{_fmt(x * _DEG)} deg" if degrees else _fmt(x)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    # a JSONDecodeError, a byte that is not UTF-8 and an integer past
    # Python's digit limit are all ValueErrors; json recurses per nesting level
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _number_pair(item) -> tuple[float, float]:
    """The floats of a JSON array of exactly two numbers. A string, an object
    or a bool is no number, though Python would unpack or convert it."""
    if not (isinstance(item, list) and len(item) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in item)):
        raise TypeError("expected a pair of numbers")
    return float(item[0]), float(item[1])  # float(10**400) overflows


def _parse_state(obj, *, renormalize: bool, label: str) -> PureState:
    if not isinstance(obj, dict) or "dim" not in obj or "amplitudes" not in obj:
        raise ValueError(f"{label}: expected an object with 'dim' and 'amplitudes'")
    dim = obj["dim"]
    pairs = obj["amplitudes"]
    if not isinstance(dim, int) or dim < 2:
        raise ValueError(f"{label}: dim must be an integer >= 2")
    if not isinstance(pairs, list) or len(pairs) != dim:
        raise ValueError(f"{label}: expected {dim} amplitude pairs")
    try:
        vec = np.array([complex(*_number_pair(pair)) for pair in pairs])
    except (TypeError, OverflowError):
        raise ValueError(f"{label}: amplitudes must be [re, im] number pairs") from None
    with np.errstate(over="ignore"):  # a huge amplitude gives norm inf, rejected below
        norm = vector_norm(vec)
    tol = 1e-3 if renormalize else NORM_TOL
    if not abs(norm - 1.0) <= tol:  # also rejects NaN and inf
        hint = "" if renormalize else "; pass --renormalize to accept up to 1e-3"
        raise ValueError(f"{label}: norm is {norm:.9g}, not 1 within {tol:g}{hint}")
    return PureState.normalized(vec)


def _load_triple(path: str, renormalize: bool) -> tuple[PureState, PureState, PureState]:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object with psi1, psi2, psi3")
    states = []
    for key in ("psi1", "psi2", "psi3"):
        if key not in obj:
            raise ValueError(f"{path}: missing entry '{key}'")
        states.append(_parse_state(obj[key], renormalize=renormalize, label=f"{path}:{key}"))
    if not (states[0].dim == states[1].dim == states[2].dim):
        dims = ", ".join(str(s.dim) for s in states)
        raise ValueError(f"{path}: states must share one dimension, got {dims}")
    return tuple(states)


def _pairs(vec: np.ndarray) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in vec]


def _state_obj(s: PureState) -> dict:
    return {"dim": s.dim, "amplitudes": _pairs(s.amplitudes)}


def cmd_phase(args) -> tuple[dict, list[str], dict[str, str]]:
    psi1, psi2, psi3 = _load_triple(args.triple, args.renormalize)
    o13, o32, o21 = inner_product(psi1, psi3), inner_product(psi3, psi2), inner_product(psi2, psi1)
    gamma = bargmann_phases(o13, o32, o21, eps_null=args.tolerance)
    b = o13 * o32 * o21  # the cyclic product, from the overlaps printed below
    overlaps = {
        name: {"abs": abs(v), "arg": principal_phase(v)}
        for name, v in (("psi1_psi3", o13), ("psi3_psi2", o32), ("psi2_psi1", o21))
    }
    lines = [f"gamma = {_angle_text(gamma, args.degrees)}", f"|bargmann| = {_fmt(abs(b))}"]
    for name, entry in overlaps.items():
        lines.append(f"|<{name.replace('_', '|')}>| = {_fmt(entry['abs'])}  "
                     f"arg = {_angle_text(entry['arg'], args.degrees)}")
    return {"gamma": gamma, "bargmann_abs": abs(b), "overlaps": overlaps}, lines, {}


def _parse_points(path: str) -> tuple[BlochPoint, ...]:
    obj = _load_json(path)
    pts = obj.get("points") if isinstance(obj, dict) else None
    if not isinstance(pts, list) or not pts:
        raise ValueError(f"{path}: expected an object with a nonempty 'points' list")
    points = []
    for i, pair in enumerate(pts):
        try:
            points.append(BlochPoint(*_number_pair(pair)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: point {i}: {exc}") from None
    return tuple(points)


def cmd_majorana(args) -> tuple[dict, list[str], dict[str, str]]:
    if args.from_points:
        if args.state or args.degrees or args.renormalize:
            raise ValueError("--from-points reads only the points file; "
                             "it takes no state file, --degrees or --renormalize")
        state = points_to_state(_parse_points(args.from_points))
        return _state_obj(state), [f"dim = {state.dim}"] + [
            f"amplitude {k}: {_fmt(a.real)} {_fmt(a.imag)}" for k, a in enumerate(state.amplitudes)], {}
    if not args.state:
        raise ValueError("majorana needs a state file or --from-points")
    state = _parse_state(_load_json(args.state), renormalize=args.renormalize, label=args.state)
    points = state_to_points(state)
    payload = {
        "dim": state.dim,
        "convention": MAJORANA_CONVENTION,
        "points": [[p.polar, p.azimuth] for p in points],
    }
    return payload, [f"dim = {state.dim}", f"convention: {MAJORANA_CONVENTION}"] + [
        f"point {i}: polar = {_angle_text(p.polar, args.degrees)}  "
        f"azimuth = {_angle_text(p.azimuth, args.degrees)}" for i, p in enumerate(points)], {}


def cmd_canonicalize(args) -> tuple[dict, list[str], dict[str, str]]:
    phi1, phi2, phi3 = _load_triple(args.triple, args.renormalize)
    result = canonicalize_triple(phi1, phi2, phi3)
    trans2, trans3 = result.psi2(), result.psi3()
    originals = (phi1, phi2, phi3)
    transformed = (result.psi1, trans2, trans3)
    gram_delta = max(
        abs(abs(inner_product(transformed[i], transformed[j]))
            - abs(inner_product(originals[i], originals[j])))
        for i in range(3) for j in range(i + 1, 3)
    )
    overlap_delta = abs(inner_product(trans2, trans3) - inner_product(phi2, phi3))
    try:
        phase_delta = float(abs(wrap_angle(
            three_vertex_phase(*transformed, eps_null=args.tolerance)
            - three_vertex_phase(*originals, eps_null=args.tolerance)
        )))
    except UndefinedPhaseError:
        phase_delta = None
    payload = {
        "dim": result.dim,
        "degenerate_frame": result.degenerate_frame,
        "psi2_qubit": _pairs(result.psi2_qubit.amplitudes),
        "psi3_qubit": _pairs(result.psi3_qubit.amplitudes),
        "transformed": {
            "psi1": _state_obj(result.psi1),
            "psi2": _state_obj(trans2),
            "psi3": _state_obj(trans3),
        },
        # U = I + W (R - I) W^dagger, as its factors W (N x k) and R (k x k)
        "span": [_pairs(row) for row in result.span],
        "rotation": [_pairs(row) for row in result.rotation],
        "verification": {"gram_delta": float(gram_delta), "overlap_delta": float(overlap_delta),
                         "phase_delta": phase_delta},
    }
    lines = [f"dim = {result.dim}"]
    if result.degenerate_frame:
        lines.append(f"note: psi2 and psi3 are parallel (1 - |<psi2|psi3>| < {_PARALLEL_TOL:g})")
    for name, q in (("psi2_qubit", result.psi2_qubit), ("psi3_qubit", result.psi3_qubit)):
        a, b = q.amplitudes
        lines.append(f"{name}: [{_fmt(a.real)} {_fmt(a.imag)}] [{_fmt(b.real)} {_fmt(b.imag)}]")
    lines += [
        f"gram_delta = {_fmt(gram_delta)}",
        f"overlap_delta = {_fmt(overlap_delta)}",
        "phase_delta = " + ("n/a (undefined phase)" if phase_delta is None else _fmt(phase_delta)),
    ]
    return payload, lines, {}


def cmd_eraser(args) -> tuple[dict, list[str], dict[str, str]]:
    psi1, psi2, psi3 = _load_triple(args.triple, args.renormalize)
    cfg = EraserConfig(grid_size=args.grid)
    if args.mode == "grid_argmax":
        projected, plain = fringe_pair(psi1, psi2, psi3, cfg, eps_null=args.tolerance)
        delta_f, delta_m, vis = projected.peak, plain.peak, projected.visibility
        off = max(abs(wrap_angle(s.peak - s.center)) for s in (projected, plain))
        if off > TWO_PI / cfg.grid_size:  # a fringe too faint to resolve on this grid
            _write(sys.stderr, f"warning: a grid peak lies {off * cfg.grid_size / TWO_PI:.3g} grid steps "
                               "from its closed-form constructive point\n")
    else:  # "closed_form" and "both" report the scans' centers, read from the overlaps
        # without sampling, plain fringe first as in fringe_pair
        _, delta_m = _landmarks(psi1, psi2, None, args.tolerance)
        vis, delta_f = _landmarks(psi1, psi2, psi3, args.tolerance)
    gamma = float(wrap_angle(delta_f - delta_m))
    files = {}
    if args.scan_csv:
        if args.mode != "grid_argmax":  # these modes sample the projected scan only to write it
            projected = fringe_scan(psi1, psi2, psi3, cfg, eps_null=args.tolerance)
        files[args.scan_csv] = scan_csv(projected)
    payload = {
        "grid_size": cfg.grid_size,
        "mode": args.mode,
        "delta_f": float(delta_f),
        "delta_m": float(delta_m),
        "gamma": gamma,
        "visibility": float(vis),
    }
    lines = [f"delta_f = {_angle_text(payload['delta_f'], args.degrees)}",
             f"delta_m = {_angle_text(payload['delta_m'], args.degrees)}",
             f"gamma = {_angle_text(gamma, args.degrees)}", f"visibility = {_fmt(vis)}"]
    lines += [f"scan written to {path}" for path in files]
    return payload, lines, files


def _csv(header: str, *columns: np.ndarray) -> str:
    """CSV text: the header line, then one line of _fmt values per row."""
    cells = (map(_fmt, column.tolist()) for column in columns)
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def sweep_csv(result: SweepResult) -> str:
    """CSV text of a sweep: header plus one row per alpha sample."""
    return _csv("alpha,gamma1,gamma2,gamma_wrapped,gamma_unwrapped", result.alphas, result.gamma1,
                result.gamma2, result.gamma_wrapped, result.gamma_total)


def scan_csv(scan: FringeScan) -> str:
    """CSV text of a fringe scan: header plus one row per delta sample."""
    return _csv("delta,probability", scan.deltas, scan.probabilities)


def cmd_sweep(args) -> tuple[dict, list[str], dict[str, str]]:
    result = sweep_alpha(args.theta, args.phi, args.steps)
    sidecar = (args.out[:-4] if args.out.endswith(".csv") else args.out) + ".json"
    files = {args.out: sweep_csv(result),
             sidecar: _json_text({"singular_alphas": list(result.singular_alphas), "winding": result.winding})}
    payload = {
        "out": args.out,
        "sidecar": sidecar,
        "rows": int(result.alphas.size),
        "winding": result.winding,
        "singular_alphas": list(result.singular_alphas),
        "diagnostics": {"pipeline_gap": result.pipeline_gap},
    }
    alphas = (_angle_text(a, args.degrees) for a in result.singular_alphas)
    return payload, [
        f"wrote {result.alphas.size} rows to {args.out}",
        f"sidecar: {sidecar}",
        f"winding = {_angle_text(result.winding, args.degrees)}",
        "singular_alphas = " + " ".join(alphas),
    ], files


def _tolerance(text: str) -> float:
    # NaN, inf or a negative value would turn a vanishing overlap into a phase
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # each command takes only the common flags it reads; any other is a usage error
    common = {
        "--json": dict(action="store_true", help="emit machine-readable JSON on stdout"),
        "--tolerance": dict(type=_tolerance, default=EPS_NULL, help="a result is undefined (exit 2) when an "
                            f"overlap it is computed from has modulus at or below this (default {EPS_NULL:g})"),
        "--degrees": dict(action="store_true", help="display angles in degrees (human output only, never files)"),
        "--renormalize": dict(action="store_true", help="accept input states with norm off by up to 1e-3"),
    }
    max_grid = f"2^{MAX_GRID.bit_length() - 1}"  # MAX_GRID is a power of two

    parser = _Parser(prog="triphase",
                     description="Three-vertex geometric phases on the Bloch sphere")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, func, help, *flags) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **common[flag])
        p.set_defaults(func=func)
        return p

    p = command("phase", cmd_phase, "geometric phase of a state triple",
                "--json", "--tolerance", "--degrees", "--renormalize")
    p.add_argument("triple", help="triple JSON file (psi1, psi2, psi3)")

    p = command("majorana", cmd_majorana, "point constellation of a state, or its inverse",
                "--json", "--degrees", "--renormalize")
    p.add_argument("state", nargs="?", help="state JSON file")
    p.add_argument("--from-points", metavar="FILE",
                   help="reconstruct the state from a points JSON file instead")

    p = command("canonicalize", cmd_canonicalize, "reduce a triple to product-state form",
                "--json", "--tolerance", "--renormalize")
    p.add_argument("triple", help="triple JSON file")

    p = command("eraser", cmd_eraser, "interferometric phase readout of a triple",
                "--json", "--tolerance", "--degrees", "--renormalize")
    p.add_argument("triple", help="triple JSON file")
    p.add_argument("--grid", type=int, default=EraserConfig.grid_size,
                   help=f"number of delta samples, {MIN_GRID} to {max_grid} (default %(default)s)")
    p.add_argument("--mode", choices=("closed_form", "grid_argmax", "both"), default="both",
                   help="closed_form and both report the closed-form constructive points, "
                        "grid_argmax the refined peaks of the sampled fringes")
    p.add_argument("--scan-csv", metavar="PATH", help="also write the sampled fringe as CSV")

    p = command("sweep", cmd_sweep, "sweep the qutrit family phase over alpha", "--json", "--degrees")
    p.add_argument("--theta", type=float, required=True, help="half angle between the fixed states")
    p.add_argument("--phi", type=float, required=True, help="half angle between the moving points")
    p.add_argument("--steps", type=int, required=True,
                   help=f"number of alpha intervals, {_MIN_STEPS} to {max_grid}")
    p.add_argument("--out", required=True, help="output CSV path (sidecar JSON written next to it)")
    return parser


def main(argv=None) -> int:
    started = []  # the files this call opened, removed again if any step fails
    try:
        args = build_parser().parse_args(argv)
        payload, lines, files = args.func(args)
        text = _json_text(payload) if args.json else "".join(line + "\n" for line in lines)
        for path, body in files.items():
            try:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    started.append(path)
                    fh.write(body)
            except OSError as exc:
                raise ValueError(f"cannot write {path}: {exc}") from None
        _write_stdout(text)
        return EXIT_OK
    except ValueError as exc:  # UndefinedPhaseError is a ValueError too
        for path in started:
            with contextlib.suppress(OSError):
                os.remove(path)
        _write(sys.stderr, f"error: {exc}\n")
        return EXIT_UNDEFINED if isinstance(exc, UndefinedPhaseError) else EXIT_IO
    finally:
        if argv is None:  # the program itself, python -m triphase or the triphase script
            for stream in filter(None, (sys.stdout, sys.stderr)):  # None: closed at start
                try:
                    stream.flush()
                except OSError:  # the signal module's SIGPIPE recipe: teardown's flush finds devnull
                    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
            gc.freeze()  # what lives until exit need not be collected at teardown
