"""Command-line interface: states and triples in as JSON, phases, point
constellations, canonical form, eraser fringes, and family sweeps out.

Exit codes: 0 success, 1 I/O / parse / usage error, 2 mathematically
undefined request (vanishing overlap, degenerate geodesic, unresolvable
sweep grid). Emitted angles are radians (--degrees changes human output
only, never JSON or files); floats are formatted with 12 significant digits
and lowercase exponents, lines end with \\n, so repeated invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .angles import wrap_angle
from .eraser import EraserConfig, FringeScan, FringeUndefinedError, fringe_pair
from .majorana import MajoranaSet, points_to_state, state_to_points
from .phases import (
    EPS_NULL,
    DegenerateGeodesicError,
    UndefinedPhaseError,
    bargmann,
    canonicalize_triple,
    three_vertex_phase,
)
from .states import BlochPoint, PureState, inner_product
from .sweep import GridTooCoarseError, SweepResult, sweep_alpha

EXIT_OK = 0
EXIT_IO = 1
EXIT_UNDEFINED = 2

MAJORANA_CONVENTION = (
    "p(z) = sum_k (-1)^k sqrt(C(n,k)) c_k z^(n-k); "
    "z = e^{i azimuth} tan(polar/2); deficient leading coefficients -> (pi, 0)"
)

_MATH_ERRORS = (UndefinedPhaseError, DegenerateGeodesicError, FringeUndefinedError, GridTooCoarseError)

_DEG = 180.0 / np.pi


class CliInputError(Exception):
    """Bad file, bad JSON, or bad command usage."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for undefined math
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliInputError(message)


def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # collapse -0.0 for stable bytes
    return format(x, ".12g")


def _clean(obj):
    """Round floats to the 12-significant-digit wire precision, recursively."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _json_text(obj) -> str:
    # NaN or inf would be invalid JSON: fail with ValueError (exit 1) instead
    return json.dumps(_clean(obj), indent=2, allow_nan=False) + "\n"


def _emit_json(obj) -> None:
    sys.stdout.write(_json_text(obj))


def _angle_text(x: float, degrees: bool) -> str:
    return f"{_fmt(x * _DEG)} deg" if degrees else _fmt(x)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from None


def _parse_state(obj, *, renormalize: bool, label: str) -> PureState:
    if not isinstance(obj, dict) or "dim" not in obj or "amplitudes" not in obj:
        raise CliInputError(f"{label}: expected an object with 'dim' and 'amplitudes'")
    dim = obj["dim"]
    pairs = obj["amplitudes"]
    if not isinstance(dim, int) or dim < 2:
        raise CliInputError(f"{label}: dim must be an integer >= 2")
    if not isinstance(pairs, list) or len(pairs) != dim:
        raise CliInputError(f"{label}: expected {dim} amplitude pairs")
    try:
        vec = np.array([complex(float(re), float(im)) for re, im in pairs])
    except (TypeError, ValueError):
        raise CliInputError(f"{label}: amplitudes must be [re, im] number pairs") from None
    norm = float(np.linalg.norm(vec))
    tol = 1e-3 if renormalize else 1e-6
    if not abs(norm - 1.0) <= tol:  # also rejects NaN and inf
        hint = "" if renormalize else "; pass --renormalize to accept up to 1e-3"
        raise CliInputError(f"{label}: norm is {norm:.9g}, not 1 within {tol:g}{hint}")
    return PureState.normalized(vec)


def _load_triple(path: str, renormalize: bool) -> tuple[PureState, PureState, PureState]:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise CliInputError(f"{path}: expected an object with psi1, psi2, psi3")
    states = []
    for key in ("psi1", "psi2", "psi3"):
        if key not in obj:
            raise CliInputError(f"{path}: missing entry '{key}'")
        states.append(_parse_state(obj[key], renormalize=renormalize, label=f"{path}:{key}"))
    if not (states[0].dim == states[1].dim == states[2].dim):
        dims = ", ".join(str(s.dim) for s in states)
        raise CliInputError(f"{path}: states must share one dimension, got {dims}")
    return tuple(states)


def _state_pairs(s: PureState) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in s.amplitudes]


def _state_obj(s: PureState) -> dict:
    return {"dim": s.dim, "amplitudes": _state_pairs(s)}


def _overlap_entry(a: PureState, b: PureState) -> dict:
    v = inner_product(a, b)
    return {"abs": abs(v), "arg": float(np.angle(v))}


def cmd_phase(args) -> int:
    psi1, psi2, psi3 = _load_triple(args.triple, args.renormalize)
    try:
        gamma = three_vertex_phase(psi1, psi2, psi3, eps_null=args.tolerance)
    except UndefinedPhaseError as exc:
        raise UndefinedPhaseError(f"undefined phase: {exc}") from None
    overlaps = {
        "psi1_psi3": _overlap_entry(psi1, psi3),
        "psi3_psi2": _overlap_entry(psi3, psi2),
        "psi2_psi1": _overlap_entry(psi2, psi1),
    }
    b = bargmann(psi1, psi2, psi3)
    if args.json:
        _emit_json({"gamma": gamma, "bargmann_abs": abs(b), "overlaps": overlaps})
        return EXIT_OK
    print(f"gamma = {_angle_text(gamma, args.degrees)}")
    print(f"|bargmann| = {_fmt(abs(b))}")
    for name, entry in overlaps.items():
        pretty = name.replace("_", "|")
        print(f"|<{pretty}>| = {_fmt(entry['abs'])}  arg = {_angle_text(entry['arg'], args.degrees)}")
    return EXIT_OK


def _parse_points(path: str) -> MajoranaSet:
    obj = _load_json(path)
    pts = obj.get("points") if isinstance(obj, dict) else None
    if not isinstance(pts, list) or not pts:
        raise CliInputError(f"{path}: expected an object with a nonempty 'points' list")
    points = []
    for i, pair in enumerate(pts):
        try:
            polar, azimuth = (float(v) for v in pair)
            points.append(BlochPoint(polar, azimuth))
        except (TypeError, ValueError) as exc:
            raise CliInputError(f"{path}: point {i}: {exc}") from None
    return MajoranaSet(tuple(points))


def cmd_majorana(args) -> int:
    if args.from_points:
        state = points_to_state(_parse_points(args.from_points))
        if args.json:
            _emit_json(_state_obj(state))
            return EXIT_OK
        print(f"dim = {state.dim}")
        for k, a in enumerate(state.amplitudes):
            print(f"amplitude {k}: {_fmt(a.real)} {_fmt(a.imag)}")
        return EXIT_OK
    if not args.state:
        raise CliInputError("majorana needs a state file or --from-points")
    state = _parse_state(_load_json(args.state), renormalize=args.renormalize, label=args.state)
    points = state_to_points(state).sorted_points()
    if args.json:
        _emit_json({
            "dim": state.dim,
            "convention": MAJORANA_CONVENTION,
            "points": [[p.polar, p.azimuth] for p in points],
        })
        return EXIT_OK
    print(f"dim = {state.dim}")
    print(f"convention: {MAJORANA_CONVENTION}")
    for i, p in enumerate(points):
        print(f"point {i}: polar = {_angle_text(p.polar, args.degrees)}  "
              f"azimuth = {_angle_text(p.azimuth, args.degrees)}")
    return EXIT_OK


def cmd_canonicalize(args) -> int:
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
    verification = {
        "gram_delta": float(gram_delta),
        "overlap_delta": float(overlap_delta),
        "phase_delta": phase_delta,
    }
    if args.json:
        _emit_json({
            "dim": result.dim,
            "degenerate_frame": result.degenerate_frame,
            "psi2_qubit": _state_pairs(result.psi2_qubit),
            "psi3_qubit": _state_pairs(result.psi3_qubit),
            "transformed": {
                "psi1": _state_obj(result.psi1),
                "psi2": _state_obj(trans2),
                "psi3": _state_obj(trans3),
            },
            "unitary": [[[float(v.real), float(v.imag)] for v in row]
                        for row in result.transform.matrix],
            "verification": verification,
        })
        return EXIT_OK
    print(f"dim = {result.dim}")
    if result.degenerate_frame:
        print("note: psi2 and psi3 are parallel; frame degenerates to one vector")
    for name, q in (("psi2_qubit", result.psi2_qubit), ("psi3_qubit", result.psi3_qubit)):
        a, b = q.amplitudes
        print(f"{name}: [{_fmt(a.real)} {_fmt(a.imag)}] [{_fmt(b.real)} {_fmt(b.imag)}]")
    print(f"gram_delta = {_fmt(gram_delta)}")
    print(f"overlap_delta = {_fmt(overlap_delta)}")
    print("phase_delta = " + ("n/a (undefined phase)" if phase_delta is None else _fmt(phase_delta)))
    return EXIT_OK


def cmd_eraser(args) -> int:
    psi1, psi2, psi3 = _load_triple(args.triple, args.renormalize)
    cfg = EraserConfig(grid_size=args.grid)
    projected, plain = fringe_pair(psi1, psi2, psi3, cfg, eps_null=args.tolerance)
    if args.mode == "grid_argmax":
        delta_f, delta_m = projected.peak, plain.peak
    else:  # "closed_form" and "both" report the closed-form constructive points
        delta_f, delta_m = projected.center, plain.center
    gamma = float(wrap_angle(delta_f - delta_m))
    vis = projected.visibility
    if args.scan_csv:
        _write_text(args.scan_csv, scan_csv(projected))
    payload = {
        "grid_size": cfg.grid_size,
        "mode": args.mode,
        "delta_f": float(delta_f),
        "delta_m": float(delta_m),
        "gamma": gamma,
        "visibility": float(vis),
    }
    if args.json:
        _emit_json(payload)
        return EXIT_OK
    print(f"delta_f = {_angle_text(payload['delta_f'], args.degrees)}")
    print(f"delta_m = {_angle_text(payload['delta_m'], args.degrees)}")
    print(f"gamma = {_angle_text(gamma, args.degrees)}")
    print(f"visibility = {_fmt(vis)}")
    if args.scan_csv:
        print(f"scan written to {args.scan_csv}")
    return EXIT_OK


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from None


def _sidecar_path(out: str) -> str:
    return out[:-4] + ".json" if out.endswith(".csv") else out + ".json"


def sweep_csv(result: SweepResult) -> str:
    """CSV text of a sweep: header plus one row per alpha sample."""
    lines = ["alpha,gamma1,gamma2,gamma_wrapped,gamma_unwrapped"]
    for i in range(result.alphas.size):
        lines.append(",".join(_fmt(v) for v in (
            result.alphas[i], result.gamma1[i], result.gamma2[i],
            result.gamma_wrapped[i], result.gamma_total[i],
        )))
    return "\n".join(lines) + "\n"


def scan_csv(scan: FringeScan) -> str:
    """CSV text of a fringe scan: header plus one row per delta sample."""
    lines = ["delta,probability"]
    lines += [f"{_fmt(d)},{_fmt(p)}" for d, p in zip(scan.deltas, scan.probabilities)]
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    result = sweep_alpha(args.theta, args.phi, args.steps)
    _write_text(args.out, sweep_csv(result))
    sidecar = _sidecar_path(args.out)
    sidecar_obj = {
        "singular_alphas": list(result.singular_alphas),
        "winding": result.winding,
    }
    _write_text(sidecar, _json_text(sidecar_obj))
    if args.json:
        _emit_json({
            "out": args.out,
            "sidecar": sidecar,
            "rows": int(result.alphas.size),
            "winding": result.winding,
            "singular_alphas": list(result.singular_alphas),
        })
        return EXIT_OK
    print(f"wrote {result.alphas.size} rows to {args.out}")
    print(f"sidecar: {sidecar}")
    print(f"winding = {_angle_text(result.winding, args.degrees)}")
    alphas = (_angle_text(a, args.degrees) for a in result.singular_alphas)
    print("singular_alphas = " + " ".join(alphas))
    return EXIT_OK


def _tolerance(text: str) -> float:
    # NaN, inf or a negative value would turn a vanishing overlap into a phase
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    flag = argparse.ArgumentParser(add_help=False)
    flag.add_argument(*names, **kwargs)
    return flag


def build_parser() -> argparse.ArgumentParser:
    # each command takes only the common flags it reads; any other is a usage error
    json_ = _flag("--json", action="store_true", help="emit machine-readable JSON on stdout")

    def tolerance(compared: str) -> argparse.ArgumentParser:
        return _flag("--tolerance", type=_tolerance, default=EPS_NULL,
                     help=f"{compared} at or below which the result counts as undefined")

    product_tolerance = tolerance("overlap-product modulus |<1|3><3|2><2|1>|")
    degrees = _flag("--degrees", action="store_true",
                    help="display angles in degrees (human output only, never files)")
    renormalize = _flag("--renormalize", action="store_true",
                        help="accept input states with norm off by up to 1e-3")

    parser = _Parser(prog="triphase",
                     description="Three-vertex geometric phases on the Bloch sphere")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("phase", parents=[json_, product_tolerance, degrees, renormalize],
                       help="geometric phase of a state triple")
    p.add_argument("triple", help="triple JSON file (psi1, psi2, psi3)")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("majorana", parents=[json_, degrees, renormalize],
                       help="point constellation of a state, or its inverse")
    p.add_argument("state", nargs="?", help="state JSON file")
    p.add_argument("--from-points", metavar="FILE",
                   help="reconstruct the state from a points JSON file instead")
    p.set_defaults(func=cmd_majorana)

    p = sub.add_parser("canonicalize", parents=[json_, product_tolerance, renormalize],
                       help="reduce a triple to product-state form")
    p.add_argument("triple", help="triple JSON file")
    p.set_defaults(func=cmd_canonicalize)

    fringe_tolerance = tolerance("modulus of each overlap a fringe needs (<1|2>, <3|1>, <3|2>)")
    p = sub.add_parser("eraser", parents=[json_, fringe_tolerance, degrees, renormalize],
                       help="interferometric phase readout of a triple")
    p.add_argument("triple", help="triple JSON file")
    p.add_argument("--grid", type=int, default=4096, help="number of delta samples, 16 to 2^20 (default 4096)")
    p.add_argument("--mode", choices=("closed_form", "grid_argmax", "both"), default="both",
                   help="closed_form and both report the closed-form constructive points, "
                        "grid_argmax the refined peaks of the sampled fringes")
    p.add_argument("--scan-csv", metavar="PATH", help="also write the sampled fringe as CSV")
    p.set_defaults(func=cmd_eraser)

    p = sub.add_parser("sweep", parents=[json_, degrees],
                       help="sweep the qutrit family phase over alpha")
    p.add_argument("--theta", type=float, required=True, help="half angle between the fixed states")
    p.add_argument("--phi", type=float, required=True, help="half angle between the moving points")
    p.add_argument("--steps", type=int, required=True, help="number of alpha intervals, 64 to 2^20")
    p.add_argument("--out", required=True, help="output CSV path (sidecar JSON written next to it)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except (CliInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
