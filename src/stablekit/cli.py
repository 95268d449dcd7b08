"""Command-line interface.

Subcommands:

* ``approx``: read a DSYS model, compute its best stable approximation in
  the chosen norm, write the approximant, print a JSON report.
* ``generate``: write a deterministic random model with a prescribed number
  of unstable poles.
* ``verify``: recompute the error norms between two models and flag an
  unstable approximant.
* ``freqresp``: sample a model's frequency response into a CSV file.

The report goes to stdout, diagnostics to stderr. Exit codes: 0 success,
2 imaginary-axis eigenvalue, 3 singular pencil, 4 unstable approximant in
``verify``, 1 any other failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .approximation import solve_ap2, solve_apinf
from .dsysio import load_dsys, save_dsys, write_freqresp_csv
from .errors import AxisEigenvalue, ParseError, SingularPencil, StablekitError
from .gramians import linf_error, rl2_norm
from .synth import random_unstable_system
from .systems import (
    DescriptorSystem,
    StabilityClass,
    direct_sum,
    frequency_response,
    negate_output,
    pencil_spectrum,
)

__all__ = ["main", "cmd_approx", "cmd_generate", "cmd_verify", "cmd_freqresp"]


def _input_summary(s: DescriptorSystem, tol: float | None) -> dict:
    rep = pencil_spectrum(s, tol)
    unstable = rep.finite_eigenvalues[rep.finite_eigenvalues.real > 0.0]
    return {
        "order": s.n,
        "num_inputs": s.m,
        "num_outputs": s.p,
        "stability_class": rep.stability_class.value,
        "num_unstable_poles": int(unstable.size),
        "max_real_part_unstable": float(unstable.real.max()) if unstable.size else None,
        "has_infinite_eigenvalues": rep.has_infinite,
    }


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _error_norms(original: DescriptorSystem, approx: DescriptorSystem, tol):
    err_sys = direct_sum(original, negate_output(approx))
    grid = linf_error(original, approx, tol=tol)
    return {
        "error_l2": rl2_norm(err_sys, tol),
        "error_linf": grid.max_value,
        "argmax_omega": grid.argmax_omega,
        "profile_min": float(grid.values.min()),
        "profile_max": float(grid.values.max()),
    }


def cmd_approx(args) -> int:
    if args.norm == "h2" and args.gamma_factor is not None:
        raise ValueError("--gamma-factor applies only to --norm hinf")
    s = load_dsys(args.input)
    t0 = time.perf_counter()
    if args.norm == "h2":
        result = solve_ap2(s, args.tol)
    else:
        result = solve_apinf(s, gamma_factor=args.gamma_factor, tol=args.tol)
    save_dsys(args.output, result.system)
    norms = _error_norms(s, result.system, args.tol)
    elapsed = time.perf_counter() - t0
    report = {
        "command": "approx",
        "norm": args.norm,
        "input": _input_summary(s, args.tol),
        "sigma1": result.sigma1,
        "gamma": result.gamma_used,
        "branch": result.branch.value if result.branch is not None else None,
        "output": {"path": args.output, "order": result.system.n},
        **norms,
        "diagnostics": {
            k: v for k, v in result.diagnostics.items() if isinstance(v, (int, float, str))
        },
        "wall_time_s": round(elapsed, 6),
    }
    _emit(report)
    return 0


def cmd_generate(args) -> int:
    s = random_unstable_system(
        args.order, args.unstable, args.seed, descriptor=args.descriptor
    )
    save_dsys(args.output, s)
    report = {
        "command": "generate",
        "seed": args.seed,
        "descriptor": args.descriptor,
        "output": {"path": args.output, **_input_summary(s, None)},
    }
    _emit(report)
    return 0


def cmd_verify(args) -> int:
    original = load_dsys(args.original)
    approx = load_dsys(args.approximant)
    rep = pencil_spectrum(approx, args.tol)
    stable = rep.stability_class is StabilityClass.STABLE
    report = {
        "command": "verify",
        "norm": args.norm,
        "original": _input_summary(original, args.tol),
        "approximant": _input_summary(approx, args.tol),
        "stable": stable,
    }
    if not stable:
        print(
            f"approximant is not stable (class {rep.stability_class.value})",
            file=sys.stderr,
        )
        _emit(report)
        return 4
    report.update(_error_norms(original, approx, args.tol))
    _emit(report)
    return 0


def cmd_freqresp(args) -> int:
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    s = load_dsys(args.input)
    rep = pencil_spectrum(s, args.tol)
    fin = rep.finite_eigenvalues
    rho = max(1.0, float(np.abs(fin).max())) if fin.size else 1.0
    wmax = args.wmax if args.wmax is not None else 1e6 * rho
    wmin = args.wmin if args.wmin is not None else 1e-6 * rho
    if wmin < 0 or wmax <= wmin:
        raise ValueError(f"need 0 <= wmin < wmax, got [{wmin}, {wmax}]")
    if wmin == 0.0:
        omegas = np.concatenate(
            [[0.0], np.geomspace(wmax * 1e-9, wmax, args.points - 1)]
        )
    else:
        omegas = np.geomspace(wmin, wmax, args.points)
    responses = frequency_response(s, omegas)
    csv_text = write_freqresp_csv(omegas, responses)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text)
    _emit(
        {
            "command": "freqresp",
            "input": _input_summary(s, args.tol),
            "points": int(omegas.size),
            "wmin": float(omegas[0]),
            "wmax": float(omegas[-1]),
            "output": {"path": args.output},
        }
    )
    return 0


class _Parser(argparse.ArgumentParser):
    # Exit code 2 is reserved for axis-eigenvalue rejections; route argparse
    # usage errors to the generic failure code instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stablekit",
        description="Optimal stable approximation of unstable descriptor systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_approx = sub.add_parser("approx", help="compute a stable approximant")
    p_approx.add_argument("input", help="DSYS model file")
    p_approx.add_argument("--norm", choices=("h2", "hinf"), required=True)
    p_approx.add_argument(
        "--gamma-factor",
        type=float,
        default=None,
        help="suboptimal level gamma = F * sigma_1 (F > 1); omit for optimal",
    )
    p_approx.add_argument("--tol", type=float, default=None)
    p_approx.add_argument("-o", "--output", required=True, help="output DSYS file")
    p_approx.set_defaults(func=cmd_approx)

    p_gen = sub.add_parser("generate", help="write a random unstable model")
    p_gen.add_argument("-n", "--order", type=int, required=True)
    p_gen.add_argument("-u", "--unstable", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--descriptor", action="store_true")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_verify = sub.add_parser("verify", help="recompute error norms")
    p_verify.add_argument("original")
    p_verify.add_argument("approximant")
    p_verify.add_argument("--norm", choices=("h2", "hinf"), required=True)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_freq = sub.add_parser("freqresp", help="sample the frequency response")
    p_freq.add_argument("input")
    p_freq.add_argument("--wmin", type=float, default=None)
    p_freq.add_argument("--wmax", type=float, default=None)
    p_freq.add_argument(
        "--points", type=int, default=200, help="number of frequencies (at least 2)"
    )
    p_freq.add_argument("--tol", type=float, default=None)
    p_freq.add_argument("-o", "--output", required=True)
    p_freq.set_defaults(func=cmd_freqresp)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AxisEigenvalue as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularPencil as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StablekitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
