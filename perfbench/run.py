"""stablekit benchmark: solve + verify of seeded unstable models.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--workload all`` runs the three workloads in turn, one result line each.

Each workload is one single-process, closed-loop caller: it runs one case at
a time, whole cycles of case variants, until the next cycle would overrun
``--seconds``. A case is one model, solved and then verified. BLAS runs one
thread. After every case a gate in ``gate.py`` checks the
outputs with plain NumPy/SciPy.

Workloads, and why each exists:

* ``hinf-few-unstable``: standard E, n = 120, 2 unstable poles, 2 ports,
  optimal level; ``solve_apinf`` then ``linf_error``. The Sylvester block is
  2 columns wide, so a faster Sylvester solver should change nothing here;
  the solve is mostly full-size QZ (constructor validation) and the verify
  mostly ``frequency_response`` calls.
* ``hinf-half-unstable``: n = 80, 40 unstable poles, 2 ports, cycling over
  standard/descriptor E and optimal/``gamma_factor = 1.01``. The Kronecker
  Sylvester solve builds a dense 3200 x 3200 system and dominates the solve.
* ``descriptor-cli``: about 60 states with a genuinely descriptor (E, A),
  written as DSYS files; three in-process ``stablekit.cli.main`` calls per
  case: ``approx --norm hinf``, ``verify --norm hinf``, ``approx --norm h2``.
  Cycles over with/without a sigma_1 of multiplicity 2 (the singular-svd
  branch) and an index-1/index-2 infinite block (index 2 is improper). The
  only workload that runs ``dsysio``, ``cli``, the infinite part of the
  Weierstrass split, the singular reduction and the L2 route.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``setup_s``: median of three set-ups, each a fresh interpreter importing
  stablekit (what every CLI call pays) plus building the first cycle of
  inputs;
* ``case_s_p50``, ``solve_s_p50``, ``verify_s_p50``: medians over cases;
  solve is ``DescriptorSystem`` + ``solve_apinf`` or CLI ``approx --norm
  hinf``, verify is ``linf_error`` or CLI ``verify`` + ``approx --norm h2``;
* ``case_s_tail``: the highest percentile with at least 10 cases beyond it
  (the percentile and the case count go on the ``# details`` line);
* ``cases_per_s``: cases over the summed case time;
* ``peak_rss_mb``: the process's peak resident set;
* ``pass_ratio``: passing over attempted cases, 1 - ``fail_ratio``
  (reported this way round because it must never read 0);
* ``accuracy_digits``: min over passing cases of -log10 of the relative gap
  between the reference sigma_1 and each value theory pins to it.

A case fails when a call raises or exits non-zero, or any gate check fails,
including a reported error norm outside its bracket. ``correct`` is false
when a case fails on a model outside the known-defect class (see
``gate.Verdict``: models with an index-2 infinite block, half of
``descriptor-cli``), or, traced, when the two traces count differently or
any pass wrote other outputs.

With ``--trace 1`` four cases run once untraced and twice traced (see
``tracer.py``) and the line reports the per-layer metrics of the first
trace: calls and self time per public function, and ``*.bytes_computed``
(peak bytes allocated inside each call, by ``tracemalloc``, summed),
``*.points`` (frequencies evaluated), ``output_order`` (summed orders of
the ``solve_apinf`` outputs), ``trace.overhead_ratio`` (traced over
untraced median case time). Spans are written under
``.bench_build/perfbench/``. Lines before the result record the machine.

Exit status is 0 after a result line, 2 when the package source is missing.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, within the nproc limit: on these desk-scale matrices a
# second thread on a 2-core machine made cases slower and their times noisier.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gate  # noqa: E402
import models  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "case_s_p50": "s",
    "case_s_tail": "s",
    "cases_per_s": "1/s",
    "solve_s_p50": "s",
    "verify_s_p50": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "accuracy_digits": "digits",
}

PER_LAYER_COUNTS = [
    "kernels.qz_ordered.calls",
    "kernels.pencil_eigendata.calls",
    "kernels.qz.full_size_calls",
    "kernels.solve_generalized_sylvester.calls",
    "kernels.solve_generalized_sylvester.max_kl",
    "kernels.solve_generalized_sylvester.bytes_computed",
    "kernels.solve_generalized_lyapunov.calls",
    "kernels.svd.calls",
    "kernels.real_schur.calls",
    "systems.DescriptorSystem.calls",
    "systems.pencil_spectrum.calls",
    "systems.additive_decompose.calls",
    "systems.weierstrass_split.calls",
    "systems.frequency_response.calls",
    "systems.frequency_response.points",
    "systems.frequency_response.single_point_calls",
    "gramians.gramians.calls",
    "gramians.linf_error.calls",
    "gramians.linf_error.points",
    "gramians.rl2_norm.calls",
    "approximation.reduce_singular.calls",
    "approximation.branch.regular",
    "approximation.branch.singular_svd",
    "approximation.branch.singular_schur",
    "approximation.output_order",
    "dsysio.load_dsys.calls",
    "dsysio.load_dsys.bytes",
    "dsysio.save_dsys.calls",
    "dsysio.save_dsys.bytes",
]
PER_LAYER_TIMES = [
    "kernels.qz_ordered.self_s",
    "kernels.pencil_eigendata.self_s",
    "kernels.solve_generalized_sylvester.self_s",
    "kernels.solve_generalized_lyapunov.self_s",
    "kernels.svd.self_s",
    "kernels.real_schur.self_s",
    "systems.DescriptorSystem.self_s",
    "systems.pencil_spectrum.self_s",
    "systems.additive_decompose.self_s",
    "systems.weierstrass_split.self_s",
    "systems.frequency_response.self_s",
    "gramians.gramians.self_s",
    "gramians.hankel_sigma_max.self_s",
    "gramians.linf_error.self_s",
    "gramians.rl2_norm.self_s",
    "approximation.solve_apinf.self_s",
    "approximation.solve_ap2.self_s",
    "approximation.construct_gamma_system.self_s",
    "approximation.reduce_singular.self_s",
    "dsysio.load_dsys.self_s",
    "dsysio.save_dsys.self_s",
    "cli.cmd_approx.self_s",
    "cli.cmd_verify.self_s",
]


def count_unit(name: str) -> str:
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("max_kl"):
        return "entries"
    if name.endswith("output_order"):
        return "states"
    return "count"


PER_LAYER_UNITS = {
    **{n: count_unit(n) for n in PER_LAYER_COUNTS},
    **{n: "s" for n in PER_LAYER_TIMES},
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# Cases


@dataclass
class CaseResult:
    solve_s: float
    verify_s: float
    verdict: gate.Verdict
    output: bytes = b""
    reported: dict = field(default_factory=dict)

    @property
    def case_s(self) -> float:
        return self.solve_s + self.verify_s


def _raised(verdict: gate.Verdict, stage: str, exc: Exception) -> None:
    verdict.fail(f"{stage}_raised_{type(exc).__name__}")
    print(f"# {stage} raised: {''.join(traceback.format_exception_only(exc)).strip()}", file=sys.stderr)


def run_library_case(m: models.Model, tag: str, work: Path) -> CaseResult:
    """``DescriptorSystem`` + ``solve_apinf``, then ``linf_error``."""
    import stablekit as sk

    verdict = gate.Verdict(m)
    t0 = time.perf_counter()
    try:
        s = sk.DescriptorSystem(m.e, m.a, m.b, m.c, m.d)
        res = sk.solve_apinf(s, gamma_factor=m.gamma_factor)
    except Exception as exc:  # a failed case, not a failed run
        _raised(verdict, "solve", exc)
        return CaseResult(time.perf_counter() - t0, 0.0, verdict)
    t1 = time.perf_counter()
    try:
        grid = sk.linf_error(s, res.system)
    except Exception as exc:
        _raised(verdict, "verify", exc)
        return CaseResult(t1 - t0, time.perf_counter() - t1, verdict)
    t2 = time.perf_counter()
    out = res.system
    approx = tuple(np.asarray(x) for x in (out.e, out.a, out.b, out.c, out.d))
    reported = {"linf_error": grid.max_value}
    gate.check_hinf(verdict, m, approx, res.sigma1, reported)
    output = b"".join(x.tobytes() for x in approx) + repr((res.sigma1, grid.max_value)).encode()
    return CaseResult(t1 - t0, t2 - t1, verdict, output, reported)


def _cli(argv: list[str]) -> tuple[int, dict | None]:
    cli = sys.modules["stablekit.cli"]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # an escaped error fails the case, not the run
        print(f"# {argv[0]} raised: {type(exc).__name__}: {exc}", file=sys.stderr)
        return -1, None
    text = out.getvalue()
    return rc, (json.loads(text) if text.strip() else None)


def run_cli_case(m: models.Model, tag: str, work: Path) -> CaseResult:
    """``approx --norm hinf``, then ``verify --norm hinf`` and ``approx --norm h2``."""
    verdict = gate.Verdict(m)
    src = str(work / f"{tag}.dsys")
    hinf_out = str(work / f"{tag}.hinf.dsys")
    h2_out = str(work / f"{tag}.h2.dsys")
    t0 = time.perf_counter()
    rc1, rep1 = _cli(["approx", src, "--norm", "hinf", "-o", hinf_out])
    t1 = time.perf_counter()
    rc2, rep2 = _cli(["verify", src, hinf_out, "--norm", "hinf"])
    rc3, rep3 = _cli(["approx", src, "--norm", "h2", "-o", h2_out])
    t2 = time.perf_counter()
    result = CaseResult(t1 - t0, t2 - t1, verdict)
    if rc1 != 0:
        verdict.fail(f"approx_hinf_exit_{rc1}")
    else:
        reported = result.reported
        reported["approx_error_linf"] = rep1["error_linf"]
        if rc2 != 0 or not rep2.get("stable"):
            verdict.fail(f"verify_exit_{rc2}")
        else:
            reported["verify_error_linf"] = rep2["error_linf"]
        approx = models.parse_dsys(Path(hinf_out).read_text())
        gate.check_hinf(verdict, m, approx, rep1["sigma1"], reported)
        result.output += Path(hinf_out).read_bytes()
    if rc3 != 0:
        verdict.fail(f"approx_h2_exit_{rc3}")
    else:
        approx2 = models.parse_dsys(Path(h2_out).read_text())
        gate.check_h2(verdict, m, approx2, rep3["error_l2"])
        result.output += Path(h2_out).read_bytes()
    return result


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    """A named case sequence; ``cycle`` variants repeat in order (see the module docstring)."""

    name: str
    cycle: int
    make: Callable[[np.random.Generator, int], models.Model]
    run: Callable[[models.Model, str, Path], CaseResult]
    writes_dsys: bool = False


def _few(rng, i):
    return models.hinf_model(rng, 120, 2, 2, descriptor=False, gamma_factor=None)


def _half(rng, i):
    return models.hinf_model(
        rng, 80, 40, 2, descriptor=i % 2 == 1, gamma_factor=None if (i // 2) % 2 == 0 else 1.01
    )


def _descriptor(rng, i):
    return models.descriptor_model(rng, with_rotate2=i % 2 == 0, nil_index=1 + (i // 2) % 2)


WORKLOADS = (
    Workload("hinf-few-unstable", 1, _few, run_library_case),
    Workload("hinf-half-unstable", 4, _half, run_library_case),
    Workload("descriptor-cli", 4, _descriptor, run_cli_case, writes_dsys=True),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


def make_model(w: Workload, seed: int, i: int, work: Path) -> tuple[models.Model, str]:
    wid = WORKLOADS.index(w)
    m = w.make(models.case_rng(seed, wid, i), i)
    tag = f"case{i}"
    if w.writes_dsys:
        (work / f"{tag}.dsys").write_text(models.format_dsys(m))
    return m, tag


# ---------------------------------------------------------------------------
# Measurement


def setup_once(w: Workload, seed: int, work: Path) -> float:
    """Fresh interpreter importing stablekit, plus this run's first cycle of inputs."""
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import stablekit"], env=env, cwd=ROOT, check=True, timeout=120
    )
    for i in range(w.cycle):
        make_model(w, seed, i, work)
    return time.perf_counter() - t0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no such percentile exists; the smallest stands in.
    """
    xs = sorted(values)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def failed(rs: list[CaseResult]) -> int:
    return sum(not r.verdict.passed for r in rs)


def measure(w: Workload, seed: int, seconds: float, work: Path) -> list[CaseResult]:
    """Whole cycles of cases until the next cycle would overrun ``seconds``."""
    rs = []
    start = time.perf_counter()
    while True:
        for _ in range(w.cycle):
            rs.append(w.run(*make_model(w, seed, len(rs), work), work))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (len(rs) // w.cycle) > seconds:
            return rs


def end_to_end(rs: list[CaseResult], setup_s: float) -> tuple[dict, dict]:
    case_s = [r.case_s for r in rs]
    tail_s, tail_pct = tail(case_s)
    gaps = [r.verdict.gap for r in rs if r.verdict.passed]
    values = {
        "setup_s": setup_s,
        "case_s_p50": statistics.median(case_s),
        "case_s_tail": tail_s,
        "cases_per_s": len(rs) / sum(case_s),
        "solve_s_p50": statistics.median(r.solve_s for r in rs),
        "verify_s_p50": statistics.median(r.verify_s for r in rs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (len(rs) - failed(rs)) / len(rs),
        "accuracy_digits": gate.accuracy_digits(gaps),
    }
    details = {
        "cases": len(rs),
        "case_s_tail_percentile": tail_pct,
        "fail_ratio": failed(rs) / len(rs),
        "failures": _failure_counts(rs),
        "failing_reported_range": _failing_reported_range(rs),
    }
    return values, details


def _failure_counts(rs: list[CaseResult]) -> dict:
    out: dict[str, int] = {}
    for r in rs:
        for reason in r.verdict.failures:
            out[reason] = out.get(reason, 0) + 1
    return out


def _failing_reported_range(rs: list[CaseResult]) -> dict:
    """[min, max] of each value the library reported on failing cases."""
    out: dict[str, list[float]] = {}
    for r in rs:
        if r.verdict.passed:
            continue
        for label, value in r.reported.items():
            lo, hi = out.get(label, [value, value])
            out[label] = [min(lo, value), max(hi, value)]
    return out


def run_pass(w: Workload, cases: list, work: Path, tracer: Tracer | None) -> list[CaseResult]:
    if tracer is None:
        return [w.run(m, tag, work) for m, tag in cases]
    out = []
    tracer.install()
    try:
        for i, (m, tag) in enumerate(cases):
            tracer.case = i
            out.append(w.run(m, tag, work))
    finally:
        tracer.uninstall()
    return out


def traced_run(w: Workload, seed: int, work: Path) -> tuple[dict, dict, bool, list[list[CaseResult]]]:
    """Four cases once untraced, then twice traced; per-layer metrics from the first trace.

    Returns (metrics, details, consistent, passes): ``consistent`` holds when
    both traces count the same and every pass wrote identical outputs.
    """
    cases = [make_model(w, seed, i, work) for i in range(max(w.cycle, 4))]
    sizes = {i: m.n for i, (m, _) in enumerate(cases)}
    plain = run_pass(w, cases, work, None)
    tracers = [Tracer(), Tracer()]
    traced = [run_pass(w, cases, work, t) for t in tracers]
    (counts, times), (counts2, _) = (t.summary(sizes) for t in tracers)
    same_outputs = all(a.output == b.output for run in traced for a, b in zip(plain, run))
    metrics = {name: counts.get(name, 0) for name in PER_LAYER_COUNTS}
    metrics.update({name: times.get(name, 0.0) for name in PER_LAYER_TIMES})
    metrics["trace.overhead_ratio"] = statistics.median(r.case_s for r in traced[0]) / statistics.median(
        r.case_s for r in plain
    )
    details = {
        "cases": len(cases),
        "counts_repeat": counts == counts2,
        "outputs_identical": same_outputs,
        "roadmap_check": roadmap_check(tracers[0], sizes),
    }
    if counts != counts2:
        details["count_diff"] = {
            k: (counts.get(k), counts2.get(k)) for k in counts.keys() | counts2.keys() if counts.get(k) != counts2.get(k)
        }
    tracers[0].dump(WORK / f"spans-{w.name}-{seed}.json")
    return metrics, details, counts == counts2 and same_outputs, [plain, *traced]


def roadmap_check(t: Tracer, sizes: dict) -> dict:
    """Shares and QZ counts the ROADMAP's baseline observations quote."""
    solve = t.inclusive("approximation.solve_apinf")
    linf = t.inclusive("gramians.linf_error")
    sylvester = t.inclusive("kernels.solve_generalized_sylvester", "approximation.solve_apinf")
    freq = t.inclusive("systems.frequency_response", "gramians.linf_error")
    return {
        "sylvester_share_of_solve_apinf": sylvester / solve if solve else None,
        "frequency_response_share_of_linf_error": freq / linf if linf else None,
        "qz_per_top_level_call": t.qz_by_operation(sizes),
    }


# ---------------------------------------------------------------------------
# Machine record


def blas_info() -> list[dict]:
    """Each OpenBLAS that NumPy or SciPy loaded, with its thread count."""
    out = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                out.append(
                    {"used_by": pkg.__name__, "config": get_config().decode().strip(), "threads": get_threads()}
                )
                break
    return out


def machine(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_requested": BLAS_THREADS,
        "blas": blas_info(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Entry point


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_BY_NAME, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter (and so its own peak RSS)."""
    rc = 0
    for name in WORKLOAD_BY_NAME:
        print(f"# workload {name}", flush=True)
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc = rc or subprocess.run([sys.executable, __file__, *argv], check=False).returncode
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stablekit" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import stablekit  # noqa: F401  (the tracer and the CLI cases look it up in sys.modules)
    import stablekit.cli  # noqa: F401

    w = WORKLOAD_BY_NAME[args.workload]
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = statistics.median(setup_once(w, args.seed, work) for _ in range(SETUP_REPEATS))
        print("# machine " + json.dumps(machine(args.seed)))
        if args.trace:
            metrics, details, consistent, passes = traced_run(w, args.seed, work)
            units = PER_LAYER_UNITS
        else:
            passes = [measure(w, args.seed, args.seconds, work)]
            metrics, details = end_to_end(passes[0], setup_s)
            units = END_TO_END
            consistent = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = consistent and not any(r.verdict.unexpected for rs in passes for r in rs)
    print("# details " + json.dumps(details))
    for name, value in metrics.items():
        print(f"# {name} = {value!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(passes[0]),
                "failed": failed(passes[0]),
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
