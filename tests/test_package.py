"""The package surface: the names the root re-exports, the functions the
benchmark tracer wraps, and the README's library example."""

import importlib
import importlib.util
import inspect
import re
import types
from pathlib import Path

import pytest

import stablekit
from stablekit.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src" / "stablekit"

# Every change to the public API shows up as a change to this list.
ROOT_EXPORTS = [
    "AdditiveDecomposition", "ApproxResult", "AtPole", "AxisEigenvalue", "Branch",
    "ConvergenceFailure", "DescriptorSystem", "DimensionMismatch", "FrequencyGrid",
    "GammaSystem", "GammaTooSmall", "GramianPair", "HankelData", "NegativeSpectrum",
    "NoUniqueSolution", "NonFiniteSample", "NonzeroFeedthrough", "OrderedQz",
    "ParseError", "SingularPencil", "SingularTransform",
    "SpectrumReport", "SpectrumViolation", "StabilityClass", "StablekitError",
    "StructureViolation", "SvdResult", "WeierstrassSplit", "additive_decompose",
    "construct_gamma_system", "direct_sum", "empty_system", "frequency_response",
    "gramians", "h2_norm_antistable", "hankel_sigma_max", "linf_error", "linf_of",
    "load_dsys", "negate_output", "parse_dsys", "pencil_eigendata", "pencil_spectrum",
    "random_orthogonal", "random_unstable_system",
    "reduce_singular_svd", "rl2_norm", "rse_transform",
    "save_dsys", "solve_ap2", "solve_apinf", "solve_generalized_sylvester", "svd",
    "weierstrass_split", "write_dsys", "write_freqresp_csv",
]

# The benchmark tracer (perfbench/tracer.py) wraps the functions that each of
# its LAYERS lists in __all__; a name that leaves this list silently reads 0
# in the per-layer counters, so each removal must be a deliberate edit here.
TRACED_FUNCTIONS = [
    "approximation.construct_gamma_system", "approximation.reduce_singular_svd",
    "approximation.solve_ap2", "approximation.solve_apinf",
    "cli.cmd_approx", "cli.cmd_freqresp", "cli.cmd_generate", "cli.cmd_verify", "cli.main",
    "dsysio.load_dsys", "dsysio.parse_dsys", "dsysio.save_dsys", "dsysio.write_dsys",
    "dsysio.write_freqresp_csv",
    "gramians.gramians", "gramians.h2_norm_antistable", "gramians.hankel_sigma_max",
    "gramians.linf_error", "gramians.linf_of", "gramians.rl2_norm",
    "kernels.pencil_eigendata", "kernels.solve_generalized_sylvester", "kernels.svd",
    "systems.additive_decompose", "systems.direct_sum", "systems.empty_system",
    "systems.frequency_response", "systems.negate_output", "systems.pencil_spectrum",
    "systems.rse_transform", "systems.weierstrass_split",
]


def test_package_root_exports_are_pinned():
    names = sorted(
        k for k, v in vars(stablekit).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == ROOT_EXPORTS


def test_no_exported_function_takes_a_tolerance():
    # every rank and band decision reads util.TOL
    taking = [
        name for name in ROOT_EXPORTS
        if inspect.isfunction(fn := getattr(stablekit, name))
        and "tol" in inspect.signature(fn).parameters
    ]
    assert taking == []


@pytest.mark.parametrize("command", ["approx", "verify", "freqresp"])
def test_cli_rejects_a_tolerance_flag(tmp_path, capsys, command):
    src, out = tmp_path / "s.dsys", str(tmp_path / "out")
    stablekit.save_dsys(src, stablekit.random_unstable_system(3, 1, seed=1))
    argv = {
        "approx": ["approx", str(src), "--norm", "hinf", "-o", out],
        "verify": ["verify", str(src), str(src), "--norm", "hinf"],
        "freqresp": ["freqresp", str(src), "-o", out],
    }[command]
    assert main([*argv, "--tol", "1e-8"]) == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["approx", "model.dsys", "--norm", "hinf"], ["generate", "-n", "4"], ["verify"], []]
)
def test_cli_usage_error_returns_one(capsys, argv):
    # a missing required argument fails the call, not the calling process
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: stablekit") and "required" in err


def test_cli_help_returns_zero(capsys):
    assert main(["approx", "--help"]) == 0
    assert "--norm" in capsys.readouterr().out


def test_benchmark_tracer_wraps_the_pinned_functions():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = []
    for layer in tracer.LAYERS:
        mod = importlib.import_module(f"stablekit.{layer}")
        names += [
            f"{layer}.{attr}" for attr in mod.__all__
            if inspect.isfunction(fn := getattr(mod, attr)) and fn.__module__ == mod.__name__
        ]
    assert sorted(names) == TRACED_FUNCTIONS


def test_every_exported_error_is_raised_in_the_library():
    src = "".join(p.read_text(encoding="utf-8") for p in SRC.glob("*.py"))
    errors = [
        k for k, v in vars(stablekit).items()
        if isinstance(v, type) and issubclass(v, stablekit.StablekitError)
        and v is not stablekit.StablekitError
    ]
    assert len(errors) == 14
    never = [k for k in errors if not re.search(rf"\braise {k}\(", src)]
    assert never == []


def test_readme_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    assert printed[1].startswith("Branch.")
