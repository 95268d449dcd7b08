"""The package surface: the names the root re-exports, and the README's library example."""

import re
import types
from pathlib import Path

import stablekit

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
    "transfer_polynomial_part", "weierstrass_split", "write_dsys",
    "write_freqresp_csv",
]


def test_package_root_exports_are_pinned():
    names = sorted(
        k for k, v in vars(stablekit).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == ROOT_EXPORTS


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
