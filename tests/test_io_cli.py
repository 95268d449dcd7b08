"""DSYS parsing/serialization, CSV output, and the command-line interface."""

import gc
import importlib
import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stablekit import (
    DescriptorSystem,
    ParseError,
    SingularPencil,
    load_dsys,
    parse_dsys,
    save_dsys,
    write_dsys,
    write_freqresp_csv,
)
from stablekit.cli import main
from stablekit.synth import random_unstable_system

from oracles import bumped_descriptor_system, eval_transfer_np

MINIMAL = """\
DSYS 1 1 1
E
1.0
A
1.0
B
1.0
C
1.0
D
0.0
"""


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "stablekit.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_scalar():
    s = parse_dsys(MINIMAL)
    assert (s.n, s.m, s.p) == (1, 1, 1)
    assert s.e[0, 0] == 1.0 and s.a[0, 0] == 1.0
    assert s.d[0, 0] == 0.0


def test_parse_zero_order_system():
    text = "DSYS 0 1 2\nE\nA\nB\nC\nD\n3.0\n-4.0\n"
    s = parse_dsys(text)
    assert (s.n, s.m, s.p) == (0, 1, 2)
    assert_allclose(s.d, [[3.0], [-4.0]])


def test_parse_comments_and_blank_lines():
    text = """
# leading comment
DSYS 1 1 1   # trailing comment
E
1.0
# interlude

A
2.0
B
3.0
C
4.0
D
5.0  # last value
"""
    s = parse_dsys(text)
    assert s.a[0, 0] == 2.0 and s.d[0, 0] == 5.0


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_dsys("DSYS 1 1\nE\n1.0\n")
    with pytest.raises(ParseError):
        parse_dsys("MODEL 1 1 1\n")
    with pytest.raises(ParseError):
        parse_dsys("DSYS one 1 1\n")
    with pytest.raises(ParseError):
        parse_dsys("DSYS -1 1 1\n")


def test_parse_error_reports_line_number():
    bad = MINIMAL.replace("A\n1.0\n", "A\n1.0 2.0\n")
    with pytest.raises(ParseError) as exc_info:
        parse_dsys(bad)
    assert exc_info.value.line_number == 5
    assert "line 5" in str(exc_info.value)
    assert "expected 1" in str(exc_info.value)


def test_parse_rejects_bad_values():
    with pytest.raises(ParseError, match="non-numeric"):
        parse_dsys(MINIMAL.replace("B\n1.0\n", "B\nx\n"))
    with pytest.raises(ParseError, match="non-finite"):
        parse_dsys(MINIMAL.replace("B\n1.0\n", "B\nnan\n"))
    with pytest.raises(ParseError, match="trailing"):
        parse_dsys(MINIMAL + "extra\n")
    with pytest.raises(ParseError, match="end of file"):
        parse_dsys("DSYS 1 1 1\nE\n1.0\nA\n")
    with pytest.raises(ParseError, match="block label"):
        parse_dsys(MINIMAL.replace("C\n", "Q\n"))


# row 3 of A sits on line 10: the header, E and its three rows, A, a
# comment line, then A's rows
EXTREME_A_ROW3 = 10


def _extreme_system():
    # -0.0 in A, the smallest subnormal and the largest double in B, C and D
    tiny, huge = 5e-324, 1.7976931348623157e308
    return DescriptorSystem(
        np.eye(3),
        np.array([[-1.0, -0.0, 0.5], [0.0, -2.0, -0.0], [1e-300, 0.0, 3.0]]),
        np.array([[huge, -0.0], [tiny, 1.0], [-tiny, -huge]]),
        np.array([[1.0, -0.0, tiny], [huge, 2.5, -1.0]]),
        np.array([[-0.0, tiny], [huge, 0.1]]),
    )


def _extreme_text_with_a_row3(token):
    lines = write_dsys(_extreme_system()).splitlines()
    lines.insert(6, "# A follows")
    row = lines[EXTREME_A_ROW3 - 1].split()
    lines[EXTREME_A_ROW3 - 1] = " ".join([row[0], token, row[2]])
    return "\n".join(lines) + "\n"


def test_write_dsys_matches_a_per_entry_repr_oracle():
    s = _extreme_system()
    want = [f"DSYS {s.n} {s.m} {s.p}"]
    for label, mat in zip("EABCD", (s.e, s.a, s.b, s.c, s.d)):
        want.append(label)
        want.extend(" ".join(repr(float(x)) for x in row) for row in mat)
    text = write_dsys(s)
    assert text == "\n".join(want) + "\n"
    assert "-0.0" in text and "5e-324" in text and "1.7976931348623157e+308" in text
    back = parse_dsys(text)
    for got, orig in zip((back.a, back.b, back.c, back.d), (s.a, s.b, s.c, s.d)):
        assert got.tobytes() == orig.tobytes()  # signs of zero included


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
def test_parse_rejects_a_non_finite_row_at_its_own_line(token):
    assert parse_dsys(_extreme_text_with_a_row3("0.25")).a[2, 1] == 0.25
    with pytest.raises(ParseError, match="block A row 3 has a non-finite entry") as exc_info:
        parse_dsys(_extreme_text_with_a_row3(token))
    assert exc_info.value.line_number == EXTREME_A_ROW3


def test_parse_validates_the_system():
    text = (
        "DSYS 2 1 1\nE\n1.0 0.0\n0.0 0.0\nA\n1.0 0.0\n0.0 0.0\n"
        "B\n1.0\n1.0\nC\n1.0 1.0\nD\n0.0\n"
    )
    with pytest.raises(SingularPencil):
        parse_dsys(text)


# 3e6 states: the E block alone would take 72 TB, so a parser that sized its
# blocks from the header died before reading a row.
OVERSIZED = "DSYS 3000000 1 1\nE\n1 2\n"


def test_parse_oversized_header_fails_on_its_first_row():
    with pytest.raises(ParseError, match="expected 3000000"):
        parse_dsys(OVERSIZED)


def test_cli_oversized_header_exit_1(tmp_path, capsys):
    path = tmp_path / "oversized.dsys"
    path.write_text(OVERSIZED)
    assert main(["approx", str(path), "--norm", "hinf", "-o", str(tmp_path / "x.dsys")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3:")


# ---------------------------------------------------------------------------
# serialization


def test_roundtrip_bit_exact():
    rng = np.random.default_rng(151)
    s = random_unstable_system(5, 2, seed=rng, m=2, p=3, descriptor=True)
    # scramble magnitudes so shortest-repr decimals carry many digits
    s = DescriptorSystem(
        s.e * np.pi,
        s.a / 3.0,
        s.b * 1e-7,
        s.c * 1e11,
        rng.standard_normal((3, 2)),
    )
    text = write_dsys(s)
    back = parse_dsys(text)
    for got, want in zip(
        (back.e, back.a, back.b, back.c, back.d), (s.e, s.a, s.b, s.c, s.d)
    ):
        assert np.array_equal(got, want)
    assert write_dsys(back) == text


def test_roundtrip_through_files(tmp_path):
    s = random_unstable_system(3, 1, seed=7)
    path = tmp_path / "model.dsys"
    save_dsys(path, s)
    back = load_dsys(path)
    assert np.array_equal(back.a, s.a)


def test_write_zero_order_system():
    from stablekit import empty_system

    s = empty_system(2, 1, [[1.5, -2.5]])
    text = write_dsys(s)
    assert text.splitlines()[0] == "DSYS 0 2 1"
    back = parse_dsys(text)
    assert np.array_equal(back.d, np.array([[1.5, -2.5]]))


# ---------------------------------------------------------------------------
# CSV output


def test_csv_scalar_exact_text():
    s = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]], [[1.0]])  # 1/(s+1)
    omegas = np.array([0.0, 1.0])
    resp = np.array([[[1.0 + 0.0j]], [[0.5 - 0.5j]]])
    for k, w in enumerate(omegas):
        assert_allclose(eval_transfer_np(s, 1j * w), resp[k], atol=1e-15)
    text = write_freqresp_csv(omegas, resp)
    assert text == "omega,re_G_1_1,im_G_1_1\n0.0,1.0,0.0\n1.0,0.5,-0.5\n"


def test_csv_column_major_layout():
    g = np.arange(6, dtype=float).reshape(2, 3) + 1j * np.arange(6).reshape(2, 3) * 10
    text = write_freqresp_csv([2.0], g[None, :, :])
    lines = text.splitlines()
    assert lines[0] == (
        "omega,re_G_1_1,im_G_1_1,re_G_2_1,im_G_2_1,"
        "re_G_1_2,im_G_1_2,re_G_2_2,im_G_2_2,"
        "re_G_1_3,im_G_1_3,re_G_2_3,im_G_2_3"
    )
    # columns run down each input column first: G[0,0], G[1,0], G[0,1], ...
    assert lines[1] == "2.0,0.0,0.0,3.0,30.0,1.0,10.0,4.0,40.0,2.0,20.0,5.0,50.0"


def test_csv_empty_grid_is_header_only():
    text = write_freqresp_csv(np.zeros(0), np.zeros((0, 1, 1), dtype=complex))
    assert text == "omega,re_G_1_1,im_G_1_1\n"


def test_csv_rejects_shape_mismatch():
    with pytest.raises(ParseError):
        write_freqresp_csv([1.0, 2.0], np.zeros((1, 1, 1), dtype=complex))


# ---------------------------------------------------------------------------
# CLI flows (subprocess level)


@pytest.fixture
def nehari_file(tmp_path):
    path = tmp_path / "nehari.dsys"
    path.write_text(MINIMAL)
    return path


def test_cli_approx_nehari_report(nehari_file, tmp_path):
    out = tmp_path / "approx.dsys"
    proc = run_cli("approx", nehari_file, "--norm", "hinf", "-o", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "approx"
    assert report["norm"] == "hinf"
    assert report["input"]["stability_class"] == "antistable"
    assert report["input"]["num_unstable_poles"] == 1
    assert report["sigma1"] == pytest.approx(0.5, abs=1e-12)
    assert report["gamma"] == pytest.approx(0.5, abs=1e-12)
    assert report["branch"] == "regular"
    assert report["error_linf"] == pytest.approx(0.5, abs=1e-8)
    # optimal scalar error is all-pass: profile is flat
    assert report["profile_max"] - report["profile_min"] <= 1e-8
    approx = load_dsys(out)
    assert_allclose(eval_transfer_np(approx, 3.0j), [[-0.5]], atol=1e-10)


def test_cli_approx_hinf_stable_input_certifies_a_zero_error(tmp_path):
    src, out = tmp_path / "stable.dsys", tmp_path / "kept.dsys"
    save_dsys(src, random_unstable_system(3, 0, seed=21))
    proc = run_cli("approx", src, "--norm", "hinf", "-o", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["error_linf"] == 0.0
    assert report["error_linf_upper"] == 0.0


def test_cli_approx_h2_stable_input(tmp_path):
    s = random_unstable_system(3, 0, seed=21)
    src = tmp_path / "stable.dsys"
    out = tmp_path / "kept.dsys"
    save_dsys(src, s)
    proc = run_cli("approx", src, "--norm", "h2", "-o", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["error_l2"] == pytest.approx(0.0, abs=1e-6)
    assert report["error_linf"] == pytest.approx(0.0, abs=1e-9)
    back = load_dsys(out)
    for w in (0.0, 1.0, 10.0):
        assert_allclose(
            eval_transfer_np(back, 1j * w), eval_transfer_np(s, 1j * w), atol=1e-12
        )


def test_cli_axis_eigenvalue_exit_2(tmp_path):
    path = tmp_path / "axis.dsys"
    path.write_text(MINIMAL.replace("A\n1.0\n", "A\n0.0\n"))
    out = tmp_path / "never.dsys"
    proc = run_cli("approx", path, "--norm", "hinf", "-o", out)
    assert proc.returncode == 2
    assert "lambda" in proc.stderr
    assert "imaginary axis" in proc.stderr
    assert not out.exists()


def test_cli_singular_pencil_exit_3(tmp_path):
    path = tmp_path / "singular.dsys"
    path.write_text(
        "DSYS 2 1 1\nE\n1.0 0.0\n0.0 0.0\nA\n1.0 0.0\n0.0 0.0\n"
        "B\n1.0\n1.0\nC\n1.0 1.0\nD\n0.0\n"
    )
    proc = run_cli("approx", path, "--norm", "h2", "-o", path.with_suffix(".out"))
    assert proc.returncode == 3
    assert "singular" in proc.stderr.lower()


def test_cli_parse_error_exit_1(tmp_path):
    path = tmp_path / "broken.dsys"
    path.write_text("DSYS 1 1\n")
    proc = run_cli("approx", path, "--norm", "h2", "-o", path.with_suffix(".out"))
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_cli_missing_file_exit_1(tmp_path):
    proc = run_cli(
        "approx", tmp_path / "nope.dsys", "--norm", "h2", "-o", tmp_path / "x.dsys"
    )
    assert proc.returncode == 1


def test_cli_usage_error_exit_1(tmp_path):
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("approx", "file.dsys", "--norm", "h3", "-o", "x").returncode == 1
    assert run_cli("approx").returncode == 1


def test_cli_gamma_factor_rejected_for_h2(nehari_file, tmp_path):
    out = tmp_path / "x.dsys"
    proc = run_cli(
        "approx", nehari_file, "--norm", "h2", "--gamma-factor", 2.0, "-o", out
    )
    assert proc.returncode == 1
    assert "--gamma-factor" in proc.stderr
    assert "hinf" in proc.stderr
    assert not out.exists()


def test_cli_generate_deterministic(tmp_path):
    out1 = tmp_path / "g1.dsys"
    out2 = tmp_path / "g2.dsys"
    p1 = run_cli("generate", "-n", 6, "-u", 2, "--seed", 42, "-o", out1)
    p2 = run_cli("generate", "-n", 6, "-u", 2, "--seed", 42, "-o", out2)
    assert p1.returncode == 0 and p2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(p1.stdout)
    assert report["output"]["order"] == 6
    assert report["output"]["num_unstable_poles"] == 2
    s = load_dsys(out1)
    from stablekit import pencil_spectrum

    assert int((pencil_spectrum(s).finite_eigenvalues.real > 0).sum()) == 2


def test_cli_generate_stable_when_no_unstable_requested(tmp_path):
    out = tmp_path / "g.dsys"
    proc = run_cli("generate", "-n", 4, "-u", 0, "--seed", 5, "-o", out)
    report = json.loads(proc.stdout)
    assert report["output"]["stability_class"] == "stable"
    assert report["output"]["num_unstable_poles"] == 0


def test_cli_generate_descriptor_flag(tmp_path):
    out = tmp_path / "gd.dsys"
    proc = run_cli("generate", "-n", 4, "-u", 1, "--seed", 9, "--descriptor", "-o", out)
    assert proc.returncode == 0
    s = load_dsys(out)
    assert np.linalg.norm(s.e - np.eye(4)) > 1e-3


def test_cli_verify_identical_files(nehari_file, tmp_path):
    stable = tmp_path / "stable.dsys"
    save_dsys(stable, random_unstable_system(3, 0, seed=33))
    proc = run_cli("verify", stable, stable, "--norm", "hinf")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["stable"] is True
    assert report["error_linf"] == pytest.approx(0.0, abs=1e-10)
    assert report["error_l2"] == pytest.approx(0.0, abs=1e-6)


def test_cli_verify_unstable_approximant_exit_4(nehari_file, tmp_path):
    stable = tmp_path / "stable.dsys"
    save_dsys(stable, random_unstable_system(2, 0, seed=13))
    # swapped order: the "approximant" is the unstable model
    proc = run_cli("verify", stable, nehari_file, "--norm", "hinf")
    assert proc.returncode == 4
    report = json.loads(proc.stdout)
    assert report["stable"] is False
    assert "error_linf" not in report
    assert "not stable" in proc.stderr


def test_cli_freqresp_matches_direct_evaluation(tmp_path):
    s = random_unstable_system(4, 2, seed=17, m=2, p=2)
    src = tmp_path / "model.dsys"
    csv_out = tmp_path / "resp.csv"
    save_dsys(src, s)
    proc = run_cli(
        "freqresp", src, "--wmin", 0.1, "--wmax", 10.0, "--points", 20, "-o", csv_out
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["points"] == 20
    rows = csv_out.read_text().splitlines()
    assert len(rows) == 21
    assert rows[0].startswith("omega,re_G_1_1,im_G_1_1,re_G_2_1")
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert data[0, 0] == pytest.approx(0.1) and data[-1, 0] == pytest.approx(10.0)
    for row in data:
        g = eval_transfer_np(s, 1j * row[0])
        flat = np.concatenate([[g[i, j].real, g[i, j].imag] for j in range(2) for i in range(2)])
        assert_allclose(row[1:], flat, atol=1e-12)


def test_cli_freqresp_two_points_from_zero_end_at_wmax(tmp_path, capsys):
    # the grid is omega = 0 plus a one-point log grid, which must be wmax
    src, csv_out = tmp_path / "model.dsys", tmp_path / "resp.csv"
    save_dsys(src, random_unstable_system(3, 1, seed=5))
    report = run_main(
        capsys, "freqresp", src, "--wmin", 0, "--wmax", 100, "--points", 2, "-o", csv_out
    )
    assert (report["points"], report["wmin"], report["wmax"]) == (2, 0.0, 100.0)
    omegas = [float(row.split(",")[0]) for row in csv_out.read_text().splitlines()[1:]]
    assert omegas == [0.0, 100.0]


@pytest.mark.parametrize("points", [0, 1, -3])
def test_cli_freqresp_rejects_fewer_than_two_points(tmp_path, points):
    src = tmp_path / "model.dsys"
    csv_out = tmp_path / "resp.csv"
    save_dsys(src, random_unstable_system(3, 1, seed=17))
    proc = run_cli("freqresp", src, f"--points={points}", "-o", csv_out)
    assert proc.returncode == 1
    assert "--points must be at least 2" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not csv_out.exists()


def test_cli_reports_deterministic_modulo_timing(nehari_file, tmp_path):
    out1 = tmp_path / "o1.dsys"
    out2 = tmp_path / "o2.dsys"
    p1 = run_cli("approx", nehari_file, "--norm", "hinf", "-o", out1)
    p2 = run_cli("approx", nehari_file, "--norm", "hinf", "-o", out2)
    assert out1.read_bytes() == out2.read_bytes()
    r1 = json.loads(p1.stdout)
    r2 = json.loads(p2.stdout)
    for r, out in ((r1, out1), (r2, out2)):
        r.pop("wall_time_s")
        assert r.pop("output")["path"] == str(out)
    assert r1 == r2


def test_cli_approx_suboptimal_gamma_factor(nehari_file, tmp_path):
    out = tmp_path / "sub.dsys"
    proc = run_cli(
        "approx", nehari_file, "--norm", "hinf", "--gamma-factor", 2.0, "-o", out
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["gamma"] == pytest.approx(1.0, abs=1e-12)
    approx = load_dsys(out)
    # suboptimal scalar approximant is -1/(3s+5)
    assert_allclose(eval_transfer_np(approx, 0.0), [[-0.2]], atol=1e-12)
    assert report["error_linf"] <= 1.0 + 1e-9
    assert report["error_linf"] == pytest.approx(0.8, abs=1e-8)


@pytest.mark.parametrize("flag, value", [("--wmin", "nan"), ("--wmax", "inf")])
def test_cli_freqresp_rejects_non_finite_bounds(tmp_path, flag, value):
    src = tmp_path / "model.dsys"
    csv_out = tmp_path / "resp.csv"
    save_dsys(src, random_unstable_system(3, 1, seed=17))
    proc = run_cli("freqresp", src, f"{flag}={value}", "-o", csv_out)
    assert proc.returncode == 1
    assert f"{flag} must be finite" in proc.stderr
    assert proc.stdout == ""
    assert not csv_out.exists()


def test_cli_approx_rejects_infinite_gamma_factor(nehari_file, tmp_path):
    out = tmp_path / "x.dsys"
    proc = run_cli(
        "approx", nehari_file, "--norm", "hinf", "--gamma-factor", "inf", "-o", out
    )
    assert proc.returncode == 1
    assert "gamma_factor must be finite" in proc.stderr
    assert not out.exists()


def run_main(capsys, *argv):
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_calls_leave_no_cyclic_garbage(tmp_path, capsys):
    # Garbage in a cycle is freed whenever the collector happens to run,
    # inside whatever call is timed or traced at that moment.
    src, out = tmp_path / "s.dsys", tmp_path / "approx.dsys"
    calls = [
        ["generate", "-n", 6, "-u", 2, "--seed", 3, "--descriptor", "-o", src],
        ["approx", src, "--norm", "hinf", "-o", out],
        ["approx", src, "--norm", "h2", "-o", out],
        ["verify", src, out, "--norm", "hinf"],
        ["freqresp", src, "--points", 5, "-o", tmp_path / "f.csv"],
    ]
    for argv in calls:
        run_main(capsys, *argv)  # first calls fill caches
        gc.collect()
        gc.disable()
        try:
            run_main(capsys, *argv)
            assert gc.collect() == 0, argv[0]
        finally:
            gc.enable()


@pytest.mark.parametrize("factor", [None, 1.01])
def test_cli_approx_hinf_norms_come_from_the_antistable_error(
    tmp_path, capsys, monkeypatch, factor
):
    # index 2, 14 states, 4 unstable poles: the error G_minus - G_hat_minus
    # has at most 8 states, the finite parts of G and G_hat have 12
    s = bumped_descriptor_system(9, n=12, n_unstable=4)
    src, out = tmp_path / "s.dsys", tmp_path / "approx.dsys"
    save_dsys(src, s)
    # the package root's ``gramians`` is the function, so fetch the module by name
    gramians = importlib.import_module("stablekit.gramians")
    response = gramians.frequency_response
    orders = []

    def recorded(system, omegas):
        orders.append(system.n)
        return response(system, omegas)

    monkeypatch.setattr(gramians, "frequency_response", recorded)
    extra = [] if factor is None else ["--gamma-factor", factor]
    approx = run_main(capsys, "approx", src, "--norm", "hinf", "-o", out, *extra)
    monkeypatch.undo()
    assert orders and max(orders) <= 8
    verify = run_main(capsys, "verify", src, out, "--norm", "hinf")
    # the optimal error is not strictly proper (L2 norm inf); the suboptimal one is
    assert np.isinf(approx["error_l2"]) == (factor is None)
    for key in ("error_linf", "error_l2"):
        assert approx[key] == pytest.approx(verify[key], rel=1e-10)
    assert approx["error_linf"] <= approx["error_linf_upper"] <= approx["gamma"] * (1.0 + 1e-6)
    assert approx["error_linf_margin"] > 0.0
