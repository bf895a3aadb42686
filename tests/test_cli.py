import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import elliptic_dpp
from elliptic_dpp import macdonald
from elliptic_dpp.bridges import bridge_density, macdonald_kmlgv_residual, transition
from elliptic_dpp.cli import (_VERB_FLAGS, _build_parser, _check, _fields, _grid_rows, _write_csv,
                              main)
from elliptic_dpp.dpp_kernels import KernelSpec, density, exact_sample, kernel, kernel_matrix
from elliptic_dpp.macdonald import IllConditionedError
from elliptic_dpp.root_systems import FamilySpec
from elliptic_dpp.theta_core import AccuracyError
from elliptic_dpp.verification import _configs, limit_specs, limits_suite, render


def _lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_verify_all_passes_and_exits_zero(capsys):
    assert main(["verify", "--suite", "all", "--type", "C", "--N", "3"]) == 0
    lines = _lines(capsys)
    assert len(lines) >= 10
    for ln in lines:
        assert "residual=" in ln and "tol=" in ln and ln.endswith("PASS")


@pytest.mark.parametrize("argv, n_lines", [
    ("verify --type A --N 4 --t 0.05 --t-star 0.1", 15),
    ("verify --type C --N 3 --t 0.02 --t-star 0.05", 14),
], ids=["A4", "C3"])
def test_verify_prints_every_line_when_a_determinant_is_ill_conditioned(argv, n_lines, capsys):
    # M(x, t) is past its condition limit at the smallest suite time: the
    # determinant-identity line reads inf, every other suite still reports,
    # and the FAIL lines make the exit status 1
    assert main(argv.split()) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and len(lines) == n_lines
    assert [ln for ln in lines if ln.endswith(" FAIL")] == [
        "determinant-identity residual: residual=inf tol=1.0e-10 FAIL",
        "pinned-path proportionality: residual=inf tol=1.0e-09 FAIL",
        "bridge density vs spectral density: residual=inf tol=1.0e-08 FAIL",
    ]


def test_verify_suite_from_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"type": "C", "N": 2, "suite": "matrix"}))
    assert main(["verify", "--config", str(cfg)]) == 0
    assert len(_lines(capsys)) == 2          # non-A matrix suite: two checks
    assert main(["verify", "--config", str(cfg), "--type", "A"]) == 0
    assert len(_lines(capsys)) == 3          # A adds the eta closed form


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"frobnicate": 1}')
    assert main(["verify", "--config", str(cfg)]) == 2


def _status(argv):
    """Exit status of one CLI call, whether main returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["theta", "--seed", "3"],
    ["theta", "--t", "0.5"],                # not an abbreviation of --tau-im
    ["limits", "--t", "0.5"],               # nor of --type
    ["theta", "--tol", "1e-3"],
    ["kernel", "--seed", "3"],
    ["kernel", "--tol", "1e-3"],
    ["density", "--seed", "3"],
    ["density", "--tol", "1e-3"],
    ["limits", "--out", "x.txt"],
    ["limits", "--seed", "3"],
    ["limits", "--tol", "1e-30"],
    ["verify", "--out", "x.txt"],
    ["verify", "--seed", "3"],
    ["verify", "--tol", "1e-30"],
    ["sample", "--tol", "1e-3"],
    ["selberg", "--out", "x.txt"],
    ["selberg", "--tol", "1e-3"],
    ["selberg", "--method", "mc"],
    ["selberg", "--budget", "128"],
    ["selberg", "--seed", "2"],
    *[[verb, "--workers", "2"] for verb in
      ("theta", "kernel", "density", "limits", "verify", "sample", "selberg")],
], ids=" ".join)
def test_flag_the_verb_does_not_read_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _status(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb, config", [
    # keys of another verb, or of no verb
    ("verify", {"grid": 4}), ("verify", {"out": "x.txt"}), ("limits", {"t": 0.3}),
    ("limits", {"tol": 1e-30}), ("theta", {"type": "A"}), ("sample", {"suite": "all"}),
    ("selberg", {"out": "x.txt"}), ("kernel", {"workers": 2}),
    # values a flag would refuse
    ("kernel", {"grid": "abc"}), ("kernel", {"N": 2.5}), ("kernel", {"N": True}),
    ("kernel", {"t": "soon"}), ("kernel", {"type": "Z"}), ("verify", {"suite": "nope"}),
    ("theta", {"index": 7}),
    # numbers the CLI's check refuses: not finite or not positive
    ("limits", {"horizon": -5}), ("limits", {"rho": float("nan")}), ("theta", {"tau_im": 0}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_bad_config_key_or_value_is_usage_error(verb, config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([verb, "--config", str(cfg)]) == 2
    assert "error: " in capsys.readouterr().err


def test_config_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["verify", "--config", str(cfg)]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == f"error: config {cfg} must hold a JSON object\n"


@pytest.mark.parametrize("verb", ["theta", "kernel", "density"])
@pytest.mark.parametrize("grid", ["0", "-3"])
def test_grid_below_one_is_usage_error(verb, grid, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([verb, "--grid", grid]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == f"error: grid must be >= 1, got {grid}\n"
    assert list(tmp_path.iterdir()) == []


def test_unknown_type_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--type", "Z"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    "limits --horizon=-5", "limits --horizon 0", "limits --horizon inf",
    "limits --rho nan", "limits --rho -1", "theta --tau-im 0", "theta --tau-im nan",
    "theta --v-im inf", "theta --v-im nan", "theta --tau-im 1e-310",
    # rho**2 is 0, subnormal or inf, and t* rho^2 = 1e308 leaves double range in
    # tau: a ZeroDivisionError or OverflowError traceback, and exit 1 naming
    # t_star or "rho = 1.0"
    "limits --type C --N 2 --rho 1e-200", "limits --type C --N 2 --rho 1e-160",
    "limits --type C --N 2 --rho 1e200", "limits --type C --N 2 --horizon 1e308",
])
def test_bad_horizon_rho_or_tau_is_usage_error(argv, capsys):
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # limits names the flag; theta's --tau-im and --v-im reach the theta engine,
    # whose refusal names tau or the argument
    flag = [w for w in argv.split() if w.startswith("--")][-1].split("=")[0]
    assert flag in err if argv.startswith("limits") else re.match(r"error: (tau|theta arg)", err)


@pytest.mark.parametrize("r", ["1e-200", "1e-160", "1e160", "1e200"])
def test_radius_past_double_range_is_usage_error(r, capsys):
    # r**2 or 1/r**2 leaves double range
    assert main(["kernel", "--type", "A", "--N", "2", "--r", r, "--grid", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: radius r") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "kernel --type A --N 2 --r 1e154 --grid 2", "kernel --type A --N 2 --r 5e153 --grid 2",
    "verify --type C --N 2 --r 1e154", "limits --type A --N 2 --r 1e154",
])
def test_radius_underflowing_tau_is_usage_error(argv, capsys):
    # r**2 is a double, but Im tau = t / (2 pi r^2) is 0 (1e154) or subnormal
    # (5e153), past what the theta engine can use; the family's tau rule names
    # the refusing function (KernelSpec, or limits_suite at t* = 100 r^2) and r
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    r = float(argv.split()[argv.split().index("--r") + 1])
    assert re.match(rf"error: (KernelSpec|limits_suite): radius r={re.escape(repr(r))}, "
                    "duration ", err) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "kernel --type A --N 2 --r 1e-154 --grid 2", "verify --type C --N 2 --r 1e-154",
    "sample --type A --N 2 --r 1e-154 --steps 4",
])
def test_radius_overflowing_tau_is_usage_error(argv, capsys):
    # Im tau at t*, size^2 t* / (2 pi r^2), is a double, but pi Im tau (where
    # the theta prefactor pi Im tau m^2 starts) is not; the norms refuse it
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: norm_const_log: radius r=1e-154, duration 1.0: tau ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "kernel --type A --N 2 --grid 2 --out {}/k.csv",
    "sample --type A --N 2 --steps 4 --out {}/s",
])
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    # an --out in a missing directory raised FileNotFoundError out of main
    assert main(argv.format(tmp_path / "missing").split()) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.startswith("error: ") and cap.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb, flags", [
    ("kernel", "--grid 2"), ("density", "--grid 2"), ("sample", "--steps 4"),
])
def test_kernel_factor_past_double_range_is_an_error_line(verb, flags, tmp_path, capsys):
    # pi Im tau at t* is a double, so the CLI's check accepts the radius, but the
    # balanced factors' exponents near 1e308 do not cancel: no nan rows, no file
    out = tmp_path / "o"
    argv = f"{verb} --type C --N 3 --r 4.3e-154 --t 0.5 --t-star 1 {flags} --out {out}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv.split()) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.startswith("error: ") and cap.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "kernel --type A --N 2 --r 1e-153 --grid 2",                # the smallest radius in range
    "kernel --type C --N 3 --t 5e15 --t-star 1e16 --grid 2",
])
def test_kernel_factors_past_the_margin_are_an_error_line(argv, tmp_path, capsys):
    # eps max|log m_n| is past the factors' margin: there they give K(x, x) =
    # 1.59e152 and 4.64 where the trigonometric limit is 3.18e152 and 1.27.
    # An error line naming the horizon, and no file
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(f"{argv} --out {tmp_path / 'k.csv'}".split()) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.startswith("error: kernel factors at horizon t* = ")
    assert "past the margin" in cap.err and cap.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_density_past_its_round_off_margin_is_an_error_line(capsys):
    assert main(["density", "--type", "C", "--N", "3", "--t", "5e-13", "--t-star", "1e-12",
                 "--points", "0.7853983133974483,1.5707964767948965,2.356194640192345"]) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.startswith("error: density at t = 5e-13, t* - t = 5e-13")
    assert cap.err.count("\n") == 1


def test_bad_time_ordering_is_usage_error(capsys):
    assert main(["kernel", "--type", "A", "--N", "3", "--t", "2", "--t-star", "1"]) == 2


def test_kernel_grid_csv(tmp_path):
    out = tmp_path / "k.csv"
    code = main(["kernel", "--type", "A", "--N", "4", "--t", "0.5",
                 "--t-star", "1", "--grid", "12", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 1 + 12 * 12
    # 17 significant digits must round-trip against the library value
    ks = KernelSpec(("A", 4, 1.0), t=0.5, t_star=1.0)
    x0, y0, re0, im0 = map(float, lines[1].split(","))
    assert x0 == y0
    assert re0 == complex(kernel(ks, x0, y0)).real
    assert abs(im0) < 1e-14


@pytest.mark.parametrize("family, t, t_star", [
    (("C", 4, 1.0), 20.0, 50.0),                      # t != t*/2
    (("A", 4, 1.0), 0.01 * 2.0 * np.pi / 16.0, 1.0),  # Im tau ~ 0.01
], ids=["C4-t20-tstar50", "A4-small-t"])
@pytest.mark.parametrize("grid", [1, 2, 7])
def test_kernel_csv_is_per_value_formatting(family, t, t_star, grid, tmp_path):
    out = tmp_path / "k.csv"
    assert main(["kernel", "--type", family[0], "--N", str(family[1]), "--t", repr(t),
                 "--t-star", repr(t_star), "--grid", str(grid), "--out", str(out)]) == 0
    ks = KernelSpec(family, t=t, t_star=t_star)
    xs = (np.arange(grid) + 0.5) * (FamilySpec(*family).length / grid)
    vals = kernel_matrix(ks, xs, xs)
    lines = ["x,y,re,im"] + [
        ",".join(f"{float(v):.17g}" for v in (x, y, vals[i, j].real, vals[i, j].imag))
        for i, x in enumerate(xs) for j, y in enumerate(xs)]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_theta_verb_writes_grid(capsys):
    assert main(["theta", "--index", "2", "--tau-im", "0.9", "--grid", "6"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 7


def test_theta_past_double_range_is_an_error_line(tmp_path, capsys):
    # theta overflows here; no inf/nan row, no file, no numpy warning
    out = tmp_path / "th.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["theta", "--index", "2", "--tau-im", "0.01", "--v-im", "-20",
                     "--grid", "4", "--out", str(out)]) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.startswith("error: ") and cap.err.count("\n") == 1
    assert not out.exists()


def test_smallest_normal_tau_im_runs_without_warnings(tmp_path, capsys):
    # tau -> -1/tau gives Im tau = 4.5e307, where the exponent of an exactly
    # zero series term overflows to -inf; theta_2(v | i eps) is eps^(-1/2)
    # = 2^511 at v = 0 and 0 at v = 1/2
    out = tmp_path / "th.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["theta", "--tau-im", "2.2250738585072014e-308", "--grid", "2",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,re,im"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(rows[:, :2], [[0.0, 0.0], [0.5, 0.0]])
    assert np.allclose(rows[:, 2:], [[2.0**511, 0.0], [0.0, 0.0]],
                       rtol=1e-13, atol=1e-13 * 2.0**511)


def test_density_grid_is_the_kernel_diagonal(tmp_path):
    # the intensity column equals diag(kernel_matrix).real bit for bit
    for tag, t in (("BC", 0.4), ("A", 0.5)):
        out = tmp_path / f"{tag}.csv"
        assert main(["density", "--type", tag, "--N", "3", "--t", str(t), "--t-star", "1",
                     "--grid", "16", "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        ks = KernelSpec((tag, 3, 1.0), t=t, t_star=1.0)
        xs = data[:, 0]
        assert data[:, 2].tobytes() == np.diag(kernel_matrix(ks, xs, xs)).real.tobytes()


def test_density_points_matches_library(capsys):
    assert main(["density", "--type", "C", "--N", "3", "--t", "0.4",
                 "--t-star", "1", "--points", "0.5,1.2,2.0"]) == 0
    val = float(_lines(capsys)[-1].split("=")[1])
    ks = KernelSpec(("C", 3, 1.0), t=0.4, t_star=1.0)
    assert abs(val - density(ks, np.array([0.5, 1.2, 2.0]))) < 1e-13


def test_density_wrong_point_count_is_usage_error(capsys):
    assert main(["density", "--type", "C", "--N", "3",
                 "--points", "0.5,1.2"]) == 2


@pytest.mark.parametrize("tag, N, points", [
    ("C", 3, "-0.5,1.5,2.0"),               # below the wall at 0
    ("C", 3, "0.5,1.5,5.0"),                # beyond the wall at pi r
    ("A", 2, "0.5,6.283185307179586"),      # the circle alcove is [0, 2 pi r)
    ("A", 2, "nan,1.0"),
    ("A", 2, "inf,1.0"),
])
def test_density_points_outside_alcove_is_usage_error(tag, N, points, capsys):
    assert main(["density", "--type", tag, "--N", str(N),
                 f"--points={points}"]) == 2
    assert capsys.readouterr().err.startswith("error: --points must be finite")


@pytest.mark.parametrize("points", ["0.5,1.2,x", "0.5,,2.0", ""])
def test_density_points_not_numbers_is_usage_error_naming_the_flag(points, capsys):
    # a field that is not a number, and an empty field
    assert main(["density", "--type", "C", "--N", "3", f"--points={points}"]) == 2
    assert capsys.readouterr().err == (f"error: --points must be comma-separated numbers, "
                                       f"got {points!r}\n")


def test_density_points_on_walls_and_coincident_are_allowed(capsys):
    assert main(["density", "--type", "C", "--N", "3",
                 "--points", "0,1.5,3.141592653589793"]) == 0
    assert main(["density", "--type", "A", "--N", "2", "--points", "1.0,1.0"]) == 0
    assert _lines(capsys) == ["density=0", "density=0"]


def test_limits_reports_honest_sine_gap(capsys):
    # at the default horizon the sine leg misses 1e-6 by design; the other
    # three legs (trig, convergence law, N -> infinity) must pass
    assert main(["limits", "--type", "A", "--N", "5"]) == 1
    lines = _lines(capsys)
    assert len(lines) == 4
    verdicts = {ln.split(":")[0]: ln.rsplit(" ", 1)[1] for ln in lines}
    assert verdicts["trigonometric limit (t*/r^2 = 100)"] == "PASS"
    assert verdicts["sine limit (t*rho^2 = 50)"] == "FAIL"
    assert verdicts["sine convergence law (deviation x horizon)"] == "PASS"
    assert verdicts["infinite kernel vs finite N=64 A (limit A)"] == "PASS"


@pytest.mark.parametrize("tag, sharp", [("A", "A"), ("B", "B"), ("Bv", "B"), ("C", "C"),
                                        ("Cv", "C"), ("BC", "C"), ("D", "D")])
def test_limits_large_n_line_reads_the_run_family(tag, sharp):
    # the family of the run's tag at N = 64 and density rho, at t/t* = 0.1 and
    # 0.5, against its infinite kernel; the run's own N does not enter
    for N in ((2,) if tag == "D" else (1, 2)):
        for rho in (1e-3, 1.0, 1.5, 1e3):
            d = FamilySpec(tag, N, 1.0)
            row = limits_suite(d, limit_specs(d, rho, 50.0))[-1]
            assert row.name == f"infinite kernel vs finite N=64 {tag} (limit {sharp})"
            assert row.tol == 1e-10 and row.residual <= 1e-13, (N, rho, row.residual)


def test_limits_refuses_a_rho_the_large_n_line_cannot_take(capsys):
    # the sine lines take rho = 3e-153, but the N = 64 family's radius
    # r = size / (2 pi rho) puts its tau at t* = 1 / rho^2 below the normal doubles
    assert main(["limits", "--type", "C", "--N", "2", "--rho", "3e-153"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --rho 3e-153 and --horizon 50.0: KernelSpec: radius r=")
    assert err.count("\n") == 1


def test_limits_names_the_sine_spec_it_refuses(capsys):
    # rho = 1.5e-153 was refused as "rho too large" at horizon 200, where
    # tau ~ 628i; the law's horizon 800 puts t* = 800 / rho^2 past double range
    assert main(["limits", "--type", "C", "--N", "2", "--rho", "1.5e-153"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --rho 1.5e-153 and --horizon 50.0: the sine law at "
                          "t*rho^2 = 800, InfiniteKernelSpec('C', rho=1.5e-153, ")
    assert "t_star=inf): need 0 < t < t_star < inf" in err and err.count("\n") == 1


def test_limits_prints_the_rendered_limits_suite(capsys):
    assert main(["limits", "--type", "C", "--N", "3", "--rho", "1.5",
                 "--horizon", "300"]) == 1
    d = FamilySpec("C", 3, 1.0)
    rows = limits_suite(d, limit_specs(d, 1.5, 300.0))
    assert capsys.readouterr().out == render(rows) + "\n"
    assert [row.passed for row in rows] == [True, False, True, True]


def test_selberg_verb(capsys):
    assert main(["selberg", "--type", "A", "--N", "1",
                 "--t", "0.4", "--t-star", "1"]) == 0
    lines = _lines(capsys)
    assert lines[0].startswith("lhs=")
    assert lines[1].endswith("PASS")


def test_selberg_with_defaults_passes(capsys):
    # A4 at (0.5, 1): one midpoint rule for every N, tolerance 1e-8
    assert main(["selberg"]) == 0
    lines = _lines(capsys)
    assert lines[0].startswith("lhs=") and lines[0].endswith(" rhs=24")
    assert lines[1].startswith("closed-form integral: ") and lines[1].endswith(
        " tol=1.0e-08 PASS")


@pytest.mark.parametrize("argv, lines", [
    ("verify --suite all --type C --N 3 --t 0.4 --t-star 1", 14),
    ("selberg --type A --N 2", 2),
], ids=["verify", "selberg"])
def test_a_run_builds_one_spec_and_evaluates_its_norms_once(argv, lines, monkeypatch, capsys):
    # the run's KernelSpec, built by `_check`, is the one every suite and
    # selberg_check reads: one construction, one norm evaluation
    specs, norms = [], []
    post_init, norm_const_log = macdonald.KernelSpec.__post_init__, macdonald.norm_const_log

    def counted_post_init(self):
        specs.append(self)
        post_init(self)

    def counted_norms(*args):
        norms.append(args)
        return norm_const_log(*args)

    monkeypatch.setattr(macdonald.KernelSpec, "__post_init__", counted_post_init)
    monkeypatch.setattr(macdonald, "norm_const_log", counted_norms)
    assert main(argv.split()) == 0
    assert len(_lines(capsys)) == lines
    assert (len(specs), len(norms)) == (1, 1)


def test_selberg_past_the_row_limit_is_an_engine_error(capsys):
    # 52 nodes per dimension resolve D4 at t = 0.01; 52^4 rows are refused
    assert main(["selberg", "--type", "D", "--N", "4", "--t", "0.01"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: midpoint rule needs 52^4 = 7311616 points, past the limit 1048576\n"


def test_selberg_at_a_small_time_passes(capsys):
    # the Euler products of a(t) underflow plain doubles at this time; with
    # a(t) in log form the density integrates to N! = 2
    assert main(["selberg", "--type", "C", "--N", "2", "--t", "0.0003", "--t-star", "1"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and len(lines) == 2
    assert lines[0].startswith("lhs=") and lines[0].endswith(" rhs=2")
    assert lines[1].startswith("closed-form integral: ") and lines[1].endswith(" PASS")


def test_sample_outputs_are_byte_identical_for_fixed_seed(tmp_path, capsys):
    args = ["sample", "--type", "A", "--N", "3", "--steps", "128", "--seed", "11"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert main(args[:-1] + ["12", "--out", str(c)]) == 0
    sa = (tmp_path / "a_states.json").read_bytes()
    sb = (tmp_path / "b_states.json").read_bytes()
    sc = (tmp_path / "c_states.json").read_bytes()
    assert sa == sb
    assert sa != sc
    ha = (tmp_path / "a_hist.csv").read_bytes()
    assert ha == (tmp_path / "b_hist.csv").read_bytes()
    lines = ha.decode().strip().splitlines()
    assert lines[0] == "bin_left,bin_right,count,density,stderr"
    meta = json.loads(sa)
    assert meta["seed"] == 11
    assert len(meta["states"]) == 128      # --steps counts the states written
    assert not {"burn_in", "thinning", "chains", "acceptance_rates"} & set(meta)
    assert 0.0 < meta["tabulation_error"] < 1e-3
    assert meta["nodes"] == 513            # the first table, proven before any draw


@pytest.mark.parametrize("argv", [
    "sample --type A --N 4 --t 0.5 --t-star 1 --steps 512 --bins 8 --seed 12345",
    "sample --type C --N 3 --t 0.3 --t-star 1 --steps 256 --bins 12 --seed 5",
])
def test_sample_bytes_do_not_depend_on_blas_threads(argv, tmp_path):
    # each table product is its own per-row matmul; with one and with two
    # OpenBLAS threads the written files are the same bytes
    src = str(Path(elliptic_dpp.__file__).resolve().parents[1])
    files = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = tmp_path / threads
        run.mkdir()
        subprocess.run([sys.executable, "-m", "elliptic_dpp.cli", *argv.split(), "--out", "s"],
                       cwd=run, env=env, check=True, capture_output=True)
        files.append([(run / name).read_bytes() for name in ("s_states.json", "s_hist.csv")])
    assert files[0] == files[1]


@pytest.mark.parametrize("flag", ["--burn-in", "--thinning", "--chains"])
def test_sample_rejects_metropolis_flags(flag):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--steps", "8", flag, "4"])
    assert exc.value.code == 2


def test_sample_zero_steps_is_usage_error(capsys):
    assert main(["sample", "--steps", "0"]) == 2


def test_density_at_a_small_horizon_agrees_with_the_bridge(capsys):
    # det M(t) is far past its condition limit at this small horizon; the
    # product has no cancellation, and the pinned-bridge route agrees
    pts = [3.262007931706325, 5.999357297695662, 6.091201433480969]
    assert main(["density", "--type", "A", "--N", "3", "--t", "0.1", "--t-star", "0.25",
                 "--points", ",".join(map(repr, pts))]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("density=") and len(out.splitlines()) == 1
    val = float(out.split("=")[1])
    ref = bridge_density(KernelSpec(("A", 3, 1.0), 0.1, 0.25), pts)
    assert abs(val - ref) <= 1e-8 * ref


def test_verify_prints_every_line_at_a_small_horizon(capsys):
    # M(x, t) is past its condition limit here: only the determinant-identity
    # line fails (inf); the bridge-density line is finite and every suite reports
    assert main(["verify", "--type", "A", "--N", "3", "--t", "0.1",
                 "--t-star", "0.25"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and len(lines) == 15
    assert [ln for ln in lines if ln.endswith(" FAIL")] == [
        "determinant-identity residual: residual=inf tol=1.0e-10 FAIL"]
    assert any(ln.startswith("bridge density vs spectral density: ") and ln.endswith(" PASS")
               for ln in lines)


@pytest.mark.parametrize("tag, N, r", [("C", "2", "0.05"), ("A", "4", "0.01")])
def test_chapman_kolmogorov_line_fails_on_a_zero_kernel(tag, N, r, capsys):
    # theta(x - y) - theta(x + y) cancels to 0 (C2) or theta_2 underflows (A4):
    # the kernel between the suite's points reads 0, and a residual of 0 - 0
    # against an absolute bound must not pass
    d = FamilySpec(tag, int(N), float(r))
    assert transition(d, 0.0, 0.3 * d.length, 1.0, 0.7 * d.length) == 0.0
    assert main(["verify", "--type", tag, "--N", N, "--r", r,
                 "--t", "0.5", "--t-star", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "Chapman-Kolmogorov: residual=inf tol=1.0e-10 FAIL" in out


def test_ill_conditioned_bridge_fails_only_its_check(capsys):
    # at this horizon bridge_density refuses its matrices; verify must still
    # report every suite and fail just the bridge-density line
    assert main(["verify", "--type", "B", "--N", "2", "--t", "20",
                 "--t-star", "50"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "bridge density vs spectral density: residual=inf tol=1.0e-08 FAIL" in out
    assert "Chapman-Kolmogorov" in out[out.index(
        "bridge density vs spectral density: residual=inf tol=1.0e-08 FAIL") - 1]
    assert any(ln.startswith("kernel trace = N") and ln.endswith("PASS") for ln in out)
    # the pinned-path matrix P is past the same condition limit here
    assert "pinned-path proportionality: residual=inf tol=1.0e-09 FAIL" in out


@pytest.mark.parametrize("tag, N, t, t_star", [("A", "4", "5", "10"), ("A", "4", "8", "20"),
                                               ("A", "3", "20", "50")])
def test_pinned_path_passes_where_the_weight_matrix_grows(tag, N, t, t_star, capsys):
    # r(t) is a DFT-type matrix times the row growth e^{J^2 t / 2 r^2}: its
    # plain condition is 1.1e13 (A4 at t = 5) or inf, but logdet divides the
    # growth out exactly, so the pinned-path line is finite and passes
    main(["verify", "--type", tag, "--N", N, "--t", t, "--t-star", t_star])
    out = capsys.readouterr().out.splitlines()
    line = next(ln for ln in out if ln.startswith("pinned-path proportionality: "))
    residual = float(line.split("residual=")[1].split()[0])
    assert residual <= 1e-9 and line.endswith(" PASS"), line


def test_ill_conditioned_pinned_matrix_fails_only_its_check(capsys):
    # at this horizon the pinned heat-kernel matrix P is past logdet's
    # condition limit (9.8e15); verify must still print every suite's lines
    # and fail the pinned-path line with residual inf
    d = FamilySpec("C", 4, 1.0)
    with pytest.raises(IllConditionedError, match=r"^bridge matrix P #1 of 5 condition ~ 9\.8"):
        macdonald_kmlgv_residual(d, 5.0, _configs(107, d, 5))
    assert main(["verify", "--type", "C", "--N", "4", "--t", "5", "--t-star", "10"]) == 1
    out = capsys.readouterr().out.splitlines()
    names = [ln.split(":")[0] for ln in out]
    assert names == [
        "theta engine vs series oracle", "theta quasi-periodicity",
        "theta imaginary transform", "biorthogonality off-diagonal",
        "biorthogonality norms", "determinant-identity residual",
        "weight-matrix identity", "pinned-path proportionality",
        "transition vs winding images", "Chapman-Kolmogorov",
        "bridge density vs spectral density", "kernel trace = N",
        "reproducing identity", "density nonnegativity"]
    assert "pinned-path proportionality: residual=inf tol=1.0e-09 FAIL" in out


@pytest.mark.parametrize("parts", [1, 2, 3, 7])
def test_grid_writer_matches_per_value_formatting(parts, tmp_path, cpus):
    # the streaming row writer must give the bytes of formatting every value
    # with f"{v:.17g}", including -0.0, subnormals, huge and tiny values, in
    # every part count (the grid's 524 288 numbers allow 8; 7 does not divide
    # its 512 rows)
    forks = cpus(parts)
    rng = np.random.default_rng(0)
    n = 512
    xs = (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    vals = (rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
            + 1j * rng.standard_normal((n, n)))
    vals.real[0, :5] = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308]
    vals.imag[1, :3] = [-0.0, 4.9e-324, -1e-320]
    out = tmp_path / "g.csv"
    _write_csv(str(out), "x,y,re,im\n", _grid_rows(xs, lambda lo, hi: vals[lo:hi]))
    lines = ["x,y,re,im"]
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            lines.append(",".join(f"{float(v):.17g}" for v in
                                  (x, y, vals[i, j].real, vals[i, j].imag)))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert len(forks) == parts - 1


def _sweep(case):
    """The formatter's inputs, by case."""
    rng = np.random.default_rng(2701)
    if case == "bit patterns":
        return rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    if case == "3 ulps around powers of ten":
        up = down = [10.0 ** np.arange(-323, 309)]
        for _ in range(3):
            up, down = up + [np.nextafter(up[-1], np.inf)], down + [np.nextafter(down[-1], 0.0)]
        near = np.concatenate(up + down[1:])
        return np.concatenate([near, -near])
    if case == "decimal midpoints":       # 17 digits, then a 5
        return np.array([float(f"{m}5e{e}") for m, e in zip(
            rng.integers(10**16, 10**17, 10**5).tolist(), rng.integers(-300, 290, 10**5).tolist())])
    if case == "normals":
        return rng.standard_normal(300000) * 10.0 ** rng.integers(-300, 300, 300000)
    return np.array([                     # E = -5, -4, 16, 17 and their edges, 3-digit
        1.5e-5, 9.9999999999999995e-5, 1e-4, 1.2345e-4, 0.00012345678901234567,
        1e16, 1.2201327477289800e16, 9.999999999999998e16, 1e17, 1.5e17,
        1e-100, 1e100, -2.5e-123, 1.7976931348623157e308, 2.2250738585072014e-308,
        5e-324, -5e-324, 1e-280, 1e280, 9.9999999999999996e-281,
        0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -3.0, 0.5, 0.1, 1 / 3, 100.0])


@pytest.mark.parametrize("case", ["bit patterns", "3 ulps around powers of ten",
                                  "decimal midpoints", "normals", "special values"])
def test_fields_are_percent_g(case):
    v = _sweep(case)
    text = np.insert(_fields(v), 0, ord("\n"), axis=1).tobytes().translate(None, b"\0")
    assert text.decode().split("\n")[1:] == ["%.17g" % x for x in v.tolist()]


def test_a_rounding_tie_takes_the_per_value_path(monkeypatch):
    # 1e15 + 0.25 is exact, and its 18th significant digit, the last, is a 5:
    # scaled to 17 digits its fraction is exactly 1/2, which the doubles
    # cannot round; its neighbours they can
    seen = []
    percent_g = elliptic_dpp.cli._percent_g
    monkeypatch.setattr(elliptic_dpp.cli, "_percent_g",
                        lambda v: seen.extend(v.tolist()) or percent_g(v))
    v = np.array([1e15 + 0.25, np.nextafter(1e15 + 0.25, 0.0), np.nextafter(1e15 + 0.25, 2e15)])
    text = np.insert(_fields(v), 0, ord("\n"), axis=1).tobytes().translate(None, b"\0")
    assert text.decode().split("\n")[1:] == ["%.17g" % x for x in v.tolist()]
    assert seen == [1e15 + 0.25] and "%.17g" % seen[0] == "1000000000000000.2"


def test_a_kernel_grid_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma's first import costs a CLI call ~15 ms; np.unique would import it
    src = str(Path(elliptic_dpp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; from elliptic_dpp.cli import main; "
            "assert main('kernel --grid 64 --out k.csv'.split()) == 0; "
            "print('numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout == "False\n" and (tmp_path / "k.csv").stat().st_size > 0


@pytest.mark.parametrize("argv, count", [
    ("kernel --type A --N 4 --t 0.5 --t-star 1 --grid 256", 2),     # 131 072 numbers
    ("kernel --type C --N 3 --t 0.2 --t-star 1 --grid 512", 3),
    ("density --type A --N 4 --t 0.5 --t-star 1 --grid 49152", 3),  # 196 608 numbers
])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_every_part_count_writes_the_same_bytes(argv, count, to_file, tmp_path, cpus, capfd):
    written = []
    for n in (1, count):
        forks = cpus(n)
        out = tmp_path / f"{n}.csv"
        assert main(argv.split() + (["--out", str(out)] if to_file else [])) == 0
        cap = capfd.readouterr()
        assert len(forks) == n - 1 and cap.err == ""
        written.append(out.read_text() if to_file else cap.out)
        assert (cap.out == "") == to_file
    assert written[0] == written[1] and written[0].startswith("x,y,re,im\n")


def test_kernel_writes_the_same_bytes_at_one_two_and_three_parts(tmp_path, cpus, capsys):
    # 317 rows (2 x 317^2 = 200 978 numbers, room for 3 parts) at t != t*/2:
    # each part sums its own rows' modes; the bytes are the same at every count
    written = []
    for n in (1, 2, 3):
        forks = cpus(n)
        out = tmp_path / f"{n}.csv"
        assert main(f"kernel --type D --N 4 --t 0.3 --t-star 1 --grid 317 --out {out}"
                    .split()) == 0
        assert len(forks) == n - 1 and capsys.readouterr().err == ""
        written.append(out.read_bytes())
    assert written[1] == written[0] and written[2] == written[0]
    assert written[0].count(b"\n") == 1 + 317 * 317


KERNEL = "kernel --type C --N 3 --t 0.2 --t-star 1 --grid 256"     # 2 parts of 128 rows


@pytest.fixture
def kernel_bytes(tmp_path_factory):
    out = tmp_path_factory.mktemp("kernel") / "k.csv"
    assert main(f"{KERNEL} --out {out}".split()) == 0
    return out.read_bytes()


def test_kernel_to_a_pipe_writes_the_bytes_of_out(kernel_bytes, tmp_path):
    # a real stdout: sys.stdout.buffer, then the rest of the process's text
    src = str(Path(elliptic_dpp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "elliptic_dpp.cli", *KERNEL.split()],
                         cwd=tmp_path, env=env, capture_output=True, check=True)
    assert run.stdout == kernel_bytes and run.stderr == b""


@pytest.mark.parametrize("parts", [1, 2])
def test_kernel_to_a_captured_stdout_writes_the_bytes_of_out(parts, kernel_bytes, cpus, capsys):
    # capsys' stdout has a bytes buffer but no file descriptor; text printed
    # before and after the table keeps its place around it
    cpus(parts)
    print("before")
    assert main(KERNEL.split()) == 0
    print("after")
    assert capsys.readouterr().out.encode() == b"before\n" + kernel_bytes + b"after\n"


@pytest.mark.parametrize("parts", [1, 2])
def test_kernel_to_a_text_stream_writes_the_bytes_of_out(parts, kernel_bytes, cpus):
    # an io.StringIO has no bytes buffer: the table's ASCII goes in as text
    cpus(parts)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        print("before")
        assert main(KERNEL.split()) == 0
        assert main("density --points 0.5,1,2 --type C --N 3".split()) == 0
    assert text.getvalue().encode().startswith(b"before\n" + kernel_bytes + b"density=")


def test_a_kernel_grid_part_never_holds_the_whole_kernel(tmp_path, cpus):
    # one part of a 1024 grid: its rows are summed and formatted a block at a
    # time, so the traced peak stays below a quarter of the 16.8 MB matrix
    n = 1024
    cpus(1)
    main(f"kernel --type A --N 4 --grid 8 --out {tmp_path / 'warm.csv'}".split())
    tracemalloc.start()
    try:
        assert main(f"kernel --type A --N 4 --grid {n} --out {tmp_path / 'k.csv'}".split()) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16 / 4, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("fail", [ValueError, KeyboardInterrupt])
def test_a_failing_writer_is_an_error_line_naming_its_rows(fail, tmp_path, monkeypatch, cpus,
                                                          capsys):
    # three parts of the 512 grid rows: [0, 170), [170, 341), [341, 512); the
    # middle child raises (KeyboardInterrupt too ends a child with status 1)
    # and sends back its exception, the last child is killed or reaped before
    # main returns, and the half-written table is removed
    cpus(3)

    def failing(xs, values):
        n, numbers, write = _grid_rows(xs, values)

        def write_or_raise(fh, lo, hi):
            if lo == 170:
                raise fail("a row of the middle part")
            write(fh, lo, hi)
        return n, numbers, write_or_raise

    monkeypatch.setattr(elliptic_dpp.cli, "_grid_rows", failing)
    out = tmp_path / "k.csv"
    assert main(f"kernel --type A --N 4 --grid 512 --out {out}".split()) == 2
    cap = capsys.readouterr()
    assert cap.err == ("error: the writer of rows 170..340 of 512 exited with status 1: "
                       f"{fail.__name__}: a row of the middle part\n")
    assert not out.exists()


def test_a_killed_writer_is_named_as_killed(tmp_path, monkeypatch, cpus, capsys):
    # the child of rows [256, 512) dies by SIGKILL after writing some rows
    cpus(2)

    def killed(xs, values):
        n, numbers, write = _grid_rows(xs, values)

        def write_or_die(fh, lo, hi):
            write(fh, lo, hi - 1)
            if lo == 256:
                fh.flush()
                os.kill(os.getpid(), signal.SIGKILL)
            write(fh, hi - 1, hi)
        return n, numbers, write_or_die

    monkeypatch.setattr(elliptic_dpp.cli, "_grid_rows", killed)
    out = tmp_path / "k.csv"
    assert main(f"kernel --type A --N 4 --grid 512 --out {out}".split()) == 2
    assert capsys.readouterr().err == (
        f"error: the writer of rows 256..511 of 512 was killed by signal {int(signal.SIGKILL)}\n")
    assert not out.exists()


def test_an_interrupted_writer_kills_its_children(tmp_path, cpus):
    # the parent raises on its own part while its two children are still
    # formatting (they would take a minute): both are killed and reaped
    cpus(3)

    def write(fh, lo, hi):
        if lo == 0:
            raise KeyboardInterrupt
        time.sleep(60.0)

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _write_csv(str(tmp_path / "t.csv"), "x\n", (3, 3 * 2**16, write))
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.parametrize("one_part", ["no sched_getaffinity", "no fork", "a second thread"])
def test_writer_forks_nothing_where_it_cannot(one_part, tmp_path, monkeypatch, cpus):
    forks = cpus(4)
    if one_part == "a second thread":
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
    else:
        monkeypatch.delattr(os, one_part.split()[1])
    xs = np.arange(256.0)
    out = tmp_path / "k.csv"
    try:
        _write_csv(str(out), "x,y,re,im\n",
                   _grid_rows(xs, lambda lo, hi: np.outer(xs[lo:hi], xs) * (1.0 + 0.5j)))
    finally:
        if one_part == "a second thread":
            done.set()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
    assert forks == [] and len(out.read_text().splitlines()) == 1 + 256 * 256


def test_sample_writes_the_same_files_in_every_part_count(tmp_path, cpus, capsys):
    # 3 648 states on A4's table, proven at t = t*/2: up to 7 parts of 512
    # or more drawn at once
    written = []
    for n in (1, 2, 3, 7):
        forks = cpus(n)
        prefix = tmp_path / str(n)
        assert main(f"sample --type A --N 4 --t 0.5 --t-star 1 --steps 3648 --seed 7 "
                    f"--out {prefix}".split()) == 0
        assert len(forks) == n - 1 and capsys.readouterr().err == ""
        written.append([Path(f"{prefix}_{name}").read_bytes() for name in ("states.json",
                                                                           "hist.csv")])
    assert all(files == written[0] for files in written[1:])


@pytest.mark.parametrize("tag, N, steps, seed", [("A", 4, 300, 7), ("C", 1, 100, 2)])
def test_states_file_is_percent_g_rows_of_the_sampled_positions(tag, N, steps, seed, tmp_path,
                                                                 capsys):
    # the metadata is json.dumps' text; each state is one "[x1,...,xN]" row of
    # "%.17g" numbers, which load back to the sampled doubles bit for bit
    prefix = tmp_path / "s"
    assert main(f"sample --type {tag} --N {N} --steps {steps} --seed {seed} "
                f"--out {prefix}".split()) == 0
    capsys.readouterr()
    res = exact_sample(KernelSpec((tag, N, 1.0), t=0.5, t_star=1.0), steps, seed=seed)
    text = Path(f"{prefix}_states.json").read_text()
    loaded = json.loads(text)
    states = np.asarray(loaded.pop("states"), dtype=np.float64)
    assert states.shape == (steps, N)
    assert np.array_equal(states.view(np.int64), res.positions.view(np.int64))
    assert loaded == {"type": tag, "N": N, "r": 1.0, "t": 0.5, "t_star": 1.0, "seed": seed,
                      "steps": steps, "tabulation_error": res.tabulation_error,
                      "nodes": res.nodes}
    rows = ",".join("[" + ",".join("%.17g" % v for v in row) + "]"
                    for row in res.positions.tolist())
    assert text == (json.dumps({**loaded, "states": []}, sort_keys=True, separators=(",", ":"))
                    .replace("[]", "[" + rows + "]") + "\n")


def test_states_file_is_the_same_bytes_in_every_part_count(tmp_path, monkeypatch, cpus, capsys):
    # 300 states of 4 numbers at 64 numbers a part: the states array and the
    # histogram (40 bins of 5 numbers) split into as many parts as CPUs
    monkeypatch.setattr(elliptic_dpp.cli, "_PART_NUMBERS", 64)
    written = []
    for n in (1, 2, 3):
        forks = cpus(n)
        prefix = tmp_path / str(n)
        assert main(f"sample --steps 300 --seed 7 --out {prefix}".split()) == 0
        assert len(forks) == 2 * (n - 1) and capsys.readouterr().err == ""
        written.append([Path(f"{prefix}_{name}").read_bytes() for name in ("states.json",
                                                                           "hist.csv")])
    assert all(files == written[0] for files in written[1:])
    json.loads(written[0][0])


@pytest.mark.parametrize("parts, err", [
    (1, "error: a state row\n"),
    (2, "error: the writer of rows 150..299 of 300 exited with status 1: "
        "ValueError: a state row\n"),
], ids=["1 part", "2 parts"])
def test_a_failing_states_writer_is_an_error_line_and_leaves_no_file(parts, err, tmp_path,
                                                                     monkeypatch, cpus, capsys):
    # the states writer raises after the last row, in this process at 1 part
    # and in the child of rows 150..299 at 2: exit 2, and no file is left
    monkeypatch.setattr(elliptic_dpp.cli, "_PART_NUMBERS", 64)
    cpus(parts)
    rows = elliptic_dpp.cli._rows

    def failing(*cols, json_array=False):
        n, numbers, write = rows(*cols, json_array=json_array)

        def write_or_raise(fh, lo, hi):
            write(fh, lo, hi)
            if json_array and hi == n:
                raise ValueError("a state row")
        return n, numbers, write_or_raise

    monkeypatch.setattr(elliptic_dpp.cli, "_rows", failing)
    prefix = tmp_path / "s"
    assert main(f"sample --steps 300 --seed 7 --out {prefix}".split()) == 2
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == []


def test_a_failing_sampler_part_exits_1_with_its_error(tmp_path, monkeypatch, cpus, capsys):
    # an AccuracyError in the middle of three parts stays an AccuracyError:
    # exit status 1 and its own message, as in one process, not status 2
    # through a ChildProcessError
    forks = cpus(3)
    parent, chunk = os.getpid(), elliptic_dpp.dpp_kernels._chain_rule_chunk

    def chain_rule_chunk(*args):
        if os.getpid() != parent and len(forks) == 1:
            raise AccuracyError("conditional 1 has mass off by 1e-3 from 3")
        return chunk(*args)

    monkeypatch.setattr(elliptic_dpp.dpp_kernels, "_chain_rule_chunk", chain_rule_chunk)
    assert main(f"sample --steps 1600 --out {tmp_path / 's'}".split()) == 1
    assert capsys.readouterr().err == "error: conditional 1 has mass off by 1e-3 from 3\n"
    assert len(forks) == 2


def test_kernel_defaults_fill_in_the_time_pair(tmp_path):
    # t* defaults to 1 and t to t*/2
    argv = "kernel --type B --N 3 --grid 4 --out".split()
    assert main(argv + [str(tmp_path / "default.csv")]) == 0
    assert main(argv + [str(tmp_path / "given.csv"), "--t", "0.5", "--t-star", "1"]) == 0
    given = (tmp_path / "given.csv").read_bytes()
    assert (tmp_path / "default.csv").read_bytes() == given and given.count(b"\n") == 17


@pytest.mark.parametrize("verb", list(_VERB_FLAGS))
def test_check_leaves_only_the_verbs_flags_and_its_specs(verb):
    args = _check(_build_parser().parse_args([verb]))
    flags = set(_VERB_FLAGS[verb][1])
    built = {"family"} if "type" in flags else set()
    built |= {"ks"} if "t" in flags else set()
    built |= {"infinite"} if "rho" in flags else set()
    # another verb's flag is not there to read
    assert set(vars(args)) == {"command"} | flags | built
    if "t" in flags:
        assert (args.ks.family, args.ks.t, args.ks.t_star) == (args.family, 0.5, 1.0)


@pytest.mark.parametrize("tag, N, r", [("A", 3, "0.02"), ("C", 2, "0.05"), ("B", 3, "0.05"),
                                       ("Cv", 3, "0.05"), ("D", 3, "0.05"), ("A", 4, "0.01")])
def test_small_radius_verify_prints_only_check_lines(tag, N, r, capfd):
    # r(t) and M leave double range and the bridge matrices have zero rows:
    # those lines read inf and fail, every suite still prints (at A4, r = 0.01
    # also eta(N tau) underflows), and neither numpy warnings nor LAPACK
    # messages reach stdout or stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["verify", "--type", tag, "--N", str(N), "--r", r,
                       "--t", "0.5", "--t-star", "1"])
    out, err = capfd.readouterr()
    assert status == 1 and err == ""
    lines = out.splitlines()
    assert len(lines) == (15 if tag == "A" else 14)
    assert all(re.fullmatch(r"[^:]+: residual=\S+ tol=\S+ (PASS|FAIL)", ln) for ln in lines)
    inf = {ln.split(":")[0] for ln in lines if "residual=inf " in ln and ln.endswith(" FAIL")}
    assert {"weight-matrix identity", "pinned-path proportionality",
            "bridge density vs spectral density"} <= inf
    assert ("eta closed form" in inf) == (tag == "A")
    assert "residual=nan" not in out
