"""Command-line behavior through real subprocesses: output, exit codes, config."""

import os
import subprocess
import sys

BASE_ENV = {k: v for k, v in os.environ.items() if not k.startswith("ROBINBOX_")}


def run_cli(*args, env_extra=None):
    env = dict(BASE_ENV)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "robinbox", *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_eig_neumann_square():
    r = run_cli("eig", "--box", "1,1", "--alpha", "0", "--k", "2")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("lambda_1 = 0")
    assert "2.46740110027" in lines[1]


def test_eig_csv_layout():
    r = run_cli("eig", "--box", "1,0.5", "--alpha", "2", "--k", "3", "--csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "index,eigenvalue,mode"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "1"


def test_eig_near_vanishing_second_eigenvalue():
    r = run_cli("eig", "--box", "1,1", "--alpha", "-0.68825", "--k", "2")
    assert r.returncode == 0
    lam2 = float(r.stdout.strip().splitlines()[1].split("=")[1].split()[0])
    assert abs(lam2) < 1e-4


def test_eig_one_dimensional():
    r = run_cli("eig", "--box", "1", "--alpha", "1", "--k", "1")
    assert r.returncode == 0
    assert "0.740173884395" in r.stdout


def test_constants_output():
    r = run_cli("constants")
    assert r.returncode == 0
    got = dict(line.split("=") for line in r.stdout.strip().splitlines())
    got = {k.strip(): float(v) for k, v in got.items()}
    assert abs(got["alpha_plus"] - 33.2054) < 5e-4
    assert abs(got["alpha_minus"] + 9.3885) < 5e-4
    assert abs(got["alpha_zero"] + 0.68825) < 5e-5
    assert abs(got["tanh_cot_root"] - 0.93755) < 5e-5


def test_steklov_gap_ratio_scalars():
    r = run_cli("steklov", "--box", "1,1")
    assert r.returncode == 0
    assert abs(float(r.stdout.strip()) - 0.688252742336) < 1e-10

    gap2d = run_cli("gap", "--box", "2,1", "--alpha", "3")
    gap1d = run_cli("gap", "--box", "2", "--alpha", "3")
    assert gap2d.returncode == gap1d.returncode == 0
    assert gap2d.stdout == gap1d.stdout  # the gap lives on the longest axis

    r = run_cli("ratio", "--box", "1,1", "--alpha", "2")
    assert r.returncode == 0
    assert float(r.stdout.strip()) > 1.0


def test_steklov_thin_box():
    r = run_cli("steklov", "--box", "1e-9,1")
    assert r.returncode == 0
    assert float(r.stdout.strip()) > 0.0


def test_negative_exponent_values_match_equals_form():
    for value in ("-1e-3", "-1e10", "-1e308"):
        spaced = run_cli("gap", "--box", "1,1", "--alpha", value)
        joined = run_cli("gap", "--box", "1,1", f"--alpha={value}")
        assert spaced.returncode == joined.returncode
        assert spaced.stdout == joined.stdout
        assert spaced.stderr == joined.stderr
        assert spaced.returncode == 0


def test_nonfinite_alpha_exits_2():
    for value in ("nan", "inf", "-inf"):
        r = run_cli("eig", "--box", "1", "--alpha", value, "--k", "3")
        assert r.returncode == 2
        assert "Traceback" not in r.stderr


def test_overflowing_eigenvalue_exits_3():
    """lambda1 ~ -alpha^2 overflows the double range below alpha ~ -1.34e154."""
    for command, box in (("eig", "1"), ("ratio", "1,1")):
        r = run_cli(command, "--box", box, "--alpha=-1e160")
        assert r.returncode == 3
        assert "Traceback" not in r.stderr


def test_hear_roundtrip():
    lam1 = run_cli("eig", "--box", "1.5,0.5", "--alpha", "2", "--k", "2",
                   "--precision", "17")
    lines = lam1.stdout.strip().splitlines()
    v1 = float(lines[0].split("=")[1].split()[0])
    v2 = float(lines[1].split("=")[1].split()[0])
    r = run_cli("hear", "--lambda1", repr(v1), "--lambda2", repr(v2), "--alpha", "2")
    assert r.returncode == 0
    out = {k.strip(): float(v) for k, v in
           (line.split("=") for line in r.stdout.strip().splitlines())}
    assert abs(out["side_long"] - 3.0) < 1e-8
    assert abs(out["side_short"] - 1.0) < 1e-8


def test_hear_inconsistent_pair_exits_5():
    r = run_cli("hear", "--lambda1", "5.0", "--lambda2", "4.0", "--alpha", "1")
    assert r.returncode == 5
    assert "inconsistent" in r.stdout.lower()


def test_hear_alpha_zero_exits_2():
    r = run_cli("hear", "--lambda1", "0", "--lambda2", "2.4674", "--alpha", "0")
    assert r.returncode == 2


def test_hear_nonfinite_alpha_exits_2():
    for alpha in ("nan", "inf"):
        r = run_cli("hear", "--lambda1", "1", "--lambda2", "2", "--alpha", alpha)
        assert r.returncode == 2
        assert "alpha must be a finite number" in r.stderr


def test_scan_window_quantity_peaks_at_square():
    r = run_cli("scan", "--family", "perim", "--objective", "perim_lambda2",
                "--alpha", "10", "--grid", "64")
    assert r.returncode == 0
    argopt = [l for l in r.stdout.splitlines() if l.startswith("argopt")][0]
    assert abs(float(argopt.split("=")[1]) - 0.5) < 0.02


def test_scan_csv_trace():
    r = run_cli("scan", "--family", "vol", "--objective", "lambda1",
                "--alpha", "2", "--grid", "32", "--csv", "--norm", "4")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "log_aspect,lambda1"
    assert len(lines) == 33


def test_verify_suite_box():
    r = run_cli("verify", "--suite", "box")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines
    assert all(l.startswith("PASS") for l in lines)


def test_verify_rejects_unknown_suite():
    r = run_cli("verify", "--suite", "algebra")
    assert r.returncode == 2  # argparse enforces the choice list


def test_figure_to_file_and_determinism(tmp_path):
    out = tmp_path / "six.csv"
    r = run_cli("figure", "--id", "interval_first_six", "--resolution", "32",
                "--out", str(out))
    assert r.returncode == 0
    text1 = out.read_text()
    header = text1.splitlines()[0]
    assert header == "alpha,lambda_1,lambda_2,lambda_3,lambda_4,lambda_5,lambda_6"
    assert len(text1.splitlines()) == 33
    r = run_cli("figure", "--id", "interval_first_six", "--resolution", "32",
                "--out", str(out))
    assert out.read_text() == text1


def test_figure_stdout():
    r = run_cli("figure", "--id", "basis_gh", "--resolution", "16")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "x,h1,h2,g1,g2"


def test_figure_bad_path_exits_4():
    r = run_cli("figure", "--id", "basis_gh", "--resolution", "16",
                "--out", "/no/such/directory/out.csv")
    assert r.returncode == 4
    assert r.stderr.strip()


def test_bad_box_exits_2():
    r = run_cli("eig", "--box", "0,1", "--alpha", "1")
    assert r.returncode == 2
    r = run_cli("eig", "--box", "1,banana", "--alpha", "1")
    assert r.returncode == 2
    r = run_cli("ratio", "--box", "1,1", "--alpha", "0")
    assert r.returncode == 2


def test_missing_subcommand_exits_2():
    r = run_cli()
    assert r.returncode == 2


def test_precision_flag_and_env():
    wide = run_cli("steklov", "--box", "1,1", "--precision", "15")
    short = run_cli("steklov", "--box", "1,1", "--precision", "4")
    assert len(wide.stdout.strip()) > len(short.stdout.strip())
    assert short.stdout.strip() == "0.6883"

    via_env = run_cli("steklov", "--box", "1,1", env_extra={"ROBINBOX_PRECISION": "4"})
    assert via_env.stdout == short.stdout

    # an explicit flag always beats the environment
    flag_wins = run_cli("steklov", "--box", "1,1", "--precision", "15",
                        env_extra={"ROBINBOX_PRECISION": "4"})
    assert flag_wins.stdout == wide.stdout


def test_bad_precision_exits_2():
    r = run_cli("steklov", "--box", "1,1", "--precision", "40")
    assert r.returncode == 2
