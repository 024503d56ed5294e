import json

import numpy as np
import pytest

from ddradar.cli import _resolve_params, build_parser, main
from ddradar.codes import read_code, reference_bad_code, reference_good_code, write_code


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-code", "--frobnicate"])
    assert exc.value.code == 1


def test_estimate_unknown_method_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--r", "r.csv", "--s", "s.csv", "--method", "cubic"])
    assert exc.value.code == 1
    assert "invalid choice: 'cubic'" in capsys.readouterr().err


def test_version_reports_config_hash(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "ddradar 0.1.0" in out and "config" in out


def test_gen_show_code_round_trip(tmp_path, capsys):
    path = tmp_path / "code.txt"
    code, _, err = run(capsys, "gen-code", "--seed", "5", "--out", str(path))
    assert code == 0 and "seed 5" in err
    again = tmp_path / "code2.txt"
    run(capsys, "gen-code", "--seed", "5", "--out", str(again))
    assert path.read_text() == again.read_text()
    code, out, _ = run(capsys, "show-code", "--in", str(path))
    assert code == 0
    assert len(out.splitlines()) == 8


def test_gen_code_draws_seed_when_absent(tmp_path, capsys):
    path = tmp_path / "code.txt"
    code, _, err = run(capsys, "gen-code", "--out", str(path))
    assert code == 0
    assert "seed=" in err and "--seed" in err


def test_check_code_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.txt"
    bad = tmp_path / "bad.txt"
    write_code(good, reference_good_code())
    write_code(bad, reference_bad_code())
    code, out, _ = run(capsys, "check-code", "--code", str(good))
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "check-code", "--code", str(bad))
    assert code == 0 and "FAIL" in out  # rejection is a result, not an error


def test_missing_input_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "show-code", "--in", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "show-code" in err


@pytest.mark.parametrize("bad_row", ["1024,0.0,0.0", "0,0.0,0.0", "5,nan,0.0"])
def test_bad_signal_file_exits_two(tmp_path, capsys, bad_row):
    code_path = tmp_path / "code.txt"
    write_code(code_path, reference_good_code())
    s_path = tmp_path / "s.csv"
    run(capsys, "synth", "--code", str(code_path), "--out", str(s_path))
    r_path = tmp_path / "r.csv"
    lines = s_path.read_text().splitlines()
    lines[6] = bad_row  # replaces the row with index 5
    r_path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "estimate", "--r", str(r_path), "--s", str(s_path))
    assert code == 2
    assert out == ""
    assert err.startswith("ddradar estimate: ") and err.count("\n") == 1


def test_pipeline_round_trip(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    write_code(code_path, reference_good_code())
    s_path = tmp_path / "s.csv"
    r_path = tmp_path / "r.csv"
    assert run(capsys, "synth", "--code", str(code_path), "--out", str(s_path))[0] == 0
    assert (
        run(
            capsys,
            "simulate",
            "--code", str(code_path),
            "--delay", "300.25",
            "--doppler", "2.25",
            "--snr-db", "inf",
            "--seed", "4",
            "--out", str(r_path),
        )[0]
        == 0
    )
    code, out, _ = run(
        capsys,
        "estimate",
        "--r", str(r_path),
        "--s", str(s_path),
        "--method", "sinc2d",
        "--json",
    )
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["l_hat"] == 300 and rec["k_hat"] == 2
    assert abs(rec["delay_Ts"] - 300.25) <= 0.02
    assert abs(rec["doppler_df"] - 2.25) <= 0.07
    assert rec["converged"] is True


def test_estimate_physical_units(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    write_code(code_path, reference_good_code())
    s_path = tmp_path / "s.csv"
    r_path = tmp_path / "r.csv"
    run(capsys, "synth", "--code", str(code_path), "--out", str(s_path))
    run(
        capsys, "simulate", "--code", str(code_path), "--delay", "200", "--doppler", "0",
        "--snr-db", "inf", "--seed", "1", "--out", str(r_path),
    )
    code, out, _ = run(
        capsys, "estimate", "--r", str(r_path), "--s", str(s_path),
        "--method", "quadratic", "--json", "--T_c", "1e-6",
    )
    rec = json.loads(out.splitlines()[0])
    assert rec["delay_s"] == pytest.approx(200 * 1e-6 / 16, rel=1e-3)


def test_ambiguity_surface_dump(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    write_code(code_path, reference_good_code())
    s_path = tmp_path / "s.csv"
    surf_path = tmp_path / "surf.csv"
    run(capsys, "synth", "--code", str(code_path), "--out", str(s_path))
    code, _, _ = run(
        capsys, "ambiguity", "--r", str(s_path), "--s", str(s_path),
        "--lmin", "0", "--lmax", "2", "--out", str(surf_path),
    )
    assert code == 0
    lines = surf_path.read_text().splitlines()
    assert lines[0] == "ell,k,re,im,abs"
    assert len(lines) == 1 + 3 * 1024


def test_sweep_deterministic_across_workers(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "N = 16\nM = 8\nN_t = 2\nN_f = 4\ncode_seed = 3\n"
        "trials = 10\nsnr_db = [20, 30]\nseed = 77\n"
    )
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert run(capsys, "sweep", "--config", str(cfg), "--out", str(out1))[0] == 0
    assert (
        run(capsys, "sweep", "--config", str(cfg), "--out", str(out2), "--workers", "2")[0]
        == 0
    )
    # statistical columns identical; the trailing wall-time columns are not
    stats1 = [",".join(line.split(",")[:6]) for line in out1.read_text().splitlines()]
    stats2 = [",".join(line.split(",")[:6]) for line in out2.read_text().splitlines()]
    assert stats1 == stats2
    meta = json.loads((tmp_path / "r1.csv.meta.json").read_text())
    assert meta["seed"] == 77 and meta["trials"] == 10
    lines = out1.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3  # two SNRs x three methods


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--config", "{cfg}", "--out", "{out}"),
        ("gen-code", "--params-config", "{cfg}", "--seed", "1", "--out", "{out}"),
    ],
)
def test_unknown_config_key_exits_two(tmp_path, capsys, argv):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("N = 16\nM = 8\nN_t = 2\nN_f = 4\ncode_seed = 3\ntrails = 5\n")
    out = tmp_path / "r.csv"
    code, stdout, err = run(capsys, *(a.format(cfg=cfg, out=out) for a in argv))
    assert code == 2
    assert stdout == "" and not out.exists()
    assert "line 6: unknown key 'trails'" in err


@pytest.mark.parametrize("snr", ["nan", "-inf", "4000", "-4000"])
def test_simulate_bad_snr_exits_two(tmp_path, capsys, snr):
    code_path = tmp_path / "code.txt"
    write_code(code_path, reference_good_code())
    out = tmp_path / "r.csv"
    code, stdout, err = run(
        capsys, "simulate", "--code", str(code_path), "--delay", "300", "--doppler", "0",
        f"--snr-db={snr}", "--seed", "1", "--out", str(out),
    )
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith("ddradar simulate: snr_db must be") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, value, message",
    [("--T_c", "nan", "T_c must be"), ("--T_c", "inf", "T_c must be"),
     ("--theta", "nan", "threshold must be positive")],
)
def test_estimate_non_finite_number_exits_two(tmp_path, capsys, flag, value, message):
    code_path = tmp_path / "code.txt"
    write_code(code_path, reference_good_code())
    s_path = tmp_path / "s.csv"
    r_path = tmp_path / "r.csv"
    run(capsys, "synth", "--code", str(code_path), "--out", str(s_path))
    run(
        capsys, "simulate", "--code", str(code_path), "--delay", "200", "--doppler", "0",
        "--snr-db", "inf", "--seed", "1", "--out", str(r_path),
    )
    code, out, err = run(
        capsys, "estimate", "--r", str(r_path), "--s", str(s_path), "--json", flag, value,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("ddradar estimate: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "lines, message",
    [
        ("theta = true", "line 5: config key 'theta' must be a number, got 'true'"),
        ('T_c = "2.0"', "line 5: config key 'T_c' must be a number"),
        ('snr_db = "30"', "line 5: config key 'snr_db' must be a number or a list"),
        ("code_file = 5", "line 5: config key 'code_file' must be a quoted string"),
        ("trials = 3\ntrials = 5", "line 6: repeated key 'trials'"),
        ("N = 64.7", "line 5: config key 'N' must be an integer"),
    ],
    ids=["bool-theta", "quoted-T_c", "quoted-snr_db", "bare-code_file", "repeated-trials",
         "float-N"],
)
def test_malformed_sweep_config_exits_two(tmp_path, capsys, lines, message):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"M = 8\nN_t = 2\nN_f = 4\ncode_seed = 3\n{lines}\n")
    out = tmp_path / "r.csv"
    code, stdout, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith("ddradar sweep: ") and message in err and err.count("\n") == 1


def test_params_file_defaults_like_flags(tmp_path):
    cfg = tmp_path / "radar.cfg"
    cfg.write_text("N = 16\nN_t = 2\n")
    parser = build_parser()
    from_file = parser.parse_args(["gen-code", "--params-config", str(cfg), "--out", "c.txt"])
    from_flags = parser.parse_args(["gen-code", "--N", "16", "--N_t", "2", "--out", "c.txt"])
    assert _resolve_params(from_file) == _resolve_params(from_flags)


@pytest.mark.parametrize("flag", ["--delay", "--doppler"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_simulate_non_finite_delay_doppler_exits_two(tmp_path, capsys, flag, value):
    code_path = tmp_path / "code.txt"
    write_code(code_path, reference_good_code())
    out = tmp_path / "r.csv"
    delay, doppler = (value, "0") if flag == "--delay" else ("300", value)
    code, stdout, err = run(
        capsys, "simulate", "--code", str(code_path), "--delay", delay, "--doppler", doppler,
        "--seed", "1", "--out", str(out),
    )
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith("ddradar simulate: ") and "must be finite" in err
    assert err.count("\n") == 1
