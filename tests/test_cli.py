import hashlib
import json
import re

import numpy as np
import pytest

from ddradar import (
    ChannelTruth,
    add_noise,
    apply_channel,
    apply_receive_gating,
    make_params,
    synthesize_discrete,
)
from ddradar.cli import _resolve_params, build_parser, main
from ddradar.codes import (
    random_code,
    read_code,
    reference_bad_code,
    reference_good_code,
    write_code,
)
from ddradar.waveform import read_signal


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
    # the hash covers the geometry defaults, theta, the screen's constants and SOLVER
    assert out.strip() == "ddradar 0.1.0 (config 12d7d93ef917)"


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
    assert code == 0 and out.startswith("score=") and out.endswith(" delta=0.05 PASS\n")
    code, out, _ = run(capsys, "check-code", "--code", str(bad))
    assert code == 0 and out.endswith(" delta=0.05 FAIL\n")  # rejection is a result
    for flag in ("--delta", "--oversample"):  # the screen's settings are fixed
        with pytest.raises(SystemExit) as exc:
            main(["check-code", "--code", str(good), flag, "4"])
        assert exc.value.code == 1


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


@pytest.mark.parametrize("gate", [True, False])
def test_simulate_writes_the_library_frame(tmp_path, capsys, gate):
    # --delay and --doppler are the ChannelTruth cells, passed straight through
    code_path = tmp_path / "code.txt"
    write_code(code_path, reference_good_code())
    r_path = tmp_path / "r.csv"
    argv = [
        "simulate", "--code", str(code_path), "--delay", "300.25", "--doppler", "2.25",
        "--snr-db", "30", "--seed", "9", "--out", str(r_path),
    ]
    assert run(capsys, *argv, *([] if gate else ["--no-gate"]))[0] == 0
    p, code = make_params(64, 16, 8, 8), reference_good_code()
    s = synthesize_discrete(code, p)
    r = apply_channel(code, p, ChannelTruth(300.25, 2.25))
    r = add_noise(r, 30.0, 9, p, ref_energy=s.energy)
    if gate:
        r = apply_receive_gating(r, p)
    got = read_signal(r_path).samples
    assert np.array_equal(got.view(np.float64), r.samples.view(np.float64))
    assert np.any(got[: p.L] != 0) == (not gate)
    # T_c only labels cells in seconds and Hz: the same bytes
    physical = tmp_path / "r_physical.csv"
    argv = [*argv[:-1], str(physical), "--T_c", "1e-6"]
    assert run(capsys, *argv, *([] if gate else ["--no-gate"]))[0] == 0
    assert physical.read_bytes() == r_path.read_bytes()


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
    argv = ["estimate", "--r", str(r_path), "--s", str(s_path), "--method", "quadratic", "--json"]
    cells = json.loads(run(capsys, *argv)[1].splitlines()[0])
    code, out, _ = run(capsys, *argv, "--T_c", "1e-6")
    rec = json.loads(out.splitlines()[0])
    assert rec["delay_s"] == pytest.approx(200 * 1e-6 / 16, rel=1e-3)
    p = make_params(64, 16, 8, 8, 1e-6)
    assert rec["delay_s"] == rec["delay_Ts"] * p.T_s
    assert rec["doppler_hz"] == rec["doppler_df"] * p.delta_f
    # T_c scales only the seconds and Hz; every cell field is the same
    assert rec["delay_s"] == pytest.approx(cells["delay_s"] * 1e-6, rel=1e-12)
    assert rec["doppler_hz"] == pytest.approx(cells["doppler_hz"] / 1e-6, rel=1e-12)
    physical = ("delay_s", "doppler_hz")
    assert {k: v for k, v in rec.items() if k not in physical} == {
        k: v for k, v in cells.items() if k not in physical
    }


def test_estimate_prints_one_line_per_detection(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    write_code(code_path, reference_good_code())
    s_path = tmp_path / "s.csv"
    r_path = tmp_path / "r.csv"
    run(capsys, "synth", "--code", str(code_path), "--out", str(s_path))
    run(
        capsys, "simulate", "--code", str(code_path), "--delay", "300.25", "--doppler", "2.25",
        "--snr-db", "30", "--seed", "9", "--out", str(r_path),
    )
    argv = ["estimate", "--r", str(r_path), "--s", str(s_path), "--method", "quadratic"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    records = [json.loads(line) for line in run(capsys, *argv, "--json")[1].splitlines()]
    lines = out.splitlines()
    assert len(lines) == len(records) >= 1
    number = r"-?\d+\.\d+"
    for line, rec in zip(lines, records):
        assert re.fullmatch(
            rf"detection l={rec['l_hat']} k={rec['k_hat']}: delay={number} T_s, "
            rf"doppler={number} df, alpha={number}, \S+ s / \S+ Hz",
            line,
        ), line
        assert float(line.split("delay=")[1].split()[0]) == round(rec["delay_Ts"], 4)
    # nothing above theta = 2: no data, one diagnostic, still a result
    code, out, err = run(capsys, *argv, "--theta", "2")
    assert code == 0 and out == ""
    assert err == "no detections above threshold\n"


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


@pytest.mark.parametrize(
    "lines, flags, key",
    [
        ("workers = -4", (), "workers"),
        ("code_seed = -3", (), "code_seed"),
        ("seed = -1", (), "seed"),
        ("", ("--workers", "0"), "workers"),
        ("", ("--seed", "-1"), "seed"),
    ],
    ids=["file-workers", "file-code_seed", "file-seed", "flag-workers", "flag-seed"],
)
def test_sweep_out_of_range_setting_exits_two(tmp_path, capsys, lines, flags, key):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"N = 16\nM = 8\nN_t = 2\nN_f = 4\ntrials = 2\n{lines}\n")
    out = tmp_path / "r.csv"
    code, stdout, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out), *flags)
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith(f"ddradar sweep: sweep setting '{key}' must be at least")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["gen-code", "simulate"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_flag_is_usage_error(tmp_path, capsys, command, seed):
    code_path = tmp_path / "code.txt"
    write_code(code_path, reference_good_code())
    out = tmp_path / "out.txt"
    extra = () if command == "gen-code" else ("--code", str(code_path), "--delay", "300",
                                               "--doppler", "0")
    with pytest.raises(SystemExit) as exc:
        main([command, *extra, "--seed", seed, "--out", str(out)])
    assert exc.value.code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"argument --seed: must be a non-negative integer, got '{seed}'" in err


def test_empty_detectability_window_exits_two(tmp_path, capsys):
    out = tmp_path / "code.txt"
    code, stdout, err = run(
        capsys, "gen-code", "--N", "8", "--M", "4", "--N_t", "5", "--N_f", "2",
        "--seed", "1", "--out", str(out),
    )
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith("ddradar gen-code: detectability window [20, 12]")


def test_sweep_on_window_without_interior_lag_exits_two(tmp_path, capsys):
    flags = ("--N", "4", "--M", "4", "--N_t", "2", "--N_f", "2")
    code_path = tmp_path / "code.txt"
    assert run(capsys, "gen-code", *flags, "--seed", "1", "--out", str(code_path))[0] == 0
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("N = 4\nM = 4\nN_t = 2\nN_f = 2\ncode_seed = 1\ntrials = 2\n")
    out = tmp_path / "r.csv"
    code, stdout, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith("ddradar sweep: detectability window [8, 8]")
    assert "ell_max - ell_min >= 2" in err and err.count("\n") == 1


def test_sweep_naming_two_codes_exits_two(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    write_code(code_path, reference_good_code())
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"code_file = '{code_path}'\ncode_seed = 3\ntrials = 2\n")
    out = tmp_path / "r.csv"
    code, stdout, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert stdout == "" and not out.exists()
    assert "code_file" in err and "code_seed" in err and err.count("\n") == 1


def _code_file_sweep(folder, code, code_file="c24.txt"):
    folder.mkdir()
    write_code(folder / "c24.txt", code)
    (folder / "bench.cfg").write_text(
        f'N = 16\nM = 8\nN_t = 2\nN_f = 4\ncode_file = "{code_file}"\n'
        "trials = 4\nsnr_db = 30\nseed = 5\n"
    )


def test_sweep_reads_its_code_file(tmp_path, capsys, monkeypatch):
    # a relative code_file is read from the config's directory, not the
    # working one; an absolute one as it stands
    monkeypatch.chdir(tmp_path)
    code_matrix = random_code(make_params(16, 8, 2, 4), seed=3)
    _code_file_sweep(tmp_path / "rel", code_matrix)
    _code_file_sweep(tmp_path / "abs", code_matrix, tmp_path / "rel" / "c24.txt")
    (tmp_path / "abs" / "c24.txt").unlink()
    digest = hashlib.sha256((tmp_path / "rel" / "c24.txt").read_bytes()).hexdigest()
    for folder in ("rel", "abs"):
        out = f"{folder}.csv"
        code, stdout, _ = run(capsys, "sweep", "--config", f"{folder}/bench.cfg", "--out", out)
        assert code == 0 and stdout == ""
        meta = json.loads((tmp_path / f"{out}.meta.json").read_text())
        assert meta["code_sha256"] == digest


def test_sweep_rejects_a_code_file_of_the_wrong_shape(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _code_file_sweep(tmp_path / "sweep", reference_good_code())
    code, stdout, err = run(capsys, "sweep", "--config", "sweep/bench.cfg", "--out", "r.csv")
    assert code == 2
    assert stdout == "" and not (tmp_path / "r.csv").exists()
    assert "code is 8x8 but params expect 2x4" in err and err.count("\n") == 1


@pytest.mark.parametrize("text", ["inf", "+inf", "Infinity", "30"])
def test_snr_db_is_a_number(text):
    args = build_parser().parse_args(
        ["simulate", "--code", "c.txt", "--delay", "0", "--doppler", "0", "--snr-db", text,
         "--out", "r.csv"]
    )
    assert args.snr_db == float(text)


def test_snr_db_rejects_words(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(
            ["simulate", "--code", "c.txt", "--delay", "0", "--doppler", "0",
             "--snr-db", "noiseless", "--out", "r.csv"]
        )
    assert exc.value.code == 1
