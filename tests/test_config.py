import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ddradar import ParameterError, RadarParams, load_params, make_params, reference_good_code
from ddradar.bench import load_sweep
from ddradar.config import CONFIG_KEYS, read_config


def test_paper_geometry_derived_units():
    p = make_params(64, 16, 8, 8, 1.0)
    assert p.T_s == pytest.approx(1 / 16, rel=1e-15)
    assert p.delta_f == pytest.approx(1 / 64, rel=1e-15)
    assert p.frame_len == 1024
    assert p.L == 160


def test_square_geometry():
    p = make_params(64, 64, 8, 8, 1.0)
    assert p.T_s == pytest.approx(1 / 64, rel=1e-15)
    assert p.delta_f == pytest.approx(1 / 64, rel=1e-15)
    assert p.frame_len == 4096


def test_degenerate_geometry_rejected():
    # L = (1+2)*2 = 6 exceeds frame_len = 2
    with pytest.raises(ParameterError, match="exceeds frame_len"):
        make_params(1, 2, 1, 2, 1.0)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(N=64, M=16, N_t=65, N_f=8), "N_t=65 exceeds"),
        (dict(N=64, M=16, N_t=8, N_f=18), "N_f=18 exceeds"),
        (dict(N=64, M=16, N_t=8, N_f=7), "must be even"),
        (dict(N=0, M=16, N_t=8, N_f=8), "N must be"),
        (dict(N=64, M=-3, N_t=8, N_f=8), "M must be"),
        (dict(N=64, M=16, N_t=8, N_f=8, T_c=0.0), "T_c must be"),
        (dict(N=64, M=16, N_t=8, N_f=8, T_c=float("nan")), "T_c must be"),
        (dict(N=64, M=16, N_t=8, N_f=8, T_c=float("inf")), "T_c must be"),
        (dict(N=8, M=4, N_t=5, N_f=2), r"detectability window \[20, 12\] .* is empty"),
        (dict(N=64, M=16, N_t=True, N_f=8), "N_t must be a positive integer, got True"),
        (dict(N=64, M=16, N_t=8, N_f=8, T_c=True), "T_c must be positive and finite, got True"),
        (dict(N=3, M=9, N_t=1, N_f=6), "L=.*=27 reaches or exceeds frame_len=27; geometry leaves no room"),
        (dict(N=4, M=4, N_t=2, N_f=2), "L=.*=16 reaches or exceeds frame_len=16; geometry leaves no room"),
    ],
)
def test_parameter_violations(kwargs, match):
    with pytest.raises(ParameterError, match=match):
        make_params(**kwargs)


def test_make_params_is_the_constructor():
    assert make_params is RadarParams


def test_unit_round_trips():
    # N in [4, 256], M a power of two in [2, 64], T_c in [1e-9, 1e3]: every
    # M at both ends of N and T_c, then 100 seeded draws, T_c log-uniform
    ms = (2, 4, 8, 16, 32, 64)
    edges = itertools.product((4, 256), ms, (1e-9, 1e3))
    rng = np.random.default_rng(0)
    draws = zip(rng.integers(4, 257, 100), rng.choice(ms, 100), 10 ** rng.uniform(-9, 3, 100))
    for n, m, t_c in itertools.chain(edges, draws):
        n, m = int(n), int(m)
        n_t = max(1, min(n - 2, n // 8))
        n_f = min(m, 8)
        p = make_params(n, m, n_t, n_f, float(t_c))
        assert p.T_s * p.M == p.T_c
        assert p.N * p.M * p.T_s * p.delta_f == pytest.approx(1.0, rel=1e-12)
        assert p.N_t * p.M <= p.L <= p.frame_len


def test_ts_strictly_decreases_with_m():
    prev = make_params(64, 8, 4, 8, 1.0).T_s
    for m in (16, 32, 64, 128):
        cur = make_params(64, m, 4, 8, 1.0).T_s
        assert cur < prev
        prev = cur


def test_load_params_and_overrides(tmp_path):
    cfg = tmp_path / "radar.cfg"
    cfg.write_text("# geometry\nN = 64\nM = 16\nN_t = 8\nN_f = 8\nT_c = 1.0\n")
    p = load_params(cfg)
    assert (p.N, p.M, p.N_t, p.N_f) == (64, 16, 8, 8)
    p2 = load_params(cfg, overrides={"M": 64, "T_c": None})
    assert p2.M == 64 and p2.T_c == 1.0


def test_load_params_missing_key(tmp_path):
    # a missing geometry key keeps its default, as it does for flags
    cfg = tmp_path / "radar.cfg"
    cfg.write_text("N = 16\nN_t = 2\n")
    p = load_params(cfg)
    assert p == make_params(16, 16, 2, 8, 1.0)
    assert p == load_params(overrides={"N": 16, "N_t": 2, "M": None})
    assert load_params() == make_params(64, 16, 8, 8, 1.0)


def test_parse_config_text_values(tmp_path):
    cfg = tmp_path / "typed.cfg"
    cfg.write_text(
        'N = 3  # comment\nT_c = 2\nsnr_db = [1, 2.5, inf]\ntheta = 1e-1\n'
        "code_file = 'x.txt'\nseed = -4\n"
    )
    raw = read_config(cfg)
    assert raw == {
        "N": 3, "T_c": 2.0, "snr_db": [1.0, 2.5, math.inf], "theta": 0.1,
        "code_file": "x.txt", "seed": -4,
    }
    assert {k: type(v) for k, v in raw.items()} == {k: CONFIG_KEYS[k] for k in raw}
    cfg.write_text("snr_db = 25\n")
    assert read_config(cfg) == {"snr_db": [25.0]}
    for bad in ("broken line", "N = ", "theta = 1..2", "snr_db = [1, 2", "snr_db = []"):
        cfg.write_text(bad + "\n")
        with pytest.raises(ParameterError, match="config line 1: "):
            read_config(cfg)


def test_hash_inside_quotes_is_not_a_comment(tmp_path):
    cfg = tmp_path / "quoted.cfg"
    cfg.write_text('code_file = "codes/run#2.txt"  # the second run\ntheta = 0.5 # "x#"\n')
    assert read_config(cfg) == {"code_file": "codes/run#2.txt", "theta": 0.5}
    cfg.write_text('code_file = "codes/run#2.txt\n')
    with pytest.raises(ParameterError, match="config line 1: .*quoted string.*run#2"):
        read_config(cfg)


SHARED_CONFIG = (
    "N = 16\nM = 8\nN_t = 2\nN_f = 4\n"
    "code_seed = 3\ntrials = 10\nsnr_db = [20, 30]\ntheta = 0.4\nseed = 77\nworkers = 2\n"
)


def test_one_config_file_serves_both_readers(tmp_path):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(SHARED_CONFIG)
    p = load_params(cfg)
    assert (p.N, p.M, p.N_t, p.N_f) == (16, 8, 2, 4)
    bench = load_sweep(cfg)
    assert bench.params == p
    assert bench.snr_db_list == (20.0, 30.0)
    assert (bench.trials, bench.theta, bench.seed, bench.workers) == (10, 0.4, 77, 2)
    over = load_sweep(cfg, workers=1, seed=5)
    assert (over.workers, over.seed) == (1, 5)


def test_readme_bench_config_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    text = re.search(r"```ini\n(# bench\.cfg\n.*?)```", readme, re.S).group(1)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(text)
    bench = load_sweep(cfg)
    assert bench.params == make_params(64, 16, 8, 8, 1.0)
    assert bench.snr_db_list == (0.0, 10.0, 20.0, 30.0)
    assert (bench.trials, bench.theta, bench.seed, bench.workers) == (1000, 0.5, 42, 1)
    assert np.array_equal(bench.code.entries, reference_good_code().entries)


def test_load_sweep_defaults(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("snr_db = 25\n")
    bench = load_sweep(cfg)
    assert (bench.params.N, bench.params.M, bench.params.N_t, bench.params.N_f) == (64, 16, 8, 8)
    assert np.array_equal(bench.code.entries, reference_good_code().entries)
    assert bench.snr_db_list == (25.0,)
    assert (bench.trials, bench.seed, bench.workers) == (1000, 0, 1)


@pytest.mark.parametrize("reader", [load_params, load_sweep])
def test_readers_reject_unknown_keys(tmp_path, reader):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(SHARED_CONFIG + "# trials misspelled\ntrails = 5\n")
    with pytest.raises(ParameterError, match=r"line 12: unknown key 'trails'"):
        reader(cfg)


@pytest.mark.parametrize("value", ["64.7", "true", '"64"'])
def test_load_params_rejects_non_integer_geometry(tmp_path, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"N = {value}\nM = 16\nN_t = 8\nN_f = 8\n")
    with pytest.raises(ParameterError, match="config key 'N' must be an integer"):
        load_params(cfg)


@pytest.mark.parametrize(
    "line",
    ["M = 16.0", "trials = 2.9", "seed = true", 'workers = "2"', "code_seed = 1.5"],
)
def test_load_sweep_rejects_non_integer_values(tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    key = line.split()[0]
    with pytest.raises(ParameterError, match=f"config key '{key}' must be an integer"):
        load_sweep(cfg)


@pytest.mark.parametrize(
    "line, overrides, message",
    [
        ("workers = 0", {}, "'workers' must be at least 1, got 0"),
        ("workers = -4", {}, "'workers' must be at least 1, got -4"),
        ("seed = -1", {}, "'seed' must be at least 0, got -1"),
        ("code_seed = -3", {}, "'code_seed' must be at least 0, got -3"),
        ("workers = 2", {"workers": 0}, "'workers' must be at least 1, got 0"),
        ("seed = 5", {"seed": -1}, "'seed' must be at least 0, got -1"),
    ],
    ids=["zero-workers", "negative-workers", "negative-seed", "negative-code_seed",
         "zero-workers-override", "negative-seed-override"],
)
def test_load_sweep_rejects_out_of_range_settings(tmp_path, line, overrides, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(ParameterError, match=re.escape(message)):
        load_sweep(cfg, **overrides)


def test_load_sweep_rejects_two_codes(tmp_path):
    cfg = tmp_path / "two.cfg"
    cfg.write_text("code_file = 'code.txt'\ncode_seed = 3\n")
    with pytest.raises(ParameterError, match="code_file or code_seed, not both"):
        load_sweep(cfg)


def test_load_sweep_rejects_window_without_interior_lag(tmp_path):
    # draw_truth places the target strictly inside the window
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("N = 6\nM = 4\nN_t = 3\nN_f = 2\ncode_seed = 1\n")
    with pytest.raises(ParameterError, match=r"window \[12, 12\].*ell_max - ell_min >= 2"):
        load_sweep(cfg)
    assert load_params(cfg).lag_window == (12, 12)  # the geometry itself stays valid
    cfg.write_text("N = 5\nM = 2\nN_t = 2\nN_f = 2\ncode_seed = 1\n")
    assert load_sweep(cfg).params.lag_window == (4, 6)
