"""Experiment-layer tests: config ingestion, SE points, sweeps, CSV, CLI."""

import csv
import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from duallink import (
    ConfigParseError,
    ConfigValidationError,
    ExperimentConfig,
    QueueTrace,
    ScenarioParams,
    load_config,
    read_rows,
    run_sweep,
    spectral_efficiency,
)
from duallink.cli import _TRACE_ROWS_PER_BATCH, _TRACE_ROWS_PER_WRITE, _write_trace, main
from duallink import experiments
from duallink.experiments import CSV_HEADER, default_config, write_rows
from duallink.oma import oma_optimize
import pins

GOLDEN_SWEEP = os.path.join(os.path.dirname(__file__), "data", "sweep_default.csv")
SE_SUM_LC_ONLY = 9.306028068406784
SE_SUM_HC_ONLY = 1.4559972791574074


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_empty_config_gives_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "empty.cfg", ""))
    sc = cfg.scenario
    assert sc.p_max == pytest.approx(0.01)                       # 10 dBm
    assert sc.noise_psd == pytest.approx(3.9810717055e-21, rel=1e-9)
    assert sc.g_b == pytest.approx(100.0) and sc.g_u == pytest.approx(100.0)
    assert sc.bandwidth == pytest.approx(1e10)
    assert sc.f == pytest.approx(3e11)
    assert (sc.d_bu, sc.d_br, sc.d_ru) == (10.0, 8.7, 2.0)
    assert sc.k_a == pytest.approx(0.0012)
    assert (sc.n_b, sc.n_r) == (64, 10000)
    assert (sc.q_d, sc.q_r) == (0.3, 0.1)


def test_single_override(tmp_path):
    cfg = load_config(write(tmp_path, "one.cfg", "q_d = 0.4\n"))
    base = default_config().scenario
    assert cfg.scenario.q_d == 0.4
    assert cfg.scenario.q_r == base.q_r
    assert cfg.scenario.p_max == base.p_max


def test_boundary_units(tmp_path):
    cfg = load_config(write(
        tmp_path, "units.cfg",
        "p_max = 13\nnoise_psd = -170\ng_b = 10\nf = 140\nbandwidth = 5\n",
    ))
    sc = cfg.scenario
    assert sc.p_max == pytest.approx(10 ** 1.3 * 1e-3)
    assert sc.noise_psd == pytest.approx(1e-20)
    assert sc.g_b == pytest.approx(10.0)
    assert sc.f == pytest.approx(140e9)
    assert sc.bandwidth == pytest.approx(5e9)


def test_bad_blockage_order_rejected(tmp_path):
    with pytest.raises(ConfigValidationError):
        load_config(write(tmp_path, "bad.cfg", "q_r = 0.5\nq_d = 0.2\n"))


def test_unknown_key_rejected(tmp_path):
    # Retired options are unknown keys, not silently ignored ones.
    for text in ("carrier = 300\n", "alt_hc_surrogate = true\n", "oma_lc_ris = true\n",
                 "se_weighted = false\n"):
        with pytest.raises(ConfigValidationError, match="unknown config key"):
            load_config(write(tmp_path, "bad.cfg", text))


def test_parse_error_distinct(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, "bad.cfg", "just a line without equals\n"))


def test_missing_file_distinct(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "nope.cfg"))


_CSV_HEAD = ",".join(CSV_HEADER) + "\n"
_CSV_ROW = "0.1,mcsc,0.5,8.0,8.5,850.0,,,,5,ok\n"


def test_read_rows_empty_file(tmp_path):
    with pytest.raises(ConfigParseError, match="line 1"):
        read_rows(write(tmp_path, "empty.csv", ""))


def test_read_rows_short_row(tmp_path):
    text = _CSV_HEAD + _CSV_ROW + "0.2,mcsc,0.5\n"
    with pytest.raises(ConfigParseError, match="line 3"):
        read_rows(write(tmp_path, "short.csv", text))


def test_read_rows_non_numeric_cell(tmp_path):
    # A cell that does not parse, and text cells outside their vocabulary:
    # stable is true, false or empty, scheme mcsc or oma, status ok or
    # error:<Name>.  The error names the line and the column.
    for old, new, column in (("8.5", "lots", "se_sum"), (",,,5", ",,ture,5", "stable"),
                             ("mcsc", "tdma", "scheme"), ("ok", "okay", "status"),
                             ("ok", "error:", "status")):
        text = _CSV_HEAD + _CSV_ROW + _CSV_ROW.replace(old, new)
        with pytest.raises(ConfigParseError, match=f"line 3, column {column}:"):
            read_rows(write(tmp_path, "bad.csv", text))
    good = _CSV_ROW + _CSV_ROW.replace(",,,5,ok", ",,false,5,error:RuntimeError")
    rows = read_rows(write(tmp_path, "good.csv", _CSV_HEAD + good))
    assert [(r.stable, r.status) for r in rows] == [(None, "ok"), (False, "error:RuntimeError")]


def test_grid_must_increase(tmp_path):
    with pytest.raises(ConfigValidationError):
        load_config(write(tmp_path, "bad.cfg", "grid = 0.2, 0.1\n"))


@pytest.mark.parametrize("text", [
    "p_max = nan\n",
    "arrival_rate = inf\n",
    "grid = 0.0, nan\n",
    "n_b = 64.7\n",
    "n_r = 100.5\n",
    "seed = 1.5\n",
    "seed = -1\n",
    "p_max = 4000\n",
    "g_b = 1e6\n",
    "horizon = 2000.9\n",
    "workers = 1.5\n",
    "axis = n_ris\ngrid = 100, 150.5\n",
])
def test_non_finite_and_fractional_values_rejected(tmp_path, text):
    with pytest.raises(ConfigValidationError):
        load_config(write(tmp_path, "bad.cfg", text))


def test_integral_floats_accepted_for_integer_keys(tmp_path):
    cfg = load_config(write(tmp_path, "ok.cfg", "n_b = 32.0\nseed = 7\n"))
    assert (cfg.scenario.n_b, cfg.seed) == (32, 7)
    assert isinstance(cfg.scenario.n_b, int)


def test_delay_horizon_floor(tmp_path, capsys):
    # The floor holds for every metrics value, so no command runs on a
    # horizon too short to judge a delay.
    with pytest.raises(ConfigValidationError, match="horizon must be >= 1000"):
        load_config(write(tmp_path, "bad.cfg", "metrics = delay\nhorizon = 10\n"))
    se_cfg = write(tmp_path, "se.cfg", "metrics = se\nhorizon = 999\n")
    with pytest.raises(ConfigValidationError, match="horizon must be >= 1000"):
        load_config(se_cfg)
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", se_cfg, "--out", out]) == 2
    assert "error: horizon must be >= 1000" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_empty_out_rejected(tmp_path, monkeypatch, capsys):
    with pytest.raises(ConfigValidationError, match="out"):
        load_config(write(tmp_path, "bad.cfg", "out =\n"))

    def never(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("duallink.cli.run_sweep", never)
    assert main(["sweep", "--out", ""]) == 2
    assert "error: out must name a file" in capsys.readouterr().err


def test_comments_and_duplicates(tmp_path):
    cfg = load_config(write(tmp_path, "c.cfg", "# comment\nq_d = 0.35\n"))
    assert cfg.scenario.q_d == 0.35
    with pytest.raises(ConfigValidationError):
        load_config(write(tmp_path, "d.cfg", "q_d = 0.3\nq_d = 0.4\n"))


def test_se_anchor_lc_only():
    sc = ScenarioParams()
    se_h, se_l, se_sum = spectral_efficiency(sc, 0.0, "mcsc")
    closed = (1 - sc.q_d) * math.log2(
        1 + sc.n_b * (7.904671334972175e-4) ** 2 * sc.p_max / 3.981071705534985e-11
    )
    assert abs(se_sum - closed) / closed < 0.005
    assert se_sum == pytest.approx(SE_SUM_LC_ONLY, rel=0.005)
    assert se_sum == pytest.approx(se_h + se_l, abs=1e-9)


def test_se_anchor_hc_only():
    sc = ScenarioParams()
    _, _, se_sum = spectral_efficiency(sc, 1.0, "mcsc")
    assert se_sum == pytest.approx(SE_SUM_HC_ONLY, rel=0.005)


def test_se_zero_when_direct_always_blocked():
    sc = ScenarioParams(q_d=1.0, q_r=0.1)
    _, se_l, _ = spectral_efficiency(sc, 0.1, "mcsc")
    assert se_l == pytest.approx(0.0, abs=1e-9)


def _sweep_config(tmp_path, extra=""):
    out = str(tmp_path / "sweep.csv")
    path = write(
        tmp_path, "exp.cfg",
        f"axis = alpha\ngrid = 0.0, 0.05, 0.1\nscheme = both\nmetrics = se\n"
        f"out = {out}\nseed = 3\n{extra}",
    )
    return load_config(path), out


def test_sweep_rows_and_invariants(tmp_path):
    cfg, out = _sweep_config(tmp_path)
    rows = run_sweep(cfg)
    assert len(rows) == 6
    assert all(r.status == "ok" for r in rows)
    for r in rows:
        assert r.se_sum == pytest.approx(r.se_h + r.se_l, abs=1e-9)
        assert r.se_h >= 0 and r.se_l >= 0
    mcsc = {r.sweep_value: r for r in rows if r.scheme == "mcsc"}
    # the all-LC point dominates and the HC share grows with the mix
    assert all(mcsc[0.0].se_sum >= mcsc[v].se_sum - 1e-9 for v in mcsc)
    ses = [mcsc[v].se_h for v in sorted(mcsc)]
    assert all(b >= a - 1e-9 for a, b in zip(ses, ses[1:]))
    # superposition never loses to time sharing here
    for v, r in mcsc.items():
        other = next(x for x in rows if x.scheme == "oma" and x.sweep_value == v)
        assert r.se_sum >= other.se_sum - 1e-6


def test_sweep_a_star_matches_delivered_rate(tmp_path):
    # At the max-min optimum both weighted gaps vanish, so the delivered SE
    # converts back to exactly a* packets per slot.
    out = str(tmp_path / "s.csv")
    cfg = load_config(write(
        tmp_path, "exp.cfg", f"scheme = mcsc\nmetrics = se\nout = {out}\n",
    ))
    run_sweep(cfg)
    sc = cfg.scenario
    rows = [r for r in read_rows(out) if r.status == "ok" and 0.0 < r.sweep_value < 1.0]
    assert len(rows) == len(cfg.grid) - 1
    for r in rows:
        delivered = r.se_sum * sc.slot_duration * sc.bandwidth / sc.packet_size
        assert delivered == pytest.approx(r.a_star, rel=1e-6)


def test_sweep_csv_roundtrip_and_determinism(tmp_path):
    cfg, out = _sweep_config(tmp_path)
    rows = run_sweep(cfg)
    assert read_rows(out) == rows
    with open(out, "rb") as fh:
        first = fh.read()
    run_sweep(cfg)
    with open(out, "rb") as fh:
        second = fh.read()
    assert first == second
    meta = (tmp_path / "sweep.csv.meta").read_text()
    assert meta.startswith("seed=3\nconfig_sha256=")


def test_sweep_error_row_keeps_going(tmp_path, monkeypatch):
    # A point whose solve raises gets an error row, and the sweep goes on.
    capacity_point = experiments._capacity_point

    def failing(scenario, alpha, *args, **kwargs):
        if alpha == 0.05:
            raise RuntimeError("the solver failed")
        return capacity_point(scenario, alpha, *args, **kwargs)

    monkeypatch.setattr("duallink.experiments._capacity_point", failing)
    out = str(tmp_path / "s.csv")
    cfg = load_config(write(
        tmp_path, "exp.cfg",
        f"axis = alpha\ngrid = 0.05, 0.1\nscheme = oma\nmetrics = se\nout = {out}\n",
    ))
    rows = run_sweep(cfg)
    assert rows[0].status == "error:RuntimeError"
    assert rows[0].se_sum is None
    assert rows[1].status == "ok"


def test_sweep_raises_a_coding_error(tmp_path, monkeypatch):
    # Only the solver's own failures become error rows; a failed assert is a bug.
    def failing(*args, **kwargs):
        raise AssertionError("a broken invariant")

    monkeypatch.setattr("duallink.experiments._capacity_point", failing)
    out = str(tmp_path / "s.csv")
    cfg = load_config(write(
        tmp_path, "exp.cfg",
        f"axis = alpha\ngrid = 0.05, 0.1\nscheme = oma\nmetrics = se\nout = {out}\n",
    ))
    with pytest.raises(AssertionError, match="a broken invariant"):
        run_sweep(cfg)


@pytest.mark.parametrize("axis, grid, bad", [
    ("q_d", "0.2, 1.5", 1.5),     # not a probability
    ("q_d", "0.05, 0.2", 0.05),   # below the default q_r = 0.1
    ("n_ris", "0, 100", 0.0),
    ("arrival", "-5, 100", -5.0),
    ("alpha", "0.0, 1e-200, 0.1", 1e-200),  # its capacity weight overflows the kernel
])
def test_sweep_rejects_bad_grid_values(tmp_path, capsys, axis, grid, bad):
    # A grid value no scenario accepts fails at the config boundary, naming
    # the axis and the value, before any point runs or any file is written.
    out = str(tmp_path / "s.csv")
    cfg = write(tmp_path, "exp.cfg", f"axis = {axis}\ngrid = {grid}\nmetrics = se\n")
    with pytest.raises(ConfigValidationError, match=f"^{axis} grid value "):
        load_config(cfg)
    assert main(["sweep", "--config", cfg, "--out", out]) == 2
    assert f"error: {axis} grid value {bad!r}: " in capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(out + ".meta")


def test_sweep_parallel_matches_serial(tmp_path):
    cfg, out = _sweep_config(tmp_path)
    serial = run_sweep(cfg)
    from dataclasses import replace
    parallel = run_sweep(replace(cfg, workers=2))
    assert parallel == serial


def test_sweep_pool_has_at_most_one_worker_per_point(tmp_path, monkeypatch):
    # A fake executor stands in for the process pool, so no process starts.
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    cfg, _ = _sweep_config(tmp_path)
    serial = run_sweep(cfg)
    assert run_sweep(replace(cfg, workers=5000)) == serial
    assert run_sweep(replace(cfg, workers=2)) == serial
    assert run_sweep(replace(cfg, grid=(0.05,), workers=5000)) == serial[2:4]
    assert sizes == [3, 2]


def test_cli_import_leaves_the_process_pool_unloaded():
    # Only a sweep with workers > 1 imports the process pool, so a CLI start
    # does not pay its 30 ms.
    code = "import sys, duallink.cli; print('concurrent.futures.process' in sys.modules)"
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_delay_sweep_lc_only_matches_time_sharing(tmp_path):
    # With no HC traffic both schemes put all power on the better LC beam,
    # so the same seeded trace gives the same delay cells.
    out = str(tmp_path / "d.csv")
    cfg = load_config(write(
        tmp_path, "exp.cfg",
        f"grid = 0.0\nscheme = both\nmetrics = delay\nhorizon = 20000\nout = {out}\n",
    ))
    mcsc, oma = run_sweep(cfg)
    assert (mcsc.scheme, oma.scheme) == ("mcsc", "oma")
    assert (mcsc.tau_l_slots, mcsc.stable, mcsc.iterations) == (
        oma.tau_l_slots, oma.stable, oma.iterations)
    assert mcsc.iterations == 0


def test_delay_metrics_rows(tmp_path):
    out = str(tmp_path / "d.csv")
    cfg = load_config(write(
        tmp_path, "exp.cfg",
        f"axis = alpha\ngrid = 0.05\nscheme = mcsc\nmetrics = delay\n"
        f"horizon = 20000\nout = {out}\nseed = 11\n",
    ))
    rows = run_sweep(cfg)
    (row,) = rows
    assert row.a_star is None
    assert row.tau_h_slots > 0 and row.tau_l_slots > 0
    assert row.stable is True
    back = read_rows(out)
    assert back == rows


@pytest.mark.parametrize("changes, verdicts", [
    pytest.param({}, (True, False), id="default"),  # time sharing cannot carry 700
    pytest.param({"q_d": 1.0, "q_r": 1.0}, (False, False), id="no-service"),
    pytest.param({"arrival_rate": 5000.0}, (False, False), id="overload"),
    pytest.param({"alpha": 0.0}, (True, True), id="no-hc"),
    pytest.param({"alpha": 1.0, "arrival_rate": 100.0}, (True, True), id="no-lc"),
    pytest.param({"alpha": 1.0, "arrival_rate": 0.0}, (True, True), id="no-arrivals"),
])
def test_operating_rates_stable_is_the_drift_sign(changes, verdicts):
    # Each queue is stable exactly when its mean increment per slot, the
    # class's arrivals less the service its route lets through, is negative.
    # A class without arrivals has no rate at alpha = 0 or 1, so a zero drift,
    # and never makes the verdict false.
    sc = replace(ScenarioParams(), **changes)
    per_slot = sc.slot_duration / sc.packet_size
    for scheme, verdict in zip(("mcsc", "oma"), verdicts):
        rate_h, rate_l, _, stable = experiments._operating_rates(sc, scheme)
        drifts = [(sc.alpha * sc.arrival_rate, (1 - sc.q_r) * per_slot * rate_h),
                  ((1 - sc.alpha) * sc.arrival_rate, (1 - sc.q_d) * per_slot * rate_l)]
        assert stable is verdict, scheme
        assert stable == all(demand - served < 0 for demand, served in drifts if demand > 0)
        if sc.alpha in (0.0, 1.0):
            assert min(rate_h, rate_l) == 0.0  # the drift rule alone would say unstable


def test_delay_sweep_stable_follows_the_gap(tmp_path):
    # The seed-4 sweep over alpha = 0.01, 0.03, 0.05, ... simulates its
    # 0.05/oma point with seed 4 + 2.  Both gaps are positive there (weighted
    # gap +0.325), so the point is stable, although the queue's trend over
    # 100,000 slots looks like growth.
    out = str(tmp_path / "d.csv")
    cfg = load_config(write(
        tmp_path, "exp.cfg",
        f"grid = 0.05\nscheme = oma\nmetrics = delay\nseed = 6\nout = {out}\n",
    ))
    (row,) = run_sweep(cfg)
    assert (row.tau_h_slots, row.tau_l_slots) == (1.393954959489054, 70.52963858811029)
    assert oma_optimize(cfg.scenario, 0.05).objective == pytest.approx(0.325, abs=1e-3)
    assert row.stable is True


def test_sweep_reflector_size_axis(tmp_path):
    # A larger reflector narrows the gap to the no-HC operating point.
    out = str(tmp_path / "n.csv")
    cfg = load_config(write(
        tmp_path, "exp.cfg",
        f"axis = n_ris\ngrid = 10000, 40000\nscheme = mcsc\nmetrics = se\n"
        f"alpha = 0.15\nout = {out}\n",
    ))
    rows = run_sweep(cfg)
    assert [r.sweep_value for r in rows] == [10000, 40000]
    assert rows[1].se_sum > rows[0].se_sum
    assert rows[1].se_h > rows[0].se_h


def test_sweep_arrival_axis_delay(tmp_path):
    out = str(tmp_path / "a.csv")
    cfg = load_config(write(
        tmp_path, "exp.cfg",
        f"axis = arrival\ngrid = 100, 600\nscheme = mcsc\nmetrics = delay\n"
        f"alpha = 0.05\nhorizon = 20000\nout = {out}\nseed = 21\n",
    ))
    rows = run_sweep(cfg)
    assert all(r.status == "ok" for r in rows)
    assert all(r.stable for r in rows)
    # heavier load, longer waits
    assert rows[1].tau_l_slots > rows[0].tau_l_slots


def test_write_rows_formats_cells(tmp_path):
    from duallink.experiments import SweepRow

    out = str(tmp_path / "w.csv")
    rows = [SweepRow(0.5, "mcsc", se_h=1.25, stable=False, iterations=7)]
    write_rows(out, rows)
    with open(out) as fh:
        text = fh.read().splitlines()
    assert text[0].startswith("sweep_value,scheme,")
    assert text[1] == "0.5,mcsc,1.25,,,,,,false,7,ok"


def test_read_rows_inverts_write_rows(tmp_path):
    # Every cell kind survives the round trip: empty cells, both stable
    # values, zero iterations, full-precision floats and an error status.
    from duallink.experiments import SweepRow

    rows = [
        SweepRow(0.0, "mcsc", se_h=0.0, se_l=9.306028068406784, se_sum=1 / 3,
                 a_star=930.6028068406785, iterations=0),
        SweepRow(0.05, "oma", tau_h_slots=1.5e-300, tau_l_slots=12.25, stable=True,
                 iterations=12),
        SweepRow(0.1, "mcsc", tau_h_slots=7.0, tau_l_slots=-0.0, stable=False),
        SweepRow(100.0, "oma", status="error:ValueError"),
    ]
    out = str(tmp_path / "round.csv")
    write_rows(out, rows)
    assert read_rows(out) == rows


def test_cli_solve_and_sweep(tmp_path, capsys):
    cfg_path = write(tmp_path, "cli.cfg", "")
    assert main(["solve", "--config", cfg_path, "--scheme", "oma"]) == 0
    assert "time_fraction" in capsys.readouterr().out

    out = str(tmp_path / "cli_sweep.csv")
    sweep_cfg = write(
        tmp_path, "sw.cfg",
        "axis = alpha\ngrid = 0.0\nscheme = oma\nmetrics = se\n",
    )
    assert main(["sweep", "--config", sweep_cfg, "--out", out]) == 0
    assert os.path.exists(out)
    assert "wrote 1 rows" in capsys.readouterr().out


def test_cli_simulate_writes_trace(tmp_path, capsys):
    cfg_path = write(
        tmp_path, "sim.cfg", "horizon = 2000\narrival_rate = 100\nalpha = 0.05\n"
    )
    out = str(tmp_path / "trace.csv")
    assert main(["simulate", "--config", cfg_path, "--out", out,
                 "--scheme", "oma", "--seed", "4"]) == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "slot,a_h,a_l,beta_d,beta_r,s_h,s_l,q_h,q_l"
    assert len(lines) == 2001
    assert "stable=" in capsys.readouterr().out


# The default `duallink simulate`: the trace CSV's SHA-256 and the stdout,
# regenerated with `python tests/pins.py --write`.
DEFAULT_TRACE_SHA256 = pins.load()["simulate default"]["trace.csv"]
DEFAULT_SIMULATE_STDOUT = pins.load()["simulate default"]["stdout"]


def test_default_simulate_output_is_pinned(tmp_path, capsys):
    """
    The default `duallink simulate` writes the same trace bytes and prints
    the same lines as the constants record.  They were taken with numpy
    2.4.6 and assume its Generator streams for the Poisson, binomial and
    uniform draws; a numpy release that changes those streams moves them.
    """
    out = str(tmp_path / "trace.csv")
    assert main(["simulate", "--out", out]) == 0
    with open(out, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == DEFAULT_TRACE_SHA256
    assert capsys.readouterr().out.replace(out, "<out>") == DEFAULT_SIMULATE_STDOUT


def test_cli_simulate_honours_explicit_sweep_csv(tmp_path, monkeypatch, capsys):
    # The name sweep.csv is the sweep's default, but given explicitly to
    # simulate it is where the trace goes.
    monkeypatch.chdir(tmp_path)
    cfg_path = write(tmp_path, "sim.cfg", "horizon = 1000\n")
    assert main(["simulate", "--config", cfg_path, "--out", "sweep.csv",
                 "--scheme", "oma"]) == 0
    assert "wrote 1000 slots to sweep.csv" in capsys.readouterr().out
    with open("sweep.csv") as fh:
        assert fh.readline() == "slot,a_h,a_l,beta_d,beta_r,s_h,s_l,q_h,q_l\n"
    assert not os.path.exists("trace.csv")
    # Without --out or an out key, each command writes its own default.
    assert main(["simulate", "--config", cfg_path, "--scheme", "oma"]) == 0
    assert os.path.exists("trace.csv")


# Integers at the edges of their digit counts.
_INT_EDGES = np.array([0, 9, 10, 99, 100, 999_999, 1_000_000])


def _synthetic_trace(kind: str, slots: int) -> QueueTrace:
    rng = np.random.default_rng(5)
    ints = rng.integers(0, 300, (4, slots))
    if kind == "edges":
        # Integer edges, an integer column all zeros in its first block, and
        # negative and unsigned integer columns, which are written as text.
        floats = rng.random((4, slots)) * 10.0 ** rng.integers(-20, 20, (4, slots))
        a_h = np.resize(_INT_EDGES, slots)
        a_l = a_h[::-1].copy()
        a_l[:_TRACE_ROWS_PER_WRITE] = 0
        negative = rng.integers(-128, 128, slots).astype(np.int8)
        unsigned = np.resize(_INT_EDGES, slots).astype(np.uint32)
        return QueueTrace(a_h, a_l, floats[0], floats[1], negative, unsigned,
                          floats[2], floats[3])
    if kind == "joint":
        # Coupled 0/1 routes and the floats they gate, as in a real trace;
        # a constant column; a 0.0/-0.0 pair; and a_l, three values between
        # two-valued columns, which a joint cell must not take in.
        u = rng.random(slots)
        beta_d, beta_r = (u >= 0.3).astype(np.int8), (u >= 0.1).astype(np.int8)
        zeros = np.where(rng.random(slots) < 0.5, 0.0, -0.0)
        return QueueTrace(np.full(slots, 7), rng.integers(0, 3, slots), beta_r * 297.54053200772296,
                          beta_d * (1.0 / 3.0), beta_d, beta_r, zeros, rng.random(slots) * 1e4)
    if kind == "random":
        floats = rng.random((4, slots)) * 10.0 ** rng.integers(-20, 20, (4, slots))
        floats[:, :3] = [0.0, 1e-300, 2.5][:slots]
    else:
        # Long runs of a few values, some whose text is easy to get wrong;
        # -0.0 sits next to 0.0 in the first block.
        pool = np.array([-0.0, 0.0, 5e-324, 1e16, 1e-5, 2.5, 1.0 / 3.0, 7.0])
        values = rng.choice(pool, (4, slots))
        lengths = rng.integers(1, 400, slots)
        floats = np.repeat(values, lengths, axis=1)[:, :slots]
        floats[:, :5] = [-0.0, 0.0, 5e-324, 1e16, 1e-5][:slots]
        ints = np.repeat(ints, lengths, axis=1)[:, :slots] % 3
    return QueueTrace(ints[0], ints[1], floats[0], floats[1],
                      ints[2].astype(np.int8), ints[3].astype(np.int8), floats[2], floats[3])


def test_trace_writer_matches_csv_module(tmp_path):
    # The byte-matrix writer gives the bytes of a csv.writer row loop with
    # repr floats, across its block boundaries; at 100,001 slots the slot
    # column goes from 99999 to 100000.
    cases = [(kind, slots) for kind in ("random", "runs", "edges")
             for slots in (1, _TRACE_ROWS_PER_WRITE - 1, _TRACE_ROWS_PER_WRITE,
                           _TRACE_ROWS_PER_WRITE + 1, 10_000)]
    joint = [("joint", slots) for slots in (1, _TRACE_ROWS_PER_BATCH - 1, _TRACE_ROWS_PER_BATCH,
                                            _TRACE_ROWS_PER_BATCH + 1, 10_000)]
    for kind, slots in [*cases, ("edges", 100_001), *joint]:
        trace = _synthetic_trace(kind, slots)
        fast = tmp_path / "fast.csv"
        with open(fast, "wb") as fh:
            _write_trace(fh, trace)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["slot", "a_h", "a_l", "beta_d", "beta_r",
                             "s_h", "s_l", "q_h", "q_l"])
            ints = [col.tolist() for col in (trace.a_h, trace.a_l, trace.beta_d, trace.beta_r)]
            floats = [map(repr, col.tolist()) for col in (trace.s_h, trace.s_l,
                                                          trace.q_h, trace.q_l)]
            writer.writerows(zip(range(slots), *ints, *floats))
        assert fast.read_bytes() == ref.read_bytes(), (kind, slots)


def test_cli_simulate_rejects_short_horizon(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the allocator ran")

    monkeypatch.setattr("duallink.cli._operating_rates", never)
    cfg_path = write(tmp_path, "short.cfg", "horizon = 999\n")
    out = str(tmp_path / "trace.csv")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 2
    assert "error: horizon must be >= 1000" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, text", [
    pytest.param("simulate", "", id="simulate"),
    pytest.param("sweep", "metrics = delay\n", id="delay-sweep"),
])
def test_horizon_above_the_limit_fails_at_load(tmp_path, capsys, command, text):
    # A horizon whose arrays would not fit in memory fails at load, before
    # anything is allocated: exit 2 and one error line, not a MemoryError.
    cfg = write(tmp_path, "long.cfg", f"{text}horizon = 1000000000000000\n")
    with pytest.raises(ConfigValidationError, match="^horizon must be >= 1000 and <= 100000000$"):
        load_config(cfg)
    out = str(tmp_path / "out.csv")
    assert main([command, "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr() == ("", "error: horizon must be >= 1000 and <= 100000000\n")
    assert not os.path.exists(out)


def test_cli_simulate_opens_the_trace_before_solving(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the allocator ran")

    monkeypatch.setattr("duallink.cli._operating_rates", never)
    out = str(tmp_path / "nodir" / "trace.csv")
    assert main(["simulate", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_simulate_leaves_no_partial_trace(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("inner solve lost feasibility")

    monkeypatch.setattr("duallink.cli._operating_rates", fail)
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_simulate_failure_keeps_an_earlier_file(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("inner solve lost feasibility")

    monkeypatch.setattr("duallink.cli._operating_rates", fail)
    out = tmp_path / "trace.csv"
    out.write_bytes(b"an earlier trace\n")
    assert main(["simulate", "--out", str(out)]) == 2
    assert out.read_bytes() == b"an earlier trace\n"


def test_cli_simulate_failure_removes_no_device(monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("inner solve lost feasibility")

    def never(path):
        raise AssertionError(f"removed {path}")

    monkeypatch.setattr("duallink.cli._operating_rates", fail)
    monkeypatch.setattr("duallink.cli.os.remove", never)
    assert main(["simulate", "--out", os.devnull]) == 2


def test_cli_simulate_overwrites_a_longer_file(tmp_path, capsys):
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    reused.write_bytes(b"x" * 200_000)
    cfg_path = write(tmp_path, "short.cfg", "horizon = 1000\n")
    for out in (fresh, reused):
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()


UNUSABLE = "both route coefficients"
OUT_OF_WINDOW = "route SNRs must lie in [-50, 90] dB"


@pytest.mark.parametrize("command", ["solve", "sweep", "oracle", "simulate"])
@pytest.mark.parametrize("text, error", [
    pytest.param("d_br = 1e6\nd_ru = 1e6\nl_x = 1e-300\n", f"scenario: {UNUSABLE}",
                 id="gain-underflows"),
    pytest.param("n_r = 1e12\nl_x = 1e300\n", f"scenario: {UNUSABLE}", id="square-overflows"),
    # n_b * n_r is an int too large for a float.
    pytest.param("axis = n_ris\ngrid = 100, 1e308\n", f"n_ris grid value 1e+308: {UNUSABLE}",
                 id="grid-point-infinite"),
    pytest.param("noise_psd = -280\n", f"scenario: {OUT_OF_WINDOW}, got 146.0 dB direct",
                 id="snr-above-window"),
    pytest.param("noise_psd = -20\n", f"scenario: {OUT_OF_WINDOW}, got -114.0 dB direct",
                 id="snr-below-window"),
    # w p_max / N underflows to 0: the SNRs are taken as sums of logs.
    pytest.param("p_max = -3100\nnoise_psd = 100\n", f"scenario: {OUT_OF_WINDOW}, got -3344.0",
                 id="snr-underflows"),
    # The scenario's reflected SNR is -16.8 dB; one element alone gives -56.8 dB.
    pytest.param("l_x = 5e-5\naxis = n_ris\ngrid = 1, 10000\n",
                 f"n_ris grid value 1.0: {OUT_OF_WINDOW}", id="grid-point-outside-window"),
])
def test_cli_rejects_unusable_route_gains(tmp_path, capsys, command, text, error):
    # Route gains the allocator cannot use, or route SNRs outside the window
    # it represents, fail at the config boundary: exit 2 and one error line,
    # not a traceback at solve time or error rows.
    cfg, out = write(tmp_path, "gains.cfg", text), str(tmp_path / "out.csv")
    with pytest.raises(ConfigValidationError, match=f"^{re.escape(error)}"):
        load_config(cfg)
    assert main([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["solve", "sweep", "oracle", "simulate"])
@pytest.mark.parametrize("text, error", [
    ("alpha = 1e-31\n", "alpha must be 0 or lie in [1e-30, 1]"),
    ("arrival_rate = 1.1e120\n", "arrival_rate must lie in [0, 1e+120]"),
])
def test_cli_rejects_traffic_the_kernel_cannot_hold(tmp_path, capsys, command, text, error):
    # A capacity weight 1/alpha above 1e30 or an arrival rate above 1e120
    # would overflow the kernel's Newton system: exit 2 at load.
    cfg, out = write(tmp_path, "traffic.cfg", text), str(tmp_path / "out.csv")
    assert main([command, "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("text, command, error", [
    # The allocator cannot solve this scenario, so it fails at load.
    *[pytest.param("noise_psd = -20\n", command, f"scenario: {OUT_OF_WINDOW}",
                   id=f"low-snr-{command}") for command in ("solve", "simulate", "oracle")],
    pytest.param("slot_duration = 1e300\n", "solve",
                 "slot_duration * bandwidth / packet_size must be at most 1e+118",
                 id="long-slot-solve"),
])
def test_cli_reports_solver_failures(tmp_path, capsys, text, command, error):
    # What a sweep writes as error rows, the other commands report as one
    # error line and exit 2: no traceback, and no warning (the test suite
    # turns warnings into errors), nor a NaN objective.
    cfg, out = write(tmp_path, "bad.cfg", text), str(tmp_path / "out.csv")
    assert main([command, "--config", cfg, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}") and captured.err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("text", [
    pytest.param("", id="default"),
    pytest.param("noise_psd = -223.9\n", id="direct-snr-90-db"),
])
def test_sweep_at_the_largest_service_factor_writes_ok_rows(tmp_path, capsys, text):
    # a* reaches several times the service factor, and a sweep checks the
    # time-sharing a* as an arrival rate: up to the largest factor the config
    # accepts, it stays within the arrival limit, so no row is an error.
    sc = ScenarioParams()
    slot = 0.99 * experiments._MAX_SERVICE_FACTOR * sc.packet_size / sc.bandwidth
    cfg = write(tmp_path, "slot.cfg", f"{text}slot_duration = {slot!r}\n")
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = read_rows(out)
    assert [(row.scheme, row.status) for row in rows] == [
        (scheme, "ok") for _ in default_config().grid for scheme in ("mcsc", "oma")]
    assert max(row.a_star for row in rows) > 5.0 * experiments._MAX_SERVICE_FACTOR


def test_singular_newton_systems_become_solver_failures(tmp_path, monkeypatch, capsys):
    # A Newton system still singular after the kernel's one ridge raises
    # LinAlgError, a ValueError: the sweep writes an error row for each
    # point that needs the kernel, and solve exits 2 with one error line.
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    cfg, out = write(tmp_path, "grid.cfg", "grid = 0, 0.1\n"), str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    assert [(row.sweep_value, row.scheme, row.status) for row in read_rows(out)] == [
        (0.0, "mcsc", "ok"), (0.0, "oma", "ok"),
        (0.1, "mcsc", "error:LinAlgError"), (0.1, "oma", "ok")]
    capsys.readouterr()
    assert main(["solve"]) == 2
    assert capsys.readouterr() == ("", "error: Singular matrix\n")


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = write(tmp_path, "bad.cfg", "unknown_key = 1\n")
    assert main(["solve", "--config", bad]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve --config", "simulate --out"])
def test_cli_reports_a_directory_path(tmp_path, capsys, command):
    # A path that names a directory fails like a missing file: exit 2 and a
    # one-line error, not an IsADirectoryError traceback.
    assert main(command.split() + [str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_rejects_overflow_and_negative_seed(tmp_path, capsys):
    huge = write(tmp_path, "huge.cfg", "p_max = 4000\n")
    assert main(["solve", "--config", huge]) == 2
    assert "p_max" in capsys.readouterr().err
    out = str(tmp_path / "trace.csv")
    assert main(["simulate", "--seed", "-5", "--out", out]) == 2
    assert "seed" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("grid_n", ["1", "5000"])
def test_cli_rejects_grid_n_before_solving(monkeypatch, capsys, grid_n):
    def never(*args, **kwargs):
        raise AssertionError("the allocator ran")

    monkeypatch.setattr("duallink.cli.sca_power_allocation", never)
    assert main(["oracle", "--grid-n", grid_n]) == 2
    assert "error: --grid-n" in capsys.readouterr().err


def test_cli_oracle_output_is_pinned(capsys):
    # The default config at grid 101, digit for digit, as pinned by
    # `python tests/pins.py --write`.
    assert main(["oracle", "--grid-n", "101"]) == 0
    assert capsys.readouterr().out == pins.load()["oracle --grid-n 101"]["stdout"]


def test_default_sweep_matches_golden(tmp_path, monkeypatch):
    # The default sweep against its committed CSV: text cells and counts
    # exactly, numbers within 1e-12 relative.  A change that moves a number
    # on purpose regenerates the file with `duallink sweep`.  The sidecar is
    # pinned byte for byte: its digest hashes repr(config), so it moves with
    # any default, the derived panel angles included.  `python tests/pins.py
    # --write` regenerates the CSV.
    monkeypatch.chdir(tmp_path)
    assert main(["sweep"]) == 0
    out = str(tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv.meta").read_text() == (
        "seed=1\n"
        "config_sha256=95d393294e4f5a55fe0d593f37f5f8ef87ccd53e5da5b8679d433fb25f535466\n"
    )
    with open(GOLDEN_SWEEP, newline="") as fh:
        golden = list(csv.reader(fh))
    with open(out, newline="") as fh:
        fresh = list(csv.reader(fh))
    assert len(fresh) == len(golden) and fresh[0] == golden[0] == CSV_HEADER
    exact = {"sweep_value", "scheme", "stable", "iterations", "status"}
    for want, got in zip(golden[1:], fresh[1:]):
        for name, w, g in zip(CSV_HEADER, want, got):
            if name in exact or w == "" or g == "":
                assert g == w, (name, want)
            else:
                assert float(g) == pytest.approx(float(w), rel=1e-12, abs=0.0), (name, want)
