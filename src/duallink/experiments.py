"""
Experiment orchestration: config files, sweeps, and CSV emission.

A flat key=value config selects a scenario (boundary units: dBm for powers,
dBm/Hz for the noise PSD, dB for antenna gains, GHz for carrier and
bandwidth; everything else SI) plus one sweep axis.  For every grid point
the requested schemes are solved; spectral-efficiency columns come from the
largest stabilisable arrival rate, delay columns from a seeded queue
simulation at the configured arrival rate.  Results land in one CSV with a
small sidecar recording the seed and a config digest.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass, fields, replace

from .allocation import capacity_allocation, sca_power_allocation
from .allocation import max_feasible_arrival  # noqa: F401  (bench/spans.py rebinds it here)
from .link import ScenarioParams
from .oma import oma_max_feasible_arrival, oma_optimize
from .queuesim import MIN_DELAY_HORIZON, mean_delay, run_simulation

# Each sweep axis and the ScenarioParams field its grid values set.
_AXIS_FIELDS = {"alpha": "alpha", "q_d": "q_d", "n_ris": "n_r", "arrival": "arrival_rate"}
_SCHEMES = ("mcsc", "oma", "both")
_METRICS = ("se", "delay", "both")
# Where run_sweep writes when the config names no output file.
SWEEP_OUT = "sweep.csv"


class ConfigParseError(Exception):
    """The config file is not flat key=value text, or a sweep CSV is malformed."""


class ConfigValidationError(Exception):
    """The config parsed but holds unknown keys or inconsistent values."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario plus sweep selection; see load_config for the file format."""

    scenario: ScenarioParams
    axis: str = "alpha"
    grid: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25)
    scheme: str = "both"
    metrics: str = "se"
    horizon: int = 100000
    seed: int = 1
    out: str | None = None  # None: the writing command's own default file
    workers: int = 1

    def __post_init__(self):
        if self.axis not in _AXIS_FIELDS:
            raise ConfigValidationError(
                f"axis must be one of {tuple(_AXIS_FIELDS)}, got {self.axis!r}")
        if self.scheme not in _SCHEMES:
            raise ConfigValidationError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if self.metrics not in _METRICS:
            raise ConfigValidationError(f"metrics must be one of {_METRICS}, got {self.metrics!r}")
        if len(self.grid) == 0:
            raise ConfigValidationError("sweep grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigValidationError("sweep grid must be strictly increasing")
        if self.axis == "n_ris" and not all(float(v).is_integer() for v in self.grid):
            raise ConfigValidationError("n_ris grid values must be integers")
        for value in self.grid:
            _point_scenario(self, value)
        if self.horizon < MIN_DELAY_HORIZON:
            raise ConfigValidationError(f"horizon must be >= {MIN_DELAY_HORIZON}")
        if self.workers < 1:
            raise ConfigValidationError("workers must be >= 1")
        if self.seed < 0:
            raise ConfigValidationError("seed must be >= 0")
        if self.out == "":
            raise ConfigValidationError("out must name a file")


@dataclass(frozen=True)
class SweepRow:
    """One CSV row: a sweep point solved for one scheme."""

    sweep_value: float
    scheme: str
    se_h: float | None = None
    se_l: float | None = None
    se_sum: float | None = None
    a_star: float | None = None
    tau_h_slots: float | None = None
    tau_l_slots: float | None = None
    stable: bool | None = None
    iterations: int | None = None
    status: str = "ok"


CSV_HEADER = [f.name for f in fields(SweepRow)]


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _dbm_to_watt(dbm: float) -> float:
    return _db_to_linear(dbm) * 1e-3


_SCENARIO_CONVERSIONS = {
    "f": lambda v: v * 1e9,
    "bandwidth": lambda v: v * 1e9,
    "p_max": _dbm_to_watt,
    "noise_psd": _dbm_to_watt,
    "g_b": _db_to_linear,
    "g_u": _db_to_linear,
}
_SCENARIO_INTS = {"n_b", "n_r"}
_EXPERIMENT_STRS = {"axis", "scheme", "metrics", "out"}
_EXPERIMENT_INTS = {"horizon", "seed", "workers"}


def _parse_number(key: str, raw: str, integer: bool = False) -> float | int:
    """A finite number, or with ``integer`` an integral one, as an int."""
    try:
        num = float(raw)
    except ValueError as exc:
        raise ConfigValidationError(f"{key}: expected a number, got {raw!r}") from exc
    if not math.isfinite(num) or (integer and not num.is_integer()):
        kind = "an integer" if integer else "a finite number"
        raise ConfigValidationError(f"{key}: expected {kind}, got {raw!r}")
    return int(num) if integer else num


def default_config() -> ExperimentConfig:
    """Baseline experiment: the default scenario swept over the HC fraction."""
    return ExperimentConfig(scenario=ScenarioParams())


def load_config(path: str) -> ExperimentConfig:
    """
    Read and validate a flat key=value config file.

    Scenario keys mirror ScenarioParams field names; f and bandwidth are
    given in GHz, p_max in dBm, noise_psd in dBm/Hz, g_b and g_u in dB, all
    other values in their SI units.  Experiment keys: axis, grid (comma
    separated), scheme, metrics, horizon (at least MIN_DELAY_HORIZON slots,
    whatever the metrics), seed, out, workers.  Lines starting with '#' are
    ignored.  An empty file yields the default scenario and sweep.

    Raises FileNotFoundError, ConfigParseError, or ConfigValidationError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()

    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigParseError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigParseError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigValidationError(f"duplicate key {key!r}")
        raw[key] = value

    scenario_fields = {f.name for f in fields(ScenarioParams)}
    scenario_kwargs = {}
    experiment_kwargs = {}
    for key, value in raw.items():
        if key in scenario_fields:
            num = _parse_number(key, value, integer=key in _SCENARIO_INTS)
            conv = _SCENARIO_CONVERSIONS.get(key)
            try:
                scenario_kwargs[key] = conv(num) if conv else num
            except OverflowError as exc:
                raise ConfigValidationError(f"{key}: {value!r} is out of range") from exc
        elif key == "grid":
            experiment_kwargs["grid"] = tuple(_parse_number(key, v) for v in value.split(","))
        elif key in _EXPERIMENT_STRS:
            experiment_kwargs[key] = value
        elif key in _EXPERIMENT_INTS:
            experiment_kwargs[key] = _parse_number(key, value, integer=True)
        else:
            raise ConfigValidationError(f"unknown config key {key!r}")

    try:
        scenario = ScenarioParams(**scenario_kwargs)
    except ValueError as exc:
        raise ConfigValidationError(str(exc)) from exc
    return ExperimentConfig(scenario=scenario, **experiment_kwargs)


def spectral_efficiency(
    scenario: ScenarioParams, alpha: float, scheme: str = "mcsc"
) -> tuple[float, float, float]:
    """
    Per-stream and sum spectral efficiency [bit/s/Hz] at the largest
    stabilisable arrival rate for the given HC fraction.

    Each stream's rate is weighted by its route's availability (1 - q_r for
    HC, 1 - q_d for LC): the long-run rate per hertz it delivers.
    """
    se_h, se_l, *_ = _capacity_point(scenario, alpha, scheme)
    return se_h, se_l, se_h + se_l


def _capacity_point(
    scenario: ScenarioParams, alpha: float, scheme: str
) -> tuple[float, float, float, int]:
    """(se_h, se_l, a_star, iterations) at the feasibility boundary."""
    if scheme == "mcsc":
        res = capacity_allocation(scenario, alpha)
        a_star, rate_h, rate_l, iters = res.objective, res.rate_h, res.rate_l, res.iterations
    elif scheme == "oma":
        a_star = oma_max_feasible_arrival(scenario, alpha)
        res = oma_optimize(scenario, alpha, a_star)
        rate_h, rate_l, iters = res.rate_h, res.rate_l, 0
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return (
        (1.0 - scenario.q_r) * rate_h / scenario.bandwidth,
        (1.0 - scenario.q_d) * rate_l / scenario.bandwidth,
        a_star,
        iters,
    )


def _operating_rates(scenario: ScenarioParams, scheme: str) -> tuple[float, float, int]:
    """Stream rates [bit/s] at the configured traffic, for queue simulation."""
    if scheme == "mcsc":
        res = sca_power_allocation(scenario)
        return res.rate_h, res.rate_l, res.iterations
    res = oma_optimize(scenario)
    return res.rate_h, res.rate_l, 0


def _point_scenario(config: ExperimentConfig, value: float) -> ScenarioParams:
    """The config's scenario with its sweep axis set to value."""
    field = _AXIS_FIELDS[config.axis]
    try:
        return replace(config.scenario, **{field: int(value) if field == "n_r" else value})
    except ValueError as exc:
        raise ConfigValidationError(f"{config.axis} grid value {value!r}: {exc}") from exc


def _sweep_point(args: tuple[ExperimentConfig, int, float]) -> list[SweepRow]:
    config, index, value = args
    schemes = ["mcsc", "oma"] if config.scheme == "both" else [config.scheme]
    scenario = _point_scenario(config, value)
    rows = []
    for scheme in schemes:
        cells = {}
        try:
            if config.metrics in ("se", "both"):
                se_h, se_l, a_star, iterations = _capacity_point(scenario, scenario.alpha, scheme)
                cells.update(se_h=se_h, se_l=se_l, se_sum=se_h + se_l, a_star=a_star,
                             iterations=iterations)
            if config.metrics in ("delay", "both"):
                rate_h, rate_l, sim_iters = _operating_rates(scenario, scheme)
                cells.setdefault("iterations", sim_iters)
                trace = run_simulation(
                    scenario, (rate_h, rate_l), config.horizon, config.seed + index
                )
                stats = mean_delay(
                    trace, scenario.alpha, scenario.arrival_rate, scenario.slot_duration
                )
                cells.update(tau_h_slots=stats.tau_h_slots, tau_l_slots=stats.tau_l_slots,
                             stable=stats.stable)
            rows.append(SweepRow(value, scheme, **cells))
        except (ValueError, RuntimeError, ArithmeticError) as exc:  # the solver's failures
            rows.append(SweepRow(value, scheme, status=f"error:{type(exc).__name__}"))
    return rows


def run_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """
    Solve every sweep point, write the CSV (``config.out``, else SWEEP_OUT)
    and its sidecar, return the rows.

    Points run independently (optionally in a process pool of at most one
    worker per point); rows are ordered by sweep index then scheme
    regardless of completion order, so a given config and seed always
    produce byte-identical output.
    """
    if config.out is None:
        config = replace(config, out=SWEEP_OUT)
    payloads = [(config, i, v) for i, v in enumerate(config.grid)]
    workers = min(config.workers, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # costs 30 ms at import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_point, payloads))
    else:
        chunks = [_sweep_point(p) for p in payloads]
    rows = [row for chunk in chunks for row in chunk]
    write_rows(config.out, rows)
    _write_sidecar(config)
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows(path: str, rows: list[SweepRow]) -> None:
    """Emit rows as RFC-4180 CSV with full float precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([_format_cell(getattr(row, name)) for name in CSV_HEADER]
                         for row in rows)


def _optional(parse):
    return lambda cell: None if cell == "" else parse(cell)


def _text(pattern: str, value=str):
    """A cell parser: value(cell) for a cell that matches the regex pattern."""

    def parse(cell: str):
        if not re.fullmatch(pattern, cell):
            raise ValueError(f"{cell!r} does not match {pattern!r}")
        return value(cell)

    return parse


# How read_rows parses each column: an optional float unless named here.
# A status is ok or error:<exception name>.
_CELL_PARSERS = {name: _optional(float) for name in CSV_HEADER} | {
    "sweep_value": float,
    "scheme": _text("mcsc|oma"),
    "stable": _text("|true|false", _optional(lambda cell: cell == "true")),
    "iterations": _optional(int),
    "status": _text(r"ok|error:[A-Za-z_]\w*"),
}


def read_rows(path: str) -> list[SweepRow]:
    """
    Parse a sweep CSV back into rows; inverse of write_rows.  Raises
    ConfigParseError, naming the line and the column, on malformed input.
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigParseError("line 1: empty file, expected the CSV header")
        if header != CSV_HEADER:
            raise ConfigParseError(f"line 1: unexpected CSV header {header!r}")
        for rec in reader:
            where = f"line {reader.line_num}"
            if len(rec) != len(CSV_HEADER):
                raise ConfigParseError(
                    f"{where}: expected {len(CSV_HEADER)} cells, got {len(rec)}")
            cells = {}
            for name, cell in zip(CSV_HEADER, rec):
                try:
                    cells[name] = _CELL_PARSERS[name](cell)
                except ValueError as exc:
                    raise ConfigParseError(f"{where}, column {name}: {exc}") from exc
            rows.append(SweepRow(**cells))
    return rows


def config_digest(config: ExperimentConfig) -> str:
    return hashlib.sha256(repr(config).encode()).hexdigest()


def _write_sidecar(config: ExperimentConfig) -> None:
    with open(config.out + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"seed={config.seed}\n")
        fh.write(f"config_sha256={config_digest(config)}\n")
