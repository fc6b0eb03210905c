"""
duallink benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-se --seed 1 --seconds 56 --trace 0

Run from a source checkout; the package is imported from ``src/``.  With
``--trace 0`` the operations run untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced operations alternate and
the per-layer metrics are reported.  Human-readable lines (stamp, inputs,
checks, metrics) come first; the last line of standard output is one JSON
object.  See bench/README.md for the workloads and every metric.
"""

import os

# One BLAS thread, pinned before numpy loads: the kernel's matrices are 9x9,
# and a thread pool only adds start-up cost and jitter.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_metrics, read_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
# Set-up samples per run, spread over the run so that they see the same
# machine conditions as the operations they sit between.
SETUP_SAMPLES = 15
# Fresh interpreter to ready: import the package, load and validate a config.
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import duallink\n"
    "duallink.load_config(sys.argv[2])\n"
    "print('ready', flush=True)\n"
)


class SetupSampler:
    """Times fresh interpreters from start to ready, between operations."""

    def __init__(self, config_path: Path):
        self.config_path = config_path
        self.samples: list[float] = []
        self._spawn()  # untimed: fills the bytecode cache

    def _spawn(self) -> float:
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(self.config_path)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up interpreter failed with code {proc.returncode}")
        return elapsed

    def top_up(self, fraction: float) -> None:
        """Sample until the run's share `fraction` of SETUP_SAMPLES is taken."""
        while len(self.samples) < max(1, round(SETUP_SAMPLES * min(fraction, 1.0))):
            self.samples.append(self._spawn())


class Runner:
    """Runs operations through duallink.cli.main and checks what they wrote."""

    def __init__(self, workload, run_dir: Path):
        from duallink import cli

        self.cli = cli
        self.workload = workload
        self.run_dir = run_dir
        self.check_results: dict[str, list[bool]] = {}
        self.check_values: dict[str, list[float]] = {}
        self.errors: list[str] = []

    def run(self, op, tracer: Tracer | None = None) -> tuple[float, bool]:
        """(wall seconds, failed) for one operation in its own temp directory."""
        op_dir = Path(tempfile.mkdtemp(prefix="op-", dir=self.run_dir))
        try:
            config = op_dir / "exp.cfg"
            config.write_text(op.config, encoding="utf-8")
            out = op_dir / op.out_name
            argv = [op.command, "--config", str(config), "--out", str(out)]
            code, error = None, None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    if tracer is None:
                        code = self.cli.main(argv)
                    else:
                        with tracer.installed():
                            code = tracer.call("cli.main", self.cli.main, argv)
            except Exception as exc:  # an operation failure is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            if code != 0:
                self.errors.append(error or f"exit code {code}")
                return wall, True
            try:
                checks = self.workload.check(op, str(out))
            except (OSError, LookupError, ValueError) as exc:  # unreadable output
                self.errors.append(f"output check: {type(exc).__name__}: {exc}")
                return wall, True
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)
        for name, (ok, value) in checks.items():
            self.check_results.setdefault(name, []).append(ok)
            if value is not None:
                self.check_values.setdefault(name, []).append(value)
        return wall, not all(ok for ok, _ in checks.values())

    def warm_up(self, op) -> None:
        """One untimed `duallink solve` so lazy imports and first calls are paid."""
        config = self.run_dir / "warmup.cfg"
        config.write_text(op.config, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(["solve", "--config", str(config)])


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percent, value) of the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def stamp(seed: int, ops) -> dict:
    import numpy

    def git_sha() -> str:
        if not (ROOT / ".git").exists():
            return "unavailable (not a git checkout)"
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return "unavailable"
        return proc.stdout.strip() or "unavailable"

    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "duallink").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
        "alpha_grids": sorted({op.grid for op in ops if op.grid}),
        "horizon": max(op.horizon for op in ops),
        "scenarios": len(ops),
    }


def _next_fits(start: float, done: int, seconds: float) -> bool:
    """Start another unit of work only if, at the pace so far, it ends in time."""
    elapsed = time.perf_counter() - start
    return done == 0 or elapsed * (done + 1) / done <= seconds


def run_untraced(runner: Runner, ops, seconds: float, setup: SetupSampler):
    """
    Whole passes over the pool for `seconds`, set-up samples in between.
    Returns the wall time of each pass and of each operation, and the
    number of failed operations.
    """
    pass_walls, op_walls, failed = [], [], 0
    start = time.perf_counter()
    while _next_fits(start, len(pass_walls), seconds):
        pass_wall = 0.0
        for op in ops:
            setup.top_up((time.perf_counter() - start) / seconds)
            wall, bad = runner.run(op)
            op_walls.append(wall)
            pass_wall += wall
            failed += bad
        pass_walls.append(pass_wall)
    setup.top_up(1.0)
    return pass_walls, op_walls, failed


def run_traced(runner: Runner, ops, seconds: float, spans_path: Path):
    """
    Whole passes over the pool for `seconds`; each operation runs once
    untraced and once traced, in alternating order.  Counts are
    averaged over whole passes, so they repeat exactly for a seed.
    """
    tracer = Tracer()
    plain, traced, failed = [], [], 0
    start = time.perf_counter()
    passes = 0
    while _next_fits(start, passes, seconds):
        passes += 1
        for op in ops:
            order = (None, tracer) if len(traced) % 2 == 0 else (tracer, None)
            for t in order:
                wall, bad = runner.run(op, t)
                failed += bad
                if t is None:
                    plain.append(wall)
                else:
                    traced.append(wall)
                    tracer.op += 1
    tracer.write(str(spans_path))
    metrics = layer_metrics(read_spans(str(spans_path)), len(traced))
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["tracing.overhead_s"] = (overhead, "s")
    return metrics, len(plain) + len(traced), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "duallink" / "__init__.py").is_file():
        print(f"error: no duallink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    ops = workload.make_ops(args.seed)
    TMP_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        print(f"# duallink benchmark: workload={workload.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("stamp " + json.dumps(stamp(args.seed, ops)))
        metrics: dict[str, tuple[float, str]] = {}
        runner = Runner(workload, run_dir)
        runner.warm_up(ops[0])
        if args.trace:
            layer, attempted, failed = run_traced(
                runner, ops, args.seconds, run_dir / "spans.jsonl")
            metrics.update(layer)
        else:
            config = run_dir / "setup.cfg"
            config.write_text(ops[0].config, encoding="utf-8")
            setup = SetupSampler(config)
            passes, walls, failed = run_untraced(runner, ops, args.seconds, setup)
            attempted = len(walls)
            metrics["setup_s"] = (statistics.median(setup.samples), "s")
            units = len(passes) * sum(op.units for op in ops)
            metrics["wall_s"] = (statistics.median(passes), "s")
            metrics["ops_per_s"] = (units / sum(passes), "1/s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()

    for name, results in runner.check_results.items():
        verdict = "PASS" if all(results) else "FAIL"
        values = runner.check_values.get(name)
        detail = f", max {max(values):.3e}" if values else ""
        print(f"check {name}: {verdict} ({sum(results)}/{len(results)} ops{detail})")
    for error in runner.errors:
        print(f"error {error}")
    if not args.trace:
        tail = tail_percentile(walls)
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                     else "no percentile has ten operations beyond it")
        print(f"metric wall_s {metrics['wall_s'][0]:.4f} s (median of {len(passes)} "
              f"passes of {len(ops)} operations; per operation over {len(walls)}: "
              f"median {statistics.median(walls):.4f} s, {tail_text})")
        print(f"metric ops_per_s {metrics['ops_per_s'][0]:.6g} 1/s "
              f"({workload.unit_name} per second)")
        print(f"metric failed_ratio {failed / attempted:.4g} ratio ({failed}/{attempted})")
        print(f"metric setup_s {metrics['setup_s'][0]:.4f} s "
              f"(median of {len(setup.samples)} fresh interpreters)")
        print(f"metric peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB")
        a_star = runner.check_values.get("a_star_rel_err")
        print("metric a_star_rel_err "
              + (f"{max(a_star):.4g} ratio" if a_star else "n/a (sweep-se only)"))
    else:
        for name, (value, unit) in metrics.items():
            print(f"metric {name} {value:.6g} {unit}")
    correct = failed == 0 and all(all(r) for r in runner.check_results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
