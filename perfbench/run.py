"""Benchmark of the kurapart CLI: four workloads, checked outputs, traced replay.

Usage, from the repository root:

    python3 perfbench/run.py --workload search-hub --seed 1 --seconds 20 --trace 0

With --trace 0 it times whole `kurapart` CLI runs as child processes, one
at a time (a closed loop with one client), for --seconds seconds, checks
every output, and reports the end-to-end metrics, each the median over the
run's samples:

  wall_ref     one CLI run, from spawning the process to its exit, divided
               by the mean time of the reference kernel (reference.py) run
               just before and just after it: the run's time in units of
               the host's momentary speed.  On a shared virtual machine the
               raw time of the same run drifts by up to 70% within minutes
               and the kernel drifts with it, so the ratio stays steady
  rows_per_ref output rows per reference-kernel time, rows / wall_ref:
               report lines (one per bipartition) for search, CSV data rows
               (one per accepted step) for simulate
  setup_s      a child that starts the interpreter, imports kurapart, loads
               the workload's graph and exits, in seconds
  peak_rss_mb  peak resident memory of the CLI child, from os.wait4

The raw wall_s, the child's cpu_s (user plus system, from os.wait4) and
the reference kernel's ref_s are printed too, with their quartiles.

The failure rate is `failed / attempted` in the result line; it is not a
metric of its own because on a correct program it reads 0.

With --trace 1 it also replays runs in-process with a span around each call
into the library layers (see replay.py) and reports the per-layer metrics
that BENCHMARK.json lists.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  Scratch files, the oracle cache and span files go
to `.bench_work/` under the repository root.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
from reference import reference_s  # noqa: E402
from replay import Tracer, layer_times, replay  # noqa: E402
from workloads import WORKLOADS, Inputs, make_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_LIMIT_S = 150.0
SETUP_PROBES_FIRST = 3
TRACE_TIMED_RUNS = 2
RHS_CALLS = 31


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], cwd: Path) -> tuple[float, int, os.struct_rusage, str]:
    """Run one child to completion: (seconds from spawn to exit, exit code,
    its resource usage, stderr)."""
    with open(cwd / "child.stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode(errors="replace").strip()
    return elapsed, proc.returncode, usage, message


def probe_code(inputs: Inputs, report_path: bool = False) -> str:
    lines = ["import kurapart.cli", "from kurapart import graph_core as gc", inputs.load_code()]
    if report_path:
        lines.append("print(kurapart.__file__)")
    return "\n".join(lines)


def check_import_path(inputs: Inputs, cwd: Path) -> None:
    """First child: fills the bytecode cache and proves kurapart loads from this tree."""
    cmd = [sys.executable, "-c", probe_code(inputs, report_path=True)]
    out = subprocess.run(cmd, env=child_env(), cwd=cwd, capture_output=True, text=True,
                         timeout=CHILD_LIMIT_S, check=False)
    origin = Path(out.stdout.strip()).resolve() if out.stdout.strip() else None
    if out.returncode != 0 or origin is None or SRC.resolve() not in origin.parents:
        raise SystemExit(f"kurapart did not load from {SRC}: {out.stderr.strip() or origin}")


def setup_probe(inputs: Inputs, cwd: Path) -> float:
    elapsed, code, _, message = spawn([sys.executable, "-c", probe_code(inputs)], cwd)
    if code != 0:
        raise SystemExit(f"set-up probe failed with exit code {code}: {message}")
    return elapsed


class Runner:
    """Timed CLI runs of one workload and seed, each output checked."""

    def __init__(self, inputs: Inputs, run_dir: Path, oracle_final: np.ndarray | None) -> None:
        self.inputs = inputs
        self.w = inputs.workload
        self.run_dir = run_dir
        self.oracle_final = oracle_final
        self.attempted = 0
        self.failed = 0
        self.self_tested = False
        self.self_test_ok = True
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.refs: list[float] = []
        self.last_ref = reference_s()
        self.rel: list[float] = []
        self.rates: list[float] = []
        self.rss_mb: list[float] = []

    def out_path(self, index: int) -> Path:
        suffix = ".txt" if self.w.kind == "search" else ".csv"
        return self.run_dir / f"out{index % 2}{suffix}"

    def check(self, index: int, out: Path) -> tuple[int, dict]:
        """Validate one run's files; returns (output rows, details)."""
        if self.w.kind == "search":
            text = out.read_text()
            edges = self.inputs.edges(index)
            tally = checks.check_search_report(text, self.w.n, edges)
            if not self.self_tested:
                self._self_test(checks.check_search_report,
                                checks.flip_certificate_digit(text), self.w.n, edges)
            return self.w.rows, tally
        final = self.oracle_final[self.inputs.slot(index)]
        csv_text = out.read_text()
        sync_text = out.with_suffix(".sync.json").read_text()
        rows, err = checks.check_simulation(csv_text, sync_text, self.w.n, self.w.t_end, final)
        if not self.self_tested:
            self._self_test(checks.check_simulation, checks.shift_final_phase(csv_text),
                            sync_text, self.w.n, self.w.t_end, final)
        return rows, {"final_err": err, "steps": rows - 1}

    def _self_test(self, check, *corrupted) -> None:
        self.self_tested = True
        self.self_test_ok = checks.rejects(check, *corrupted)
        if not self.self_test_ok:
            print("self-test: a corrupted output passed the checks", file=sys.stderr)

    def timed_run(self, index: int) -> None:
        out = self.out_path(index)
        argv = self.inputs.argv(index, out)
        ref_before = self.last_ref
        wall, code, usage, message = spawn([sys.executable, "-m", "kurapart.cli", *argv], self.run_dir)
        self.last_ref = reference_s()
        ref = (ref_before + self.last_ref) / 2
        self.attempted += 1
        try:
            if code != 0:
                raise checks.CheckFailed(f"exit code {code}: {message}")
            rows, _ = self.check(index, out)
        except (checks.CheckFailed, OSError) as exc:
            self.failed += 1
            print(f"run {index} failed: {exc}", file=sys.stderr)
            return
        self.walls.append(wall)
        self.cpus.append(usage.ru_utime + usage.ru_stime)
        self.refs.append(ref)
        self.rel.append(wall / ref)
        self.rates.append(rows * ref / wall)
        self.rss_mb.append(usage.ru_maxrss / 1024.0)

    def traced_run(self, index: int, tracer: Tracer) -> dict | None:
        out = self.out_path(index)
        self.attempted += 1
        try:
            code = replay(tracer, self.inputs.argv(index, out))
            if code != 0:
                raise checks.CheckFailed(f"replay exit code {code}")
            _, details = self.check(index, out)
        except (checks.CheckFailed, OSError) as exc:
            self.failed += 1
            print(f"replay {index} failed: {exc}", file=sys.stderr)
            return None
        return details

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.self_tested and self.self_test_ok


def layer_metrics(tracer: Tracer, run_id: int, details: dict, inputs: Inputs,
                  wall_s: float, setup_s: float) -> dict[str, float]:
    incl, self_, root_s, children_s = layer_times(tracer, run_id)
    kept = {name: [v for rid, v in vals if rid == run_id] for name, vals in tracer.results.items()}
    search = inputs.workload.kind == "search"
    rows = inputs.workload.rows if search else 0

    def per_row(seconds: float) -> float:
        return seconds / rows * 1e6 if rows else 0.0

    report_bytes = sum(kept.get("bipartition_analysis.format", []))
    csv_bytes = sum(kept.get("dynamics.csv", []))
    steps = details.get("steps", 0)
    return {
        "graph_core.load_s": incl["graph_core.load"],
        "graph_core.is_equitable_us": per_row(self_["graph_core.is_equitable"]),
        "graph_core.degree_profile_us": per_row(incl["graph_core.degree_profile"]),
        "bipartition_analysis.rows": float(rows),
        "bipartition_analysis.build_system_us": per_row(self_["bipartition_analysis.build_system"]),
        "bipartition_analysis.solve_us": per_row(incl["bipartition_analysis.solve"]),
        "bipartition_analysis.classify_us": per_row(self_["bipartition_analysis.classify"]),
        "bipartition_analysis.survivor_ratio":
            sum(kept.get("bipartition_analysis.solve", [])) / rows if rows else 0.0,
        "bipartition_analysis.certified_ratio": details.get("certified", 0) / rows if rows else 0.0,
        "bipartition_analysis.search_s": incl["bipartition_analysis.search"],
        "bipartition_analysis.format_s": incl["bipartition_analysis.format"],
        "bipartition_analysis.report_bytes": float(report_bytes),
        "dynamics.integrate_s": incl["dynamics.integrate"],
        "dynamics.steps_accepted": float(steps),
        "dynamics.step_us": incl["dynamics.integrate"] / steps * 1e6 if steps else 0.0,
        "dynamics.csv_s": incl["dynamics.csv"],
        "dynamics.csv_bytes": float(csv_bytes),
        "dynamics.exact_sync_s": incl["dynamics.exact_sync"],
        "dynamics.asym_sync_s": self_["dynamics.asym_sync"],
        "dynamics.final_err": details.get("final_err", 0.0),
        "cli.self_s": wall_s - setup_s - children_s,
        "trace.overhead_s": root_s - (wall_s - setup_s),
    }


def rhs_call_us(inputs: Inputs, theta: np.ndarray) -> list[float]:
    """Times of single public kuramoto_rhs calls at the given state."""
    from kurapart import dynamics as dyn
    from kurapart import graph_core as gc

    g = gc.from_edge_list(inputs.workload.n, inputs.workload.edges)
    params = dyn.ModelParams(alpha=inputs.workload.alpha)
    times = []
    for _ in range(RHS_CALLS):
        start = time.perf_counter_ns()
        dyn.kuramoto_rhs(g, theta, params)
        times.append((time.perf_counter_ns() - start) * 1e-3)
    return times


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def metadata(inputs: Inputs, args: argparse.Namespace) -> dict:
    return {
        "workload": inputs.workload.name,
        **inputs.workload.meta(),
        **inputs.meta(),
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, --jobs 1",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "thread_pins": THREAD_PINS,
    }


def print_metric(name: str, value: float, unit: str, samples: list[float] | None) -> None:
    line = f"  {name:40s} {value:14.6g} {unit}"
    if samples and len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        line += f"   p25 {q1:.6g}  p75 {q3:.6g}"
    print(line + (f"  n={len(samples)}" if samples else ""))


def measure(args: argparse.Namespace, inputs: Inputs, run_dir: Path) -> tuple[Runner, dict[str, list[float]]]:
    """Run the workload for --seconds; returns the runner and every metric's samples."""
    w = inputs.workload
    oracle_final = None
    if w.kind == "simulate":
        oracle_final, rotation_gap, cached = oracle.load_or_compute(inputs, WORK / "cache")
        limit = oracle.rotation_tolerance(w)
        print(f"  oracle: RK4 dt={w.oracle_dt:g}, {len(inputs.seeds)} sub-seeds, cached={cached}, "
              f"rigid-rotation gap {rotation_gap:.3g} (limit {limit:.3g})")
        if not rotation_gap <= limit:
            raise SystemExit("oracle failed its rigid-rotation self-check")
    check_import_path(inputs, run_dir)
    reference_s()  # warm-up: first-call allocations stay out of the ratios
    runner = Runner(inputs, run_dir, oracle_final)
    setups = [setup_probe(inputs, run_dir) for _ in range(SETUP_PROBES_FIRST)]
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index == 0 or (time.perf_counter() < deadline and not (args.trace and index >= TRACE_TIMED_RUNS)):
        runner.timed_run(index)
        setups.append(setup_probe(inputs, run_dir))
        index += 1
    setup_s = statistics.median(setups)
    if not args.trace:
        return runner, {
            "wall_ref": runner.rel,
            "rows_per_ref": runner.rates,
            "setup_s": setups,
            "peak_rss_mb": runner.rss_mb,
        }

    wall_s = statistics.median(runner.walls or [0.0])
    tracer = Tracer()
    per_run: list[dict[str, float]] = []
    while not per_run or time.perf_counter() < deadline:
        details = runner.traced_run(index, tracer)
        if details is None:
            break
        per_run.append(layer_metrics(tracer, tracer.run_id, details, inputs, wall_s, setup_s))
        index += 1
    # One span file per workload, overwritten by its next traced run.
    trace_path = WORK / "trace" / f"{w.name}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path, {"workload": w.name, "seed": inputs.seed})
    print(f"  spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    samples = {name: [m[name] for m in per_run] for name in (per_run[0] if per_run else {})}
    final_states = tracer.results.get("dynamics.integrate")
    samples["dynamics.rhs_us"] = rhs_call_us(inputs, final_states[-1][1]) if final_states else []
    return runner, samples


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and, by inheritance, every child: the reference
    # kernel then measures the speed of the CPU the CLI runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Turn SIGTERM into an exception so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "kurapart" / "__init__.py").is_file():
        print(f"error: no kurapart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    run_dir = WORK / "runs" / f"{w.name}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(w, args.seed, run_dir)
        print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        runner, samples = measure(args, inputs, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = declared_units(args.trace)
    # A failed replay leaves its layer metrics unmeasured; they then read 0.
    if set(samples) - set(units) or (set(units) - set(samples) and not runner.failed):
        raise SystemExit(f"measured metrics {sorted(samples)} differ from BENCHMARK.json {sorted(units)}")
    values = {name: statistics.median(samples.get(name) or [0.0]) for name in units}
    for name, unit in units.items():
        print_metric(name, values[name], unit, samples.get(name))
    for name, raw in (("wall_s", runner.walls), ("cpu_s", runner.cpus), ("ref_s", runner.refs)):
        print_metric(f"{name} (raw, not a result metric)", statistics.median(raw or [0.0]), "s", raw)
    fail_rate = runner.failed / runner.attempted
    print(f"  {'fail_rate':40s} {fail_rate:14.6g} ratio   ({runner.failed} of {runner.attempted} runs)")
    print(f"  self-test (corrupted output rejected): {'pass' if runner.self_test_ok else 'FAIL'}")
    print("meta " + json.dumps(metadata(inputs, args), sort_keys=True))
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
