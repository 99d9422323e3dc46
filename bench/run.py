"""concentra benchmark: one workload, one seed, one mode.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``concentra`` CLI command run in a fresh process, as a
user runs it, on a scenario file generated from ``--seed`` (see
workloads.py).  BLAS/OpenMP are pinned to one thread and CONCENTRA_THREADS
to the number of usable CPUs.

--trace 0  end-to-end metrics from untraced runs: the command is repeated
           (at least three times), interleaved with set-up probes in fresh
           processes, while the next run still ends within ``--seconds``.
           Medians are reported.
--trace 1  per-layer metrics: rounds of one untraced run, one untraced
           single-threaded run and one traced run (traced.py), repeated
           (at least once) while the next round still ends within
           ``--seconds``.

Every run goes through the correctness gate (workloads.evaluate).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with every
sample and the machine it ran on, goes to .bench_out/results/.  The program
is taken from src/ of the checkout this file sits in; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import summarize, top_level_time  # noqa: E402
from workloads import WORKLOADS, GateError, evaluate, seeded_scenario, \
    tree_bytes  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

MIN_REPS = 3             # command runs per end-to-end run, at least
SETUP_SHARE = 0.2        # share of an end-to-end run spent probing set-up
CHILD_TIMEOUT_S = 150    # a child still running after this is killed
RUN_BUDGET_S = 150       # stop starting new children after this
MASS_TOL = 1e-9          # per-step mass drift against the reaction update

LAYERS = ("scenarios", "models", "grid", "pde", "wkb", "canonical",
          "diagnostics", "cli")

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["CONCENTRA_THREADS"] = str(threads)
    env["PYTHONPATH"] = str(SRC)
    return env


class Child:
    """One finished child process: exit code, wall time from start to exit,
    peak resident memory, captured output."""

    def __init__(self, argv, env, log_dir: Path, tag: str):
        out_path, err_path = log_dir / f"{tag}.out", log_dir / f"{tag}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                                    stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0    # Linux reports KiB
        self.stdout = out_path.read_text()
        self.stderr = err_path.read_text()
        out_path.unlink()
        err_path.unlink()


class Runner:
    def __init__(self, workload, seed, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        text = seeded_scenario(ROOT, workload, seed)
        self.raw = json.loads(text)
        self.scenario = workdir / "scenario.json"
        self.scenario.write_text(text)
        self.attempted = 0
        self.errors = []
        self.accuracy = None
        self.env_info = None
        self._n = 0

    def _fail(self, what, msg):
        self.errors.append(f"{what}: {msg}")
        return None

    def probe_setup(self):
        """Set-up time of one fresh process, or None if the probe failed."""
        self.attempted += 1
        self._n += 1
        child = Child([sys.executable, str(BENCH / "setup_probe.py"),
                       str(self.scenario)], child_env(nproc()),
                      self.workdir, f"probe{self._n}")
        if child.rc != 0:
            return self._fail("setup probe", f"exit {child.rc}: "
                              f"{child.stderr.strip()[-300:]}")
        info = json.loads(child.stdout.strip().splitlines()[-1])
        if self.env_info is None:
            self.env_info = info
        return info["setup_s"]

    def command(self, threads: int, traced: bool = False):
        """Run the workload's command once and gate its artifacts.  Returns
        (child, spans or None), or None if the run failed."""
        self.attempted += 1
        self._n += 1
        tag = f"{'traced' if traced else 'run'}{self._n}"
        out_dir = self.workdir / tag
        argv = self.workload.argv(self.scenario, out_dir)
        spans_path = self.workdir / f"{tag}.spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "traced.py"), str(spans_path),
                   "--", *argv]
        else:
            cmd = [sys.executable, "-m", "concentra.cli", *argv]
        try:
            child = Child(cmd, child_env(threads), self.workdir, tag)
            if child.rc != 0:
                return self._fail(tag, f"exit {child.rc}: "
                                  f"{child.stderr.strip()[-300:]}")
            accuracy = evaluate(self.workload, self.raw, out_dir)
            if self.accuracy is None:
                self.accuracy = accuracy
            elif accuracy != self.accuracy:
                raise GateError(f"accuracy {accuracy} differs from an "
                                f"earlier run {self.accuracy}")
            child.artifact_bytes = tree_bytes(out_dir)
            spans = None
            if traced:
                spans = json.loads(spans_path.read_text())
                check_trace(spans)
            return child, spans
        except (GateError, OSError, ValueError, KeyError) as exc:
            return self._fail(tag, str(exc))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            spans_path.unlink(missing_ok=True)


def check_trace(data):
    if not Path(data["concentra_file"]).resolve().is_relative_to(SRC):
        raise GateError(f"traced run imported {data['concentra_file']}")
    if data["interleaved"]:
        raise GateError("spans interleaved: the traced run was concurrent")
    drift = data["counters"].get("mass_drift_max", 0.0)
    if drift > MASS_TOL:
        raise GateError(f"per-step mass drift {drift:.3g} against the "
                        f"reaction-only update exceeds {MASS_TOL:g}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(values, unit):
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


# --- per-layer metrics from one traced run ------------------------------------

def layer_metrics(data):
    spans = data["spans"]
    table = summarize(spans)
    counters = data["counters"]
    failed = data["failed"]

    def row(name):
        return table.get(name, {"count": 0, "total": 0.0, "self": 0.0})

    def per_call(name, scale):
        r = row(name)
        return r["total"] / r["count"] * scale if r["count"] else 0.0

    cg, step = row("pde.cg"), row("pde.ImexIntegrator.step")
    sim = row("pde.run_simulation")
    snap_mb = counters.get("snapshot_bytes", 0) / 1e6
    rk4_steps = counters.get("rk4_steps", 0)
    inv = row("models.invert_constraint")
    m = {
        "pde.diffusion_solve_ms": per_call("pde.cg", 1e3),
        "pde.cg_iters_per_solve": (counters.get("cg_iters", 0) / cg["count"]
                                   if cg["count"] else 0.0),
        "pde.solve_rel_residual": counters.get("solve_rel_residual_max", 0.0),
        "pde.reaction_self_ms": (step["self"] / step["count"] * 1e3
                                 if step["count"] else 0.0),
        "pde.record_self_ms": (sim["self"] / (step["count"] + sim["count"])
                               * 1e3 if sim["count"] else 0.0),
        "pde.macro_coupling_ms": per_call("pde.ImexIntegrator.macro_of", 1e3),
        "pde.mass_drift_max": counters.get("mass_drift_max", 0.0),
        "grid.snapshot_write_ms_per_mb": (
            row("grid.write_field_csv")["total"] * 1e3 / snap_mb
            if snap_mb else 0.0),
        "grid.snapshot_bytes": counters.get("snapshot_bytes", 0),
        "grid.boundary_ring_mass_ms": per_call("grid.boundary_ring_mass", 1e3),
        "wkb.to_wkb_ms": per_call("wkb.to_wkb", 1e3),
        "wkb.locate_max_ms": per_call("wkb.locate_max", 1e3),
        "wkb.hessian_at_ms": per_call("wkb.hessian_at", 1e3),
        "wkb.regularity_monitor_ms": per_call("wkb.regularity_monitor", 1e3),
        "wkb.hessian_failed": failed.get("wkb.hessian_at", 0),
        "canonical.rk4_step_us": (
            row("canonical.integrate_canonical")["total"] / rk4_steps * 1e6
            if rk4_steps else 0.0),
        "models.invert_constraint_calls": inv["count"],
        "models.invert_constraint_us": per_call("models.invert_constraint",
                                                1e6),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(r["self"] for name, r in table.items()
                                   if name.split(".")[0] == layer)
    m["bench.check_s"] = row("bench.check")["total"]
    m["bench.span_coverage"] = top_level_time(spans) / data["script_s"]
    return m


def span_table_lines(table, top_level):
    lines = [f"# {'span':<36} {'calls':>7} {'total_s':>9} {'self_s':>9} "
             f"{'self%':>6}"]
    for name, r in sorted(table.items(), key=lambda kv: -kv[1]["self"]):
        lines.append(f"# {name:<36} {r['count']:>7} {r['total']:>9.4f} "
                     f"{r['self']:>9.4f} {100 * r['self'] / top_level:>5.1f}%")
    return lines


# --- the two modes ------------------------------------------------------------

def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _stop(attempts, minimum, next_cost, deadline, hard_stop):
    """Whether to stop: the minimum is met and the next unit of work would
    end after the deadline, or the hard stop has passed."""
    now = time.perf_counter()
    return now >= hard_stop or (attempts >= minimum
                                and now + next_cost > deadline)


def end_to_end(runner, deadline, hard_stop):
    """Command runs interleaved with set-up probes; the probes get
    SETUP_SHARE of the time, so both sample the same stretch of the
    machine's load."""
    setups, runs = [], []
    probe_time = run_time = 0.0
    attempts = 0
    while True:
        res, cost = _timed(runner.command, nproc())
        attempts += 1
        run_time += cost
        if res is not None:
            runs.append(res[0])
        while probe_time < SETUP_SHARE / (1 - SETUP_SHARE) * run_time:
            setup, spent = _timed(runner.probe_setup)
            probe_time += spent
            if setup is not None:
                setups.append(setup)
        if _stop(attempts, MIN_REPS, cost / (1 - SETUP_SHARE), deadline,
                 hard_stop):
            break
    if not runs or not setups:
        return None, []
    samples = {
        "wall_s": [c.wall_s for c in runs],
        "setup_s": setups,
        "peak_rss_mb": [c.rss_mb for c in runs],
        "artifact_bytes": [c.artifact_bytes for c in runs],
        "pde_ode_sup_distance": [runner.accuracy["pde_ode_sup_distance"]],
        "constraint_residual": [runner.accuracy["constraint_residual"]],
    }
    return samples, []


def traced(runner, deadline, hard_stop):
    """Rounds of one untraced run with all threads, one untraced run with
    one thread and one traced run with one thread."""
    runner.probe_setup()       # records the stack it runs on
    parallel, serial, traced_runs = [], [], []
    rounds = 0
    while True:
        t0 = time.perf_counter()
        for threads, is_traced, bucket in ((nproc(), False, parallel),
                                           (1, False, serial),
                                           (1, True, traced_runs)):
            res = runner.command(threads, traced=is_traced)
            if res is not None:
                bucket.append(res)
        rounds += 1
        if _stop(rounds, 1, time.perf_counter() - t0, deadline, hard_stop):
            break
    if not (parallel and serial and traced_runs):
        return None, []
    per_run = [layer_metrics(data) for _, data in traced_runs]
    samples = {k: [m[k] for m in per_run] for k in per_run[0]}
    wall = statistics.median(c.wall_s for c, _ in parallel)
    serial_s = statistics.median(c.wall_s for c, _ in serial)
    traced_s = statistics.median(c.wall_s for c, _ in traced_runs)
    samples["cli.sweep_serial_s"] = [c.wall_s for c, _ in serial]
    samples["cli.sweep_parallel_speedup"] = [serial_s / wall]
    samples["bench.tracing_overhead_s"] = [traced_s - serial_s]

    data = traced_runs[-1][1]
    table = summarize(data["spans"])
    top = top_level_time(data["spans"])
    lines = [f"# traced wall {traced_s:.3f} s, untraced single-threaded "
             f"{serial_s:.3f} s, overhead {traced_s - serial_s:+.3f} s; "
             f"untraced with {nproc()} threads {wall:.3f} s",
             f"# traced script ran {data['script_s']:.3f} s; top-level spans "
             f"cover {top:.3f} s; self times sum to "
             f"{sum(r['self'] for r in table.values()):.3f} s; the rest of the "
             f"process wall is interpreter start-up, span write-out and exit",
             *span_table_lines(table, top),
             f"# absent callables: {', '.join(data['absent']) or 'none'}"]
    return samples, lines


def machine_info(runner):
    info = dict(runner.env_info or {})
    info.pop("setup_s", None)
    info.update(nproc=nproc(), machine=platform.machine(),
                cpu=_cpu_model(), platform=platform.platform(),
                env={**PINNED, "CONCENTRA_THREADS": str(nproc()),
                     "CONCENTRA_THREADS_traced": "1"})
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    workload = WORKLOADS[args.workload]
    if not (SRC / "concentra" / "cli.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    build = subprocess.run([sys.executable, "-m", "compileall", "-q",
                            str(SRC)], cwd=ROOT, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S)
    if build.returncode != 0:
        print(f"byte-compiling {SRC} failed:\n{build.stdout}{build.stderr}",
              file=sys.stderr)
        return 2

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workload, args.seed, workdir)
    deadline = start + args.seconds
    hard_stop = start + RUN_BUDGET_S
    mode = traced if args.trace else end_to_end
    try:
        samples, lines = mode(runner, deadline, hard_stop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if runner.env_info is not None:
        origin = Path(runner.env_info["concentra_file"]).resolve()
        if not origin.is_relative_to(SRC):
            print(f"concentra was imported from {origin}, not {SRC}",
                  file=sys.stderr)
            return 2
    for err in runner.errors:
        print(f"# FAILED {err}")
    if samples is None:
        print(f"no successful run of {workload.name}", file=sys.stderr)
        return 1
    declared = json.loads(SPEC.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(samples)
    if mismatch:
        print(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: summary(samples[m["name"]], m["unit"])
               for m in declared}

    failed = len(runner.errors)
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "attempted": runner.attempted, "failed": failed,
              "failed_fraction": failed / runner.attempted,
              "errors": runner.errors, "machine": machine_info(runner),
              "metrics": metrics}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2))

    print(f"# {workload.name} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} runs attempted, {failed} failed")
    print(f"# machine {json.dumps(record['machine'], sort_keys=True)}")
    for name, s in metrics.items():
        print(f"# {name:<34} {s['value']:.6g} {s['unit']}  "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"# {'failed_fraction':<34} {failed / runner.attempted:.6g} 1")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": s["value"], "unit": s["unit"]}
                    for k, s in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
