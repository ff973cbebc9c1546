#!/usr/bin/env python3
"""Closed-loop benchmark of the uniboost command line.

    python3 perfbench/run.py --workload train-stream --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout. One client runs the workload's
commands one after another, each in a fresh ``uniboost`` process and each
iteration in a fresh, empty output directory, until ``--seconds`` have been
measured. Every command's outputs are checked (see ``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics: times are medians over the iterations, throughputs
the work of all iterations over their time. With ``--trace 1`` the
run makes one untraced and one traced iteration, and reports the per-layer
metrics of ``layers.py`` from the traced one. A full record of the run,
with the environment it ran in, is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import CommandResult, compare_fingerprints
from layers import METRICS as LAYER_METRICS, layer_metrics, load_processes
from workloads import WORKLOADS, Command, Workload

BENCH = Path(__file__).resolve().parent
# what the installed `uniboost` console script runs
CLI = "import sys; from uniboost.cli import main; sys.exit(main())"
SETUP = ("import sys, uniboost.cli; from uniboost.config import parse_config\n"
         "for path in sys.argv[1:]:\n    parse_config(open(path).read())")
VERSIONS = """import json, platform, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except Exception:
    blas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))"""
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "train_samples_per_s": "samples/s",
              "eval_images_per_s": "images/s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    cpu_s: float


def run_child(argv: list[str], env: dict, log: Path, deadline: float) -> Child:
    """Run one process to its end; it is killed if it is still running at
    ``deadline`` (a ``time.monotonic`` value)."""
    start = time.perf_counter()
    with open(log, "ab") as fh:
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=fh,
                                stderr=subprocess.STDOUT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)


@dataclass
class Iteration:
    load1: float
    commands: list[tuple[Command, Child, CommandResult]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(child.wall_s for _, child, _ in self.commands)

    def work(self, flag: str, count: str) -> tuple[float, float]:
        """(work done, seconds taken) by the commands with ``flag`` set."""
        done = [(child, res) for cmd, child, res in self.commands if getattr(cmd, flag)]
        return (sum(getattr(res, count) for _, res in done),
                sum(child.wall_s for child, _ in done))

    @property
    def ops(self):
        return [op for _, _, res in self.commands for op in res.ops]


def run_iteration(workload: Workload, out: Path, env: dict, deadline: float) -> Iteration:
    out.mkdir(parents=True)
    it = Iteration(load1=os.getloadavg()[0])
    for cmd in workload.commands:
        child = run_child([sys.executable, "-c", CLI, *cmd.args, "--out", str(out)],
                          env, out / "commands.log", deadline)
        result = cmd.check(out)
        if child.code != 0:
            for op in result.ops:
                op.reasons.insert(0, f"exit code {child.code}")
        it.commands.append((cmd, child, result))
    return it


def child_env(root: Path, trace_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    env.pop("UNIBOOST_OUT", None)  # it would override --out
    env.pop("PERFBENCH_TRACE_DIR", None)
    # The string-hash seed moves the points where cyclic GC runs, and with
    # them the peak RSS: the same compare-sweep command peaks at 358 or
    # 414 MB depending on it. A fixed seed makes a run reproducible.
    env["PYTHONHASHSEED"] = "0"
    paths = [str(root / "src")]
    if trace_dir is not None:
        paths.insert(0, str(BENCH / "tracehook"))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def environment(root: Path, env: dict) -> dict:
    versions = subprocess.run([sys.executable, "-c", VERSIONS], env=env, capture_output=True,
                              text=True, timeout=60)
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        git_sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        git_sha = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        **(json.loads(versions.stdout) if versions.returncode == 0 else {}),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "pythonhashseed": env["PYTHONHASHSEED"],
    }


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "uniboost" / "cli.py").is_file():
        print(f"perfbench: no uniboost source under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}-{os.getpid()}"
    run_dir = root / ".perfbench" / "runs" / stamp
    run_dir.mkdir(parents=True)
    env = child_env(root)

    # build: byte-compile once, so no run times the compiler
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=root,
                           capture_output=True, timeout=300)
    if build.returncode != 0:
        print(build.stdout.decode(errors="replace"), file=sys.stderr)
        return 2

    children: list[Child] = []
    setup: list[float] = []
    iterations: list[Iteration] = []
    if args.trace:
        trace_dir = run_dir / "spans"
        trace_dir.mkdir()
        iterations.append(run_iteration(workload, run_dir / "untraced", env, deadline))
        iterations.append(run_iteration(workload, run_dir / "traced",
                                        child_env(root, trace_dir), deadline))
    else:
        for _ in range(SETUP_REPEATS):
            child = run_child([sys.executable, "-c", SETUP, *map(str, workload.configs)],
                              env, run_dir / "setup.log", deadline)
            if child.code != 0:
                print(f"perfbench: set-up failed; see {run_dir / 'setup.log'}", file=sys.stderr)
                return 1
            children.append(child)
            setup.append(child.wall_s)
        loop_start = time.perf_counter()
        while True:
            iterations.append(run_iteration(workload, run_dir / f"iter{len(iterations)}",
                                            env, deadline))
            elapsed = time.perf_counter() - loop_start
            per_iteration = elapsed / len(iterations)
            # stop at the iteration that ends closest to --seconds
            if (elapsed + per_iteration / 2 > args.seconds
                    or time.monotonic() + 1.5 * per_iteration > deadline):
                break

    compare_fingerprints([it.ops for it in iterations])
    ops = [op for it in iterations for op in it.ops]
    failed = [op for op in ops if not op.ok]
    children += [child for it in iterations for _, child, _ in it.commands]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(root, env),
        "failed_ratio": len(failed) / len(ops),
        "failures": [{"op": op.name, "reasons": op.reasons} for op in failed],
        "fingerprint": hashlib.sha256("".join(
            op.fingerprint for op in iterations[0].ops).encode()).hexdigest(),
        "iterations": [{
            "load1_before": it.load1, "busy": it.load1 > os.cpu_count(),
            "wall_s": it.wall_s,
            "commands": [{"name": cmd.name, "exit": child.code, "wall_s": child.wall_s,
                          "maxrss_mb": child.maxrss_mb, "cpu_s": child.cpu_s}
                         for cmd, child, _ in it.commands]} for it in iterations],
    }
    if args.trace:
        untraced, traced = iterations
        values = layer_metrics(load_processes(trace_dir), traced.wall_s, untraced.wall_s,
                               sum(child.cpu_s for _, child, _ in traced.commands))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        work = {"train_samples_per_s": [it.work("trains", "train_samples") for it in iterations],
                "eval_images_per_s": [it.work("evals", "eval_images") for it in iterations]}
        series = {
            "setup_s": setup,
            "wall_s": [it.wall_s for it in iterations],
            **{name: [n / s for n, s in pairs] for name, pairs in work.items()},
            "peak_rss_mb": [max(child.maxrss_mb for child in children)],
        }
        record["summary"] = {name: summary(vals) for name, vals in series.items()}
        values = {name: record["summary"][name]["median"] for name in series}
        # a throughput is the work of the whole run over the time it took
        values.update({name: sum(n for n, _ in pairs) / sum(s for _, s in pairs)
                       for name, pairs in work.items()})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record["metrics"] = metrics

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stamp}.json").write_text(json.dumps(record, indent=2))
    if not failed:
        shutil.rmtree(run_dir)
    busy = sum(it["busy"] for it in record["iterations"])
    print(f"{args.workload} seed {args.seed}: {len(iterations)} iterations, "
          f"{len(failed)}/{len(ops)} operations failed, {busy} started on a busy machine; "
          f"record in {results / (stamp + '.json')}")
    for op in failed:
        print(f"  FAILED {op.name}: {'; '.join(op.reasons)}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
