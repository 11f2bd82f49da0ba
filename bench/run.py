"""Run one qpcoherent benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload weight_grid --seed 1 --seconds 18 --trace 0

One process runs a closed loop with one client: each operation starts when
the previous one has returned. An operation is one in-process call of
``qpcoherent.cli.main(argv)`` with stdout and stderr captured in memory, or,
for ``regime_sweep``, one library call. Inputs come from the seed only; the
loop runs whole rounds (see workloads.py) until the operations have been
busy for ``--seconds`` and at least MIN_OPS have run. Every output is
checked against references computed apart from the program (checks.py),
outside the timed calls.

Timings are CPU time of the process (user + system), per operation and for
set-up, scaled to a reference machine speed: ``speed_kernel`` is timed
SPEED_SAMPLES times, spread over the loop, and each time is multiplied by
KERNEL_REFERENCE_S over the median of the kernel samples nearest to it. On
a shared machine wall time also counts the time the process waits for a
CPU, and the machine's speed changes by up to a factor of two over minutes;
the unscaled CPU and wall-time figures are kept in the result file.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's layer functions (tracing.py) and prints the per-layer metrics. The
last line of stdout is the JSON result; the same result, with the
environment, is written to bench/results/.
"""

from __future__ import annotations

import os

# BLAS is capped at one thread before numpy is imported, here and in the
# fresh interpreters that measure set-up time
BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

MIN_OPS = 100
SETUP_REPEATS = 21
SPEED_SAMPLES = 120
#: kernel samples taken on each side of an operation to scale it
SPEED_WINDOW = 6
#: median CPU time of speed_kernel() on the reference machine
KERNEL_REFERENCE_S = 0.0028


def _due(samples: int, busy: float, seconds: float) -> int:
    """How many of ``samples`` evenly spread samples are due after
    ``busy`` of ``seconds``."""
    return min(samples, int(samples * busy / seconds) + 1)


# a fresh interpreter runs the same prepared warm-up call as the loop does
_SETUP_CODE = """
import sys
import qpcoherent.cli as cli
from qpcoherent import DeformationParams, convergence
import run, workloads
warmup = workloads.WORKLOADS[sys.argv[1]].warmup
rc, _ = run.prepare(warmup, cli, convergence, DeformationParams)()
sys.exit(rc)
"""


def setup_sample(workload_name: str) -> float:
    """CPU time (user + system) of one fresh interpreter importing the CLI
    and running the workload's warm-up operation, as a CLI user pays on
    every run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    cmd = [sys.executable, "-c", _SETUP_CODE, workload_name]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime
            + after.ru_stime - before.ru_stime)


def speed_kernel() -> None:
    """A fixed piece of work that does not touch qpcoherent: a pure-Python
    complex recurrence with float formatting, then small dense complex
    transforms in numpy, the two kinds of work the program does. Every
    array stays below 128 KiB, so the allocator serves it from its heap
    instead of fresh pages whose cost depends on what ran before."""
    z, acc = 0.5 + 0.3j, 0j
    parts = []
    for n in range(1, 600):
        z = z * (0.99 + 0.01j) + 0.001
        acc += z / n
        if n % 8 == 0:
            parts.append(f"{acc.real!r},{acc.imag!r}")
    ",".join(parts)
    import numpy as np
    x = np.linspace(0.0, 1.0, 96)
    y = np.linspace(-12.0, 12.0, 64)
    for k in range(8):
        np.exp(-1j * (k + 1) * np.outer(x, y)) @ (1.0 / (1.0 - 1j * y))


def prepare(op, cli, convergence, DeformationParams):
    """A zero-argument callable that performs ``op`` and returns (rc, output)."""
    if op.argv:
        argv = list(op.argv)

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)  # looked up per call, so tracing sees it
            return rc, out.getvalue()
        return call
    if op.kind == "prop2":
        grid = [DeformationParams(q, p) for _, q, p in op.spec["points"]]
        ys = op.spec["y"]

        def call():
            out = io.StringIO()
            convergence.regime_report_to_csv(
                convergence.proposition2_check(grid, ys), out)
            return 0, out.getvalue()
        return call
    Q, ys = op.spec["Q"], op.spec["y"]
    return lambda: (0, convergence.proposition1_check(Q, ys))


def environment() -> dict:
    import mpmath
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import qpcoherent.cli as cli
    from qpcoherent import DeformationParams, convergence

    import checks
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]

    check_errors: list[str] = []
    rc, out = prepare(workload.warmup, cli, convergence, DeformationParams)()
    try:
        checks.check(workload.warmup, out, deep=False)
    except checks.CheckFailure as exc:
        check_errors.append(f"warm-up (exit {rc}): {exc}")

    rng = random.Random(f"{workload_name}:{seed}")
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    latencies: list[float] = []  # CPU seconds per operation
    setup_times: list[float] = []
    kernel_times: list[float] = []
    # for each operation and set-up sample, how many kernel samples preceded
    # it: its place in time among them
    op_at: list[int] = []
    setup_at: list[int] = []
    wall: list[float] = []
    points = 0
    failed = 0
    busy = 0.0
    round_no = 0
    try:
        while busy < seconds or len(latencies) < MIN_OPS:
            for op in workload.make_round(rng):
                call = prepare(op, cli, convergence, DeformationParams)
                t0 = time.perf_counter()
                c0 = time.process_time()
                try:
                    rc, out = call()
                except (Exception, SystemExit):
                    rc, out = None, None
                latencies.append(time.process_time() - c0)
                wall.append(time.perf_counter() - t0)
                busy += wall[-1]
                op_at.append(len(kernel_times))
                # speed and set-up samples are spread evenly over the loop,
                # between operations, so they see the same machine speeds
                while len(kernel_times) < _due(SPEED_SAMPLES, busy, seconds):
                    c1 = time.process_time()
                    speed_kernel()
                    kernel_times.append(time.process_time() - c1)
                while not trace and len(setup_times) < _due(
                        SETUP_REPEATS, busy, seconds):
                    setup_at.append(len(kernel_times))
                    setup_times.append(setup_sample(workload_name))
                if rc != 0:
                    failed += 1
                    continue
                points += op.points
                try:
                    checks.check(op, out, deep=round_no == 0 and op.deep)
                except checks.CheckFailure as exc:
                    check_errors.append(f"{op.kind} {op.argv or op.spec}: {exc}")
            round_no += 1
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(latencies)

    def scaled(times, at):
        """CPU seconds at the reference machine speed: each time is scaled
        by the median of the kernel samples taken just before and just
        after it, so a change of machine speed within the run is followed."""
        out = []
        for t, k in zip(times, at):
            near = kernel_times[max(0, k - SPEED_WINDOW):k + SPEED_WINDOW]
            out.append(t * KERNEL_REFERENCE_S / statistics.median(near))
        return out

    ref_lat = scaled(latencies, op_at)
    cpu = sum(ref_lat)
    p50 = statistics.median(ref_lat)
    if tracer:
        # per-layer totals span the whole run: one scale for all of them
        scale = KERNEL_REFERENCE_S / statistics.median(kernel_times)
        metrics = {name: {"value": v * scale if u == "s/op" else v, "unit": u}
                   for name, (v, u) in tracer.metrics(attempted).items()}
        metrics["trace.latency_p50_s"] = {"value": p50, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(scaled(setup_times, setup_at)),
                        "unit": "s"},
            "latency_p50_s": {"value": p50, "unit": "s"},
            "latency_p90_s": {"value": statistics.quantiles(ref_lat, n=10)[-1],
                              "unit": "s"},
            "throughput_ops_per_s": {"value": attempted / cpu, "unit": "1/s"},
            "points_per_s": {"value": points / cpu, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for err in check_errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    unscaled = {"rounds": round_no, "kernel_s": statistics.median(kernel_times),
                "setup_cpu_s": statistics.median(setup_times) if setup_times else None,
                "cpu_p50_s": statistics.median(latencies),
                "cpu_p90_s": statistics.quantiles(latencies, n=10)[-1],
                "cpu_s": sum(latencies), "wall_s": busy,
                "wall_p50_s": statistics.median(wall),
                "wall_p90_s": statistics.quantiles(wall, n=10)[-1]}
    return {"correct": not check_errors, "attempted": attempted,
            "failed": failed, "metrics": metrics, "unscaled": unscaled}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qpcoherent" / "__init__.py").is_file():
        print(f"error: no qpcoherent sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    unscaled = result.pop("unscaled")
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, unscaled=unscaled,
                  environment=env)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
