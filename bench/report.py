"""Per-layer report: each workload untraced and traced, as markdown tables.

Usage, from the repository root:

    python3 bench/report.py --seed 1 --seconds 18 [--workload NAME ...]

For every workload it runs ``bench/run.py`` with ``--trace 0`` and with
``--trace 1``, then prints the per-layer metrics of the traced run, each
span's share of the traced self time, and the tracing overhead: traced minus
untraced ``latency_p50_s``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import COUNTERS, SPANS, span_name  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _result(workload: str, seed: int, seconds: float, trace: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                    workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)],
                   check=True, stdout=subprocess.DEVNULL)
    path = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def report(workload: str, plain: dict, traced: dict) -> str:
    m = traced["metrics"]
    spans = [span_name(mod, fn) for mod, fn, _ in SPANS]
    total_self = sum(m[f"{s}.self_s"]["value"] for s in spans) or 1.0
    lines = [f"### {workload}", "",
             f"{traced['attempted']} operations traced, "
             f"{plain['attempted']} untraced.", "",
             "| span | calls/op | time_s/op | self_s/op | self share |",
             "|---|---:|---:|---:|---:|"]
    for s in spans:
        calls = m[f"{s}.calls"]["value"]
        self_s = m[f"{s}.self_s"]["value"]
        lines.append(f"| `{s}` | {calls:.3g} | {m[f'{s}.time_s']['value']:.3g} "
                     f"| {self_s:.3g} | {self_s / total_self:.1%} |")
    lines += ["", "| counter | per op | unit |", "|---|---:|---|"]
    for c in COUNTERS + ("cli.main.output_bytes",):
        lines.append(f"| `{c}` | {m[c]['value']:.4g} | {m[c]['unit']} |")
    p50 = plain["metrics"]["latency_p50_s"]["value"]
    tp50 = m["trace.latency_p50_s"]["value"]
    lines += ["", f"Tracing overhead on `latency_p50_s`: {tp50 - p50:+.3g} s "
              f"({(tp50 - p50) / p50:+.1%}; untraced {p50:.4g} s, "
              f"traced {tp50:.4g} s).", ""]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    for w in args.workload or list(WORKLOADS):
        plain = _result(w, args.seed, args.seconds, 0)
        traced = _result(w, args.seed, args.seconds, 1)
        print(report(w, plain, traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
