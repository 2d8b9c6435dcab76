"""pgtool benchmark: table-decision latency and throughput, and suite wall time.

    python3 perfbench/run.py --workload verify|regular|suite-all \
        --seed N --seconds S --trace 0|1

Run from the repository root; pgtool is imported from ./src.  Each
worker is a fresh Python process with PGTOOL_THREADS removed from its
environment.  The last line of standard output is the result object;
the line before it carries the details (per-kind latencies, tail
percentile and sample counts, set-up runs, environment).  Artifacts go
to perfbench/out/.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SPAN_CAP

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify", "regular", "suite-all")
SETUPS = 5  # set-up is measured in this many fresh processes; the median is reported
# A run goes on until it has done this many timed ops.  Table workers read
# peak RSS at that point, so it measures a fixed amount of work however fast
# the code runs; suite-all needs three passes for a median.
MIN_OPS = {"verify": 72, "regular": 25, "suite-all": 3}
TAIL_PERCENTILE = {"verify": 95, "regular": 85, "suite-all": 90}
# Length of the fixed op list of a traced run (ops, or suite passes).
TRACE_OPS = {"verify": 30, "regular": 8, "suite-all": 1}
SUITE_IDS = (
    "closure-transfer", "thm-3-7", "prop-3-9", "eq-immsing", "prop-h2", "props-h3-h4", "lemma-h6",
    "prop-h7", "prop-x33", "main-theorem", "example-4", "segre-scan", "negative-controls",
)
# Op and set-up times are scaled to the machine speed at which a
# worker.SpeedProbe sample takes this long (about its median on the 2-vCPU
# Xeon host the benchmark was built on); the unscaled figures are kept in the
# detail record.
PROBE_NOMINAL_S = 0.0008
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PGTOOL_THREADS", None)  # an ambient value would switch on the suite thread pool
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion.

    Set-up is timed from just before the process starts to its ``ready_at``,
    less the benchmark's own work in between; ``setup_s`` is that time
    scaled by the speed probe that ran during set-up, ``raw_setup_s`` the
    time itself.
    """
    remaining = deadline - time.perf_counter()
    if remaining <= 1:
        raise BenchError("time budget exhausted before all workers ran")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=worker_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=remaining,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["raw_setup_s"] = res["ready_at"] - t0 - res["excluded_s"]
    res["setup_s"] = res["raw_setup_s"] * PROBE_NOMINAL_S / res["setup_probe_s"]
    return res


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def latency_summary(samples: list) -> dict:
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in samples:
        by_kind.setdefault(kind, []).append(seconds)
    return {
        kind: {
            "n": len(v),
            "p50_ms": statistics.median(v) * 1e3,
            "max_ms": max(v) * 1e3,
        }
        for kind, v in sorted(by_kind.items())
    }


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pgtool").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "note": "CPUs are not pinned and the file cache is not dropped: the shared host allows neither",
    }


def _summary(workload: str, samples: list, setups: list[float], peak: float) -> dict:
    lat = [s for _, s in samples]
    tail, _beyond = percentile(lat, TAIL_PERCENTILE[workload])
    return {
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "op_ms_tail": {"value": tail * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def run_untraced(workload: str, seed: int, seconds: float, deadline: float):
    args = ["--workload", workload, "--seed", str(seed)]
    raw, scaled, failures, rss, probes = [], [], [], [], []
    setups, raw_setups, setup_probes = [], [], []

    def record(res: dict) -> None:
        for kind, s in res.get("samples", []):
            raw.append([kind, s])
            scaled.append([kind, s * PROBE_NOMINAL_S / res["probe_s"]])
        if "probe_s" in res:
            probes.append(res["probe_s"])
        failures.extend(res.get("failures", []) + res["setup_failures"])
        setups.append(res["setup_s"])
        raw_setups.append(res["raw_setup_s"])
        setup_probes.append(res["setup_probe_s"])

    # Set-up-only workers run both before and after the measurement, so the
    # median of the set-up times spans more of the host's slow and fast phases.
    for _ in range(SETUPS // 2):
        record(spawn(args + ["--mode", "setup"], deadline))
    if workload == "suite-all":
        # every pass in a fresh process, as a CI run starts
        while len(raw) < MIN_OPS[workload] or (
            sum(s for _, s in raw) + statistics.mean(s for _, s in raw) <= seconds
        ):
            res = spawn(args + ["--mode", "measure"], deadline)
            record(res)
            rss.append(res["peak_rss_mb"])
    else:
        res = spawn(
            args + ["--mode", "measure", "--seconds", str(seconds), "--min-ops", str(MIN_OPS[workload])],
            deadline,
        )
        record(res)
        rss.append(res["peak_rss_mb"])
    while len(setups) < SETUPS:
        record(spawn(args + ["--mode", "setup"], deadline))

    metrics = _summary(workload, scaled, setups, max(rss))
    _tail, beyond = percentile([s for _, s in scaled], TAIL_PERCENTILE[workload])
    detail = {
        "tail": {"percentile": TAIL_PERCENTILE[workload], "samples": len(scaled), "beyond": beyond},
        "by_kind": latency_summary(scaled),
        "setup_runs_s": setups,
        "setup_probes_s": setup_probes,
        "peak_rss_after_ops": MIN_OPS[workload],
        "probe_nominal_s": PROBE_NOMINAL_S,
        "probes_s": probes,
        "raw": {
            "metrics": _summary(workload, raw, raw_setups, max(rss)),
            "by_kind": latency_summary(raw),
            "setup_runs_s": raw_setups,
        },
    }
    return metrics, len(scaled), failures, detail


def _layer_table(workload: str, seed: int, fixed: dict, traced: dict, overhead: dict) -> str:
    rows = sorted(traced["table"], key=lambda r: -r[3])
    kinds = ", ".join(f"{kind} x{v['n']}" for kind, v in latency_summary(traced["samples"]).items())
    lines = [
        f"# Per-layer trace: {workload}, seed {seed}",
        "",
        f"Fixed op list: {len(traced['samples'])} ops ({kinds}).",
        f"Tracing overhead: {overhead['traced_wall_s']:.3f} s traced against "
        f"{overhead['untraced_wall_s']:.3f} s untraced over the same ops "
        f"(+{overhead['overhead_frac'] * 100:.1f}%); op p50 {overhead['traced_op_ms_p50']:.2f} ms "
        f"against {overhead['untraced_op_ms_p50']:.2f} ms.",
        f"Spans stored: {traced['spans_written']}, beyond the cap of {SPAN_CAP}: {traced['spans_dropped']} "
        "(calls and times below count every span).",
        "",
        "| function | calls | total s | self s | self us/call |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for name, calls, total, self_s in rows:
        if calls:
            lines.append(f"| {name} | {calls} | {total:.4f} | {self_s:.4f} | {self_s / calls * 1e6:.1f} |")
    lines += ["", "| per-layer metric | value | unit |", "| --- | ---: | --- |"]
    for name, (value, unit) in traced["layers"].items():
        lines.append(f"| {name} | {value:.6g} | {unit} |")
    for name, value in sorted(fixed["per_suite"].items()):
        lines.append(f"| suites.{name}.s (untraced) | {value:.4f} | s |")
    lines += ["", "| op class, function | calls |", "| --- | ---: |"]
    lines += [f"| {k} | {v} |" for k, v in traced["per_class_calls"].items()]
    return "\n".join(lines) + "\n"


def run_traced(workload: str, seed: int, deadline: float):
    count = str(TRACE_OPS[workload])
    base = ["--workload", workload, "--seed", str(seed), "--count", count]
    fixed = spawn(base + ["--mode", "fixed"], deadline)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}"
    traced = spawn(
        base + ["--mode", "traced", "--spans", f"{stem}-spans.tsv.gz"],
        deadline,
    )
    untraced_lat = [s for _, s in fixed["samples"]]
    traced_lat = [s for _, s in traced["samples"]]
    overhead = {
        "untraced_wall_s": fixed["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "overhead_frac": traced["wall_s"] / fixed["wall_s"] - 1,
        "untraced_op_ms_p50": statistics.median(untraced_lat) * 1e3,
        "traced_op_ms_p50": statistics.median(traced_lat) * 1e3,
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in traced["layers"].items()}
    for suite in SUITE_IDS:
        metrics[f"suites.{suite}.s"] = {"value": fixed["per_suite"].get(suite, 0.0), "unit": "s"}
    Path(f"{stem}-layers.md").write_text(_layer_table(workload, seed, fixed, traced, overhead))
    failures = fixed["failures"] + traced["failures"] + fixed["setup_failures"] + traced["setup_failures"]
    attempted = len(fixed["samples"]) + len(traced["samples"])
    detail = {
        "overhead": overhead,
        "by_kind": latency_summary(traced["samples"]),
        "per_class_calls": traced["per_class_calls"],
        "spans_written": traced["spans_written"],
        "spans_dropped": traced["spans_dropped"],
        "artifacts": [str(p.relative_to(ROOT)) for p in (Path(f"{stem}-spans.tsv.gz"), Path(f"{stem}-layers.md"))],
    }
    return metrics, attempted, failures, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=json.loads((HERE / "seeds.json").read_text())["default"])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pgtool" / "__init__.py").is_file():
        print(f"error: pgtool sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            metrics, attempted, failures, detail = run_traced(args.workload, args.seed, deadline)
        else:
            metrics, attempted, failures, detail = run_untraced(args.workload, args.seed, args.seconds, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        failures=failures[:20], env=environment(),
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "metrics": metrics}, indent=2) + "\n"
    )
    failed = min(len(failures), attempted)
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
