"""One fresh benchmark process: set up, decide tables (or run the suites), check.

Started by run.py, never imported by it.  It prints one JSON object as the
last line of its standard output.  ``ready_at`` is the perf_counter
reading (CLOCK_MONOTONIC, shared by all processes) just before the first
timed op, so the launcher can measure set-up from the moment it started
the process; ``excluded_s`` is the benchmark's own work in that window,
which the launcher leaves out, and ``setup_probe_s`` the machine speed
sampled during set-up.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tables  # noqa: E402

# Seconds between speed-probe samples while ops run, and during set-up, which
# is short (0.2 to 2.5 s) and needs denser samples for a median.
OP_PROBE_INTERVAL = 0.2
SETUP_PROBE_INTERVAL = 0.02
PINNED_DIGEST_FILE = Path(__file__).resolve().parent / "suite_all.sha256"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpeedProbe:
    """Samples how fast the machine runs this process right now.

    Every `interval` seconds a SIGALRM handler times a fixed piece of
    pure-Python elimination from the benchmark's own code (never pgtool's),
    run once untimed first so the cache state left by the interrupted op
    matters less, with the collector paused.  The shared host slows every
    process here by up to 1.7x in phases lasting seconds to minutes; the
    launcher divides each worker's op times, and its set-up time, by the
    median probe time taken while they ran, so runs made in different
    phases can be compared.  Probe time spent inside an op or inside set-up
    is taken out of its time.
    """

    def __init__(self, interval: float):
        self.interval = interval
        rng = random.Random(0)
        self.field = tables.field_for(3)
        self.matrices = [[[rng.randrange(3) for _ in range(6)] for _ in range(5)] for _ in range(24)]
        self.samples: list[float] = []
        self.total = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        for matrix in self.matrices:
            tables.rank(self.field, matrix)
        t1 = time.perf_counter()
        for matrix in self.matrices:
            tables.rank(self.field, matrix)
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t2 - t1)
        self.total += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> float:
        """Stop sampling; the median sample time (at least five samples)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        while len(self.samples) < 5:
            self.sample()
        return statistics.median(self.samples)


# -- one table ----------------------------------------------------------------


def decide(workload: str, op: tables.Op):
    """The timed op: load the map dict the way the CLI does, decide, reconstruct."""
    from pgtool import embeddings as emb

    nu = emb.point_map_from_dict(op.data)
    if workload == "verify":
        verdict = emb.is_quadratic_embedding(nu, mode="reduced")
        accepted = verdict.is_embedding
    else:
        verdict = emb.is_regular(nu)
        accepted = verdict
    rec = emb.reconstruct_kappa(nu) if accepted else None
    return nu, verdict, rec


def _check_reconstruction(op: tables.Op, rec) -> str | None:
    if rec.alpha != op.alpha:
        return f"Frobenius exponent {rec.alpha}, generated with {op.alpha}"
    if rec.points_checked != len(op.data["pairs"]):
        return f"certificate checked {rec.points_checked} of {len(op.data['pairs'])} points"
    # the certificate again, with the benchmark's own arithmetic
    field = op.field
    matrix = [list(r) for r in rec.kappa.matrix]
    for x, y in op.data["pairs"]:
        if tables.apply_semilinear(field, matrix, rec.alpha, tables.veronese(field, x)) != tuple(y):
            return f"reconstructed collineation misses the table at {x}"
    return None


def _check_witness(op: tables.Op, nu, witness) -> str | None:
    """A rejection witness must really violate: forms-based closure vs span preimage."""
    from pgtool.quadrics import closure_points_by_forms

    table = {tuple(x): tuple(y) for x, y in op.data["pairs"]}
    rows = [table[w] for w in witness]
    base = tables.rank(op.field, rows) if rows else 0
    preimage = frozenset(x for x, y in table.items() if tables.rank(op.field, rows + [y]) == base)
    if closure_points_by_forms(nu.source, list(witness)) == preimage:
        return f"witness {sorted(witness)} does not violate the closure identity"
    return None


def check(workload: str, op: tables.Op, outcome) -> str | None:
    """None when the verdict, certificate and witness are right, else the reason."""
    nu, verdict, rec = outcome
    if workload == "verify":
        accepted = verdict.is_embedding
        if accepted and (verdict.violated_set is not None or not verdict.span_condition):
            return "accepted with a witness or without the span condition"
    else:
        accepted = verdict
    if accepted != (op.label == "accept"):
        return f"verdict {'accept' if accepted else 'reject'} on a table labelled {op.label}"
    if accepted:
        return _check_reconstruction(op, rec)
    if workload == "verify":
        if verdict.violated_set is None:
            return "rejected without a witness"
        return _check_witness(op, nu, verdict.violated_set)
    return None


def _elapsed(t0: float, probe: SpeedProbe | None, probed: float) -> float:
    return time.perf_counter() - t0 - (probe.total - probed if probe is not None else 0.0)


def run_op(workload: str, op: tables.Op, tracer=None, probe=None) -> tuple[float, str | None]:
    """Time one op (traced when a tracer is given), then check it outside the timing.

    A raised exception is a failure of the op, not a crash of the benchmark.
    """
    if tracer is not None:
        tracer.active = True
    probed = probe.total if probe is not None else 0.0
    t0 = time.perf_counter()
    try:
        outcome = decide(workload, op)
    except Exception:  # noqa: BLE001 - every op must be accounted for
        return _elapsed(t0, probe, probed), "raised " + traceback.format_exc(limit=3)
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = _elapsed(t0, probe, probed)
    return elapsed, check(workload, op, outcome)


# -- one suite pass -------------------------------------------------------------


def suite_pass(tracer=None, probe=None) -> tuple[float, str | None, dict]:
    from pgtool import suites

    if tracer is not None:
        tracer.active = True
    probed = probe.total if probe is not None else 0.0
    t0 = time.perf_counter()
    try:
        results = suites.run_suite("all")
    except Exception:  # noqa: BLE001
        return _elapsed(t0, probe, probed), "raised " + traceback.format_exc(limit=3), {}
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = _elapsed(t0, probe, probed)
    per_suite = {r.suite: r.seconds for r in results}
    failed = [r.suite for r in results if not r.passed]
    if failed:
        return elapsed, f"suites failed: {', '.join(failed)}", per_suite
    # the bytes `pgtool suite --json` writes
    body = json.dumps([r.body() for r in results], indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    pinned = PINNED_DIGEST_FILE.read_text().split()[0]
    if digest != pinned:
        return elapsed, f"report body digest {digest} differs from pinned {pinned}", per_suite
    return elapsed, None, per_suite


# -- modes --------------------------------------------------------------------


def setup(workload: str) -> dict:
    """Import pgtool and decide one table on every space untimed, which builds
    the fields and spaces and fills the point lists, memos and Veronese maps.

    A speed probe runs throughout, every SETUP_PROBE_INTERVAL seconds.  The
    benchmark's own work in the set-up window, generating the warm-up tables
    and the probe itself, is timed as ``excluded_s`` so the launcher can
    leave it out; the answers are checked after ``ready_at``.
    """
    probe = SpeedProbe(SETUP_PROBE_INTERVAL)
    probe.start()
    try:
        import pgtool  # noqa: F401

        errors, warm, tables_s = [], [], 0.0
        if workload != "suite-all":
            t0, probed = time.perf_counter(), probe.total
            ops = tables.warmup_ops(workload)
            tables_s = _elapsed(t0, probe, probed)
            for op in ops:
                try:
                    warm.append((op, decide(workload, op)))
                except Exception:  # noqa: BLE001 - reported as a set-up failure
                    errors.append(f"warm-up {op.kind}: raised " + traceback.format_exc(limit=3))
        ready_at = time.perf_counter()
        excluded_s = tables_s + probe.total
    finally:
        probe_s = probe.stop()
    for op, outcome in warm:
        err = check(workload, op, outcome)
        if err:
            errors.append(f"warm-up {op.kind}: {err}")
    return {"ready_at": ready_at, "excluded_s": excluded_s, "setup_probe_s": probe_s, "setup_failures": errors}


def measure(workload: str, seed: int, seconds: float, min_ops: int, probe: SpeedProbe | None = None) -> dict:
    """Closed loop: next table only after the previous verdict, for `seconds`."""
    samples, failures = [], []
    rss_at_min = None
    ops = tables.stream(workload, seed)
    begin = time.perf_counter()
    while len(samples) < min_ops or time.perf_counter() - begin < seconds:
        op = next(ops)
        elapsed, err = run_op(workload, op, probe=probe)
        samples.append([op.kind, elapsed])
        if err:
            failures.append(f"{op.kind}: {err}")
        if len(samples) == min_ops:
            rss_at_min = peak_rss_mb()
    return {"samples": samples, "failures": failures, "peak_rss_mb": rss_at_min}


def fixed_ops(workload: str, seed: int, count: int, tracer=None) -> dict:
    """A fixed op list (the first `count` ops of the stream, or `count` suite
    passes), optionally traced; its counts repeat exactly for a seed."""
    samples, failures = [], []
    ops = tables.stream(workload, seed)
    per_suite = {}
    begin = time.perf_counter()
    for i in range(count):
        op = None if workload == "suite-all" else next(ops)
        kind = "pass" if op is None else op.kind
        if tracer is not None:
            tracer.op, tracer.op_class = i, kind.split()[0]
        if op is None:
            elapsed, err, per_suite = suite_pass(tracer)
        else:
            elapsed, err = run_op(workload, op, tracer)
        samples.append([kind, elapsed])
        if err:
            failures.append(f"{kind}: {err}")
    wall = time.perf_counter() - begin
    return {"samples": samples, "failures": failures, "wall_s": wall, "per_suite": per_suite}


def measured_run(args) -> dict:
    """Set-up, then the timed ops with the speed probe running."""
    out = setup(args.workload)
    probe = SpeedProbe(OP_PROBE_INTERVAL)
    probe.start()
    try:
        if args.workload == "suite-all":
            elapsed, err, per_suite = suite_pass(probe=probe)
            out.update(samples=[["pass", elapsed]], failures=[err] if err else [], per_suite=per_suite)
        else:
            out.update(measure(args.workload, args.seed, args.seconds, args.min_ops, probe))
    finally:
        out["probe_s"] = probe.stop()
    return out


def fixed_run(args) -> dict:
    """The fixed op list, untraced or traced; the two are compared, so neither is probed."""
    out = setup(args.workload)
    if args.mode == "fixed":
        out.update(fixed_ops(args.workload, args.seed, args.count))
        return out
    import tracer as tracing

    tr = tracing.install()
    out.update(fixed_ops(args.workload, args.seed, args.count, tr))
    accepts = sum(1 for kind, _ in out["samples"] if kind.startswith("accept"))
    metrics = tracing.layer_metrics(tr, tracing.cache_sizes(), accepts)
    out["layers"] = {k: [v, u] for k, (v, u) in metrics.items()}
    out["per_class_calls"] = {
        f"{cls} {tr.names[idx]}": n for (cls, idx), n in sorted(tr.class_calls.items())
    }
    out["table"] = [
        [tr.names[i], tr.calls[i], tr.total[i], tr.self_time[i]] for i in range(len(tr.names))
    ]
    out["spans_written"] = tr.write_spans(args.spans)
    out["spans_dropped"] = tr.dropped
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["verify", "regular", "suite-all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "fixed", "traced"])
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", type=int, default=1)
    ap.add_argument("--count", type=int, default=1)
    ap.add_argument("--spans", help="gzip TSV path for the traced spans (traced mode)")
    args = ap.parse_args()
    if args.mode == "traced" and not args.spans:
        ap.error("--mode traced needs --spans")

    if args.mode == "setup":
        out = setup(args.workload)
    elif args.mode == "measure":
        out = measured_run(args)
    else:
        out = fixed_run(args)
    out["peak_rss_mb"] = out.get("peak_rss_mb") or peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
