"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that the printed metric names and units match BENCHMARK.json in
both modes, that a short run of every workload decides every op
correctly, that the traced runs report their counts consistently, and
that the output checks are not vacuous: a mislabelled table, a wrong Frobenius
exponent, a non-violating witness and a changed suite report body each
count as a failure.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tables  # noqa: E402
import worker  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def run(workload: str, trace: int) -> tuple[dict, dict]:
    """The detail record and the result of one short run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        expect(False, f"{workload} trace={trace} exits 0 ({proc.stderr[-500:]})")
        return {}, {}
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def check_contract(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, want in ((0, e2e), (1, layers)):
            detail, res = run(wl, trace)
            if not res:
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{wl} trace={trace}: result keys")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{wl} trace={trace}: metric names and units match BENCHMARK.json")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{wl} trace={trace}: every op correct ({res['failed']} of {res['attempted']} failed)")
            if trace == 0:
                expect(all(v["value"] > 0 for v in res["metrics"].values()), f"{wl}: no end-to-end metric is 0")
            elif wl == "verify":
                per_accept = res["metrics"]["quadrics.closure_points.calls_per_accept"]["value"]
                calls = detail["per_class_calls"].get("accept quadrics.closure_points", 0)
                accepts = sum(v["n"] for kind, v in detail["by_kind"].items() if kind.startswith("accept"))
                expect(accepts > 0 and per_accept == calls / accepts,
                       f"verify: closure_points calls per accept = accept-class calls / accepts "
                       f"({per_accept} = {calls} / {accepts})")
            elif wl == "regular":
                calls = res["metrics"]["quadrics.closure_points.calls"]["value"]
                expect(calls == 0, f"regular: closure_points calls = 0 ({calls})")


def check_not_vacuous() -> None:
    import random

    from pgtool import suites

    rng = random.Random("selftest")
    for workload, label, n, q in (("verify", "reject", 2, 3), ("verify", "accept", 2, 3),
                                  ("regular", "reject", 2, 5), ("regular", "accept", 2, 5)):
        op = tables.make_table(label, n, q, rng)
        _s, err = worker.run_op(workload, op)
        expect(err is None, f"{workload}: correctly labelled {op.kind} passes")
        op.label = "accept" if label == "reject" else "reject"
        _s, err = worker.run_op(workload, op)
        expect(err is not None, f"{workload}: {label} table labelled {op.label} is caught")

    op = tables.make_table("accept", 2, 8, rng)
    op.alpha = (op.alpha + 1) % 3
    _s, err = worker.run_op("regular", op)
    expect(err is not None, "regular: wrong Frobenius exponent is caught")

    op = tables.make_table("accept", 2, 3, rng)
    nu, _verdict, _rec = worker.decide("verify", op)
    expect(worker._check_witness(op, nu, nu.source.points()[:2]) is not None,
           "verify: a witness that does not violate is caught")

    # the measuring loop counts a mislabelled table as a failed op
    real_stream = tables.stream
    bad = tables.make_table("reject", 2, 3, rng)
    bad.label = "accept"

    def stream(workload, seed):
        yield bad
        yield from real_stream(workload, seed)

    tables.stream = stream
    try:
        res = worker.measure("verify", 1, 0.0, 3)
    finally:
        tables.stream = real_stream
    expect(len(res["failures"]) == 1 and len(res["samples"]) == 3,
           f"measure loop: one mislabelled op of 3 gives one failure ({len(res['failures'])})")

    real_run = suites.run_suite
    suites.run_suite = lambda suite_id="all": [suites.SuiteResult("x", "changed body", {}, True)]
    try:
        _s, err, _per = worker.suite_pass()
    finally:
        suites.run_suite = real_run
    expect(err is not None and "digest" in err, "suite-all: a changed report body is caught")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_not_vacuous()
    check_contract(spec)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
