"""semispec benchmark: end-to-end and per-layer metrics with pinned answers.

Run from the repository root:

    python3 perfbench/run.py --workload {verify,ladder,session} --seed N \\
        --seconds S --trace {0,1}

Each run starts fresh single-threaded Python children, one after another,
and each child makes one pass over the workload's operations. With
--trace 0, children that only set up (for setup_s) run before and after
the measuring children, which follow one another while the next is expected
to end within --seconds; with --trace 1, one untraced and one traced child
run. Every operation's answer is compared with perfbench/pins.json. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 1 when any answer differs
from its pin, 2 when the run cannot start.

The machine this runs on may be shared and unpinned: timings carry its
noise, and the header line records the seed, Python version, processor
count and active core so that runs can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".perfbench")
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("verify", "ladder", "session")
# Set-up-only children per run, half before the measuring children and
# half after them.
SETUP_PROBES = 24
# Settings a workload's child gets beyond its workspace: the ladder lifts
# the spectrum cap so its 32-element rung is measured.
ENV = {"verify": {}, "ladder": {"SEMISPEC_SPECTRUM_LIMIT": "32"}, "session": {}}
# A run must end within 180 s; children share what is left of this.
RUN_BUDGET_S = 170.0


def child_env(workload: str, scratch: str) -> Dict[str, str]:
    """Inherited environment without SEMISPEC_* and PYTHON* settings, plus
    only the variables the workload names. Bytecode is cached inside the
    checkout whatever the caller's PYTHONDONTWRITEBYTECODE says, so that
    set-up time does not depend on it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("SEMISPEC_", "PYTHON"))}
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=os.path.join(CACHE, "pycache"),
        SEMISPEC_WORKSPACE=os.path.join(scratch, "ws"),
    )
    env.update(ENV[workload])
    return env


class ChildFailed(Exception):
    pass


def spawn(args, deadline: float, trace: int = 0, setup_only: bool = False,
          spans: Optional[str] = None) -> dict:
    """Run one child to completion; return its output and set-up time."""
    os.makedirs(CACHE, exist_ok=True)
    scratch = os.path.join(CACHE, f"run-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(scratch)
    out = os.path.join(scratch, "out.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace),
           "--scratch", scratch, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = child_env(args.workload, scratch)
    try:
        started = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=scratch,
                              capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        raise ChildFailed("child ran past the run's time budget")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # perf_counter is the system-wide monotonic clock, shared with the child.
    result["setup_s"] = result["ready"] - started
    return result


def score(workload: str, records: List[list], pins: Dict[str, Dict[str, str]]) -> Dict[str, object]:
    """Count attempted, failed and refused operations, and list mismatches.

    A refusal (ResourceError or exit 8) is counted as refused and not
    compared with the pin. An error, a missing pin, or an answer that
    differs from its pin is a failure."""
    want = pins.get(workload, {})
    failed, refused, bad = 0, 0, []
    for name, _t0, _t1, status, answer in records:
        if status == "refused":
            refused += 1
        elif status != "ok" or want.get(name) != answer:
            failed += 1
            bad.append(f"{name}: got {answer!r}, pinned {want.get(name)!r}")
    return {"attempted": len(records), "failed": failed, "refused": refused, "mismatches": bad}


def wall_s(result: dict) -> float:
    """A child's time from the start of its first operation to the end of
    its last."""
    records = result["records"]
    return records[-1][2] - records[0][1]


def measure(args, deadline: float) -> List[dict]:
    """Measuring children, one after another, while the next is expected to
    end within --seconds; always at least one."""
    results = []
    begin = time.monotonic()
    while True:
        results.append(spawn(args, deadline))
        elapsed = time.monotonic() - begin
        if elapsed * (len(results) + 1) / len(results) > args.seconds:
            return results


def end_to_end(results: List[dict], setups: List[float], tally: dict) -> Dict[str, dict]:
    n = tally["attempted"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(wall_s(r) for r in results), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["maxrss_mb"] for r in results), "unit": "MB"},
        "pinned_frac": {"value": (n - tally["failed"]) / n, "unit": "ratio"},
        "answered_frac": {"value": (n - tally["refused"]) / n, "unit": "ratio"},
    }


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "semispec", "__init__.py")):
        print(f"perfbench: no semispec sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    deadline = time.monotonic() + RUN_BUDGET_S

    try:
        if args.trace:
            # One child each, so that counts repeat exactly from run to run.
            plain = spawn(args, deadline)
            spans = os.path.join(CACHE, f"spans-{args.workload}.json")
            traced = spawn(args, deadline, trace=1, spans=spans)
            runs = [plain, traced]
        else:
            setups = [spawn(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES // 2)]
            runs = measure(args, deadline)
            setups += [spawn(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES // 2)]
            setups += [r["setup_s"] for r in runs]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    records = [r for run in runs for r in run["records"]]
    tally = score(args.workload, records, pins)
    for line in tally["mismatches"]:
        print(f"MISMATCH {line}", file=sys.stderr)

    n = tally["attempted"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"children={len(runs)} ops={len(records)} python={runs[0]['python']} "
          f"nproc={os.cpu_count()} core={runs[0]['core']} (shared, unpinned machine; timings carry its noise)")
    print(f"  failed_frac   {tally['failed'] / n:.6f} ratio ({tally['failed']}/{n})")
    print(f"  refused_frac  {tally['refused'] / n:.6f} ratio ({tally['refused']}/{n})")
    if args.trace:
        from layers import per_layer

        metrics, absent = per_layer(traced["trace"], wall_s(plain), wall_s(traced))
        if absent:
            print(f"  absent (reported as 0): {', '.join(absent)}")
        print(f"  spans written to {os.path.relpath(spans, ROOT)}")
    else:
        metrics = end_to_end(runs, setups, tally)
        print(f"  samples: setup_s {len(setups)} child start-ups, wall_s {len(runs)} children, "
              f"op latencies {len(records)} operations")
        print(f"  child walls   {' '.join(f'{wall_s(r):.4g}' for r in runs)} s")
        # Printed, not bounded: over a fixed mix of operations of very
        # different lengths, a percentile can sit in a gap between two of
        # them and jump by a fifth or more between runs of the same code.
        lat = [(t1 - t0) * 1000 for _name, t0, t1, _status, _answer in records]
        print(f"  op_p50_ms     {statistics.median(lat):.6g} ms")
        print(f"  op_p90_ms     {statistics.quantiles(lat, n=10)[8]:.6g} ms")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally["failed"] == 0, "attempted": n, "failed": tally["failed"],
                      "metrics": metrics}))
    return 0 if tally["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
