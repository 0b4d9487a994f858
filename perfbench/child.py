"""One run of one workload, in a fresh single-threaded process.

Started by run.py, never by hand. It imports semispec, builds the
workload's inputs from the seed, reports when that set-up is done, then
makes one pass over the workload's operations. Each operation's answer,
status and timing go to the --out file as JSON; run.py compares the answers
with the pins.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scratch", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", help="trace only: write the spans here")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import semispec

    tracer = None
    if args.trace:
        from tracer import Tracer, bytes_written, workspace_snapshot

        tracer = Tracer()
        tracer.install()
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
    ready = time.perf_counter()
    out = {"ready": ready}
    if not args.setup_only:
        if tracer is not None:
            tracer.reset()
        records = []
        for name, action in ops:
            before = workspace_snapshot() if tracer is not None else None
            t0 = time.perf_counter()
            try:
                answer, status = action(), "ok"
            except workloads.REFUSALS as exc:
                answer, status = f"{type(exc).__name__}: {exc}", "refused"
            except Exception as exc:  # recorded and counted as failed
                answer, status = f"{type(exc).__name__}: {exc}", "error"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.bump("cli.workspace_bytes_written", bytes_written(before, workspace_snapshot()))
            records.append([name, t0, t1, status, answer])
        core = getattr(semispec, "backend_name", None)
        out.update(
            records=records,
            maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            python=sys.version.split()[0],
            core=core() if core else None,
        )
        if tracer is not None:
            out["trace"] = tracer.summary()
            if args.spans:
                tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
