"""One round of a workload, in a fresh Python process.

    python3 -I perfbench/round.py --workload W --seed N --out FILE.jsonl
        [--trace] [--setup-only]

Set-up (import flagchern, load the table registry, parse the workload's
manifolds with their isotropy summands) is timed first.  Then every
operation is one ``flagchern.cli.main(argv)`` call with its standard output
captured.  A sampler (refspeed.py) runs the reference unit every 50 ms
throughout, and scales set-up and each command to the reference speed.
FILE receives one JSON line per operation and a last line with the round's
timings, raw and normalised.  With --trace the flagchern functions are
wrapped (see tracing.py) after the import, and the spans are written to
FILE.spans.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REGISTRY = ROOT / "src" / "flagchern" / "data" / "expected_tables.json"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import refspeed
    import tracing
    import workloads

    registry = json.loads(REGISTRY.read_text())
    manifolds = workloads.setup_manifolds(args.workload, registry)
    tracer = None
    sampler = refspeed.Sampler()
    sampler.start()

    start = perf_counter()
    import flagchern  # noqa: F401  (the package import is part of set-up)
    from flagchern import cli, flagmodel, tables
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        start = perf_counter()
    tables.load_registry()
    for name in manifolds:
        flagmodel.parse_manifold(name).summands()
    setup_end = perf_counter()
    intervals = []

    with open(args.out, "w") as out:

        def run(kind, argv, meta):
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    rc = cli.main(argv)
                except Exception:
                    traceback.print_exc()
                    rc = -1
            t1 = perf_counter()
            intervals.append((t0, t1))
            seconds = t1 - t0
            out.write(json.dumps({"kind": kind, "argv": argv, "meta": meta,
                                  "rc": rc, "seconds": seconds,
                                  "stdout": stdout.getvalue(),
                                  "stderr": stderr.getvalue()}) + "\n")
            out.flush()
            return stdout.getvalue() if rc == 0 else None

        if not args.setup_only:
            workloads.run_workload(args.workload, args.seed, registry, run)
        sleep(refspeed.WINDOW_S)  # speed samples after the last interval
        sampler.stop()
        setup_s, setup_ref_s = sampler.normalise(start, setup_end)
        ops = [sampler.normalise(t0, t1) for t0, t1 in intervals]
        end = {"end": True, "setup_s": setup_s, "setup_ref_s": setup_ref_s,
               "wall_s": sum(raw for raw, _ in ops),
               "wall_ref_s": sum(ref for _, ref in ops),
               "ops_ref_s": [ref for _, ref in ops],
               "unit_s": sampler.unit_times(),
               "wrapped_seen": tracing.count_wrapped()}
        if tracer is not None:
            tracer.uninstall()
            end["layers"] = tracer.metrics()
            end["absent"] = tracer.absent
            tracer.dump(Path(args.out).with_suffix(".spans.json"))
        out.write(json.dumps(end) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
