"""flagchern benchmark: one workload, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload weyl-tables --seed 1 --seconds 40 \
        --trace 0

Run from the root of a flagchern checkout.  Each round is a fresh
``python3 -I perfbench/round.py`` process (cold module caches, as a CLI user
has); rounds run back to back, and another starts only while the time spent
so far plus the longest round stays within --seconds (at least one round
runs).  Set-up is also timed in extra processes that stop after it, half
before the rounds and half after them.

--trace 0 reports the end-to-end metrics: setup_s, wall_s (the workload's
commands after set-up) and peak_rss_mib (the round process's peak resident
memory, from wait4), each the median over the run's processes.  The two
times are in seconds at the reference speed (see refspeed.py).  --trace 1
runs one untraced round, then traced rounds, and reports the per-layer
metrics of tracing.py as medians over the traced rounds, plus
trace.overhead_s and the HOST_METRICS, which show the raw times and the
host's speed.  Results, round records and span dumps go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# set-up-only processes per run besides the rounds, half of them before the
# rounds and half after, so that their median spans the whole run
SETUP_PROCESSES = 12
DEADLINE_S = 165.0  # a run stops starting processes and kills any past this
# per-layer metrics of the run rather than of a traced layer
HOST_METRICS = {
    "host.wall_raw_s": "s",  # the untraced round's commands, not normalised
    "host.ref_unit_ms": "ms",  # median time of one reference unit
}


class RoundError(RuntimeError):
    pass


def spawn(args: list[str], out: Path, timeout: float):
    """Run round.py; return (records, end record, peak RSS in MiB)."""
    if timeout <= 0:
        raise RoundError("no time left before the run's deadline")
    cmd = [sys.executable, "-I", str(HERE / "round.py"), "--out", str(out),
           *args]
    with open(out.with_suffix(".stderr"), "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise RoundError(f"round process passed its {timeout:.0f} s "
                                 f"limit")
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RoundError(f"round process exited {proc.returncode}; see "
                         f"{out.with_suffix('.stderr')}")
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    if not lines or not lines[-1].get("end"):
        raise RoundError("round process wrote no end record")
    return lines[:-1], lines[-1], usage.ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    registry_path = ROOT / "src" / "flagchern" / "data" / "expected_tables.json"
    if not (ROOT / "src" / "flagchern" / "cli.py").is_file() \
            or not registry_path.is_file():
        print(f"no flagchern sources under {ROOT / 'src'}; run the benchmark "
              f"from a flagchern checkout", file=sys.stderr)
        return 2
    registry = json.loads(registry_path.read_text())
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - t0)

    attempted = failed = 0
    problems: list[str] = []
    setups: list[float] = []
    walls: list[float] = []
    rss: list[float] = []
    traced_walls: list[float] = []
    raw_walls: list[float] = []
    unit_times: list[float] = []
    layers: list[dict] = []
    failure_lines: list[str] = []

    def round_(k: int, traced: bool) -> None:
        nonlocal attempted, failed
        ops, end, peak = spawn(base + (["--trace"] if traced else []),
                               OUT / f"round-{tag}-{k}.jsonl", left())
        failures = checks.check_round(ops, registry)
        attempted += len(ops)
        failed += sum(1 for f in failures if f)
        failure_lines.extend(e for f in failures for e in f)
        unit_times.extend(end["unit_s"])
        if traced:
            traced_walls.append(end["wall_ref_s"])
            layers.append(end["layers"])
            if end["absent"]:
                print(f"absent from flagchern: {', '.join(end['absent'])}",
                      file=sys.stderr)
        else:
            if end["wrapped_seen"]:
                problems.append("an untraced round saw wrapped functions")
            walls.append(end["wall_ref_s"])
            raw_walls.append(end["wall_s"])
            rss.append(peak)
            setups.append(end["setup_ref_s"])

    def setup_only(first: int) -> None:
        for k in range(first, first + SETUP_PROCESSES // 2):
            _, end, _ = spawn(base + ["--setup-only"],
                              OUT / f"setup-{tag}-{k}.jsonl", left())
            setups.append(end["setup_ref_s"])

    try:
        # one unmeasured start, so compiled bytecode and the file cache are
        # in the state every later process sees
        spawn(base + ["--setup-only"], OUT / f"warmup-{tag}.jsonl", left())
        start = time.monotonic()
        if args.trace:
            round_(0, traced=False)
        else:
            setup_only(0)
        longest, k = 0.0, 1
        while True:
            r0 = time.monotonic()
            round_(k, traced=bool(args.trace))
            longest = max(longest, time.monotonic() - r0)
            k += 1
            if time.monotonic() - start + longest > args.seconds \
                    or left() < longest + 5:
                break
        if not args.trace:
            setup_only(SETUP_PROCESSES // 2)
    except RoundError as exc:
        problems.append(str(exc))

    for line in failure_lines[:20]:
        print(f"FAILED: {line}", file=sys.stderr)
    for line in problems:
        print(f"PROBLEM: {line}", file=sys.stderr)
    metrics: dict = {}
    if args.trace and layers and walls:
        for name, unit in tracing.LAYER_METRICS.items():
            if name == "trace.overhead_s":
                value = statistics.median(traced_walls) - walls[0]
            else:
                value = statistics.median(lay[name] for lay in layers)
            metrics[name] = _metric(value, unit)
        host = {"host.wall_raw_s": raw_walls[0],
                "host.ref_unit_ms": statistics.median(unit_times) * 1e3}
        for name, unit in HOST_METRICS.items():
            metrics[name] = _metric(host[name], unit)
    elif not args.trace and walls:
        metrics = {"setup_s": _metric(statistics.median(setups), "s"),
                   "wall_s": _metric(statistics.median(walls), "s"),
                   "peak_rss_mib": _metric(statistics.median(rss), "MiB")}
    else:
        problems.append("no round finished")
    result = {"correct": not problems and failed == 0,
              "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
