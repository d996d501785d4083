"""Closed-loop benchmark of the autorel CLI verbs.

    python3 perfbench/run.py --workload tm-pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One caller in one process and one
thread calls ``autorel.cli.main(argv)`` for each query, waits for the
verdict, then sends the next; rounds of the workload's queries repeat until
about ``--seconds`` have passed (rounds are never cut short).  Every output is
then judged by the independent checks in ``oracle.py``.

The host is a shared machine whose speed drifts by tens of percent over
minutes.  So after every timed step the benchmark also times fixed
pure-Python tasks (``hostclock.HOST_UNITS``, which do not touch autorel)
for a fifth of the step's time, and reports every time scaled to a host on
which those tasks take their reference times: the drift slows both alike
and cancels.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured without tracing; with ``--trace 1`` they are the
per-layer counters of ``tracing.PER_LAYER``, per round.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("tm-pipeline", "definability", "separation")
SETUPS = 7  # set-up repetitions; setup_s reports their median
CAL_SHARE = 0.2  # host-speed sampling time per second of timed queries

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import autorel.cli; print(time.time())")


def process_start_to_import() -> float:
    """Seconds from spawning a fresh interpreter to autorel.cli imported."""
    t0 = time.time()
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          check=True, capture_output=True, text=True, timeout=60)
    return float(done.stdout.strip()) - t0


def call(cli, argv) -> tuple:
    """(exit code or None if it raised, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash is a failed query, not a crashed benchmark
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def read_outputs(paths) -> tuple:
    return tuple(Path(p).read_text(encoding="utf-8") if Path(p).exists() else None
                 for p in paths)


def judge(query, code, stdout, stderr, outs):
    """None when the query's outcome is right, else (kind, reason) with kind
    'error' (raised or exit 2) or 'wrong' (the check rejects the output)."""
    if code is None or code == 2:
        tail = (stderr.strip().splitlines() or ["?"])[-1]
        return "error", f"exit {code}: {tail}"
    try:
        reason = query.check(code, stdout, outs)
    except Exception as e:  # a malformed output is a rejected output
        reason = f"check raised {e!r}"
    return None if reason is None else ("wrong", reason)


def interquartile_mean(samples) -> float:
    """Mean of the middle half of the samples.  Each sorted sample covers
    1/n of the quantile levels and is weighted by the overlap with
    [1/4, 3/4], so repeating whole rounds does not change the result."""
    xs = sorted(samples)
    n = len(xs)
    return 2 * sum(x * max(0.0, min((i + 1) / n, 0.75) - max(i / n, 0.25))
                   for i, x in enumerate(xs))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small instances and one round (self-test)")
    args = p.parse_args(argv)

    if not (SRC / "autorel" / "cli.py").is_file():
        print(f"error: no autorel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from autorel import cli
    import workloads
    from hostclock import HostClock, Probe

    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"error: autorel imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    make = getattr(workloads, args.workload.replace("-", "_"))
    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    # the host probe runs, one at a time, between the timed steps
    with Probe() as probe:
        setup_clock = HostClock(probe, share=0.5)
        import_times, setup_times = [], []
        for i in range(SETUPS):
            import_times.append(process_start_to_import())
            setup_clock.sample(import_times[-1])
            wd = run_dir / f"setup{i}"
            t0 = time.perf_counter()
            wd.mkdir(parents=True)
            queries = make(args.seed, wd, args.tiny)
            setup_times.append(time.perf_counter() - t0)
            setup_clock.sample(setup_times[-1])
            if i + 1 < SETUPS:
                shutil.rmtree(wd)
        setup_wall = statistics.median(import_times) + statistics.median(setup_times)
        setup_slow = setup_clock.slowdown()

        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        # outcomes per query: the first round's, then only those that differ
        results = [[] for _ in queries]
        lat = []
        clock = HostClock(probe, share=CAL_SHARE)
        rounds = 0
        t_start = time.perf_counter()
        while True:
            for i, q in enumerate(queries):
                t0 = time.perf_counter()
                code, stdout, stderr = call(cli, q.argv)
                lat.append(time.perf_counter() - t0)
                if not tracer:
                    clock.sample(lat[-1])
                outcome = (code, stdout, stderr, read_outputs(q.outs))
                if not results[i] or outcome != results[i][0]:
                    results[i].append(outcome)
            rounds += 1
            elapsed = time.perf_counter() - t_start
            # whole rounds only; stop at the round end nearest to --seconds
            if args.tiny or elapsed + elapsed / rounds / 2 >= args.seconds:
                break
        wall = time.perf_counter() - t_start
        if tracer:
            tracer.uninstall()
        else:
            slow = clock.slowdown()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # each distinct outcome is judged once; repeats of a round's first
    # outcome share its verdict
    failed = wrong = 0
    for q, res in zip(queries, results):
        counts = [rounds - len(res) + 1] + [1] * (len(res) - 1)
        for (code, stdout, stderr, outs), n in zip(res, counts):
            verdict = judge(q, code, stdout, stderr, outs)
            if verdict:
                print(f"FAILED {' '.join(q.argv)}: {verdict[1]}", file=sys.stderr)
                failed += n
                wrong += n * (verdict[0] == "wrong")

    if tracer:
        metrics = tracer.per_layer(rounds)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
    else:
        units = " ".join(f"{x:.3f}" for x in clock.unit_slowdowns())
        print(f"host slowdown {slow:.3f} (units {units}; set-up {setup_slow:.3f}); "
              f"unscaled: setup_s {setup_wall:.4f}, queries_per_s "
              f"{len(lat) / sum(lat):.3f}, query_ms.iqm "
              f"{interquartile_mean(lat) * 1e3:.3f}", file=sys.stderr)
        metrics = {
            "setup_s": {"value": setup_wall / setup_slow, "unit": "s"},
            "queries_per_s": {"value": len(lat) / sum(lat) * slow, "unit": "1/s"},
            "query_ms.iqm": {"value": interquartile_mean(lat) * 1e3 / slow, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    shutil.rmtree(run_dir)
    print(f"{args.workload}: {rounds} rounds of {len(queries)} queries in {wall:.2f} s",
          file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": len(lat),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
