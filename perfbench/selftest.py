"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once on tiny instances and requires every query to pass
its independent check; runs two traced tiny runs and requires identical
counts; feeds the checks deliberately wrong outputs and requires them to be
rejected; checks that the host probe runs every unit and then ends; and
compares the per-layer metric list with BENCHMARK.json.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle as orc  # noqa: E402
import tracing  # noqa: E402
from hostclock import HOST_UNITS, HostClock, Probe  # noqa: E402
from run import WORKLOADS  # noqa: E402

COUNTERS = ("calls", "states_out", "transitions_out")


def bench(workload, trace=0) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def rejects(reason, what) -> None:
    if reason is None:
        raise AssertionError(f"check accepted {what}")


def oracle_rejects_wrong_outputs() -> None:
    fc1 = orc.Nfa({"tracks": 2, "alphabet": ["a"], "states": 2, "initial": [0],
                   "accepting": [1], "transitions": [[0, ["a", "a"], 0],
                                                     [0, ["_", "a"], 1]]})
    fc2 = orc.Nfa({"tracks": 2, "alphabet": ["a"], "states": 3, "initial": [0],
                   "accepting": [2], "transitions": [[0, ["a", "a"], 0],
                                                     [0, ["_", "a"], 1],
                                                     [1, ["_", "a"], 2]]})
    even = {"tracks": 1, "alphabet": ["a"], "states": 2, "initial": [0], "accepting": [0],
            "transitions": [[0, ["a"], 1], [1, ["a"], 0]]}
    odd = dict(even, accepting=[1])
    parity = orc.Products({"products": [{"left": even, "right": odd},
                                        {"left": odd, "right": even}]})
    only = orc.Products({"products": [{"left": even, "right": odd}]})
    assert orc.check_separates(parity, fc1, fc2, 5) is None
    rejects(orc.check_separates(only, fc1, fc2, 5), "a separator missing (a, aa)")
    good = "FAILS_CONTAINMENT witness=(('a',), ('a', 'a'))"
    assert orc.check_sep_verify(1, good, only, fc1, fc2, 4, "FAILS_CONTAINMENT") is None
    rejects(orc.check_sep_verify(
        1, "FAILS_CONTAINMENT witness=(('a', 'a', 'a'), ('a', 'a', 'a', 'a'))",
        only, fc1, fc2, 4, "FAILS_CONTAINMENT"), "a witness that is not least")
    rejects(orc.check_sep_verify(0, "SEPARATES", only, fc1, fc2, 4, "FAILS_CONTAINMENT"),
            "a wrong verdict")
    # min-prod lower bound: fc1 restricted to short words needs many products
    assert orc.prod_lower_bound(fc1, 4, 6, 3) is None
    # a machine that merges two configurations
    nonrev = orc.Machine({"states": ["p", "q"], "tape": ["1"], "blank": "_",
                          "initial": "p", "final": [],
                          "delta": [["p", "_", "q", "1", "R"], ["p", "1", "q", "1", "R"]]})
    assert orc.reversibility_report(nonrev, 2)["collision"] is not None
    report = "initial-no-predecessor: True\nfunctional: True\nco-functional: True\n"
    rejects(orc.check_tm_check(0, report, nonrev, 2), "a reversible verdict")


def host_probe_runs_and_ends() -> None:
    """Every unit runs at least once, the slowdown is a plain positive
    number, and the probe's process has ended when the phase ends."""
    with Probe() as probe:
        clock = HostClock(probe, share=0.5)
        clock.sample(0.01)
        slow = clock.slowdown()
        proc = probe.proc
    assert all(n > 0 for n in clock.units) and len(clock.units) == len(HOST_UNITS)
    assert 0 < slow < float("inf"), slow
    assert proc.returncode == 0, proc.returncode


def main() -> int:
    oracle_rejects_wrong_outputs()
    host_probe_runs_and_ends()
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert declared == tracing.PER_LAYER, "per_layer in BENCHMARK.json differs from tracing.PER_LAYER"
    for w in WORKLOADS:
        res = bench(w)
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, (w, res)
        print(f"{w}: {res['attempted']} queries checked")
    for w in ("separation", "tm-pipeline"):
        a, b = bench(w, 1), bench(w, 1)
        for name, m in a["metrics"].items():
            if name.rsplit(".", 1)[1] in COUNTERS:
                assert m["value"] == b["metrics"][name]["value"], (w, name)
        assert a["metrics"]["cli.main.calls"]["value"] > 0
        print(f"{w}: traced counts repeat exactly")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
