"""The schurlie benchmark: `schurlie verify` suites end to end, one fresh
process at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closure --seed 0 --seconds 32 --trace 0

Each workload is a closed loop with one client.  The client is a fresh child
process (perfbench/child.py) that imports schurlie from the checkout's `src/`
and calls `schurlie.cli.main(["verify", suite, <pinned flags>, "--seed", S,
"--json"])` for every suite of the workload, so every `lru_cache` starts
cold.  S is derived from `--seed` (see child_seed).  Children run one after
another until the next one would end past `--seconds`; at least two always
run.  A few children that only import the package measure set-up.

With `--trace 0` the last stdout line holds the end-to-end metrics, medians
over the run's children.  `verify_s` and `setup_s` are corrected for the
speed the host gave the child at the time: each child's wall seconds are
multiplied by REFERENCE_CAL_S / cal_s, where cal_s is the child's mean time
for a fixed calibration loop, sampled during the calls for `verify_s` and
right after set-up for `setup_s` (see perfbench/child.py).  So they read as
seconds on a fast core of the host the benchmark was defined on.  The raw
wall seconds and cal_s are in the record.  With `--trace 1` children alternate untraced and
traced (perfbench/tracer.py) and the last line holds the per-layer metrics
of the first traced child.  `--record FILE` appends the run's samples and
digests as one JSON line, the input of perfbench/compare.py.

A child fails when it exits non-zero, overruns its time cap (it is killed),
or prints a report that is not ok, has another instance count than pinned,
or differs in digest from the pinned one (seed 0) or from an earlier child
of the run on the same seed, traced or not.  All pinned instances of a
failed suite count as failed.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5  # set-up-only children per run, for a steady setup_s median
MIN_CHILDREN = 2  # a run's median needs two samples, even past --seconds
SEEDS_PER_RUN = 1000  # see child_seed
RUN_LIMIT_S = 150  # a child still running this long after the run began is killed
# child.calibrate's time on a fast core of the host the benchmark was defined
# on; a child's times are scaled by REFERENCE_CAL_S / its own cal_s
REFERENCE_CAL_S = 0.0012


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_child(argvs, trace, timeout):
    """Spawn one client and wait for it.  Returns its result dict with
    `setup_s`, `setup_wall_s` and `wall_s` added; a child that is killed at `timeout`, exits
    non-zero or prints no result returns only `wall_s`."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-s", os.path.join(HERE, "child.py"), ROOT,
         "1" if trace else "0", json.dumps(argvs)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**_clean_env(), "PYTHONHASHSEED": "0"})
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"child killed after {timeout:.0f} s", file=sys.stderr)
        return {"wall_s": time.monotonic() - spawned}
    wall_s = time.monotonic() - spawned
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        print(f"child exited with {proc.returncode}: {err.strip()[-2000:]}",
              file=sys.stderr)
        return {"wall_s": wall_s}
    setup_wall_s = result["ready"] - spawned
    result.update(setup_wall_s=setup_wall_s, wall_s=wall_s,
                  setup_s=setup_wall_s * REFERENCE_CAL_S / result["setup_cal_s"])
    return result


def _clean_env():
    # children may write bytecode, so that set-up is timed as users see it
    # whether or not the calling shell disables bytecode caches
    return {k: v for k, v in os.environ.items()
            if k not in ("PYTHONPATH", "PYTHONHASHSEED", "PYTHONSTARTUP",
                         "PYTHONDONTWRITEBYTECODE")}


def check_child(result, suites, seed, reference):
    """Failed instances of one child, checked against each suite's pins (an
    absent pin is not checked) and the `reference` digests of an earlier
    child on the same seed; returns (failed, digests)."""
    expected = sum(suite.get("instances") or 0 for suite in suites)
    if len(result.get("suites", ())) != len(suites):
        return expected, None
    failed = 0
    digests = [got["sha256"] for got in result["suites"]]
    for k, (got, pin) in enumerate(zip(result["suites"], suites)):
        pinned = pin.get("sha256_seed0") if seed == 0 else None
        good = (got["code"] == 0 and got["ok"]
                and pin.get("instances") in (None, got["instances"])
                and pinned in (None, got["sha256"])
                and (reference is None or got["sha256"] == reference[k]))
        if not good:
            failed += pin.get("instances") or got["instances"] or 1
    return failed, digests


def child_seed(seed, index):
    """The `--seed` of a run's child number `index`: each child of a run gets
    its own seed (up to SEEDS_PER_RUN children), so the median of a workload
    whose inputs change with the seed spans as many inputs as the run has
    children.  Run seed 0 starts with seed 0, the one the digests are pinned
    at."""
    return seed * SEEDS_PER_RUN + index % SEEDS_PER_RUN


def run(suites, seed, seconds, trace):
    """Run the suites as a closed loop for `seconds`; returns the run record.

    Each suite is a dict with `argv` (the flags after `verify`, without
    --seed and --json) and optional pins `instances` and `sha256_seed0`.
    """
    began = time.monotonic()
    deadline = began + seconds

    def timeout():
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - began))

    run_child([], False, timeout())  # writes bytecode caches; not measured
    probes = [run_child([], False, timeout()) for _ in range(SETUP_PROBES)]

    children = {False: [], True: []}
    attempted = failed = 0
    digests = {}  # child seed -> report digests of its first child
    absent = []
    unfinished = []
    # in a traced run children alternate, each traced child on the seed of
    # the untraced child before it
    kinds = [False, True] if trace else [False]
    for count in itertools.count():
        kind = kinds[count % len(kinds)]
        done = children[kind]
        if count >= MIN_CHILDREN and time.monotonic() + done[-1]["wall_s"] > deadline:
            break
        sub = child_seed(seed, count // len(kinds))
        argvs = [["verify", *suite["argv"], "--seed", str(sub), "--json"]
                 for suite in suites]
        result = run_child(argvs, kind, timeout())
        lost, got = check_child(result, suites, sub, digests.get(sub))
        attempted += sum(suite.get("instances") or 0 for suite in suites)
        failed += lost
        if got is None:
            # a crashed or killed child ends the run; its time is a lower
            # bound, used only when no child finished
            unfinished.append(result["wall_s"])
            break
        digests.setdefault(sub, got)
        done.append(result)
        absent = result.get("absent", absent)

    setup_children = [r for r in probes + children[False] if "setup_s" in r]
    untraced = children[False] or [{"verify_s": wall_s, "cal_s": REFERENCE_CAL_S,
                                    "peak_rss_mb": 0.0} for wall_s in unfinished]
    record = {
        "seed": seed, "trace": int(trace), "seconds": seconds,
        "attempted": attempted, "failed": failed,
        "digests": {str(sub): got for sub, got in digests.items()},
        "samples": {
            "verify_s": [r["verify_s"] * REFERENCE_CAL_S / r["cal_s"] for r in untraced],
            "setup_s": [r["setup_s"] for r in setup_children],
            "setup_wall_s": [r["setup_wall_s"] for r in setup_children],
            "verify_wall_s": [r["verify_s"] for r in untraced],
            "cal_s": [r["cal_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        },
        "absent": absent,
    }
    if trace and children[True] and untraced:
        # the first traced child, so that counts repeat exactly per seed
        layers = dict(children[True][0]["trace"])
        layers["trace.overhead_ratio"] = (
            statistics.median(r["verify_s"] / r["cal_s"] for r in children[True])
            / statistics.median(r["verify_s"] / r["cal_s"] for r in untraced))
        record["layers"] = layers
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "schurlie", "__init__.py")):
        sys.exit(f"no schurlie sources under {os.path.join(ROOT, 'src')}")
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))["workloads"]
    if args.workload not in workloads:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")

    record = run(workloads[args.workload]["suites"], args.seed, args.seconds, args.trace)
    record["workload"] = args.workload
    samples = record["samples"]
    if args.trace:
        wanted = bench["per_layer"]
        values = record.get("layers", {})  # empty when no traced child finished
    else:
        wanted = bench["end_to_end"]
        values = {name: statistics.median(v) for name, v in samples.items()}
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(f"{args.workload} seed {args.seed}: {len(samples['verify_s'])} untraced "
          f"children, verify_s {[round(v, 3) for v in samples['verify_s']]}, "
          f"wall {[round(v, 3) for v in samples['verify_wall_s']]}", file=sys.stderr)
    if record["absent"]:
        print(f"absent entry points: {record['absent']}", file=sys.stderr)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
