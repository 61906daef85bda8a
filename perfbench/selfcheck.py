"""Self-check of the benchmark at tiny sizes.

Usage: python3 perfbench/selfcheck.py

For every workload it makes a traced run of the workload's suites at tiny
flags (one untraced and one traced child) and asserts that both succeed
with equal report digests, that every per-layer metric of BENCHMARK.json is
emitted, that the layer self times plus the unattributed time add up to the
traced verify time, and that layers the workload never enters report zero
calls.  It takes a few seconds.
"""

import math
import os
import sys

import run

TINY = {
    "closure": [["generation", "--n", "2", "--max-degree", "5"]],
    "solve": [["lemma425", "--n", "2", "--max-degree", "3"]],
    "laws": [["star-laws", "--n", "2", "--max-degree", "3"],
             ["operad", "--n", "2", "--max-degree", "3"],
             ["equivariance", "--n", "2", "--max-degree", "3"]],
    "johnson": [["pairs", "--n", "3", "--depth", "3"], ["johnson", "--n", "3"],
                ["mccool", "--n", "3"]],
}

# Call counters that must read zero on the workloads that skip their layer.
UNUSED = {
    "closure": ["transfer.transfer_calls", "freegroup.series_muls"],
    "solve": ["transfer.transfer_calls", "freegroup.series_muls",
              "linalg.lattice_adds"],
    "laws": ["linalg.lattice_adds", "linalg.snf_calls", "freegroup.series_muls",
             "derivations.der_bracket_calls", "freelie.decompose_calls"],
    "johnson": ["linalg.lattice_adds", "linalg.snf_calls",
                "transfer.transfer_calls", "schur.apply_calls"],
}


def main():
    bench = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    workloads = run.load_json(os.path.join(run.HERE, "workloads.json"))["workloads"]
    names = [m["name"] for m in bench["per_layer"]]
    problems = []
    if sorted(TINY) != sorted(workloads):
        problems.append(f"tiny flags for {sorted(TINY)}, workloads {sorted(workloads)}")
    for workload, flags in TINY.items():
        # one untraced and one traced child on seed 0, as in a traced run
        record = run.run([{"argv": argv} for argv in flags], 0, 0, True)
        layers = record.get("layers")
        if record["failed"] or not layers:
            problems.append(f"{workload}: a child failed, or traced and untraced "
                            f"reports differ")
            continue
        missing = [name for name in names if name not in layers]
        if missing:
            problems.append(f"{workload}: metrics not emitted: {missing}")
        total = sum(v for k, v in layers.items()
                    if k.endswith(".self_s")) + layers["trace.unattributed_s"]
        if not math.isclose(total, layers["trace.verify_s"], rel_tol=1e-6):
            problems.append(f"{workload}: self times sum to {total}, "
                            f"traced verify_s is {layers['trace.verify_s']}")
        nonzero = [k for k in UNUSED[workload] if layers[k]]
        if nonzero:
            problems.append(f"{workload}: nonzero counters of unused layers: {nonzero}")
        print(f"{workload}: untraced {record['samples']['verify_s'][0]:.2f} s, "
              f"traced {layers['trace.verify_s']:.2f} s, absent {record['absent']}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
