"""One benchmark client: a fresh process that runs `schurlie verify` suites.

Usage: python3 child.py ROOT TRACE ARGV_JSON

ROOT is the checkout whose `src/` is imported; TRACE is 0 or 1; ARGV_JSON is
a JSON list of argument lists, each passed to `schurlie.cli.main` in turn
(an empty list only measures set-up).  The last line of stdout is one JSON
object: the monotonic time set-up ended, untraced or traced verify seconds,
the host's calibration times, peak RSS, and per suite the exit code and the
sha256 and summary of its canonical JSON report.

The cores of a shared host switch between a fast and a slow state, about
1.6 times apart, every second or so, and each core on its own.  So a child
also times `calibrate`, a fixed loop that uses no schurlie code:
SETUP_CAL_CALLS times right after set-up (their mean is `setup_cal_s`), and
before and after the `main` calls; an untraced child also times it every
SAMPLE_PERIOD_S seconds during them, from a SIGALRM handler whose time is
taken out of `verify_s`.  `cal_s` is the mean of the timings around and
during the calls.  perfbench/run.py divides by these means.  A traced child is not sampled during the
calls, so that no span holds calibration time.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

SAMPLE_PERIOD_S = 0.1
SETUP_CAL_CALLS = 5


def main():
    root, trace, argvs = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import schurlie
    import schurlie.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(schurlie.__file__))) != src:
        sys.exit(f"schurlie was imported from {schurlie.__file__}, not from {src}")
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    setup_cal_s = statistics.fmean(calibrate() for _ in range(SETUP_CAL_CALLS))

    suites = []
    samples = [calibrate()]
    paused = 0.0  # seconds spent in the sampling handler

    def sample(signum, frame):
        nonlocal paused
        began = time.perf_counter()
        samples.append(calibrate())
        paused += time.perf_counter() - began

    if tracer:
        tracer.start()
    else:
        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    started = time.perf_counter()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = schurlie.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
        text = out.getvalue()
        suites.append(_summary(code, text))
    if tracer:
        verify_s = tracer.stop()
    else:
        signal.setitimer(signal.ITIMER_REAL, 0)
        verify_s = time.perf_counter() - started - paused
    samples.append(calibrate())

    result = {
        "ready": ready,
        "verify_s": verify_s,
        "cal_s": statistics.fmean(samples),
        "setup_cal_s": setup_cal_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "suites": suites,
    }
    if tracer:
        result["trace"] = tracer.metrics()
        result["absent"] = tracer.absent
    print(json.dumps(result))


def calibrate():
    """Seconds a fixed pure-Python loop takes now: dict updates on tuple keys,
    integer products and a sort, the kind of work schurlie does.  About 1.2 ms
    on a fast core of the host the benchmark was defined on, 2 ms on a slow
    one."""
    began = time.perf_counter()
    coeffs = {}
    for i in range(3000):
        key = ((i * 7919) % 101, i % 7)
        coeffs[key] = coeffs.get(key, 0) + i * i
    sorted(coeffs.items())
    return time.perf_counter() - began


def _summary(code, text):
    entry = {"code": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    try:
        report = json.loads(text)
        entry.update(ok=report["ok"], instances=len(report["instances"]),
                     failed=report["failed"])
    except (ValueError, KeyError, TypeError):
        entry.update(ok=False, instances=0, failed=0)
    return entry


if __name__ == "__main__":
    main()
