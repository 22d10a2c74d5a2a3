"""One cold workload process of the benchmark; ``run.py`` spawns it.

    python3 bench/child.py WORKLOAD ORDER_SEED|fixed TRACE

Imports the engine, notes the moment it is ready, runs the workload's calls
in an order shuffled by ORDER_SEED (or, with ``fixed``, in the listed
order, which for ``verify-all`` is that of ``segrecone verify all``) and
prints one JSON line: that moment, the order, one record per call, the
host-speed probes and, with TRACE=1, the per-layer metrics.  WORKLOAD
``setup`` only imports the engine.

Host-speed probes: on a shared virtual machine the speed one process gets
can change by a third within seconds and drift over minutes.  Every
``PROBE_PERIOD_S`` of wall time a timer signal interrupts the workload to
run :func:`probe_work`, a fixed piece of pure-Python work like the
engine's, with the garbage collector off so that collections of the
engine's heap are not charged to the probe.  The mean probe duration, in
wall and in CPU time, is the host's speed during exactly the interval the
workload ran, which ``run.py`` divides out.  A traced process probes the
same way, so that its wall time is comparable with an untraced one; the
tracer leaves probe time out of the per-layer times.
"""

import contextlib
import gc
import io
import json
import random
import signal
import sys
import time
from fractions import Fraction

import segrecone.cli
from segrecone import kaehler, ktheory
from segrecone.report import CHECK_IDS, jsonable

READY = time.monotonic()

from layertrace import Tracer  # noqa: E402  (not part of set-up)

PROBE_PERIOD_S = 0.25
DEFAULTS = ["--nmax", "5", "--window", "3", "--box-pad", "4", "--jobs", "1"]
FORMS_LEVEL = 8


def verify(check, coh_range="-6..6"):
    """A `segrecone verify CHECK` record through the CLI, minus `elapsed`."""
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = segrecone.cli.main(["verify", check, *DEFAULTS,
                                       "--range", coh_range])
        report = out.getvalue()  # empty after a usage or engine error
        record = (json.loads(report)["checks"][0] if report
                  else {"verdict": "NO REPORT"})
        record.pop("elapsed", None)
        record["exit_code"] = code
        return record
    return check, call


def api(module, name):
    """A record of an API call returning a Verdict (or (system, Verdict)).
    The function is looked up at call time, so a traced run sees the
    wrapper."""
    def call():
        result = getattr(module, name)(FORMS_LEVEL)
        system, verdict = result if isinstance(result, tuple) else (None,
                                                                    result)
        record = {"verdict": "PASS" if verdict.ok else "FAIL",
                  "details": verdict.details, "witness": verdict.witness}
        if system is not None:
            record["dims"] = system.dims()
        return json.loads(json.dumps(jsonable(record)))
    return f"{name}({FORMS_LEVEL})", call


def probe_work() -> dict:
    """Fixed work: Fraction updates in a small sparse dict (a few ms)."""
    acc = {}
    for i in range(1, 1200):
        c = Fraction(i % 11 - 5, i % 7 + 1)
        k = (i * 37) % 53
        v = acc.get(k, 0) + c * c
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return acc


def _probe(probes, cpu, paused):
    def on_timer(signum, frame):
        gc.disable()
        start, start_cpu = time.perf_counter(), time.process_time()
        probe_work()
        took = time.perf_counter() - start
        cpu.append(time.process_time() - start_cpu)
        gc.enable()
        probes.append(took)
        paused[0] += took
    return on_timer


WORKLOADS = {
    "verify-all": [verify(c) for c in CHECK_IDS],
    "forms-tower": [api(ktheory, "compute_K4"),
                    api(ktheory, "verify_K5plus_inputs"),
                    api(kaehler, "omega4_cone_check")],
    "cech-audit": [verify("coh-main", "-8..8"), verify("vanish-omega"),
                   verify("euler")],
    "setup": [],
}


def main(workload: str, order_seed: int | None, trace: bool) -> None:
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    calls = list(WORKLOADS[workload])
    if order_seed is not None:
        random.Random(order_seed).shuffle(calls)
    probes, probes_cpu = [], []
    signal.signal(signal.SIGALRM, _probe(probes, probes_cpu,
                                         tracer.paused if tracer else [0.0]))
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    records = {name: call() for name, call in calls}
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({
        "ready": READY,
        "probe_s": sum(probes),
        "probe_n": len(probes),
        "probe_cpu_s": sum(probes_cpu),
        "engine": segrecone.__file__,
        "order": [name for name, _ in calls],
        "records": records,
        "trace": tracer.snapshot() if tracer else None,
    }, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1], None if sys.argv[2] == "fixed" else int(sys.argv[2]),
         sys.argv[3] == "1")
