"""Cold-process benchmark of the segrecone verification engine.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 15 --trace 0

Every measured unit is a fresh single-threaded Python process (``child.py``)
that imports the engine from ``src/`` and runs one workload, so every
``lru_cache`` starts cold, as it does for a user of the ``segrecone`` CLI.
Processes run one at a time.  A run spawns workload processes back to back
until ``--seconds`` have passed, each in its own call order drawn from
``--seed``, between two groups of processes that only import the engine.
At 15 seconds that is one ``verify-all`` process (about a minute) and two
of the others (about ten seconds each).  It reports medians over
those processes:

* ``wall_norm_s`` and ``cpu_norm_s``: spawn-to-exit wall time and user plus
  system CPU time of the process (from ``os.wait4``), less the host-speed
  probes of ``child.py``, scaled to the host speed at which one probe takes
  ``PROBE_REF_S`` (of wall time for ``wall_norm_s``, of CPU time for
  ``cpu_norm_s``).  On a host whose speed drifts this is what stays
  comparable from run to run; the raw times are in the report line;
* ``peak_rss_mb``: the process's ``ru_maxrss``;
* ``setup_s``: spawn until the engine is imported (``SETUP_RUNS``
  import-only processes and the workload processes together), not scaled.
  Child processes may write byte code, and an unmeasured import-only
  process writes it first, so that set-up imports cached byte code, as an
  installed CLI does, whether or not the caller sets
  ``PYTHONDONTWRITEBYTECODE``.

Every record a workload produces is compared with the frozen one in
``reference/<workload>.json``; a record that differs, or whose verdict is
not PASS, counts as failed.  With ``--trace 1`` the run ends with one more
workload process that has the wrappers of ``layertrace.py`` installed and
runs its calls in a fixed order, so that per-call times do not depend on
the seed.  It reports that process's per-layer metrics plus
``trace.overhead_s``, its ``wall_norm_s`` minus the untraced median, both
scaled by their own probes to the same host speed.  A target of the tracer
that the engine no longer has stops the run with an error.

Each workload prints a report line (host, raw ``wall_s`` and ``cpu_s``,
samples, ``fail_ratio``) and then its result line; ``--workload all`` runs
the three in turn.
"""

import argparse
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import per_layer_value

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify-all", "forms-tower", "cech-audit")
SETUP_RUNS = 12
PROBE_REF_S = 0.0075  # probe duration that defines the reference host speed
CHILD_TIMEOUT_S = 170.0


def host_record() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model, "loadavg": list(os.getloadavg())}


def _read_until_eof(proc, deadline: float) -> str:
    fd = proc.stdout.fileno()
    chunks = []
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise TimeoutError(
                f"workload process ran past {CHILD_TIMEOUT_S} s")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            proc.stdout.close()
            return b"".join(chunks).decode()
        chunks.append(chunk)


def spawn(workload: str, order_seed: int | None,
          trace: bool = False) -> dict:
    """Run one child process to completion and measure it; with
    ``order_seed`` None its calls run in a fixed order."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # see setup_s in the docstring
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), workload,
         "fixed" if order_seed is None else str(order_seed),
         str(int(trace))], stdout=subprocess.PIPE, env=env, cwd=ROOT)
    out = _read_until_eof(proc, start + CHILD_TIMEOUT_S)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} process exited {proc.returncode}")
    result = json.loads(out.splitlines()[-1])
    if not Path(result["engine"]).is_relative_to(ROOT / "src"):
        raise RuntimeError(f"engine imported from {result['engine']}")
    return dict(result, wall_s=wall, setup_s=result["ready"] - start,
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024)


def normalised(sample: dict, key: str) -> float:
    """Seconds of ``key`` less the probes, at the reference host speed.
    CPU time is scaled by the probes' CPU time, wall time by their wall
    time, so that time the host gives to other processes counts only in
    wall time."""
    probe = sample["probe_cpu_s" if key == "cpu_s" else "probe_s"]
    return (sample[key] - probe) * PROBE_REF_S * sample["probe_n"] / probe


def reference_path(workload: str) -> Path:
    return BENCH / "reference" / f"{workload}.json"


def failures(records: dict, reference: dict) -> list:
    """Names whose record is missing, differs or does not PASS."""
    return sorted(name for name in reference
                  if records.get(name) != reference[name]
                  or reference[name].get("verdict") != "PASS")


def run(workload: str, seed: int, seconds: int, trace: bool):
    host = host_record()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    reference = json.loads(reference_path(workload).read_text())
    orders = random.Random(seed)
    spawn("setup", 0)  # warms the byte-code and page caches; not measured
    # Half the set-up runs before the workload and half after, so that
    # set-up time samples the host's load over the whole run.
    setups = [spawn("setup", 0) for _ in range(SETUP_RUNS // 2)]
    samples = []
    start = time.monotonic()
    while not samples or time.monotonic() - start < seconds:
        samples.append(spawn(workload, orders.randrange(1 << 30)))
    setups += [spawn("setup", 0) for _ in range(SETUP_RUNS // 2)]
    traced = spawn(workload, None, True) if trace else None

    checked = samples + ([traced] if traced else [])
    failed = [failures(s["records"], reference) for s in checked]
    attempted = len(reference) * len(checked)
    n_failed = sum(map(len, failed))

    def median(key, pool=samples):
        return statistics.median(s[key] for s in pool)

    if trace:
        metrics = {name: per_layer_value(name, traced["trace"])
                   for name in units}
        metrics["trace.overhead_s"] = normalised(
            traced, "wall_s") - statistics.median(
                normalised(s, "wall_s") for s in samples)
    else:
        metrics = {
            "wall_norm_s": statistics.median(normalised(s, "wall_s")
                                             for s in samples),
            "cpu_norm_s": statistics.median(normalised(s, "cpu_s")
                                            for s in samples),
            "peak_rss_mb": median("peak_rss_mb"),
            "setup_s": median("setup_s", setups + samples)}
    report = {
        "workload": workload, "seed": seed, "host": host,
        "wall_s": {"value": median("wall_s"), "unit": "s"},
        "cpu_s": {"value": median("cpu_s"), "unit": "s"},
        "fail_ratio": {"value": n_failed / attempted, "unit": "ratio"},
        "failed_records": sorted({n for f in failed for n in f}),
        "samples": [{k: s[k] for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                       "setup_s", "probe_s", "probe_cpu_s",
                                       "probe_n", "order")}
                    for s in checked],
        "setup_runs_s": [p["setup_s"] for p in setups],
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "segrecone" / "__init__.py").is_file():
        print(f"error: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run(workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
