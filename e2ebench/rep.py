"""One benchmark repetition in a fresh process; prints one JSON document.

    python3 e2ebench/rep.py --workload NAME --seed N --t0 T [--trace] [--check]

``run.py`` starts this script once per repetition, so every repetition
pays the cold costs a CLI user pays: interpreter start-up, package
import, layout construction, empty planner caches. The clock starts at
``--t0``, a ``time.perf_counter()`` reading the parent takes just before
it starts this process. ``--trace`` adds the per-layer spans and
phase profile; ``--check`` runs the output checks after the timed region
and after peak memory has been read.

After the timed region and the memory reading, every repetition times
:func:`calibrate`, a fixed loop that uses no ``repro`` code. ``run.py``
rescales the repetition's host times by it, so a host that is slower
for a while (a shared machine) shows in the calibration and not in the
metrics. The loop runs after the program so that it leaves no trace in
the program's timings or memory (it would warm numpy and the
allocator).
"""

import argparse
import contextlib
import json
import resource
import time


def calibrate():
    """Host seconds of a fixed loop of interpreter and numpy work.

    The loop uses no ``repro`` code, so no change to the program moves
    it; only the host's speed does. Like the simulators, it is mostly
    interpreter work: small dicts and lists that stay in cache, a table
    of 30,000 frozensets (about 12 MB) probed in scattered order, and a
    little numpy sorting and summing.
    """
    import numpy as np

    start = time.perf_counter()
    for r in range(8):
        table = {}
        for i in range(25_000):
            key = (i * 7919 + r) % 5003
            bucket = table.get(key)
            if bucket is None:
                table[key] = bucket = []
            bucket.append(i)
        {frozenset(bucket[:3]) for bucket in table.values()}
        sorted(table, key=lambda k: (len(table[k]), k))
    n = 30_000
    keys = [(i * 7919) % 1_000_003 for i in range(n)]
    table = {(k, k & 7): frozenset((k, k + 1, k + 2)) for k in keys}
    for r in range(2):
        for j in range(n):
            k = keys[(j * 104_729 + r) % n]
            len(table[k, k & 7] & {k + 1, k + 5})
    for r in range(6):
        values = np.random.default_rng(r).random(300_000)
        values.sort()
        np.cumsum(values * 1.0001)
    return time.perf_counter() - start


def _untraced(_name):
    return contextlib.nullcontext()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    import specs
    from repro.scenario import run

    doc = {"import_s": time.perf_counter() - t_import}
    span = phase = _untraced
    with contextlib.ExitStack() as stack:
        if args.trace:
            from repro.obs import PhaseProfiler, use_profiler
            from tracing import LayerTracer

            profiler = stack.enter_context(use_profiler(PhaseProfiler()))
            tracer = stack.enter_context(LayerTracer())
            span, phase = tracer.span, tracer.phase
        scenario = specs.build_scenario(args.workload, args.seed, args.scale)
        t_setup = time.perf_counter()
        with span("run"):
            result = run(scenario)
        t_run = time.perf_counter()
        with phase("summarize"):
            doc["summary"] = result.summary()
        t_end = time.perf_counter()

    doc.update(
        setup_s=t_setup - args.t0,
        run_s=t_run - t_setup,
        summary_s=t_end - t_run,
        wall_s=t_end - args.t0,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        units=specs.work_units(scenario, result),
        counts=specs.exact_counts(scenario, result),
    )
    doc["calibration_s"] = calibrate()
    if args.check or args.trace:
        # Hashing the canonical JSON of a million latencies takes longer
        # than the run, so only the reps that are compared pay for it.
        doc["digest"] = specs.digest(result)
    if args.trace:
        doc["phases"] = {
            name: [int(calls), seconds]
            for name, (calls, seconds) in sorted(profiler.phases.items())
        }
        doc["counters"] = dict(sorted(profiler.counters.items()))
        doc["spans"] = tracer.spans
    if args.check:
        doc["checks"] = specs.check_result(scenario, result)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
