"""End-to-end benchmark of the OI-RAID simulators, one workload per call.

    python3 e2ebench/run.py --workload serve-degraded-read --seed 1 \
        --seconds 32 --trace 0

Runs the workload's ``Scenario`` through ``repro.scenario.run`` in fresh
processes (``rep.py``), one after another, for about ``--seconds``
seconds: a single closed-loop caller, ``jobs=1``, no worker pool. The
first repetition also runs the output checks. Prints every metric by name with
its unit, the simulated statistics, the checks, and as the last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``, which alternates traced and untraced repetitions).

End-to-end times are host times rescaled to a reference host speed:
each repetition also times a fixed calibration loop (``rep.calibrate``),
and its times are multiplied by ``REFERENCE_CALIBRATION_S`` over that
loop's time.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload -> (name of its rate in the printed table, what one unit is).
WORKLOADS = {
    "serve-degraded-read": ("requests_per_s", "requests"),
    "serve-online-rebuild": ("requests_per_s", "requests"),
    "fleet-lifecycle": ("missions_per_s", "array-missions"),
    "reliability-mc": ("trials_per_s", "trials"),
}

END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mib": "MiB"}

PER_LAYER_UNITS = {
    "import.s": "s",
    "layout.build_s": "s",
    "tables.s": "s",
    "plan.calls": "count",
    "plan.s": "s",
    "plan.ms_per_call": "ms",
    "oracle.calls": "count",
    "oracle.s": "s",
    "sample.s": "s",
    "screen.s": "s",
    "sweep.s": "s",
    "replay.s": "s",
    "replay.count": "count",
    "replay.frac": "ratio",
    "merge.s": "s",
    "summarize.s": "s",
    "sim.device_ops": "count",
    "host_us_per_device_op": "us",
    "sim.failure_events": "count",
    "host_us_per_failure_event": "us",
    "uncovered.frac": "ratio",
    "trace.overhead": "ratio",
    "calibration.s": "s",
}

#: Exact per-repetition counts that must repeat at a fixed seed.
EXACT_COUNTS = (
    "plan.calls", "oracle.calls", "replay.count", "sim.device_ops",
    "sim.failure_events",
)

#: Workload -> layers (profiler phases) that must record calls in a traced
#: rep. A wrapper that stops reaching its layer would otherwise report 0
#: calls and 0 s, which reads as a speed-up.
HOOKED_LAYERS = {
    "serve-degraded-read": ("layout.build", "tables", "plan"),
    "serve-online-rebuild": ("layout.build", "tables", "plan"),
    "fleet-lifecycle": ("layout.build", "tables", "plan"),
    "reliability-mc": ("layout.build", "oracle"),
}

#: Summary fields printed as simulated statistics, when the kind has them.
SIMULATED_STATS = (
    "p50_ms", "p99_ms", "rebuild_seconds", "degraded_fraction", "prob_loss",
    "replays", "losses",
)

#: Host seconds of the calibration loop (``rep.calibrate``) on the host
#: the benchmark was tuned on, a 2-vCPU Xeon VM at 2.0 GHz. A repetition's
#: host times are multiplied by this over the loop's time in that
#: repetition. The loop runs no ``repro`` code, so a change to the program
#: moves the rescaled times as much as the raw ones, while a host that is
#: slower for a while (another tenant's load) slows the loop too.
REFERENCE_CALIBRATION_S = 0.4

MIN_REPS = 3
#: Stop starting repetitions after this many seconds, so the whole call
#: ends well inside three minutes even on a slow host.
HARD_LIMIT_S = 150.0


def child_env():
    """Environment of a repetition: the checkout's sources, one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(args, traced, check, deadline, scale=1.0):
    """One repetition in a fresh process; its JSON document or an error.

    *scale* below 1 shrinks the workload; only the self-test uses it.
    """
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", repr(scale),
    ]
    if traced:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    timeout = max(5.0, deadline - time.perf_counter())
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes,
    # so the rep's setup_s starts here and includes interpreter start-up.
    cmd += ["--t0", repr(time.perf_counter())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"repetition timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"
    sys.stderr.write(proc.stderr)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "repetition printed no result"


def layer_metrics(doc):
    """Per-layer numbers of one traced repetition."""
    phases = doc["phases"]
    counters = doc["counters"]

    def calls(name):
        return phases.get(name, [0, 0.0])[0]

    def seconds(*names):
        return sum(phases.get(name, [0, 0.0])[1] for name in names)

    replays = (
        counters.get("fleet.replays", 0)
        + counters.get("mc.replays", 0)
        + calls("serve")
    )
    walks = (
        counters.get("serve.trials", 0)
        + counters.get("fleet.missions", 0)
        + counters.get("mc.trials", 0)
    )
    covered = doc["import_s"] + seconds(*phases)
    return {
        "import.s": doc["import_s"],
        "layout.build_s": seconds("layout.build"),
        "tables.s": seconds("tables"),
        "plan.calls": calls("plan"),
        "plan.s": seconds("plan"),
        "plan.ms_per_call": (
            1e3 * seconds("plan") / calls("plan") if calls("plan") else 0.0
        ),
        "oracle.calls": calls("oracle"),
        "oracle.s": seconds("oracle"),
        "sample.s": seconds("sample"),
        "screen.s": seconds("screen"),
        "sweep.s": seconds("sweep"),
        "replay.s": seconds("replay", "serve"),
        "replay.count": replays,
        "replay.frac": replays / walks if walks else 0.0,
        "merge.s": seconds("merge"),
        "summarize.s": seconds("summarize"),
        "sim.device_ops": doc["counts"]["sim.device_ops"],
        "sim.failure_events": doc["counts"]["sim.failure_events"],
        "uncovered.frac": 1.0 - covered / doc["wall_s"],
    }


def median_of(docs, key):
    return statistics.median(key(doc) for doc in docs)


def timed_s(doc):
    """Host seconds of ``run(scenario)`` plus ``result.summary()``."""
    return doc["run_s"] + doc["summary_s"]


def to_reference(doc, seconds):
    """*seconds* of host time in *doc*'s rep, rescaled to the reference host."""
    return seconds * REFERENCE_CALIBRATION_S / doc["calibration_s"]


def summarize(args, plain, traced, checks, failed_reps):
    """Metrics, checks and the result document of one benchmark call."""
    first = plain[0]
    checks.append((
        f"{len(plain)} untraced reps repeat the summary and exact counts",
        all(
            d["summary"] == first["summary"] and d["counts"] == first["counts"]
            for d in plain
        ),
        "same seed, same inputs",
    ))
    end_to_end = {
        "setup_s": median_of(plain, lambda d: to_reference(d, d["setup_s"])),
        "work_per_s": median_of(
            plain, lambda d: d["units"] / to_reference(d, timed_s(d))
        ),
        "peak_rss_mib": median_of(plain, lambda d: d["peak_rss_mib"]),
    }
    layers = {}
    if traced:
        checks.append((
            f"{len(traced)} traced reps reproduce the untraced digest",
            all(d["digest"] == first["digest"] for d in traced),
            ", ".join(sorted({d["digest"] for d in traced})),
        ))
        per_rep = [layer_metrics(d) for d in traced]
        checks.append((
            "traced reps repeat the exact counts",
            all(
                all(m[k] == per_rep[0][k] for k in EXACT_COUNTS)
                for m in per_rep
            ),
            ", ".join(f"{k}={per_rep[0][k]}" for k in EXACT_COUNTS),
        ))
        for layer in HOOKED_LAYERS[args.workload]:
            checks.append((
                f"traced reps record calls into {layer}",
                all(d["phases"].get(layer, [0])[0] > 0 for d in traced),
                "a wrapper that misses its layer would read as a speed-up",
            ))
        for name in per_rep[0]:
            layers[name] = statistics.median(m[name] for m in per_rep)
        # Per-op times use the untraced reps, free of the wrappers' cost;
        # the counts repeat across reps, so the first rep's are exact.
        untraced_s = median_of(plain, timed_s)
        for metric, count in (
            ("host_us_per_device_op", first["counts"]["sim.device_ops"]),
            ("host_us_per_failure_event", first["counts"]["sim.failure_events"]),
        ):
            layers[metric] = 1e6 * untraced_s / count if count else 0.0
        layers["trace.overhead"] = median_of(
            traced, lambda d: to_reference(d, timed_s(d))
        ) / median_of(plain, lambda d: to_reference(d, timed_s(d)))
        layers["calibration.s"] = median_of(traced, lambda d: d["calibration_s"])
    failed = failed_reps + sum(1 for _, ok, _ in checks if not ok)
    attempted = len(plain) + len(traced) + failed_reps + len(checks)
    if args.trace:
        metrics = {
            name: {"value": layers[name], "unit": PER_LAYER_UNITS[name]}
            for name in PER_LAYER_UNITS
        }
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": END_TO_END_UNITS[name]}
            for name in END_TO_END_UNITS
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return end_to_end, layers, result


def print_report(args, plain, traced, checks, end_to_end, layers, result):
    rate_name, unit = WORKLOADS[args.workload]
    first = plain[0]
    print(
        f"e2ebench {args.workload} seed={args.seed}: "
        f"{len(plain)} untraced + {len(traced)} traced reps, each a fresh "
        f"process with jobs=1"
    )
    print(
        f"end-to-end (host time rescaled to the reference host, median of "
        f"{len(plain)} untraced reps):"
    )
    print(f"  {'setup_s':28s} {end_to_end['setup_s']:12.4f} s")
    print(
        f"  {rate_name:28s} {end_to_end['work_per_s']:12.1f} {unit}/s"
        "   (reported as work_per_s)"
    )
    print(f"  {'peak_rss_mib':28s} {end_to_end['peak_rss_mib']:12.1f} MiB")
    failed_frac = result["failed"] / result["attempted"]
    print(
        f"  {'failed_frac':28s} {failed_frac:12.4f} ratio"
        f"   ({result['failed']} of {result['attempted']} operations)"
    )
    print("unscaled host time (median of the same reps):")
    print(f"  {'setup_s':28s} {median_of(plain, lambda d: d['setup_s']):12.4f} s")
    print(
        f"  {rate_name:28s} "
        f"{median_of(plain, lambda d: d['units'] / timed_s(d)):12.1f} {unit}/s"
    )
    for label, key in (
        ("run+summary", timed_s), ("calibration loop", lambda d: d["calibration_s"]),
    ):
        spread = sorted(key(d) for d in plain)
        print(
            f"  {label} per rep: min {spread[0]:.3f} s, median "
            f"{statistics.median(spread):.3f} s, max {spread[-1]:.3f} s"
        )
    print(
        "simulated statistics (model output in simulated time; the model is "
        "not validated against hardware, see e2ebench/README.md):"
    )
    for name in SIMULATED_STATS:
        if name in first["summary"]:
            print(f"  {name:28s} {first['summary'][name]!r}")
    print(f"  {'result_digest':28s} {first['digest']}")
    if traced:
        print(f"per-layer (median of {len(traced)} traced reps):")
        for name, unit_name in PER_LAYER_UNITS.items():
            print(f"  {name:28s} {layers[name]:14.6g} {unit_name}")
    print("checks:")
    for name, ok, detail in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}  ({detail})")


def write_spans(args, traced):
    """Write the traced reps' spans, kept in memory until now."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.spans.json"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "reps": [d["spans"] for d in traced],
    }
    path.write_text(json.dumps(doc))
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _terminate(signum, _frame):
    # Raising inside subprocess.run makes it kill and reap the running rep.
    sys.exit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    plain, traced, checks = [], [], []
    failed_reps = 0

    def rep(traced_rep, check=False):
        nonlocal failed_reps
        doc, error = run_rep(args, traced_rep, check, deadline)
        if doc is None:
            failed_reps += 1
            print(f"e2ebench: repetition failed: {error}", file=sys.stderr)
            return False
        (traced if traced_rep else plain).append(doc)
        checks.extend(tuple(c) for c in doc.get("checks", ()))
        return True

    if not rep(False, check=True):
        return 1
    # The call lasts about --seconds, the checked first rep included: start
    # another rep while at least half of one of its kind (median wall so
    # far) fits, so calls end on average near --seconds.
    walls = {False: [], True: []}
    while True:
        next_traced = bool(args.trace) and len(traced) < len(plain)
        done = traced if next_traced else plain
        kind = walls[next_traced]
        expected = statistics.median(kind) if kind else 0.0
        now = time.perf_counter()
        if now + expected > deadline or (
            len(done) >= MIN_REPS and now + expected / 2 > start + args.seconds
        ):
            break
        ok = rep(next_traced)
        walls[next_traced].append(time.perf_counter() - now)
        if not ok:
            break
    if args.trace and not traced:
        return 1
    end_to_end, layers, result = summarize(args, plain, traced, checks, failed_reps)
    print_report(args, plain, traced, checks, end_to_end, layers, result)
    if traced:
        print(f"spans: {write_spans(args, traced).relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
