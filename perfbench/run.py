"""Receiver benchmark: frame throughput, latency, set-up, memory and accuracy.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {mc30,clutter,track} --seed 42 \
        --seconds 30 --trace 0

Each workload is a closed loop with one caller on one core: the next frame
starts when the previous one returns (workloads.py says what a frame is).
A run warms up, then times frames for ``--seconds`` and at least
``--min-frames`` frames, checks the outputs, and prints two JSON lines on
stdout: a ``report`` with every metric by name and unit, the output digest,
the checks and the provenance of the run, and last the result line
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` gives the end-to-end metrics, with every time scaled to
reference speed against two loops timed between frames (speed.py).
``--trace 1`` runs every frame twice, untraced and through the traced
mirror of the same call, fails the run unless both return the same outputs,
and gives the per-layer metrics;
its spans are written to ``.perfbench/``.  End-to-end numbers never come
from a traced run.

Exit codes: 0 result printed, 1 the program under test is missing,
2 usage error.
"""

import os

# One core: pin the BLAS / OpenMP pools before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
os.environ.update({var: "1" for var in THREAD_VARS})
# ...and the process, with the set-up probes it starts, to one CPU, so that
# the speed loops (speed.py) run on the core whose speed they scale.
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MIN_FRAMES = 110  # p90 then has at least 10 frames beyond it
ACCURACY_FRAMES = 100  # the first frames of a run: RMSE, miss rate and digest
WARMUP_FRAMES = 3
SETUP_PROBES = 7  # setup_s is their median
SETUP_SPEED_SAMPLES = 8  # speed samples before and after each probe
HELD_OUT_SEED = 7919  # never used while tuning; later claims are checked on it

END_TO_END = (
    ("frames_per_s", "1/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
ACCURACY = (
    ("rmse_delay.sinc2d", "cells"),
    ("rmse_doppler.sinc2d", "cells"),
    ("rmse_delay.quadratic", "cells"),
    ("rmse_doppler.quadratic", "cells"),
    ("miss_rate", "ratio"),
    ("failed_frac", "ratio"),
)
# The layer predicted to take the largest share of frame time on each workload.
LARGEST_LAYER = {
    "mc30": "ambiguity.surface",
    "clutter": "estimator.detect",
    "track": "estimator.refine_sinc2d",
}


def import_program():
    """Put the checkout's ``src`` first on the path; exit 1 when it is absent."""
    if not (SRC / "ddradar" / "__init__.py").is_file():
        print(f"perfbench: no ddradar sources under {SRC}", file=sys.stderr)
        sys.exit(1)
    sys.path.insert(0, str(SRC))
    import ddradar

    if Path(ddradar.__file__).resolve().parent != (SRC / "ddradar").resolve():
        print(f"perfbench: imported ddradar from {ddradar.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(1)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("mc30", "clutter", "track"))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-frames", type=int, default=MIN_FRAMES)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 0 or args.min_frames < 1:
        ap.error("--seconds must be >= 0 and --min-frames >= 1")
    return args


def setup_probe(args) -> None:
    """Child side of ``setup_s``: import, build the replica, run one frame."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed, frames=1)
    workload.run(0)
    print("ready", flush=True)


def measure_setup(args, speed) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its first frame done, as
    measured and at reference speed.  The speed loops are sampled just
    before and just after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    speed.sample(SETUP_SPEED_SAMPLES)
    start = perf_counter_ns()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter_ns() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode} without finishing a frame")
    speed.sample(SETUP_SPEED_SAMPLES)
    scale = speed.scale([start + elapsed // 2])[0]
    return elapsed / 1e9, elapsed / 1e9 * scale


def timed_loop(fn, on_result, seconds: float, min_frames: int, between=None):
    """Closed loop over frames 0, 1, ...: at least ``min_frames`` of them and
    until ``seconds`` have passed.  ``on_result(i, result)`` receives each
    result, an exception for a frame that raised, and ``between()`` runs after
    it; both are outside the timed region.  Returns each frame's start and
    duration in nanoseconds."""
    starts, frame_ns = [], []
    deadline = perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while i < min_frames or perf_counter_ns() < deadline:
        t0 = perf_counter_ns()
        try:
            result = fn(i)
        except Exception as exc:  # a failed frame is counted, not fatal
            result = exc
        frame_ns.append(perf_counter_ns() - t0)
        starts.append(t0)
        on_result(i, result)
        if between is not None:
            between()
        i += 1
    return starts, frame_ns


def accuracy(workload, results) -> dict:
    """RMSE per method and miss rate over the given frames, in cells."""
    errs = {m: [] for m in workload.methods}
    misses = []
    for i, result in enumerate(results):
        if isinstance(result, Exception):
            continue
        per_method = workload.errors(i, result)
        for m, (err_d, err_f, miss) in per_method.items():
            if err_d is not None:
                errs[m].append((err_d, err_f))
        misses.append(next(iter(per_method.values()))[2])
    out = {}
    for m, pairs in errs.items():
        e = np.array(pairs, dtype=float).reshape(-1, 2)
        rmse = np.sqrt(np.mean(e**2, axis=0)) if len(e) else (float("nan"),) * 2
        out[f"rmse_delay.{m}"], out[f"rmse_doppler.{m}"] = float(rmse[0]), float(rmse[1])
    out["miss_rate"] = float(np.mean(misses)) if misses else float("nan")
    return out


def _git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "ddradar").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": CPU,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "held_out_seed": HELD_OUT_SEED,
    }


def end_to_end(args, workload):
    """The untraced run: report metrics, result metrics, attempted, failed,
    checks and extra report fields.

    Every time is scaled to reference speed (speed.py): the frame times by
    the speed loops sampled between frames, each set-up probe by samples
    taken just around it.  The raw wall times stay in the report.
    """
    from speed import SpeedProbe
    from workloads import frame_invalid, output_digest

    workload.prepare(args.seed)
    for i in range(WARMUP_FRAMES):
        workload.run(i)
    speed = SpeedProbe()
    measure_setup(args, speed)  # fills the file cache; not counted
    setup_raw, setup = zip(*(measure_setup(args, speed) for _ in range(SETUP_PROBES)))
    results = []
    starts, frame_ns = timed_loop(
        workload.run, lambda i, r: results.append(r), args.seconds, args.min_frames,
        speed.maybe_sample,
    )
    speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n = attempted = len(results)
    failed = sum(frame_invalid(workload, r) for r in results)
    raw_ms = np.array(frame_ns) / 1e6
    frame_ms = raw_ms * speed.scale(np.array(starts) + np.array(frame_ns) // 2)
    acc_results = results[:ACCURACY_FRAMES]
    acc = accuracy(workload, acc_results)
    values = {
        "frames_per_s": n / (frame_ms.sum() / 1e3),
        "frame_ms_p50": float(np.percentile(frame_ms, 50)),
        "frame_ms_p90": float(np.percentile(frame_ms, 90)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        **acc,
        "failed_frac": failed / attempted,
    }
    report = {}
    for name, unit in END_TO_END + ACCURACY:
        if name in values:
            report[name] = {"value": values[name], "unit": unit}
        else:
            report[name] = {"value": None, "unit": unit,
                            "note": f"n/a: {args.workload} does not run this method"}
    checks = workload.checks(args.seed, acc, len(acc_results))
    extra = {
        "frames": n,
        "frames_beyond_p90": int(np.sum(frame_ms > values["frame_ms_p90"])),
        "raw": {
            "frames_per_s": n / (raw_ms.sum() / 1e3),
            "frame_ms_p50": float(np.percentile(raw_ms, 50)),
            "frame_ms_p90": float(np.percentile(raw_ms, 90)),
            "setup_s": statistics.median(setup_raw),
            "setup_probes_s": setup_raw,
        },
        "speed_loops_ms": speed.medians_ms(),
        "output_digest": output_digest(workload, acc_results),
        "digest_frames": len(acc_results),
    }
    if args.workload == "mc30":
        extra["k1000_sweep_s"] = 1000.0 / values["frames_per_s"]
    result = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return report, result, attempted, failed, checks, extra


def result_key(workload, result):
    if isinstance(result, Exception):
        return ("error", type(result).__name__)
    return workload.mirror_key(result)


def per_layer(args, workload):
    """The traced run; returns the same fields as ``end_to_end``."""
    from spans import COUNTERS, LAYERS, ROOTS, Tracer
    from workloads import frame_invalid, output_digest

    workload.prepare(args.seed)
    warm = Tracer()
    for i in range(WARMUP_FRAMES):
        workload.run(i)
        warm.call(workload.root, workload.traced, warm, i)

    tracer = Tracer()
    untraced_ns, results, mismatches = [], [], []

    def frame(i):
        t0 = perf_counter_ns()
        result = workload.run(i)
        untraced_ns.append(perf_counter_ns() - t0)
        tracer.frame = i
        mirrored, surface = tracer.call(workload.root, workload.traced, tracer, i)
        tracer.count_hits(surface, workload.theta)
        if result_key(workload, result) != result_key(workload, mirrored):
            mismatches.append(i)
        return result

    timed_loop(frame, lambda i, r: results.append(r), args.seconds, args.min_frames)
    n = len(results)
    failed = sum(frame_invalid(workload, r) for r in results)
    errors = [i for i, r in enumerate(results) if isinstance(r, Exception)]
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)

    self_ns = tracer.self_ns()
    root_ns = tracer.root_ns(workload.root)
    traced_ms = float(np.mean(root_ns)) / 1e6
    untraced_ms = float(np.mean(untraced_ns)) / 1e6
    values, units = {}, {}
    for layer in LAYERS:
        values[f"{layer}.ms"] = self_ns.get(layer, 0) / n / 1e6
        units[f"{layer}.ms"] = "ms"
    for root in ROOTS:
        values[f"{root}.self_ms"] = self_ns.get(root, 0) / n / 1e6
        units[f"{root}.self_ms"] = "ms"
    values["trace.overhead_ms"] = traced_ms - untraced_ms
    units["trace.overhead_ms"] = "ms"
    for name, unit in COUNTERS:
        values[name] = tracer.counts[name] / n
        units[name] = unit
    hits = tracer.counts["estimator.detect.hits"]
    values["estimator.detect.kept_ratio"] = tracer.counts["estimator.detect.kept"] / hits if hits else 0.0
    units["estimator.detect.kept_ratio"] = "ratio"
    shares = {layer: values[f"{layer}.ms"] / traced_ms for layer in LAYERS}
    for layer in LAYERS:
        values[f"{layer}.share"] = shares[layer]
        units[f"{layer}.share"] = "ratio"

    largest = max(shares, key=shares.get)
    checks = {"mirror_matches": not mismatches and not errors}
    extra = {
        "frames": n,
        "traced_frame_ms": traced_ms,
        "untraced_frame_ms": untraced_ms,
        "mirror_mismatch_frames": mismatches[:20],
        "largest_share": {
            "predicted": LARGEST_LAYER[args.workload],
            "observed": largest,
            "holds": largest == LARGEST_LAYER[args.workload],
        },
        "output_digest": output_digest(workload, results[:ACCURACY_FRAMES]),
        "digest_frames": min(n, ACCURACY_FRAMES),
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    return metrics, metrics, n, failed, checks, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.setup_probe:
        setup_probe(args)
        return 0
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    run = per_layer if args.trace else end_to_end
    report, metrics, attempted, failed, checks, extra = run(args, workload)
    correct = failed == 0 and all(checks.values())
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "min_frames": args.min_frames,
        "metrics": report, "checks": checks, **extra, "provenance": provenance(),
    }}))
    for name, m in report.items():
        shown = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:42s} {shown:>12s} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
