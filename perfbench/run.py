#!/usr/bin/env python3
"""Benchmark of the unicom pipeline on fixed, seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload pseudolabel-retrieval --seed 1 \
        --seconds 30 --trace 0

Each workload is one batch job in one process: a closed loop with a single
client, where every stage waits for the one before it. The run sets up
several times (input generation, UCEB files, warm-up) and reports the
median, then repeats the timed pipeline pass until `--seconds` have passed
(at least three times, so there is a median and the same-seed outputs
can be compared). Every pass is
checked; a pass that raises, or whose outputs fail a check or differ from
the first pass, counts as failed.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics of the traced ones,
plus the tracing overhead. `--workload all` runs every workload, each in
its own process, one after the other.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it record
the environment and list every metric with its unit and sample count.
"""

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import layers
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# The library runs with threads=1 by default; one BLAS thread keeps the
# whole process on one core, so runs on a shared two-core machine stay
# comparable and results stay bitwise stable.
BLAS_THREADS = 1
SETUP_REPEATS = 5
MIN_PASSES = 3

# The host's speed drifts by up to about 30% over minutes: in one ten-run
# set the same ablation-small pass took 5.4 s in some runs and 8.2 s in
# others, and every workload moved with it. End-to-end times are therefore
# reported at a reference speed: wall seconds × CALIBRATION_REF_S / the
# median time of a fixed calibration loop that touches no unicom code and
# runs between the passes of the same run. Over one such drift it cut the
# spread of wide-classes pass-time medians from 18% to 6%; without drift
# its own noise adds a few percent. The wall times are printed too.
CALIBRATION_REF_S = 0.085
CALIBRATION_LEAD = 4  # chunks before the first pass; one more precedes each pass

END_TO_END = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
    ("recall_at_1", "ratio"),
    ("recall_at_1_trunc", "ratio"),
    ("map_at_100", "ratio"),
]
WORKLOAD_NAMES = ("pseudolabel-retrieval", "wide-classes", "ablation-small")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import unicom from this checkout's `src`, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import unicom
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import unicom from {SRC}: {exc}")
    if Path(unicom.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: unicom was imported from {unicom.__file__}, not {SRC}")


def blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def calibration_chunk(np) -> float:
    """Seconds taken by a fixed mix of pure-Python and in-place NumPy work.

    Nothing is allocated while it is timed, so the allocator state that the
    passes leave behind cannot change its speed.
    """
    a = np.random.default_rng(0).standard_normal((256, 64))
    product = np.empty((256, 256))
    start = time.perf_counter()
    total = 0.0
    for i in range(200_000):
        total += i * i % 7
    for _ in range(200):
        np.matmul(a, a.T, out=product)
        product.sort(axis=1)
        total += product[0, 0]
    return time.perf_counter() - start


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def one_pass(workload, recorder, index):
    """Run and check one pass; returns its record."""
    record = {"traced": recorder is not None, "failures": []}
    try:
        if recorder is None:
            start = time.perf_counter()
            raw = workload.run_pass()
            record["seconds"] = time.perf_counter() - start
        else:
            recorder.spans.clear()
            recorder.run_id = index
            with recorder.install(layers.TARGETS), recorder.span("pipeline") as root:
                raw = workload.run_pass()
            record["seconds"] = root.seconds
            record["layers"] = layers.summarize(recorder.spans, spans.self_times(recorder.spans))
            recorder.spans.clear()
        out = workload.outputs(raw)
    except Exception as exc:  # every failure of a pass is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        record["failures"].append(f"{type(exc).__name__}: {exc}")
        return record
    record["failures"] += out.problems()
    record["digest"] = out.digest()
    record["quality"] = out.quality
    return record


def run_workload(args) -> dict:
    import_library()
    import numpy as np

    from workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)

        recorder = spans.Recorder() if args.trace else None
        records = []
        calibration = [calibration_chunk(np) for _ in range(CALIBRATION_LEAD)]
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(records) % 2 == 1
            calibration.append(calibration_chunk(np))
            records.append(one_pass(workload, recorder if traced else None, len(records)))
            n_traced = sum(r["traced"] for r in records)
            n_plain = len(records) - n_traced
            enough = n_plain >= 1 and n_traced >= 1 if args.trace else n_plain >= MIN_PASSES
            if enough and time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    # Same seed, same inputs: every pass, traced or not, must give the
    # same outputs as the first one that completed.
    reference = next((r["digest"] for r in records if "digest" in r), None)
    for i, r in enumerate(records):
        if "digest" in r and r["digest"] != reference:
            r["failures"].append(f"output digest of pass {i} differs from the first pass")
    for i, r in enumerate(records):
        for failure in r["failures"]:
            print(f"pass {i} failed: {failure}", file=sys.stderr)

    good = [r for r in records if not r["failures"]]
    plain = [r["seconds"] for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    quality = good[0]["quality"] if good else {}

    if args.trace:
        values = {
            name: _median([r["layers"][name] for r in traced])
            for name in layers.summarize([], [])
        }
        values["trace.pipeline_s"] = _median([r["seconds"] for r in traced])
        values["trace.overhead_s"] = values["trace.pipeline_s"] - _median(plain)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        counts = {name: len(traced) for name in values}
    else:
        speed = CALIBRATION_REF_S / statistics.median(calibration)
        values = {
            "setup_s": (import_s + statistics.median(setups)) * speed,
            "pipeline_s": _median(plain) * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **{q: quality.get(q, 0.0) for q in ("recall_at_1", "recall_at_1_trunc", "map_at_100")},
        }
        units = dict(END_TO_END)
        counts = {name: 1 for name in values} | {"setup_s": len(setups), "pipeline_s": len(plain)}

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(np),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "import_s": import_s,
        "setup_runs_s": setups,
        "passes_s": [r.get("seconds") for r in records],
        "traced": [r["traced"] for r in records],
        "calibration_s": calibration,
        "calibration_ref_s": CALIBRATION_REF_S,
        "setup_wall_s": import_s + statistics.median(setups),
        "pipeline_wall_s": _median(plain),
    }
    print("env " + json.dumps(env, default=list))
    failed = sum(bool(r["failures"]) for r in records)
    for name, value in values.items():
        print(f"{args.workload:22s} {name:32s} {value:14.6g} {units[name]:8s} n={counts[name]}")
    print(
        f"{args.workload:22s} {'error_rate':32s} {failed / len(records):14.6g} "
        f"{'ratio':8s} n={len(records)} ({failed} of {len(records)} passes failed)"
    )
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, so no peak memory carries over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
