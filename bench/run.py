"""txrec benchmark: zero-shot, recommend and train workloads, optionally traced.

    python3 bench/run.py                       # every workload, untraced
    python3 bench/run.py --workload train --seed 3 --seconds 25 --trace 1

Run from the repository root (the package is imported from ./src). Prints
provenance, then each metric as "name value unit", and as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}. Untraced runs
report the end-to-end metrics named in BENCHMARK.json; traced runs report
the per-layer ones. Exits 1 when any output check fails, 2 when the package
cannot be found. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One caller runs on one core; idle OpenBLAS threads would spin on the other.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
WORKLOADS = ("zero-shot", "recommend", "train")
SETUP_REPS = 3          # at least; and until SETUP_MIN_S have passed, so that
SETUP_MIN_S = 3.0       # a set-up of half a second still gets a steady median
# Share of the timed phase for the workload's own operation; the two companion
# operations split the rest by weight. Full-size training units take seconds each,
# so the train workload keeps more for itself.
MAIN_SHARE = {"zero-shot": 0.5, "recommend": 0.5, "train": 0.7}
COMPANION_WEIGHT = {"zero-shot": 1, "recommend": 1, "train": 2}
REFERENCE_SHARE = 0.05  # taken from the companions' part
# Timing samples of the timed phase are scaled to a machine of nominal speed:
# durations by speed**1, rates by speed**-1. A sample's speed is REF_NOMINAL_S over
# the median of the REF_NEIGHBOURS reference units nearest to it in time, so a drift
# within a run is corrected where it happens, raised to REF_SENSITIVITY: txrec's
# timings move less than the reference unit's when the host's speed changes (see
# README.md). setup_s runs before any reference unit and stays unscaled.
SCALED = {"index_items_per_s": -1, "eval_users_per_s": -1, "recommend_ms": 1,
          "pretrain_epoch_s": 1, "finetune_epoch_s": 1}
REF_NEIGHBOURS = 15
REF_SENSITIVITY = 0.75


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import txrec
    except ImportError as e:
        print(f"bench: cannot import txrec from {src}: {e}", file=sys.stderr)
        sys.exit(2)
    if src not in Path(txrec.__file__).resolve().parents:
        print(f"bench: txrec was imported from {txrec.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def provenance(args, sizes: dict) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "txrec").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas(),
        "git_commit": _git_commit(), "source_sha256": digest.hexdigest()[:16],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": sizes,
    }


def _metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def interleave(passes: dict, shares: dict, seconds: float) -> None:
    """Advance each operation one unit at a time, always the one furthest behind its
    share of the time, until `seconds` pass; then finish any operation's first pass.

    passes[kind]() starts a new pass (a generator yielding after each unit).
    Interleaving spreads every metric's samples over the whole run, so slow
    drifts in machine speed reach all metrics alike.
    """
    busy = dict.fromkeys(passes, 0.0)
    done = dict.fromkeys(passes, 0)
    running = {k: start() for k, start in passes.items()}
    t_end = time.perf_counter() + seconds
    while True:
        late = time.perf_counter() >= t_end
        pending = [k for k in passes if not late or not done[k]]
        if not pending:
            return
        k = min(pending, key=lambda k: busy[k] / shares[k])
        t0 = time.perf_counter()
        try:
            next(running[k])
        except StopIteration:
            done[k] += 1
            running[k] = passes[k]()
        busy[k] += time.perf_counter() - t0


def run_untraced(args, workdir: Path):
    """Set up SETUP_REPS times or more, then interleave the workload's own operation at full
    size (its MAIN_SHARE of the time) with the other two at companion size, which give
    the end-to-end metrics this workload does not own."""
    import workloads as W
    from txrec.encoder import build_window_index

    others = [k for k in WORKLOADS if k != args.workload]
    setup_s = []
    while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S:
        build_window_index.cache_clear()  # every set-up pays what a fresh process pays
        t0 = time.perf_counter()
        data = {args.workload: W.make(args.workload, "full", args.seed, workdir)}
        for kind in others:
            data[kind] = W.make(kind, "companion", args.seed, workdir)
        setup_s.append(time.perf_counter() - t0)
    results = {kind: W.new_result(kind) for kind in WORKLOADS + ("reference",)}
    weights = sum(COMPANION_WEIGHT[k] for k in others)
    main = MAIN_SHARE[args.workload]
    shares = {kind: main if kind == args.workload
              else (1 - main - REFERENCE_SHARE) * COMPANION_WEIGHT[kind] / weights
              for kind in WORKLOADS}
    shares["reference"] = REFERENCE_SHARE
    interleave({k: functools.partial(W.PASS[k], data.get(k), results[k]) for k in shares},
               shares, args.seconds)
    reference = results.pop("reference")
    problems = [p for kind, r in results.items() for p in W.CHECK[kind](data[kind], r.outputs)]
    attempted = sum(r.attempted for r in results.values())
    raw = {k: v for r in results.values() for k, v in r.metrics().items()}
    raw["setup_s"] = statistics.median(setup_s)
    speed_at = local_speed(reference)
    metrics = {k: v for r in results.values()
               for k, v in r.scaled(speed_at, SCALED).metrics().items()}
    metrics["setup_s"] = raw["setup_s"]
    speed = W.REF_NOMINAL_S / statistics.median(reference.samples["reference_s"])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ok_ratio"] = (attempted - len(problems)) / attempted
    sizes = {kind: d.sizes() for kind, d in data.items()}
    samples = {k: len(v) for r in results.values() for k, v in r.samples.items()}
    samples["reference_s"] = len(reference.samples["reference_s"])
    return metrics, attempted, problems, sizes, {
        "machine_speed": speed, "raw_metrics": raw, "setup_s_each": setup_s, "samples": samples,
        "sample_values": {k: v for r in results.values() for k, v in r.samples.items()},
        "sample_times": {k: v for r in results.values() for k, v in r.times.items()},
        "reference_s": reference.samples["reference_s"], "reference_t": reference.times["reference_s"]}


def local_speed(reference):
    """speed_at(t): REF_NOMINAL_S over the median of the REF_NEIGHBOURS reference
    units run nearest to time t, to the power REF_SENSITIVITY."""
    import numpy as np
    import workloads as W

    times = np.asarray(reference.times["reference_s"])
    values = np.asarray(reference.samples["reference_s"])

    def speed_at(t: float) -> float:
        near = np.argsort(np.abs(times - t), kind="stable")[:REF_NEIGHBOURS]
        return (W.REF_NOMINAL_S / float(np.median(values[near]))) ** REF_SENSITIVITY

    return speed_at


def run_traced(args, workdir: Path):
    """One fixed pass of the workload's operation under the tracer, so its counts
    repeat exactly; tracing overhead comes from the companion-size pass run plain
    and then traced."""
    import numpy as np
    import workloads as W
    from tracing import Tracer
    from txrec.encoder import build_window_index

    w = args.workload
    full = W.make(w, "full", args.seed, workdir)
    small = W.make(w, "companion", args.seed, workdir)

    def one_pass(data, tracer=None):
        build_window_index.cache_clear()
        result = W.new_result(w)
        t0 = time.perf_counter()
        if tracer is None:
            for _ in W.PASS[w](data, result):
                pass
        else:
            with tracer.installed():
                for _ in W.PASS[w](data, result, tracer.span):
                    pass
        return result, time.perf_counter() - t0

    plain, traced = [], []
    for _ in range(2):  # alternate, and keep the faster of each, against drift and bursts
        plain.append(one_pass(small)[1])
        traced.append(one_pass(small, Tracer())[1])
    tracer = Tracer()
    result, _ = one_pass(full, tracer)
    problems = W.CHECK[w](full, result.outputs)
    table = tracer.table()
    problems += tracer.completeness(w, table)
    metrics = tracer.layer_metrics(table)
    metrics["trace.overhead_ratio"] = min(traced) / min(plain) - 1.0
    metrics["trace.spans"] = len(tracer.spans)
    OUT.mkdir(exist_ok=True)
    np.savez_compressed(OUT / f"spans-{w}-seed{args.seed}.npz", **tracer.arrays())
    return metrics, result.attempted, problems, {w: full.sizes()}, {"functions": table}


def run_one(args) -> int:
    _import_package()
    e2e_units, layer_units = _metric_units()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, attempted, problems, sizes, extra = runner(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = layer_units if args.trace else e2e_units
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not produced: {missing}")
    prov = provenance(args, sizes)
    print("provenance " + json.dumps(prov))
    for key in ("machine_speed", "raw_metrics", "samples"):
        if key in extra:
            print(f"{key} {json.dumps(extra[key])}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {metrics[name]} {unit}")
    result = {"correct": not problems, "attempted": attempted, "failed": len(problems),
              "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()
                          if n in metrics}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, provenance=prov, problems=problems, **extra)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args)
    worst = 0
    for w in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {w}", flush=True)
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
