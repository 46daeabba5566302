"""Benchmark of the depcoder pipeline: pre-training, ``embed`` and ``pipeline``.

    python3 bench/run.py --workload pretrain-smoke --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-check

A run builds its workload's inputs from ``--seed``, repeats rounds of the
workload's command until ``--seconds`` of measured time have passed, checks
every round's outputs and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are per-layer self
times and counts from rounds run with span tracing on (every other round, so
the run can also report its own overhead).  The full record of a run, with
the machine it ran on, goes to ``bench/out/BENCH_<workload>_seed<n>_trace<t>.json``.

``--self-check`` runs every workload for one round, each in its own process,
and exits non-zero if a check fails.  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # one BLAS thread, pinned before numpy loads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms": "ms",
    "op_ms_p90": "ms",
    "fns_per_s": "functions/s",
    "tokens_per_s": "tokens/s",
}


def machine(seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = None
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree."""
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]()
    workdir = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    workloads.clean(workdir)
    os.makedirs(workdir)
    tracer = spans.Tracer() if trace else None
    origin = perf_counter()
    rounds, errors = [], []
    try:
        workloads.import_program()
        wl.prepare(seed, workdir)
        prepare_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # the benchmark's own objects stay out of the program's collections
        gc.collect()
        gc.freeze()
        measured = 0.0
        first_dir = os.path.join(workdir, "round0")
        while measured < seconds or len(rounds) < (2 if trace else 1):
            rdir = os.path.join(workdir, f"round{len(rounds)}")
            os.makedirs(rdir)
            gc.collect()
            rnd = wl.run_round(rdir, tracer if trace and len(rounds) % 2 else None)
            measured += rnd.wall
            errors += [f"round {len(rounds)}: {e}" for e in
                       wl.check_round(rnd, rdir, first=not rounds)]
            rounds.append(rnd)
            if rdir != first_dir:  # kept for the full checks after the run
                workloads.clean(rdir)
            if errors:
                break
        # the peak is read before the full checks, so that it is the program's
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not errors:
            errors += [f"round 0: {e}" for e in wl.check_outputs(rounds[0], first_dir)]
    finally:
        workloads.clean(workdir)

    plain = [r for r in rounds if not r.traced]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(seed), "rounds": len(rounds), "errors": errors[:20],
        "makeup": wl.makeup, "rss_after_prepare_mb": prepare_mb,
        "round_times": [{"wall_s": r.wall, "op_s": r.op_time, "setup_s": r.setups,
                         "traced": r.traced} for r in rounds],
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    if plain and all(r.ops for r in plain):
        stats, named = wl.named_metrics(plain)
        setups = [s for r in plain for s in r.setups]
        e2e = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_mb,
               "op_ms": stats["op_ms"], "op_ms_p90": stats["op_ms_p90"],
               "fns_per_s": stats["fns_per_s"], "tokens_per_s": stats["tokens_per_s"]}
        record["samples"] = {"operations": stats["samples"], "setups": len(setups)}
        record["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        record["named"]["setup_s"] = {"value": e2e["setup_s"], "unit": "s"}
        record["named"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        record["end_to_end"] = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
        record["checks"] = {k: v for r in rounds[:1] for k, v in r.extra.items()
                            if not isinstance(v, list)}
    traced = [r for r in rounds if r.traced]
    if traced and plain:
        layers = tracer.layer_metrics(len(traced))
        overhead = (statistics.median(r.wall for r in traced)
                    / statistics.median(r.wall for r in plain) - 1.0)
        layers["trace.overhead_pct"] = 100.0 * overhead
        record["per_layer"] = layers
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans_{name}_seed{seed}.json"), origin)
    return record


def print_result(record: dict) -> None:
    correct = not record["errors"]
    print(f"# {record['workload']} seed {record['seed']}: {record['rounds']} rounds, "
          f"{record['attempted']} operations attempted, {record['failed']} failed")
    print("# machine " + json.dumps(record["machine"], sort_keys=True))
    for e in record["errors"]:
        print(f"# CHECK FAILED {e}")
    metrics = {}
    if record["trace"] and "per_layer" in record:
        metrics = {k: {"value": v, "unit": spans.PER_LAYER[k]}
                   for k, v in record["per_layer"].items()}
    elif "end_to_end" in record:
        for k, m in record["named"].items():
            print(f"# {k:<26} {m['value']:>14.4f} {m['unit']}")
        metrics = record["end_to_end"]
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


def self_check(seed: int) -> int:
    ok = True
    t0 = perf_counter()
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            last = {"correct": False}
        passed = proc.returncode == 0 and last["correct"]
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}")
        for line in lines[:-1]:
            print("  " + line)
        if not passed:
            print(proc.stderr[-2000:])
    print(f"self-check {'passed' if ok else 'FAILED'} in {perf_counter() - t0:.1f}s")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="one round of every workload, each in its own process")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "depcoder", "__init__.py")):
        print(f"error: no depcoder sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.self_check:
        return self_check(args.seed)
    if args.workload is None:
        p.error("--workload is required unless --self-check is given")
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print_result(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
