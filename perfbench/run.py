"""Run a moltr benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is study-distill, study-boost, ingest-eval, or ``all`` for the three in
turn. Run it from the checkout root. Each workload runs in a fresh worker
process with BLAS threads pinned to one; set-up is timed in that worker and
in SETUP_PROBES more processes that only set up. The output is one line per
metric (name, value, unit), the environment, the output digests and the
params hashes, and last a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Untraced runs report the
end-to-end metrics, traced runs the per-layer ones. Full records are kept
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from bench_layers import METRICS as LAYER_METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("study-distill", "study-boost", "ingest-eval")
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "score_us_p90": "us",
}
# Printed and recorded, but not an end-to-end metric: per-call latency is
# bimodal on hosts whose CPU speed switches between states, and the median
# then flips between the two modes from run to run.
INFO = {"score_us_p50": "us"}
# The matrices are 16x32, so one BLAS thread loses nothing and removes
# thread scheduling from the timings.
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _run_worker(args: list[str], deadline: float) -> float:
    """Run the worker to completion; returns its start time (monotonic)."""
    env = {**os.environ, **PINNED_THREADS, "PYTHONPATH": os.path.join(ROOT, "src")}
    cmd = [sys.executable, os.path.join(HERE, "bench_worker.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the time limit")
    if rc != 0:
        raise BenchError(f"worker exited with code {rc}")
    return started


def _read(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    os.makedirs(OUT, exist_ok=True)
    base = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}")
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    started = _run_worker([*common, "--trace", str(trace), "--result", base + ".json"], deadline)
    result = _read(base + ".json")
    setup = [result["ready"] - started]
    if not trace:
        probe = base + ".probe.json"
        for _ in range(SETUP_PROBES):
            started = _run_worker([*common, "--result", probe, "--setup-only"], deadline)
            setup.append(_read(probe)["ready"] - started)
        os.remove(probe)

    passes = result["passes"]
    failed = sum(1 for p in passes if p["errors"])
    if trace:
        metrics = {k: {"value": result["layers"][k], "unit": u} for k, u in LAYER_METRICS.items()}
    else:
        values = {
            "wall_s": result["wall_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "score_us_p90": result["score_us_p90"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result["env"].update(
        nproc=os.cpu_count(),
        pinned_threads=PINNED_THREADS,
        git_commit=git_commit(ROOT),
        workload=name,
        seed=seed,
    )
    result.update(
        setup_samples_s=setup,
        attempted=len(passes),
        failed=failed,
        fail_rate=failed / len(passes),
        metrics=metrics,
    )
    with open(base + ".json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return result


def print_result(name: str, result: dict) -> None:
    print(
        f"workload {name}: {result['attempted']} passes, {result['failed']} failed, "
        f"fail_rate {result['fail_rate']}"
    )
    print("env " + json.dumps(result["env"], sort_keys=True))
    seen = set()
    for p in result["passes"]:
        for err in p["errors"]:
            print(f"FAILED data_seed {p['data_seed']}: {err}")
        if p["digest"] and p["data_seed"] not in seen:
            seen.add(p["data_seed"])
            print(f"digest data_seed {p['data_seed']} sha256:{p['digest']}")
            for model, h in sorted(p["params"].items()):
                print(f"params data_seed {p['data_seed']} {model} {h}")
    for model, h in sorted(result.get("fixed_params", {}).items()):
        print(f"params fixed {model} {h}")
    for k, m in result["metrics"].items():
        print(f"{k} {m['value']} {m['unit']}")
    for k, unit in INFO.items():
        if k in result:
            print(f"info {k} {result[k]} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run a moltr benchmark workload.")
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "moltr", "__init__.py")):
        print(f"error: no moltr sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print_result(name, results[name])
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    def key(name, metric):
        return metric if len(names) == 1 else f"{name}/{metric}"

    summary = {
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            key(name, k): m for name, r in results.items() for k, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
