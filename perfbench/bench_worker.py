"""One workload run in its own process; started by run.py, not by hand.

    python3 perfbench/bench_worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --result PATH [--setup-only]

The working directory must be the checkout root. The worker imports moltr
from ``src/`` there, sets the workload up and records the monotonic time at
which set-up ended. With --setup-only it stops there. Otherwise it runs
passes until S seconds have been measured (and at least once more than the
workload has sub-seeds, so every run covers all of its inputs and repeats
one), checks each pass, and writes everything as JSON to PATH.

Untraced (--trace 0), every pass is timed without wrappers. Traced
(--trace 1), each traced pass is paired with an untraced pass on the same
input, so the difference of the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import moltr  # noqa: E402
from bench_layers import PACKAGE, TARGETS, layer_metrics  # noqa: E402
from bench_tracer import Tracer  # noqa: E402
from bench_workloads import WORKLOADS, PassResult, data_seed  # noqa: E402

# Stop starting passes after this long, so a run ends well inside 180 s.
PASS_DEADLINE_S = 120.0


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
    }


def _run_one(workload, seed: int, sub: int, region, measure: bool, digests: dict) -> PassResult:
    ds = data_seed(seed, sub)
    try:
        res = workload.run_pass(ds, region, measure)
    except Exception as e:  # a failed pass is counted, and the run goes on
        traceback.print_exc()
        res = PassResult(data_seed=ds, errors=[f"pass raised {type(e).__name__}: {e}"])
    if res.digest:
        first = digests.setdefault(ds, res.digest)
        if first != res.digest:
            res.errors.append(f"output digest of data seed {ds} changed between passes")
    return res


def _pass_record(res: PassResult, traced: bool) -> dict:
    return {
        "data_seed": res.data_seed,
        "traced": traced,
        "wall_s": res.wall_s,
        "digest": res.digest,
        "params": res.params,
        "errors": res.errors,
    }


def wall_s(passes: list[PassResult]) -> float:
    """Mean over the data seeds of each seed's median pass wall time."""
    by_seed: dict[int, list[float]] = {}
    for p in passes:
        by_seed.setdefault(p.data_seed, []).append(p.wall_s)
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def run(workload, seed: int, seconds: float, trace: bool, trace_path: str) -> dict:
    digests: dict[int, str] = {}
    records = []
    start = time.perf_counter()

    def more(i):
        elapsed = time.perf_counter() - start
        if elapsed > PASS_DEADLINE_S:
            return False
        if trace:
            return i < 1 or elapsed < seconds
        return i < workload.sub_seeds + 1 or elapsed < seconds

    out: dict = {}
    i = 0
    if not trace:
        passes = []
        while more(i):
            res = _run_one(workload, seed, i % workload.sub_seeds, contextlib.nullcontext(), True, digests)
            passes.append(res)
            records.append(_pass_record(res, False))
            i += 1
        samples = [us for p in passes for us in p.score_us]
        deciles = statistics.quantiles(samples, n=10) if len(samples) >= 2 else [0.0] * 9
        out["wall_s"] = wall_s(passes)
        out["score_us_p50"] = statistics.median(samples) if samples else 0.0
        out["score_us_p90"] = deciles[8]
        out["score_samples"] = len(samples)
    else:
        tracer = Tracer()
        plain, traced = [], []
        while more(i):
            sub = i % workload.sub_seeds
            res = _run_one(workload, seed, sub, contextlib.nullcontext(), False, digests)
            plain.append(res)
            records.append(_pass_record(res, False))
            with tracer.installed(TARGETS, PACKAGE):
                res = _run_one(workload, seed, sub, tracer.root("pass"), False, digests)
            traced.append(res)
            records.append(_pass_record(res, True))
            i += 1
        layers = layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = statistics.median(
            t.wall_s - p.wall_s for t, p in zip(traced, plain)
        )
        out["layers"] = layers
        out["spans"] = len(tracer.spans)
        tracer.write(trace_path)
    out["passes"] = records
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if os.path.dirname(os.path.realpath(moltr.__file__)) != os.path.realpath(
        os.path.join(SRC, "moltr")
    ):
        print(f"error: moltr imported from {moltr.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workload.setup(args.seed)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        trace_path = os.path.join(os.path.dirname(args.result), f"{args.workload}.trace.tsv")
        result.update(run(workload, args.seed, args.seconds, bool(args.trace), trace_path))
        result["env"] = environment()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if hasattr(workload, "fixed_params"):
            result["fixed_params"] = workload.fixed_params()
    with open(args.result, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
