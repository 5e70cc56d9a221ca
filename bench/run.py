"""bimult benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 bench/run.py --workload growth --seed 20260824 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Workloads: growth, corpus, levelset, roundtrip (see bench/workloads.py and
bench/NOTES.md).  With `--trace 0` it reports wall_s, cpu_s, peak_rss_mb
and setup_s; with `--trace 1`, the per-layer metrics of a traced run.  Human-
readable lines come first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}, where attempted and
failed count output checks (fail_ratio = failed / attempted).

Each workload runs in its own fresh worker process (bench/worker.py), after
one untimed process that warms the file and bytecode caches and, untraced,
SETUP_REPEATS processes that only set up, for the setup_s median.  BLAS and
OpenMP are pinned to one thread, so a worker uses at most
min(2, nproc) compute threads.  Exits 1 without a result when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
# relative to ROOT, the workers' cwd, so that the paths the CLI records in its
# output files, and so their sizes, do not depend on where the checkout lives
WORK = ".bench_work"
WORKLOADS = ("growth", "corpus", "levelset", "roundtrip")
DEFAULT_SEED = 20260824  # the acceptance gate's MASTER_SEED
SETUP_REPEATS = 7
TIME_LIMIT_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _worker(opts: dict, deadline: float) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(opts)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def bench(workload: str, seed: int, seconds: int, trace: bool, scale: str) -> dict:
    if not os.path.isfile(os.path.join(SRC, "bimult", "__init__.py")):
        raise BenchError(f"no bimult package under {SRC}")
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    tag = f"{workload}-{seed}"

    def opts(i: int, setup_only: bool) -> dict:
        return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                "scale": scale, "setup_only": setup_only, "src": SRC,
                "workdir": os.path.join(WORK, f"{tag}-{i}"),
                "spans_out": os.path.join(WORK, f"spans-{workload}-{seed}.jsonl")}

    _worker(opts(0, True), deadline)  # warms the page and bytecode caches; not timed
    setups = [] if trace else [
        _worker(opts(i, True), deadline)["setup_s"] for i in range(1, SETUP_REPEATS + 1)
    ]
    result = _worker(opts(SETUP_REPEATS + 1, False), deadline)
    result["setups"] = setups + [result["setup_s"]]
    result["provenance"].update({"git_commit": _git_commit(), "seed": seed, "workload": workload,
                                 "scale": scale, "pool_threads": result["threads"]})
    return result


def report(result: dict, trace: bool) -> tuple[list[str], dict]:
    """Human-readable lines and the metrics object of the last line."""
    walls = result["walls"]
    lines = [f"provenance {json.dumps(result['provenance'], sort_keys=True)}"]
    for label, digest in sorted(result["digests"].items()):
        lines.append(f"digest {label} sha256:{digest}")
    attempted, failed = result["attempted"], len(result["failures"])
    lines.append(f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted} checks failed)"
                 + (f": {', '.join(sorted(set(result['failures'])))}" if failed else ""))
    if trace:
        metrics = {key: {"value": v, "unit": unit} for key, (v, unit) in sorted(result["layers"].items())}
        lines.append(f"untraced passes {len(walls)}, traced passes {len(result['traced_walls'])}")
        for key, (wall, cpu) in sorted(result["breakdown"].items(), key=lambda kv: -kv[1][1]):
            lines.append(f"span {key} wall {wall:.6g} s cpu {cpu:.6g} s (first traced pass, summed over calls)")
        for key, m in metrics.items():
            lines.append(f"{key} {m['value']:.6g} {m['unit']}")
        return lines, metrics
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(result["cpus"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(result["setups"]), "unit": "s"},
    }
    lines.append(f"wall_s {metrics['wall_s']['value']:.6g} s (median of {len(walls)} passes, "
                 f"min {min(walls):.6g}, max {max(walls):.6g})")
    lines.append(f"cpu_s {metrics['cpu_s']['value']:.6g} s (median of {len(walls)} passes, all threads)")
    lines.append(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.6g} MB (the measuring worker)")
    lines.append(f"setup_s {metrics['setup_s']['value']:.6g} s "
                 f"(median of {len(result['setups'])} fresh processes)")
    return lines, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: the tiny configs of the benchmark's self-test")
    args = p.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines, metrics = report(result, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps({"correct": not result["failures"], "attempted": result["attempted"],
                      "failed": len(result["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
