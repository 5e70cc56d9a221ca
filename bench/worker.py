"""One benchmark process: import bimult, build one workload's inputs, run passes.

Started by run.py as `python3 bench/worker.py '<json options>'`, so that each
workload runs alone in a fresh process whose set-up time and peak resident
memory are its own.  Prints one JSON object as its last line.

Options: workload, seed, seconds, trace (bool), scale, setup_only (bool),
src (the directory holding the bimult package), workdir (scratch space,
removed on exit) and spans_out (where a traced run writes its spans).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

TIMED_UNITS = ("s", "ratio")


def _run_pass(wl, state, workdir, k, tracer):
    pass_dir = os.path.join(workdir, f"pass-{k}")
    os.makedirs(pass_dir)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if tracer is None:
        outputs = wl.run_pass(state, pass_dir)
    else:
        tracer.pass_id = k
        with tracer.installed():
            outputs = wl.run_pass(state, pass_dir)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    checks, digests = wl.check(state, outputs)
    shutil.rmtree(pass_dir)
    return wall, cpu, checks, digests


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str,
            workdir: str, setup_only: bool = False, spans_out: str | None = None) -> dict:
    """Set up, then run passes until `seconds` have gone by.

    Untraced runs make at least 3 passes.  Traced runs alternate untraced and
    traced passes, at least 2 of each, so the tracing overhead is measured in
    the same process.
    """
    # imported here, after main() has put src/ on sys.path, so that importing
    # bimult counts towards setup_s
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload]
    inputs_dir = os.path.join(workdir, "inputs")
    os.makedirs(inputs_dir)
    state = wl.setup(seed, scale, inputs_dir)
    setup_s = time.perf_counter() - T0
    if setup_only:
        return {"setup_s": setup_s}

    tracer = spans.Tracer() if trace else None
    min_passes = 4 if trace else 3
    walls, cpus, traced = [], [], []
    checks, first_digests = [], None
    start = time.perf_counter()
    k = 0
    while k < min_passes or time.perf_counter() - start < seconds:
        traced_pass = trace and k % 2 == 1
        wall, cpu, pass_checks, digests = _run_pass(wl, state, workdir, k, tracer if traced_pass else None)
        checks += pass_checks
        if first_digests is None:
            first_digests = digests
        else:
            checks.append(("digests_repeat", digests == first_digests))
        if traced_pass:
            traced.append((k, wall, cpu))
        else:
            walls.append(wall)
            cpus.append(cpu)
        k += 1

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "cpus": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": first_digests,
        "threads": workloads.pool_threads(),
    }
    if trace:
        per_pass = [spans.layer_metrics(tracer.pass_spans(k), wall, cpu) for k, wall, cpu in traced]
        counts = [{key: v for key, (v, unit) in m.items() if unit not in TIMED_UNITS} for m in per_pass]
        checks.append(("trace.counts_repeat", all(c == counts[0] for c in counts)))
        # times are medians over traced passes; counts are the same in every pass
        layers = {key: (statistics.median(m[key][0] for m in per_pass) if unit in TIMED_UNITS else v, unit)
                  for key, (v, unit) in per_pass[0].items()}
        layers["experiments.cpu_over_wall"] = (statistics.median(c / w for c, w in zip(cpus, walls)), "ratio")
        traced_wall = statistics.median(w for _, w, _ in traced)
        layers["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
        checks.append(("trace.coverage", layers["trace.coverage"][0] >= 0.95))
        result["layers"] = layers
        result["traced_walls"] = [w for _, w, _ in traced]
        result["breakdown"] = spans.span_breakdown(tracer.pass_spans(traced[0][0]))
        tracer.write(spans_out)
    result["attempted"] = len(checks)
    result["failures"] = [name for name, ok in checks if not ok]
    result["provenance"] = provenance()
    return result


def provenance() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = {}
    thread_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {name: os.environ.get(name) for name in thread_env},
    }


def main() -> None:
    opts = json.loads(sys.argv[1])
    sys.path.insert(0, opts["src"])
    shutil.rmtree(opts["workdir"], ignore_errors=True)  # left by an interrupted run
    try:
        result = measure(opts["workload"], opts["seed"], opts["seconds"], opts["trace"],
                         opts["scale"], opts["workdir"], opts["setup_only"], opts["spans_out"])
    finally:
        shutil.rmtree(opts["workdir"], ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
