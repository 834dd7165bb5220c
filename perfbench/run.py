"""Benchmark of quncert's computations of the paper's uncertainty relations.

Run from the root of a checkout:

    python3 perfbench/run.py --workload epr-vn --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics (pass_s, setup_s,
peak_rss_mb); with --trace 1 it runs traced and untraced passes in turn and
prints the per-layer metrics of the traced ones. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. Raw
figures go to perfbench/out/. See perfbench/README.md.
"""

import os

# BLAS and OpenMP read these once, when numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 5  # fresh processes per run; setup_s is their median
PROBE_TIMEOUT_S = 120


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its inputs are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--probe-setup"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run_passes(wl, inputs, seconds: int, tracer):
    """Full passes until `seconds` have gone by. Traced runs alternate an
    untraced and a traced pass, starting untraced, and run at least one of
    each."""
    from workloads import Ops

    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        ops = Ops()
        if traced:
            mark = tracer.mark()
            with tracer.patched():
                t0 = time.perf_counter()
                out = wl.run_pass(inputs, ops)
                elapsed = time.perf_counter() - t0
            layer = tracer.metrics(mark)
        else:
            t0 = time.perf_counter()
            out = wl.run_pass(inputs, ops)
            elapsed = time.perf_counter() - t0
            layer = None
        passes.append({"traced": traced, "seconds": elapsed, "out": out, "layer": layer,
                       "attempted": ops.attempted, "failed": ops.failed,
                       "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(passes) >= 2):
            return passes


def main(argv=None) -> int:
    if not (SRC / "quncert" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'quncert'}; "
              "run from the root of a quncert checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    from workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    wl = WORKLOADS[args.workload]
    if args.probe_setup:
        wl.setup(args.seed)
        print("ready", flush=True)
        return 0

    setup_times = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        mark = tracer.mark()
        with tracer.patched():
            inputs = wl.setup(args.seed)
        setup_layer = tracer.metrics(mark)
    else:
        inputs = wl.setup(args.seed)
    wl.warm_up(inputs)
    passes = run_passes(wl, inputs, args.seconds, tracer)

    ref = wl.reference(inputs)
    results = [c for p in passes for c in wl.check(ref, p["out"])]
    bad = [c for c in results if not c.ok]
    for c in bad[:20]:
        print(f"perfbench: check {c.name} failed: {c.detail}", file=sys.stderr)

    plain = [p["seconds"] for p in passes if not p["traced"]]
    if tracer is None:
        metrics = {
            "pass_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            # the high-water mark after the first pass: later passes only add
            # allocator fragmentation, which varies from run to run
            "peak_rss_mb": {"value": passes[0]["rss_mb"], "unit": "MB"},
        }
    else:
        traced = [p for p in passes if p["traced"]]
        layer = spans.combine(setup_layer, [p["layer"] for p in traced])
        layer["trace.overhead_ratio"] = (statistics.median(p["seconds"] for p in traced)
                                         / statistics.median(plain))
        metrics = {m: {"value": v, "unit": spans.UNITS[m]} for m, v in layer.items()}

    env = environment()
    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_s": setup_times,
        "passes": [{k: p[k] for k in ("traced", "seconds", "rss_mb")} for p in passes],
        "checks": len(results), "checks_failed": [c._asdict() for c in bad],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(raw, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.gz")

    print("environment " + json.dumps(env))
    print("passes " + " ".join(f"{'T' if p['traced'] else ''}{p['seconds']:.4f}"
                               for p in passes))
    print(f"checks {len(results) - len(bad)}/{len(results)} passed")
    print(json.dumps({
        "correct": not bad,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
