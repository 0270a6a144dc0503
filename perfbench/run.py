"""clusterkit benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Set-up is timed first, in SETUP_PROCESSES fresh interpreters one after the
other.  Then this process builds the pass from the seed, computes the
oracles, fills the program's caches and runs whole passes, one op at a time,
until S seconds have passed.  It prints a table and, as its last line, one
JSON object with the metrics of the trace mode.  A full record of the run
goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROCESSES = 3
SETUP_TIMEOUT_S = 120
#: the probe time that timings are scaled to; a unit only, it cancels when
#: two commits are compared on one machine
PROBE_NOMINAL_S = 0.02
#: the probe after an op runs for at least this share of the op's time
PROBE_SHARE = 0.02

END_TO_END = {"ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def _use_checkout_src() -> None:
    """Put the checkout's src/ first on the path, or exit if it is missing."""
    if not (SRC / "clusterkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no clusterkit sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]


def _check_origin() -> None:
    import clusterkit

    if Path(clusterkit.__file__).resolve().parent != (SRC / "clusterkit").resolve():
        sys.exit(f"perfbench: imported clusterkit from {clusterkit.__file__}, not {SRC}")


def speed_probe(min_seconds: float = 0.0) -> float:
    """Mean seconds of a fixed pure-Python loop, repeated for min_seconds.

    It uses nothing of clusterkit, so its time moves only with the speed of
    the machine, which on a shared host drifts by up to 2x over minutes.
    """
    times = []
    end = time.perf_counter() + min_seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        acc = 0
        for i in range(80_000):
            acc ^= (i * 2654435761) & 0xFFFF
            acc += (i & 7) * 3
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


def _setup_probe(workload: str) -> float:
    """Import the CLI and fill the workload's caches; return the seconds taken."""
    t0 = time.perf_counter()
    import clusterkit.cli  # noqa: F401
    import workloads

    workloads.WORKLOADS[workload][1]()
    return time.perf_counter() - t0


def _setup_samples(workload: str) -> List[Tuple[float, float]]:
    """(set-up seconds, probe seconds right after) from each fresh process."""
    samples = []
    for _ in range(SETUP_PROCESSES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        seconds, probe = done.stdout.split()[-2:]
        samples.append((float(seconds), float(probe)))
    return samples


def _cache_sizes() -> Dict[str, int]:
    """Entries held by every lru_cache in the package."""
    sizes = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("clusterkit."):
            for attr, value in vars(mod).items():
                if not hasattr(value, "cache_info"):  # a traced wrapper
                    value = getattr(value, "__wrapped__", None)
                if hasattr(value, "cache_info"):
                    sizes[f"{name}.{attr}"] = value.cache_info().currsize
    return sizes


def _scaled(record: dict) -> float:
    """A pass's op time at the nominal machine speed.

    Each op's time is scaled by PROBE_NOMINAL_S over the mean of the probes
    taken just before and just after it.
    """
    return math.fsum(dt * PROBE_NOMINAL_S / p
                     for dt, p in zip(record["op_seconds"], record["probe_seconds"]))


def _table(title: str, rows) -> str:
    width = max(len(r[0]) for r in rows)
    lines = [title] + [f"  {name:<{width}}  {value:>14}  {unit}" for name, value, unit in rows]
    return "\n".join(lines)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from layers import COLD, METRICS, Tracer, pass_metrics

    setup = _setup_samples(workload)
    build, fill = workloads.WORKLOADS[workload]
    ops = build(seed)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    fill()
    cold = tracer.take() if tracer else {}
    caches = _cache_sizes()

    clock = time.perf_counter
    passes = []
    start = clock()
    speed_probe()  # the first call warms up
    probe = speed_probe()
    while not passes or clock() - start < seconds:
        record = {"op_seconds": [], "probe_seconds": [], "failures": {}}
        for op in ops:
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # the op failed; report it and go on
                dt = clock() - t0
                problem = f"raised {exc!r}"
            else:
                dt = clock() - t0
                problem = None
            after = speed_probe(PROBE_SHARE * dt)
            if problem is None:
                problem = op.check(out)
            record["op_seconds"].append(dt)
            record["probe_seconds"].append(0.5 * (probe + after))
            probe = after
            if problem:
                record["failures"][op.name] = problem
        if tracer:
            record["layers"] = pass_metrics(tracer.take(), record["op_seconds"],
                                            _scaled(record), len(ops))
        passes.append(record)
    if tracer:
        tracer.remove()

    grown = {k: (v, n) for k, v in caches.items() if (n := _cache_sizes().get(k)) != v}
    if grown:
        print(f"perfbench: caches grew during the passes: {grown}", file=sys.stderr)

    known = {op.name for op in ops if op.known_fault}
    failed = sum(len(p["failures"]) for p in passes)
    unexpected = sorted({n for p in passes for n in p["failures"] if n not in known})
    attempted = len(ops) * len(passes)
    values = {
        "ops_per_s": attempted / sum(_scaled(p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(s * PROBE_NOMINAL_S / p for s, p in setup),
    }
    raw = {
        "ops_per_s": attempted / sum(sum(p["op_seconds"]) for p in passes),
        "setup_s": statistics.median(s for s, _ in setup),
        "probe_s": statistics.median(x for p in passes for x in p["probe_seconds"]),
    }
    if trace:
        layers = {name: statistics.median(p["layers"][name] for p in passes) for name in METRICS}
        for name in COLD:
            layers[name] = cold.get(name, 0.0)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in METRICS.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    rows = [(name, _fmt(values[name]), unit) for name, unit in END_TO_END.items()]
    rows += [("ops attempted", str(attempted), "ops"), ("ops failed", str(failed), "ops")]
    rows += [("unscaled ops_per_s", _fmt(raw["ops_per_s"]), "1/s"),
             ("unscaled setup_s", _fmt(raw["setup_s"]), "s"),
             ("speed probe (median)", _fmt(raw["probe_s"]), "s")]
    print(_table(f"workload {workload}  seed {seed}  passes {len(passes)}  "
                 f"trace {'on' if trace else 'off'}", rows))
    if trace:
        print(_table("per layer (median over passes; graphs tables cold, from the fill)",
                     [(n, _fmt(m["value"]), m["unit"]) for n, m in metrics.items()]))
    for name, problem in passes[-1]["failures"].items():
        print(f"  FAILED {name}: {problem}")

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "ops": [op.name for op in ops], "passes": passes, "setup_samples": setup,
        "end_to_end": values, "unscaled": raw, "cache_sizes": caches,
    }
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _use_checkout_src()
    if args.setup_probe:
        seconds = _setup_probe(args.workload)
        _check_origin()
        speed_probe()  # the first call warms up
        print(seconds, speed_probe())
        return 0
    _check_origin()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; want one of {sorted(workloads.WORKLOADS)}")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
