#!/usr/bin/env python3
"""circan benchmark runner.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Drives ``circan.cli.main(argv)`` in-process from one closed-loop client: the
next invocation starts when the previous one has returned and its output has
been checked. One pass is the workload's fixed invocation list; passes repeat
until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (set-up time
from fresh interpreters, pass wall time, throughput, invocation latency, peak
RSS). ``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics: counts from the traced passes, which must agree exactly
between passes, and busy/self times as their median over those passes.

The last line of stdout is the JSON result; the lines before it are a
readable report and a provenance record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One compute thread: numpy's BLAS would otherwise start a thread per core,
# and on a 2-core shared host that thread spins on the second core, so the
# run would measure the scheduler as much as the program. Set before numpy
# is first imported; the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
DEFECT_PROBE = ["analyze", "--n", "8192", "--jumps", "1", "--format", "json"]

sys.path.insert(0, str(ROOT))
from perfbench import trace, workloads  # noqa: E402


def import_cli():
    """circan.cli from this checkout's sources, never an installed copy."""
    if not (SRC / "circan" / "cli.py").is_file():
        raise SystemExit(f"error: no circan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import circan.cli

    if Path(circan.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported circan from {circan.cli.__file__}, not {SRC}")
    return circan.cli


# ---------------------------------------------------------------------------
# one invocation, one pass


def invoke(cli, argv: list[str]) -> tuple[object, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # an escaped exception is a failed invocation
            rc = f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)  # inside main(), in call order
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def run_op(cli, op: workloads.Op, result: PassResult, tracer: trace.Tracer | None) -> None:
    rc, elapsed, out, err = invoke(cli, op.argv)
    result.latencies.append(elapsed)
    result.attempted += op.units
    if tracer is not None:
        tracer.count("cli.output_bytes", len(out.encode()))
    error = None
    if rc != 0:
        error = f"exit {rc}: {err.strip()[-300:]}"
    else:
        try:
            op.check(out)
        except (workloads.CheckFailed, LookupError, TypeError, ValueError) as exc:
            error = f"check failed: {type(exc).__name__}: {exc}"
    if error is not None:
        result.failed += op.units
        result.errors.append(f"{op.label}: {error}")


def run_pass(cli, wl: workloads.Workload, tracer: trace.Tracer | None = None) -> PassResult:
    result = PassResult()
    with trace.installed(tracer) if tracer else contextlib.nullcontext():
        for op in wl.ops:
            run_op(cli, op, result, tracer)
    return result


# ---------------------------------------------------------------------------
# metrics


def median_latencies(passes: list[PassResult]) -> list[float]:
    """Each call's median time over the passes of the run.

    Every pass runs the same calls in the same order. On a shared host short
    fast periods come and go, and whether a run catches one decides a call's
    best time; summed best times therefore spread two to three times more
    between runs than summed medians (see README.md).
    """
    return [statistics.median(lat) for lat in zip(*(p.latencies for p in passes))]


def end_to_end(passes: list[PassResult], setup: list[float]) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count)."""
    typical = median_latencies(passes)
    wall = sum(typical)
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (wall, len(passes)),
        "ops_per_s": (passes[0].attempted / wall, len(passes)),
        "op_p50_ms": (1e3 * statistics.median(typical), len(typical)),
        "op_p90_ms": (1e3 * statistics.quantiles(typical, n=10)[8], len(typical)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


COUNTERS = ("cli.output_bytes", "verifier.fields_checked", "verifier.points_in_domain")


def layer_value(tracer: trace.Tracer, metric: str) -> float:
    if metric in COUNTERS:
        return tracer.counters.get(metric, 0)
    layer, stat = metric.rsplit(".", 1)
    if stat == "repeat_frac":
        calls = sum(s.calls for name, s in tracer.stats.items()
                    if name == layer or name.startswith(layer + "."))
        return tracer.stat(layer).repeats / calls if calls else 0.0
    s = tracer.stat(layer)
    return {"calls": s.calls, "sum_n": s.sum_n, "s": s.busy_ns / 1e9, "self_s": s.self_ns / 1e9}[stat]


def counts_signature(tracer: trace.Tracer) -> dict:
    stats = {name: (s.calls, s.sum_n, s.repeats) for name, s in tracer.stats.items()}
    return {"stats": stats, "counters": dict(tracer.counters)}


def per_layer(spec: list[dict], tracers: list[trace.Tracer], overhead: float) -> dict[str, tuple[float, int]]:
    out = {}
    for metric in spec:
        name = metric["name"]
        if name == "trace_overhead_frac":
            out[name] = (overhead, 1)
        elif metric["unit"] == "s":  # median over traced passes, as for wall_s
            out[name] = (statistics.median(layer_value(t, name) for t in tracers), len(tracers))
        else:  # counts repeat exactly across traced passes
            out[name] = (layer_value(tracers[0], name), len(tracers))
    return out


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict[str, str]:
    """Unified/data cache sizes of CPU 0 by level, e.g. {"L2": "2048K"}."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None  # benchmark checkouts need not be git repositories


def provenance(seed: int, overhead: float | None) -> dict:
    import circan
    import numpy

    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "circan": circan.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "trace_overhead_frac": overhead,
    }


# ---------------------------------------------------------------------------
# one workload


def setup_probe(name: str, seed: int) -> int:
    """Fresh-interpreter set-up: import, input generation (fixture files) and
    one warm-up call per part. Output checks, and the reference values they
    compute, are left to the measured run, which repeats the warm-ups."""
    cli = import_cli()
    with workdir_for(name, seed) as wd:
        wl = workloads.build(name, seed, wd)
        for op in wl.warmups:
            rc, _, _, err = invoke(cli, op.argv)
            if rc != 0:
                print(f"{op.label}: exit {rc}: {err.strip()[-300:]}", file=sys.stderr)
                return 1
    return 0


def setup_time(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return elapsed


@contextlib.contextmanager
def workdir_for(name: str, seed: int):
    base = ROOT / ".perfbench_work"
    wd = base / f"{name}-{seed}-{os.getpid()}"
    wd.mkdir(parents=True, exist_ok=True)
    try:
        yield wd
    finally:
        shutil.rmtree(wd, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    cli = import_cli()
    with workdir_for(name, seed) as wd:
        wl = workloads.build(name, seed, wd)
        warm = PassResult()
        for op in wl.warmups:
            run_op(cli, op, warm, None)
        plain: list[PassResult] = []
        tracers: list[trace.Tracer] = []
        traced_passes: list[PassResult] = []
        # Untraced runs also time SETUP_REPEATS set-ups, spread evenly over
        # the run between passes, so that their median samples the host over
        # the whole run; the clock of the run stops while they run.
        setup: list[float] = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if not traced and len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
                probe_s = setup_time(name, seed)
                setup.append(probe_s)
                start += probe_s
                continue
            enough = plain if not traced else (len(tracers) >= 2 and plain)
            if enough and elapsed >= seconds:
                break
            if traced and len(tracers) <= len(plain):
                tracer = trace.Tracer()
                traced_passes.append(run_pass(cli, wl, tracer))
                tracers.append(tracer)
            else:
                plain.append(run_pass(cli, wl))
        rc, probe_s, _, _ = invoke(cli, DEFECT_PROBE)

    passes = plain + traced_passes
    errors = warm.errors + [e for p in passes for e in p.errors]
    overhead = None
    if traced:
        overhead = sum(median_latencies(traced_passes)) / sum(median_latencies(plain)) - 1
        first = counts_signature(tracers[0])
        if any(counts_signature(t) != first for t in tracers[1:]):
            errors.append("self-test: traced passes disagree on exact counts")
        metrics = per_layer(spec["per_layer"], tracers, overhead)
    else:
        metrics = end_to_end(plain, setup)
    attempted = warm.attempted + sum(p.attempted for p in passes)
    failed = warm.failed + sum(p.failed for p in passes)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    print(f"# workload {name}  seed {seed}  passes {len(plain)} untraced + {len(tracers)} traced"
          f"  invocations/pass {len(wl.ops)}")
    for key, (value, count) in metrics.items():
        print(f"{name:18s} {key:44s} {value:14.6g} {units[key]:6s} n={count}")
    print(f"{name:18s} {'fail_frac':44s} {failed / attempted:14.6g} {'ratio':6s} "
          f"n={attempted} ({failed} failed)")
    print(f"{name:18s} {'known_defect_probe':44s} exit={rc} {probe_s:.4f} s  "
          f"({' '.join(DEFECT_PROBE)}; not gated)")
    for error in errors[:20]:
        print(f"FAILED {error}")
    prov = provenance(seed, overhead)
    prov["known_defect_probe"] = {"argv": DEFECT_PROBE, "exit": rc, "seconds": probe_s}
    print("PROVENANCE " + json.dumps(prov, sort_keys=True))
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process (separate peak RSS), same settings."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=4 * args.seconds + 300)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
