#!/usr/bin/env python3
"""Layered pipeline benchmark for realsnf.

    python3 perfbench/run.py --workload qx_verify --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports ``realsnf`` from
``src/`` there and from nowhere else, and exits with code 2 when that is
missing.  Workloads, metric names and units are declared in
``BENCHMARK.json``; the inputs and their checks are in ``workloads.py``.

Each workload is a closed loop: one client in this process sends the next
matrix when the previous one returns.  The loop stops at the first end of a
class rotation after ``--seconds``.  Every output is checked (see
``workloads.check``); a check that fails, a raise, or an output that differs
when the same case runs again counts as a failed operation, and the command
then exits with code 1.

Times are reported in reference seconds (``calibration.py``): each timed
call, and each set-up process, runs between two runs of a fixed computation
in the benchmark's own arithmetic, and its wall time is scaled by the
calibration's reference time over their mean.  This cancels the shared
host's drifting speed; the wall-clock figures are in the metadata.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
time a fresh interpreter takes to import realsnf from the checkout and do
the workload's first-use set-up (fundamental units, the CLI module); one such
process runs after every rotation, outside the timed calls.

``--trace 1`` runs the cases of the first half of the time untraced, then
the same cases again with spans around every layer (``spans.py``), and
prints the per-layer metrics: means per matrix, plus ``trace.overhead``, the
traced rate over the untraced one.  The line before the result holds the
run's metadata: output digests, verdict counts, the slowest cases with a
command that replays each (``--replay CASE``), and with ``--trace 1`` the
per-layer metrics split by ring family.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibration as C
import spans as S
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh-process set-up is measured once after every rotation (outside the
# timed calls, so it samples the whole run) and at least this many times.
SETUP_MIN_SAMPLES = 5

# Runs in a fresh interpreter: import realsnf from the checkout plus the
# first-use set-up a workload's first matrix would pay for.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import realsnf
from realsnf import fundamental_unit, parse_ring
if sys.argv[3] == "snf":
    import realsnf.cli
for name in sys.argv[2].split(","):
    ring = parse_ring(name)
    if name.startswith(("Zsqrt", "Zhalf")):
        fundamental_unit(ring)
elapsed = time.perf_counter() - t0
print(elapsed, realsnf.__file__)
"""


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _read_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        _fail_setup(f"cannot read {spec_path.name}: {exc}")
    return spec


def _ring_names(workload) -> list[str]:
    return sorted({c.ring for c in workload.rotation})


def _quadratic_rings(workload) -> list[str]:
    return [r for r in _ring_names(workload) if r.startswith(("Zsqrt", "Zhalf"))]


def _family(ring: str) -> str:
    return ring.split(":")[0]


def measure_setup(workload, cal_samples: list[float] | None = None) -> tuple[float, float]:
    """Wall and reference seconds a fresh interpreter takes to import
    realsnf and set up; the calibration brackets the whole child process."""
    args = [sys.executable, "-c", SETUP_CODE, str(SRC), ",".join(_ring_names(workload)), workload.mode]
    before = C.measure()
    done = subprocess.run(args, capture_output=True, text=True, timeout=120, cwd=ROOT)
    after = C.measure()
    if cal_samples is not None:
        cal_samples += (before, after)
    if done.returncode != 0:
        _fail_setup(f"set-up process failed:\n{done.stderr}")
    elapsed, module_file = done.stdout.split(maxsplit=1)
    if not Path(module_file.strip()).resolve().is_relative_to(SRC.resolve()):
        _fail_setup(f"set-up imported realsnf from {module_file}, not {SRC}")
    return float(elapsed), float(elapsed) * C.scale(before, after)


@dataclass
class Execution:
    """One checked call: its wall time, the factor to reference time
    (``calibration.scale``), a digest of its output, and with tracing the
    reduced spans and value sizes."""

    seconds: float
    scale: float
    digest: str
    verdict: str
    json_bytes: int
    trace: S.MatrixTrace | None = None
    sizes: dict | None = None


class Run:
    """Executions of one workload, with their failures."""

    def __init__(self, api, workload, seed):
        self.api = api
        self.workload = workload
        self.seed = seed
        self.cases = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cal_samples: list[float] = []

    def case(self, index: int):
        if index not in self.cases:
            self.cases[index] = W.make_case(self.workload, self.seed, index)
        return self.cases[index]

    def execute(self, index: int, tracer=None) -> Execution | None:
        case = self.case(index)
        self.attempted += 1
        try:
            prepared = W.prepare(self.api, case)
            if tracer is not None:
                tracer.reset()
            before = C.measure()
            elapsed, raw = W.run_timed(self.api, case, prepared, time.perf_counter)
            after = C.measure()
        except Exception as exc:  # a raise is a failed operation, not a crash
            self._fail(index, f"raised {type(exc).__name__}: {exc}")
            return None
        self.cal_samples += (before, after)
        done = Execution(
            elapsed,
            C.scale(before, after),
            W.digest([W.canonical_output(case, raw)]),
            W.verdict(case, raw),
            W.json_bytes(case, raw),
        )
        if tracer is not None:
            done.trace = tracer.collect()
            done.sizes = S.size_stats(done.trace)
            done.trace.kept.clear()
        bad = W.check(self.api, case, prepared, raw)
        if bad:
            self._fail(index, "; ".join(bad))
        return done

    def _fail(self, index: int, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            c = self.case(index).cls
            self.failures.append(f"case {index} ({c.ring} n={c.n} {c.kind}): {message}")

    def compare(self, first: dict, second: dict, what: str) -> None:
        """Count a failure for each case whose two outputs differ."""
        for index in sorted(first.keys() & second.keys()):
            a, b = first[index], second[index]
            if a is not None and b is not None and a.digest != b.digest:
                self._fail(index, f"output differs {what}")

    def run_for(self, seconds: float, after_rotation=None) -> dict[int, Execution | None]:
        """Run cases 0, 1, ... until ``seconds`` have passed at the end of a
        rotation."""
        done = {}
        rotation = len(self.workload.rotation)
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            done[index] = self.execute(index)
            index += 1
            if index % rotation:
                continue
            if after_rotation is not None:
                after_rotation()
            if time.perf_counter() >= deadline:
                return done

    def run_cases(self, indices, tracer) -> dict[int, Execution | None]:
        return {index: self.execute(index, tracer) for index in indices}


def _times(executions: dict) -> dict[int, float]:
    """Reference seconds per completed case."""
    return {i: e.seconds * e.scale for i, e in executions.items() if e is not None}


def _wall_times(executions: dict) -> list[float]:
    return [e.seconds for e in executions.values() if e is not None]


def _digests(run: Run, executions: dict) -> dict:
    rotation = len(run.workload.rotation)
    outputs = [executions[i].digest if executions[i] else "raised" for i in sorted(executions)]
    return {
        "first_rotation": W.digest(outputs[:rotation]),
        "all": W.digest(outputs),
        "cases": len(outputs),
    }


def _verdicts(executions: dict) -> dict[str, int]:
    counts: dict[str, int] = {}
    for e in executions.values():
        key = e.verdict if e is not None else "raised"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def _slowest(run: Run, times: dict[int, float], count: int = 5) -> list[dict]:
    out = []
    for index in sorted(times, key=times.get, reverse=True)[:count]:
        case = run.case(index)
        out.append({
            "case": index,
            "case_seed": case.case_seed,
            "ring": case.cls.ring,
            "n": case.cls.n,
            "kind": case.cls.kind,
            "ms": round(times[index] * 1000, 3),
            "replay": case.replay_hint(),
        })
    return out


def _timings(times: list[float]) -> dict:
    ordered = sorted(times)
    n = len(ordered)
    tail_index = max(n - 11, 0)  # exactly ten samples above it
    return {
        "matrices_per_s": n / sum(ordered),
        "matrix_ms.p50": statistics.median(ordered) * 1000,
        "matrix_ms.tail": ordered[tail_index] * 1000,
        "tail_percentile": round(100 * (tail_index + 1) / n, 2),
        "samples_beyond_tail": n - tail_index - 1,
    }


def end_to_end(times: list[float], wall: list[float], setup: list[tuple]) -> tuple[dict, dict]:
    """Metrics from reference ``times`` and ``setup`` (wall, reference)
    pairs; the same figures in wall-clock time go to the metadata."""
    ref = _timings(times)
    metrics = {k: ref[k] for k in ("matrices_per_s", "matrix_ms.p50", "matrix_ms.tail")}
    metrics["setup_s"] = statistics.median(r for _, r in setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_metrics = {k: v for k, v in _timings(wall).items() if k in metrics}
    wall_metrics["setup_s"] = statistics.median(w for w, _ in setup)
    extra = {
        "tail_percentile": ref["tail_percentile"],
        "tail_samples": len(times),
        "samples_beyond_tail": ref["samples_beyond_tail"],
        "setup_s_all": [round(r, 6) for _, r in setup],
        "wall_clock": wall_metrics,
    }
    return metrics, extra


def layer_metrics(items: list[Execution]) -> dict:
    """Means per matrix over traced executions (sizes are maxima); times
    are in reference seconds, each matrix scaled by its own calibrations."""
    n = len(items)
    total = sum(e.seconds * e.scale for e in items)
    out: dict[str, float] = {}
    for k, name in enumerate(S.SPAN_NAMES):
        incl = sum(e.trace.incl[k] * e.scale for e in items)
        out[f"{name}.calls"] = sum(e.trace.calls[k] for e in items) / n
        out[f"{name}.ms"] = incl / n * 1000
        out[f"{name}.self_ms"] = sum(e.trace.self_s[k] * e.scale for e in items) / n * 1000
        out[f"{name}.share"] = incl / total
    out["spectrum.minors"] = sum(e.trace.minors for e in items) / n
    for key in ("matrices.transform_bits", "matrices.diagonal_bits", "polynomials.peak_coeff_bits"):
        out[key] = max(e.sizes[key] for e in items)
    lengths = [e.sizes["polynomials.sturm_chain.length"] for e in items]
    with_chains = [v for v in lengths if v]
    out["polynomials.sturm_chain.length"] = (
        sum(with_chains) / len(with_chains) if with_chains else 0
    )
    out["cli.json_bytes"] = sum(e.json_bytes for e in items) / n
    out["trace.matrix_ms.mean"] = total / n * 1000
    return out


def cold_fundamental_units(api, workload) -> dict[str, float]:
    """Pell-search reference time per quadratic ring of the workload, with
    a cold cache."""
    unit = api.package.fundamental_unit
    clear = getattr(unit, "cache_clear", None)
    out = {}
    for name in _quadratic_rings(workload):
        if clear is not None:
            clear()
        before = C.measure()
        start = time.perf_counter()
        unit(api.parse_ring(name))
        elapsed = time.perf_counter() - start
        out[name] = elapsed * C.scale(before, C.measure()) * 1000
    return out


def traced_run(run: Run, seconds: float, declared: list[str]) -> tuple[dict, dict]:
    untraced = run.run_for(seconds / 2)
    units = cold_fundamental_units(run.api, run.workload)
    tracer = S.Tracer()
    tracer.install()
    try:
        traced = run.run_cases(sorted(untraced), tracer)
    finally:
        tracer.remove()
    run.compare(untraced, traced, "between the untraced and the traced run")

    items = [e for e in traced.values() if e is not None]
    if not items:
        return {}, {}
    families: dict[str, list[Execution]] = {}
    for i, e in traced.items():
        if e is not None:
            families.setdefault(_family(run.case(i).cls.ring), []).append(e)
    untraced_times = _times(untraced)
    metrics = layer_metrics(items)
    metrics["quadratic.fundamental_unit.ms"] = sum(units.values())
    metrics["trace.overhead"] = (
        (len(items) / sum(e.seconds * e.scale for e in items))
        / (len(untraced_times) / sum(untraced_times.values()))
    )
    by_family = {}
    for family, family_items in sorted(families.items()):
        values = layer_metrics(family_items)
        values["quadratic.fundamental_unit.ms"] = sum(
            v for r, v in units.items() if _family(r) == family
        )
        by_family[family] = {"matrices": len(family_items)}
        by_family[family].update((k, values[k]) for k in declared if k in values)
    meta = {
        "digests_untraced": _digests(run, untraced),
        "digests_traced": _digests(run, traced),
        "fundamental_unit_ms": units,
        "missing_targets": tracer.missing,
        "slowest": _slowest(run, untraced_times),
        "by_family": by_family,
        "calibration": C.summary(run.cal_samples),
    }
    return metrics, meta


def untraced_run(run: Run, seconds: float) -> tuple[dict, dict]:
    warm = {0: run.execute(0)}  # fills lazy state; compared with the timed run
    run.cal_samples.clear()
    setup: list[tuple] = []
    executions = run.run_for(
        seconds, lambda: setup.append(measure_setup(run.workload, run.cal_samples))
    )
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(measure_setup(run.workload, run.cal_samples))
    run.compare(warm, executions, "between two runs of the same case")
    times = _times(executions)
    if not times:
        return {}, {}
    metrics, extra = end_to_end(list(times.values()), _wall_times(executions), setup)
    per_class: dict[str, list[float]] = {}
    for i, t in times.items():
        c = run.case(i).cls
        per_class.setdefault(f"{c.ring} n={c.n} {c.kind} k={c.k}", []).append(t * 1000)
    meta = {
        **extra,
        "digests": _digests(run, executions),
        "class_median_ms": {k: round(statistics.median(v), 3) for k, v in per_class.items()},
        "verdicts": _verdicts(executions),
        "slowest": _slowest(run, times),
        "calibration": C.summary(run.cal_samples),
    }
    return metrics, meta


def replay(api, workload, seed: int, index: int) -> int:
    """Run one case (checked, then once more timed) and print its output."""
    run = Run(api, workload, seed)
    run.execute(index)
    case = run.case(index)
    elapsed, raw = W.run_timed(api, case, W.prepare(api, case), time.perf_counter)
    print(W.canonical_output(case, raw))
    print(json.dumps({
        "case": index,
        "case_seed": case.case_seed,
        "class": vars(case.cls),
        "ms": elapsed * 1000,
        "failures": run.failures,
    }))
    return 0 if run.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, metavar="CASE", help="run one case and print it")
    args = parser.parse_args(argv)

    spec = _read_spec()
    if not (SRC / "realsnf" / "__init__.py").is_file():
        _fail_setup(f"no realsnf sources under {SRC}; run from a source checkout")
    if args.workload not in W.WORKLOADS:
        _fail_setup(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    workload = W.WORKLOADS[args.workload]

    if not args.trace and args.replay is None:
        measure_setup(workload)  # writes the bytecode caches; not counted
    sys.path.insert(0, str(SRC))
    api = W.Api()
    if not Path(api.package.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail_setup(f"imported realsnf from {api.package.__file__}, not {SRC}")
    for name in _quadratic_rings(workload):  # the first-use set-up measured above
        api.package.fundamental_unit(api.parse_ring(name))
    if args.replay is not None:
        return replay(api, workload, args.seed, args.replay)
    C.warm_up()

    run = Run(api, workload, args.seed)
    if args.trace:
        declared = spec["per_layer"]
        values, meta = traced_run(run, args.seconds, [m["name"] for m in declared])
    else:
        values, meta = untraced_run(run, args.seconds)
        declared = spec["end_to_end"]

    missing = [m["name"] for m in declared if m["name"] not in values]
    if values and missing:
        _fail_setup(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if values}
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process",
        "kernel_backend": getattr(api.package, "kernel_backend", None),
        "python": platform.python_version(),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / max(run.attempted, 1),
        "failures": run.failures,
        **meta,
    }
    print(json.dumps({"meta": meta}))
    ok = run.failed == 0 and bool(values)
    print(json.dumps({
        "correct": ok,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
