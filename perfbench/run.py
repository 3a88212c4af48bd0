"""Benchmark of the hopfexact pipeline: build, axioms, exactness, replay,
compare.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kp-dim8 --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): kp-dim8, small-mixed, replay-symbolic, or
``--workload all`` for the three in turn.  Each is a fixed list of verdicts;
a pass computes all of them in one thread and every verdict is then checked
against the known answers (oracle.py).  Before every pass the ``hopfexact``
modules are dropped from ``sys.modules`` and imported again, so each pass
starts from the state a fresh command-line run sees: no replay cache, no
cached multiplication matrices, no other module-level state.  Passes repeat
until ``--seconds`` of pass time have been measured.  Set-up is timed before
the first pass, before each pass and after the last one.

With ``--trace 0`` the last line of output carries the end-to-end metrics:
``pass_s`` (median time to every verdict), ``setup_s`` (median time to import
the package and build the catalog and inputs) and ``peak_rss_mib`` (the
process peak, so with ``--workload all`` it covers every workload run so
far).  ``pass_s`` and ``setup_s`` are corrected for the speed of the shared
host as hostspeed.py measures it while they run.  The line before the last
is a fuller report with the raw times (``pass_raw_s``, ``setup_raw_s``), the
host's slowdown over its nominal speed, the per-stage times, the refusals
and ``ops_failed_frac``.  With ``--trace 1`` one untraced pass is
followed by one pass traced by tracer.py; the last line carries the per-layer
metrics and the spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.

Typed ``HopfExactError`` refusals count as failed verdicts.  A wrong verdict,
a pass that starts from cached state, or (traced) a layer that recorded no
work sets ``"correct": false`` and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import workloads
from hostspeed import HostSpeed
from tracer import Tracer

PACKAGE = "hopfexact"
MODULES = ("errors", "field", "linalg", "algebra", "hopf", "comodule",
           "exactness", "poly", "morita", "constructions", "replay")
# set-up is timed this many times before the first pass and again after
# the last, besides once before every pass
SETUP_SAMPLES = 4
TRACE_DIR = Path(".perfbench")

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# per-layer metric -> (unit, how it is read from the tracer)
PER_LAYER = {
    "field.mul_n": ("count", "count:field.mul"),
    "field.inv_n": ("count", "count:field.inv"),
    "field.layer_mul_n": ("count", "count:field.layer_mul"),
    "field.mul_us": ("us", "micro:base"),
    "field.layer_mul_us": ("us", "micro:layer"),
    "linalg.rref_n": ("count", "count:linalg.rref"),
    "linalg.rref_s": ("s", "self:linalg.rref"),
    "linalg.rref_cells": ("count", "count:linalg.rref_cells"),
    "linalg.matmul_n": ("count", "count:linalg.matmul"),
    "linalg.matmul_s": ("s", "self:linalg.matmul"),
    "linalg.spin_s": ("s", "self:linalg.spin"),
    "algebra.closure_n": ("count", "count:algebra.closure"),
    "algebra.closure_s": ("s", "self:algebra.closure"),
    "algebra.closure_yield": ("ratio", "yield"),
    "hopf.check_s": ("s", "self:hopf.check"),
    "comodule.check_s": ("s", "self:comodule.check"),
    "exactness.burnside_n": ("count", "count:exactness.burnside"),
    "exactness.burnside_s": ("s", "self:exactness.burnside"),
    "exactness.witness_n": ("count", "count:exactness.witness"),
    "exactness.witness_s": ("s", "self:exactness.witness"),
    "morita.split_s": ("s", "self:morita.split"),
    "morita.intertwiners_n": ("count", "count:morita.intertwiners"),
    "morita.intertwiners_s": ("s", "self:morita.intertwiners"),
    "morita.fusion_s": ("s", "self:morita.fusion"),
    "morita.iso_s": ("s", "self:morita.iso"),
    "morita.iso_refused_n": ("count", "count:morita.iso_refused"),
    "poly.mul_n": ("count", "count:poly.mul"),
    "poly.mul_s": ("s", "self:poly.mul"),
    "poly.solve_n": ("count", "count:poly.solve"),
    "poly.solve_s": ("s", "self:poly.solve"),
    "replay.constraints_s": ("s", "self:replay.constraints"),
    "replay.eliminate_n": ("count", "count:replay.eliminate"),
    "replay.eliminate_s": ("s", "self:replay.eliminate"),
    "replay.verify_s": ("s", "self:replay.verify"),
    "constructions.catalog_s": ("s", "self:constructions.catalog"),
    "stage.axioms_s": ("s", "stage:axioms"),
    "stage.exactness_s": ("s", "stage:exactness"),
    "stage.compare_s": ("s", "stage:compare"),
    "stage.replay_s": ("s", "stage:replay"),
    "trace.untraced_pass_s": ("s", "untraced"),
    "trace.traced_pass_s": ("s", "traced"),
    "trace.overhead_s": ("s", "overhead"),
}

clock = time.perf_counter


def fresh_import() -> SimpleNamespace:
    """Import hopfexact anew, discarding every module object (and so every
    module-level cache) left by an earlier import."""
    for key in [k for k in sys.modules
                if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                              for m in MODULES})


def setup(workload: str, seed: int):
    """Import the package and build the workload; returns the modules, the
    workload and the start and end of the set-up."""
    start = clock()
    hx = fresh_import()
    wl = workloads.build(hx, workload, seed)
    return hx, wl, (start, clock())


def cache_guard(hx, wl) -> list[str]:
    """Reasons why a pass would not start from a fresh command-line state."""
    problems = []
    if getattr(hx.replay, "_REPLAY_CACHE", None):
        problems.append("replay cache is filled before the pass")
    filled = [repr(a) for a in wl.inputs
              if getattr(a, "_mult_matrix", None) is not None]
    if filled:
        problems.append(f"multiplication matrix cached before the pass: "
                        f"{filled}")
    return problems


@dataclass
class Pass:
    start: float
    seconds: float
    cpu_seconds: float
    stage_s: dict
    results: dict
    refusals: list


def run_pass(hx, wl) -> Pass:
    refusal = hx.errors.HopfExactError
    stage_s = dict.fromkeys(workloads.STAGES, 0.0)
    results, refusals = {}, []
    gc.collect()
    start, cpu_start = clock(), time.process_time()
    for op in wl.ops:
        t = clock()
        try:
            results[op.name] = op.run(results)
        except refusal as exc:
            refusals.append({"op": op.name, "error": type(exc).__name__,
                             "message": str(exc)})
        stage_s[op.stage] += clock() - t
    return Pass(start, clock() - start, time.process_time() - cpu_start,
                stage_s, results, refusals)


def wrong_verdicts(wl, p: Pass) -> list[str]:
    wrong = []
    for op in wl.ops:
        if op.name in p.results:
            why = op.check(p.results[op.name])
            if why:
                wrong.append(f"{op.name}: {why}")
    return wrong


def transported_axiom_failures(hx, wl) -> list[str]:
    check = hx.comodule.check_comodule_algebra
    return [f"transported {name}: {problems}"
            for name, a in wl.transported.items() if (problems := check(a))]


def measured_pass(workload: str, seed: int, errors: list[str]):
    """Fresh set-up, cache guard, one untraced pass, verdict checks."""
    hx, wl, setup_span = setup(workload, seed)
    errors += cache_guard(hx, wl)
    p = run_pass(hx, wl)
    errors += wrong_verdicts(wl, p)
    # checked: keep the names only, so a later pass does not run with this
    # one's verdicts still in memory
    p.results = dict.fromkeys(p.results)
    return p, setup_span


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def field_mul_us(hx, seed: int, layer: bool, count: int = 3000) -> float:
    """Median over five rounds of the time of one field multiplication, on
    seeded elements of Q(i) or of Q(i, sqrt(1 + i))."""
    ctx = hx.field.FieldContext(4)
    if layer:
        ctx = hx.field.adjoin_sqrt(ctx, ctx.one() + ctx.i())
    rng = random.Random(f"{seed}:field:{layer}")
    pool = [ctx.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(ctx.dim)]) for _ in range(64)]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(count)]
    rounds = []
    for _ in range(5):
        start = clock()
        for x, y in pairs:
            x * y
        rounds.append((clock() - start) / count * 1e6)
    return statistics.median(rounds)


def timed_setups(workload: str, seed: int) -> list[tuple[float, float]]:
    return [setup(workload, seed)[2] for _ in range(SETUP_SAMPLES)]


def plain_run(workload: str, seed: int, seconds: float):
    errors: list[str] = []
    with HostSpeed() as host:
        hx, wl, setup_span = setup(workload, seed)
        errors += transported_axiom_failures(hx, wl)
        del hx, wl
        setups = [setup_span, *timed_setups(workload, seed)]
        passes = []
        while not passes or sum(p.seconds for p in passes) < seconds:
            p, setup_span = measured_pass(workload, seed, errors)
            setups.append(setup_span)
            passes.append(p)
        setups += timed_setups(workload, seed)
    pass_spans = [(p.start, p.start + p.seconds) for p in passes]
    metrics = {
        "pass_s": statistics.median(host.corrected(*s) for s in pass_spans),
        "setup_s": statistics.median(host.corrected(*s) for s in setups),
        "peak_rss_mib": peak_rss_mib(),
    }
    raw = {
        "pass_raw_s": statistics.median(p.seconds for p in passes),
        "setup_raw_s": statistics.median(end - start for start, end in setups),
        "host_slowdown": statistics.median(host.slowdown(*s)
                                           for s in pass_spans),
        "host_samples": len(host.samples),
    }
    return metrics, raw, passes, errors


def layer_value(source: str, tracer: Tracer, stage_s: dict,
                timings: dict) -> float:
    kind, _, key = source.partition(":")
    if kind == "count":
        return tracer.counts[key]
    if kind == "self":
        return tracer.self_s[key]
    if kind == "stage":
        return stage_s[key]
    if kind == "micro":
        return timings[f"micro_{key}"]
    if kind == "yield":
        tried = tracer.counts["algebra.closure_candidates"]
        return tracer.counts["algebra.closure_basis"] / tried if tried else 0.0
    return timings[kind]


def traced_run(workload: str, seed: int):
    errors: list[str] = []
    hx, wl, _ = setup(workload, seed)
    errors += transported_axiom_failures(hx, wl)
    del hx, wl
    untraced, _ = measured_pass(workload, seed, errors)

    hx = fresh_import()
    tracer = Tracer(hx)
    tracer.install()
    wl = workloads.build(hx, workload, seed)
    errors += cache_guard(hx, wl)
    traced = run_pass(hx, wl)
    tracer.uninstall()
    errors += wrong_verdicts(wl, traced)
    missing = [name for name in workloads.EXPECTED_LAYERS[workload]
               if not tracer.counts[name]]
    if missing:
        errors.append(f"layers that recorded no calls: {missing}")

    timings = {
        "untraced": untraced.seconds,
        "traced": traced.seconds,
        "overhead": traced.seconds - untraced.seconds,
        "micro_base": field_mul_us(hx, seed, layer=False),
        "micro_layer": field_mul_us(hx, seed, layer=True),
    }
    metrics = {name: layer_value(source, tracer, untraced.stage_s, timings)
               for name, (_, source) in PER_LAYER.items()}
    tracer.dump(TRACE_DIR / f"trace-{workload}-seed{seed}.json",
                {"workload": workload, "seed": seed, "metrics": metrics})
    return metrics, {}, [untraced, traced], errors


def report(workload: str, seed: int, trace: int, metrics: dict, raw: dict,
           passes: list, errors: list) -> tuple[dict, dict]:
    """The full report (every end-to-end metric with its unit, taken from
    the first, untraced pass, the raw times and the host's slowdown, plus
    the refusals and any wrong verdicts) and the result line."""
    attempted = sum(len(p.results) + len(p.refusals) for p in passes)
    failed = sum(len(p.refusals) for p in passes)
    first = passes[0]
    e2e = {name: metrics[name] for name in END_TO_END_UNITS
           if name in metrics}
    e2e.setdefault("pass_s", first.seconds)
    e2e["pass_cpu_s"] = first.cpu_seconds
    e2e.update({f"{stage}_s": first.stage_s[stage]
                for stage in workloads.STAGES})
    e2e["ops_failed_frac"] = failed / attempted
    e2e.update(raw)
    units = {**END_TO_END_UNITS, "ops_failed_frac": "ratio",
             "host_slowdown": "ratio", "host_samples": "count"}
    full = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "metrics": {name: {"value": value, "unit": units.get(name, "s")}
                    for name, value in e2e.items()},
        "ops_failed": failed,
        "ops_attempted": attempted,
        "refusals": first.refusals,
        "errors": errors,
    }
    if trace:
        full["tracing_overhead_s"] = metrics["trace.overhead_s"]
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return full, result


def main(argv=None) -> int:
    names = sorted(workloads.EXPECTED_LAYERS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / PACKAGE).is_dir():
        print(f"no {PACKAGE} sources under {src}; run from the repository "
              f"root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    all_correct = True
    for workload in names if args.workload == "all" else [args.workload]:
        if args.trace:
            metrics, raw, passes, errors = traced_run(workload, args.seed)
        else:
            metrics, raw, passes, errors = plain_run(workload, args.seed,
                                                     args.seconds)
        full, result = report(workload, args.seed, args.trace, metrics, raw,
                              passes, errors)
        print(json.dumps(full))
        print(json.dumps(result), flush=True)
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
