#!/usr/bin/env python3
"""End-to-end benchmark of the MLP inference system.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload survey-cold --seed 1 --seconds 30
    python3 e2ebench/run.py --workload event-replay --seed 1 --trace 1

Workloads (see README.md): ``survey-cold`` (cold scenario builds
through the analyses, three families), ``event-replay`` (failover
cycles through the delta engine) and ``query-serve`` (the query daemon
under a one-client closed loop).

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run, a self-time table is printed before it and every span
and counter is written as JSON lines under ``.e2ebench/``.  A
calibration line (a fixed Python and numpy loop, timed at the start and
the end of the run) is printed before the result; it is not a metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

STARTED = time.perf_counter()

from measure import SRC, WORK, Outcome, calibrate  # noqa: E402

WORKLOADS = ("survey-cold", "event-replay", "query-serve")

#: per-layer metric -> (unit, source, name).  Sources: ``ms`` self time
#: per root span, ``count`` counted calls per root, ``calls`` span calls
#: per root, ``us`` self microseconds per call, ``extra`` a value the
#: workload measured itself, ``overhead`` traced minus untraced op p50.
#: ``pipeline.run.other_ms`` is the self time of the op root span: the
#: part of an op that no wrapped layer accounts for.
LAYER_METRICS = {
    "topology.generate_ms": ("ms", "ms", "topology.generate"),
    "ixp.build_ms": ("ms", "ms", "ixp.build"),
    "ixp.encode_policy_calls": ("count", "count", "ixp.encode_policy"),
    "runtime.csr.build_ms": ("ms", "ms", "runtime.csr.build"),
    "topology.get_link_calls": ("count", "count", "topology.get_link"),
    "topology.customers_calls": ("count", "count", "topology.customers"),
    "bgp.propagation.propagate_ms": ("ms", "ms", "bgp.propagation.propagate"),
    "collectors.collect_ms": ("ms", "ms", "collectors.collect"),
    "collectors.ribentry_views": ("count", "count", "collectors.ribentry_view"),
    "ixp.looking_glass.load_ms": ("ms", "ms", "ixp.looking_glass.load"),
    "core.passive.extract_ms": ("ms", "ms", "core.passive.extract"),
    "core.active.collect_ms": ("ms", "ms", "core.active.collect"),
    "core.active.lg_queries": ("count", "count", "core.active.lg_query"),
    "core.communities.fingerprint_calls":
        ("count", "count", "core.communities.fingerprint"),
    "core.reachability.merge_ms": ("ms", "ms", "core.reachability.merge"),
    "runtime.reachmatrix.build_ms": ("ms", "ms", "runtime.reachmatrix.build"),
    "analysis.table2_ms": ("ms", "ms", "analysis.table2"),
    "analysis.visibility_ms": ("ms", "ms", "analysis.visibility"),
    "analysis.degrees_ms": ("ms", "ms", "analysis.degrees"),
    "analysis.density_ms": ("ms", "ms", "analysis.density"),
    "pipeline.run.other_ms": ("ms", "ms", "op"),
    "scenarios.events.state_apply_ms":
        ("ms", "ms", "scenarios.events.state_apply"),
    "runtime.csr.splice_ms": ("ms", "ms", "runtime.csr.splice"),
    "runtime.csr.splices": ("count", "calls", "runtime.csr.splice"),
    "runtime.csr.rebuilds": ("count", "calls", "runtime.csr.build"),
    "runtime.delta.affected_ms": ("ms", "ms", "runtime.delta.affected"),
    "runtime.delta.patch_ms": ("ms", "ms", "runtime.delta.patch"),
    "runtime.delta.origins_recomputed":
        ("count", "extra", "runtime.delta.origins_recomputed"),
    "runtime.delta.origins_reused":
        ("count", "extra", "runtime.delta.origins_reused"),
    "service.artifact.save_ms": ("ms", "ms", "service.artifact.save"),
    "service.artifact.load_ms": ("ms", "ms", "service.artifact.load"),
    "service.artifact.verify_ms": ("ms", "ms", "service.artifact.verify"),
    "service.artifact.bytes": ("bytes", "extra", "service.artifact.bytes"),
    **{f"service.daemon.{step}_us.{endpoint}":
       ("us", "us", f"service.daemon.{step}.{endpoint}")
       for step in ("dispatch", "encode")
       for endpoint in ("has_link", "links_of", "table2", "peer_counts",
                        "member_densities")},
    "service.daemon.response_bytes":
        ("bytes", "extra", "service.daemon.response_bytes"),
    "trace.overhead_ms": ("ms", "overhead", ""),
}


def _shown(metric) -> str:
    if metric["value"] is None:
        return f"n/a {metric['unit']}"
    return f"{metric['value']:.6f} {metric['unit']}"


def _workload_module(name: str):
    if name == "survey-cold":
        import survey_cold as module
    elif name == "event-replay":
        import event_replay as module
    else:
        import query_serve as module
    return module


def layer_metrics(tracer, untraced: Outcome, traced: Outcome):
    """Every per-layer metric from a traced run (0 where the workload
    does not reach that layer)."""
    # Per op as the workload timed it (an event-replay op spans two root
    # spans so that its mid-failover check stays outside the ledger).
    roots = {"op": len(traced.op_seconds),
             "setup": tracer.calls.get(("setup", "setup"), 0)}

    def per_root(table, name):
        return sum(table.get((kind, name), 0) / count
                   for kind, count in roots.items() if count)

    extras = {**untraced.extras, **traced.extras}
    metrics = {}
    for metric, (unit, source, name) in LAYER_METRICS.items():
        if source == "ms":
            value = per_root(tracer.self_seconds, name) * 1e3
        elif source == "count":
            value = per_root(tracer.counts, name)
        elif source == "calls":
            value = tracer.calls.get(("op", name), 0) / max(roots["op"], 1)
        elif source == "us":
            calls = tracer.calls.get(("op", name), 0)
            value = tracer.self_seconds.get(("op", name), 0.0) * 1e6 / calls \
                if calls else 0.0
        elif source == "extra":
            value = extras.get(name, 0.0)
        elif traced.op_seconds and untraced.op_seconds:
            value = (statistics.median(traced.op_seconds)
                     - statistics.median(untraced.op_seconds)) * 1e3
        else:
            value = None
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def traced_run(module, workload: str, seed: int, seconds: float):
    """Untraced then traced halves; returns (metrics, attempted, failed,
    wrong)."""
    from spans import Tracer
    tracer = Tracer()
    if hasattr(module, "ledger"):
        untraced, traced = module.ledger(seed, seconds, tracer)
    else:
        untraced = module.run(seed, seconds / 2)
        tracer.install()
        try:
            traced = module.run(seed, seconds / 2, tracer)
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer, untraced, traced)
    for line in tracer.table("op", len(traced.op_seconds)):
        print(line)
    if tracer.calls.get(("setup", "setup")):
        for line in tracer.table("setup", tracer.calls[("setup", "setup")]):
            print(line)
    WORK.mkdir(exist_ok=True)
    dump = WORK / f"trace-{workload}-{seed}-{os.getpid()}.jsonl"
    tracer.dump(dump)
    print(f"trace: {len(tracer.spans)} spans written to {dump}")
    print(f"trace overhead: {_shown(metrics['trace.overhead_ms'])} "
          f"on op p50 (traced minus untraced)")
    return (metrics, untraced.attempted + traced.attempted,
            untraced.failed + traced.failed, untraced.wrong + traced.wrong)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    calibration = {"start": calibrate()}
    module = _workload_module(args.workload)
    if args.trace:
        metrics, attempted, failed, wrong = traced_run(
            module, args.workload, args.seed, args.seconds)
    else:
        outcome = module.run(args.seed, args.seconds)
        metrics = outcome.metrics()
        attempted, failed, wrong = \
            outcome.attempted, outcome.failed, outcome.wrong
        print(f"{args.workload}: {len(outcome.op_seconds)} ops timed")
        for name, metric in metrics.items():
            print(f"  {name:<18} {_shown(metric):>18}")
    calibration["end"] = calibrate()
    steal = calibration["end"]["steal_s"] - calibration["start"]["steal_s"]
    print(f"calibration (not a metric): {json.dumps(calibration)} "
          f"steal during run {steal:.2f}s, "
          f"wall {time.perf_counter() - STARTED:.1f}s")
    # A metric the surviving ops cannot give (every op failed, or no
    # link came out) is null, and the run exits 1 after the counts.
    measured = all(metric["value"] is not None for metric in metrics.values())
    print(json.dumps({"correct": wrong == 0 and measured,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if measured else 1


if __name__ == "__main__":
    sys.exit(main())
