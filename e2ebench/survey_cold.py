"""``survey-cold``: what ``examples/survey.py`` does, cold, per op.

One op is a fresh :func:`~repro.scenarios.workloads.scenario_run` (its
own memory-only artifact cache, default backends, no workers) resolved
through the ``analyses`` stage: topology, IXPs, propagation,
collectors, looking glasses, registries, inference, the reachability
matrix and the four figure summaries.  A round is one op per family in
:data:`FAMILIES`, all at ``bench`` size.

Round *r* builds its scenarios from seed ``seed * 1000 + r``.  The work
of a bench op follows the generated topology (link counts differ by
about 10% from one seed to the next), so a run that rebuilt one seed's
topologies would measure that seed; drawing a new topology per round
averages over a few.
"""

from __future__ import annotations

import gc
import statistics
import time
import traceback

from measure import Outcome, add_links, import_probe_seconds, peak_rss_mb

FAMILIES = ("europe2013", "hypergiant2016", "sparse-view")
SIZE = "bench"
SETUPS = 3


def check(run, summaries) -> bool:
    """Properties the inference must have, made apart from the program.

    Every inferred link at an IXP joins two route-server members of that
    IXP (ground-truth membership from the generator) and both directions
    are ALLOW in the IXP's reachability plane — the reciprocity rule
    under the default inference options.  The figure summaries cover
    the same link set as the matrix.
    """
    scenario = run.scenario()
    matrix = run.reachability()
    for ixp_name, links in matrix.links_by_ixp().items():
        members = set(scenario.graph.rs_members_of_ixp(ixp_name))
        plane = matrix.planes[ixp_name]
        for a, b in links:
            if a not in members or b not in members:
                return False
            if not (plane.allows(a, b) and plane.allows(b, a)):
                return False
    return (set(summaries) == {"table2", "visibility", "degrees", "density"}
            and summaries["table2"]["total_links"] == len(matrix.all_links()))


def survey_op(family: str, seed: int):
    from repro.scenarios.workloads import scenario_run
    run = scenario_run(SIZE, seed, scenario=family)
    return run, run.analyses()


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    outcome = Outcome(setup_s=statistics.median(
        import_probe_seconds() for _ in range(SETUPS)))
    import repro.scenarios.workloads  # noqa: F401  (imported before timing)

    cpu_in_ops = 0.0
    measuring = time.perf_counter()
    round_index = 0
    while time.perf_counter() - measuring < seconds:
        scenario_seed = seed * 1000 + round_index
        round_index += 1
        for family in FAMILIES:
            outcome.attempted += 1
            gc.collect()
            started, cpu = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    result = survey_op(family, scenario_seed)
                else:
                    with tracer.root("op"):
                        result = survey_op(family, scenario_seed)
            except Exception:
                traceback.print_exc()
                outcome.failed += 1
                continue
            outcome.op_seconds.append(time.perf_counter() - started)
            cpu_in_ops += time.process_time() - cpu
            run_handle, summaries = result
            if not check(run_handle, summaries):
                outcome.failed += 1
                outcome.wrong += 1
            add_links(outcome, run_handle.reachability().all_links(),
                      run_handle.scenario().ground_truth_links())
            del run_handle, summaries, result
    outcome.cpu_seconds = cpu_in_ops
    outcome.peak_rss_mb = peak_rss_mb()
    return outcome
