"""Measurement helpers shared by the workloads: statistics, process
readings from ``/proc``, the calibration loop and the import probe."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: scratch space for artifacts and trace dumps, inside the checkout.
WORK = ROOT / ".e2ebench"

#: the modules the workloads need before their first op (what the import
#: probe loads in a fresh interpreter).
PROGRAM_IMPORTS = ("repro.pipeline.run", "repro.scenarios.workloads",
                   "repro.scenarios.events", "repro.analysis.visibility")


@dataclass
class Outcome:
    """What one untraced run measured."""

    setup_s: float
    op_seconds: List[float] = field(default_factory=list)
    cpu_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: ops whose output failed a check (a subset of ``failed``).
    wrong: int = 0
    true_positives: int = 0
    inferred: int = 0
    reference: int = 0
    #: workload-specific per-layer values (name -> value per op).
    extras: Dict[str, float] = field(default_factory=dict)

    def metrics(self) -> Dict[str, Dict[str, object]]:
        """Every end-to-end metric; ``None`` for one that this run's
        surviving ops cannot give (fewer than two timed ops, or no link
        inferred or expected)."""
        ops = sorted(self.op_seconds)
        timed = len(ops) >= 2
        if timed:
            # Inclusive (linear-interpolation) deciles: with the dozen
            # ops of a survey-cold run p90 falls between the 10th and
            # 11th of 12 instead of next to the slowest op.
            deciles = statistics.quantiles(ops, n=10, method="inclusive")
        values = {
            "setup_s": (self.setup_s, "s"),
            "op_p50_ms": (statistics.median(ops) * 1e3 if timed else None,
                          "ms"),
            "op_p90_ms": (deciles[8] * 1e3 if timed else None, "ms"),
            "ops_per_s": (len(ops) / sum(ops) if timed else None, "1/s"),
            "op_cpu_ms": (self.cpu_seconds * 1e3 / len(ops)
                          if timed else None, "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
            "links_precision": (self.true_positives / self.inferred
                                if self.inferred else None, "ratio"),
            "links_recall": (self.true_positives / self.reference
                             if self.reference else None, "ratio"),
        }
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()}


def add_links(outcome: Outcome, produced, reference) -> None:
    """Pool one op's link set against its reference set."""
    produced, reference = set(produced), set(reference)
    outcome.true_positives += len(produced & reference)
    outcome.inferred += len(produced)
    outcome.reference += len(reference)


# -- /proc readings ------------------------------------------------------------


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_seconds(pid: int) -> float:
    """utime + stime of another process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- calibration ---------------------------------------------------------------


def calibrate() -> Dict[str, float]:
    """Median times (ms) of a fixed pure-Python loop and a fixed numpy
    loop over five repeats, plus the machine's cumulative steal time.

    Not a metric: printed at the start and end of every run so that two
    sets of runs that disagree can be told apart by whether the machine
    itself got slower (or lent its CPUs to someone else).
    """
    import numpy as np
    python_ms, numpy_ms = [], []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += (i * i) % 7
        python_ms.append((time.perf_counter() - started) * 1e3)
        data = np.arange(200_000, dtype=np.int64)
        started = time.perf_counter()
        for _ in range(5):
            data = np.sort((data * 2654435761) % 1_000_003)
        numpy_ms.append((time.perf_counter() - started) * 1e3)
    with open("/proc/stat") as stat:
        steal_ticks = int(stat.readline().split()[8])
    return {"python_ms": round(statistics.median(python_ms), 3),
            "numpy_ms": round(statistics.median(numpy_ms), 3),
            "steal_s": steal_ticks / os.sysconf("SC_CLK_TCK")}


# -- set-up probes -------------------------------------------------------------


def import_probe_seconds() -> float:
    """Wall time of a fresh interpreter importing the program, from
    process start to exit."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            + "; ".join(f"import {name}" for name in PROGRAM_IMPORTS))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True,
                   stdin=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - started
