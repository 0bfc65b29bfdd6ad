"""Shared machinery: the operation log, metric arithmetic, set-up probes.

Every workload records its timed operations in an :class:`OpLog`, takes
kernel samples at quiet points through :attr:`OpLog.host`, and turns the
log into metrics with :meth:`OpLog.p50` and friends.  Intervals marked
*corrected* are rescaled by the host-speed factor around them (see
``hostspeed.py``); *raw* ones are reported as measured.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from hostspeed import HostSpeed, percentile

#: the benchmark's directory and the checkout it lives in
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: run-time files (span dumps, set-up inputs); listed in .gitignore
OUT_DIR = ROOT / ".perfbench_out"


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


@dataclass
class Op:
    kind: str
    seconds: float
    end: float
    lines: int = 0

    @property
    def mid(self) -> float:
        return self.end - self.seconds / 2


@dataclass
class OpLog:
    """Timed operations, failure accounting and kernel samples of one run."""

    host: HostSpeed = field(default_factory=HostSpeed)
    ops: List[Op] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, kind: str, seconds: float, end: float, lines: int = 0) -> Op:
        op = Op(kind, seconds, end, lines)
        self.ops.append(op)
        return op

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def select(self, kinds: Iterable[str]) -> List[Op]:
        wanted = set(kinds)
        return [op for op in self.ops if op.kind in wanted]

    def ms(self, op: Op, corrected: bool) -> float:
        if not corrected:
            return op.seconds * 1000.0
        return self.host.correct(op.seconds, op.mid) * 1000.0

    def values_ms(self, kinds: Iterable[str], corrected: bool = True) -> List[float]:
        return [self.ms(op, corrected) for op in self.select(kinds)]

    def p50(self, kinds: Iterable[str], corrected: bool = True) -> float:
        values = self.values_ms(kinds, corrected)
        if not values:
            raise CheckFailed(f"no samples of {sorted(kinds)}")
        return statistics.median(values)

    def p90(self, kinds: Iterable[str], corrected: bool = True) -> float:
        values = self.values_ms(kinds, corrected)
        value = percentile(values, 0.9)
        if value is None:
            raise CheckFailed(
                f"p90 of {sorted(kinds)} needs 10 samples beyond it; "
                f"the run has {len(values)}"
            )
        return value

    def busy(self, kinds: Iterable[str]) -> float:
        """Corrected seconds spent in the selected operations."""
        return sum(self.host.correct(op.seconds, op.mid) for op in self.select(kinds))

    def rate(self, kinds: Iterable[str], per_op: Callable[[Op], float]) -> float:
        """Sum of ``per_op`` over the selected operations per corrected
        second of their time (lines/s, ops/s)."""
        return sum(per_op(op) for op in self.select(kinds)) / self.busy(kinds)


@contextlib.contextmanager
def untimed():
    """Pause the collector around untimed checking work.

    A check allocates heavily between two timed operations; with the
    collector running, its temporaries get promoted and the collection
    debt they leave lands inside the next timed operation, which no user
    of the program would pay.  Paused, they are freed by reference
    counting and the timed operations see the program's own GC pattern.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def timed(log: OpLog, kind: str, fn: Callable[[], object], lines: int = 0):
    """Run ``fn`` as one timed operation; returns ``(op, value)``."""
    start = time.perf_counter()
    value = fn()
    end = time.perf_counter()
    return log.record(kind, end - start, end, lines), value


def spread_sizes(bounds: Tuple[int, int], count: int, rng: random.Random) -> List[int]:
    """``count`` class counts spread evenly over ``bounds``, in seeded
    order: a run's percentiles then fall among programs of neighbouring
    sizes rather than on one program of one size."""
    lo, hi = bounds
    sizes = [lo + round((hi - lo) * j / max(1, count - 1)) for j in range(count)]
    rng.shuffle(sizes)
    return sizes


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise CheckFailed(f"geomean needs positive values, got {values!r}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def source_lines(text: str) -> int:
    """Non-blank, non-comment lines (the harness's counting rule)."""
    return sum(
        1
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("//")
    )


def digest(texts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(hashlib.sha256(text.encode("utf-8")).digest())
    return h.hexdigest()[:16]


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident memory of ``pid`` and its descendants."""
    total_kb = 0
    for p in _descendants(pid):
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # exited between listing and reading
    return total_kb / 1024.0


def _descendants(pid: int) -> List[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            with open(f"/proc/{p}/task/{p}/children") as fh:
                todo.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def child_env() -> Dict[str, str]:
    """Environment for processes the benchmark starts: the checkout's
    sources first, and the same fixed hash seed as this process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def probe_setup(log: OpLog, argv: Sequence[str], repeats: int) -> float:
    """Median corrected seconds from process start to its ``ready`` line.

    Each probe is a fresh interpreter running ``setup_probe.py`` (import,
    session, warm-up), so import time is paid every time, as a user pays
    it.  Kernel samples bracket each probe for the correction.
    """
    values = []
    for _ in range(repeats):
        log.host.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), *argv],
            env=child_env(),
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        end = time.perf_counter()
        if proc.returncode != 0 or "ready" not in proc.stdout:
            raise CheckFailed(f"set-up probe failed: {proc.stderr[-500:]}")
        log.host.sample()
        values.append((end - start, end))
    return statistics.median(
        log.host.correct(seconds, end - seconds / 2) for seconds, end in values
    )


def write_text(name: str, text: str) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(text)
    return path
