"""compile-cold: source text in, verified and pretty-printed target out.

Every operation uses a fresh ``Session`` on a freshly collected heap, as
one ``repro check`` or ``repro infer`` invocation does, so nothing is
cached, and no garbage carried, between programs.
The inputs are the paper's 20 programs (RegJava for Fig 8, Olden for
Fig 9), compiled once per cycle, and seeded generated programs, which
carry most of the lines: pristine ones of 10-100 classes, and 50-class
ones after a one-literal edit (``edit_script``), as a user re-running
the compiler after editing does.  Each edited program is then asked for
twice more on the same session, which are cache hits.

Operation kinds: ``cold`` (paper programs and pristine generated ones),
``edit`` (edited generated ones, still a fresh session) and ``hit``.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import Interpreter, Session, SourceInterpreter, parse_program, pretty_target
from repro.bench import OLDEN_PROGRAMS, REGJAVA_PROGRAMS
from repro.gen import GenSpec, edit_script, generate_source
from repro.runtime import value_snapshot

from common import CheckFailed, OpLog, geomean, source_lines, spread_sizes, timed, untimed
from tracing import NullTracer, count_cache, count_result, infer_traffic

#: The mix per cycle is a choice, not measured usage: the 20 paper
#: programs once each, and 3 pristine plus 2 edited generated programs,
#: which carry most of the lines (4-9k of a cycle's 5.5-10.7k at seed
#: 101), with two cache hits after each edited program.
#:
#: pristine generated programs: class counts spread evenly over this
#: range, COLD_PER_CYCLE of them per cycle
GEN_CLASSES = (10, 100)
COLD_PER_CYCLE = 3
#: edited generated programs: all of one size, so that their median (and
#: the cache hits that follow them) averages many like operations
EDIT_CLASSES = 50
EDITS_PER_CYCLE = 2
#: cache hits after each edited program: short operations, so more of them
HITS_PER_EDIT = 2
#: one cycle is 20 paper programs + 5 generated ones; about 4 s on the
#: reference host, checks included
SECONDS_PER_CYCLE = 4.0
#: 4 x 25 = 100 compiles, so op_p90_ms has ten samples beyond it
MIN_CYCLES = 4
#: the generated programs' entry argument in the bisimulation check
GEN_ARGS = (2,)

COMPILE_KINDS = ("cold", "edit")


@dataclass(frozen=True)
class Item:
    kind: str
    key: str
    source: str
    entry: str
    args: Tuple[int, ...]
    expected: Optional[int] = None
    paper: bool = False


def cycles_for(seconds: int) -> int:
    return max(MIN_CYCLES, round(seconds / SECONDS_PER_CYCLE))


def paper_items() -> List[Item]:
    """The paper's 20 programs (Fig 8 RegJava, Fig 9 Olden) with their
    test arguments."""
    return [
        Item("cold", p.name, p.source, p.entry, tuple(p.test_args),
             p.expected_test_result, paper=True)
        for p in (*REGJAVA_PROGRAMS.values(), *OLDEN_PROGRAMS.values())
    ]


def make_inputs(seed: int, cycles: int) -> List[List[Item]]:
    """The seeded operation sequence, one list per cycle."""
    rng = random.Random(f"perfbench:compile-cold:{seed}")
    sizes = spread_sizes(GEN_CLASSES, COLD_PER_CYCLE * cycles, rng)
    pristine = [
        Item("cold", f"gen{j}", generate_source(GenSpec.sized(size, seed=seed * 10_007 + j)),
             "main", GEN_ARGS)
        for j, size in enumerate(sizes)
    ]
    edited = [
        Item("edit", f"edit{j}",
             edit_script(GenSpec.sized(EDIT_CLASSES, seed=seed * 10_007 + 5_000 + j), 1)[1],
             "main", GEN_ARGS)
        for j in range(EDITS_PER_CYCLE * cycles)
    ]
    out = []
    for c in range(cycles):
        items = (
            paper_items()
            + pristine[c * COLD_PER_CYCLE:(c + 1) * COLD_PER_CYCLE]
            + edited[c * EDITS_PER_CYCLE:(c + 1) * EDITS_PER_CYCLE]
        )
        rng.shuffle(items)
        out.append(items)
    return out


def compile_source(source: str, tracer) -> Tuple[Session, object, str]:
    """The user's operation: fresh session, infer, verify, pretty-print."""
    session = Session()
    pipe = session.pipeline(source)
    result = pipe.infer().unwrap()
    verify = pipe.verify()
    if verify.value is None or not verify.value.ok:
        raise CheckFailed(f"verification failed: {verify.diagnostics[:1]}")
    with tracer.span("lang.pretty"):
        text = pretty_target(result.target)
    return session, result, text


@dataclass
class RuntimeTally:
    """What the checking runs on the region runtime did, summed."""

    execute_ms: float = 0.0
    objects_allocated: int = 0
    regions_created: int = 0
    runs: int = 0

    def per_run(self) -> Dict[str, float]:
        n = max(1, self.runs)
        return {
            "runtime.execute_ms": self.execute_ms / n,
            "runtime.objects_allocated": self.objects_allocated / n,
            "runtime.regions_created": self.regions_created / n,
        }


def check_run(item: Item, result, tally: RuntimeTally, against_source: bool = True) -> float:
    """Run the target with the dangling oracle armed (and, by default,
    against the source interpreter); returns the run's space-usage ratio."""
    start = time.perf_counter()
    interp = Interpreter(result.target, check_dangling=True)
    value = value_snapshot(interp.run_static(item.entry, list(item.args)))
    tally.execute_ms += (time.perf_counter() - start) * 1000.0
    tally.objects_allocated += interp.stats.objects_allocated
    tally.regions_created += interp.stats.regions_created
    tally.runs += 1
    if against_source:
        expected = value_snapshot(
            SourceInterpreter(parse_program(item.source)).run_static(item.entry, list(item.args))
        )
        if value != expected:
            raise CheckFailed(f"{item.key}: target gave {value!r}, source {expected!r}")
    if item.expected is not None and value != ("int", item.expected):
        raise CheckFailed(f"{item.key}: expected {item.expected}, got {value!r}")
    return interp.stats.space_usage_ratio


class CompileCold:
    name = "compile-cold"

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.cycles = make_inputs(seed, cycles_for(seconds))
        #: first output text per program, so repeats are checked cheaply
        self.texts: Dict[str, str] = {}
        self.space_ratios: Dict[str, float] = {}
        self.runtime = RuntimeTally()

    def input_texts(self) -> List[str]:
        return [item.source for cycle in self.cycles for item in cycle]

    def warm_up(self) -> None:
        compile_source(REGJAVA_PROGRAMS["sieve"].source, NullTracer())

    def run_pass(self, log: OpLog, cycles: List[List[Item]], tracer) -> None:
        for items in cycles:
            for item in items:
                self._one(log, item, tracer)

    def _one(self, log: OpLog, item: Item, tracer) -> None:
        # each compile starts from a collected heap, as a fresh ``repro``
        # process does, instead of paying for the previous one's garbage
        gc.collect()
        log.attempted += 1
        tracer.op = len(log.ops)
        try:
            with tracer.span("op"):
                op, (session, result, text) = timed(
                    log, item.kind, lambda: compile_source(item.source, tracer),
                    lines=source_lines(item.source),
                )
            count_result(tracer, result, text)
            count_cache(tracer, session.stats)
            tracer.op = None
            with untimed():
                self._check(item, result, text)
            for _ in range(HITS_PER_EDIT if item.kind == "edit" else 0):
                log.attempted += 1
                tracer.op = len(log.ops)
                before = infer_traffic(session.stats)
                with tracer.span("op"):
                    _, hit = timed(
                        log, "hit", lambda: pretty_target(session.infer(item.source).target)
                    )
                count_cache(tracer, session.stats, before)
                if hit != text:
                    raise CheckFailed(f"{item.key}: cache hit differs from the cold answer")
        except Exception as err:  # noqa: BLE001 -- every failure is counted
            log.fail(f"{item.key}: {type(err).__name__}: {err}")
        finally:
            tracer.op = None
            log.host.sample()

    def _check(self, item: Item, result, text: str) -> None:
        seen = self.texts.get(item.key)
        if seen is not None:
            if seen != text:
                raise CheckFailed(f"{item.key}: output differs from its first compile")
            return
        ratio = check_run(item, result, self.runtime)
        self.texts[item.key] = text
        if item.paper:
            self.space_ratios[item.key] = ratio

    # -- what the runner asks of a workload ------------------------------------
    main_kinds = COMPILE_KINDS

    def units(self) -> List[List[Item]]:
        return self.cycles

    def probe_argv(self) -> List[str]:
        return ["compile"]

    def finish(self, log: OpLog) -> None:
        """Every check runs inline; nothing is left for the end."""

    def e2e(self, log: OpLog) -> Dict[str, float]:
        return {
            "op_p50_ms": log.p50(COMPILE_KINDS),
            "op_p90_ms": log.p90(COMPILE_KINDS),
            "cold_p50_ms": log.p50(["cold"]),
            "edit_p50_ms": log.p50(["edit"]),
            "hit_p50_ms": log.p50(["hit"]),
            "lines_per_s": log.rate(COMPILE_KINDS, lambda op: op.lines),
            "ops_per_s": log.rate(COMPILE_KINDS, lambda op: 1),
            "space_ratio_geomean": geomean(list(self.space_ratios.values())),
        }

    def layers(self) -> Dict[str, float]:
        return self.runtime.per_run()
