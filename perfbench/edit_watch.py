"""edit-watch: the ``repro watch`` path, one saved edit in, result out.

Each of two 100-class generated documents gets one long-lived
``Session`` that re-infers it on every save (``Session.reinfer``), as
``repro watch`` does.  The seeded save sequence is mostly one-literal
edits from ``edit_script``, plus undos and redos that the file-level
cache answers, and broken intermediate states that must come back as
parse diagnostics.

The watcher also opens the paper's 20 programs, each as its own
document, three times over; running their results with the test
arguments gives the run's Fig 8 space ratio.

Operation kinds: ``cold`` (opening a document: its first, full
inference), ``edit``, ``undo``, ``redo`` and ``broken``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import Session, StageFailure, check_target, pretty_target
from repro.bench import REGJAVA_PROGRAMS
from repro.gen import GenSpec, edit_script

from common import CheckFailed, OpLog, geomean, source_lines, timed, untimed, write_text
from compile_cold import Item, RuntimeTally, check_run, paper_items
from tracing import count_cache, count_result, infer_traffic

DOC_CLASSES = 100
DOCS = 2
#: one round's units: an edit alone, an edit then undo then redo, or a
#: broken state; 11 edits + 3 undos + 3 redos + 3 broken = 20 saves.
#: The shares are a choice, not measured traffic: saves are mostly edits,
#: 11 of 20 being the smallest majority, and the other nine are split
#: equally among undos, redos (each undo is redone, so editing resumes
#: from the edited version) and broken states.
ROUND = ("E",) * 8 + ("EUR",) * 3 + ("B",) * 3
#: one round takes about 5 s on the reference host, checks excluded
SECONDS_PER_ROUND = 5.0
#: at least 100 saves, so op_p90_ms has ten samples beyond it
MIN_ROUNDS = 5
#: times each paper program is opened
OPENS = 3
#: the documents' entry argument in the final bisimulation check
ENTRY_ARGS = (2,)

SAVE_KINDS = ("edit", "undo", "redo", "broken")
HIT_KINDS = ("undo", "redo")

_LITERAL = re.compile(r"\b\d+\b")


def rounds_for(seconds: int) -> int:
    return max(MIN_ROUNDS, round(seconds / SECONDS_PER_ROUND))


def break_source(source: str, rng: random.Random) -> str:
    """A broken intermediate state: ``+*`` typed after a literal in a
    method body, which no Core-Java expression accepts."""
    lines = source.splitlines()
    body = [
        i for i, line in enumerate(lines)
        if line.startswith("  ") and _LITERAL.search(line)
        and not line.lstrip().startswith("//")
    ]
    i = body[rng.randrange(len(body))]
    match = _LITERAL.search(lines[i])
    lines[i] = lines[i][: match.end()] + " +*" + lines[i][match.end():]
    return "\n".join(lines)


@dataclass
class Document:
    name: str
    versions: List[str]
    session: Session = field(default_factory=Session)
    #: index of the version the editor shows now
    at: int = 0
    last_result: object = None


@dataclass(frozen=True)
class Save:
    doc: int
    kind: str
    source: str
    version: int  # the version index the save shows, -1 when broken


def make_plan(seed: int, rounds: int) -> Tuple[List[List[str]], List[List[Save]]]:
    """Document versions and the seeded save sequence, one list per round."""
    rng = random.Random(f"perfbench:edit-watch:{seed}")
    units = []
    for _ in range(rounds):
        block = list(ROUND)
        rng.shuffle(block)
        units.append([(unit, rng.randrange(DOCS)) for unit in block])
    edits = [0] * DOCS
    for block in units:
        for unit, doc in block:
            edits[doc] += unit.count("E")
    versions = [
        edit_script(GenSpec.sized(DOC_CLASSES, seed=seed * 10_007 + d), edits[d])
        for d in range(DOCS)
    ]
    at = [0] * DOCS
    plan = []
    for block in units:
        saves = []
        for unit, doc in block:
            if unit == "B":
                text = break_source(versions[doc][at[doc]], rng)
                saves.append(Save(doc, "broken", text, -1))
                continue
            at[doc] += 1
            saves.append(Save(doc, "edit", versions[doc][at[doc]], at[doc]))
            if unit == "EUR":
                saves.append(Save(doc, "undo", versions[doc][at[doc] - 1], at[doc] - 1))
                saves.append(Save(doc, "redo", versions[doc][at[doc]], at[doc]))
        plan.append(saves)
    return versions, plan


class EditWatch:
    name = "edit-watch"
    main_kinds = ("edit",)

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.versions, self.plan = make_plan(seed, rounds_for(seconds))
        self.docs: List[Document] = []
        self.papers = paper_items()
        self.paper_docs: List[Document] = []
        self.space_ratios: List[float] = []
        self.runtime = RuntimeTally()

    def input_texts(self) -> List[str]:
        return [text for doc in self.versions for text in doc] + [
            save.source for block in self.plan for save in block if save.kind == "broken"
        ]

    def units(self) -> List[List[Save]]:
        return self.plan

    def probe_argv(self) -> List[str]:
        path = write_text(f"edit-watch-{self.seed}.cj", self.versions[0][0])
        return ["watch", str(path)]

    def warm_up(self) -> None:
        Session().reinfer(REGJAVA_PROGRAMS["sieve"].source, document="warm-up")

    def run_pass(self, log: OpLog, plan: List[List[Save]], tracer) -> None:
        """Open every document, then replay the saves.  The paper
        programs are opened OPENS times, each time in a fresh session (a
        restarted watcher), so their median averages like operations."""
        for _ in range(OPENS):
            self.paper_docs = [Document(p.key + ".cj", [p.source]) for p in self.papers]
            for doc in self.paper_docs:
                self._save(log, doc, Save(-1, "cold", doc.versions[0], 0), tracer)
        self.docs = [Document(f"doc{d}.cj", v) for d, v in enumerate(self.versions)]
        for doc in self.docs:
            self._save(log, doc, Save(-1, "cold", doc.versions[0], 0), tracer)
        for block in plan:
            for save in block:
                self._save(log, self.docs[save.doc], save, tracer)

    def _save(self, log: OpLog, doc: Document, save: Save, tracer) -> None:
        log.attempted += 1
        stats = doc.session.stats
        before = infer_traffic(stats)
        tracer.op = len(log.ops)

        def reinfer():
            try:
                return doc.session.reinfer(save.source, document=doc.name)
            except StageFailure as err:
                return err

        try:
            with tracer.span("op"):
                _, result = timed(log, save.kind, reinfer, lines=source_lines(save.source))
            count_cache(tracer, stats, before)
            if save.kind == "broken":
                if not isinstance(result, StageFailure) or result.stage != "parse":
                    raise CheckFailed(f"{doc.name}: broken state gave {result!r}")
                if not result.diagnostics:
                    raise CheckFailed(f"{doc.name}: parse failure without diagnostics")
                return
            if isinstance(result, StageFailure):
                raise CheckFailed(f"{doc.name}: {result.stage} failed: {result.diagnostics[:1]}")
            count_result(tracer, result)
            tracer.op = None
            if save.kind in HIT_KINDS:
                # the file-level cache must answer it, not the SCC cache
                if stats.hit_count("infer") == before[0]:
                    raise CheckFailed(f"{doc.name}: {save.kind} missed the file-level cache")
            else:
                with untimed():
                    if not check_target(result.target).ok:
                        raise CheckFailed(f"{doc.name}: version {save.version} fails check_target")
            doc.at = save.version
            doc.last_result = result
        except Exception as err:  # noqa: BLE001 -- every failure is counted
            log.fail(f"{doc.name} {save.kind}: {type(err).__name__}: {err}")
        finally:
            tracer.op = None
            log.host.sample()

    def finish(self, log: OpLog) -> None:
        """Each document's last version must match a fresh inference byte
        for byte, and run like its source; the paper programs run with
        their test arguments for the space ratio."""
        with untimed():
            self._finish(log)

    def _finish(self, log: OpLog) -> None:
        self.space_ratios = []
        for item, doc in zip(self.papers, self.paper_docs):
            try:
                self.space_ratios.append(
                    check_run(item, doc.last_result, self.runtime, against_source=False))
            except Exception as err:  # noqa: BLE001
                log.attempted += 1
                log.fail(f"{doc.name} run: {type(err).__name__}: {err}")
        for doc in self.docs:
            source = doc.versions[doc.at]
            try:
                fresh = Session().infer(source)
                if pretty_target(fresh.target) != pretty_target(doc.last_result.target):
                    raise CheckFailed(f"{doc.name}: watched result differs from a fresh one")
                check_run(Item("edit", doc.name, source, "main", ENTRY_ARGS),
                          doc.last_result, self.runtime)
            except Exception as err:  # noqa: BLE001
                log.attempted += 1
                log.fail(f"{doc.name} final check: {type(err).__name__}: {err}")

    def e2e(self, log: OpLog) -> Dict[str, float]:
        return {
            "op_p50_ms": log.p50(SAVE_KINDS),
            "op_p90_ms": log.p90(SAVE_KINDS),
            "cold_p50_ms": log.p50(["cold"]),
            "edit_p50_ms": log.p50(["edit"]),
            "hit_p50_ms": log.p50(HIT_KINDS),
            "lines_per_s": log.rate(["edit"], lambda op: op.lines),
            "ops_per_s": log.rate(SAVE_KINDS, lambda op: 1),
            "space_ratio_geomean": geomean(self.space_ratios),
        }

    def layers(self) -> Dict[str, float]:
        return self.runtime.per_run()
