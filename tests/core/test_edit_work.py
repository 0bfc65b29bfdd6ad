"""What one incremental edit costs in the dependency-graph layer.

An edit builds one :class:`DependencyGraph` (for the new program; the
prior program's dirty-set inputs come from the prior result's splice
keys and class-shape digest), folds fingerprints once and runs Tarjan
once.  The counts are taken by wrapping the class methods, as the
benchmark's tracer does.  The second half checks that the key-derived
dirty set is the one :func:`repro.core.depgraph.diff` computes from two
graphs, over the edit families of ``test_reinfer.py``.
"""

import functools
import random
import re
from collections import Counter

import pytest

from repro.api import Session
from repro.bench.composite import composite_source, rename_local, tweak_method_body
from repro.bench.olden import OLDEN_PROGRAMS
from repro.core import infer_source
from repro.core.depgraph import (
    DependencyGraph,
    class_shape_digest,
    diff,
    diff_keys,
)
from repro.core.downcast import DowncastAnalysis
from repro.core.infer import plan_salts, scc_splice_keys
from repro.frontend import parse_program
from repro.gen import GenSpec, edit_script
from repro.lang.pretty import pretty_target
from repro.typing.normal import NormalTypeChecker

COUNTED = ("__init__", "node_fingerprints", "sccs")


@pytest.fixture()
def calls(monkeypatch):
    """Counts calls of the dependency-graph entry points while active."""
    counts = Counter()
    for name in COUNTED:
        raw = DependencyGraph.__dict__[name]

        def wrapper(*args, _raw=raw, _name=name, **kwargs):
            counts[_name] += 1
            return _raw(*args, **kwargs)

        monkeypatch.setattr(
            DependencyGraph, name, functools.wraps(raw)(wrapper)
        )
    return counts


def assert_one_pass(calls, session, versions):
    session.reinfer(versions[0], document="doc")
    for edited in versions[1:]:
        calls.clear()
        result = session.reinfer(edited, document="doc")
        assert 0 < result.reinferred_sccs < len(result.scc_keys)
        assert calls == {"__init__": 1, "node_fingerprints": 1, "sccs": 1}
        scratch = Session().infer(edited)
        assert pretty_target(result.target, renumber=True) == pretty_target(
            scratch.target, renumber=True
        )


def test_composite_edit_builds_one_graph(calls):
    source = composite_source()
    edited = tweak_method_body(source, "1103515245", "1103515246")
    assert_one_pass(calls, Session(), [source, edited])


def test_generated_100_class_edit_builds_one_graph(calls):
    versions = edit_script(GenSpec.sized(100, seed=3), 2)
    assert_one_pass(calls, Session(), versions)


# -- the key-derived dirty set equals the graph diff ------------------------


def unique_literals(source, minimum=1000):
    counts = Counter(re.findall(r"\b\d+\b", source))
    return [lit for lit, n in counts.items() if n == 1 and int(lit) >= minimum]


def dirty_sets(prior, source):
    """(graph diff, key diff or None on a class-shape change)."""
    program = parse_program(source)
    table = NormalTypeChecker(program).check()
    graph = DependencyGraph(program, table)
    salts = plan_salts(program, DowncastAnalysis(program, table).build_plan())
    old_graph = DependencyGraph(prior.table.program, prior.table)
    by_graphs = diff(old_graph, graph, old_salts=prior.plan_salts, new_salts=salts)
    if class_shape_digest(table) != prior.class_digest:
        return by_graphs, None
    return by_graphs, diff_keys(prior.scc_keys, scc_splice_keys(graph, salts))


def edit_families():
    composite = composite_source()
    yield "identity", composite, composite
    yield "whitespace", composite, composite.replace("{", "{\n ").replace(";", " ;")
    for lit in unique_literals(composite):
        yield f"composite-{lit}", composite, tweak_method_body(
            composite, lit, str(int(lit) + 1)
        )
    extra = "\nint extraHelper(int n) { n + 1 }\n"
    yield "added", composite, composite + extra
    yield "removed", composite + extra, composite
    for name in ("bisort", "em3d", "health", "power"):
        src = OLDEN_PROGRAMS[name].source
        for lit in unique_literals(src)[:6]:
            yield f"{name}-{lit}", src, tweak_method_body(src, lit, str(int(lit) + 1))
    for name in ("treeadd", "bisort", "power", "health"):
        rng = random.Random(0x1C47 + len(name))
        src = OLDEN_PROGRAMS[name].source
        idents = sorted(set(re.findall(r"\b(?:int|bool)\s+([a-z]\w*)\s*=", src)))
        edits = [("rename", i) for i in idents if i + "Qz" not in src]
        edits += [("tweak", lit) for lit in unique_literals(src, minimum=2)]
        rng.shuffle(edits)
        for kind, token in edits[:6]:
            if kind == "rename":
                edited = rename_local(src, token, token + "Qz")
            else:
                edited = tweak_method_body(src, token, str(int(token) + 1))
            yield f"{name}-{kind}-{token}", src, edited
    chain = """
    class Box extends Object { Object payload; }
    void callee(Box b) { %s }
    void caller(Box b) { callee(b); }
    void outer(Box b) { caller(b); }
    """
    yield "callee-pre", chain % "", chain % "b.payload = new Object();"
    leaf = """
    class Box extends Object { Object payload; }
    int leaf(int n) { n + 1 }
    int other(int n) { n * 2 }
    int caller(int n) { other(n) }
    """
    yield "leaf", leaf, leaf.replace("n + 1", "n + 2")
    override = """
    class A extends Object { Object x; Object get() { x } }
    class B extends A { Object y; Object get() { %s } }
    Object use(A a) { a.get() }
    """
    yield "override", override % "y", override % "x"
    field = """
    class Box extends Object { Object %s; }
    Object pick(Box b) { b.%s }
    """
    yield "field", field % ("fst", "fst"), field % ("snd", "snd")


def test_key_dirty_set_equals_graph_diff():
    priors = {}
    checked = full = 0
    for label, before, after in edit_families():
        if before not in priors:
            priors[before] = infer_source(before)
        by_graphs, by_keys = dirty_sets(priors[before], after)
        if by_keys is None:
            assert by_graphs.full, label
            full += 1
            continue
        assert not by_graphs.full, label
        assert by_keys.methods == by_graphs.methods, label
        assert by_keys.added == by_graphs.added, label
        assert by_keys.removed == by_graphs.removed, label
        checked += 1
    assert checked >= 40 and full >= 1
