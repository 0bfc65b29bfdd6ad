"""Tests for the staged pipeline: stage values, short-circuiting, collect."""

import pytest

from repro.api import STAGES, Pipeline, Session, StageFailure, Severity
from repro.api.diagnostics import DiagnosticCode
from repro.core import (
    AnnotatedProgram,
    DowncastStrategy,
    InferenceConfig,
    InferenceResult,
)
from repro.lang import ast as S
from repro.lang.class_table import ClassTable

GOOD = """
class Pair extends Object {
  Object fst;
  Object snd;
  Pair cloneRev() { Pair tmp = new Pair(null, null); tmp.fst = snd; tmp.snd = fst; tmp }
}
int main(int n) { Pair p = new Pair(null, null); Pair q = p.cloneRev(); n }
"""

#: missing ';' after the field on line 2
BAD_PARSE = "class A extends Object {\n  int x\n}\nint main() { 0 }"

#: `Missing` is never declared
BAD_TYPE = "int main() { Missing m = null; 0 }"

#: a genuine downcast, rejected under DowncastStrategy.REJECT
DOWNCAST = """
class A extends Object { int x; }
class B extends A { Object y; }
int main() { A a = new B(1, null); B b = (B) a; b.x }
"""


class TestStageValues(object):
    def test_stage_types(self):
        pipe = Pipeline(GOOD)
        assert isinstance(pipe.parse().unwrap(), S.Program)
        assert isinstance(pipe.typecheck().unwrap(), ClassTable)
        assert isinstance(pipe.annotate().unwrap(), AnnotatedProgram)
        assert isinstance(pipe.infer().unwrap(), InferenceResult)
        assert pipe.verify().unwrap().ok
        assert str(pipe.execute("main", [7]).unwrap().value) == "7"

    def test_stages_memoised_within_pipeline(self):
        pipe = Pipeline(GOOD)
        assert pipe.infer() is pipe.infer()
        assert pipe.parse() is pipe.parse()

    def test_run_until_stops_early(self):
        pipe = Pipeline(GOOD)
        results = pipe.run("typecheck")
        assert [r.stage for r in results] == ["parse", "typecheck"]
        assert all(r.ok for r in results)
        # inference was never triggered
        assert "infer" not in pipe._results

    def test_run_until_execute(self):
        pipe = Pipeline(GOOD)
        results = pipe.run("execute", entry="main", args=[3])
        assert [r.stage for r in results] == list(STAGES)
        assert str(results[-1].value.value) == "3"

    def test_run_rejects_unknown_stage(self):
        with pytest.raises(ValueError):
            Pipeline(GOOD).run("link")


class TestShortCircuit(object):
    def test_parse_error_stops_run(self):
        pipe = Pipeline(BAD_PARSE)
        results = pipe.run("verify")
        assert [r.stage for r in results] == ["parse"]
        (diag,) = results[0].diagnostics
        assert diag.code == DiagnosticCode.PARSE
        assert diag.severity is Severity.ERROR
        assert diag.span == {"line": 3, "col": 1}

    def test_later_stages_skip_after_failure(self):
        pipe = Pipeline(BAD_PARSE)
        infer = pipe.infer()
        assert not infer.ok
        assert infer.skipped
        with pytest.raises(StageFailure):
            infer.unwrap()

    def test_skipped_unwrap_blames_the_root_cause(self):
        pipe = Pipeline(BAD_PARSE)
        infer = pipe.infer()
        assert infer.cause is not None and infer.cause.stage == "parse"
        with pytest.raises(StageFailure) as exc:
            infer.unwrap()
        assert exc.value.stage == "parse"
        assert exc.value.diagnostics == pipe.parse().diagnostics

    def test_failure_helper_finds_the_failing_stage(self):
        pipe = Pipeline(BAD_PARSE)
        assert pipe.failure() is None  # nothing ran yet
        pipe.infer()
        failed = pipe.failure()
        assert failed is not None
        assert failed.stage == "parse" and not failed.skipped

        ok = Pipeline(GOOD)
        ok.run("verify")
        assert ok.failure() is None

    def test_type_error_carries_span(self):
        pipe = Pipeline(BAD_TYPE, filename="t.cj")
        results = pipe.run("verify")
        assert [r.stage for r in results] == ["parse", "typecheck"]
        (diag,) = results[-1].diagnostics
        assert diag.code == DiagnosticCode.NORMAL_TYPE
        assert diag.file == "t.cj"
        assert diag.line == 1

    def test_inference_error_is_structured(self):
        config = InferenceConfig(downcast=DowncastStrategy.REJECT)
        pipe = Pipeline(DOWNCAST, config)
        results = pipe.run("verify")
        assert [r.stage for r in results] == [
            "parse",
            "typecheck",
            "annotate",
            "infer",
        ]
        (diag,) = results[-1].diagnostics
        assert diag.code == DiagnosticCode.INFERENCE
        assert "downcast" in diag.message
        # earlier stages still produced values
        assert results[2].ok

    def test_same_pipeline_downcast_accepted_with_padding(self):
        pipe = Pipeline(DOWNCAST, InferenceConfig())
        assert pipe.verify().ok
        assert str(pipe.execute("main", []).unwrap().value) == "1"


class TestCollectMode(object):
    def test_collects_multiple_parse_errors(self):
        source = (
            "class A extends Object { int x }\n"
            "class B extends Object { int y }\n"
            "int main() { 0 }\n"
        )
        pipe = Pipeline(source, collect=True)
        result = pipe.parse()
        assert not result.ok
        assert len(result.diagnostics) == 2
        assert [d.line for d in result.diagnostics] == [1, 2]
        # the recovered program still holds the parseable declarations
        assert [m.name for m in result.value.statics] == ["main"]

    def test_lex_error_code_is_stable_across_modes(self):
        source = "int main() { @ }"
        strict = Pipeline(source).parse()
        tolerant = Pipeline(source, collect=True).parse()
        assert strict.diagnostics[0].code == DiagnosticCode.LEX
        assert tolerant.diagnostics[0].code == DiagnosticCode.LEX
        assert tolerant.diagnostics[0].span == strict.diagnostics[0].span

    @pytest.mark.parametrize("source", ["int f() { ² }", "int f() { 1٣ }"])
    def test_non_ascii_digit_is_a_lex_diagnostic(self, source):
        # str.isdigit() accepts these; int() does not, and used to raise
        # an uncaught ValueError out of the parser
        for collect in (False, True):
            pipe = Pipeline(source, collect=collect)
            result = pipe.infer()
            assert not result.ok
            assert pipe.parse().diagnostics[0].code == DiagnosticCode.LEX
            assert pipe.parse().diagnostics[0].stage == "parse"

    def test_non_ascii_digit_through_session(self):
        with pytest.raises(StageFailure) as exc:
            Session().infer("int f() { ² }")
        assert exc.value.stage == "parse"
        with pytest.raises(StageFailure) as exc:
            Session().reinfer("int f() { ² }")
        assert exc.value.stage == "parse"

    def test_collect_on_valid_source_is_clean(self):
        pipe = Pipeline(GOOD, collect=True)
        assert pipe.verify().ok
        assert pipe.diagnostics() == []

    def test_diagnostics_aggregates_in_stage_order(self):
        pipe = Pipeline(BAD_PARSE, collect=True)
        pipe.run("verify")
        diags = pipe.diagnostics()
        assert diags and all(d.stage == "parse" for d in diags)


class TestExecuteStage(object):
    def test_runtime_error_becomes_diagnostic(self):
        pipe = Pipeline(GOOD)
        result = pipe.execute("nosuch", [])
        assert not result.ok
        (diag,) = result.diagnostics
        assert diag.code == DiagnosticCode.RUNTIME
        assert "nosuch" in diag.message

    def test_execute_memoised_per_entry_and_args(self):
        pipe = Pipeline(GOOD)
        assert pipe.execute("main", [1]) is pipe.execute("main", [1])
        assert pipe.execute("main", [1]) is not pipe.execute("main", [2])
