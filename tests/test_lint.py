"""AST lint engine tests: one positive and one negative fixture per
rule, the cross-function cases R3 and R5 judge from one function or one
class, charges stripped from the real modules, a rule edit showing on
the next run, suppression directives and their edge cases, rule
selection, report output, and the repo-wide gate itself.  Shard
isolation is not a rule: ``tests/test_shard.py::TestIsolation`` checks
that the router reaches no worker state.
"""

from __future__ import annotations

import ast
import json
import textwrap
from collections import Counter

import pytest

from repro.lint import (
    ALGORITHM_SUBSYSTEMS,
    EM_LAYER_SUBSYSTEMS,
    LintFinding,
    all_rules,
    default_root,
    get_rules,
    lint_paths,
    lint_source,
)

ALG_PATH = "repro/alg/fixture.py"


def _lint(src: str, relpath: str = ALG_PATH, rules=None):
    return lint_source(textwrap.dedent(src), relpath, rules)


def _active(src: str, relpath: str = ALG_PATH, rules=None):
    return _lint(src, relpath, rules)[0]


def _rule_ids(findings):
    return [f.rule for f in findings]


class TestRegistry:
    def test_all_six_rules_registered(self):
        assert [r.rule_id for r in all_rules()] == [
            "R1", "R2", "R3", "R4", "R5", "R6",
        ]

    def test_get_rules_subset_and_case(self):
        assert [r.rule_id for r in get_rules(["r3", "R1"])] == ["R3", "R1"]

    def test_get_rules_unknown_raises(self):
        with pytest.raises(KeyError, match="R99"):
            get_rules(["R99"])

    def test_rules_carry_rationales(self):
        for rule in all_rules():
            assert rule.title and len(rule.rationale) > 40

    def test_layer_constants(self):
        assert "alg" in ALGORITHM_SUBSYSTEMS and "em" in EM_LAYER_SUBSYSTEMS


class TestR1PrivateInternals:
    POSITIVE = """
        def f(machine):
            return len(machine.disk._blocks)
        """

    def test_positive(self):
        (finding,) = _active(self.POSITIVE)
        assert finding.rule == "R1"
        assert "_blocks" in finding.message

    def test_negative_in_em_layer(self):
        assert not _active(self.POSITIVE, "repro/em/helper.py")

    def test_negative_in_obs_layer(self):
        assert not _active(self.POSITIVE, "repro/obs/helper.py")

    def test_negative_self_attribute(self):
        src = """
            class Thing:
                def f(self):
                    return self._peak
            """
        assert not _active(src)

    def test_flags_accountant_internals(self):
        src = """
            def f(machine):
                machine.memory._in_use = 0
            """
        assert _rule_ids(_active(src)) == ["R1"]


class TestR2UncountedEscapes:
    def test_positive_peek(self):
        (finding,) = _active("def f(m):\n    return m.disk.peek(0)\n")
        assert finding.rule == "R2" and "peek" in finding.message

    def test_positive_uncounted(self):
        src = """
            def f(machine):
                with machine.uncounted():
                    pass
            """
        assert _rule_ids(_active(src)) == ["R2"]

    def test_positive_default_to_numpy(self):
        (finding,) = _active("def f(file):\n    return file.to_numpy()\n")
        assert finding.rule == "R2" and "read_runs" in finding.message

    def test_negative_outside_algorithm_layer(self):
        src = "def f(m):\n    return m.disk.peek(0)\n"
        assert not _active(src, "repro/obs/probe.py")
        assert not _active(src, "repro/workloads/gen.py")


class TestR3RawComparisons:
    def test_positive_np_sort_on_records(self):
        src = """
            def f(records):
                return np.sort(composite(records))
            """
        (finding,) = _active(src)
        assert finding.rule == "R3" and "np.sort" in finding.message

    def test_positive_sort_records_helper(self):
        # R6 (kernel bypass) fires on the same call; check R3 is there.
        findings = _active("def f(r):\n    return sort_records(r)\n")
        assert sorted(_rule_ids(findings)) == ["R3", "R6"]

    def test_positive_raw_compare_on_keys(self):
        src = """
            def f(a, b):
                return a["key"] < b["key"]
            """
        (finding,) = _active(src)
        assert finding.rule == "R3" and "raw order comparison" in finding.message

    def test_negative_charged_function(self):
        src = """
            def f(machine, records):
                cmp_sort(machine, len(records))
                return np.sort(composite(records))
            """
        assert not _active(src)

    def test_negative_non_record_sort(self):
        # Index bookkeeping is free in the model; only record
        # comparisons are counted.
        assert not _active("def f(idx):\n    return np.sort(idx)\n")

    def test_negative_outside_algorithm_layer(self):
        src = "def f(r):\n    return sort_records(r)\n"
        assert not _active(src, "repro/workloads/gen.py")


class TestR3KernelSinks:
    """The kernel leaves charging to its caller, so its comparing
    methods are sinks when called on ``kernel`` or ``<x>.kernel``."""

    def test_uncharged_kernel_call_flagged(self):
        src = """
            def f(machine, records):
                return machine.kernel.sort_by_composite(records)
            """
        (finding,) = _active(src)
        assert finding.rule == "R3"
        assert "kernel.sort_by_composite" in finding.message

    def test_local_kernel_alias_flagged(self):
        src = """
            def f(machine, records, pivots):
                kernel = machine.kernel
                return kernel.bucket_of(records, pivots)
            """
        (finding,) = _active(src)
        assert finding.rule == "R3" and "kernel.bucket_of" in finding.message

    def test_charged_kernel_call_clean(self):
        src = """
            def f(machine, records, kth):
                cmp_search(machine, len(records), len(kth))
                return machine.kernel.rank_order(records, kth)
            """
        assert not _active(src)

    def test_histogram_method_is_not_a_kernel_call(self):
        src = """
            class Histogram:
                def bucket_of(self, key):
                    return 0

                def count(self, key):
                    return self.bucket_of(key)
            """
        assert not _active(src)


class TestR3Interprocedural:
    """Charges in another function do not count: R3 judges each
    outermost function on its own."""

    def test_helper_with_charging_caller_is_flagged(self):
        # The charge belongs beside the comparisons it pays for; a
        # caller that charges may stop charging without the helper
        # changing.
        src = """
            def helper(records):
                return np.sort(composite(records))

            def caller(machine, records):
                cmp_sort(machine, len(records))
                return helper(records)
            """
        (finding,) = _active(src)
        assert finding.rule == "R3" and "`helper`" in finding.message

    def test_transitive_charge_through_callee(self):
        # A charge behind a callee is not a charge of this function.
        src = """
            def charge(machine, n):
                cmp_sort(machine, n)

            def f(machine, records):
                charge(machine, len(records))
                return np.sort(composite(records))
            """
        (finding,) = _active(src)
        assert finding.rule == "R3" and "`f`" in finding.message

    def test_seeded_defect_local_shadow_does_not_charge(self):
        # A `cmp_sort` the module defines itself is a shadow, not the
        # em helper, so calling it excuses nothing.
        src = """
            def cmp_sort(machine, n):
                return n  # never touches the machine

            def f(machine, records):
                cmp_sort(machine, len(records))
                return np.sort(composite(records))
            """
        (finding,) = _active(src)
        assert finding.rule == "R3"

    def test_uncharged_helper_with_uncharged_caller_still_flagged(self):
        src = """
            def helper(records):
                return np.sort(composite(records))

            def caller(records):
                return helper(records)
            """
        findings = _active(src)
        assert _rule_ids(findings) == ["R3"]

    def test_module_level_statements_are_one_scope(self):
        src = """
            def f(machine, n):
                cmp_sort(machine, n)

            ORDER = np.sort(composite(RECORDS))
            """
        (finding,) = _active(src)
        assert finding.rule == "R3" and "module scope" in finding.message

    def test_nested_def_shares_its_outer_function_scope(self):
        src = """
            def f(machine, records):
                cmp_sort(machine, len(records))

                def key_order():
                    return np.sort(composite(records))

                return key_order()
            """
        assert not _active(src)


#: The functions whose sinks the former call-graph engine cleared as
#: "reaches a charge".  Each calls a ``cmp_*`` helper itself; with those
#: calls stripped, R3 must flag it.
_CHARGING_FUNCTIONS = [
    ("repro/alg/selection.py", "_select"),
    ("repro/apps/histogram.py", "build_histogram"),
    ("repro/core/intermixed.py", "_solve_in_memory"),
    ("repro/core/intermixed.py", "_solve"),
    ("repro/core/intermixed.py", "_median_pass"),
    ("repro/core/splitters.py", "_split_at"),
    ("repro/service/online.py", "LazyPartitionIndex.partition_of"),
    ("repro/service/index.py", "PartitionIndex._apply"),
    ("repro/service/index.py", "PartitionIndex._tombstone"),
    ("repro/service/index.py", "PartitionIndex._split_external"),
    ("repro/service/index.py", "PartitionIndex._install"),
]


def _strip_charges(source: str, qualname: str) -> str:
    """``source`` with every ``cmp_*(...)`` statement inside the function
    ``qualname`` replaced by ``pass`` (line numbers kept)."""
    node = ast.parse(source)
    for part in qualname.split("."):
        node = next(
            n for n in node.body
            if isinstance(n, (ast.ClassDef, ast.FunctionDef))
            and n.name == part
        )
    lines = source.splitlines(keepends=True)
    stripped = 0
    for stmt in ast.walk(node):
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Name)
            and stmt.value.func.id.startswith("cmp_")
        ):
            first = lines[stmt.lineno - 1]
            indent = first[: len(first) - len(first.lstrip())]
            lines[stmt.lineno - 1] = indent + "pass\n"
            for i in range(stmt.lineno, stmt.end_lineno):
                lines[i] = "\n"
            stripped += 1
    assert stripped, f"{qualname} has no cmp_* statement"
    return "".join(lines)


class TestR3StrippedCharges:
    @pytest.mark.parametrize(
        "relpath,qualname", _CHARGING_FUNCTIONS,
        ids=[q for _, q in _CHARGING_FUNCTIONS],
    )
    def test_dropping_a_functions_charges_is_flagged(self, relpath, qualname):
        source = (default_root() / relpath).read_text()
        r3 = get_rules(["R3"])
        assert not lint_source(source, relpath, r3)[0]
        active, _ = lint_source(_strip_charges(source, qualname), relpath, r3)
        assert active
        assert all(f"`{qualname}`" in f.message for f in active), active


class TestR4UnseededRng:
    def test_positive_stdlib_random(self):
        (finding,) = _active("def f():\n    return random.random()\n")
        assert finding.rule == "R4" and "global RNG" in finding.message

    def test_positive_legacy_np_random(self):
        (finding,) = _active("def f():\n    return np.random.rand(3)\n")
        assert finding.rule == "R4"

    def test_positive_unseeded_default_rng(self):
        (finding,) = _active("def f():\n    return np.random.default_rng()\n")
        assert "seed" in finding.message

    def test_negative_seeded_default_rng(self):
        assert not _active("def f(seed):\n    return np.random.default_rng(seed)\n")

    def test_negative_seeded_random_class(self):
        assert not _active("def f(seed):\n    return random.Random(seed)\n")

    def test_applies_everywhere_in_package(self):
        # Unlike R2/R3, reproducibility is global — em and obs too.
        src = "def f():\n    return np.random.rand()\n"
        assert _rule_ids(_active(src, "repro/em/helper.py")) == ["R4"]
        assert _rule_ids(_active(src, "repro/obs/helper.py")) == ["R4"]

    def test_applies_to_scripts_and_benchmarks(self):
        # Experiment drivers shape recorded results just as much as the
        # package; the default lint set includes both trees.
        src = "def f():\n    return np.random.rand()\n"
        assert _rule_ids(_active(src, "scripts/gen_data.py")) == ["R4"]
        assert _rule_ids(_active(src, "benchmarks/test_bench.py")) == ["R4"]

    def test_default_lint_set_includes_scripts_and_benchmarks(self):
        report = lint_paths()
        # the repo gate actually walked files outside src/repro
        prefixes = {f.split("/")[0] for f in _repo_file_set(report)}
        assert {"scripts", "benchmarks"} <= prefixes


def _repo_file_set(report):
    # files aren't carried per-path in the report; re-derive from the
    # default discovery to keep this assertion independent.
    from repro.lint import default_lint_paths, default_root, iter_python_files
    root = default_root()
    from repro.lint.runner import _relpath
    return [
        _relpath(f, root)
        for f in iter_python_files(default_lint_paths(root))
    ]


class TestR5LeaseLifecycle:
    def test_positive_unprotected_assignment(self):
        src = """
            def f(machine):
                lease = machine.memory.lease(8, "x")
                work()
                lease.release()
            """
        (finding,) = _active(src)
        assert finding.rule == "R5" and "finally" in finding.message

    def test_positive_bare_call(self):
        (finding,) = _active("def f(m):\n    m.memory.lease(8, 'x')\n")
        assert finding.rule == "R5"

    def test_negative_with_statement(self):
        src = """
            def f(machine):
                with machine.memory.lease(8, "x"):
                    work()
            """
        assert not _active(src)

    def test_negative_try_finally(self):
        src = """
            def f(machine):
                lease = machine.memory.lease(8, "x")
                try:
                    work()
                finally:
                    lease.release()
            """
        assert not _active(src)

    def test_negative_later_with(self):
        src = """
            def f(machine):
                lease = machine.memory.lease(8, "x")
                with lease:
                    work()
            """
        assert not _active(src)

    def test_negative_attribute_storage_with_release(self):
        src = """
            class Index:
                def __init__(self, machine):
                    self._lease = machine.memory.lease(8, "idx")

                def close(self):
                    self._lease.release()
            """
        assert not _active(src)

    def test_negative_in_tests(self):
        src = "def f(m):\n    m.memory.lease(8, 'x')\n"
        assert not _active(src, "repro/em/tests/test_x.py")


class TestR5Interprocedural:
    """A lease is judged where it is taken: its release must be visible
    in the same function, or in the class that stores it on ``self``."""

    def test_seeded_defect_write_only_attribute_leaks(self):
        src = """
            class Index:
                def __init__(self, machine):
                    self._lease = machine.memory.lease(8, "idx")
            """
        (finding,) = _active(src)
        assert finding.rule == "R5" and "write-only" in finding.message

    def test_attribute_stored_through_a_local_with_release_is_clean(self):
        src = """
            class Index:
                def __init__(self, machine):
                    lease = machine.memory.lease(8, "idx")
                    self._lease = lease

                def __exit__(self, *exc):
                    with self._lease:
                        pass
            """
        assert not _active(src)

    def test_attribute_released_only_in_subclass_is_flagged(self):
        # The owning class must release what it stores; a subclass that
        # happens to release it can be replaced by one that does not.
        src = """
            class Base:
                def __init__(self, machine):
                    self._lease = machine.memory.lease(8, "idx")

            class Child(Base):
                def close(self):
                    self._lease.release()
            """
        (finding,) = _active(src)
        assert finding.rule == "R5" and "`Base`" in finding.message

    def test_lease_returner_call_site_discard_flagged(self):
        src = """
            def make_lease(machine):
                return machine.memory.lease(8, "x")

            def bad(machine):
                make_lease(machine)
            """
        (finding,) = _active(src)
        assert finding.rule == "R5" and finding.line == 3
        assert "make_lease" in finding.message

    def test_lease_returner_flagged_even_when_callers_use_with(self):
        src = """
            def make_lease(machine):
                return machine.memory.lease(8, "x")

            def good(machine):
                with make_lease(machine):
                    work()
            """
        (finding,) = _active(src)
        assert finding.rule == "R5" and "returned" in finding.message

    def test_wrapper_around_returner_flagged_once_at_the_return(self):
        src = """
            def make_lease(machine):
                held = machine.memory.lease(8, "x")
                return held

            def wrapper(machine):
                return make_lease(machine)
            """
        (finding,) = _active(src)
        assert finding.line == 3 and "make_lease" in finding.message

    def test_passed_to_releasing_callee_is_flagged(self):
        # The release lives in another function, out of this one's view.
        src = """
            def consume(lease):
                try:
                    work()
                finally:
                    lease.release()

            def f(machine):
                held = machine.memory.lease(8, "x")
                consume(held)
            """
        (finding,) = _active(src)
        assert finding.rule == "R5" and "consume" in finding.message

    def test_passed_to_non_releasing_callee_flagged(self):
        src = """
            def consume(lease):
                return lease.size

            def f(machine):
                held = machine.memory.lease(8, "x")
                consume(held)
            """
        (finding,) = _active(src)
        assert finding.rule == "R5" and "consume" in finding.message

    def test_lease_passed_directly_flagged(self):
        (finding,) = _active(
            "def f(m):\n    consume(m.memory.lease(8, 'x'))\n"
        )
        assert finding.rule == "R5" and "consume" in finding.message


class TestR6KernelBypass:
    def test_positive_concat_records(self):
        (finding,) = _active(
            "def f(m, parts):\n    return concat_records(parts)\n",
            rules=get_rules(["R6"]),
        )
        assert finding.rule == "R6" and "machine.kernel.concat" in finding.message

    def test_positive_sort_records(self):
        (finding,) = _active(
            "def f(m, r):\n    return sort_records(r)\n", rules=get_rules(["R6"])
        )
        assert "sort_by_composite" in finding.message

    def test_positive_record_argpartition(self):
        (finding,) = _active(
            "def f(m, r, k):\n"
            "    return np.argpartition(composite(r), k)\n",
            rules=get_rules(["R6"]),
        )
        assert "rank_order" in finding.message

    def test_negative_plain_argpartition(self):
        # Index arithmetic is not record movement — no kernel needed.
        assert not _active(
            "def f(m, idx, k):\n    return np.argpartition(idx, k)\n",
            rules=get_rules(["R6"]),
        )

    def test_negative_kernel_dispatch(self):
        assert not _active(
            "def f(m, parts):\n    return m.kernel.concat(parts)\n",
            rules=get_rules(["R6"]),
        )

    def test_exempt_outside_algorithm_layer(self):
        src = "def f(r):\n    return sort_records(r)\n"
        assert not _active(src, "repro/em/kernels/numpy_v1.py", rules=get_rules(["R6"]))
        assert not _active(src, "repro/em/records.py", rules=get_rules(["R6"]))
        assert not _active(src, "tests/test_x.py", rules=get_rules(["R6"]))


class TestSuppression:
    def test_same_line_directive_suppresses(self):
        active, suppressed = _lint(
            "def f():\n    return np.random.rand()  # emlint: disable=R4\n"
        )
        assert not active
        assert _rule_ids(suppressed) == ["R4"]

    def test_bare_disable_suppresses_all_rules(self):
        active, suppressed = _lint(
            "def f(m):\n    return m.disk.peek(0)  # emlint: disable\n"
        )
        assert not active and _rule_ids(suppressed) == ["R2"]

    def test_directive_for_other_rule_does_not_suppress(self):
        active, suppressed = _lint(
            "def f():\n    return np.random.rand()  # emlint: disable=R1\n"
        )
        assert _rule_ids(active) == ["R4"] and not suppressed

    def test_multi_rule_directive(self):
        active, suppressed = _lint(
            "def f(m):\n"
            "    return sort_records(m.file.to_numpy())"
            "  # emlint: disable=R2, R3, R6\n"
        )
        assert not active
        assert sorted(_rule_ids(suppressed)) == ["R2", "R3", "R6"]

    def test_project_rule_findings_respect_suppressions(self):
        active, suppressed = _lint(
            "def f(machine):\n"
            '    lease = machine.memory.lease(4, "x")  # emlint: disable=R5\n'
        )
        assert not active and _rule_ids(suppressed) == ["R5"]


class TestSuppressionEdgeCases:
    """Directives must be *comments* — not string content — and must
    tolerate odd spelling."""

    def test_directive_inside_string_is_not_a_suppression(self):
        active, suppressed = _lint(
            'def f():\n'
            '    return np.random.rand(), "# emlint: disable=R4"\n'
        )
        assert _rule_ids(active) == ["R4"] and not suppressed

    def test_directive_inside_fstring_is_not_a_suppression(self):
        active, suppressed = _lint(
            'def f(x):\n'
            '    return np.random.rand(), f"{x} # emlint: disable=R4"\n'
        )
        assert _rule_ids(active) == ["R4"] and not suppressed

    def test_directive_inside_multiline_string_is_inert(self):
        active, suppressed = _lint(
            'DOC = """\n'
            "# emlint: disable=R4\n"
            '"""\n'
            "def f():\n"
            "    return np.random.rand()\n"
        )
        assert _rule_ids(active) == ["R4"] and not suppressed

    def test_odd_whitespace_and_multiple_rules(self):
        active, suppressed = _lint(
            "def f():\n"
            "    return np.random.rand()  #emlint:   disable=R1 ,R4,  R2\n"
        )
        assert not active and _rule_ids(suppressed) == ["R4"]

    def test_lowercase_rule_id_in_directive(self):
        active, suppressed = _lint(
            "def f():\n    return np.random.rand()  # emlint: disable=r4\n"
        )
        assert not active and _rule_ids(suppressed) == ["R4"]

    def test_crlf_line_endings(self):
        src = (
            "def f():\r\n"
            "    return np.random.rand()  # emlint: disable=R4\r\n"
        )
        active, suppressed = lint_source(src, ALG_PATH)
        assert not active and _rule_ids(suppressed) == ["R4"]

    def test_crlf_without_directive_still_finds(self):
        src = "def f():\r\n    return np.random.rand()\r\n"
        active, _ = lint_source(src, ALG_PATH)
        assert _rule_ids(active) == ["R4"]

    def test_syntax_findings_are_never_suppressable(self):
        active, suppressed = _lint("def f(:  # emlint: disable\n")
        assert _rule_ids(active) == ["SYNTAX"] and not suppressed

    def test_syntax_unsuppressable_survives_runner(self, tmp_path):
        bad = tmp_path / "repro" / "alg" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(:  # emlint: disable\n")
        report = lint_paths([bad], root=tmp_path, rule_ids=["R4"])
        assert _rule_ids(report.findings) == ["SYNTAX"]
        assert not report.suppressed


class TestFreshRuns:
    def test_rule_edit_shows_on_the_next_run(self, tmp_path, monkeypatch):
        # Every run lints every file from its current source under the
        # current rules: nothing from an earlier run can stand in for a
        # verdict after a rule changes.
        mod = tmp_path / "repro" / "alg" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("x = 1\n")
        assert lint_paths([mod], root=tmp_path).findings == []

        (r4,) = get_rules(["R4"])

        def flag_everything(ctx):
            yield r4.finding(ctx, ctx.tree.body[0], "edited rule")

        monkeypatch.setattr(r4, "check", flag_everything)
        report = lint_paths([mod], root=tmp_path)
        assert _rule_ids(report.findings) == ["R4"]


class TestFindingsAndReports:
    def test_finding_render_format(self):
        f = LintFinding(path="repro/x.py", line=3, col=4, rule="R2", message="m")
        assert f.render() == "repro/x.py:3:4: R2 [error] m"

    def test_finding_rejects_bad_severity(self):
        with pytest.raises(ValueError):
            LintFinding(
                path="x.py", line=1, col=0, rule="R1", message="m",
                severity="fatal",
            )

    def test_rule_selection_is_respected(self):
        src = """
            def f(m):
                m.disk.peek(0)
                np.random.rand()
            """
        assert _rule_ids(_active(src, rules=get_rules(["R4"]))) == ["R4"]

    def test_syntax_error_reported_as_finding(self):
        active, _ = _lint("def f(:\n")
        assert active and active[0].rule == "SYNTAX"

    def test_report_json_round_trips(self, tmp_path):
        bad = tmp_path / "repro" / "alg" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(m):\n    return m.disk.peek(0)\n")
        report = lint_paths([bad], root=tmp_path)
        assert not report.ok and report.files == 1
        payload = json.loads(report.to_json())
        assert set(payload) == {"files", "rules", "ok", "findings", "suppressed"}
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "R2"
        assert payload["findings"][0]["path"] == "repro/alg/bad.py"


class TestRepoGate:
    def test_repo_is_lint_clean(self):
        # The CI gate, runnable as a plain test: the package's own
        # source (plus scripts/ and benchmarks/) has no active findings
        # under every rule.
        report = lint_paths()
        assert report.files > 50
        assert report.findings == [], "\n" + report.render()

    def test_repo_suppressions_are_justified(self):
        # Every committed suppression is one we placed deliberately;
        # this pins the per-rule budget so new ones show up in review.
        # The budget must only ever shrink.
        report = lint_paths()
        by_rule = Counter(f.rule for f in report.suppressed)
        assert dict(by_rule) == {
            "R2": 3,  # documented uncounted verification reads
        }
        assert len(report.suppressed) == 3
