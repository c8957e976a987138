"""Tests for the static-vs-dynamic cross-check oracle.

Covers the clean path on the worked example, seeded faults (a synthetic
bogus DDG edge, a reference to a register the IR never defines, an MLI
variable outside the static candidate set) each yielding a *named*
diagnostic with structured context, and the fleet-wide invariants:
every bundled app passes the oracle and satisfies
``dynamic MLI ⊆ static candidates``.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.apps import get_app
from repro.apps.registry import app_names
from repro.core.ddg import NodeKind
from repro.experiments.common import analyze_app
from repro.static.check import (
    INFEASIBLE_DDG_EDGE,
    MLI_NOT_STATIC_CANDIDATE,
    UNKNOWN_REGISTER,
    StaticCheckError,
    cross_check,
    require_clean,
)
from repro.static.summary import analyze_module


@pytest.fixture(scope="module")
def example_static(example_module, example_spec):
    return analyze_module(example_module, spec=example_spec)


class TestOracleCleanPath:
    def test_example_oracle_is_clean(self, example_module, example_spec,
                                     example_report, example_static):
        diagnostics = cross_check(example_module, example_spec,
                                  example_report, analysis=example_static)
        assert diagnostics == []

    def test_require_clean_passes_silently(self, example_module, example_spec,
                                           example_report, example_static):
        require_clean(example_module, example_spec, example_report,
                      analysis=example_static)

    def test_dynamic_mli_is_subset_of_candidates(self, example_report,
                                                 example_static):
        assert (set(example_report.mli_variable_names)
                <= set(example_static.candidate_names))


class TestSeededFaults:
    def _infeasible_var_pair(self, report, static):
        """A (parent, child) var-node pair with no static dependence path —
        the edge a broken dynamic walk could invent."""
        ddg = report.complete_ddg
        var_keys = [key for key in ddg.node_keys()
                    if ddg.node(key).kind is not NodeKind.REGISTER]
        for parent, child in itertools.permutations(var_keys, 2):
            parent_ids = static.static_ddg.ids_for_name(
                parent.rsplit("@", 1)[0])
            child_ids = static.static_ddg.ids_for_name(
                child.rsplit("@", 1)[0])
            if not parent_ids or not child_ids:
                continue
            feasible = any(
                static.static_ddg.may_depend(child_id, parent_id)
                for child_id in child_ids for parent_id in parent_ids)
            if not feasible:
                return parent, child
        pytest.fail("example DDG has no statically-independent var pair")

    def test_bogus_ddg_edge_yields_named_diagnostic(
            self, example_module, example_spec, example_report,
            example_static):
        parent, child = self._infeasible_var_pair(example_report,
                                                  example_static)
        seeded_ddg = example_report.complete_ddg.copy()
        seeded_ddg.add_edge(parent, child)
        seeded = dataclasses.replace(example_report,
                                     complete_ddg=seeded_ddg)
        diagnostics = cross_check(example_module, example_spec, seeded,
                                  analysis=example_static)
        assert any(d.code == INFEASIBLE_DDG_EDGE for d in diagnostics)
        offending = next(d for d in diagnostics
                         if d.code == INFEASIBLE_DDG_EDGE)
        assert offending.edge == (parent, child)
        assert INFEASIBLE_DDG_EDGE in str(offending)

    def test_unknown_register_yields_named_diagnostic(
            self, example_module, example_spec, example_report,
            example_static):
        seeded_ddg = example_report.complete_ddg.copy()
        var_key = next(key for key in seeded_ddg.node_keys()
                       if seeded_ddg.node(key).kind is not NodeKind.REGISTER)
        seeded_ddg.add_node("main%99999", NodeKind.REGISTER)
        seeded_ddg.add_edge(var_key, "main%99999")
        seeded = dataclasses.replace(example_report,
                                     complete_ddg=seeded_ddg)
        diagnostics = cross_check(example_module, example_spec, seeded,
                                  analysis=example_static)
        offending = [d for d in diagnostics if d.code == UNKNOWN_REGISTER]
        assert offending
        assert offending[0].function == "main"

    def test_foreign_mli_variable_yields_named_diagnostic(
            self, example_module, example_spec, example_report,
            example_static):
        seeded = dataclasses.replace(
            example_report,
            mli_variable_names=(example_report.mli_variable_names
                                + ["zz_not_a_variable"]))
        diagnostics = cross_check(example_module, example_spec, seeded,
                                  analysis=example_static)
        offending = [d for d in diagnostics
                     if d.code == MLI_NOT_STATIC_CANDIDATE]
        assert offending
        assert "zz_not_a_variable" in offending[0].message

    def test_require_clean_raises_with_diagnostics(
            self, example_module, example_spec, example_report,
            example_static):
        seeded = dataclasses.replace(
            example_report,
            mli_variable_names=(example_report.mli_variable_names
                                + ["zz_not_a_variable"]))
        with pytest.raises(StaticCheckError) as excinfo:
            require_clean(example_module, example_spec, seeded,
                          analysis=example_static)
        error = excinfo.value
        assert error.diagnostics
        assert MLI_NOT_STATIC_CANDIDATE in str(error)


class TestFleetWideOracle:
    def test_every_bundled_app_passes_and_mli_is_subset(self):
        fleet = app_names(include_example=True) + ["bigarray"]
        for name in fleet:
            app = get_app(name)
            result = analyze_app(app)
            source = app.source()
            spec = app.main_loop(source)
            static = analyze_module(result.module, spec=spec)
            diagnostics = cross_check(result.module, spec, result.report,
                                      analysis=static)
            assert diagnostics == [], (
                f"{name}: {[str(d) for d in diagnostics]}")
            assert (set(result.report.mli_variable_names)
                    <= set(static.candidate_names)), (
                f"{name}: dynamic MLI escapes the static candidate set")
            assert not static.saw_top, (
                f"{name}: static analysis lost precision to TOP")
