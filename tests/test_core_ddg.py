"""Unit tests for the DDG structure and Algorithm-1 contraction."""

import pytest

from repro.core.contraction import contract_ddg, contraction_is_sound
from repro.core.ddg import DDG, NodeKind


def build_paper_like_ddg():
    """A small complete DDG shaped like the paper's Fig. 5(c):

    MLI variables s, r, a, b, sum; local m; registers %1..%6.
    s -> %1 -> a ; r -> %2 -> a ; a -> %3 -> m ; b -> %4 -> m ; m -> %5 -> sum
    """
    ddg = DDG()
    for name in ("s", "r", "a", "b", "sum"):
        ddg.add_node(name, NodeKind.MLI, name)
    ddg.add_node("m", NodeKind.LOCAL, "m")
    for reg in ("%1", "%2", "%3", "%4", "%5"):
        ddg.add_node(reg, NodeKind.REGISTER, reg)
    edges = [("s", "%1"), ("%1", "a"), ("r", "%2"), ("%2", "a"),
             ("a", "%3"), ("%3", "m"), ("b", "%4"), ("%4", "m"),
             ("m", "%5"), ("%5", "sum")]
    for parent, child in edges:
        ddg.add_edge(parent, child)
    return ddg


class TestDDGStructure:
    def test_add_node_idempotent(self):
        ddg = DDG()
        first = ddg.add_node("x", NodeKind.MLI)
        second = ddg.add_node("x", NodeKind.MLI)
        assert first is second
        assert ddg.node_count == 1

    def test_edges_and_parent_child_queries(self):
        ddg = build_paper_like_ddg()
        assert ddg.parents_of("a") == {"%1", "%2"}
        assert ddg.children_of("m") == {"%5"}
        assert ("%5", "sum") in ddg.edges()

    def test_self_edges_ignored(self):
        ddg = DDG()
        ddg.add_node("x", NodeKind.MLI)
        ddg.add_edge("x", "x")
        assert ddg.edge_count == 0

    def test_edge_requires_nodes(self):
        ddg = DDG()
        ddg.add_node("x", NodeKind.MLI)
        with pytest.raises(KeyError):
            ddg.add_edge("x", "ghost")

    def test_remove_node_cleans_edges(self):
        ddg = build_paper_like_ddg()
        ddg.remove_node("m")
        assert not ddg.has_node("m")
        assert "m" not in ddg.parents_of("%5")
        assert "%3" in ddg.node_keys()

    def test_ancestors(self):
        ddg = build_paper_like_ddg()
        assert {"s", "r", "%1", "%2"} <= ddg.ancestors_of("a")
        assert "sum" not in ddg.ancestors_of("a")

    def test_copy_is_independent(self):
        ddg = build_paper_like_ddg()
        clone = ddg.copy()
        clone.remove_node("sum")
        assert ddg.has_node("sum")
        assert clone.node_count == ddg.node_count - 1

    def test_mli_nodes_listing(self):
        ddg = build_paper_like_ddg()
        assert {n.key for n in ddg.mli_nodes()} == {"s", "r", "a", "b", "sum"}

    def test_to_networkx_export(self):
        graph = build_paper_like_ddg().to_networkx()
        assert graph.number_of_nodes() == 11
        assert graph.has_edge("%5", "sum")
        assert graph.nodes["a"]["kind"] == "mli"

    def test_to_dot_contains_nodes(self):
        dot = build_paper_like_ddg().to_dot()
        assert "digraph" in dot
        assert '"sum"' in dot


class TestContraction:
    def test_contracted_ddg_has_only_mli_nodes(self):
        complete = build_paper_like_ddg()
        contracted = contract_ddg(complete)
        assert {n.key for n in contracted.nodes()} == {"s", "r", "a", "b", "sum"}

    def test_contracted_edges_match_paper_figure(self):
        complete = build_paper_like_ddg()
        contracted = contract_ddg(complete)
        assert contracted.parents_of("a") == {"s", "r"}
        assert contracted.parents_of("sum") == {"a", "b"}
        assert contracted.parents_of("s") == set()

    def test_contraction_soundness_helper(self):
        complete = build_paper_like_ddg()
        contracted = contract_ddg(complete)
        assert contraction_is_sound(complete, contracted)

    def test_original_graph_not_mutated(self):
        complete = build_paper_like_ddg()
        nodes_before = complete.node_count
        contract_ddg(complete)
        assert complete.node_count == nodes_before
        assert complete.has_node("m")

    def test_cycle_through_local_terminates(self):
        """A local accumulator t = t + x creates a cycle t -> %r -> t; the
        contraction must terminate and still expose x as sum's ancestor."""
        ddg = DDG()
        ddg.add_node("x", NodeKind.MLI)
        ddg.add_node("sum", NodeKind.MLI)
        ddg.add_node("t", NodeKind.LOCAL)
        ddg.add_node("%1", NodeKind.REGISTER)
        ddg.add_node("%2", NodeKind.REGISTER)
        # t = t + x  (load t -> %1, load x -> %2, add, store t)
        ddg.add_edge("t", "%1")
        ddg.add_edge("x", "%2")
        ddg.add_edge("%1", "t")
        ddg.add_edge("%2", "t")
        # sum = t
        ddg.add_edge("t", "sum")
        contracted = contract_ddg(ddg)
        assert contracted.parents_of("sum") == {"x"}
        assert contraction_is_sound(ddg, contracted)

    def test_mli_parent_chain_not_shortcut(self):
        """Dependencies running through another MLI variable stop there: the
        contraction must not create a transitive edge bypassing it."""
        ddg = DDG()
        for name in ("a", "b", "c"):
            ddg.add_node(name, NodeKind.MLI)
        ddg.add_node("%1", NodeKind.REGISTER)
        ddg.add_node("%2", NodeKind.REGISTER)
        ddg.add_edge("a", "%1")
        ddg.add_edge("%1", "b")
        ddg.add_edge("b", "%2")
        ddg.add_edge("%2", "c")
        contracted = contract_ddg(ddg)
        assert contracted.parents_of("c") == {"b"}
        assert contracted.parents_of("b") == {"a"}
        assert "a" not in contracted.parents_of("c")

    def test_explicit_mli_keys_argument(self):
        ddg = build_paper_like_ddg()
        contracted = contract_ddg(ddg, mli_keys=["a", "sum"])
        assert set(contracted.node_keys()) == {"a", "sum"}

    def test_example_contraction_matches_paper(self, example_report):
        contracted = example_report.contracted_ddg
        labels = {node.key: node.label for node in contracted.nodes()}
        by_label = {}
        for parent, child in contracted.edges():
            by_label.setdefault(labels[child], set()).add(labels[parent])
        assert by_label["sum"] == {"a", "b"}
        assert by_label["a"] == {"s", "r"}
        assert by_label["b"] == {"a"}

    def test_example_contraction_sound(self, example_report):
        mli_keys = {node.key for node in example_report.contracted_ddg.nodes()}
        assert contraction_is_sound(example_report.complete_ddg,
                                    example_report.contracted_ddg,
                                    mli_keys=mli_keys)
