"""Data dependency graph (DDG) structure.

Nodes are either MLI variables, local variables (including temporaries of
called functions), or virtual registers; a directed edge ``parent -> child``
means "child's value depends on parent" — exactly the structure of the
paper's Fig. 5(c).  The contraction pass (Algorithm 1) removes every node
that is not an MLI variable, producing Fig. 5(d).

The graph is a thin adjacency structure of its own (the contraction operates
on parents-of queries, which we keep O(1)); :meth:`DDG.to_networkx` exports
to :mod:`networkx` for tests, metrics and visualisation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


class NodeKind(enum.Enum):
    """What a DDG vertex stands for."""

    MLI = "mli"
    LOCAL = "local"
    REGISTER = "register"


@dataclass(frozen=True)
class DDGNode:
    """One DDG vertex."""

    key: str
    kind: NodeKind
    label: str

    @property
    def is_mli(self) -> bool:
        return self.kind is NodeKind.MLI


class DDG:
    """A mutable directed dependency graph."""

    def __init__(self) -> None:
        self._nodes: Dict[str, DDGNode] = {}
        self._parents: Dict[str, Set[str]] = {}
        self._children: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, key: str, kind: NodeKind, label: Optional[str] = None) -> DDGNode:
        node = self._nodes.get(key)
        if node is None:
            node = DDGNode(key=key, kind=kind, label=label or key)
            self._nodes[key] = node
            self._parents[key] = set()
            self._children[key] = set()
        return node

    def set_node_kind(self, key: str, kind: NodeKind) -> None:
        """Re-label an existing node (no-op for unknown keys).

        Used by the single-pass engine: a variable's MLI status may only be
        proven *after* its node was created (the qualifying loop access can
        come later in the stream), so node kinds are finalized once the
        walk ends.  Edges are untouched.
        """
        node = self._nodes.get(key)
        if node is not None and node.kind is not kind:
            self._nodes[key] = DDGNode(key=node.key, kind=kind,
                                       label=node.label)

    def add_edge(self, parent_key: str, child_key: str) -> None:
        if parent_key == child_key:
            return
        if parent_key not in self._nodes or child_key not in self._nodes:
            raise KeyError("both endpoints must be added before the edge")
        self._parents[child_key].add(parent_key)
        self._children[parent_key].add(child_key)

    def remove_node(self, key: str) -> None:
        if key not in self._nodes:
            return
        for parent in self._parents.pop(key, set()):
            self._children[parent].discard(key)
        for child in self._children.pop(key, set()):
            self._parents[child].discard(key)
        del self._nodes[key]

    def remove_edge(self, parent_key: str, child_key: str) -> None:
        self._parents.get(child_key, set()).discard(parent_key)
        self._children.get(parent_key, set()).discard(child_key)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def node(self, key: str) -> DDGNode:
        return self._nodes[key]

    def has_node(self, key: str) -> bool:
        return key in self._nodes

    def nodes(self) -> List[DDGNode]:
        return list(self._nodes.values())

    def node_keys(self) -> List[str]:
        return list(self._nodes.keys())

    def parents_of(self, key: str) -> Set[str]:
        return set(self._parents.get(key, set()))

    def children_of(self, key: str) -> Set[str]:
        return set(self._children.get(key, set()))

    def edges(self) -> List[Tuple[str, str]]:
        out: List[Tuple[str, str]] = []
        for child, parents in self._parents.items():
            for parent in parents:
                out.append((parent, child))
        return out

    def edges_by_parent(self) -> List[Tuple[str, List[str]]]:
        """The edges in ``(parent, child)`` key order, grouped by parent:
        each parent with a child, in key order, with its children in key
        order (the order :func:`sorted` gives :meth:`edges`)."""
        children = self._children
        return [(parent, sorted(children[parent]))
                for parent in sorted([key for key, child_keys
                                      in children.items() if child_keys])]

    def mli_nodes(self) -> List[DDGNode]:
        return [node for node in self._nodes.values() if node.is_mli]

    def ancestors_of(self, key: str) -> Set[str]:
        """All transitive ancestors of ``key`` (not including itself)."""
        seen: Set[str] = set()
        work = list(self._parents.get(key, set()))
        while work:
            current = work.pop()
            if current in seen:
                continue
            seen.add(current)
            work.extend(self._parents.get(current, set()))
        return seen

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(parents) for parents in self._parents.values())

    # ------------------------------------------------------------------ #
    # Interop / utilities
    # ------------------------------------------------------------------ #
    def copy(self) -> "DDG":
        clone = DDG()
        for node in self._nodes.values():
            clone.add_node(node.key, node.kind, node.label)
        for child, parents in self._parents.items():
            for parent in parents:
                clone.add_edge(parent, child)
        return clone

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (edges parent -> child)."""
        import networkx as nx

        graph = nx.DiGraph()
        for node in self._nodes.values():
            graph.add_node(node.key, kind=node.kind.value, label=node.label)
        for parent, child in self.edges():
            graph.add_edge(parent, child)
        return graph

    def to_dot(self) -> str:
        """Render as Graphviz DOT (used by examples to show Fig. 5 graphs)."""
        lines = ["digraph ddg {"]
        shape = {NodeKind.MLI: "box", NodeKind.LOCAL: "ellipse",
                 NodeKind.REGISTER: "circle"}
        for node in self._nodes.values():
            lines.append(
                f'  "{node.key}" [label="{node.label}", shape={shape[node.kind]}];')
        for parent, child in sorted(self.edges()):
            lines.append(f'  "{parent}" -> "{child}";')
        lines.append("}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same nodes (key, kind, label) and edges.

        Needed by the artifact store's round-trip guarantee — a report
        deserialized from JSON must compare equal to the report it was
        serialized from, and :class:`~repro.core.report.AutoCheckReport` is
        a dataclass whose ``__eq__`` recurses into its DDGs.
        """
        if not isinstance(other, DDG):
            return NotImplemented
        return (self._nodes == other._nodes
                and self._parents == other._parents)

    __hash__ = None  # mutable container; structural eq forbids hashing

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DDG nodes={self.node_count} edges={self.edge_count}>"
