"""Mixed causal graphs over labeled trial variables.

An :class:`Admg` holds directed and bidirected edges over
:class:`NodeLabel` nodes. Directed edges carry one arrowhead, bidirected
edges carry arrowheads at both ends (shared exogenous noise). The module
provides graph construction and validation, ancestor closures, graph
surgery (removal of incoming or outgoing edges), m-separation queries,
and DOT import/export.

Node identity is structural: a node is its ``(kind, period)`` pair, so
queries can quantify over, say, every treatment before period k without
tracking positional indices. Labels are the public interface: every
function takes and returns them. Internally a graph numbers its nodes
0..N-1 and stores each node's parents, children and siblings as integer
bitsets; a graph is validated once, when it is built from labels, and
:func:`mutilate` derives its result from those bitsets.

Graphs are immutable after construction; every query is read-only, so
concurrent evaluation is safe.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from functools import cached_property
from typing import FrozenSet, Iterable, Iterator, Tuple

from .errors import (
    CycleDetected,
    DotParseError,
    OverlappingSets,
    SelfLoop,
    UnknownNode,
)

__all__ = [
    "NodeKind",
    "NodeLabel",
    "Admg",
    "X",
    "Y",
    "Yx",
    "C",
    "A",
    "B",
    "build_graph",
    "ancestors",
    "descendants",
    "mutilate",
    "m_separated",
    "to_dot",
    "parse_dot",
]


class NodeKind(Enum):
    """Role of a node; the value is its short name prefix."""

    TREATMENT = "X"
    OUTCOME = "Y"
    COUNTERFACTUAL_OUTCOME = "Yx"
    BASELINE_CONFOUNDER = "C"
    LATENT_TREATMENT_CAUSE = "A"
    LATENT_OUTCOME_CAUSE = "B"


#: Kinds that never carry a period.
_PERIODLESS = frozenset(
    {
        NodeKind.BASELINE_CONFOUNDER,
        NodeKind.LATENT_TREATMENT_CAUSE,
        NodeKind.LATENT_OUTCOME_CAUSE,
    }
)

_KIND_ORDER = {
    NodeKind.TREATMENT: 0,
    NodeKind.OUTCOME: 1,
    NodeKind.COUNTERFACTUAL_OUTCOME: 2,
    NodeKind.BASELINE_CONFOUNDER: 3,
    NodeKind.LATENT_TREATMENT_CAUSE: 4,
    NodeKind.LATENT_OUTCOME_CAUSE: 5,
}

_NAME_RE = re.compile(r"^(Yx|X|Y|C|A|B)(\d*)$")


@dataclass(frozen=True)
class NodeLabel:
    """A trial variable: a kind plus, for per-period kinds, a period.

    ``X3`` is ``NodeLabel(NodeKind.TREATMENT, 3)``; the baseline
    confounder ``C`` is ``NodeLabel(NodeKind.BASELINE_CONFOUNDER)``.
    """

    kind: NodeKind
    period: int | None = None

    def __post_init__(self):
        if self.kind in _PERIODLESS:
            if self.period is not None:
                raise ValueError(f"{self.kind.name} nodes carry no period")
        else:
            if not isinstance(self.period, int) or self.period < 1:
                raise ValueError(
                    f"{self.kind.name} nodes need an integer period >= 1, "
                    f"got {self.period!r}"
                )

    @property
    def name(self) -> str:
        """Short name such as ``X1``, ``Yx3``, or ``C``."""
        if self.period is None:
            return self.kind.value
        return f"{self.kind.value}{self.period}"

    @property
    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.kind], self.period or 0)

    def __repr__(self) -> str:
        return self.name

    @classmethod
    def parse(cls, name: str) -> "NodeLabel":
        """Inverse of :attr:`name`; raises ``ValueError`` on bad input."""
        m = _NAME_RE.match(name.strip())
        if not m:
            raise ValueError(f"not a node name: {name!r}")
        prefix, digits = m.groups()
        kind = NodeKind(prefix)
        if kind in _PERIODLESS:
            if digits:
                raise ValueError(f"{prefix} carries no period: {name!r}")
            return cls(kind)
        if not digits:
            raise ValueError(f"{prefix} requires a period: {name!r}")
        return cls(kind, int(digits))


def X(period: int) -> NodeLabel:
    """Treatment node for a period."""
    return NodeLabel(NodeKind.TREATMENT, period)


def Y(period: int) -> NodeLabel:
    """Outcome (vital status) node for a period."""
    return NodeLabel(NodeKind.OUTCOME, period)


def Yx(period: int) -> NodeLabel:
    """Counterfactual outcome node for a period."""
    return NodeLabel(NodeKind.COUNTERFACTUAL_OUTCOME, period)


#: Baseline confounder (cause of every treatment and every outcome).
C = NodeLabel(NodeKind.BASELINE_CONFOUNDER)
#: Latent cause shared by all treatments.
A = NodeLabel(NodeKind.LATENT_TREATMENT_CAUSE)
#: Latent cause shared by all outcomes.
B = NodeLabel(NodeKind.LATENT_OUTCOME_CAUSE)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pairs(adjacency: Tuple[int, ...]) -> list[tuple[int, int]]:
    """Index pairs ``(u, v)`` for every bit ``v`` of ``adjacency[u]``,
    ordered by ``u`` and then ``v``."""
    return [(u, v) for u, bits in enumerate(adjacency) for v in _bits(bits)]


class Admg:
    """Acyclic directed mixed graph: directed plus bidirected edges.

    Construction validates that all edge endpoints are declared, no
    edge is a self-loop, and the directed part is acyclic. Use
    :func:`build_graph` to construct from plain iterables.

    ``nodes``, ``directed`` and ``bidirected`` are the label-level
    view. Internally node ``i`` is the ``i``-th label in
    :attr:`NodeLabel.sort_key` order, and the parents, children and
    siblings of each node are int bitsets over those indices. Graphs
    are immutable: assigning an attribute raises ``AttributeError``.
    """

    def __init__(self, nodes: FrozenSet[NodeLabel], directed: FrozenSet[tuple],
                 bidirected: FrozenSet[frozenset]):
        labels = tuple(sorted(nodes, key=lambda n: n.sort_key))
        index = {label: i for i, label in enumerate(labels)}

        def endpoint(u: NodeLabel) -> int:
            if u not in index:
                raise UnknownNode(f"edge endpoint {u} is not a declared node")
            return index[u]

        parents = [0] * len(labels)
        children = [0] * len(labels)
        siblings = [0] * len(labels)
        for u, v in directed:
            iu, iv = endpoint(u), endpoint(v)
            if iu == iv:
                raise SelfLoop(f"directed self-loop on {u}")
            parents[iv] |= 1 << iu
            children[iu] |= 1 << iv
        for pair in bidirected:
            if len(pair) != 2:
                raise SelfLoop(f"bidirected self-loop on {set(pair)}")
            iu, iv = (endpoint(u) for u in pair)
            siblings[iu] |= 1 << iv
            siblings[iv] |= 1 << iu
        indegree = [p.bit_count() for p in parents]
        ready = [v for v, d in enumerate(indegree) if d == 0]
        for u in ready:  # grows while it is walked: Kahn's algorithm
            for v in _bits(children[u]):
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready.append(v)
        if len(ready) != len(labels):
            cyclic = sorted(labels[v].name for v, d in enumerate(indegree) if d)
            raise CycleDetected(f"directed cycle among {cyclic}")
        self.__dict__.update(
            nodes=nodes, directed=directed, bidirected=bidirected,
            _labels=labels, _index=index, _pa=tuple(parents),
            _ch=tuple(children), _sib=tuple(siblings),
        )

    def _subgraph(self, pa, ch, sib) -> "Admg":
        """The graph over the same nodes with a subset of the edges: it
        needs no validation, and its label-level edge sets are built only
        when read."""
        g = object.__new__(Admg)
        g.__dict__.update(
            nodes=self.nodes, _labels=self._labels, _index=self._index,
            _pa=pa, _ch=ch, _sib=sib,
        )
        return g

    @cached_property
    def directed(self) -> FrozenSet[Tuple[NodeLabel, NodeLabel]]:
        labels = self._labels
        return frozenset((labels[u], labels[v]) for u, v in _pairs(self._ch))

    @cached_property
    def bidirected(self) -> FrozenSet[FrozenSet[NodeLabel]]:
        labels = self._labels
        return frozenset(
            frozenset((labels[u], labels[v]))
            for u, v in _pairs(self._sib) if u < v
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Admg) and (self._labels, self._pa, self._sib) == (
            other._labels, other._pa, other._sib
        )

    def __hash__(self) -> int:
        return hash((self._labels, self._pa, self._sib))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Admg({self.nodes!r}, {self.directed!r}, {self.bidirected!r})"

    def sorted_nodes(self) -> list[NodeLabel]:
        return list(self._labels)


def build_graph(
    nodes: Iterable[NodeLabel],
    directed: Iterable[Tuple[NodeLabel, NodeLabel]] = (),
    bidirected: Iterable[Tuple[NodeLabel, NodeLabel]] = (),
) -> Admg:
    """Validate and freeze a mixed graph.

    Parameters
    ----------
    nodes : iterable of NodeLabel
        The declared node set.
    directed : iterable of (tail, head) pairs
        Directed edges; the directed part must be acyclic.
    bidirected : iterable of unordered pairs
        Bidirected edges (arrowheads at both ends).

    Raises
    ------
    UnknownNode, SelfLoop, CycleDetected
    """
    node_set = frozenset(nodes)
    dir_set = frozenset((u, v) for u, v in directed)
    bidir_set = frozenset(frozenset(pair) for pair in bidirected)
    return Admg(node_set, dir_set, bidir_set)


def _mask(g: Admg, nodes: Iterable[NodeLabel]) -> int:
    """Bitset of ``nodes``; raises :class:`UnknownNode` for any not in ``g``."""
    index = g._index
    mask = 0
    missing = set()
    for n in nodes:
        i = index.get(n)
        if i is None:
            missing.add(n)
        else:
            mask |= 1 << i
    if missing:
        names = sorted(n.name for n in missing)
        raise UnknownNode(f"nodes not in graph: {names}")
    return mask


def _labels_of(g: Admg, mask: int) -> frozenset:
    labels = g._labels
    return frozenset(labels[i] for i in _bits(mask))


def _closure(adjacency: Tuple[int, ...], mask: int) -> int:
    """``mask`` plus every node reachable from it along ``adjacency``."""
    frontier = mask
    while frontier:
        step = 0
        for v in _bits(frontier):
            step |= adjacency[v]
        frontier = step & ~mask
        mask |= frontier
    return mask


def ancestors(g: Admg, targets: Iterable[NodeLabel]) -> frozenset:
    """Targets plus every node with a directed path into a target."""
    return _labels_of(g, _closure(g._pa, _mask(g, targets)))


def descendants(g: Admg, sources: Iterable[NodeLabel]) -> frozenset:
    """Sources plus every node reachable along directed edges."""
    return _labels_of(g, _closure(g._ch, _mask(g, sources)))


def mutilate(
    g: Admg,
    remove_incoming: Iterable[NodeLabel] = (),
    remove_outgoing: Iterable[NodeLabel] = (),
) -> Admg:
    """Copy of ``g`` with edges into/out of the given sets removed.

    Every directed edge pointing into ``remove_incoming`` and every
    directed edge leaving ``remove_outgoing`` is deleted. Bidirected
    edges touching ``remove_incoming`` are deleted too (they carry an
    incoming arrowhead); ``remove_outgoing`` leaves them in place. The
    node set is unchanged.
    """
    rin = _mask(g, remove_incoming)
    rout = _mask(g, remove_outgoing)
    return g._subgraph(
        tuple(0 if rin >> v & 1 else p & ~rout for v, p in enumerate(g._pa)),
        tuple(0 if rout >> u & 1 else c & ~rin for u, c in enumerate(g._ch)),
        tuple(0 if rin >> v & 1 else s & ~rin for v, s in enumerate(g._sib)),
    )


def _m_reach(g: Admg, a: int, z: int) -> int:
    """Bitset of the nodes m-connected to a node of ``a`` given ``z``.

    Breadth-first reachability over (node, arrived-through-head) states,
    one frontier bitset per arrival mark (Shachter's Bayes-Ball). A node
    of ``a`` is an endpoint and is left through every incident edge. A
    later node passes the walk on through a tail at itself only when it
    is outside ``z``, and from an arrowhead into another arrowhead (a
    collider) only when it is in ``z``. A collider that is open only
    through a descendant in ``z`` needs no ancestor closure: the walk
    runs down to that descendant, turns there and climbs back, arriving
    through a tail, so it reaches the same nodes.
    """
    pa, ch, sib = g._pa, g._ch, g._sib
    into_head = into_tail = 0
    for v in _bits(a):
        into_head |= ch[v] | sib[v]
        into_tail |= pa[v]
    head = tail = 0
    while True:
        into_head &= ~head
        into_tail &= ~tail
        if not (into_head or into_tail):
            return head | tail
        head |= into_head
        tail |= into_tail
        next_head = next_tail = 0
        for v in _bits(into_tail & ~z):
            next_head |= ch[v] | sib[v]
            next_tail |= pa[v]
        for v in _bits(into_head & ~z):
            next_head |= ch[v]
        for v in _bits(into_head & z):
            next_head |= sib[v]
            next_tail |= pa[v]
        into_head, into_tail = next_head, next_tail


def _m_connected(
    g: Admg, a: Iterable[NodeLabel], z: Iterable[NodeLabel]
) -> frozenset:
    """The nodes m-connected to some node of ``a`` given ``z``."""
    return _labels_of(g, _m_reach(g, _mask(g, a), _mask(g, z)))


def m_separated(
    g: Admg,
    a: Iterable[NodeLabel],
    b: Iterable[NodeLabel],
    z: Iterable[NodeLabel],
) -> bool:
    """True iff every path between ``a`` and ``b`` is blocked by ``z``.

    A bidirected edge behaves as a path segment with arrowheads at both
    ends. A non-collider on a path blocks it when conditioned; a
    collider blocks it unless the collider or one of its descendants is
    conditioned. ``a`` and ``b`` are separated iff the reachability
    pass from ``a`` meets no node of ``b``; agreement with exhaustive
    path enumeration is property-tested.
    """
    a_mask = _mask(g, a)
    b_mask = _mask(g, b)
    z_mask = _mask(g, z)
    if a_mask & b_mask or a_mask & z_mask or b_mask & z_mask:
        raise OverlappingSets("query sets must be pairwise disjoint")
    if not a_mask or not b_mask:
        return True
    return not _m_reach(g, a_mask, z_mask) & b_mask


def to_dot(g: Admg) -> str:
    """Emit the graph as DOT text.

    Directed edges appear as ``u -> v;`` lines; bidirected edges as
    ``u -> v [dir=both, style=dashed];``. Node and edge lines are sorted
    for stable output.
    """
    if not g.nodes:
        return "digraph g { }"
    names = [n.name for n in g._labels]
    lines = ["digraph g {"]
    lines += [f"  {name};" for name in names]
    lines += [f"  {names[u]} -> {names[v]};" for u, v in _pairs(g._ch)]
    lines += [
        f"  {names[u]} -> {names[v]} [dir=both, style=dashed];"
        for u, v in _pairs(g._sib) if u < v
    ]
    lines.append("}")
    return "\n".join(lines)


_DOT_EDGE_RE = re.compile(
    r"^(\w+)\s*->\s*(\w+)\s*"
    r"(\[\s*dir\s*=\s*both\s*,\s*style\s*=\s*dashed\s*\])?\s*;$"
)
_DOT_NODE_RE = re.compile(r"^(\w+)\s*;$")


def parse_dot(text: str) -> Admg:
    """Parse the DOT subset produced by :func:`to_dot`.

    One statement per line, no subgraphs or attributes other than the
    bidirected annotation. Raises :class:`DotParseError` on anything
    else.
    """
    stripped = text.strip()
    single = re.match(r"^digraph\s+\w+\s*\{\s*\}$", stripped)
    if single:
        return build_graph(())
    lines = [ln.strip() for ln in stripped.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not re.match(r"^digraph\s+\w+\s*\{$", lines[0]):
        raise DotParseError("expected a 'digraph <name> {' header")
    if lines[-1] != "}":
        raise DotParseError("expected a closing '}'")

    def node(name: str) -> NodeLabel:
        try:
            return NodeLabel.parse(name)
        except ValueError as exc:
            raise DotParseError(str(exc)) from None

    nodes: set[NodeLabel] = set()
    directed: list[tuple[NodeLabel, NodeLabel]] = []
    bidirected: list[tuple[NodeLabel, NodeLabel]] = []
    for ln in lines[1:-1]:
        edge = _DOT_EDGE_RE.match(ln)
        if edge:
            u, v = node(edge.group(1)), node(edge.group(2))
            nodes.update((u, v))
            if edge.group(3):
                bidirected.append((u, v))
            else:
                directed.append((u, v))
            continue
        decl = _DOT_NODE_RE.match(ln)
        if decl:
            nodes.add(node(decl.group(1)))
            continue
        raise DotParseError(f"unsupported DOT statement: {ln!r}")
    return build_graph(nodes, directed, bidirected)
