"""Mixed-graph construction, surgery, m-separation, and DOT I/O."""

import random

import pytest

from ttebench import (
    Admg,
    CycleDetected,
    DotParseError,
    NodeLabel,
    OverlappingSets,
    Regime,
    ScenarioKind,
    SelfLoop,
    UnknownNode,
    X,
    Y,
    Yx,
    ancestors,
    build_amwn,
    build_graph,
    build_trial_graph,
    descendants,
    m_separated,
    mutilate,
    parse_dot,
    to_dot,
)
from ttebench.graphs import A as node_A
from ttebench.graphs import B as node_B
from ttebench.graphs import C as node_C

from ._oracles import (
    oracle_ancestors,
    oracle_descendants,
    oracle_m_separated,
    oracle_mutilate,
    oracle_reach_m_separated,
    random_admg,
    random_query,
)

SCEN_A = ScenarioKind.from_code("A")
SCEN_B = ScenarioKind.from_code("B")


# ---------------------------------------------------------------- labels


def test_node_label_parse_round_trips_every_kind():
    for name in ["X1", "Y7", "Yx3", "C", "A", "B", "X12"]:
        assert NodeLabel.parse(name).name == name


def test_node_label_rejects_malformed_names():
    for bad in ["X", "Y0", "Yx", "C1", "Q3", "", "X-1", "x1"]:
        with pytest.raises(ValueError):
            NodeLabel.parse(bad)


def test_periodless_kinds_reject_periods_and_vice_versa():
    with pytest.raises(ValueError):
        NodeLabel(node_C.kind, 1)
    with pytest.raises(ValueError):
        NodeLabel(X(1).kind, None)


# ---------------------------------------------------------- construction


def test_build_graph_minimal_two_node_graph():
    g = build_graph({X(1), Y(1)}, [(X(1), Y(1))], [])
    assert g.nodes == frozenset({X(1), Y(1)})
    assert g.directed == frozenset({(X(1), Y(1))})
    assert g.bidirected == frozenset()


def test_build_graph_rejects_two_cycle():
    with pytest.raises(CycleDetected):
        build_graph({X(1), Y(1)}, [(X(1), Y(1)), (Y(1), X(1))], [])


def test_build_graph_rejects_self_loop_and_unknown_endpoint():
    with pytest.raises(SelfLoop):
        build_graph({X(1)}, [(X(1), X(1))], [])
    with pytest.raises(UnknownNode):
        build_graph({X(1)}, [(X(1), Y(1))], [])
    with pytest.raises(UnknownNode):
        build_graph({X(1), X(2)}, [], [(X(1), Y(9))])


def test_full_scenario_a_graph_has_25_directed_edges():
    g = build_trial_graph(SCEN_A, 3)
    assert len(g.nodes) == 9
    assert len(g.directed) == 25
    assert len(g.bidirected) == 0


# -------------------------------------------------------------- ancestry


def test_ancestors_of_chain_and_root():
    g = build_graph({X(1), Y(1), Y(2)}, [(X(1), Y(1)), (Y(1), Y(2))], [])
    assert ancestors(g, {Y(2)}) == frozenset({X(1), Y(1), Y(2)})
    assert ancestors(g, {X(1)}) == frozenset({X(1)})


def test_y1_is_a_root_of_the_simplified_scenario_a_graph():
    g = build_trial_graph(SCEN_A, 3, with_latents=False)
    assert ancestors(g, {Y(1)}) == frozenset({Y(1)})


def test_ancestors_is_idempotent_on_random_graphs():
    rng = random.Random(5)
    for _ in range(30):
        g = random_admg(rng)
        nodes = sorted(g.nodes, key=lambda n: n.sort_key)
        targets = {n for n in nodes if rng.random() < 0.3}
        once = ancestors(g, targets)
        assert ancestors(g, once) == once


def test_descendants_mirrors_ancestors():
    g = build_trial_graph(SCEN_B, 3, with_latents=False)
    for node in g.nodes:
        assert node in descendants(g, {node})
        for other in descendants(g, {node}):
            assert node in ancestors(g, {other})


def test_ancestors_rejects_unknown_targets():
    g = build_trial_graph(SCEN_A, 2, with_latents=False)
    with pytest.raises(UnknownNode):
        ancestors(g, {Yx(1)})


# -------------------------------------------------------------- mutilate


def test_remove_incoming_on_all_treatments_simplified():
    g = build_trial_graph(SCEN_A, 3, with_latents=False)
    cut = mutilate(g, remove_incoming={X(1), X(2), X(3)})
    for u, v in cut.directed:
        assert v not in {X(1), X(2), X(3)}
    assert (X(1), X(2)) in g.directed
    assert (X(1), X(2)) not in cut.directed
    assert cut.nodes == g.nodes


def test_remove_outgoing_on_chain_gives_edgeless_graph():
    g = build_graph({X(1), Y(1)}, [(X(1), Y(1))], [])
    cut = mutilate(g, remove_outgoing={X(1)})
    assert cut.directed == frozenset()
    assert cut.nodes == g.nodes


def test_remove_incoming_on_full_graph_keeps_x_outgoing_edges():
    g = build_trial_graph(SCEN_A, 3)
    xs = {X(1), X(2), X(3)}
    cut = mutilate(g, remove_incoming=xs)
    assert all(v not in xs for _, v in cut.directed)
    kept_from_x = {(u, v) for u, v in cut.directed if u in xs}
    expected = {(u, v) for u, v in g.directed if u in xs and v not in xs}
    assert kept_from_x == expected


def test_mutilate_deletes_bidirected_touching_remove_incoming_only():
    g = build_graph(
        {Y(1), Yx(1), X(1)},
        [(X(1), Y(1))],
        [(Y(1), Yx(1))],
    )
    assert mutilate(g, remove_incoming={Yx(1)}).bidirected == frozenset()
    assert mutilate(g, remove_outgoing={Yx(1)}).bidirected == g.bidirected


def test_mutilate_never_adds_edges_property():
    rng = random.Random(11)
    for _ in range(40):
        g = random_admg(rng)
        nodes = sorted(g.nodes, key=lambda n: n.sort_key)
        rin = {n for n in nodes if rng.random() < 0.3}
        rout = {n for n in nodes if rng.random() < 0.3}
        cut = mutilate(g, remove_incoming=rin, remove_outgoing=rout)
        assert cut.directed <= g.directed
        assert cut.bidirected <= g.bidirected
        assert cut.nodes == g.nodes


def test_mutilate_matches_label_set_surgery_property():
    """A mutilated graph is never re-validated; its edge sets, queries,
    equality and hash must still match a graph rebuilt from labels."""
    rng = random.Random(13)
    for _ in range(60):
        g = random_admg(rng)
        nodes = sorted(g.nodes, key=lambda n: n.sort_key)
        rin = {n for n in nodes if rng.random() < 0.3}
        rout = {n for n in nodes if rng.random() < 0.3}
        cut = mutilate(g, remove_incoming=rin, remove_outgoing=rout)
        want = oracle_mutilate(g, rin, rout)
        assert (cut.nodes, cut.directed, cut.bidirected) == tuple(want)
        rebuilt = build_graph(*want)
        assert cut == rebuilt and hash(cut) == hash(rebuilt)
        assert to_dot(cut) == to_dot(rebuilt)
        a, b, z = random_query(rng, g)
        assert m_separated(cut, a, b, z) == oracle_m_separated(want, a, b, z)
        assert ancestors(cut, a) == oracle_ancestors(want, a)
    g = build_trial_graph(SCEN_B, 3)
    assert mutilate(g) == g and mutilate(g) != mutilate(g, {X(1)})


def test_mutilate_rejects_unknown_nodes():
    g = build_trial_graph(SCEN_A, 2, with_latents=False)
    with pytest.raises(UnknownNode):
        mutilate(g, remove_incoming={X(9)})


# ---------------------------------------------------------- m-separation


def test_direct_edge_cannot_be_blocked():
    g = build_trial_graph(SCEN_A, 3, with_latents=False)
    assert m_separated(g, {Y(3)}, {X(3)}, {Y(2), X(2)}) is False


def test_intervened_simplified_graph_separates_y1_from_x1():
    g = build_trial_graph(SCEN_A, 3, with_latents=False)
    cut = mutilate(g, remove_incoming={X(1), X(2), X(3)})
    assert m_separated(cut, {Y(1)}, {X(1)}, set()) is True


def test_scenario_b_amwn_has_open_path_to_final_treatment():
    amwn = build_amwn(SCEN_B, 3, Regime.always_from_start())
    assert (
        m_separated(amwn, {Yx(3)}, {X(3)}, {X(1), X(2), Y(1), Y(2), Y(3)})
        is False
    )


def test_counterfactual_copy_is_connected_to_its_factual_twin():
    for kind in (SCEN_A, SCEN_B):
        amwn = build_amwn(kind, 3, Regime.always_from_start())
        assert m_separated(amwn, {Y(3)}, {Yx(3)}, set()) is False


def test_m_separated_validates_inputs():
    g = build_trial_graph(SCEN_A, 2, with_latents=False)
    with pytest.raises(OverlappingSets):
        m_separated(g, {Y(1)}, {Y(1)}, set())
    with pytest.raises(OverlappingSets):
        m_separated(g, {Y(1)}, {X(1)}, {X(1)})
    with pytest.raises(UnknownNode):
        m_separated(g, {Y(1)}, {X(9)}, set())


def test_empty_query_sets_are_separated():
    g = build_trial_graph(SCEN_A, 2, with_latents=False)
    assert m_separated(g, set(), {X(1)}, set()) is True
    assert m_separated(g, {Y(1)}, set(), set()) is True


def test_m_separation_is_symmetric_on_random_graphs():
    rng = random.Random(23)
    for _ in range(60):
        g = random_admg(rng)
        a, b, z = random_query(rng, g)
        assert m_separated(g, a, b, z) == m_separated(g, b, a, z)


def test_m_separation_agrees_with_path_oracle_on_random_graphs():
    rng = random.Random(97)
    for _ in range(120):
        g = random_admg(rng)
        a, b, z = random_query(rng, g)
        want = oracle_m_separated(g, a, b, z)
        assert m_separated(g, a, b, z) == want, (
            g.directed,
            g.bidirected,
            a,
            b,
            z,
        )
        assert oracle_reach_m_separated(g, a, b, z) == want
        assert ancestors(g, a | z) == oracle_ancestors(g, a | z)
        assert descendants(g, b | z) == oracle_descendants(g, b | z)


def test_bidirected_edges_equal_explicit_latent_parents():
    """Replacing u <-> v by a fresh latent u <- L -> v preserves every
    m-separation verdict among the original nodes."""
    rng = random.Random(41)
    for _ in range(40):
        g = random_admg(rng)
        if not g.bidirected:
            continue
        nodes = set(g.nodes)
        directed = set(g.directed)
        pairs = sorted(
            (sorted(pair, key=lambda n: n.sort_key) for pair in g.bidirected),
            key=lambda uv: (uv[0].sort_key, uv[1].sort_key),
        )
        for i, (u, v) in enumerate(pairs):
            latent = Y(100 + i)
            nodes.add(latent)
            directed.add((latent, u))
            directed.add((latent, v))
        expanded = build_graph(nodes, directed, [])
        a, b, z = random_query(rng, g)
        assert m_separated(g, a, b, z) == m_separated(expanded, a, b, z)


# ------------------------------------------------------------------ DOT


def test_empty_graph_dot():
    assert to_dot(build_graph(set(), [], [])) == "digraph g { }"


def test_dot_contains_directed_edge_line():
    g = build_graph({X(1), Y(1)}, [(X(1), Y(1))], [])
    assert "X1 -> Y1;" in to_dot(g)


def test_full_scenario_a_dot_has_9_nodes_and_25_edges():
    text = to_dot(build_trial_graph(SCEN_A, 3))
    lines = text.splitlines()
    node_lines = [l for l in lines if l.endswith(";") and "->" not in l]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == 9
    assert len(edge_lines) == 25


def test_bidirected_dot_annotation():
    amwn = build_amwn(SCEN_A, 3, Regime.always_from_start())
    text = to_dot(amwn)
    assert "[dir=both, style=dashed];" in text


def test_dot_round_trip_on_scenario_and_random_graphs():
    graphs = [
        build_trial_graph(SCEN_A, 3),
        build_trial_graph(SCEN_B, 4, with_latents=False),
        build_amwn(SCEN_B, 3, Regime.never()),
        build_graph(set(), [], []),
    ]
    rng = random.Random(3)
    graphs += [random_admg(rng) for _ in range(20)]
    for g in graphs:
        back = parse_dot(to_dot(g))
        assert back.nodes == g.nodes
        assert back.directed == g.directed
        assert back.bidirected == g.bidirected


def test_parse_dot_rejects_malformed_text():
    for bad in [
        "",
        "graph g { }",
        "digraph g { X1 -- Y1; }",
        "digraph g { X1 -> Y1 }",
        "digraph g { Q9; }",
    ]:
        with pytest.raises(DotParseError):
            parse_dot(bad)


# ------------------------------------------------------------- mutation


def test_admg_is_hashable_and_frozen():
    g = build_trial_graph(SCEN_A, 2, with_latents=False)
    with pytest.raises(AttributeError):
        g.nodes = frozenset()
    assert isinstance(hash(g.directed), int)


def test_m_separation_with_latent_confounders_open_and_blocked():
    g = build_trial_graph(SCEN_A, 2)
    # X1 <- A -> X2 keeps the treatments marginally connected.
    assert m_separated(g, {X(1)}, {X(2)}, set()) is False
    # B reaches X1 only through Y nodes; blocking them separates.
    assert m_separated(g, {node_B}, {X(1)}, {node_C, Y(1)}) is True
    # The latent causes are marginally independent but conditioning on
    # the collider X1 (A -> X1 <- Y1 <- B) connects them.
    g1 = build_trial_graph(SCEN_A, 1)
    assert m_separated(g1, {node_A}, {node_B}, set()) is True
    assert m_separated(g1, {node_A}, {node_B}, {X(1)}) is False
