"""The graph checks against label-set oracles that share no bitset code.

``exchangeability_table`` builds one counterfactual network and runs one
reachability pass per treatment period; the oracle rebuilds the network
for every regime component and decides each cell with its own query.
``identification_report`` runs on bitset surgery; the oracle mutilates
label sets. Corrupted graphs make some premises false.
"""

import pytest

from ttebench import (
    Regime,
    ScenarioKind,
    X,
    Y,
    build_amwn,
    build_graph,
    build_trial_graph,
    exchangeability_table,
    identification_report,
    rule2_premise_holds,
    rule3_premise_holds,
)
from ttebench.graphs import B as node_B

from ._oracles import (
    oracle_amwn,
    oracle_exchangeability_table,
    oracle_identification_report,
)

KINDS = [ScenarioKind.from_code("A"), ScenarioKind.from_code("B")]


def _regimes(T):
    return (
        [Regime.never(), Regime.always_from_start()]
        + [Regime.initiate_at(j) for j in range(1, T + 1)]
        + [Regime.uniform_grace(g) for g in range(1, T + 1)]
    )


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.code)
def test_exchangeability_tables_match_per_cell_oracle(kind):
    for T in range(1, 9):
        amwn = build_amwn(kind, T, Regime.never())
        assert (amwn.nodes, amwn.directed, amwn.bidirected) == tuple(
            oracle_amwn(kind, T)
        )
        for regime in _regimes(T):
            assert exchangeability_table(kind, T, regime) == (
                oracle_exchangeability_table(kind, T, regime)
            ), (T, regime)


def _corruptions(kind, T):
    """The full graph with one extra latent-to-treatment edge, or with a
    bidirected edge confounding the last period's treatment and outcome."""
    g = build_trial_graph(kind, T)
    yield build_graph(g.nodes, set(g.directed) | {(node_B, X(2))}, g.bidirected)
    yield build_graph(g.nodes, g.directed, {frozenset((X(T), Y(T)))})


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.code)
def test_identification_matches_label_set_oracle(kind):
    false_premises = 0
    for T in range(1, 13):
        g = build_trial_graph(kind, T)
        assert identification_report(kind, T).to_dict() == (
            oracle_identification_report(g, kind, T)
        )
        if T < 2:
            continue
        for bad in _corruptions(kind, T):
            got = [
                {
                    "k": k,
                    "rule2": rule2_premise_holds(bad, kind, T, k),
                    "rule3": rule3_premise_holds(bad, kind, T, k),
                }
                for k in range(1, T + 1)
            ]
            assert got == oracle_identification_report(bad, kind, T)["periods"]
            false_premises += sum(
                not (p["rule2"] and p["rule3"]) for p in got
            )
    assert false_premises > 0
