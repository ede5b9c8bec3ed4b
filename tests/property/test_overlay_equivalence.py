"""Property tests: the batched overlay engine against the scalar reference.

Randomized topologies, origins (ultrapeer and leaf), and TTLs; with
per-link latency zeroed, the event-driven flood is a strict BFS, so the
columnar frontier expansion must reproduce its message counts, hit
counts, and reach sets exactly.  The second group drives random batch
churn through :class:`CSRTopology` and checks the graph against a
plain-dict model of the same operations.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SyntheticWorkloadGenerator
from repro.gnutella.columnar_overlay import (
    compare_runs,
    flood_context_from_overlay,
    flood_queries,
    simulate_workload,
)
from repro.gnutella.overlay import OverlayNetwork
from repro.gnutella.topology import CSRTopology

CATALOG = [f"song track{i}" for i in range(25)] + [f"movie {i}" for i in range(15)]


@settings(max_examples=15, deadline=None)
@given(
    n_ultrapeers=st.integers(3, 12),
    n_leaves=st.integers(0, 25),
    degree=st.integers(1, 4),
    attachments=st.integers(1, 2),
    seed=st.integers(0, 2**16),
    ttl=st.integers(1, 5),
)
def test_flood_matches_event_reference(
    n_ultrapeers, n_leaves, degree, attachments, seed, ttl
):
    net = OverlayNetwork(
        n_ultrapeers=n_ultrapeers,
        n_leaves=n_leaves,
        ultrapeer_degree=degree,
        leaf_attachments=attachments,
        latency_ms=(0.0, 0.0),
        seed=seed,
    )
    net.seed_libraries(CATALOG, mean_files=6.0)
    rng = np.random.default_rng(seed + 1)
    queries = [CATALOG[int(rng.integers(len(CATALOG)))] for _ in range(4)]
    ctx, node_ids = flood_context_from_overlay(net, extra_vocab=queries)
    index = {n: i for i, n in enumerate(node_ids)}
    all_ids = list(net.nodes)
    for text in queries:
        origin = all_ids[int(rng.integers(len(all_ids)))]
        outcome = net.flood_query(origin, text, ttl=ttl)
        result = flood_queries(
            ctx,
            np.array([index[origin]]),
            ctx.codes_for([text]),
            ttl=ttl,
            record_reach=True,
        )
        assert int(result.messages[0]) == outcome.messages_sent
        assert int(result.hits[0]) == outcome.hits
        event_reach = {index[p] for p in outcome.peers_reached} | {index[origin]}
        assert set(result.reach_node.tolist()) == event_reach


@settings(max_examples=6, deadline=None)
@given(
    n_peers=st.integers(20, 60),
    seed=st.integers(0, 2**16),
    rounds=st.integers(4, 20),
)
# Observed session ends differ in the last bit here unless both engines
# add the idle-probe and idle-close overshoots in the same order.
@example(n_peers=26, seed=7954, rounds=4)
def test_simulation_battery_on_random_workloads(n_peers, seed, rounds):
    # The full engine on a shared seed: hop-1 capture stream, reach
    # sets, sessions, keepalives -- every observable identical.
    run_seconds = rounds * 30.0
    workload = SyntheticWorkloadGenerator(
        n_peers=n_peers, seed=seed
    ).generate_columnar(run_seconds)
    columnar = simulate_workload(
        workload, run_seconds, backend="columnar", record_reach=True
    )
    event = simulate_workload(
        workload, run_seconds, backend="event", record_reach=True
    )
    checks = compare_runs(columnar, event)
    assert checks["ok"], checks


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_csr_churn_matches_dict_model(data):
    capacity = data.draw(st.integers(4, 30))
    topo = CSRTopology(capacity)
    model = {}  # node -> set of neighbours
    for _ in range(data.draw(st.integers(1, 8))):
        inactive = sorted(set(range(capacity)) - set(model))
        active = sorted(model)
        op = data.draw(st.sampled_from(["add", "remove", "connect", "disconnect"]))
        if op == "add" and inactive:
            batch = data.draw(
                st.lists(st.sampled_from(inactive), min_size=1, unique=True)
            )
            modes = data.draw(
                st.lists(
                    st.booleans(), min_size=len(batch), max_size=len(batch)
                )
            )
            topo.add_nodes(np.asarray(batch), np.asarray(modes))
            for node in batch:
                model[node] = set()
        elif op == "remove" and active:
            batch = data.draw(
                st.lists(st.sampled_from(active), min_size=1, unique=True)
            )
            topo.remove_nodes(np.asarray(batch))
            for node in batch:
                for other in model.pop(node):
                    model[other].discard(node)
        elif op in ("connect", "disconnect") and len(active) >= 2:
            pair_strategy = (
                st.tuples(st.sampled_from(active), st.sampled_from(active))
                .filter(lambda p: p[0] != p[1])
            )
            pairs = data.draw(st.lists(pair_strategy, min_size=1, max_size=6))
            a = np.asarray([p[0] for p in pairs])
            b = np.asarray([p[1] for p in pairs])
            if op == "connect":
                topo.connect(a, b)
                for x, y in pairs:
                    model[x].add(y)
                    model[y].add(x)
            else:
                topo.disconnect(a, b)
                for x, y in pairs:
                    model[x].discard(y)
                    model[y].discard(x)
        topo.validate()
    assert topo.n_nodes == len(model)
    assert topo.n_edges == sum(len(v) for v in model.values()) // 2
    for node, neighbours in model.items():
        assert set(topo.neighbours(node).tolist()) == neighbours
