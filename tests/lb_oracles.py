"""Reference implementations of the lower-bound kernels, kept as oracles.

These are the straightforward forms the production kernels in
:mod:`repro.core.lower_bounds` and :mod:`repro.exact.search` were
optimized from:

* :func:`connected_subsets` — the recursive include/exclude generator
  that enumerates without counting;
* :func:`lb2_exact_witness` — a full :func:`subset_bound` call (an edge
  rescan) per enumerated subset;
* :func:`peel` — the capacity-aware peel that takes a ``min()`` over
  every live node at every step;
* :func:`dense_subsets` — the B&B prune table with a bitmask edge
  rescan per subset.

Tests assert that the production code returns exactly what these do.
"""

import math

from repro.core.lower_bounds import subset_bound

_FREE, _IN_SUBSET, _EXCLUDED, _IN_FRONTIER = 0, 1, 2, 3


def connected_subsets(adjacency, min_size=2):
    n = len(adjacency)
    adj = [
        sorted({u for u in row if u != i and 0 <= u < n})
        for i, row in enumerate(adjacency)
    ]
    status = [_FREE] * n

    def extend(root, subset, frontier):
        if not frontier:
            if len(subset) >= min_size:
                yield tuple(sorted(subset))
            return
        v = frontier[0]
        rest = frontier[1:]
        status[v] = _IN_SUBSET
        added = [u for u in adj[v] if u > root and status[u] == _FREE]
        for u in added:
            status[u] = _IN_FRONTIER
        subset.append(v)
        yield from extend(root, subset, rest + added)
        subset.pop()
        for u in added:
            status[u] = _FREE
        status[v] = _EXCLUDED
        yield from extend(root, subset, rest)
        status[v] = _IN_FRONTIER

    for root in range(n):
        status[root] = _IN_SUBSET
        frontier = [u for u in adj[root] if u > root]
        for u in frontier:
            status[u] = _IN_FRONTIER
        yield from extend(root, [root], frontier)
        for u in frontier:
            status[u] = _FREE
        status[root] = _FREE


def instance_adjacency(instance):
    nodes = list(instance.graph.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adjacency = [[] for _ in nodes]
    for _eid, u, v in instance.graph.edges():
        adjacency[index[u]].append(index[v])
        adjacency[index[v]].append(index[u])
    return nodes, adjacency


def lb2_exact_witness(instance):
    nodes, adjacency = instance_adjacency(instance)
    best = 0
    best_subset = []
    for combo in connected_subsets(adjacency):
        value = subset_bound(instance, [nodes[i] for i in combo])
        if value > best:
            best = value
            best_subset = [nodes[i] for i in combo]
    return best_subset, best


def peel(instance, component):
    graph = instance.graph
    nodes = set(component)
    internal_degree = {v: 0 for v in nodes}
    edges_inside = 0
    for _eid, u, v in graph.edges():
        if u in nodes and v in nodes:
            internal_degree[u] += 1
            internal_degree[v] += 1
            edges_inside += 1
    capacity_sum = sum(instance.capacity(v) for v in nodes)
    best = 0
    best_subset = []
    while len(nodes) >= 2 and edges_inside > 0:
        half = capacity_sum // 2
        if half > 0:
            value = math.ceil(edges_inside / half)
            if value > best:
                best = value
                best_subset = sorted(nodes, key=repr)
        victim = min(
            nodes, key=lambda v: (internal_degree[v] / instance.capacity(v), repr(v))
        )
        nodes.discard(victim)
        capacity_sum -= instance.capacity(victim)
        for eid in graph.incident_edges(victim):
            other = graph.other_endpoint(eid, victim)
            if other in nodes:
                internal_degree[other] -= 1
                edges_inside -= 1
        internal_degree.pop(victim, None)
    return best_subset, best


def dense_subsets(ci, max_tracked):
    g = ci.graph
    caps = ci.capacities
    adjacency = [
        [g.inc_other[i] for i in range(g.indptr[v], g.indptr[v + 1])]
        for v in range(g.num_nodes)
    ]
    scored = []
    for combo in connected_subsets(adjacency, min_size=2):
        mask = 0
        capsum = 0
        for v in combo:
            mask |= 1 << v
            capsum += caps[v]
        inside = sum(
            1
            for e in range(g.num_edges)
            if (mask >> g.edge_u[e]) & 1 and (mask >> g.edge_v[e]) & 1
        )
        half = capsum // 2
        if inside == 0 or half == 0:
            continue
        bound = -(-inside // half)
        if bound >= 2:
            scored.append((bound, combo, inside))
    scored.sort(key=lambda item: (-item[0], len(item[1]), item[1]))
    return [(combo, inside) for _bound, combo, inside in scored[:max_tracked]]

