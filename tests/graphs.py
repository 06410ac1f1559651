"""Conflict graphs for the tests.  A graph is its adjacency list, as
``build_conflict_graph`` returns it: entry i is the set of i's neighbours."""


def edges(adj) -> frozenset[tuple[int, int]]:
    """The graph's edges as (i, j) pairs with i < j."""
    return frozenset((i, j) for i, nbrs in enumerate(adj) for j in nbrs if i < j)


def from_edges(n: int, pairs=()) -> list[set[int]]:
    """The adjacency list of ``n`` vertices joined by the (i, j) ``pairs``."""
    adj = [set() for _ in range(n)]
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)
    return adj
