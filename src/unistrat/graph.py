"""Reachability and strongly connected components over dense node numbers.

Buchi emptiness (Vardi & Wolper, LICS 1986) is one pass of Tarjan's SCC
algorithm (SIAM J. Comput. 1972).  Nodes are numbered once, at discovery,
so the SCC pass never hashes the (often structured) node objects again.
"""

from __future__ import annotations

from .errors import CapExceeded

__all__ = ["reachable", "live", "components"]


def reachable(seeds, successors, cap=None, what="graph nodes"):
    """Number the nodes reachable from the distinct seeds in breadth-first
    order, seeds first; successors(node) lists a node's successors in order.

    Returns (nodes, succ, parent): nodes[i] is node number i, succ[i] the
    numbers of its successors, parent[i] the node that discovered it (-1
    for seeds).  Raises CapExceeded once more than cap nodes are found,
    the seeds included.
    """
    nodes = list(seeds)
    if cap is not None and len(nodes) > cap:
        raise CapExceeded(what, len(nodes), cap)
    ids = {node: i for i, node in enumerate(nodes)}
    parent = [-1] * len(nodes)
    succ: list = []
    for node in nodes:   # appended to while walked, hence breadth-first
        out = []
        for target in successors(node):
            j = ids.get(target)
            if j is None:
                j = ids[target] = len(nodes)
                nodes.append(target)
                parent.append(len(succ))
                if cap is not None and len(nodes) > cap:
                    raise CapExceeded(what, len(nodes), cap)
            out.append(j)
        succ.append(out)
    return nodes, succ, parent


def live(seeds, successors, accepting, cap=None, what="graph nodes"):
    """The nodes reachable from the seeds, numbered as `reachable` numbers
    them, and the set of those that reach a node with accepting(node) true:
    a capped forward pass, then `reachable` on the reversed adjacency."""
    nodes, succ, _ = reachable(seeds, successors, cap, what)
    pred: list = [[] for _ in nodes]
    for i, row in enumerate(succ):
        for j in row:
            pred[j].append(i)
    found, _, _ = reachable([i for i, node in enumerate(nodes) if accepting(node)],
                            pred.__getitem__)
    return nodes, {nodes[i] for i in found}


def components(succ, accepting):
    """Strongly connected components of the graph with adjacency lists succ,
    by iterative Tarjan: yields (members, accepting_cycle) per component,
    each after every component it reaches; accepting_cycle tells whether a
    node with accepting[node] true lies on a cycle inside the component.
    """
    n = len(succ)
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack: list = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for child in it:
                if index[child] < 0:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(succ[child])))
                    break
                if on_stack[child] and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    members = []
                    while not members or members[-1] != node:
                        members.append(stack.pop())
                        on_stack[members[-1]] = False
                    cyclic = len(members) > 1 or node in succ[node]
                    yield members, cyclic and any(accepting[m] for m in members)
