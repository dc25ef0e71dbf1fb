"""Walk through the graph-side quantities the flocking condition needs.

For each sample topology we print the in-neighbor sets, the roots (agents
whose information reaches everyone), the smallest spanning-tree depth
gamma_g, and the largest in-neighborhood size n_infinity.  Both constants
feed directly into the certificate threshold: deeper trees and busier
receivers shrink the admissible initial velocity spread.
"""
from delayflock import Digraph, compute_metrics

SAMPLES = {
    "chain with a branch (4 agents)":
        Digraph.from_arc_list(4, [(1, 2), (2, 3), (3, 1), (3, 4)],
                              one_based=True),
    "all-to-all (4 agents)": Digraph.complete(4),
    "directed path (5 agents)":
        Digraph.from_arc_list(5, [(1, 2), (2, 3), (3, 4), (4, 5)],
                              one_based=True),
    "two isolated pairs":
        Digraph.from_arc_list(4, [(1, 2), (3, 4)], one_based=True),
}


def describe(name: str, g: Digraph):
    print(f"\n=== {name} ===")
    receivers, senders = g.arc_list
    for i in range(g.n_vertices):
        listens = (senders[receivers == i] + 1).tolist()
        print(f"  agent {i + 1} listens to {listens or 'nobody'}")
    m = compute_metrics(g)
    if m.has_spanning_tree:
        print(f"  roots: {sorted(r + 1 for r in m.roots)} (1-based)")
        print(f"  smallest tree depth gamma_g = {m.gamma_g}")
    else:
        print("  no root reaches every agent: the flocking analysis "
              "does not apply")
    print(f"  max in-neighborhood n_infinity = {m.n_infinity}")


if __name__ == "__main__":
    for name, g in SAMPLES.items():
        describe(name, g)

    print("\n=== effect on the threshold ===")
    from delayflock import ModelParams, c_infinity
    for gamma in (1, 2, 3, 4):
        p = ModelParams(gamma_g=gamma, n_infinity=1, kappa=1.0, tau=1.0, d=2)
        print(f"  gamma_g={gamma}: threshold constant C = {c_infinity(p):.3e}")
