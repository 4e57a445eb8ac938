#!/usr/bin/env python3
"""The random subgraph model and its two bad-event families.

A random spanning subgraph keeps each base edge independently with
probability p = gamma^(4n) (or an explicit override at desk scale).
Sampling is reproducible bit for bit: PCG64 seeded with the model seed,
one uniform per edge in canonical order.

Two event families obstruct what we want: an l-subset of vertices that
stays independent, and a short cycle that survives whole.  Both reduce
to edge indicator sets, so dependency is simply shared edges.
"""

import math

from highgirth import (
    EdgeSubset,
    EventSystem,
    ModelParams,
    build_base_graph,
    enumerate_cycle_events,
    enumerate_independent_set_events,
    log_probability,
    sample_subgraph,
)

g4 = build_base_graph(1)

params = ModelParams(n=1, gamma=0.7, seed=42)
print(f"gamma = {params.gamma}  =>  p = gamma^4 = {params.p:.4f}")
sub = sample_subgraph(g4, params)
print("sampled edges:", sub.num_edges, " mask:", sub.mask_hex())
print("same seed, same mask:", sample_subgraph(g4, params).mask == sub.mask)
print("replica seeds:", params.replica(1).seed, params.replica(2).seed)

# The measure is an honest product measure: summing it over all 2^12
# subgraphs of G_4 gives 1.
p = 0.3
total = math.fsum(
    math.exp(log_probability(g4, EdgeSubset(g4, mask), p)) for mask in range(1 << 12)
)
print(f"sum of P over all subgraphs at p={p}: {total:.12f}")

# Independent-set events for l = 3: every vertex triple of the
# octahedron spans 2 or 3 edges, so each event has probability (1-p)^a.
events = enumerate_independent_set_events(g4, 3, p)
sizes = sorted({len(ev.variable_set) for ev in events})
print(f"{len(events)} subset events, induced edge counts {sizes}")

# For l = 2 the three antipodal pairs span no edge at all: those events
# have probability 1 and no subgraph can avoid them.  They are flagged
# and the system reports itself infeasible.
pairs = enumerate_independent_set_events(g4, 2, p)
system = EventSystem.from_events(pairs)
print("l=2: retained", len(system), "events,", len(system.unavoidable), "unavoidable ->",
      "feasible" if system.feasible else "infeasible")

# Cycle events: the octahedron's 8 triangles, each with probability p^3.
triangles = enumerate_cycle_events(g4, 3, p)
system = EventSystem.from_events(triangles)
print(len(triangles), "triangle events; neighborhood sizes:",
      sorted({len(nb) for nb in system.neighbors}))
print("disjoint edge sets never depend on each other:",
      all(set(system.events[i].variable_set) & set(system.events[j].variable_set)
          for i in range(len(system)) for j in system.neighbors[i]))
