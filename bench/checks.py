"""Output checks for the benchmark tasks, independent of the highgirth code.

Each check returns a list of problems; an empty list means the outputs
stand.  The base graph, the sampling stream and the margin formula are
rebuilt here from their documented definitions, so a defect in the
program cannot hide behind the same defect in the check.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations

import numpy as np

MARGIN_TOL = 1e-9
PROB_TOL = 1e-12
HYPOTHESIS_CAP = 0.69
HOLDS_TOL = 1e-12  # the checker's own tolerance on negative margins


@lru_cache(maxsize=None)
def base_edges(n: int) -> tuple[int, list[tuple[int, int]]]:
    """(vertex count, canonical edge list) of the base graph G_{4n}.

    Vertices are the balanced 0/1 vectors of length 4n in numeric order of
    their bitmasks; two are adjacent when their scalar product is n.
    """
    dim = 4 * n
    masks = [m for m in range(1 << dim) if m.bit_count() == 2 * n]
    edges = [
        (i, j)
        for i, mi in enumerate(masks)
        for j in range(i + 1, len(masks))
        if (mi & masks[j]).bit_count() == n
    ]
    return len(masks), edges


def sample_mask(num_edges: int, seed: int, p: float) -> int:
    """Edge mask of the seeded sample: one PCG64 uniform per edge in
    canonical order, edge i kept when draw i is below p."""
    draws = np.random.Generator(np.random.PCG64(seed)).random(num_edges)
    packed = np.packbits(draws < p, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def shortest_cycle(num_vertices: int, edges, mask: int, limit: int) -> int | None:
    """Length of the shortest cycle of the masked subgraph if it is at most
    ``limit``, else None.  Depth-bounded breadth-first search from every
    vertex: a non-tree edge closes a walk through the root of length
    d(u) + d(w) + 1, and the minimum over all roots is the girth."""
    adj: list[list[int]] = [[] for _ in range(num_vertices)]
    for i, (u, v) in enumerate(edges):
        if (mask >> i) & 1:
            adj[u].append(v)
            adj[v].append(u)
    best = limit + 1
    for root in range(num_vertices):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                du = dist[u]
                if 2 * du + 1 >= best:
                    continue
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = du + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w:
                        best = min(best, du + dist[w] + 1)
            frontier = nxt
    return best if best <= limit else None


def check_events_file(doc: dict, n: int, l: int | None, p: float) -> list[str]:
    """Check an ``events --k 3`` file event by event against the benchmark's
    own base graph: the cycle events are exactly its triangles, and with
    ``l`` the subset events (retained and unavoidable) are exactly its
    l-subsets, each with the base edges it spans and probability
    ``(1 - p)^edges``; a subset is unavoidable exactly when it spans none."""
    problems = []
    num_vertices, edges = base_edges(n)
    index = {e: i for i, e in enumerate(edges)}
    for key, want in (("n", n), ("l", l), ("k", 3), ("p", p)):
        if doc.get(key) != want:
            problems.append(f"events file has {key}={doc.get(key)!r}, expected {want!r}")
    triangles, subsets = set(), set()
    for where, group in (("events", doc["events"]), ("unavoidable", doc["unavoidable"])):
        for i, ev in enumerate(group):
            members = tuple(ev["members"])
            pairs = [(u, w) for u, w in combinations(sorted(members), 2) if (u, w) in index]
            spanned = sorted(index[e] for e in pairs)
            if ev["kind"] == "cycle":
                triangles.add(frozenset(members))
                ok = (where == "events" and ev["meta"] == len(members) == len(pairs) == 3
                      and ev["variable_set"] == spanned
                      and math.isclose(ev["probability"], p**3, rel_tol=PROB_TOL))
            else:
                subsets.add(members)
                ok = (ev["kind"] == "independent_set" and ev["meta"] == l
                      and list(members) == sorted(members) and len(set(members)) == l
                      and ev["variable_set"] == spanned
                      and (where == "unavoidable") == (not spanned)
                      and math.isclose(ev["probability"], (1 - p) ** len(spanned), rel_tol=PROB_TOL))
            if not ok and len(problems) < 5:
                problems.append(f"{where}[{i}] = {ev!r} does not match the base graph")
    adj = [set() for _ in range(num_vertices)]
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    own_triangles = sum(len(adj[u] & adj[w]) for u, w in edges) // 3
    if len(triangles) != own_triangles or len(triangles) != sum(
            ev["kind"] == "cycle" for ev in doc["events"]):
        problems.append(f"{len(triangles)} distinct cycle events, the base graph has {own_triangles} triangles")
    want_subsets = math.comb(num_vertices, l) if l is not None else 0
    if len(subsets) != want_subsets or len(doc["events"]) + len(doc["unavoidable"]) != (
            want_subsets + len(triangles)):
        problems.append(f"{len(subsets)} distinct subset events, expected C({num_vertices}, {l}) = {want_subsets}")
    return problems


def _recipe_delta(ev: dict, p: float, f: float) -> float:
    if ev["kind"] == "cycle":
        return math.e
    return math.exp(p ** (1 + f) * len(ev["variable_set"]))


def _recipe_weight(ev: dict, p: float) -> float:
    """Neighbour term of the two-line multiplier condition, without 2*delta."""
    if ev["kind"] == "cycle":
        return p ** ev["meta"]
    return math.exp(-p * len(ev["variable_set"]))


def check_lll_pair(
    events_doc: dict,
    report: dict,
    rc: int,
    p: float,
    f: float,
    sample_seed: str,
    samples: int = 200,
) -> list[str]:
    """Check an ``lll-check --recipe-multipliers`` report against the events
    file it read: exit code, verdict flags, and the margins of ``samples``
    seeded event indices recomputed from the benchmark's own edge index."""
    problems = []
    events = events_doc["events"]
    margins = report["margins"]
    if abs(events_doc["p"] - p) > 1e-15:
        problems.append(f"events file has p={events_doc['p']}, expected {p}")
    if len(margins) != len(events):
        return problems + [f"{len(margins)} margins for {len(events)} events"]
    infeasible = bool(events_doc["unavoidable"])
    if report["infeasible"] != infeasible:
        problems.append(f"infeasible={report['infeasible']}, events file says {infeasible}")
    deltas = [_recipe_delta(ev, p, f) for ev in events]
    violations = [
        i for i, (d, ev) in enumerate(zip(deltas, events))
        if not 0 < d * ev["probability"] < HYPOTHESIS_CAP
    ]
    holds = not infeasible and not violations and all(m >= -HOLDS_TOL for m in margins)
    if report["holds"] != holds:
        problems.append(f"holds={report['holds']}, recomputed {holds}")
    if rc != (0 if report["holds"] else 2):
        problems.append(f"exit code {rc} disagrees with holds={report['holds']}")
    by_edge: dict[int, list[int]] = {}
    for j, ev in enumerate(events):
        for e in ev["variable_set"]:
            by_edge.setdefault(e, []).append(j)
    weights = [_recipe_weight(ev, p) for ev in events]
    probs = [ev["probability"] for ev in events]
    log_form = report.get("log_form")
    rng = random.Random(sample_seed)
    for i in sorted(rng.sample(range(len(events)), min(samples, len(events)))):
        nbrs = sorted({j for e in events[i]["variable_set"] for j in by_edge[e]} - {i})
        margin = math.log(deltas[i]) - sum(2 * deltas[j] * weights[j] for j in nbrs)
        if not math.isclose(margins[i], margin, rel_tol=MARGIN_TOL, abs_tol=MARGIN_TOL):
            problems.append(f"margin[{i}] = {margins[i]!r}, recomputed {margin!r}")
        if log_form is not None:
            exact = math.log(deltas[i]) - sum(2 * deltas[j] * probs[j] for j in nbrs)
            if not math.isclose(log_form["margins"][i], exact, rel_tol=MARGIN_TOL, abs_tol=MARGIN_TOL):
                problems.append(f"log-form margin[{i}] = {log_form['margins'][i]!r}, recomputed {exact!r}")
    if (log_form is None) != (infeasible or not events):
        problems.append("log-form check present on an infeasible system, or missing on a feasible one")
    return problems


def check_certificate(
    cert: dict,
    recheck: dict,
    n: int,
    k: int,
    l: int | None,
    seed: int,
    p: float,
    submask_of_sample: bool,
) -> list[str]:
    """Check a search certificate against a fresh ``certify`` of its mask and
    against the benchmark's own girth search (and, for the deletion method,
    against the seeded sample it must be carved from)."""
    problems = []
    num_vertices, edges = base_edges(n)
    for key in ("alpha", "girth", "chi_lower", "edge_mask_hex"):
        if cert.get(key) != recheck.get(key):
            problems.append(f"certify says {key}={recheck.get(key)!r}, search said {cert.get(key)!r}")
    if (cert["n"], cert["k"], cert["seed"]) != (n, k, seed):
        problems.append(f"certificate is for (n, k, seed)={(cert['n'], cert['k'], cert['seed'])}")
    if l is not None and cert["l"] != l:
        problems.append(f"certificate has l={cert['l']}, asked for {l}")
    if not cert["alpha"] <= cert["l"] or cert["chi_lower"] != -(-num_vertices // cert["l"]):
        problems.append(f"alpha={cert['alpha']}, l={cert['l']}, chi_lower={cert['chi_lower']} disagree")
    if cert["girth"] != "infinite" and cert["girth"] <= k:
        problems.append(f"certificate claims girth {cert['girth']}, not above k={k}")
    mask = int(cert["edge_mask_hex"], 16)
    if mask >> len(edges):
        return problems + ["edge mask is wider than the base edge list"]
    found = shortest_cycle(num_vertices, edges, mask, k)
    if found is not None:
        problems.append(f"a {found}-cycle survives; girth is not above k={k}")
    if submask_of_sample and mask & ~sample_mask(len(edges), seed, p):
        problems.append("certificate keeps edges that the seeded sample does not")
    return problems
