"""Independent correctness oracle.

Shares no code with the package under test: eigenvalues come from numpy's
LAPACK ``eigvalsh``, maximal cliques from networkx ``find_cliques``, and
degrees, common-neighbour counts and outside counts from numpy matrix
products.  Family members are also checked against closed forms.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np

THEOREMS = ("lem1", "sandwich", "hoffman", "delsarte", "walk", "minus2", "four", "extension")
#: numeric eigenvalues closer than this are one eigenvalue
EIG_GAP = 1e-6


def group_eigs(values_asc: np.ndarray) -> list[tuple[float, int]]:
    """Descending (value, multiplicity) pairs from ascending eigenvalues."""
    groups: list[list[float]] = []
    for x in values_asc:
        if groups and x - groups[-1][-1] < EIG_GAP:
            groups[-1].append(float(x))
        else:
            groups.append([float(x)])
    return [(sum(g) / len(g), len(g)) for g in reversed(groups)]


def _constant(values) -> int | None:
    vals = set(int(x) for x in values)
    return vals.pop() if len(vals) == 1 else None


def expect(a: np.ndarray) -> dict:
    """Everything the oracle predicts for one graph's `analyze` record."""
    n = len(a)
    ai = a.astype(np.int64)
    deg = ai.sum(axis=1)
    edges = int(deg.sum()) // 2
    a2 = ai @ ai
    triangles = int(np.trace(a2 @ ai)) // 6
    complete = edges == n * (n - 1) // 2
    regular = len(set(deg.tolist())) == 1
    off = ~np.eye(n, dtype=bool)
    lam = _constant(a2[ai == 1]) if regular and edges else None
    mu = None
    if lam is not None and not complete:
        mu = _constant(a2[(ai == 0) & off])
    g = nx.from_numpy_array(ai)
    reg_cliques: dict[tuple[int, ...], int] = {}
    if not complete:
        cliques = list(nx.find_cliques(g))
        member = np.zeros((len(cliques), n), dtype=bool)
        for i, c in enumerate(cliques):
            member[i, c] = True
        # outside[i, x]: members of clique i adjacent to x, for x outside it
        outside = member.astype(np.int64) @ ai
        hi = np.where(member, -1, outside).max(axis=1)
        lo = np.where(member, n, outside).min(axis=1)
        for i in np.flatnonzero((hi == lo) & (lo > 0)):
            reg_cliques[tuple(sorted(cliques[i]))] = int(lo[i])
    if complete:
        taxonomy = "CompleteExcluded"
    elif not regular:
        taxonomy = "NotRegular"
    elif lam is None:
        taxonomy = "RegularNotEdgeRegular"
    elif not reg_cliques:
        taxonomy = "EdgeRegularNoRegularClique"
    elif mu is not None:
        taxonomy = "NeumaierSRG"
    else:
        taxonomy = "StrictlyNeumaier"
    params: dict = {"v": n}
    if lam is not None:
        params.update(k=int(deg[0]), **{"lambda": lam})
    if mu is not None:
        params["mu"] = mu
    if taxonomy in ("NeumaierSRG", "StrictlyNeumaier"):
        orders = {len(c) for c in reg_cliques}
        nexus = set(reg_cliques.values())
        params.update(s=orders.pop() - 1, e=nexus.pop())
    return {
        "n": n,
        "edges": edges,
        "triangles": triangles,
        "taxonomy": taxonomy,
        "params": params,
        "eigs": group_eigs(np.linalg.eigvalsh(ai.astype(float))),
        "regular_cliques": reg_cliques,
        "diameter": nx.diameter(g) if n and nx.is_connected(g) else None,
    }


def _merge(pairs) -> dict[Fraction, int]:
    out: Counter = Counter()
    for value, mult in pairs:
        if mult:
            out[Fraction(value)] += mult
    return dict(out)


def closed_form(kind: str, params: tuple) -> dict:
    """(v, k, lambda, mu, s, e), the taxonomy and the spectrum of a family
    member from its closed form.  Complements use srg(v, v-k-1,
    v-2-2k+mu, v-2k+lambda) and eigenvalues -1-theta."""
    base = kind.removeprefix("co-")
    if base == "rook":
        (m,) = params
        v, k, lam, mu = m * m, 2 * (m - 1), m - 2, 2
        eigs = [(k, 1), (m - 2, 2 * (m - 1)), (-2, (m - 1) ** 2)]
        s, e = (m - 1, 1) if kind == base else (m - 1, m - 2)
    elif base == "johnson2":
        (m,) = params
        v, k, lam, mu = m * (m - 1) // 2, 2 * (m - 2), m - 2, 4
        eigs = [(k, 1), (m - 4, m - 1), (-2, m * (m - 3) // 2)]
        # Kneser K(m,2): the perfect matchings are regular cliques for even m
        s, e = (m - 2, 2) if kind == base else (m // 2 - 1, m // 2 - 2)
        if kind != base and (m % 2 or e < 1):
            s = e = None
    elif base == "multipartite":
        p, m = params
        v, k, lam, mu = p * m, (p - 1) * m, (p - 2) * m, (p - 1) * m
        eigs = [(k, 1), (0, p * (m - 1)), (-m, p - 1)]
        # p disjoint K_m: every outside count is 0
        s, e = (p - 1, p - 1) if kind == base else (None, None)
    else:
        raise ValueError(f"no closed form for {kind}")
    if kind != base:
        k, lam, mu = v - k - 1, v - 2 - 2 * k + mu, v - 2 * k + lam
        eigs = [(k, 1)] + [(-1 - t, mult) for t, mult in eigs[1:]]
    taxonomy = "NeumaierSRG" if s is not None else "EdgeRegularNoRegularClique"
    params_out = {"v": v, "k": k, "lambda": lam, "mu": mu}
    if s is not None:
        params_out.update(s=s, e=e)
    return {"taxonomy": taxonomy, "params": params_out, "eigs": _merge(eigs)}


def check_record(rec: dict, graph6: str, exp: dict, family: tuple | None) -> list[str]:
    """Differences between one `analyze` JSON record and the oracle."""
    errs = []

    def want(what, got, expected):
        if got != expected:
            errs.append(f"{what}: got {got!r}, expected {expected!r}")

    want("graph6", rec.get("graph6"), graph6)
    want("n", rec.get("n"), exp["n"])
    want("taxonomy", rec.get("taxonomy"), exp["taxonomy"])
    p = rec.get("params", {})
    want("params", {key: p.get(key) for key in exp["params"]}, exp["params"])
    extra = {"k", "lambda", "mu", "s", "e"} & set(p) - set(exp["params"])
    want("unexpected params", sorted(extra), [])
    want("diameter", rec.get("diameter"), exp["diameter"])

    sp = rec.get("spectrum", {})
    eigs = [tuple(x) for x in sp.get("eigs", [])]
    want("distinct", sp.get("distinct"), len(exp["eigs"]))
    want("multiplicities", [m for _, m in eigs], [m for _, m in exp["eigs"]])
    want("multiplicity sum", sum(m for _, m in eigs), exp["n"])
    if len(eigs) == len(exp["eigs"]):
        worst = max(abs(x - y) for (x, _), (y, _) in zip(eigs, exp["eigs"]))
        if worst > EIG_GAP:
            errs.append(f"eigenvalues off by {worst:.3g}")
    cp = [int(c) for c in sp.get("charpoly", [])]
    want("charpoly length", len(cp), exp["n"] + 1)
    if len(cp) >= 4:
        want("charpoly c0..c3", cp[:4], [1, 0, -exp["edges"], -2 * exp["triangles"]])

    got_cliques = {tuple(c["members"]): c["nexus"] for c in rec.get("regular_cliques", [])}
    want("regular cliques", got_cliques, exp["regular_cliques"])
    if any(c["order"] != len(c["members"]) for c in rec.get("regular_cliques", [])):
        errs.append("clique order differs from its member count")

    th = rec.get("theorems", {})
    want("theorem ids", sorted(th), sorted(THEOREMS))
    bad = sorted(t for t, o in th.items() if o.get("status") == "violated")
    want("violated theorems", bad, [])

    if family is not None and family[0] == "cayley":
        want("cayley taxonomy", rec.get("taxonomy"), "StrictlyNeumaier")
        want("cayley (v,k,lambda,s,e)",
             tuple(p.get(x) for x in ("v", "k", "lambda", "s", "e")), (16, 9, 4, 3, 2))
        want("cayley distinct", sp.get("distinct"), 6)
    elif family is not None:
        cf = closed_form(*family)
        want("closed-form taxonomy", rec.get("taxonomy"), cf["taxonomy"])
        want("closed-form params", {key: p.get(key) for key in cf["params"]}, cf["params"])
        got = _merge((round(x), m) for x, m in eigs)
        if max(abs(x - round(x)) for x, _ in eigs) > EIG_GAP:
            errs.append("a closed-form family member has a non-integer eigenvalue")
        want("closed-form spectrum", got, cf["eigs"])
    return errs


def sweep_expectation(n: int) -> dict:
    """Brute force over all labeled graphs on n vertices: taxonomy counts
    and the distinct-eigenvalue histogram (batched eigvalsh)."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    a = np.zeros((len(masks), n, n), dtype=np.int64)
    for b, (i, j) in enumerate(pairs):
        a[:, i, j] = a[:, j, i] = (masks >> b) & 1
    deg = a.sum(axis=2)
    regular = (deg == deg[:, :1]).all(axis=1)
    eig = np.linalg.eigvalsh(a.astype(float))
    distinct = 1 + (np.diff(eig, axis=1) >= EIG_GAP).sum(axis=1)
    taxonomy = Counter({"NotRegular": int((~regular).sum())})
    srg_by_degree: Counter = Counter()
    for idx in np.flatnonzero(regular):
        t = expect(a[idx])["taxonomy"]
        taxonomy[t] += 1
        if t == "NeumaierSRG":
            srg_by_degree[int(deg[idx, 0])] += 1
    return {
        "total": len(masks),
        "regular": int(regular.sum()),
        "taxonomy": dict(taxonomy),
        "srg_by_degree": dict(srg_by_degree),
        "distinct_histogram": {str(k): int(v) for k, v in sorted(Counter(distinct.tolist()).items())},
    }


#: facts about n = 6 that the brute force itself must reproduce: 172
#: regular labeled graphs, and 25 Neumaier SRGs = 15 octahedra (degree 4)
#: plus 10 copies of K_{3,3} (degree 3)
SWEEP6_FACTS = {"regular": 172, "srg_by_degree": {4: 15, 3: 10}}


def check_sweep(doc: dict, exp: dict) -> list[str]:
    """Differences between a `sweep --format json` document and the
    brute-force expectation."""
    errs = []

    def want(what, got, expected):
        if got != expected:
            errs.append(f"{what}: got {got!r}, expected {expected!r}")

    want("ok", doc.get("ok"), True)
    want("total", doc.get("total"), exp["total"])
    want("taxonomy", doc.get("taxonomy"), exp["taxonomy"])
    want("distinct histogram", doc.get("distinct_histogram"), exp["distinct_histogram"])
    want("violations", doc.get("violations"), {})
    want("four-eigenvalue Neumaier graphs", doc.get("neumaier_four_eigenvalue_count"), 0)
    want("strictly Neumaier", doc.get("strictly_neumaier"), [])
    want("cluster mismatches", doc.get("cluster_mismatches"), 0)
    th = doc.get("theorems", {})
    want("theorem ids", sorted(th), sorted(THEOREMS))
    for tid, st in th.items():
        want(f"{tid} violated", st.get("violated"), 0)
        want(f"{tid} holds+skipped", st.get("holds", 0) + st.get("skipped", 0), exp["total"])
    return errs
