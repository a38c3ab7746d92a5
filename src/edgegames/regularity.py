"""Pseudo-randomness and regularity checks: unbiased pairs, P1/P2, regular
pairs, slicing, the density inequality, induced embeddings, cluster graphs,
and the constant-chain validator.

Everything threshold-shaped is exact rational arithmetic. Exact modes
enumerate the full quantifier and are capped by hard size limits; above the
cap they raise rather than silently sampling. Sampled modes take explicit
seeds and give a one-sided guarantee only (they can pass spuriously, never
fail spuriously).

Threshold strictness follows the source definitions verbatim: unbiasedness
uses <=, pair regularity uses strict <, cluster-graph adjacency uses >=.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .graphs import Graph, bits, density, edges_between, embed, mask_of


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value
    raise TypeError("cannot interpret %r as a rational" % (x,))


@dataclass
class RegularityReport:
    """Outcome of an unbiasedness or regular-pair check."""

    passed: bool
    mode: str  # "exact" | "sampled"
    deviation: Fraction  # worst observed deviation
    samples: int = 0
    witness_S: Optional[int] = None  # bitmask, present iff failed
    witness_T: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "mode": self.mode,
            "deviation_num": self.deviation.numerator,
            "deviation_den": self.deviation.denominator,
            "samples": self.samples,
            "witness_S": sorted(bits(self.witness_S)) if self.witness_S is not None else None,
            "witness_T": sorted(bits(self.witness_T)) if self.witness_T is not None else None,
        }


# ---------------------------------------------------------------------------
# JumbleG-style pseudo-randomness (unbiased pairs, P1, P2, margin lemma)
# ---------------------------------------------------------------------------

def is_unbiased(G: Graph, S: int, T: int, eps):
    """(ok, deviation) where deviation = |e(S,T)/(|S||T|) - 1/2|, ok iff <= eps."""
    eps = _as_fraction(eps)
    dev = abs(density(G, S, T) - Fraction(1, 2))
    return dev <= eps, dev


def check_p1(G: Graph, eps):
    """(ok, min_degree): ok iff min degree >= (1/2 - eps) * n."""
    eps = _as_fraction(eps)
    mindeg = G.min_degree()
    return Fraction(mindeg) >= (Fraction(1, 2) - eps) * G.n, mindeg


def _random_disjoint_pair(rng: random.Random, n: int, s: int, t: int):
    picks = rng.sample(range(n), s + t)
    return mask_of(picks[:s]), mask_of(picks[s:])


def check_p2(
    G: Graph,
    eps,
    mode: str = "exact",
    trials: int = 1000,
    seed: int = 0,
    exact_limit: int = 16,
    set_size: Optional[int] = None,
) -> RegularityReport:
    """Every disjoint pair S,T with |S|,|T| > eps*n must be eps-unbiased.

    Exact mode enumerates all qualifying pairs (n <= exact_limit). Sampled
    mode draws `trials` random disjoint pairs; by default both sets have the
    minimum qualifying size floor(eps*n)+1, overridable via `set_size` (small
    qualifying sets fluctuate binomially, so larger sizes give a sharper
    signal at moderate eps; see check_p2's callers).
    """
    eps = _as_fraction(eps)
    n = G.n
    half = Fraction(1, 2)
    min_size = 1
    while Fraction(min_size) <= eps * n:
        min_size += 1

    if mode == "exact":
        if n > exact_limit:
            raise ValueError("exact P2 limited to n <= %d" % exact_limit)
        worst = Fraction(0)
        witness = None
        verts = range(n)
        checked = 0
        for s_size in range(min_size, n - min_size + 1):
            for S in itertools.combinations(verts, s_size):
                Smask = mask_of(S)
                rest = [v for v in verts if not Smask >> v & 1]
                for t_size in range(min_size, len(rest) + 1):
                    for T in itertools.combinations(rest, t_size):
                        Tmask = mask_of(T)
                        checked += 1
                        dev = abs(density(G, Smask, Tmask) - half)
                        if dev > worst:
                            worst = dev
                            if dev > eps:
                                witness = (Smask, Tmask)
        passed = worst <= eps
        return RegularityReport(
            passed=passed,
            mode="exact",
            deviation=worst,
            samples=checked,
            witness_S=witness[0] if witness else None,
            witness_T=witness[1] if witness else None,
        )

    if mode != "sampled":
        raise ValueError("mode must be 'exact' or 'sampled'")
    if trials < 1:
        raise ValueError("sampled mode needs trials >= 1")
    size = min_size if set_size is None else set_size
    if size < min_size:
        raise ValueError("set_size below qualifying threshold")
    if 2 * size > n:
        raise ValueError("no disjoint pair of size %d fits in n=%d" % (size, n))
    rng = random.Random(seed)
    worst = Fraction(0)
    witness = None
    for _ in range(trials):
        S, T = _random_disjoint_pair(rng, n, size, size)
        dev = abs(density(G, S, T) - half)
        if dev > worst:
            worst = dev
            if dev > eps:
                witness = (S, T)
    return RegularityReport(
        passed=worst <= eps,
        mode="sampled",
        deviation=worst,
        samples=trials,
        witness_S=witness[0] if witness else None,
        witness_T=witness[1] if witness else None,
    )


def jumbleg_margin(e_B: int, e_M: int, s_size: int, t_size: int, eps):
    """(margin, bound, ok): margin = e_B - e_M, bound = 2*eps*|S||T| + 1."""
    if s_size < 1 or t_size < 1:
        raise ValueError("set sizes must be >= 1")
    eps = _as_fraction(eps)
    margin = e_B - e_M
    bound = 2 * eps * s_size * t_size + 1
    return margin, bound, Fraction(margin) <= bound


def jumbleg_eps_threshold(n: int) -> float:
    """The 2*(log n / n)^(1/3) threshold from the JumbleG winning criterion."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 2.0 * (math.log(n) / n) ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# Szemeredi-style regular pairs
# ---------------------------------------------------------------------------

def _subset_edge_matrix(G: Graph, A_list, B_list):
    """Edge counts e(X,Y) for all X subset A, Y subset B, as a 2^a x 2^b array.

    Subset indices are bitmasks over the positions of A_list / B_list.
    """
    a, b = len(A_list), len(B_list)
    M = np.zeros((a, b), dtype=np.int64)
    for i, u in enumerate(A_list):
        row = G.adj[u]
        for j, v in enumerate(B_list):
            M[i, j] = row >> v & 1
    # subset sums over rows: S[X] = sum of M rows in X
    S = np.zeros((1 << a, b), dtype=np.int64)
    for X in range(1, 1 << a):
        low = X & -X
        S[X] = S[X ^ low] + M[low.bit_length() - 1]
    # Y indicator matrix, b x 2^b
    Yind = np.zeros((b, 1 << b), dtype=np.int64)
    cols = np.arange(1 << b)
    for j in range(b):
        Yind[j] = cols >> j & 1
    return S @ Yind


def is_regular_pair(
    G: Graph,
    A: int,
    B: int,
    alpha,
    mode: str = "exact",
    trials: int = 1000,
    seed: int = 0,
    exact_limit: int = 24,
) -> RegularityReport:
    """alpha-regularity of (A,B): |d(A,B) - d(X,Y)| < alpha for all X sub A,
    Y sub B with |X| > alpha|A| and |Y| > alpha|B|.

    Exact mode enumerates every qualifying sub-pair (|A|+|B| <= exact_limit);
    sampled mode draws qualifying subsets at the minimum qualifying size.
    """
    alpha = _as_fraction(alpha)
    if A & B:
        raise ValueError("A and B overlap")
    a_list, b_list = sorted(bits(A)), sorted(bits(B))
    a, b = len(a_list), len(b_list)
    if a == 0 or b == 0:
        raise ValueError("empty side")
    d_num = edges_between(G, A, B)  # d(A,B) = d_num / (a*b)
    p, q = alpha.numerator, alpha.denominator

    if mode == "exact":
        if a + b > exact_limit:
            raise ValueError("exact regular-pair limited to |A|+|B| <= %d" % exact_limit)
        e_all = _subset_edge_matrix(G, a_list, b_list)
        xcard = np.array([X.bit_count() for X in range(1 << a)], dtype=np.int64)
        ycard = np.array([Y.bit_count() for Y in range(1 << b)], dtype=np.int64)
        x_ok = xcard * q > p * a  # |X| > alpha * |A|, exact
        y_ok = ycard * q > p * b
        xs = np.flatnonzero(x_ok)
        ys = np.flatnonzero(y_ok)
        worst = Fraction(0)
        witness = None
        checked = 0
        for X in xs:
            sizes = xcard[X] * ycard[ys]  # |X||Y|
            # deviation = |e(X,Y)*ab - d_num*|X||Y|| / (|X||Y|*ab)
            dev_num = np.abs(e_all[X, ys] * (a * b) - d_num * sizes)
            checked += len(ys)
            # float ratio locates the max; the value itself stays exact
            j = int(np.argmax(dev_num / sizes))
            dev = Fraction(int(dev_num[j]), int(sizes[j]) * a * b)
            if dev > worst:
                worst = dev
                if dev >= alpha:
                    Xmask = mask_of(a_list[i] for i in bits(int(X)))
                    Ymask = mask_of(b_list[i] for i in bits(int(ys[j])))
                    witness = (Xmask, Ymask)
        return RegularityReport(
            passed=worst < alpha,
            mode="exact",
            deviation=worst,
            samples=checked,
            witness_S=witness[0] if witness else None,
            witness_T=witness[1] if witness else None,
        )

    if mode != "sampled":
        raise ValueError("mode must be 'exact' or 'sampled'")
    if trials < 1:
        raise ValueError("sampled mode needs trials >= 1")
    x_size = 1
    while Fraction(x_size) <= alpha * a:
        x_size += 1
    y_size = 1
    while Fraction(y_size) <= alpha * b:
        y_size += 1
    rng = random.Random(seed)
    d = Fraction(d_num, a * b)
    worst = Fraction(0)
    witness = None
    for _ in range(trials):
        X = mask_of(rng.sample(a_list, x_size))
        Y = mask_of(rng.sample(b_list, y_size))
        dev = abs(d - density(G, X, Y))
        if dev > worst:
            worst = dev
            if dev >= alpha:
                witness = (X, Y)
    return RegularityReport(
        passed=worst < alpha,
        mode="sampled",
        deviation=worst,
        samples=trials,
        witness_S=witness[0] if witness else None,
        witness_T=witness[1] if witness else None,
    )


def slicing_alpha(alpha, L0: int, Li: int, Lj: int) -> Fraction:
    """Degraded parameter alpha' = max{2a, (L0/Li)a, (L0/Lj)a} for slices."""
    alpha = _as_fraction(alpha)
    if not (1 <= Li <= L0 and 1 <= Lj <= L0):
        raise ValueError("slice sizes must satisfy 1 <= Li,Lj <= L0")
    return max(2 * alpha, Fraction(L0, Li) * alpha, Fraction(L0, Lj) * alpha)


def verify_slicing(
    G: Graph,
    A: int,
    B: int,
    alpha,
    Li: int,
    Lj: int,
    trials: int = 100,
    seed: int = 0,
    exact_limit: int = 24,
):
    """Property harness for the slicing conclusion.

    Requires (A,B) exactly alpha-regular with |A| = |B| = L0 and slice sizes
    above alpha*L0. Draws random slices X,Y of sizes Li,Lj and checks each is
    alpha'-regular (exact mode) with density inside (d - alpha, d + alpha).
    Returns (violations, trials).
    """
    alpha = _as_fraction(alpha)
    a_list, b_list = sorted(bits(A)), sorted(bits(B))
    L0 = len(a_list)
    if len(b_list) != L0:
        raise ValueError("slicing harness needs |A| = |B|")
    if not (Fraction(Li) > alpha * L0 and Fraction(Lj) > alpha * L0):
        raise ValueError("slice sizes must exceed alpha * L0")
    src = is_regular_pair(G, A, B, alpha, mode="exact", exact_limit=exact_limit)
    if not src.passed:
        raise ValueError("source pair is not alpha-regular")
    d = density(G, A, B)
    aprime = slicing_alpha(alpha, L0, Li, Lj)
    rng = random.Random(seed)
    violations = 0
    for _ in range(trials):
        X = mask_of(rng.sample(a_list, Li))
        Y = mask_of(rng.sample(b_list, Lj))
        rep = is_regular_pair(G, X, Y, aprime, mode="exact", exact_limit=exact_limit)
        dxy = density(G, X, Y)
        if not rep.passed or not (d - alpha < dxy < d + alpha):
            violations += 1
    return violations, trials


# ---------------------------------------------------------------------------
# Induced embedding across parts
# ---------------------------------------------------------------------------

def find_induced_embedding(G: Graph, H: Graph, parts) -> Optional[tuple]:
    """A transversal u_1 in U_1, ..., u_f in U_f spanning an induced copy of H
    (u_i u_j an edge of G iff v_i v_j an edge of H), or None.
    """
    if len(parts) != H.n:
        raise ValueError("need exactly %d parts" % H.n)
    acc = 0
    for P in parts:
        if P == 0:
            raise ValueError("empty part")
        if P & acc:
            raise ValueError("parts overlap")
        acc |= P
    return embed(G, H, induced=True, domains=parts)


# ---------------------------------------------------------------------------
# Equipartitions, density inequality, cluster graph
# ---------------------------------------------------------------------------

def round_robin_partition(n: int, parts: int):
    """Equipartition of {0..n-1} into `parts` classes; vertex i in class i mod parts."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    masks = [0] * parts
    for v in range(n):
        masks[v % parts] |= 1 << v
    return masks


def is_equipartition(masks, ground: int) -> bool:
    acc = 0
    sizes = []
    for m in masks:
        if m & acc:
            return False
        acc |= m
        sizes.append(m.bit_count())
    return acc == ground and max(sizes) - min(sizes) <= 1


@dataclass
class DensityLemmaReport:
    hypotheses_ok: bool
    lhs: int  # e(U~), cross edges among the inner parts
    rhs: Fraction  # e(G) * l^2 L^2 / n^2 - 3 E l^2 L^2
    conclusion_ok: bool
    e_U: int  # edges inside the union of inner parts
    deviant_pairs: int
    failures: list = field(default_factory=list)


def check_density_lemma(G: Graph, outer, inner, E) -> DensityLemmaReport:
    """Check hypotheses and conclusion of the density inequality
    e(U) >= e(U~) >= e(G) * l^2 L^2 / n^2 - 3 E l^2 L^2.

    `outer` is an equipartition {V_i} of V(G); `inner` gives U_i subset V_i,
    all of equal size L. Hypotheses: at most E*C(l,2) pairs (i,j) have
    |d(V_i,V_j) - d(U_i,U_j)| >= E, plus the scale conditions l >= 1/E and
    l/n <= E/2 under which the inequality is derived. Both the hypothesis
    check and the displayed inequality are reported independently.
    """
    E = _as_fraction(E)
    n = G.n
    ell = len(outer)
    if ell != len(inner) or ell < 2:
        raise ValueError("need matching outer/inner partitions with >= 2 parts")
    ground = (1 << n) - 1
    if not is_equipartition(outer, ground):
        raise ValueError("outer is not an equipartition of V(G)")
    sizes = {m.bit_count() for m in inner}
    if len(sizes) != 1 or 0 in sizes:
        raise ValueError("inner parts must be nonempty and of equal size")
    for U, V in zip(inner, outer):
        if U & ~V:
            raise ValueError("inner part not contained in its outer part")
    acc = 0
    for U in inner:
        if U & acc:
            raise ValueError("inner parts overlap")
        acc |= U
    L = next(iter(sizes))

    failures = []
    deviant = 0
    for i in range(ell):
        for j in range(i + 1, ell):
            if abs(density(G, outer[i], outer[j]) - density(G, inner[i], inner[j])) >= E:
                deviant += 1
    if Fraction(deviant) > E * ell * (ell - 1) / 2:
        failures.append("deviant-pair count exceeds E*C(l,2)")
    if Fraction(ell) < 1 / E:
        failures.append("l < 1/E")
    if Fraction(ell, n) > E / 2:
        failures.append("l/n > E/2")

    e_between = sum(
        edges_between(G, inner[i], inner[j]) for i in range(ell) for j in range(i + 1, ell)
    )
    union = acc
    e_U = sum((G.adj[u] & union).bit_count() for u in bits(union)) // 2
    eG = G.edge_count()
    rhs = Fraction(eG * ell * ell * L * L, n * n) - 3 * E * ell * ell * L * L
    conclusion_ok = e_U >= e_between and Fraction(e_between) >= rhs
    return DensityLemmaReport(
        hypotheses_ok=not failures,
        lhs=e_between,
        rhs=rhs,
        conclusion_ok=conclusion_ok,
        e_U=e_U,
        deviant_pairs=deviant,
        failures=failures,
    )


def cluster_graph(G: Graph, parts, threshold) -> Graph:
    """Auxiliary graph on the parts: i ~ j iff d(parts[i], parts[j]) >= threshold."""
    threshold = _as_fraction(threshold)
    ell = len(parts)
    if ell < 2:
        raise ValueError("need at least 2 parts")
    edges = [
        (i, j)
        for i in range(ell)
        for j in range(i + 1, ell)
        if density(G, parts[i], parts[j]) >= threshold
    ]
    from .graphs import graph_from_edges

    return graph_from_edges(ell, edges)


# ---------------------------------------------------------------------------
# Constant schedule
# ---------------------------------------------------------------------------

@dataclass
class ConstantSchedule:
    """The constant chain eps << E0 << E1 << eta << delta << 1/f, with the
    user-supplied existence constants gamma, S0, S1 and cluster floor m.
    """

    epsilon: Fraction
    E0: Fraction
    E1: Fraction
    eta: Fraction
    delta: Fraction
    gamma: Fraction
    f: int
    k: int
    S0: int
    S1: int
    m: int

    def __post_init__(self):
        for name in ("epsilon", "E0", "E1", "eta", "delta", "gamma"):
            setattr(self, name, _as_fraction(getattr(self, name)))
        for name in ("f", "k", "S0", "S1", "m"):
            if not isinstance(getattr(self, name), int) or getattr(self, name) < 1:
                raise ValueError("%s must be a positive integer" % name)
        for name in ("epsilon", "E0", "E1", "eta", "delta", "gamma"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError("%s must lie in (0,1)" % name)


def validate_constants(
    c: ConstantSchedule, n: Optional[int] = None, strict_e1: bool = False
):
    """Evaluate the selection inequalities exactly.

    (2) delta >= 2*E0 + epsilon/3
    (3) epsilon <= 1/(S0*S1)
    (4) E0 <= delta/2 + epsilon
    (5) E0*S1 <= gamma

    When `n` is given, also checks the JumbleG threshold
    epsilon >= 2*(log n / n)^(1/3) (float comparison, labelled "jumbleg-eps").
    When strict_e1 is set, additionally requires E1 == gamma.
    Returns (valid, violation_labels).
    """
    violations = []
    if not c.delta >= 2 * c.E0 + c.epsilon / 3:
        violations.append("(2)")
    if not c.epsilon <= Fraction(1, c.S0 * c.S1):
        violations.append("(3)")
    if not c.E0 <= c.delta / 2 + c.epsilon:
        violations.append("(4)")
    if not c.E0 * c.S1 <= c.gamma:
        violations.append("(5)")
    if n is not None and float(c.epsilon) < jumbleg_eps_threshold(n):
        violations.append("jumbleg-eps")
    if strict_e1 and c.E1 != c.gamma:
        violations.append("E1!=gamma")
    return not violations, violations
