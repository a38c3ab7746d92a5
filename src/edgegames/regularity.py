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


P2_EXACT_LIMIT = 16  # exact P2 scans 4^n cells
PAIR_EXACT_LIMIT = 24  # exact regular-pair scans 2^|A| * 2^|B| cells
_BLOCK_CELLS = 1 << 16  # pairs per row block of the exact scan


def least_size_above(x) -> int:
    """The smallest set size strictly above x (at least 1)."""
    return max(1, math.floor(x) + 1)


def _disjoint_union(masks) -> Optional[int]:
    """The union of the vertex masks, or None if two of them meet."""
    union = 0
    for mask in masks:
        if mask & union:
            return None
        union |= mask
    return union


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
# The two scans behind every unbiasedness and regularity check
# ---------------------------------------------------------------------------

def _report(mode: str, worst: Fraction, samples: int, witness, fails) -> RegularityReport:
    """`witness` is the first pair at the worst deviation; it is named only
    when that deviation is positive and fails the check."""
    failed = fails(worst)
    S, T = witness if failed and worst else (None, None)
    return RegularityReport(
        passed=not failed,
        mode=mode,
        deviation=worst,
        samples=samples,
        witness_S=S,
        witness_T=T,
    )


def _subset_sums(M):
    """Column k of the result is the sum of the columns of M picked by the bits of k."""
    S = np.zeros((M.shape[0], 1 << M.shape[1]), dtype=np.int64)
    for j in range(M.shape[1]):
        S[:, 1 << j : 2 << j] = S[:, : 1 << j] + M[:, j, None]
    return S


def _exact_scan(
    G: Graph, A_list, B_list, xs, ys, c: Fraction, fails, disjoint: bool = False
) -> RegularityReport:
    """Worst |e(X,Y)/(|X||Y|) - c| over every row X in xs and column Y in ys.

    xs and ys are subset indices (bitmasks over the positions of A_list and
    B_list) in the caller's scan order; the witness is the first worst pair
    in row-major order. With `disjoint`, pairs with X & Y != 0 are skipped
    and not counted. Rows go in blocks of about _BLOCK_CELLS pairs, so no
    2^|A| x 2^|B| matrix is held. A float ratio with an exact integer
    numerator locates each block's maximum (equal ratios are equal
    deviations, and distinct ones stay apart at these sizes); the reported
    deviation is an exact Fraction.
    """
    M = np.array(
        [[G.adj[u] >> v & 1 for v in B_list] for u in A_list], dtype=np.int64
    ).reshape(len(A_list), len(B_list))
    R = _subset_sums(M.T).T  # R[X, j] = e(X, {B_j})
    xcard = np.array([X.bit_count() for X in xs], dtype=np.int64)
    ycard = np.array([Y.bit_count() for Y in ys], dtype=np.int64)
    xs, ys = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    p, q = c.numerator, c.denominator
    worst = Fraction(0)
    witness = None
    count = 0
    step = max(1, _BLOCK_CELLS // max(1, len(ys)))
    for lo in range(0, len(xs), step):
        X = xs[lo : lo + step]
        sizes = xcard[lo : lo + step, None] * ycard  # |X||Y|
        dev_num = np.take(_subset_sums(R[X]), ys, axis=1) * q  # q e(X_i, Y_j)
        dev_num -= p * sizes
        np.abs(dev_num, out=dev_num)  # deviation = dev_num / (|X||Y| q)
        ratio = dev_num / sizes
        if disjoint:
            overlap = (X[:, None] & ys) != 0
            np.putmask(ratio, overlap, -1.0)
            count += ratio.size - int(np.count_nonzero(overlap))
        else:
            count += ratio.size
        i, j = divmod(int(np.argmax(ratio)), len(ys))
        if ratio[i, j] < 0:
            continue
        dev = Fraction(int(dev_num[i, j]), int(sizes[i, j]) * q)
        if dev > worst:
            worst = dev
            witness = (
                mask_of(A_list[k] for k in bits(int(X[i]))),
                mask_of(B_list[k] for k in bits(int(ys[j]))),
            )
    return _report("exact", worst, count, witness, fails)


def _sampled_scan(G: Graph, draw, c: Fraction, fails, trials: int, seed: int) -> RegularityReport:
    """Worst |d(X,Y) - c| over `trials` pairs (X, Y) = draw(rng), where rng
    is random.Random(seed); the witness is the first worst pair drawn."""
    if trials < 1:
        raise ValueError("sampled mode needs trials >= 1")
    rng = random.Random(seed)
    worst = Fraction(0)
    witness = None
    for _ in range(trials):
        X, Y = draw(rng)
        dev = abs(density(G, X, Y) - c)
        if dev > worst:
            worst = dev
            witness = (X, Y)
    return _report("sampled", worst, trials, witness, fails)


# ---------------------------------------------------------------------------
# JumbleG-style pseudo-randomness (unbiased pairs, P1, P2, margin lemma)
# ---------------------------------------------------------------------------

def is_unbiased(G: Graph, S: int, T: int, eps):
    """(ok, deviation) where deviation = |e(S,T)/(|S||T|) - 1/2|, ok iff <= eps."""
    eps = Fraction(eps)
    dev = abs(density(G, S, T) - Fraction(1, 2))
    return dev <= eps, dev


def check_p1(G: Graph, eps):
    """(ok, min_degree): ok iff min degree >= (1/2 - eps) * n."""
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
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
    set_size: Optional[int] = None,
) -> RegularityReport:
    """Every disjoint pair S,T with |S|,|T| > eps*n must be eps-unbiased.

    Exact mode scans all qualifying pairs (n <= P2_EXACT_LIMIT) in the order
    (|S|, sorted S, |T|, sorted T). Sampled mode draws `trials` random
    disjoint pairs; by default both sets have the minimum qualifying size
    floor(eps*n)+1, overridable via `set_size` (small qualifying sets
    fluctuate binomially, so larger sizes give a sharper signal at moderate
    eps; see check_p2's callers).
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    n = G.n
    half = Fraction(1, 2)
    min_size = least_size_above(eps * n)
    fails = lambda dev: dev > eps

    if mode == "exact":
        if n > P2_EXACT_LIMIT:
            raise ValueError("exact P2 limited to n <= %d" % P2_EXACT_LIMIT)
        order = [
            mask_of(S)
            for size in range(min_size, n - min_size + 1)
            for S in itertools.combinations(range(n), size)
        ]
        return _exact_scan(G, range(n), range(n), order, order, half, fails, disjoint=True)

    if mode != "sampled":
        raise ValueError("mode must be 'exact' or 'sampled'")
    size = min_size if set_size is None else set_size
    if size < min_size:
        raise ValueError("set_size below qualifying threshold")
    if 2 * size > n:
        raise ValueError("no disjoint pair of size %d fits in n=%d" % (size, n))
    return _sampled_scan(
        G, lambda rng: _random_disjoint_pair(rng, n, size, size), half, fails, trials, seed
    )


def jumbleg_margin(e_B: int, e_M: int, s_size: int, t_size: int, eps):
    """(margin, bound, ok): margin = e_B - e_M, bound = 2*eps*|S||T| + 1."""
    if s_size < 1 or t_size < 1:
        raise ValueError("set sizes must be >= 1")
    eps = Fraction(eps)
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

def is_regular_pair(
    G: Graph,
    A: int,
    B: int,
    alpha,
    mode: str = "exact",
    trials: int = 1000,
    seed: int = 0,
) -> RegularityReport:
    """alpha-regularity of (A,B): |d(A,B) - d(X,Y)| < alpha for all X sub A,
    Y sub B with |X| > alpha|A| and |Y| > alpha|B|.

    Exact mode scans every qualifying sub-pair (|A|+|B| <= PAIR_EXACT_LIMIT)
    in ascending subset-index order; sampled mode draws qualifying subsets at
    the minimum qualifying size.
    """
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if A & B:
        raise ValueError("A and B overlap")
    if (A | B) >> G.n:
        raise ValueError("A and B must be vertices of the %d-vertex graph" % G.n)
    a_list, b_list = sorted(bits(A)), sorted(bits(B))
    a, b = len(a_list), len(b_list)
    if a == 0 or b == 0:
        raise ValueError("empty side")
    d = Fraction(edges_between(G, A, B), a * b)
    x_size, y_size = least_size_above(alpha * a), least_size_above(alpha * b)
    fails = lambda dev: dev >= alpha

    if mode == "exact":
        if a + b > PAIR_EXACT_LIMIT:
            raise ValueError("exact regular-pair limited to |A|+|B| <= %d" % PAIR_EXACT_LIMIT)
        xs = [X for X in range(1 << a) if X.bit_count() >= x_size]
        ys = [Y for Y in range(1 << b) if Y.bit_count() >= y_size]
        return _exact_scan(G, a_list, b_list, xs, ys, d, fails)

    if mode != "sampled":
        raise ValueError("mode must be 'exact' or 'sampled'")
    return _sampled_scan(
        G,
        lambda rng: (mask_of(rng.sample(a_list, x_size)), mask_of(rng.sample(b_list, y_size))),
        d,
        fails,
        trials,
        seed,
    )


def slicing_alpha(alpha, L0: int, Li: int, Lj: int) -> Fraction:
    """Degraded parameter alpha' = max{2a, (L0/Li)a, (L0/Lj)a} for slices."""
    alpha = Fraction(alpha)
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
):
    """Property harness for the slicing conclusion.

    Requires (A,B) exactly alpha-regular with |A| = |B| = L0 and slice sizes
    above alpha*L0. Draws random slices X,Y of sizes Li,Lj and checks each is
    alpha'-regular (exact mode) with density inside (d - alpha, d + alpha).
    Returns (violations, trials).
    """
    alpha = Fraction(alpha)
    a_list, b_list = sorted(bits(A)), sorted(bits(B))
    L0 = len(a_list)
    if len(b_list) != L0:
        raise ValueError("slicing harness needs |A| = |B|")
    if not (Fraction(Li) > alpha * L0 and Fraction(Lj) > alpha * L0):
        raise ValueError("slice sizes must exceed alpha * L0")
    src = is_regular_pair(G, A, B, alpha, mode="exact")
    if not src.passed:
        raise ValueError("source pair is not alpha-regular")
    d = density(G, A, B)
    aprime = slicing_alpha(alpha, L0, Li, Lj)
    rng = random.Random(seed)
    violations = 0
    for _ in range(trials):
        X = mask_of(rng.sample(a_list, Li))
        Y = mask_of(rng.sample(b_list, Lj))
        rep = is_regular_pair(G, X, Y, aprime, mode="exact")
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
    if 0 in parts:
        raise ValueError("empty part")
    if _disjoint_union(parts) is None:
        raise ValueError("parts overlap")
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
    if _disjoint_union(masks) != ground:
        return False
    sizes = [m.bit_count() for m in masks]
    return max(sizes) - min(sizes) <= 1


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
    E = Fraction(E)
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
    union = _disjoint_union(inner)
    if union is None:
        raise ValueError("inner parts overlap")
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
    threshold = Fraction(threshold)
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
            setattr(self, name, Fraction(getattr(self, name)))
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
