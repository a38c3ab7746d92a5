"""Pseudo-randomness and regularity checks: unbiased pairs, P1/P2, regular
pairs, slicing, the density inequality and the constant-chain validator.

Everything threshold-shaped is exact rational arithmetic. Exact modes
enumerate the full quantifier and are capped by hard size limits; above the
cap they raise rather than silently sampling. Sampled modes take explicit
seeds and give a one-sided guarantee only (they can pass spuriously, never
fail spuriously).

Threshold strictness follows the source definitions verbatim: unbiasedness
uses <=, pair regularity uses strict <.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

import numpy as np

from .graphs import Graph, bits, density, edges_between, mask_of


P2_EXACT_LIMIT = 20  # exact P2 sorts one weight row per S with |S| <= n/2, about 2^(n-1)
# exact regular-pair sorts one weight row of max(|A|, |B|) cells per subset of
# the smaller side, so it caps 2^min(|A|, |B|) * max(|A|, |B|)
PAIR_EXACT_CELLS = 2**18 * 18
# the exact scans sort their weight rows in chunks of about this many cells,
# SCAN_CELLS // (columns) rows or one row, so no chunk grows with either side
SCAN_CELLS = 2**13


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
# The scans behind every unbiasedness and regularity check
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


def _worst_cells(W, sizes, least: int, c: Fraction):
    """The worst |e(R,C)/(|R||C|) - c| over the rows R of W and the sets C of
    at least `least` columns, where W[r, j] = |N(c_j) & R_r| and sizes[r] = |R_r|.

    e(R,C) sums the row's weights over C, and the deviation is convex in it,
    so over |C| = t only the sets at the bottom-t or top-t sum reach the
    peak; one sort and one cumsum per row give both sums for every t.
    Returns the exact Fraction `worst` and hit[direction, row, t - least],
    which marks the cells at it (direction 0 bottom, 1 top; None if there is
    no cell).

    The cells are compared as float64 ratios N/D, N = |q e - p |R| t| and
    D = |R| t, where c = p/q; the exact scans keep them exact and apart. With
    rows of at most m vertices and M columns, e and D are at most mM, and so
    is q (P2: q = 2; a pair: q divides |A||B| = mM). So N <= qD is an integer
    of at most (mM)^2 < 2^53, exact, and equal ratios are equal floats. Two
    distinct ratios differ by at least 1/(D D') >= 1/(mM)^2, and both are at
    most q, as a deviation is at most 1; rounding to nearest moves each by
    less than 2^-52 q, so they stay apart while (mM)^3 < 2^52. Under the caps
    mM is at most 10 * 20 for P2 at n = 20, and below 2^17 for a pair
    (checked by is_regular_pair): 324 at 18 + 18, 2,400 at 12 + 200.
    """
    k = W.shape[1]
    if least > k or not len(W):
        return Fraction(0), None
    sums = np.zeros((len(W), k + 1))
    np.cumsum(np.sort(W, axis=1), axis=1, out=sums[:, 1:])  # sums[:, t] = bottom-t sum
    size = sizes[:, None] * np.arange(least, k + 1)  # |R| t
    dev = np.stack([sums[:, least:], sums[:, k, None] - sums[:, k - least :: -1]])  # e(R, C)
    dev *= c.denominator
    dev -= c.numerator * size
    np.abs(dev, out=dev)
    dev /= size  # q times the deviation
    hit = dev == dev.max()
    d, r, j = np.unravel_index(np.argmax(dev), dev.shape)
    e = sums[r, least + j] if d == 0 else sums[r, k] - sums[r, k - least - j]
    return abs(Fraction(int(e), int(size[r, j])) - c), hit


def _earliest_sets(W, t, direction: int) -> list:
    """For each row r of W, the earliest column set of size t[r] at the
    bottom-t (direction 0) or top-t (1) sum of the row, as a bitmask over the
    column positions. It is the first t[r] entries of a stable argsort: the
    columns strictly past the threshold weight, then the lowest tied ones.
    Among the sets at that sum it is first in combinations order and the
    smallest bitmask. One set per row, packed into a Python int, so any
    number of columns fits and memory stays at one bit per cell of W."""
    order = np.argsort(-W if direction else W, axis=1, kind="stable")
    chosen = np.zeros(W.shape, dtype=bool)
    np.put_along_axis(chosen, order, np.arange(W.shape[1]) < t[:, None], axis=1)
    packed = np.packbits(chosen, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _subset_table(k: int, start: int, stop: int) -> np.ndarray:
    """The (stop - start) x k uint8 table whose row i is the indicator vector
    of subset id start + i: entry j is bit j of the id, unpacked from the
    little-endian bytes of the uint32 ids."""
    ids = np.arange(start, stop, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(ids, axis=1, count=k, bitorder="little")


def _pair_exact_scan(G: Graph, a_list, b_list, x_size: int, y_size: int, c: Fraction, fails):
    """Exact is_regular_pair. The witness is the least (X index, Y index)
    among the worst pairs, an index being the bitmask over the positions of
    a side. The rows of _worst_cells are the subsets of the smaller side (A
    on a tie), at most 2^18 of them under the cap, taken in ascending order
    SCAN_CELLS // max(|A|, |B|) subset ids (or one) at a time, so memory
    grows with neither their number nor the length of a row.
    W is float64, one matmul of a chunk's incidence rows with the
    side-to-side adjacency: its entries are sums of at most 18 zeros and
    ones, exact below 2^53.

    A chunk's worst takes over only when it is strictly larger, so with A as
    rows the first worst row of the first chunk at the worst holds the
    witness. With B as rows an equal worst also takes over when its least
    column set key (the X index) is smaller: the least X, then the least Y.
    """
    swap = len(b_list) < len(a_list)
    rows, cols = (b_list, a_list) if swap else (a_list, b_list)
    row_size, col_size = (y_size, x_size) if swap else (x_size, y_size)
    adj = np.array([[G.adj[u] >> v & 1 for v in cols] for u in rows], dtype=np.float64)
    none = 1 << len(cols)  # above every column mask
    worst, witness, best = Fraction(0), None, none
    step = max(1, SCAN_CELLS // len(cols))
    for start in range(0, 1 << len(rows), step):
        inc = _subset_table(len(rows), start, min(start + step, 1 << len(rows)))
        sizes = inc.sum(axis=1, dtype=np.intp)
        keep = sizes >= row_size  # row subsets, in ascending index order
        if not keep.any():
            continue
        inc, sizes = inc[keep], sizes[keep]
        W = inc.astype(np.float64) @ adj
        dev, hit = _worst_cells(W, sizes, col_size, c)
        if not dev or dev < worst or (dev == worst and not swap):
            continue
        # rows with a worst cell; with A as rows the first one holds the witness
        hr = np.flatnonzero(hit.any(axis=(0, 2)))[: None if swap else 1]
        key = [none] * len(hr)
        for d in (0, 1):  # one direction's sets grow with t: only its least hit t counts
            h = hit[d, hr]
            sets = _earliest_sets(W[hr], col_size + h.argmax(axis=1), d)
            key = [min(k, m) if hits else k for k, m, hits in zip(key, sets, h.any(axis=1))]
        i = key.index(min(key))  # with B as rows, the least X and then the least Y
        if dev == worst and key[i] >= best:
            continue
        worst, best = dev, key[i]
        R = mask_of(rows[k] for k in np.flatnonzero(inc[hr[i]]).tolist())
        C = mask_of(cols[k] for k in bits(best))
        witness = (C, R) if swap else (R, C)
    subsets = lambda side, least: sum(math.comb(len(side), t) for t in range(least, len(side) + 1))
    samples = subsets(rows, row_size) * subsets(cols, col_size)
    return _report("exact", worst, samples, witness, fails)


def _p2_exact_scan(G: Graph, min_size: int, fails) -> RegularityReport:
    """Worst |e(S,T)/(|S||T|) - 1/2| over disjoint S, T of sizes >= min_size.

    The witness is the first worst pair in (|S|, sorted S, |T|, sorted T)
    order. A pair (S, T) and its mirror (T, S) deviate equally, so the first
    worst pair has T after S, hence |T| >= |S|: only rows S with |S| <= n/2
    and sets T with |T| >= |S| are scanned. The rows of one size go to
    _worst_cells in combinations order, SCAN_CELLS // (n - |S|) at a time,
    with the vertices outside S as columns, so memory does not grow with
    their number; a chunk's worst takes over only when it is strictly
    larger, so the first worst row of the first chunk at the worst holds the
    witness.
    Their weights W are float64, one matmul per chunk of the rows' indicator
    vectors with the adjacency matrix: sums of at most 10 zeros and ones,
    exact below 2^53. `samples` counts every ordered qualifying pair.
    """
    n = G.n
    adj = np.array([[G.adj[u] >> v & 1 for v in range(n)] for u in range(n)], dtype=np.float64)
    worst, witness = Fraction(0), None
    for s in range(min_size, n // 2 + 1):
        combos, step = itertools.combinations(range(n), s), max(1, SCAN_CELLS // (n - s))
        while True:
            chunk = itertools.chain.from_iterable(itertools.islice(combos, step))
            S = np.fromiter(chunk, dtype=np.intp).reshape(-1, s)  # one set per row, ascending
            if not len(S):
                break
            inside = np.zeros((len(S), n))
            np.put_along_axis(inside, S, 1, axis=1)
            W = (inside @ adj)[inside == 0].reshape(len(S), n - s)  # columns ascending per row
            dev, hit = _worst_cells(W, np.full(len(S), s), s, Fraction(1, 2))
            if dev > worst:
                worst = dev
                r = int(np.argmax(hit.any(axis=(0, 2))))  # the first worst row
                j = int(np.argmax(hit[:, r].any(axis=0)))  # its smallest worst |T|
                t = np.array([s + j])
                sets = [_earliest_sets(W[r, None], t, d)[0] for d in (0, 1) if hit[d, r, j]]
                T = min(sets, key=lambda m: list(bits(m)))  # the earlier in (sorted T) order
                outside = np.flatnonzero(inside[r] == 0)
                witness = (mask_of(S[r].tolist()), mask_of(outside[list(bits(T))].tolist()))
    samples = sum(
        math.comb(n, s) * math.comb(n - s, t)
        for s in range(min_size, n + 1)
        for t in range(min_size, n - s + 1)
    )
    return _report("exact", worst, samples, witness, fails)


def _sampled_scan(G: Graph, draws, c: Fraction, fails, trials: int, seed: int) -> RegularityReport:
    """Worst |d(X,Y) - c| over the `trials` pairs (X, Y) that
    draws(rng, trials) yields, where rng is random.Random(seed); the witness
    is the first worst pair drawn."""
    if trials < 1:
        raise ValueError("sampled mode needs trials >= 1")
    worst = Fraction(0)
    witness = None
    for X, Y in draws(random.Random(seed), trials):
        dev = abs(density(G, X, Y) - c)
        if dev > worst:
            worst = dev
            witness = (X, Y)
    return _report("sampled", worst, trials, witness, fails)


# ---------------------------------------------------------------------------
# JumbleG-style pseudo-randomness (unbiased pairs, P1, P2, margin lemma)
# ---------------------------------------------------------------------------

def check_p1(G: Graph, eps):
    """(ok, min_degree): ok iff min degree >= (1/2 - eps) * n."""
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    mindeg = G.min_degree()
    return Fraction(mindeg) >= (Fraction(1, 2) - eps) * G.n, mindeg


def _pool_limit(k: int) -> int:
    """The largest n for which `Random.sample(range(n), k)` shuffles a pool
    rather than tracking picks in a set, as `sample` computes it."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def _samples(rng: random.Random, population, k: int):
    """Yield `rng.sample(population, k)`, again and again.

    Where len(population) <= `_pool_limit(k)`, `sample` takes its pool path,
    and each draw runs it inline, without `sample`'s per-call overhead: a
    partial Fisher-Yates shuffle of a copy of the population whose index
    j < m is `_randbelow(m)`, that is `getrandbits(m.bit_length())` redrawn
    until below m. Elsewhere each draw is a `sample` call, which raises
    ValueError for a k outside 0..len(population)."""
    n = len(population)
    if not 0 <= k <= n or n > _pool_limit(k):
        while True:
            yield rng.sample(population, k)
    getrandbits = rng.getrandbits
    population = list(population)
    widths = [(m, m.bit_length()) for m in range(n, n - k, -1)]
    while True:
        pool, picks = population[:], []
        pick = picks.append
        for m, width in widths:
            j = getrandbits(width)
            while j >= m:
                j = getrandbits(width)
            pick(pool[j])
            pool[j] = pool[m - 1]  # the unpicked last entry fills the vacancy
        yield picks


def _random_disjoint_pairs(rng: random.Random, n: int, s: int, t: int, count: int):
    """Yield `count` disjoint vertex masks (S, T), |S| = s and |T| = t: the
    i-th is the first s and the last t picks of the i-th
    `rng.sample(range(n), s + t)`, drawn by `_samples`."""
    for p in itertools.islice(_samples(rng, range(n), s + t), count):
        yield mask_of(p[:s]), mask_of(p[s:])


def check_p2(
    G: Graph,
    eps,
    mode: str = "exact",
    trials: int = 1000,
    seed: int = 0,
    set_size: Optional[int] = None,
) -> RegularityReport:
    """Every disjoint pair S,T with |S|,|T| > eps*n must be eps-unbiased.

    Exact mode covers all qualifying pairs (n <= P2_EXACT_LIMIT) with one
    sorted weight row per S, |S| <= n/2 (see _p2_exact_scan). It counts every
    ordered pair in `samples`, names the first worst pair in the order
    (|S|, sorted S, |T|, sorted T), and takes no `set_size`. Sampled mode
    draws `trials` random disjoint pairs; by default both sets have the
    minimum qualifying size floor(eps*n)+1, overridable via `set_size`
    (small qualifying sets fluctuate binomially, so larger sizes give a
    sharper signal at moderate eps; see check_p2's callers).
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
        if set_size is not None:
            raise ValueError("set_size applies to sampled mode only")
        return _p2_exact_scan(G, min_size, fails)

    if mode != "sampled":
        raise ValueError("mode must be 'exact' or 'sampled'")
    size = min_size if set_size is None else set_size
    if size < min_size:
        raise ValueError("set_size below qualifying threshold")
    if 2 * size > n:
        raise ValueError("no disjoint pair of size %d fits in n=%d" % (size, n))
    draws = lambda rng, count: _random_disjoint_pairs(rng, n, size, size, count)
    return _sampled_scan(G, draws, half, fails, trials, seed)


def jumbleg_margin(e_B: int, e_M: int, s_size: int, t_size: int, eps):
    """(margin, bound, ok): margin = e_B - e_M, bound = 2*eps*|S||T| + 1."""
    if s_size < 1 or t_size < 1:
        raise ValueError("set sizes must be >= 1")
    eps = Fraction(eps)
    margin = e_B - e_M
    bound = 2 * eps * s_size * t_size + 1
    return margin, bound, Fraction(margin) <= bound


def _meets_jumbleg_eps(eps, n: int) -> bool:
    """Exactly whether eps >= 2*(ln n / n)^(1/3), that is, q = n*eps^3/8 >= ln n
    for eps > 0, as ConstantSchedule has it. Decimal's ln is correctly
    rounded, so at p digits it pins ln n inside one unit in its last place
    either side; the precision doubles until q falls outside that interval.
    ln n is irrational for n >= 2, so q never equals it and the loop ends."""
    if n < 2:
        raise ValueError("n must be >= 2")
    q, prec = n * Fraction(eps) ** 3 / 8, 32
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            ln = Decimal(n).ln()
        gap = q - Fraction(ln)
        if abs(gap) >= Fraction(10) ** (ln.adjusted() - prec + 1):  # one unit in the last place
            return gap > 0
        prec *= 2


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

    Exact mode covers every qualifying sub-pair, with one sorted weight row
    per subset of the smaller side (see _pair_exact_scan), while
    2^min(|A|,|B|) * max(|A|,|B|) <= PAIR_EXACT_CELLS and |A||B| < 2^17.
    Sampled mode draws qualifying subsets at the minimum qualifying size,
    X and then Y from one generator, as `rng.sample` on the sides' sorted
    vertex lists would.
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
        # |A||B| < 2^17 keeps _worst_cells' float ratios apart; under the
        # cell cap only a side of at least 16,384 vertices reaches it
        if max(a, b) << min(a, b) > PAIR_EXACT_CELLS or a * b >= 2**17:
            raise ValueError(
                "exact regular-pair limited to 2^min(|A|,|B|) * max(|A|,|B|) <= 2^18 * 18"
                " and |A||B| < 2^17"
            )
        return _pair_exact_scan(G, a_list, b_list, x_size, y_size, d, fails)

    if mode != "sampled":
        raise ValueError("mode must be 'exact' or 'sampled'")

    def draws(rng, count):
        xs, ys = _samples(rng, a_list, x_size), _samples(rng, b_list, y_size)
        return ((mask_of(next(xs)), mask_of(next(ys))) for _ in range(count))

    return _sampled_scan(G, draws, d, fails, trials, seed)


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
# Equipartitions, density inequality
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
    if E <= 0:
        raise ValueError("E must be > 0")
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
    epsilon >= 2*(ln n / n)^(1/3), decided exactly by `_meets_jumbleg_eps`
    (labelled "jumbleg-eps").
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
    if n is not None and not _meets_jumbleg_eps(c.epsilon, n):
        violations.append("jumbleg-eps")
    if strict_e1 and c.E1 != c.gamma:
        violations.append("E1!=gamma")
    return not violations, violations
