"""Greedy classical simulation of bounded forms by influence queries.

The simulator repeatedly queries the variable with the largest
influence of the current restricted form, restricts, and stops once the
restricted variance drops to the policy threshold (eps^2 * delta, so
Chebyshev bounds the failure probability of the mean output by delta)
or the query budget runs out.  The output is the expectation of the
final restriction.

The queries depend only on the answers so far, so the simulator is a
decision tree.  ``simulate_on_input`` walks one root-to-leaf path
lazily; ``error_profile`` builds the whole tree, one level at a time,
carrying the cube points that reach each node.  Both stop by
``_stop_tests``, which the tree applies to a whole level at once.

Both run on arrays and make the floating-point operations of the form
methods (``variance``, ``max_influence``, ``restrict``) in the same
order, so a walk, the tree and a walk on forms agree bit for bit:
variances add their squares left to right, each cell of an influence
table adds in term order, each collision group (at most two rows, since
two touched monomials still differ outside the queried block) merges at
its earlier row, and rows keep first-occurrence order.

The tree holds every node of one depth in flat arrays, as support
bitmasks, coefficients and node ids, so a level costs a fixed number of
numpy calls however many nodes it holds; most nodes lie deep and hold
few terms, where one numpy call per node would cost more than the loop
it replaces.  A level too wide for memory goes on as two halves, one
after the other.  Rows sort by node and mask packed into one int64,
which bounds the tree to 31 support variables, far beyond any cube it
could hold in memory.  The walk restricts a private array view of the
form in place (``forms._TermArrays``), one variable per step: it has a
single node, so level bookkeeping would only add calls, and its index
array, unlike a packed mask, puts no bound on the support.

Influence tables are recomputed exactly for the restricted form at
every node; nothing is carried over or approximated.  Budget exhaustion
is an ordinary outcome, reported in the transcript, never an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .forms import BlockMultilinearForm, _TermArrays

ERROR_PROFILE_CAP = 20
# the level tree sorts its rows by (node << k) | mask in one int64, and
# node ids take k + 1 bits, so 2k + 1 <= 63
_TREE_BITS = 31
# rows above which the level tree goes on with the +1 and the -1 children
# of a level separately
_LEVEL_ROWS = 1 << 13


@dataclass
class SimulationPolicy:
    """Stopping rule: variance threshold eps^2 * delta and a hard query
    budget."""

    epsilon: float
    delta: float
    query_budget: int

    def __post_init__(self):
        # NaN fails every comparison, so test for finiteness explicitly
        for name in ("epsilon", "delta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.query_budget < 1:
            raise ValueError("query budget must be at least 1")
        if self.variance_threshold <= 0:
            raise ValueError(f"variance threshold eps^2 * delta must be positive, "
                             f"got {self.variance_threshold}")

    @property
    def variance_threshold(self) -> float:
        return self.epsilon ** 2 * self.delta


@dataclass
class SimulationTranscript:
    """Queries made on one input, in order, with the observed signs."""

    queries: list[tuple[int, int, float]] = field(default_factory=list)
    output: float = 0.0
    stop_reason: str = "variance"

    @property
    def queries_used(self) -> int:
        return len(self.queries)


def _stop_tests(variance, depth, policy: SimulationPolicy):
    """The tree's two stop tests at nodes of restricted variance
    ``variance`` after ``depth`` queries, in precedence order: variance at
    most the threshold, then budget spent.  Scalars or arrays alike."""
    return variance <= policy.variance_threshold, depth >= policy.query_budget


def _stop_reason(variance: float, queries_used: int,
                 policy: SimulationPolicy) -> str | None:
    """Why a walk stops at a node of restricted variance ``variance``
    after ``queries_used`` queries, or None when it queries again."""
    low, spent = _stop_tests(variance, queries_used, policy)
    return "variance" if low else "budget" if spent else None


def simulate_on_input(f: BlockMultilinearForm, policy: SimulationPolicy,
                      x) -> SimulationTranscript:
    """Run the greedy tree on one input and return the transcript.

    Every entry of ``x`` must be +-1, queried or not.  The walk runs on
    the form's private array view, restricted in place one query at a
    time: sequential variance sums, influence cells added in term order,
    collision groups of at most two rows merged at the earlier row, rows
    in first-occurrence order.  So queries, output and stop reason are
    those of the walk on forms (``max_influence``, then ``restrict``) and
    of ``error_profile``'s tree, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (f.d, f.n):
        raise ValueError(f"expected input shape {(f.d, f.n)}, got {x.shape}")
    if not np.all(np.abs(x) == 1.0):
        raise ValueError("inputs must be +-1 valued")
    g = _TermArrays(f)
    transcript = SimulationTranscript()
    while (reason := _stop_reason(g.variance(), transcript.queries_used, policy)) is None:
        b, i = g.argmax_influence()
        observed = float(x[b, i])
        transcript.queries.append((b, i, observed))
        g.restrict(b, i, observed)
    transcript.stop_reason = reason
    transcript.output = g.constant
    return transcript


@dataclass
class ErrorProfile:
    """Exact output-error distribution of the greedy tree over the cube."""

    epsilon: float
    delta: float
    budget: int
    errors: np.ndarray
    queries: np.ndarray

    @property
    def failing_fraction(self) -> float:
        """Fraction of inputs with |output - f(x)| > epsilon."""
        return float(np.mean(self.errors > self.epsilon))

    @property
    def mean_queries(self) -> float:
        return float(np.mean(self.queries))

    @property
    def max_error(self) -> float:
        return float(np.max(self.errors))


def error_profile(f: BlockMultilinearForm, policy: SimulationPolicy,
                  cap: int = ERROR_PROFILE_CAP) -> ErrorProfile:
    """Exact error distribution over the cube, from one pass over the tree.

    The tree only ever queries variables with positive influence, and
    the form's value only depends on its support, so the cube runs over
    support variables; ``cap`` bounds their number, and more than 31
    (half the width of the tree's sort key) are refused whatever ``cap``
    says.  Point p sets support variable j to -1 when bit j of p is set.

    The tree grows one level at a time.  A level holds every node of one
    depth in flat arrays: per row a term's support mask (bit j for
    support variable j), its coefficient and its node, rows grouped by
    node and in term order inside a node; per node a constant; per point
    the node it has reached.  A node that stops records |output - f(x)|
    and its depth for its points; the others query their top influence
    and split into a +1 and a -1 child, and each point moves to the child
    its answer selects.  A child level of more than ``_LEVEL_ROWS`` rows
    goes on as two, its +1 children and its -1 children, each finished
    before the other starts, so memory stays near that of a depth-first
    pass.  Each step makes the floating-point operations of
    ``BlockMultilinearForm.variance``, ``max_influence`` and ``restrict``
    on the node's form, in the same order.  The values f(x) come from one
    vectorized sweep of the cube, equal as floats to ``f.evaluate`` at
    each point, so the profile matches running ``simulate_on_input``
    point by point, bit for bit.
    """
    sup_vars = f.support()
    k = len(sup_vars)
    if k > _TREE_BITS:
        raise ValueError(f"error profiles take at most {_TREE_BITS} support variables "
                         f"(the tree packs node and mask into one int64), got {k}")
    if k > cap:
        raise ValueError(f"cap exceeded: {k} support variables > cap {cap}")
    mask = f._support_masks(sup_vars)
    points = np.arange(1 << k)
    values = f._cube_values(mask, points)
    errors = np.empty(1 << k)
    queries = np.empty(1 << k, dtype=int)
    coeff = np.fromiter(f.terms.values(), np.float64, mask.size)
    levels = [(0, mask, coeff, np.zeros(mask.size, dtype=np.int64), np.array([f.constant]),
               points, np.zeros(points.size, dtype=np.int64))]
    while levels:
        depth, mask, coeff, node, constant, points, at = levels.pop()
        # variance: squares added from 0.0 in row order, i.e. term order per
        # node; then the two stop tests
        variance = np.bincount(node, weights=coeff * coeff, minlength=constant.size)
        low, out_of_budget = _stop_tests(variance, depth, policy)
        stop = low | out_of_budget
        done = stop[at]
        ended = points[done]
        errors[ended] = np.abs(constant[at[done]] - values[ended])
        queries[ended] = depth
        live = ~stop
        if not live.any():
            continue
        renumber = np.cumsum(live) - 1
        width = int(renumber[-1]) + 1
        rows = live[node]
        mask, coeff, node = mask[rows], coeff[rows], renumber[node[rows]]
        points, at = points[~done], renumber[at[~done]]
        # influence: cell (node, j) adds its squares in row order; the first
        # maximum in support order is the first in (block, index) order, and
        # a live node has positive variance, so an empty cell never wins;
        # the row bits unpack from the little-endian mask bytes, one byte
        # per (row, bit)
        row_bits = np.unpackbits(mask.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8),
                                 axis=1, count=k, bitorder="little")
        row, j = np.nonzero(row_bits)
        table = np.bincount(node[row] * k + j, weights=(coeff * coeff)[row],
                            minlength=width * k)
        query = table.reshape(width, k).argmax(axis=1)
        # children laid out child-major, every +1 child and then every -1
        # child: the queried bit is cleared and the -1 copy negates the rows
        # that held it
        qbit = (1 << query)[node]
        touched = (mask & qbit) != 0
        mask &= ~qbit
        mask = np.concatenate((mask, mask))
        coeff = np.concatenate((coeff, np.where(touched, -coeff, coeff)))
        node = np.concatenate((node, node + width))
        constant = constant[live]
        constant = np.concatenate((constant, constant))
        # keys are unique, so a node has at most one spent row, which folds
        # into its constant, and a collision joins exactly two rows, which
        # merge at the earlier row as c_lo + c_hi with exact zeros dropped
        spent = (mask == 0).nonzero()[0]
        constant[node[spent]] += coeff[spent]
        # a stable sort by (node, mask) puts the two rows of a pair next to
        # each other, earlier first; rows already run in node order, so the
        # packed key is nearly sorted
        order = np.argsort((node << k) | mask, kind="stable")
        m, t = mask[order], node[order]
        same = ((m[1:] == m[:-1]) & (t[1:] == t[:-1])).nonzero()[0]
        lo, hi = order[same], order[same + 1]
        coeff[lo] += coeff[hi]
        keep = np.ones(mask.size, dtype=bool)
        keep[spent] = keep[hi] = False
        keep[lo[coeff[lo] == 0.0]] = False
        mask, coeff, node = mask[keep], coeff[keep], node[keep]
        at += width * ((points >> query[at]) & 1)
        if mask.size <= _LEVEL_ROWS:
            levels.append((depth + 1, mask, coeff, node, constant, points, at))
            continue
        # a level of more rows goes on as two, its +1 children and its -1
        # children, each finished before the other starts, so memory stays
        # bounded by the query budget times _LEVEL_ROWS rows; every node is
        # computed on its own rows alone, so no bit changes
        cut = int(np.searchsorted(node, width))
        minus = at >= width
        levels.append((depth + 1, mask[cut:], coeff[cut:], node[cut:] - width,
                       constant[width:], points[minus], at[minus] - width))
        levels.append((depth + 1, mask[:cut], coeff[:cut], node[:cut],
                       constant[:width], points[~minus], at[~minus]))
    return ErrorProfile(epsilon=policy.epsilon, delta=policy.delta,
                        budget=policy.query_budget, errors=errors, queries=queries)


def reference_query_bound(d: int, epsilon: float, delta: float) -> float:
    """Reference scaling d^5 / (eps^8 delta^5) for the worst-case query
    count of the greedy simulator on completely bounded forms; reported
    alongside measured counts, never enforced."""
    return d ** 5 * epsilon ** -8 * delta ** -5
