"""Greedy classical simulation of bounded forms by influence queries.

The simulator repeatedly queries the variable with the largest
influence of the current restricted form, restricts, and stops once the
restricted variance drops to the policy threshold (default eps^2 *
delta, so Chebyshev bounds the failure probability of the mean output
by delta) or the query budget runs out.  The output is the expectation
of the final restriction.

The queries depend only on the answers so far, so the simulator is a
decision tree.  ``simulate_on_input`` walks one root-to-leaf path
lazily; ``error_profile`` visits every node of the tree once, in one
depth-first pass that carries the cube points reaching each node.  Both
stop by the same rule.

Influence tables are recomputed exactly for the restricted form at
every node; nothing is carried over or approximated.  Budget exhaustion
is an ordinary outcome, reported in the transcript, never an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forms import BlockMultilinearForm

ERROR_PROFILE_CAP = 20


@dataclass
class SimulationPolicy:
    """Stopping rule: variance threshold (default eps^2 * delta) and a
    hard query budget."""

    epsilon: float
    delta: float
    query_budget: int
    variance_threshold: float | None = None

    def __post_init__(self):
        if self.epsilon <= 0 or self.delta <= 0:
            raise ValueError("epsilon and delta must be positive")
        if self.query_budget < 1:
            raise ValueError("query budget must be at least 1")
        if self.variance_threshold is None:
            self.variance_threshold = self.epsilon ** 2 * self.delta
        if self.variance_threshold <= 0:
            raise ValueError("variance threshold must be positive")


@dataclass
class SimulationTranscript:
    """Queries made on one input, in order, with the observed signs."""

    queries: list[tuple[int, int, float]] = field(default_factory=list)
    output: float = 0.0
    stop_reason: str = "variance"

    @property
    def queries_used(self) -> int:
        return len(self.queries)


def _stop_reason(g: BlockMultilinearForm, queries_used: int,
                 policy: SimulationPolicy) -> str | None:
    """Why the tree stops at a node holding ``g`` after ``queries_used``
    queries, or None when it queries again."""
    if g.variance() <= policy.variance_threshold:
        return "variance"
    if queries_used >= policy.query_budget:
        return "budget"
    return None


def simulate_on_input(f: BlockMultilinearForm, policy: SimulationPolicy,
                      x) -> SimulationTranscript:
    """Run the greedy tree on one input and return the transcript."""
    x = np.asarray(x, dtype=float)
    if x.shape != (f.d, f.n):
        raise ValueError(f"expected input shape {(f.d, f.n)}, got {x.shape}")
    g = f
    transcript = SimulationTranscript()
    while (reason := _stop_reason(g, transcript.queries_used, policy)) is None:
        b, i, _ = g.max_influence()
        observed = float(x[b, i])
        transcript.queries.append((b, i, observed))
        g = g.restrict({(b, i): observed})
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

    def failing_fraction_at(self, epsilon: float) -> float:
        return float(np.mean(self.errors > epsilon))


def error_profile(f: BlockMultilinearForm, policy: SimulationPolicy,
                  cap: int = ERROR_PROFILE_CAP) -> ErrorProfile:
    """Exact error distribution over the cube, from one pass over the tree.

    The tree only ever queries variables with positive influence, and
    the form's value only depends on its support, so the cube runs over
    support variables; ``cap`` bounds their number.  Point p sets
    support variable j to -1 when bit j of p is set.  A depth-first pass
    visits each tree node once, holding the restricted form and the
    points whose answers lead there.  A node that stops records
    |output - f(x)| and its depth for all of its points; otherwise its
    points split on the sign of the queried variable and each child is
    restricted once.  The values f(x) come from one vectorized sweep of
    the cube, equal as floats to ``f.evaluate`` at each point, so the
    profile matches running ``simulate_on_input`` point by point.
    """
    sup_vars = f.support()
    k = len(sup_vars)
    if k > cap:
        raise ValueError(f"cap exceeded: {k} support variables > cap {cap}")
    bit = {v: j for j, v in enumerate(sup_vars)}
    points = np.arange(1 << k)
    values = f._cube_values(sup_vars, points)
    errors = np.empty(1 << k)
    queries = np.empty(1 << k, dtype=int)
    stack = [(f, 0, points)]
    while stack:
        g, depth, reach = stack.pop()
        if _stop_reason(g, depth, policy) is not None:
            errors[reach] = np.abs(g.constant - values[reach])
            queries[reach] = depth
            continue
        b, i, _ = g.max_influence()
        minus = ((reach >> bit[(b, i)]) & 1).astype(bool)
        stack.append((g.restrict({(b, i): 1.0}), depth + 1, reach[~minus]))
        stack.append((g.restrict({(b, i): -1.0}), depth + 1, reach[minus]))
    return ErrorProfile(epsilon=policy.epsilon, delta=policy.delta,
                        budget=policy.query_budget, errors=errors, queries=queries)


def reference_query_bound(d: int, epsilon: float, delta: float) -> float:
    """Reference scaling d^5 / (eps^8 delta^5) for the worst-case query
    count of the greedy simulator on completely bounded forms; reported
    alongside measured counts, never enforced."""
    return d ** 5 * epsilon ** -8 * delta ** -5
