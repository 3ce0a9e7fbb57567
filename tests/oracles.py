"""Independent brute-force oracles used to pin expected values.

Everything here recomputes quantities from first principles (full cube
enumeration, naive rewriting, exhaustive matching enumeration) without
reusing the package's Fourier-side shortcuts, so tests compare two
genuinely different routes to each number.
"""

import itertools
from fractions import Fraction

import numpy as np

from cbforms import simulate_on_input


def cube_points(d, n):
    """All +-1 arrays of shape (d, n)."""
    for signs in itertools.product((1.0, -1.0), repeat=d * n):
        yield np.array(signs).reshape(d, n)


def eval_terms(constant, terms, x):
    """Direct monomial-sum evaluation from a raw coefficient map."""
    total = constant
    for (blocks, indices), coeff in terms.items():
        prod = coeff
        for b, i in zip(blocks, indices):
            prod *= x[b][i]
        total += prod
    return total


def variance_bruteforce(f):
    """E f^2 - (E f)^2 over the full cube."""
    vals = [eval_terms(f.constant, f.terms, x) for x in cube_points(f.d, f.n)]
    vals = np.array(vals)
    return float(np.mean(vals ** 2) - np.mean(vals) ** 2)


def influence_bruteforce(f, b, i):
    """E |(f(x with x_b(i)=1) - f(x with x_b(i)=-1)) / 2| ^ 2."""
    total = 0.0
    count = 0
    for x in cube_points(f.d, f.n):
        x_plus = x.copy()
        x_plus[b, i] = 1.0
        x_minus = x.copy()
        x_minus[b, i] = -1.0
        diff = (eval_terms(f.constant, f.terms, x_plus)
                - eval_terms(f.constant, f.terms, x_minus)) / 2.0
        total += diff * diff
        count += 1
    return total / count


def error_profile_pointwise(f, policy):
    """Greedy-tree errors and query counts by one simulator walk per cube
    point, in ``error_profile``'s point order: bit j of point p sets
    support variable j to -1."""
    sup_vars = f.support()
    errors = np.empty(1 << len(sup_vars))
    queries = np.empty(1 << len(sup_vars), dtype=int)
    x = np.ones((f.d, f.n))
    for point in range(1 << len(sup_vars)):
        for j, (b, i) in enumerate(sup_vars):
            x[b, i] = -1.0 if (point >> j) & 1 else 1.0
        transcript = simulate_on_input(f, policy, x)
        errors[point] = abs(transcript.output - f.evaluate(x))
        queries[point] = transcript.queries_used
    return errors, queries


def sup_norm_bruteforce_naive(f):
    return max(abs(eval_terms(f.constant, f.terms, x)) for x in cube_points(f.d, f.n))


def max_influence_bruteforce(f):
    """Exhaustive influence table with the lexicographic tie-break."""
    best = (0, 0, 0.0)
    for b in range(f.d):
        for i in range(f.n):
            val = influence_bruteforce(f, b, i)
            if val > best[2] + 1e-12:
                best = (b, i, val)
    return best


# -- word rewriting -------------------------------------------------------


def reduce_word_naive(word, rng=None):
    """Cancel one adjacent inverse pair at a time until none remain.
    With an rng the cancelled pair is chosen at random, exercising
    confluence of the rewriting."""
    word = list(word)
    while True:
        hits = [k for k in range(len(word) - 1)
                if word[k][0] == word[k + 1][0] and word[k][1] != word[k + 1][1]]
        if not hits:
            return tuple(word)
        k = hits[0] if rng is None else hits[int(rng.integers(0, len(hits)))]
        del word[k: k + 2]


# -- pairings -------------------------------------------------------------


def all_perfect_matchings(size):
    """Every perfect matching of range(size), recursively."""
    if size % 2:
        return
    positions = list(range(size))

    def rec(remaining):
        if not remaining:
            yield ()
            return
        first = remaining[0]
        for k in range(1, len(remaining)):
            partner = remaining[k]
            rest = remaining[1:k] + remaining[k + 1:]
            for tail in rec(rest):
                yield ((first, partner),) + tail

    yield from rec(positions)


def is_noncrossing(pairs):
    for a, b in pairs:
        for c, e in pairs:
            if a < c < b < e:
                return False
    return True


def star_pairings_naive(d, m):
    """Filter all matchings of [2dm] down to non-crossing different-color
    ones.  Only feasible for 2dm <= 10 or so."""
    size = 2 * d * m

    def color(pos):
        return (pos // d) % 2

    out = []
    for pairs in all_perfect_matchings(size):
        if not is_noncrossing(pairs):
            continue
        if any(color(a) == color(b) for a, b in pairs):
            continue
        out.append(tuple(sorted(tuple(sorted(p)) for p in pairs)))
    return sorted(set(out))


# -- free moments ----------------------------------------------------------


def trace_moment_naive(p, m):
    """Literal sum over all 2m-fold monomial tuples with exact Fractions."""
    terms = sorted(p.terms.items())
    total = Fraction(0)
    for combo in itertools.product(range(len(terms)), repeat=2 * m):
        word = []
        coeff = Fraction(1)
        for k, t in enumerate(combo):
            mono, c = terms[t]
            coeff *= Fraction(c)
            if k % 2 == 0:
                word.extend((g, False) for g in mono)
            else:
                word.extend((g, True) for g in reversed(mono))
        if len(reduce_word_naive(word)) == 0:
            total += coeff
    return total


def trace_moment_transfer(p, m):
    """The unpruned transfer map over reduced prefixes: every prefix is
    carried to the last step.  Same term order and arithmetic as
    ``trace_moment_exact`` (ints when every coefficient is integral,
    floats otherwise), so float results must agree bit for bit."""
    terms = sorted(p.terms.items())
    integral = all(float(c).is_integer() for _, c in terms)
    terms = [(w, int(c) if integral else float(c)) for w, c in terms]
    zero = 0 if integral else 0.0
    states = {(): 1 if integral else 1.0}
    for step in range(2 * m):
        starred = step % 2 == 1
        nxt = {}
        for prefix, acc in states.items():
            for mono, coeff in terms:
                letters = ([(g, True) for g in reversed(mono)] if starred
                           else [(g, False) for g in mono])
                stack = list(prefix)
                for let in letters:
                    if stack and stack[-1][0] == let[0] and stack[-1][1] != let[1]:
                        stack.pop()
                    else:
                        stack.append(let)
                key = tuple(stack)
                nxt[key] = nxt.get(key, zero) + acc * coeff
        states = {k: v for k, v in nxt.items() if v != 0}
    return states.get((), zero)
