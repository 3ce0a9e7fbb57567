"""Independent brute-force oracles used to pin expected values.

Everything here recomputes quantities from first principles (full cube
enumeration, naive rewriting, exhaustive matching enumeration, plain
matrix product loops) without reusing the package's Fourier-side
shortcuts, so tests compare two genuinely different routes to each
number.  The reference routes the package does not need at run time
live here too: Fourier extraction of circuits, moment words and their
consistent pairings, and the trace inner product.

The module imports only the standard library, numpy and cbforms, so it
can also be loaded by path outside the test suite.
"""

import itertools
from fractions import Fraction

import numpy as np

from cbforms import (BlockMultilinearForm, QuantumQueryCircuit, enumerate_star_pairings,
                     reduce_word, simulate_on_input)
from cbforms.freecomb import PAIRING_CAP, _check_generator_poly, _color, _exact_terms
from cbforms.simulate import SimulationTranscript, _stop_reason

EXTRACT_CUBE_CAP = 20


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


def restrict_rebuilt(f, assignments):
    """Restriction by the plain route: every monomial rebuilds its key
    from the variables left free, coefficients that land on one key are
    summed in term order, exact zeros are dropped, and the result goes
    through the validating constructor."""
    fixed = {(int(b), int(i)): float(v) for (b, i), v in assignments.items()}
    constant = f.constant
    acc = {}
    for (blocks, indices), coeff in f.terms.items():
        c = coeff
        rest_b, rest_i = [], []
        for b, i in zip(blocks, indices):
            v = fixed.get((b, i))
            if v is None:
                rest_b.append(b)
                rest_i.append(i)
            else:
                c *= v
        if rest_b:
            key = (tuple(rest_b), tuple(rest_i))
            acc[key] = acc.get(key, 0.0) + c
        else:
            constant += c
    acc = {k: v for k, v in acc.items() if v != 0.0}
    return BlockMultilinearForm(f.d, f.n, constant, acc)


def influences_itemwise(f):
    """Influence table by item-adds into a (d, n) array, in term order."""
    table = np.zeros((f.d, f.n))
    for (blocks, indices), coeff in f.terms.items():
        c2 = coeff * coeff
        for b, i in zip(blocks, indices):
            table[b, i] += c2
    return table


def simulate_on_forms(f, policy, x):
    """The greedy walk on forms: query ``max_influence``, ``restrict`` by
    the observed sign, stop by the simulator's rule."""
    g = f
    transcript = SimulationTranscript()
    while (reason := _stop_reason(g.variance(), transcript.queries_used, policy)) is None:
        b, i, _ = g.max_influence()
        observed = float(x[b][i])
        transcript.queries.append((b, i, observed))
        g = g.restrict({(b, i): observed})
    transcript.stop_reason = reason
    transcript.output = g.constant
    return transcript


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


def evaluate_form(f, mats, dim):
    """A form at a matrix assignment {(block, index): dim x dim matrix} by
    a plain product loop: the constant times the identity plus, per term,
    the coefficient times the block-ordered product of its matrices.
    Every variable of the form must be assigned."""
    total = np.zeros((dim, dim), dtype=complex)
    if f.constant != 0.0:
        total += f.constant * np.eye(dim)
    for (blocks, indices), coeff in f.terms.items():
        prod = coeff * np.eye(dim, dtype=complex)
        for var in zip(blocks, indices):
            if var not in mats:
                raise ValueError(f"variable {var} is not assigned")
            prod = prod @ mats[var]
        total = total + prod
    return total


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


# -- circuits --------------------------------------------------------------


def identity_circuit(n, d, s=1):
    """All unitaries identity, u = v = first basis vector: T(x) is the
    product x_1(1) x_2(1) ... x_d(1)."""
    dim = n * s
    e0 = np.zeros(dim)
    e0[0] = 1.0
    return QuantumQueryCircuit(n=n, s=s, d=d, u=e0.copy(), v=e0.copy(),
                               unitaries=[np.eye(dim) for _ in range(d)])


def extract_form_fourier(c, cap=EXTRACT_CUBE_CAP):
    """Coefficient recovery by Fourier inversion over the full cube:
    fhat_S = E[T(x) chi_S(x)] for every monomial key, including keys the
    algebraic extraction produces with coefficient zero."""
    n, d = c.n, c.d
    nv = n * d
    if nv > cap:
        raise ValueError(f"cap exceeded: n*d = {nv} > cap {cap}")
    npts = 1 << nv
    # all inputs at once; X[p, b, i] is the sign of variable (b, i) at point p
    bits = (np.arange(npts, dtype=np.uint32)[:, None] >> np.arange(nv, dtype=np.uint32)) & 1
    signs = 1.0 - 2.0 * bits.astype(float)
    x_all = signs.reshape(npts, d, n)

    states = np.broadcast_to(c.v[:, None], (c.dim, npts)).copy()
    for b in range(d - 1, -1, -1):
        oracle = np.repeat(x_all[:, b, :], c.s, axis=1).T
        states = c.unitaries[b] @ (oracle * states)
    values = c.u @ states

    constant = float(values.mean())
    terms = {}
    # every block-multilinear key: nonempty block subset, one index per block
    for mask in range(1, 1 << d):
        blocks = tuple(b for b in range(d) if (mask >> b) & 1)
        shape = (n,) * len(blocks)
        for indices in np.ndindex(*shape):
            chi = np.ones(npts)
            for b, i in zip(blocks, indices):
                chi = chi * x_all[:, b, i]
            coeff = float(np.mean(values * chi))
            if coeff != 0.0:
                terms[(blocks, tuple(int(i) for i in indices))] = coeff
    return BlockMultilinearForm(d, n, constant, terms)


# -- word rewriting -------------------------------------------------------


def make_word(letters):
    return tuple((int(gen), bool(star)) for gen, star in letters)


def word_trace(word):
    """Canonical trace of a word in free Haar unitaries: 1 if the word
    reduces to the identity, else 0."""
    return 1 if len(reduce_word(word)) == 0 else 0


def moment_word(monomials):
    """Word u_{i_1} u*_{j_1} u_{i_2} u*_{j_2} ... for alternating monomial
    tuples (i_1, j_1, i_2, ...).  Starred factors reverse their letters
    because (u_a u_b)* = u_b* u_a*."""
    word = []
    for k, mono in enumerate(monomials):
        if k % 2 == 0:
            word.extend((int(g), False) for g in mono)
        else:
            word.extend((int(g), True) for g in reversed(mono))
    return tuple(word)


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


def star_pairing_problem_naive(d, m, pairs):
    """Why ``pairs`` is not a non-crossing bicolored perfect matching of
    the 2dm positions, or None when it is: the integer check, then the
    per-pair range and color checks, the covering count and the
    all-pairs crossing test ``is_noncrossing``."""
    size = 2 * d * m
    for a, b in pairs:
        if not (isinstance(a, int) and isinstance(b, int)):
            return f"pair ({a!r}, {b!r}) has a non-integer position"
    seen = set()
    for a, b in pairs:
        if not (0 <= a < b < size):
            return f"pair ({a}, {b}) out of range for {size} positions"
        if _color(a, d) == _color(b, d):
            return f"pair ({a}, {b}) joins same-colored positions"
        seen.update((a, b))
    if len(seen) != size or len(pairs) * 2 != size:
        return "pairs do not form a perfect matching"
    return None if is_noncrossing(pairs) else "two pairs cross"


def consistent_pairings(word, d, m, cap=PAIRING_CAP):
    """Star pairings that only match positions carrying the same
    generator.  ``word`` must have the alternating-star block structure
    of length 2dm (plain blocks at even block positions)."""
    word = make_word(word)
    size = 2 * d * m
    if len(word) != size:
        raise ValueError(f"word length {len(word)} != 2dm = {size}")
    for pos, (gen, star) in enumerate(word):
        if star != bool(_color(pos, d)):
            raise ValueError(f"position {pos} has star={star}, expected {bool(_color(pos, d))}")
    return [sp for sp in enumerate_star_pairings(d, m, cap=cap)
            if all(word[a][0] == word[b][0] for a, b in sp.pairs)]


# -- free moments ----------------------------------------------------------


def trace_inner_product(p, q):
    """tr(p q*) for polynomials in the generators, via word reduction
    over all monomial pairs.  Only identical monomials survive, so the
    monomials of the generators are orthonormal and tr(p p*) is the
    squared l2 norm.  Exact integers when every coefficient is integral."""
    _check_generator_poly(p)
    _check_generator_poly(q)
    pt, p_int = _exact_terms(p)
    qt, q_int = _exact_terms(q)
    total = 0 if (p_int and q_int) else 0.0
    for wp, cp in pt:
        for wq, cq in qt:
            if word_trace(moment_word([wp, wq])):
                total = total + cp * cq
    return total



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
    carried to the last step, and each next prefix is the public normal
    form ``reduce_word(prefix + letters)``.  Same term order and
    arithmetic as ``trace_moment_exact`` (ints when every coefficient is
    integral, floats otherwise), so float results must agree bit for
    bit."""
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
                letters = (tuple((g, True) for g in reversed(mono)) if starred
                           else tuple((g, False) for g in mono))
                key = reduce_word(prefix + letters)
                nxt[key] = nxt.get(key, zero) + acc * coeff
        states = {k: v for k, v in nxt.items() if v != 0}
    return states.get((), zero)
