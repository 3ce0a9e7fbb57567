"""Exact combinatorics of words in free Haar unitaries.

The canonical trace of a word in free Haar unitary generators is 1 when
the word reduces to the identity and 0 otherwise.  That single fact
drives everything here:

* ``reduce_word`` cancels adjacent g g* / g* g pairs; the rewriting
  system is confluent, so any cancellation order gives the same normal
  form (tests exercise randomized orders).
* ``trace_moment_exact`` evaluates tr[(p p*)^m] for a homogeneous
  degree-d polynomial p in the generators by summing coefficient
  products over all 2m-fold monomial choices, scoring each resulting
  word with the trace indicator.  With integer coefficients the sum is
  computed in exact integer arithmetic (Python integers do not
  overflow).  The sum is factored by a transfer map over reduced
  prefixes, and a prefix is dropped once it is longer than the letters
  the remaining monomials could cancel (d per step).  That is exact: a
  dropped prefix only ever extends to dropped prefixes, so no kept key
  loses a contribution or sees its contributions in another order, and
  float results are bit-for-bit those of the unpruned map.  Internally
  a letter is the int 2 g + star, whose inverse is the code xor 1 (for
  0 and negative labels too), and a monomial cancels only against the
  prefix's tail, since its letters share one star flag.  The coding is
  one-to-one, so results are those of the letter-pair map bit for bit.
* Star pairings: positions 1..2dm split into 2m consecutive blocks of
  d; odd-numbered blocks are colored red (plain letters), even blocks
  blue (starred letters).  ``enumerate_star_pairings`` lists all
  non-crossing perfect matchings that only pair different colors; their
  number is the Fuss-Catalan number C_{d,m} = binom(m(d+1), m-1) / m,
  which also upper-bounds tr[(p p*)^m] / (sum_i c_i^2)^m.

Words are tuples of letters; a letter is (generator, starred) with an
integer generator label and a boolean star flag (the int code above
never leaves ``trace_moment_exact``).  Pairing positions are
0-based internally and 1-based in serialized output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .ncpoly import NCPolynomial

Letter = tuple[int, bool]
Word = tuple[Letter, ...]

PAIRING_CAP = 28
TRACE_TUPLE_CAP = 10_000_000


def reduce_word(word: Sequence) -> Word:
    """Normal form: repeatedly cancel adjacent u u* and u* u pairs.

    Stack-based left-to-right pass; confluence of the rewriting system
    makes the result independent of cancellation order.
    """
    stack: list[Letter] = []
    for gen, star in word:
        gen = int(gen)
        star = bool(star)
        if stack and stack[-1][0] == gen and stack[-1][1] != star:
            stack.pop()
        else:
            stack.append((gen, star))
    return tuple(stack)


# -- star pairings -----------------------------------------------------


def _color(pos: int, d: int) -> int:
    # 0-based block index; even blocks red (plain), odd blocks blue (starred)
    return (pos // d) % 2


@dataclass(frozen=True)
class StarPairing:
    """Non-crossing bicolored perfect matching of 2dm positions.

    Validated in one linear pass: each pair is checked for integer,
    in-range, ordered, different-colored positions not used before; once
    the pairs cover every position, a left-to-right scan with a stack of
    open pairs finds any crossing, since a pair closes while another
    opened inside it is still open exactly when the two cross.
    """

    d: int
    m: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        size = 2 * self.d * self.m
        partner = [-1] * size
        for a, b in self.pairs:
            if not (isinstance(a, int) and isinstance(b, int)):
                raise ValueError(f"pair ({a!r}, {b!r}) has a non-integer position")
            if not (0 <= a < b < size):
                raise ValueError(f"pair ({a}, {b}) out of range for {size} positions")
            if _color(a, self.d) == _color(b, self.d):
                raise ValueError(f"pair ({a}, {b}) joins same-colored positions")
            if partner[a] >= 0 or partner[b] >= 0:
                raise ValueError("pairs do not form a perfect matching")
            partner[a], partner[b] = b, a
        if len(self.pairs) * 2 != size:
            raise ValueError("pairs do not form a perfect matching")
        opened: list[int] = []
        for pos, other in enumerate(partner):
            if other > pos:
                opened.append(pos)
            else:
                inner = opened.pop()
                if inner != other:
                    raise ValueError(f"pairs ({other},{pos}) and ({inner},{partner[inner]}) cross")

    def to_lists(self) -> list[list[int]]:
        """Sorted 1-based pair list for serialization."""
        return [[a + 1, b + 1] for a, b in sorted(self.pairs)]


def _enumerate_matchings(positions: tuple[int, ...], d: int):
    """Non-crossing matchings of an ordered position tuple, different
    colors only.  The first position pairs at odd offsets; inside and
    outside segments recurse independently, which is exactly the
    non-crossing decomposition."""
    if not positions:
        yield ()
        return
    first = positions[0]
    for k in range(1, len(positions), 2):
        partner = positions[k]
        if _color(first, d) == _color(partner, d):
            continue
        for inside in _enumerate_matchings(positions[1:k], d):
            for outside in _enumerate_matchings(positions[k + 1:], d):
                yield ((first, partner),) + inside + outside


def enumerate_star_pairings(d: int, m: int, cap: int = PAIRING_CAP) -> list[StarPairing]:
    """All non-crossing different-color pairings of 2dm positions.

    Backtracking over the leftmost unpaired position with the
    non-crossing segment split; color constraints prune branches.
    """
    if d < 1 or m < 1:
        raise ValueError("d and m must be positive")
    size = 2 * d * m
    if size > cap:
        raise ValueError(f"cap exceeded: 2dm = {size} > cap {cap}")
    out = []
    for pairs in _enumerate_matchings(tuple(range(size)), d):
        out.append(StarPairing(d, m, tuple(sorted(pairs))))
    out.sort(key=lambda sp: sp.pairs)
    return out


def fuss_catalan(d: int, m: int) -> int:
    """C_{d,m} = binom(m(d+1), m-1) / m, exact."""
    if d < 1 or m < 1:
        raise ValueError("d and m must be positive")
    num = math.comb(m * (d + 1), m - 1)
    q, r = divmod(num, m)
    if r != 0:
        raise ArithmeticError(f"Fuss-Catalan division not exact for d={d}, m={m}")
    return q


# -- exact moments -----------------------------------------------------


def _exact_terms(p: NCPolynomial):
    """Term list with coefficients as exact ints when possible."""
    terms = []
    integral = True
    for word, coeff in sorted(p.terms.items()):
        if float(coeff).is_integer():
            terms.append((word, int(coeff)))
        else:
            integral = False
            terms.append((word, float(coeff)))
    if not integral:
        terms = [(w, float(c)) for w, c in terms]
    return terms, integral


def _check_generator_poly(p: NCPolynomial):
    if not p.is_homogeneous() or p.degree() == 0:
        raise ValueError("polynomial must be homogeneous of degree >= 1 in the generators")
    for word in p.terms:
        for g in word:
            if not isinstance(g, int) or isinstance(g, bool):
                raise ValueError(f"generator labels must be ints, got {g!r}")


def trace_moment_exact(p: NCPolynomial, m: int, cap: int = TRACE_TUPLE_CAP):
    """tr[(p p*)^m] for homogeneous p over free Haar unitary generators.

    Equals sum over all 2m-fold monomial choices (i_1, j_1, ..., i_m,
    j_m) of c_{i_1} c_{j_1} ... c_{j_m} times the trace indicator of
    u_{i_1} u*_{j_1} ... u_{i_m} u*_{j_m}.  Evaluated by a transfer map
    over reduced prefixes, which factors the same sum without changing
    it; the cap still bounds the notional tuple count.  Integer
    coefficients give an exact integer result.

    Each step appends one monomial of d letters and so cancels at most d
    letters.  After step ``step`` (0-based) a prefix longer than
    d (2m - step - 1) can no longer reduce to the empty word and is
    dropped.  Each later step shortens it by at most d letters, so its
    extensions would all be dropped too: every kept state receives exactly
    the contributions it received without pruning, in the same order,
    and float results are unchanged bit for bit.

    Prefixes are tuples of int letter codes 2 g + star.  A monomial's
    letters share the step's star flag, so only its first k letters can
    cancel, against the prefix's last k, and the next prefix is
    ``prefix[:n-k] + letters[k:]`` (length n - 2k + d), the code of
    ``reduce_word(prefix + letters)``.  The coding is one-to-one, so the
    states, their order and every addition are those of the letter-pair
    map, bit for bit.
    """
    _check_generator_poly(p)
    if m < 1:
        raise ValueError("m must be positive")
    terms, integral = _exact_terms(p)
    if len(terms) ** (2 * m) > cap:
        raise ValueError(f"cap exceeded: {len(terms)}^{2 * m} monomial tuples > cap {cap}")

    zero = 0 if integral else 0.0
    d = p.degree()
    # letters coded as 2 g + star, with each term's inverse letters for
    # the boundary scan; starred factors reverse their letters
    plain = [(tuple(2 * g for g in mono), tuple(2 * g + 1 for g in mono), coeff)
             for mono, coeff in terms]
    starred = [(inv[::-1], letters[::-1], coeff) for letters, inv, coeff in plain]
    # transfer states: reduced word prefix -> accumulated coefficient
    states = {(): 1 if integral else 1.0}
    for step in range(2 * m):
        step_terms = starred if step % 2 else plain
        # the 2m - step - 1 steps left cancel at most d letters each
        live = d * (2 * m - step - 1)
        nxt: dict[tuple[int, ...], object] = {}
        for prefix, acc in states.items():
            n = len(prefix)
            reach = min(n, d)
            for letters, inv, coeff in step_terms:
                # the k leading letters cancel the prefix's last k
                k = 0
                while k < reach and prefix[n - 1 - k] == inv[k]:
                    k += 1
                if n - 2 * k + d > live:
                    continue
                key = prefix[:n - k] + letters[k:]
                nxt[key] = nxt.get(key, zero) + acc * coeff
        states = {k: v for k, v in nxt.items() if v != 0}
    return states.get((), zero)


def moment_upper_bound(p: NCPolynomial, m: int):
    """Fuss-Catalan bound C_{d,m} (sum_i c_i^2)^m on tr[(p p*)^m]."""
    _check_generator_poly(p)
    if m < 1:
        raise ValueError("m must be positive")
    terms, integral = _exact_terms(p)
    s = sum(c * c for _, c in terms)
    return fuss_catalan(p.degree(), m) * s ** m
