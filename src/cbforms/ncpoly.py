"""Noncommutative polynomials and matrix substitutions.

Substituting contractive matrices for the +-1 variables of a
block-multilinear form never exceeds its completely bounded norm, so
unitary substitutions produced elsewhere in this package certify lower
bounds.  This module holds the evaluation machinery: a generic
noncommutative polynomial over an ordered-variable alphabet, its one
matrix evaluator ``evaluate_nc``, and ``form_to_ncpoly``, the view of a
form that the evaluator takes.

Variables of an :class:`NCPolynomial` are arbitrary sortable, hashable
labels; block-multilinear forms use (block, index) pairs.  Products run
left to right in the order stored in each term tuple.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .forms import BlockMultilinearForm


class NCPolynomial:
    """Real-coefficient polynomial in noncommuting variables.

    terms maps ordered variable tuples to coefficients; the constant is
    kept separately and participates in the squared l2 norm (it is the
    empty word's coefficient).
    """

    __slots__ = ("_terms", "_constant")

    def __init__(self, terms: Mapping[tuple, float] | None = None, constant: float = 0.0):
        canon: dict[tuple, float] = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            if len(word) == 0:
                raise ValueError("empty word belongs in the constant, not in terms")
            c = float(coeff)
            if c == 0.0:
                continue
            if word in canon:
                raise ValueError(f"duplicate term {word}")
            canon[word] = c
        self._terms = canon
        self._constant = float(constant)

    @property
    def terms(self) -> dict[tuple, float]:
        return dict(self._terms)

    @property
    def constant(self) -> float:
        return self._constant

    def __eq__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self._terms == other._terms and self._constant == other._constant

    def __repr__(self):
        return f"NCPolynomial(terms={len(self._terms)}, constant={self._constant!r})"

    def degree(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def is_homogeneous(self) -> bool:
        d = self.degree()
        if d == 0:
            return self._constant == 0.0 and not self._terms
        return self._constant == 0.0 and all(len(w) == d for w in self._terms)

    def is_zero(self) -> bool:
        return not self._terms and self._constant == 0.0

    def variables(self) -> list:
        seen = set()
        for word in self._terms:
            seen.update(word)
        return sorted(seen)

    def l2_norm(self) -> float:
        squares = 0
        for c in self._terms.values():  # left to right; the builtin sum may compensate
            squares += c * c
        return float(np.sqrt(self._constant * self._constant + squares))


def evaluate_nc(p: NCPolynomial, assignment: Mapping, dim: int | None = None) -> np.ndarray:
    """Evaluate p at matrices; constant contributes constant * identity.

    Every variable occurring in p must be assigned.  ``dim`` is only
    needed for polynomials with no variables at all.
    """
    mats = {}
    for var in p.variables():
        if var not in assignment:
            raise ValueError(f"variable {var!r} is not assigned")
        m = np.asarray(assignment[var])
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"assignment for {var!r} is not a square matrix")
        mats[var] = m
    dims = {m.shape[0] for m in mats.values()}
    if len(dims) > 1:
        raise ValueError(f"assignments have mixed dimensions {sorted(dims)}")
    if dims:
        n = dims.pop()
        if dim is not None and dim != n:
            raise ValueError(f"dim={dim} conflicts with assigned matrices of size {n}")
    elif dim is not None:
        n = dim
    else:
        raise ValueError("cannot infer dimension for a constant polynomial; pass dim")

    total = np.zeros((n, n), dtype=complex)
    if p.constant != 0.0:
        total += p.constant * np.eye(n)
    for word, coeff in p.terms.items():
        prod = mats[word[0]]
        for var in word[1:]:
            prod = prod @ mats[var]
        total = total + coeff * prod
    return total


def form_to_ncpoly(f: BlockMultilinearForm) -> NCPolynomial:
    """View a form as a noncommutative polynomial in its (block, index)
    variables, factors ordered by block."""
    terms = {tuple(zip(blocks, indices)): coeff for (blocks, indices), coeff in f.terms.items()}
    return NCPolynomial(terms, constant=f.constant)
