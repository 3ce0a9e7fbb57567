"""Degree-d block-multilinear forms on the Boolean hypercube.

A form over d blocks of n variables each is

    f(x_1, ..., x_d) = c + sum_m sum_{|b|=m, i in [n]^m}
                           fhat_{b,i} x_{b_1}(i_1) ... x_{b_m}(i_m)

with b strictly increasing inside [d], at most one variable per block in
every monomial, and real coefficients.  Inputs are sign vectors: block b
is a row of n entries in {-1, +1}.

Conventions
-----------
* Blocks and indices are 0-based throughout the Python API.  The JSON
  interchange format is 1-based; conversion happens only at that
  boundary.
* Coefficients are float64.  Exactly-zero coefficients are never stored;
  arithmetic that produces an exact 0.0 drops the monomial.
* Variance and influence are Fourier-side sums of squared coefficients
  (orthonormality of the characters makes them equal to E f^2 - (E f)^2
  and E |df|^2 respectively; tests verify the identities by brute
  force).
* Forms are immutable once constructed; every operation returns a new
  object.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

import numpy as np

from .matnum import Seed

Key = tuple[tuple[int, ...], tuple[int, ...]]

SUP_NORM_CAP = 24


def _validate_key(blocks, indices, d: int, n: int) -> Key:
    blocks = tuple(int(b) for b in blocks)
    indices = tuple(int(i) for i in indices)
    if len(blocks) != len(indices) or len(blocks) == 0:
        raise ValueError(f"blocks and indices must be nonempty and equal length, got {blocks}, {indices}")
    if any(b1 >= b2 for b1, b2 in zip(blocks, blocks[1:])):
        raise ValueError(f"blocks must be strictly increasing, got {blocks}")
    if blocks[0] < 0 or blocks[-1] >= d:
        raise ValueError(f"block out of range [0, {d}): {blocks}")
    if any(i < 0 or i >= n for i in indices):
        raise ValueError(f"index out of range [0, {n}): {indices}")
    return blocks, indices


def _payload_int(value, what: str, payload: str) -> int:
    """An integer read from a JSON payload.  Integral floats pass; bools,
    strings, fractions and non-finite values do not, so nothing is
    silently truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"malformed {payload} payload: {what} must be an integer, got {value!r}")


def _payload_float(value, what: str, payload: str) -> float:
    """A finite float read from a JSON payload (JSON's NaN and Infinity
    are rejected)."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"malformed {payload} payload: {what} must be a number, "
                         f"got {value!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"malformed {payload} payload: {what} must be finite, got {value!r}")
    return out


class BlockMultilinearForm:
    """Sparse block-multilinear form with real coefficients."""

    __slots__ = ("_d", "_n", "_constant", "_terms")

    def __init__(self, d: int, n: int, constant: float = 0.0,
                 terms: Mapping[Key, float] | None = None):
        if d < 1 or n < 1:
            raise ValueError("need at least one block and one variable per block")
        self._d = int(d)
        self._n = int(n)
        self._constant = float(constant)
        canon: dict[Key, float] = {}
        for (blocks, indices), coeff in (terms or {}).items():
            key = _validate_key(blocks, indices, self._d, self._n)
            c = float(coeff)
            if c == 0.0:
                continue
            if key in canon:
                raise ValueError(f"duplicate monomial key {key}")
            canon[key] = c
        self._terms = canon

    @property
    def d(self) -> int:
        return self._d

    @property
    def n(self) -> int:
        return self._n

    @property
    def constant(self) -> float:
        return self._constant

    @property
    def terms(self) -> dict[Key, float]:
        """Copy of the coefficient map; mutating it does not touch the form."""
        return dict(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockMultilinearForm):
            return NotImplemented
        return (self._d == other._d and self._n == other._n
                and self._constant == other._constant and self._terms == other._terms)

    def __hash__(self):
        return hash((self._d, self._n, self._constant, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return (f"BlockMultilinearForm(d={self._d}, n={self._n}, "
                f"constant={self._constant!r}, terms={len(self._terms)})")

    def num_terms(self) -> int:
        return len(self._terms)

    def degree(self) -> int:
        """Largest monomial length (0 for a constant form)."""
        return max((len(b) for b, _ in self._terms), default=0)

    def is_homogeneous(self) -> bool:
        """True when every monomial uses one variable from every block and
        the constant part vanishes.  The zero form counts vacuously."""
        full = tuple(range(self._d))
        return self._constant == 0.0 and all(b == full for b, _ in self._terms)

    def support(self) -> list[tuple[int, int]]:
        """Sorted list of (block, index) variables that occur in some monomial."""
        vars_: set[tuple[int, int]] = set()
        for blocks, indices in self._terms:
            vars_.update(zip(blocks, indices))
        return sorted(vars_)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, x) -> float:
        """Value at a sign assignment x of shape (d, n) with entries +-1."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self._d, self._n):
            raise ValueError(f"expected input shape {(self._d, self._n)}, got {x.shape}")
        if not np.all(np.abs(x) == 1.0):
            raise ValueError("inputs must be +-1 valued")
        total = self._constant
        for (blocks, indices), coeff in self._terms.items():
            prod = coeff
            for b, i in zip(blocks, indices):
                prod *= x[b, i]
            total += prod
        return float(total)

    # -- Fourier analytics ---------------------------------------------

    def variance(self) -> float:
        """Sum of squared non-constant coefficients (= E f^2 - (E f)^2)."""
        return float(sum(c * c for c in self._terms.values()))

    def influences(self) -> np.ndarray:
        """Influence table, shape (d, n): entry (b, i) is the sum of squared
        coefficients of the monomials containing x_b(i)."""
        table = np.zeros((self._d, self._n))
        for (blocks, indices), coeff in self._terms.items():
            c2 = coeff * coeff
            for b, i in zip(blocks, indices):
                table[b, i] += c2
        return table

    def max_influence(self) -> tuple[int, int, float]:
        """(block, index, value) of the largest influence.

        Ties break lexicographically: lowest block first, then lowest
        index.  The zero form reports ((0, 0), 0.0).
        """
        table = self.influences()
        flat = int(np.argmax(table))  # argmax returns the first maximum in C order
        b, i = divmod(flat, self._n)
        return b, i, float(table[b, i])

    # -- restriction ----------------------------------------------------

    def restrict(self, assignments: Mapping[tuple[int, int], int]) -> "BlockMultilinearForm":
        """Fix the given variables to +-1 and return the restricted form.

        Monomials whose variables are all fixed fold into the constant;
        coefficients that collide on one reduced monomial are summed, and
        exact zeros are dropped.
        """
        fixed: dict[tuple[int, int], float] = {}
        for (b, i), v in assignments.items():
            if not (0 <= b < self._d and 0 <= i < self._n):
                raise ValueError(f"variable ({b}, {i}) out of range")
            v = float(v)
            if v not in (1.0, -1.0):
                raise ValueError(f"restriction values must be +-1, got {v}")
            fixed[(int(b), int(i))] = v
        constant = self._constant
        acc: dict[Key, float] = {}
        for (blocks, indices), coeff in self._terms.items():
            c = coeff
            rest_b: list[int] = []
            rest_i: list[int] = []
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
        return BlockMultilinearForm(self._d, self._n, constant, acc)

    # -- norms ------------------------------------------------------------

    def sup_norm_bruteforce(self, cap: int = SUP_NORM_CAP) -> float:
        """Exact sup norm over the cube by exhaustive enumeration.

        The form does not depend on variables outside its support, so the
        enumeration runs over support variables only; ``cap`` bounds the
        number of those (2^cap points).
        """
        sup_vars = self.support()
        k = len(sup_vars)
        if k > cap:
            raise ValueError(f"cap exceeded: {k} support variables > cap {cap}")
        if k == 0:
            return abs(self._constant)
        best = 0.0
        chunk = 1 << min(k, 18)
        for start in range(0, 1 << k, chunk):
            vals = self._cube_values(sup_vars, np.arange(start, start + chunk, dtype=np.uint64))
            best = max(best, float(np.max(np.abs(vals))))
        return best

    def _cube_values(self, sup_vars, points: np.ndarray) -> np.ndarray:
        """Values at bit-encoded cube points: bit j of a point set means
        variable ``sup_vars[j]`` is -1, a clear bit means +1.

        ``sup_vars`` must cover the support.  A monomial's sign is the
        parity of its masked bits, and multiplying by +-1 is exact, so
        adding the terms in storage order onto the constant gives the
        same floats as ``evaluate`` at every point.
        """
        pos = {v: j for j, v in enumerate(sup_vars)}
        vals = np.full(points.shape, self._constant)
        for (blocks, indices), coeff in self._terms.items():
            mask = 0
            for b, i in zip(blocks, indices):
                mask |= 1 << pos[(b, i)]
            par = np.bitwise_count(points & mask) & 1
            vals += coeff * (1.0 - 2.0 * par.astype(float))
        return vals

    # -- structure ---------------------------------------------------------

    def leading_block_decomposition(self) -> list["BlockMultilinearForm"]:
        """Split by lowest block: entry b collects monomials whose first
        block is b.  The constant is excluded; summing the parts and the
        constant recovers the form coefficient by coefficient."""
        parts: list[dict[Key, float]] = [dict() for _ in range(self._d)]
        for key, c in self._terms.items():
            parts[key[0][0]][key] = c
        return [BlockMultilinearForm(self._d, self._n, 0.0, p) for p in parts]

    # -- JSON interchange (1-based at the boundary) -------------------------

    def to_dict(self) -> dict:
        items = []
        for (blocks, indices), coeff in sorted(self._terms.items()):
            items.append({
                "blocks": [b + 1 for b in blocks],
                "indices": [i + 1 for i in indices],
                "coeff": coeff,
            })
        return {"d": self._d, "n": self._n, "constant": self._constant, "terms": items}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "BlockMultilinearForm":
        try:
            d = _payload_int(data["d"], "d", "form")
            n = _payload_int(data["n"], "n", "form")
            constant = _payload_float(data["constant"], "constant", "form")
            raw = data["terms"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed form payload: {exc}") from exc
        terms: dict[Key, float] = {}
        try:
            for item in raw:
                key = (tuple(_payload_int(b, "block", "form") - 1 for b in item["blocks"]),
                       tuple(_payload_int(i, "index", "form") - 1 for i in item["indices"]))
                if key in terms:
                    raise ValueError(f"duplicate monomial in payload: {item}")
                terms[key] = _payload_float(item["coeff"], "coefficient", "form")
        except KeyError as exc:
            raise ValueError(f"malformed form payload: a term has no field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed form payload: {exc}") from exc
        return cls(d, n, constant, terms)

    @classmethod
    def from_json(cls, text: str) -> "BlockMultilinearForm":
        return cls.from_dict(json.loads(text))


def random_form(d: int, n: int, num_terms: int, seed: Seed,
                homogeneous: bool = True) -> BlockMultilinearForm:
    """Random sparse form with coefficients of magnitude in [0.3, 1].

    Homogeneous forms draw ``num_terms`` distinct index tuples over the
    full block set; general forms also draw the block subsets.  Keeping
    coefficients away from zero keeps influence-based pipelines well
    conditioned.
    """
    if d < 1 or n < 1 or num_terms < 0:
        raise ValueError(f"random form needs d >= 1, n >= 1 and terms >= 0, "
                         f"got d={d}, n={n}, terms={num_terms}")
    rng = seed.rng()
    keys: set[Key] = set()
    full = tuple(range(d))
    attempts = 0
    while len(keys) < num_terms:
        attempts += 1
        if attempts > 1000 * num_terms:
            raise ValueError(f"cannot place {num_terms} distinct monomials for d={d}, n={n}")
        if homogeneous:
            blocks = full
        else:
            m = int(rng.integers(1, d + 1))
            blocks = tuple(sorted(rng.choice(d, size=m, replace=False).tolist()))
        indices = tuple(int(rng.integers(0, n)) for _ in blocks)
        keys.add((blocks, indices))
    terms: dict[Key, float] = {}
    for key in sorted(keys):
        mag = 0.3 + 0.7 * rng.random()
        sign = 1.0 if rng.random() < 0.5 else -1.0
        terms[key] = sign * mag
    return BlockMultilinearForm(d, n, 0.0, terms)
