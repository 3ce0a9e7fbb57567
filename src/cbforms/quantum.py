"""Phase-oracle query circuits and their block-multilinear amplitudes.

A circuit makes d queries to sign strings x_1, ..., x_d in {-1,+1}^n,
with an s-dimensional workspace:

    T(x) = u^T  U_1 (O_{x_1} (x) I_s)  U_2 (O_{x_2} (x) I_s) ... U_d (O_{x_d} (x) I_s)  v

where O_x = Diag(x), u and v are real unit vectors of dimension n*s and
the U_k are real orthogonal (any unitary after the last query folds
into v).  T is then a homogeneous degree-d block-multilinear form with
completely bounded norm at most 1, and the acceptance probability of
the underlying algorithm is T(x)^2.

Extraction recovers the coefficient tensor by an algebraic expansion
that threads the oracle splits through the unitaries.  The reference
route, Fourier inversion by exhaustive evaluation over the cube, lives
with the test oracles in ``tests/oracles.py``; the test suite checks
that the two agree to 1e-12.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .forms import BlockMultilinearForm, _payload_int
from .matnum import Seed, haar_orthogonal

ORTHOGONALITY_TOL = 1e-10


@dataclass
class QuantumQueryCircuit:
    """d queries to n-bit sign strings with an s-dimensional workspace."""

    n: int
    s: int
    d: int
    u: np.ndarray
    v: np.ndarray
    unitaries: list[np.ndarray]

    def __post_init__(self):
        if self.n < 1 or self.s < 1 or self.d < 1:
            raise ValueError("n, s, d must be positive")
        dim = self.n * self.s
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != (dim,) or self.v.shape != (dim,):
            raise ValueError(f"u and v must have shape ({dim},)")
        for name, vec in (("u", self.u), ("v", self.v)):
            if not abs(np.linalg.norm(vec) - 1.0) <= ORTHOGONALITY_TOL:  # NaN fails too
                raise ValueError(f"{name} is not a unit vector")
        if len(self.unitaries) != self.d:
            raise ValueError(f"expected {self.d} unitaries, got {len(self.unitaries)}")
        mats = []
        for k, mat in enumerate(self.unitaries):
            mat = np.asarray(mat, dtype=float)
            if mat.shape != (dim, dim):
                raise ValueError(f"unitary {k} has shape {mat.shape}, expected {(dim, dim)}")
            resid = np.abs(mat @ mat.T - np.eye(dim)).max()
            if not resid <= ORTHOGONALITY_TOL:
                raise ValueError(f"unitary {k} is not orthogonal (residual {resid:.2e})")
            mats.append(mat)
        self.unitaries = mats

    @property
    def dim(self) -> int:
        return self.n * self.s

    def amplitude(self, x) -> float:
        """T(x) for x of shape (d, n) with +-1 entries."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d, self.n):
            raise ValueError(f"expected input shape {(self.d, self.n)}, got {x.shape}")
        if not np.all(np.abs(x) == 1.0):
            raise ValueError("inputs must be +-1 valued")
        state = self.v.copy()
        for b in range(self.d - 1, -1, -1):
            state = np.repeat(x[b], self.s) * state
            state = self.unitaries[b] @ state
        return float(self.u @ state)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "d": self.d,
            "u": self.u.tolist(),
            "v": self.v.tolist(),
            "unitaries": [m.tolist() for m in self.unitaries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "QuantumQueryCircuit":
        try:
            return cls(
                n=_payload_int(data["n"], "n", "circuit"),
                s=_payload_int(data["s"], "s", "circuit"),
                d=_payload_int(data["d"], "d", "circuit"),
                u=np.asarray(data["u"], dtype=float),
                v=np.asarray(data["v"], dtype=float),
                unitaries=[np.asarray(m, dtype=float) for m in data["unitaries"]],
            )
        except KeyError as exc:
            raise ValueError(f"malformed circuit payload: missing {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed circuit payload: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "QuantumQueryCircuit":
        return cls.from_dict(json.loads(text))


# -- extraction --------------------------------------------------------


def extract_form(c: QuantumQueryCircuit) -> BlockMultilinearForm:
    """Coefficient tensor of T by algebraic expansion.

    Each oracle splits the running row vector by queried index; the
    result is homogeneous of degree d with coefficient

        fhat_{i_1..i_d} = sum over workspace paths of
                          (u^T U_1)|_{i_1} U_2|... v|_{i_d}.
    """
    n, s, d = c.n, c.s, c.d
    # state[p, i, k]: path p chose indices for earlier queries, current
    # query answered at block i, workspace component k
    state = (c.u @ c.unitaries[0]).reshape(1, n, s)
    for b in range(1, d):
        u_b = c.unitaries[b].reshape(n, s, n, s)
        state = np.einsum("pjk,jkil->pjil", state, u_b)
        state = state.reshape(-1, n, s)
    coeffs = np.einsum("pik,ik->pi", state, c.v.reshape(n, s)).reshape((n,) * d)

    blocks = tuple(range(d))
    terms = {}
    for idx in np.ndindex(*coeffs.shape):
        val = float(coeffs[idx])
        if val != 0.0:
            terms[(blocks, idx)] = val
    return BlockMultilinearForm(d, n, 0.0, terms)


# -- generators ----------------------------------------------------------


def addr_index(bits: tuple[int, ...]) -> int:
    """0-based address of a bit string, most significant bit first.
    The 1-based convention of the serialized format is this plus one."""
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def address_form(d: int) -> BlockMultilinearForm:
    """Homogeneous degree-(d+1) selector form on n = 2^d variables.

    f = sum_{a in {0,1}^d} g_a(x_1..x_d) x_{d+1}(addr(a)) with
    g_a = prod_b (x_b(1) + (-1)^{a_b} x_b(2)) / 2.  Exactly one g_a is
    +-1 at any input, so the sup norm is 1, while every data variable
    has influence 2^{-d}; the form separates the sup norm from the sum
    of root influences by a 2^{d/2} factor.
    """
    if d < 1:
        raise ValueError("d must be positive")
    n = 1 << d
    blocks = tuple(range(d + 1))
    scale = 0.5 ** d
    terms = {}
    for a in range(n):
        a_bits = [(a >> (d - 1 - j)) & 1 for j in range(d)]
        data = addr_index(tuple(a_bits))
        # expand the product over choices of first or second variable per block
        for choice in range(n):
            sign = 1.0
            indices = []
            for j in range(d):
                pick_second = (choice >> j) & 1
                indices.append(pick_second)
                if pick_second and a_bits[j]:
                    sign = -sign
            key = (blocks, tuple(indices) + (data,))
            terms[key] = terms.get(key, 0.0) + sign * scale
    return BlockMultilinearForm(d + 1, n, 0.0, terms)


def _hadamard(n: int) -> np.ndarray:
    if n < 1 or n & (n - 1):
        raise ValueError("Hadamard size must be a power of two")
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h / np.sqrt(n)


def forrelation_circuit(n: int, k: int = 2) -> QuantumQueryCircuit:
    """k-query forrelation: uniform start and end vectors, identity
    before the first query, Hadamard mixing between queries.

    For k = 2 the amplitude is (1/(n sqrt(n))) sum_{i,j} (-1)^{<i,j>}
    x_1(i) x_2(j) with the bitwise inner product.  The k > 2 chain
    generalizes the same mixing pattern.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    h = _hadamard(n)
    uniform = np.full(n, 1.0 / np.sqrt(n))
    unitaries = [np.eye(n)] + [h.copy() for _ in range(k - 1)]
    return QuantumQueryCircuit(n=n, s=1, d=k, u=uniform.copy(), v=uniform.copy(),
                               unitaries=unitaries)


def random_circuit(n: int, s: int, d: int, seed: Seed) -> QuantumQueryCircuit:
    """Haar-orthogonal unitaries and Gaussian-normalized u, v."""
    dim = n * s
    rng = seed.rng()
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    unitaries = [haar_orthogonal(dim, rng) for _ in range(d)]
    return QuantumQueryCircuit(n=n, s=s, d=d, u=u, v=v, unitaries=unitaries)
