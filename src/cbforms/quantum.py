"""Phase-oracle query circuits and their block-multilinear amplitudes.

A circuit makes d queries to sign strings x_1, ..., x_d in {-1,+1}^n,
with an s-dimensional workspace:

    T(x) = u^T  U_1 (O_{x_1} (x) I_s)  U_2 (O_{x_2} (x) I_s) ... U_d (O_{x_d} (x) I_s)  v

where O_x = Diag(x), u and v are real unit vectors of dimension n*s and
the U_k are real orthogonal (any unitary after the last query folds
into v).  T is then a homogeneous degree-d block-multilinear form with
completely bounded norm at most 1, and the acceptance probability of
the underlying algorithm is T(x)^2.

Extraction recovers the coefficient tensor.  Two routes are kept
deliberately separate: an algebraic expansion that threads the oracle
splits through the unitaries (fast path), and Fourier inversion by
exhaustive evaluation over the cube (reference path).  They must agree
to 1e-12 and the test suite compares them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .forms import BlockMultilinearForm, _payload_int
from .matnum import Seed, haar_orthogonal

EXTRACT_CUBE_CAP = 20
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

    def acceptance_probability(self, x) -> float:
        t = self.amplitude(x)
        return t * t

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
    """Coefficient tensor of T by algebraic expansion (fast path).

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


def extract_form_fourier(c: QuantumQueryCircuit, cap: int = EXTRACT_CUBE_CAP) -> BlockMultilinearForm:
    """Coefficient recovery by Fourier inversion over the full cube
    (reference path): fhat_S = E[T(x) chi_S(x)] for every monomial key,
    including keys the fast path produces with coefficient zero."""
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


def identity_circuit(n: int, d: int, s: int = 1) -> QuantumQueryCircuit:
    """All unitaries identity, u = v = first basis vector: T(x) is the
    product x_1(1) x_2(1) ... x_d(1)."""
    dim = n * s
    e0 = np.zeros(dim)
    e0[0] = 1.0
    return QuantumQueryCircuit(n=n, s=s, d=d, u=e0.copy(), v=e0.copy(),
                               unitaries=[np.eye(dim) for _ in range(d)])


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


def lift_repeated_oracle(c: QuantumQueryCircuit) -> QuantumQueryCircuit:
    """Lift a circuit that queries one string z at every query into a
    block-multilinear circuit on n+1 variables per block.

    The extra variable is a fresh constant slot: each unitary extends
    block-diagonally by the identity on the slot's workspace, and u, v
    extend by zeros.  Feeding x_b = (z, 1) for every b reproduces the
    original amplitude at z; the lifted amplitude extracts to a form
    whose diagonal slice is the original acceptance behavior.
    """
    n, s, d = c.n, c.s, c.d
    dim_new = (n + 1) * s
    u = np.concatenate([c.u, np.zeros(s)])
    v = np.concatenate([c.v, np.zeros(s)])
    unitaries = []
    for mat in c.unitaries:
        big = np.eye(dim_new)
        big[: n * s, : n * s] = mat
        unitaries.append(big)
    return QuantumQueryCircuit(n=n + 1, s=s, d=d, u=u, v=v, unitaries=unitaries)
