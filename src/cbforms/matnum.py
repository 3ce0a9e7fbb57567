"""Matrix numerics: seeded Haar sampling, polar factors, the operator norm.

Conventions
-----------
* Matrices are dense ``numpy`` arrays, complex128 unless noted.
* Haar sampling follows the Ginibre + QR recipe with the diagonal phase
  correction; without the correction QR output is not Haar distributed.
* Randomness is routed through :class:`Seed`, a master integer plus a
  derivation path.  The same (master, path) pair reproduces every draw
  bit for bit, across runs and platforms (PCG64 via ``SeedSequence``).
* ``polar`` returns an exactly unitary factor and a Hermitian PSD factor
  obtained from the singular value decomposition; rank-deficient inputs
  get the canonical completion that the decomposition provides.
* ``operator_norm_svd`` is the one spectral norm; witness values are read
  from it.  ``unitarity_residual`` is the Frobenius norm of m m* - I, which
  bounds the spectral distance from above at a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_DIM_SCHEDULE = (64, 128, 256)


@dataclass(frozen=True)
class Seed:
    """Master seed plus derivation path for reproducible nested sampling."""

    master: int
    path: tuple[int, ...] = field(default_factory=tuple)

    def child(self, *keys: int) -> "Seed":
        """Derive a sub-seed; children with distinct paths are independent."""
        return Seed(self.master, self.path + tuple(int(k) for k in keys))

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master, spawn_key=self.path)
        return np.random.default_rng(seq)

    def to_dict(self) -> dict:
        return {"master": int(self.master), "path": list(self.path)}

    @classmethod
    def from_dict(cls, d: dict) -> "Seed":
        return cls(int(d["master"]), tuple(int(k) for k in d.get("path", ())))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, Seed):
        return seed.rng()
    if isinstance(seed, (int, np.integer)):
        return Seed(int(seed)).rng()
    raise TypeError(f"expected Seed, Generator, or int, got {type(seed)!r}")


def haar_unitary(n: int, seed) -> np.ndarray:
    """Sample an n x n Haar-distributed unitary.

    Ginibre matrix, QR factorization, then each column of Q is multiplied
    by the phase of the matching diagonal entry of R.  The phase step is
    what makes the distribution exactly Haar.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    rng = _as_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q


def haar_orthogonal(n: int, seed) -> np.ndarray:
    """Sample an n x n Haar-distributed real orthogonal matrix."""
    if n < 1:
        raise ValueError("dimension must be positive")
    rng = _as_rng(seed)
    z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * np.sign(d)
    return q


@dataclass
class PolarFactors:
    """Unitary and Hermitian PSD factors of a square matrix.

    side == "left":  m = unitary @ psd
    side == "right": m = psd @ unitary
    """

    unitary: np.ndarray
    psd: np.ndarray
    side: str


def polar(m: np.ndarray, side: str = "left") -> PolarFactors:
    """Polar decomposition of a square matrix via the SVD.

    With m = U s V*, the unitary factor is U V* for both sides; the PSD
    factor is V s V* (left) or U s U* (right).  Residuals are checked and
    a ValueError is raised if the factorization fails numerically.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("polar decomposition requires a square matrix")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    u, s, vh = np.linalg.svd(m)
    unitary = u @ vh
    if side == "left":
        psd = vh.conj().T @ (s[:, None] * vh)
    else:
        psd = u @ (s[:, None] * u.conj().T)

    n = m.shape[0]
    scale = max(np.linalg.norm(m), 1.0)
    resid_u = unitarity_residual(unitary)
    if side == "left":
        resid_m = np.linalg.norm(unitary @ psd - m)
    else:
        resid_m = np.linalg.norm(psd @ unitary - m)
    resid_h = np.linalg.norm(psd - psd.conj().T)
    if resid_u > 1e-10 * np.sqrt(n) or resid_m > 1e-10 * scale or resid_h > 1e-10 * scale:
        raise ValueError(
            "polar decomposition failed numerically: "
            f"residuals unitary={resid_u:.2e} reconstruct={resid_m:.2e} hermitian={resid_h:.2e}"
        )
    return PolarFactors(unitary=unitary, psd=psd, side=side)


def operator_norm_svd(m: np.ndarray) -> float:
    """Largest singular value, from the singular values of the full
    decomposition: the package's one spectral norm."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("operator_norm_svd requires a matrix")
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def unitarity_residual(m: np.ndarray) -> float:
    """Frobenius norm of m m* - I: at least its spectral norm and at most
    sqrt(n) times it, so a reported residual stays a sound upper bound."""
    m = np.asarray(m)
    gram = m @ m.conj().T
    return float(np.linalg.norm(gram - np.eye(m.shape[0])))
