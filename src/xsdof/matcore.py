"""Deterministic complex dense-matrix arithmetic.

Thin, contract-enforcing layer over ``numpy.linalg``: construction and
validation of complex matrices, SVD-based numerical rank with an explicit
tolerance report, a Cholesky full-rank certificate that falls back to that
rank, per-slot null bases of block-diagonal maps, QR
factorization, square/tall solving with a condition estimate, seeded random
matrix generation, and dense block-diagonal assembly (:func:`block_diag`,
which no trial calls).

Four helpers work on a stack of matrices in one numpy call, not one
Python call per matrix: :func:`random_matrix` draws a stack given leading
``batch`` dimensions, in the stream order of one draw per matrix;
:func:`batch_rank` decides every matrix's rank by one batched SVD, at the
cut of :func:`rank`; :func:`solve_full_column_rank` solves a ``(t, r, c)``
stack by one batched SVD; and :func:`slot_null_bases` gives the per-slot
ranks and null bases of block-diagonal matrices.

All functions are pure; arrays are never mutated in place.  Numerical rank
uses a *relative* singular-value threshold (default ``1e-9``): generic
complex-Gaussian draws put the singular-value gap many orders of magnitude
above it, so rank decisions are stable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditioned,
    InvalidInput,
    InvalidMatrix,
    InvalidShape,
    SingularSystem,
)

#: Relative singular-value threshold used everywhere a rank is decided.
DEFAULT_REL_TOL = 1e-9

#: Solves whose condition estimate exceeds this are flagged for resampling.
CONDITION_LIMIT = 1e12

#: Unit round-off of double-precision arithmetic.
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def substream(seed: int, *path) -> np.random.Generator:
    """Return an independent, reproducible random stream.

    Streams are derived from ``(seed, path)`` through a spawn-key hierarchy,
    so the stream for one trial never depends on how many draws another
    trial consumed.  Path elements may be ints or short strings.

    Parameters
    ----------
    seed : int
        Root seed.
    *path
        Hierarchical stream coordinates, e.g. ``("trial", 17, "states")``.
    """
    key = tuple(
        int(p) & 0xFFFFFFFF if isinstance(p, (int, np.integer)) else zlib.crc32(str(p).encode())
        for p in path
    )
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


def as_matrix(a, stack: bool = False) -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D complex array; with
    ``stack``, a finite ``(t, rows, cols)`` stack of them is accepted too."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        raise InvalidMatrix(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise InvalidMatrix("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of a matrix plus the singular values that decided it.

    ``smallest_kept_singular_value`` > ``largest_dropped_singular_value``
    whenever the rank is strictly between 0 and ``min(rows, cols)``; the gap
    between them is the evidence that the rank decision is not a tolerance
    accident.
    """

    value: int
    smallest_kept_singular_value: float
    largest_dropped_singular_value: float


def singular_values(a) -> np.ndarray:
    """Singular values of ``a`` in non-increasing order."""
    m = as_matrix(a)
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def rank(a, rel_tol: float = DEFAULT_REL_TOL, scale: float = 0.0) -> RankReport:
    """Numerical rank at a relative singular-value threshold.

    A singular value is kept iff it exceeds ``rel_tol * max(largest
    singular value, scale)``; the zero matrix has rank 0.

    Parameters
    ----------
    a : array_like
        Matrix; must be finite-valued.
    rel_tol : float
        Relative threshold in (0, 1).
    scale : float
        Floor on the scale the threshold is relative to.  A matrix reduced
        from a larger one (see :func:`slot_null_bases`) passes the largest
        singular value of the part eliminated from it, so that round-off
        left by the elimination is not mistaken for rank.
    """
    if not (0.0 < rel_tol < 1.0):
        raise InvalidInput(f"rel_tol must be in (0, 1), got {rel_tol}")
    s = singular_values(a)
    if s.size == 0 or s[0] == 0.0:
        return RankReport(0, 0.0, float(s[0]) if s.size else 0.0)
    cut = rel_tol * max(float(s[0]), scale)
    kept = s > cut
    value = int(np.count_nonzero(kept))
    smallest_kept = float(s[value - 1]) if value else 0.0
    largest_dropped = float(s[value]) if value < s.size else 0.0
    return RankReport(value, smallest_kept, largest_dropped)


def rank_value(a, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Shorthand for ``rank(a, rel_tol).value``."""
    return rank(a, rel_tol).value


def has_full_rank(a, rel_tol: float = DEFAULT_REL_TOL) -> bool:
    """Whether ``rank(a, rel_tol).value == min(a.shape)``, mostly without an SVD.

    A Cholesky factor ``L`` of the smaller Gram matrix (``a^H a`` for a tall
    ``r x c`` matrix, ``a a^H`` for a wide one) certifies full rank when
    ``1/||L^-1||_F^2 > 2 (rel_tol^2 + 4 (r + c) u) ||a||_F^2``, ``u`` the
    unit round-off.  ``1/||L^-1||_F^2`` bounds the Gram matrix's smallest
    eigenvalue, ``sigma_min(a)^2``, from below; the ``(r + c) u`` term
    covers the rounding of the Gram product and of the factor (Higham 2002,
    Thm 10.3); and ``sigma_max(a) <= ||a||_F``.  So a pass proves that
    :func:`rank`'s cut keeps every singular value.  A factorization that
    fails, or a bound that does not hold, leaves the decision to
    :func:`rank`.  A matrix with a zero dimension has full rank 0.
    """
    if not (0.0 < rel_tol < 1.0):
        raise InvalidInput(f"rel_tol must be in (0, 1), got {rel_tol}")
    m = as_matrix(a)
    r, c = m.shape
    if min(r, c) == 0:
        return True
    gram = m.conj().T @ m if r >= c else m @ m.conj().T
    bound = 2.0 * (rel_tol**2 + 4 * (r + c) * UNIT_ROUNDOFF) * np.linalg.norm(m) ** 2
    try:
        if 1.0 / np.linalg.norm(np.linalg.inv(np.linalg.cholesky(gram))) ** 2 > bound:
            return True
    except np.linalg.LinAlgError:
        pass
    return rank(m, rel_tol).value == min(r, c)


def batch_rank(stack: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Numerical rank of every matrix of a ``(..., rows, cols)`` stack.

    One batched SVD; each matrix is cut as :func:`rank` cuts it, at
    ``rel_tol`` times its own largest singular value, and a zero matrix has
    rank 0.  Returns an integer array of shape ``stack.shape[:-2]``, equal
    entry by entry to ``rank(matrix, rel_tol).value``.
    """
    if not (0.0 < rel_tol < 1.0):
        raise InvalidInput(f"rel_tol must be in (0, 1), got {rel_tol}")
    s = np.linalg.svd(stack, compute_uv=False)
    return (s > rel_tol * s.max(axis=-1, initial=0.0, keepdims=True)).sum(axis=-1)


@dataclass(frozen=True)
class SlotNullBases:
    """Rank and null basis of one block-diagonal matrix, slot by slot.

    ``ranks[s]`` is slot ``s``'s rank at the cut relative to ``largest``,
    the matrix's largest singular value, so ``rank`` is the matrix's rank.
    ``basis`` is ``(t, c, w)``: slot ``s``'s null space is spanned by its
    ``c - ranks[s]`` last columns, and its first ``ranks[s] + w - c``
    columns are zero, which changes no rank they enter.
    """

    ranks: np.ndarray
    largest: float
    basis: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.ranks.sum())

    def apply(self, lifted: np.ndarray) -> np.ndarray:
        """``lifted`` times the block-diagonal null basis, never built.

        ``lifted``'s columns are in lift order, ``[x1 stack | x2 stack]``
        (see ``channel.lift_rows``): the first half of each slot block's
        columns meets the first stack.  Returns a new ``(rows, t * w)``
        array, slot by slot.
        """
        t, c, w = self.basis.shape
        rows = lifted.shape[0]
        per_slot = lifted.reshape(rows, 2, t, c // 2).transpose(2, 0, 1, 3).reshape(t, rows, c)
        return np.matmul(per_slot, self.basis).transpose(1, 0, 2).reshape(rows, t * w)

    def apply_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """The block-diagonal matrix with diagonal ``blocks`` times the
        null basis, neither built.

        ``blocks`` is ``(t, r, c)``, each block's columns in the basis's
        order (``channel.diagonal_blocks`` gives a lift's).  The product is
        block diagonal too: one batched product gives its ``(t, r, w)``
        blocks, scattered here onto the diagonal of a new ``(t * r, t * w)``
        array.
        """
        t, _, w = self.basis.shape
        r = blocks.shape[1]
        out = np.zeros((t, r, t, w), dtype=complex)
        diag = np.arange(t)
        out[diag, :, diag] = np.matmul(blocks, self.basis)
        return out.reshape(t * r, t * w)


def slot_null_bases(
    blocks: np.ndarray, rel_tol: float = DEFAULT_REL_TOL
) -> tuple[SlotNullBases, ...]:
    """Per-slot ranks and null bases of ``k`` block-diagonal matrices.

    ``blocks`` is ``(k, t, r, c)``, the ``t`` diagonal blocks of each
    matrix; one batched SVD decides them all.  Each matrix's cut is
    relative to its own largest singular value.  Every basis is ``c - min
    rank`` wide, the minimum taken over all ``k * t`` slots.  With ``t = 0``
    (an empty phase) each matrix has rank 0, largest singular value 0.0
    and a ``(0, c, 0)`` basis, so :meth:`SlotNullBases.apply` maps any
    lifted matrix with no columns to one with no columns.

    The null space of a block-diagonal ``G`` is block diagonal, so the rank
    identity ``rank([G; M]) = rank(G) + rank(M N)`` (Marsaglia and Styan,
    1974), with ``N`` spanning ``null(G)``, reduces a stacked matrix slot by
    slot; :meth:`SlotNullBases.apply` forms ``M N``, and
    :meth:`SlotNullBases.apply_blocks` forms it from the diagonal blocks of
    an ``M`` that is block diagonal too.  A rank cut on ``M N`` should keep
    ``G``'s scale: pass ``largest`` as ``scale`` to :func:`rank`.
    """
    if not (0.0 < rel_tol < 1.0):
        raise InvalidInput(f"rel_tol must be in (0, 1), got {rel_tol}")
    if blocks.ndim != 4 or blocks.shape[0] == 0:
        raise InvalidInput(f"expected a (k, t, r, c) stack with k >= 1, got {blocks.shape}")
    c = blocks.shape[3]
    _, s, vh = np.linalg.svd(blocks)
    largest = s.max(axis=(1, 2), initial=0.0)
    ranks = (s > rel_tol * largest[:, None, None]).sum(axis=2)
    low = int(ranks.min(initial=c))
    basis = vh[:, :, low:].conj().swapaxes(2, 3)
    if ranks.max(initial=0) > low:  # zero the columns of a higher-rank slot that span its rows
        basis = basis * (np.arange(low, c) >= ranks[..., None])[:, :, None, :]
    return tuple(SlotNullBases(ranks[i], float(largest[i]), basis[i]) for i in range(len(blocks)))


def qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR factorization ``a = q @ r``.

    ``q`` has orthonormal columns spanning ``a``'s column space when ``a``
    has full column rank; ``r`` is upper triangular with ``a``'s singular
    values, so ``rank(r)`` is ``a``'s rank.
    """
    return np.linalg.qr(as_matrix(a))


@dataclass(frozen=True)
class SolveReport:
    """Solution of a linear system together with its condition estimate."""

    x: np.ndarray
    condition: float


def solve_square(
    a,
    b,
    rel_tol: float = DEFAULT_REL_TOL,
    condition_limit: float | None = None,
) -> SolveReport:
    """Solve the square system ``a @ x = b`` via SVD.

    The square case of :func:`solve_full_column_rank`, plus the empty system.

    Parameters
    ----------
    a : array_like
        Square matrix.
    b : array_like
        Right-hand side; a vector or a matrix of stacked right-hand sides.
    rel_tol : float
        Rank tolerance below which the system counts as singular.
    condition_limit : float, optional
        When given, raise :class:`IllConditioned` if the condition estimate
        exceeds it.  Trials catching this are expected to resample (the
        almost-sure full-rank statements permit discarding a null set).

    Raises
    ------
    InvalidShape
        If ``a`` is not square or ``b``'s length does not match.
    SingularSystem
        If ``a`` is numerically rank deficient at ``rel_tol``.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InvalidShape(f"matrix is {m.shape}, not square")
    if m.size == 0 and np.shape(b)[0] == 0:
        return SolveReport(np.array(b, dtype=complex), 1.0)
    return solve_full_column_rank(m, b, rel_tol, condition_limit)


def solve_full_column_rank(
    a,
    b,
    rel_tol: float = DEFAULT_REL_TOL,
    condition_limit: float | None = None,
) -> SolveReport:
    """Least-squares solve of a (possibly tall) full-column-rank system.

    On a consistent system this recovers the exact solution; the caller is
    responsible for checking the residual where consistency is part of the
    contract.

    ``a`` is one ``(r, c)`` matrix or a ``(t, r, c)`` stack of them, solved
    by one batched SVD; ``b`` is a vector or a matrix of stacked right-hand
    sides per matrix, ``(..., r)`` or ``(..., r, k)``.  Each matrix's
    solution is bit for bit that of solving it alone.  A stack is deficient
    when any of its matrices is, and its condition estimate is the largest
    of theirs.

    Raises
    ------
    SingularSystem
        If ``a`` (any matrix of a stack) is column-rank deficient at
        ``rel_tol``.
    InvalidShape
        On dimension mismatch or an underdetermined (wide) system.
    """
    m = as_matrix(a, stack=True)
    rhs = np.asarray(b, dtype=complex)
    if m.shape[-2] < m.shape[-1]:
        raise InvalidShape(f"system {m.shape} has fewer equations than unknowns")
    vector = rhs.ndim == m.ndim - 1
    if rhs.shape[: m.ndim - 1] != m.shape[:-1] or rhs.ndim not in (m.ndim - 1, m.ndim):
        raise InvalidShape(f"rhs of shape {rhs.shape} does not match system {m.shape}")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or np.any(s[..., -1] <= rel_tol * s[..., 0]):
        raise SingularSystem(f"system {m.shape} is column-rank deficient")
    condition = float(np.max(s[..., 0] / s[..., -1]))
    if condition_limit is not None and condition > condition_limit:
        raise IllConditioned(f"condition estimate {condition:.3e} exceeds {condition_limit:.1e}")
    if vector:
        rhs = rhs[..., None]
    x = vh.conj().swapaxes(-1, -2) @ ((u.conj().swapaxes(-1, -2) @ rhs) / s[..., None])
    return SolveReport(x[..., 0] if vector else x, condition)


def random_matrix(
    rows: int, cols: int, rng: np.random.Generator, batch: tuple[int, ...] = ()
) -> np.ndarray:
    """Draw a matrix with i.i.d. standard circularly-symmetric Gaussian entries.

    Entries have unit variance (real and imaginary parts each of variance
    1/2), so every submatrix is full rank almost surely.  The draw consumes
    the stream deterministically: a fixed seed and draw order reproduce the
    matrix bit for bit.  A matrix with a zero dimension is empty and draws
    nothing from the stream.

    ``batch`` gives leading dimensions: the result is a ``batch + (rows,
    cols)`` stack drawn by one call, matrix by matrix in C order, each as
    its real part then its imaginary part.  That is the stream order of one
    unbatched call per matrix, so the stack equals those matrices bit for
    bit.
    """
    if rows < 0 or cols < 0 or min(batch, default=0) < 0:
        raise InvalidInput(f"dimensions must be >= 0, got {batch + (rows, cols)}")
    z = rng.standard_normal(batch + (2, rows, cols))
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)


def random_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Length-``dim`` vector of i.i.d. standard complex Gaussian scalars."""
    return random_matrix(dim, 1, rng)[:, 0]


def block_diag(blocks) -> np.ndarray:
    """Block-diagonal matrix with the given blocks on the diagonal.

    Off-block entries are exactly zero, so the rank of the result is the
    sum of the block ranks.
    """
    blocks = [as_matrix(b) for b in blocks]
    if not blocks:
        raise InvalidInput("block_diag requires at least one block")
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out
