"""Deterministic complex dense-matrix arithmetic.

Thin, contract-enforcing layer over ``numpy.linalg``: construction and
validation of complex matrices, SVD-based numerical rank with an explicit
tolerance report, an inverse-free shifted Cholesky certificate of full rank
at that rank's cut (:func:`rank_value` asks it first and the SVD rank only
where it cannot certify), per-slot null bases of block-diagonal maps,
square/tall solving that raises on a system rank deficient at that same
cut, ``scale`` floor included (a square system certified at the cut is
solved by LU, any other by the SVD), seeded random matrix generation, and
dense block-diagonal assembly (:func:`block_diag`, which no trial calls).

Six helpers work on a stack of matrices in one numpy call, not one
Python call per matrix: :func:`random_matrix` draws a stack given leading
``batch`` dimensions, in the stream order of one draw per matrix;
:func:`full_rank_certified` certifies every matrix of a ``(t, r, c)``
stack full rank by one batched Cholesky factorization, each at its own
cut; :func:`rank_value` decides every matrix's rank by that certificate
and, where it fails, one batched SVD, at the cut of :func:`rank`;
:func:`solve_full_column_rank` solves a ``(t, r, c)`` stack by one
batched SVD; :func:`slot_null_bases` gives the per-slot ranks and null
bases of block-diagonal matrices; and :func:`times_block_diagonal`
multiplies a map by a block-diagonal matrix given by its ``(t, r, w)``
diagonal blocks.

All functions are pure; no argument is mutated in place.  Every rank is
decided at one *relative* singular-value threshold, :data:`REL_TOL`, read
at call time: generic complex-Gaussian draws put the singular-value gap
many orders of magnitude above it, so rank decisions are stable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, InvalidMatrix, InvalidShape, SingularSystem

#: Relative singular-value threshold used everywhere a rank is decided.
REL_TOL = 1e-9

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
    # one pass over both parts: the float view where the last axis is contiguous
    parts = m.view(float) if m.strides[-1] == m.itemsize else m
    if not np.isfinite(parts).all():
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


def _cut(largest, scale: float = 0.0):
    """The rank cut ``REL_TOL * max(largest, scale)``, entry by entry: a
    singular value counts toward the rank iff it exceeds it.  A NaN
    ``scale`` floors nothing, as Python's ``max`` ignores it after a
    number; an infinite one refuses every singular value."""
    return REL_TOL * np.fmax(largest, scale)


def rank(a, scale: float = 0.0) -> RankReport:
    """Numerical rank at the relative singular-value threshold :data:`REL_TOL`.

    A singular value is kept iff it exceeds ``REL_TOL * max(largest
    singular value, scale)`` (:func:`_cut`, the one cut of every rank and
    solve here); the zero matrix has rank 0.

    Parameters
    ----------
    a : array_like
        Matrix; must be finite-valued.
    scale : float
        Floor on the scale the threshold is relative to.  A matrix reduced
        from a larger one (see :func:`slot_null_bases`) passes the largest
        singular value of the part eliminated from it, so that round-off
        left by the elimination is not mistaken for rank.
    """
    s = singular_values(a)
    if s.size == 0 or s[0] == 0.0:
        return RankReport(0, 0.0, float(s[0]) if s.size else 0.0)
    value = int(np.count_nonzero(s > _cut(s[0], scale)))
    smallest_kept = float(s[value - 1]) if value else 0.0
    largest_dropped = float(s[value]) if value < s.size else 0.0
    return RankReport(value, smallest_kept, largest_dropped)


def full_rank_certified(a, scale: float = 0.0) -> bool:
    """Whether a shifted Cholesky test proves ``rank(a, scale).value ==
    min(a.shape)``, with no SVD and no inverse.

    ``G`` is the smaller Gram matrix (``a^H a`` for a tall ``r x c``
    matrix, ``a a^H`` for a wide one).  A completed Cholesky factorization
    of ``G - tau I``, ``tau = 2 (REL_TOL^2 max(||a||_F^2, scale^2) + 4 (r +
    c) u ||a||_F^2)`` with ``u`` the unit round-off, proves ``sigma_min(a)
    > REL_TOL max(sigma_max(a), scale)``, the cut of :func:`rank`: the
    ``u`` term covers the rounding of ``G`` and the factor's backward error
    (Higham 2002, ch. 10), and ``sigma_max(a) <= ||a||_F``.  False proves
    nothing, and so does a non-finite ``scale``, which leaves no cut to
    clear.  A matrix with a zero dimension has full rank 0.

    ``a`` may also be a ``(t, r, c)`` stack: one batched Gram product and
    one batched Cholesky factorization, each matrix shifted by its own
    ``tau``, and True iff every matrix passes (so True for ``t = 0``).
    """
    m = as_matrix(a, stack=True)
    r, c = m.shape[-2:]
    if m.size == 0:
        return True
    if not np.isfinite(scale):
        return False
    mh = m.conj().swapaxes(-1, -2)
    gram = mh @ m if r >= c else m @ mh
    # one matrix's norm by BLAS dot products: a third of the per-axis reduction's time
    frobenius2 = np.linalg.norm(m) ** 2 if m.ndim == 2 else np.linalg.norm(m, axis=(1, 2)) ** 2
    diagonal = np.arange(gram.shape[-1])
    gram[..., diagonal, diagonal] -= 2.0 * (
        REL_TOL**2 * np.maximum(frobenius2, scale**2) + 4 * (r + c) * UNIT_ROUNDOFF * frobenius2
    )[..., None]
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def rank_value(a, scale: float = 0.0) -> int | np.ndarray:
    """``rank(a, scale).value``, mostly without an SVD: the one full-rank
    decision of the state draw, the precoders and the rank report.

    :func:`full_rank_certified` decides every matrix it can certify, as
    ``min(a.shape)``; the others, the deficient ones and those too close to
    the cut, go to the SVD rank.  A tall ``r x c`` matrix with ``r >= 2c``
    is first certified from its top ``c x c`` block, a Gram matrix half the
    size, at ``scale = max(||a||_F, scale)``: adding rows never lowers the
    smallest singular value, and ``sigma_max(a) <= ||a||_F``, so a pass
    proves ``sigma_min(a) > REL_TOL max(sigma_max(a), scale)``.  A matrix
    whose top block fails is certified whole, then goes to :func:`rank`.

    ``a`` may also be a ``(t, r, c)`` stack: one stacked certificate, and
    only where it fails, one batched SVD, each matrix cut at ``REL_TOL
    max(sigma_max, scale)`` as :func:`rank` cuts it.  Returns an int array
    of length ``t``, entry by entry ``rank(a[s], scale).value``.
    """
    a = np.asarray(a)
    if a.ndim == 3:
        if full_rank_certified(a, scale):
            return np.full(len(a), min(a.shape[1:]))
        s = np.linalg.svd(a, compute_uv=False)
        return (s > _cut(s[:, :1], scale)).sum(axis=-1)
    if a.ndim == 2 and len(a) >= 2 * a.shape[1]:
        if full_rank_certified(a[: a.shape[1]], max(np.linalg.norm(a), scale)):
            return a.shape[1]
    if full_rank_certified(a, scale):
        return min(a.shape)
    return rank(a, scale).value


@dataclass(frozen=True)
class SlotNullBases:
    """Rank and null basis of one block-diagonal matrix, slot by slot.

    ``ranks[s]`` is slot ``s``'s rank at the cut relative to ``largest``,
    the matrix's largest singular value, so ``rank`` is the matrix's rank.
    ``basis`` is ``(t, c, w)``: slot ``s``'s null space is spanned by its
    ``c - ranks[s]`` last columns, and its first ``ranks[s] + w - c``
    columns are zero, which changes no rank they enter.  The block-diagonal
    basis is never built: a map times it is :func:`times_block_diagonal`
    of the map and ``basis``, and a block-diagonal map's product is its
    blocks times ``basis``, slot by slot.
    """

    ranks: np.ndarray
    largest: float
    basis: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.ranks.sum())


def times_block_diagonal(left: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``left`` times the block-diagonal matrix with diagonal ``blocks``,
    which is never built.

    ``blocks`` is ``(t, r, w)``: slot ``s``'s block meets the ``r`` columns
    of ``left`` from ``s * r``, so ``left`` has ``t * r`` columns.  One
    batched ``(t, rows, r) @ (t, r, w)`` product gives the new ``(rows, t *
    w)`` array, its columns slot by slot.
    """
    t, r, w = blocks.shape
    rows = left.shape[0]
    per_slot = left.reshape(rows, t, r).swapaxes(0, 1)
    return np.matmul(per_slot, blocks).swapaxes(0, 1).reshape(rows, t * w)


def slot_null_bases(blocks: np.ndarray) -> tuple[SlotNullBases, ...]:
    """Per-slot ranks and null bases of ``k`` block-diagonal matrices.

    ``blocks`` is ``(k, t, r, c)``, the ``t`` diagonal blocks of each
    matrix; one batched SVD decides them all.  Each matrix's cut is
    relative to its own largest singular value.  Every basis is ``c - min
    rank`` wide, the minimum taken over all ``k * t`` slots.  With ``t = 0``
    (an empty phase) each matrix has rank 0, largest singular value 0.0
    and a ``(0, c, 0)`` basis, so :func:`times_block_diagonal` maps any
    matrix with no columns to one with no columns.

    The null space of a block-diagonal ``G`` is block diagonal, so the rank
    identity ``rank([G; M]) = rank(G) + rank(M N)`` (Marsaglia and Styan,
    1974), with ``N`` spanning ``null(G)``, reduces a stacked matrix slot by
    slot.  ``M``'s columns must be in ``G``'s slot order, slot ``s``'s
    ``c`` together; :func:`times_block_diagonal` of ``M`` and ``basis``
    forms ``M N``, and where ``M`` is a map times a block-diagonal matrix
    with diagonal ``D``, of the map and the per-slot products ``D[s] @
    basis[s]``.  A rank cut on ``M N`` should keep ``G``'s scale: pass
    ``largest`` as ``scale`` to :func:`rank`.
    """
    if blocks.ndim != 4 or blocks.shape[0] == 0:
        raise InvalidInput(f"expected a (k, t, r, c) stack with k >= 1, got {blocks.shape}")
    c = blocks.shape[3]
    _, s, vh = np.linalg.svd(blocks)
    largest = s.max(axis=(1, 2), initial=0.0)
    ranks = (s > _cut(largest[:, None, None])).sum(axis=2)
    low = int(ranks.min(initial=c))
    basis = vh[:, :, low:].conj().swapaxes(2, 3)
    if ranks.max(initial=0) > low:  # zero the columns of a higher-rank slot that span its rows
        basis = basis * (np.arange(low, c) >= ranks[..., None])[:, :, None, :]
    return tuple(SlotNullBases(ranks[i], float(largest[i]), basis[i]) for i in range(len(blocks)))


def solve_square(a, b, scale: float = 0.0) -> np.ndarray:
    """Solve the square system ``a @ x = b``, by LU where the cut allows it.

    Shapes are checked first.  Then :func:`full_rank_certified` is asked
    whether ``sigma_min(a) > REL_TOL max(sigma_max(a), scale)``, the pass
    condition of :func:`solve_full_column_rank`'s SVD: on a pass the system
    is solved by LU (``numpy.linalg.solve``), otherwise by that SVD, which
    raises on a deficient system.  A pass proves the SVD would not raise,
    so both routes refuse exactly the same systems, those below the cut of
    ``rank(a, scale)``.  The empty system has the empty solution.

    Parameters
    ----------
    a : array_like
        Square matrix.
    b : array_like
        Right-hand side; a vector or a matrix of stacked right-hand sides.
    scale : float
        Floor on the scale the cut is relative to, as in :func:`rank`.

    Raises
    ------
    InvalidShape
        If ``a`` is not square or ``b``'s length does not match.
    SingularSystem
        If ``a`` is numerically rank deficient at that cut.
    """
    m = as_matrix(a)
    rhs = np.asarray(b, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise InvalidShape(f"matrix is {m.shape}, not square")
    if rhs.ndim not in (1, 2) or rhs.shape[0] != m.shape[0]:
        raise InvalidShape(f"rhs of shape {rhs.shape} does not match system {m.shape}")
    if full_rank_certified(m, scale):
        return np.linalg.solve(m, rhs)
    return solve_full_column_rank(m, rhs, scale)


def solve_full_column_rank(a, b, scale: float = 0.0) -> np.ndarray:
    """Least-squares solve of a (possibly tall) full-column-rank system.

    On a consistent system this recovers the exact solution; the caller is
    responsible for checking the residual where consistency is part of the
    contract.

    ``a`` is one ``(r, c)`` matrix or a ``(t, r, c)`` stack of them, solved
    by one batched SVD; ``b`` is a vector or a matrix of stacked right-hand
    sides per matrix, ``(..., r)`` or ``(..., r, k)``.  Each matrix's
    solution is bit for bit that of solving it alone, and a stack is
    deficient when any of its matrices is.  A system that passes has
    condition number below ``1 / REL_TOL``: the rank cut is the only guard.

    Raises
    ------
    SingularSystem
        If ``a`` (any matrix of a stack) is column-rank deficient at the cut
        of :func:`rank` with ``scale``, the floor on each matrix's scale.
        For one matrix it carries the rank that SVD decided, ``rank``.
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
    floor = _cut(s[..., :1], scale)
    if s.size == 0 or np.any(s[..., -1:] <= floor):
        exc = SingularSystem(f"system {m.shape} is column-rank deficient")
        if m.ndim == 2:
            exc.rank = int(np.count_nonzero(s > floor))
        raise exc
    if vector:
        rhs = rhs[..., None]
    x = vh.conj().swapaxes(-1, -2) @ ((u.conj().swapaxes(-1, -2) @ rhs) / s[..., None])
    return x[..., 0] if vector else x


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

    The parts are scaled into the real and imaginary views of one complex
    array, with no complex temporary.  Dividing a complex array by
    ``sqrt(2)`` multiplies both parts by ``fl(1/sqrt(2))``, so this is
    ``(z0 + 1j z1) / sqrt(2)`` bit for bit.
    """
    if rows < 0 or cols < 0 or min(batch, default=0) < 0:
        raise InvalidInput(f"dimensions must be >= 0, got {batch + (rows, cols)}")
    z = rng.standard_normal(batch + (2, rows, cols))
    out = np.empty(batch + (rows, cols), dtype=complex)
    np.multiply(z[..., 0, :, :], 1 / 2.0**0.5, out=out.real)
    np.multiply(z[..., 1, :, :], 1 / 2.0**0.5, out=out.imag)
    return out


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
