"""The whole-box pair-cell table, built flat: the reference that the
package's per-factor index arithmetic (``FockTruncation.pair_cells``,
``first_cells``, ``creation_ids``, ``berezin.poisson_window``) is compared
against, bit for bit."""

import math

import numpy as np

from polyball.fock import _factor_table


def flat_pair_table(trunc, side):
    """(indptr, source, target) of every pairing's cells on ``side``: the
    product of the per-factor cells (``_factor_table``, each cell tagged
    with its factor pair id), combined with the basis strides and stably
    sorted by pair id; the pair with id p owns the cells
    indptr[p]:indptr[p + 1]."""
    pid = src = dst = np.zeros(1, dtype=np.int64)
    for ni, d, dim in zip(trunc.n, trunc.degrees, trunc.factor_dims):
        indptr, s_i, t_i = _factor_table(ni, d, side)
        p_i = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        pid = (pid[:, None] * (2 * dim - 1) + p_i).ravel()
        src = (src[:, None] * dim + s_i).ravel()
        dst = (dst[:, None] * dim + t_i).ravel()
    order = np.argsort(pid, kind="stable")
    counts = np.bincount(pid, minlength=math.prod(2 * dim - 1 for dim in trunc.factor_dims))
    return np.concatenate(([0], np.cumsum(counts))), src[order], dst[order]


def flat_pair_cells(trunc, side, pids, window=None):
    """(source, target, owner) of the pairs ``pids``, sliced from the flat
    table pair after pair, an id of -1 owning no cell; with a boolean basis
    ``window``, only the cells with source and target in it."""
    indptr, src, dst = flat_pair_table(trunc, side)
    pids = np.asarray(pids, dtype=np.int64)
    counts = np.where(pids >= 0, indptr[pids + 1] - indptr[pids], 0)
    owner = np.repeat(np.arange(len(pids)), counts)
    cells = np.arange(owner.size) + (indptr[pids] - np.cumsum(counts) + counts)[owner]
    source, target = src[cells], dst[cells]
    if window is None:
        return source, target, owner
    keep = window[source] & window[target]
    return source[keep], target[keep], owner[keep]


def flat_first_cells(trunc, side):
    """(source, target) of every pair's first cell, read off the flat table."""
    indptr, src, dst = flat_pair_table(trunc, side)
    return src[indptr[:-1]], dst[indptr[:-1]]


def flat_creation_ids(trunc, side):
    """The creation pairs (e, b): the ids whose first cell leaves the vacuum."""
    return np.flatnonzero(flat_first_cells(trunc, side)[0] == 0)


def flat_poisson_window(x, trunc, window):
    """The right Poisson kernel on a boolean basis window, from the flat
    table: every cell with both ends in the window, grouped by pair, and
    X_a X_b* at each such pair's first cell a -> b."""
    indptr, src, dst = flat_pair_table(trunc, "right")
    cells = np.flatnonzero(window[src] & window[dst])
    pids, owner = np.unique(np.searchsorted(indptr, cells, side="right") - 1, return_inverse=True)
    table = x.monomial_table(trunc)
    xm = table[src[indptr[pids]]] @ table[dst[indptr[pids]]].conj().transpose(0, 2, 1)
    place = np.cumsum(window) - 1
    size, h = int(place[-1]) + 1, x.h_dim
    out = np.zeros((size, h, size, h), dtype=complex)
    out[place[dst[cells]], :, place[src[cells]], :] = xm[owner] + 0.0
    return out.reshape(size * h, size * h)
