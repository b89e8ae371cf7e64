"""Power-flow residuals, analytic derivatives, and the regularized Hessian.

For every core (non-copy) bus i the balance equations in polar coordinates
give two residual rows,

    r_p,i = p_i - v_i * sum_k v_k * (G_ik cos th_ik + B_ik sin th_ik)
    r_q,i = q_i - v_i * sum_k v_k * (G_ik sin th_ik - B_ik cos th_ik)

with th_ik = th_i - th_k.  Rows are ordered bus-ascending, p row before q
row.  Copy buses contribute no rows.

Every derivative comes from one rule.  Each admittance nonzero (i, k) on a
core row, the diagonal included, is one term of each sum above, a function
of (th_i, th_k, v_i, v_k).  The Jacobian adds minus each term's gradient
into bus i's two rows; the diagnostic Q (:func:`q_term`) adds minus its
4x4 curvature weighted by those rows' residuals.  For k = i the columns
coincide and the sums are the derivatives of v_i**2 G_ii and -v_i**2 B_ii
(MATPOWER Technical Note 2 sums the same per-branch structure).

The evaluation reads only these terms: the Jacobian's pattern keeps each
one's (i, k, G_ik, B_ik) as arrays, and a copy bus, with no residual rows,
adds none.  Each term's c = G cos + B sin, d = G sin - B cos, v_i v_k c,
v_i v_k d, v_i and v_k are formed in place, and the eight blocks of term
derivatives are written with ufunc ``out=`` into one preallocated
listing, so an evaluation holds about fourteen arrays of the terms'
length at its peak; J'J's pair products are multiplied in place.

Assembly runs on index maps that a :class:`~hdpf.network.NetworkUnion`
builds once for all its networks (see :mod:`hdpf.network`): one
``np.bincount`` adds the term derivatives into the Jacobian's fixed CSR
pattern, and :func:`linearize` forms ``g = J'r`` and ``B = J'J + eps*I``
with one more each.  B has one form for every network: its values on the
network's fixed :class:`~hdpf.network.GramPattern`, a 1-D array never
wrapped in a matrix, so a region's B costs its nonzeros, not n_free^2.  Q
takes the same form, when asked for, from the same evaluation: one more
bincount into B's pattern, which holds all of Q's entries; the public
:func:`q_term` scatters those values dense, as an oracle.  A bincount adds in input order, and the maps
list each entry's products in ascending Jacobian row, the order a sparse
``J.T @ J`` and ``J.T @ r`` use, so :func:`linearize` equals ``J.T @ J``
plus ``eps`` on the diagonal and ``J.T @ r``, with ``J = jacobian(net,
s)``, bit for bit, at every entry of the pattern.

The solvers evaluate all regions in one call, :func:`linearize_regions`,
at one state of the regions' union that the problem's analysis built
(:meth:`hdpf.partition.PartitionedProblem.analyze`), diagnosed or not,
with the same bits as each region evaluated alone by :func:`linearize`,
that call over the network's union of one, ``net.union``.

Every function here is a pure evaluation over networks and states; the
only state a network or a union gains is index maps, built on first use
and never changed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .network import GramPattern, ModelError, NetworkModel, NetworkUnion, StateVector

__all__ = ["RegionLinearization", "residual", "jacobian", "q_term", "linearize",
           "linearize_regions"]


@dataclass
class RegionLinearization:
    """Residual, Jacobian and derived quantities at one iterate."""

    r: np.ndarray           # (2*n_core,)
    jac: sp.csr_matrix | None  # (2*n_core, n_free); None from linearize, which builds no
                            # matrix, and from the central reference, which drops its J
    g: np.ndarray           # (n_free,)  gradient J^T r of f = 0.5*||r||^2
    hess: np.ndarray | sp.csc_matrix | None  # J^T J + eps*I, (nnz,) values on `pattern` (a 2-D
                            # one, with no pattern, on the full one; the central reference's
                            # whole CSC B); None once consensus_step condensed it or
                            # the reference factored it
    eps: float
    q: np.ndarray | None = None  # (nnz,) q_term's values on `pattern`, from the same pass;
                            # None unless asked for (a diagnosed solve), and once the
                            # step's exact-Hessian system has summed it
    pattern: GramPattern | None = None  # the network's B pattern in its union's grams


def _checked_table(net, s: StateVector) -> np.ndarray:
    """The state table of ``s``, after checking that it fits ``net``, a
    network or a union, with every entry finite and every magnitude
    positive; a union of several networks names a bad state's region."""
    x = s.x
    if x.shape != (4, net.n_bus):
        raise ValueError("state is dimensioned for a different network")
    for what, bad in (("non-finite state", ~np.isfinite(x).all(axis=0)),
                      ("non-positive voltage magnitude", x[1] <= 0.0)):
        if bad.any():
            pos, prefix = np.flatnonzero(bad), ""
            if len(getattr(net, "nets", ())) > 1:
                starts = net.bounds[:, 4]
                k = int(np.searchsorted(starts, pos[0], side="right")) - 1
                pos = pos[pos < starts[k + 1]] - starts[k]
                prefix = f"region {k}: "
            raise ModelError(f"{prefix}{what} at bus position(s) {pos.tolist()}")
    return x


def _flow_terms(net, x: np.ndarray):
    """Each term's c = G cos + B sin, d = G sin - B cos, t_c = v_i v_k c,
    t_d = v_i v_k d, v_i and v_k, and the per-bus computed injections, of
    the state table ``x`` of ``net``, a network or a :class:`NetworkUnion`;
    a copy bus has no terms, and no computed injection is read there."""
    pat = net.jac_pattern
    theta, vm = x[0], x[1]
    vi, vk = vm[pat.i], vm[pat.k]
    cos = theta[pat.i]
    cos -= theta[pat.k]
    sin = np.sin(cos)
    np.cos(cos, out=cos)
    c, d = pat.g * cos, pat.g * sin
    c += np.multiply(pat.b, sin, out=sin)
    d -= np.multiply(pat.b, cos, out=cos)
    # v_i v_k into the spent cos and sin
    tc = np.multiply(vi, vk, out=cos)
    tc *= c
    td = np.multiply(vi, vk, out=sin)
    td *= d
    p_calc = np.bincount(pat.i, weights=tc, minlength=net.n_bus)
    q_calc = np.bincount(pat.i, weights=td, minlength=net.n_bus)
    return c, d, tc, td, vi, vk, p_calc, q_calc


def residual(net: NetworkModel, s: StateVector) -> np.ndarray:
    """Residual vector over core buses, rows (p_1, q_1, p_2, q_2, ...)."""
    x = _checked_table(net, s)
    return _residual(net, x, _flow_terms(net, x))


def _residual(net, x: np.ndarray, terms) -> np.ndarray:
    p_calc, q_calc = terms[-2:]
    core = net.core_idx
    r = np.empty(2 * net.n_core)
    r[0::2] = x[2, core] - p_calc[core]
    r[1::2] = x[3, core] - q_calc[core]
    return r


def jacobian(net: NetworkModel, s: StateVector) -> sp.csr_matrix:
    """Analytic Jacobian of the residual w.r.t. the free state entries."""
    return _residual_and_jacobian(net, s)[1]


def _residual_and_jacobian(net: NetworkModel, s: StateVector) -> tuple[np.ndarray, sp.csr_matrix]:
    """:func:`residual` and :func:`jacobian` from one state check and one
    evaluation of the flow terms."""
    x = _checked_table(net, s)
    terms = _flow_terms(net, x)
    pat = net.jac_pattern
    return _residual(net, x, terms), sp.csr_matrix(
        (_jacobian_values(net, terms), pat.indices, pat.indptr),
        shape=(2 * net.n_core, net.n_free))


def _jacobian_values(net, terms) -> np.ndarray:
    """The Jacobian's nonzeros in the CSR order of ``net.jac_pattern``: minus
    each term's gradient, listed as the pattern's ``slot`` expects, and +1
    for the injection entries."""
    c, d, tc, td, vi, vk, _, _ = terms
    n = len(c)
    listing = np.empty(8 * n + 2 * net.n_core)
    blocks = listing[:8 * n].reshape(8, n)
    # -grad of v_i v_k c, then of v_i v_k d, over (theta_i, theta_k, v_i, v_k)
    blocks[0], blocks[5] = td, tc
    np.negative(td, out=blocks[1])
    np.negative(tc, out=blocks[4])
    for j, a, b in ((2, vk, c), (3, vi, c), (6, vk, d), (7, vi, d)):
        np.negative(np.multiply(a, b, out=blocks[j]), out=blocks[j])
    listing[8 * n:] = 1.0
    pat = net.jac_pattern
    return np.bincount(pat.slot, weights=listing, minlength=len(pat.indices) + 1)[:-1]


def q_term(net: NetworkModel, s: StateVector) -> np.ndarray:
    """Second-order residual correction sum_m r_m * hess(r_m), dense: the
    oracle of the diagnostics (the gap between the regularized Gauss-Newton
    matrix and the true Hessian of f), which read only its values on B's
    pattern, from :func:`linearize`.  The injection entries add nothing."""
    gram = net.union.grams[0][1]
    q = np.zeros((net.n_free, net.n_free))
    # Q does not depend on eps, so any valid one serves
    q[gram.indices, gram.cols] = linearize(net, s, 1.0, q=True).q
    return q


def linearize(net: NetworkModel, s: StateVector, eps: float,
              q: bool = False) -> RegionLinearization:
    """Evaluate residual, gradient and regularized Hessian at s, and with
    ``q`` the diagnostic Q: :func:`linearize_regions` over the network's
    union of one, ``net.union``."""
    return linearize_regions(net.union, s, eps, q)[0]


def linearize_regions(union: NetworkUnion, state: StateVector, eps: float,
                      q: bool = False) -> list[RegionLinearization]:
    """Evaluate residual, gradient and regularized Hessian of every network
    of ``union`` at the union's ``state`` (for a union of one, its
    network's), in order; with ``q``, also each network's :func:`q_term`.

    The flow terms, the residual, the Jacobian's values and ``g = J'r``
    come from one pass over the union, whose Jacobian is block diagonal, so
    each network's r, g and Jacobian values are a slice of the union's.
    The values are filled into the fixed pattern and never wrapped in a
    sparse matrix: ``g`` is one bincount over the columns, and each
    network's ``B = J'J + eps*I`` one bincount over its pairs from its own
    slice, into the values of its Gram pattern, both from ``union.grams``.
    Q's curvature weights come from the same pass, each network's Q one
    bincount over its ``union.q_slots`` from its own slice of the terms.
    Every sum adds in ascending row order, so they equal the sparse
    ``J.T @ r`` and ``J.T @ J + eps*I`` bit for bit, and every value equals
    that of the network evaluated alone.  ``eps`` must be positive and
    finite.  A bad state raises :class:`ModelError`, naming its region when
    the union has several networks.
    """
    if not 0.0 < eps < math.inf:  # NaN fails too
        raise ValueError(f"regularization must be positive and finite, got {eps}")
    x = _checked_table(union, state)
    terms = _flow_terms(union, x)
    r = _residual(union, x, terms)
    vals = _jacobian_values(union, terms)
    weights = _curvature_weights(union, r, terms) if q else None
    del terms  # every network's at once; free them before the B's are formed
    pat = union.jac_pattern
    jr = r[pat.rows]
    jr *= vals
    g = np.bincount(pat.indices, weights=jr, minlength=union.n_free)
    del jr
    lins = []
    for (rows, free, nnz, terms, _), (pairs, gram), slots in zip(
            union.slices, union.grams, union.q_slots if q else itertools.repeat(None)):
        lins.append(RegionLinearization(
            r=r[rows], jac=None, g=g[free], hess=_gram(pairs, gram, vals[nnz], eps), eps=eps,
            pattern=gram, q=_curvature(slots, gram, *(w[terms] for w in weights)) if q else None))
    return lins


def _curvature_weights(net, r: np.ndarray, terms):
    """The curvature weights (a, v_k b, v_i b, e) of each term of ``net``, a
    network or a :class:`NetworkUnion`, from its flow terms and residual
    ``r``.

    Over (theta_i, theta_k, v_i, v_k), w_p hess(v_i v_k c) + w_q hess(v_i v_k d),
    with w_p and w_q the residuals of the term's rows, has the angle block
    [[-a, a], [a, -a]], the angle-magnitude block [[-v_k b, -v_i b],
    [v_k b, v_i b]] and the magnitude block [[0, e], [e, 0]].
    """
    c, d, tc, td, vi, vk, _, _ = terms
    term_row = net.row_of_bus[net.jac_pattern.i]
    w_p, w_q = r[term_row], r[term_row + 1]
    b = w_p * d - w_q * c
    return w_p * tc + w_q * td, vk * b, vi * b, w_p * c + w_q * d


def _curvature(slots: np.ndarray, gram: GramPattern, a, kb, ib, e) -> np.ndarray:
    """Q's values on a network's B pattern ``gram`` from the curvature
    weights of its terms: minus each term's 4x4 block, listed row by row as
    the network's curvature slots expect, added once into the pattern."""
    zero = np.zeros(len(a))
    vals = np.concatenate([a, -a, kb, ib,
                           -a, a, -kb, -ib,
                           kb, -kb, zero, -e,
                           ib, -ib, -e, zero])
    # the spare last bin collects the entries on fixed columns
    return np.bincount(slots, weights=vals, minlength=len(gram.indices) + 1)[:-1]


def _gram(pairs, gram: GramPattern, vals: np.ndarray, eps: float) -> np.ndarray:
    """B = J'J + eps*I's values on a network's B pattern ``gram`` from its
    pairs and Jacobian values, one network's products at a time."""
    a, b = pairs
    products = vals[a]
    products *= vals[b]
    data = np.bincount(gram.slot, weights=products, minlength=len(gram.indices))
    data[gram.diag] += eps
    return data
