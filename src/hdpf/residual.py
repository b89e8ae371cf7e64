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
into bus i's two rows; :func:`q_term`, for diagnostics only, adds minus its
4x4 curvature weighted by those rows' residuals.  For k = i the columns
coincide and the sums are the derivatives of v_i**2 G_ii and -v_i**2 B_ii
(MATPOWER Technical Note 2 sums the same per-branch structure).

Assembly runs on index maps the network computes once (see
:mod:`hdpf.network`): one ``np.bincount`` adds the term derivatives into
the Jacobian's fixed CSR pattern, :func:`linearize` forms ``g = J'r`` and
the dense ``J'J + eps*I`` with one more each, building no sparse matrix,
and :func:`q_term` adds its blocks with one more.  A bincount adds in
input order, and the maps list each entry's products in ascending
Jacobian row, the order a sparse ``J.T @ J`` and ``J.T @ r`` use, so
:func:`linearize` equals ``(J.T @ J).toarray()`` plus ``eps`` on the
diagonal and ``J.T @ r``, with ``J = jacobian(net, s)``, bit for bit.

Every function here is a pure evaluation over a network and a state; the
only state a network gains is its index maps, built on first use and
never changed, so regions can be linearized concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .network import ModelError, NetworkModel, StateVector

__all__ = ["RegionLinearization", "residual", "jacobian", "q_term", "linearize"]


@dataclass
class RegionLinearization:
    """Residual, Jacobian and derived quantities at one iterate."""

    r: np.ndarray           # (2*n_core,)
    jac: sp.csr_matrix | None  # (2*n_core, n_free); None from linearize, which builds no matrix
    g: np.ndarray           # (n_free,)  gradient J^T r of f = 0.5*||r||^2
    hess: np.ndarray        # (n_free, n_free) J^T J + eps*I: dense from linearize,
                            # CSC from the central reference's _sparse_linearize
    eps: float
    q: np.ndarray | None = None  # (n_free, n_free) q_term at the iterate, when diagnosed


def _check_state(net: NetworkModel, s: StateVector):
    if s.x.shape != (4, net.n_bus):
        raise ValueError("state is dimensioned for a different network")
    finite = np.isfinite(s.x).all(axis=0)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise ModelError(f"non-finite state at bus position(s) {bad.tolist()}")
    if np.any(s.vm <= 0.0):
        bad = np.flatnonzero(s.vm <= 0.0)
        raise ModelError(f"non-positive voltage magnitude at bus position(s) {bad.tolist()}")


def _flow_terms(net: NetworkModel, s: StateVector):
    """Check the state, then return the per-nonzero trig terms and the
    per-bus computed injections."""
    _check_state(net, s)
    i, k = net.y_row, net.y_col
    dth = s.theta[i] - s.theta[k]
    cos, sin = np.cos(dth), np.sin(dth)
    c = net.g_val * cos + net.b_val * sin     # G cos + B sin
    d = net.g_val * sin - net.b_val * cos     # G sin - B cos
    vv = s.vm[i] * s.vm[k]
    tc = vv * c
    td = vv * d
    p_calc = np.bincount(i, weights=tc, minlength=net.n_bus)
    q_calc = np.bincount(i, weights=td, minlength=net.n_bus)
    return c, d, tc, td, p_calc, q_calc


def residual(net: NetworkModel, s: StateVector) -> np.ndarray:
    """Residual vector over core buses, rows (p_1, q_1, p_2, q_2, ...)."""
    return _residual(net, s, _flow_terms(net, s))


def _residual(net: NetworkModel, s: StateVector, terms) -> np.ndarray:
    _, _, _, _, p_calc, q_calc = terms
    core = net.core_idx
    r = np.empty(2 * net.n_core)
    r[0::2] = s.p[core] - p_calc[core]
    r[1::2] = s.q[core] - q_calc[core]
    return r


def jacobian(net: NetworkModel, s: StateVector) -> sp.csr_matrix:
    """Analytic Jacobian of the residual w.r.t. the free state entries."""
    return _jacobian(net, s, _flow_terms(net, s))


def _residual_and_jacobian(net: NetworkModel, s: StateVector) -> tuple[np.ndarray, sp.csr_matrix]:
    """:func:`residual` and :func:`jacobian` from one state check and one
    evaluation of the flow terms."""
    terms = _flow_terms(net, s)
    return _residual(net, s, terms), _jacobian(net, s, terms)


def _jacobian(net: NetworkModel, s: StateVector, terms) -> sp.csr_matrix:
    pat = net.jac_pattern
    return sp.csr_matrix((_jacobian_values(net, s, terms), pat.indices, pat.indptr),
                         shape=(2 * net.n_core, net.n_free))


def _jacobian_values(net: NetworkModel, s: StateVector, terms) -> np.ndarray:
    """The Jacobian's nonzeros in the CSR order of ``net.jac_pattern``: minus
    each term's gradient, listed as the pattern's ``slot`` expects, and +1
    for the injection entries."""
    c, d, tc, td, vi, vk = _on_terms(net, s, terms)
    ones = np.ones(net.n_core)
    vals = np.concatenate([td, -td, -vk * c, -vi * c,      # -grad of v_i v_k c
                           -tc, tc, -vk * d, -vi * d,      # -grad of v_i v_k d
                           ones, ones])
    pat = net.jac_pattern
    return np.bincount(pat.slot, weights=vals, minlength=len(pat.indices) + 1)[:-1]


def _on_terms(net: NetworkModel, s: StateVector, terms):
    """c, d, t_c, t_d, v_i and v_k of each term of ``net.jac_pattern``."""
    c, d, tc, td, _, _ = terms
    t = net.jac_pattern.terms
    return c[t], d[t], tc[t], td[t], s.vm[net.y_row[t]], s.vm[net.y_col[t]]


def q_term(net: NetworkModel, s: StateVector) -> np.ndarray:
    """Second-order residual correction sum_m r_m * hess(r_m), dense.

    Only used for diagnostics (the gap between the regularized Gauss-Newton
    matrix and the true Hessian of f); the solve path never forms it.  The
    injection entries are linear and add nothing.
    """
    terms = _flow_terms(net, s)
    r = _residual(net, s, terms)
    c, d, tc, td, vi, vk = _on_terms(net, s, terms)
    row = net.row_of_bus[net.y_row[net.jac_pattern.terms]]
    w_p, w_q = r[row], r[row + 1]
    # over (theta_i, theta_k, v_i, v_k), w_p hess(v_i v_k c) + w_q hess(v_i v_k d)
    # has the angle block [[-a, a], [a, -a]], the angle-magnitude block
    # [[-v_k b, -v_i b], [v_k b, v_i b]] and the magnitude block [[0, e], [e, 0]];
    # minus it is listed row by row, as net.q_targets expects
    a = w_p * tc + w_q * td
    b = w_p * d - w_q * c
    e = w_p * c + w_q * d
    kb, ib, zero = vk * b, vi * b, np.zeros(len(a))
    vals = np.concatenate([a, -a, kb, ib,
                           -a, a, -kb, -ib,
                           kb, -kb, zero, -e,
                           ib, -ib, -e, zero])
    nf = net.n_free
    # the spare last bin collects the entries on fixed columns
    return np.bincount(net.q_targets, weights=vals, minlength=nf * nf + 1)[:-1].reshape(nf, nf)


def linearize(net: NetworkModel, s: StateVector, eps: float) -> RegionLinearization:
    """Evaluate residual, gradient and regularized Hessian at s.

    The Jacobian's values are filled into the network's fixed pattern and
    never wrapped in a sparse matrix: ``g = J'r`` is one bincount over the
    columns, and the dense ``B = J'J + eps*I`` one bincount over
    ``net.jtj_pairs``.  Both add in ascending row order, so they equal
    the sparse ``J.T @ r`` and ``J.T @ J + eps*I`` bit for bit.  ``eps``
    must be positive and finite.
    """
    if not 0.0 < eps < math.inf:  # NaN fails too
        raise ValueError(f"regularization must be positive and finite, got {eps}")
    terms = _flow_terms(net, s)
    r = _residual(net, s, terms)
    vals = _jacobian_values(net, s, terms)
    pat = net.jac_pattern
    n = net.n_free
    g = np.bincount(pat.indices, weights=vals * r[pat.rows], minlength=n)
    a, b, target = net.jtj_pairs
    hess = np.bincount(target, weights=vals[a] * vals[b], minlength=n * n).reshape(n, n)
    hess[np.diag_indices(n)] += eps
    return RegionLinearization(r=r, jac=None, g=g, hess=hess, eps=eps)
