"""Power-flow residuals, analytic derivatives, and the regularized Hessian.

For every core (non-copy) bus i the balance equations in polar coordinates
give two residual rows,

    r_p,i = p_i - v_i * sum_k v_k * (G_ik cos th_ik + B_ik sin th_ik)
    r_q,i = q_i - v_i * sum_k v_k * (G_ik sin th_ik - B_ik cos th_ik)

with th_ik = th_i - th_k.  Rows are ordered bus-ascending, p row before q
row.  Copy buses contribute no rows.  All derivatives are closed-form; the
second-order term is assembled only for diagnostics.

Assembly runs on index maps the network computes once (see
:mod:`hdpf.network`): the Jacobian's values are evaluated block by block
and gathered into its fixed CSR pattern, and :func:`linearize` forms
``g = J'r`` and the dense ``J'J + eps*I`` each with one ``np.bincount``,
building no sparse matrix; :func:`q_term` adds its terms with one more.
A bincount adds in input order, and the maps list each entry's terms in
ascending Jacobian row, the order a sparse ``J.T @ J`` and ``J.T @ r`` use,
so the results equal ``lm_hessian(jacobian(net, s), eps)`` and
``jacobian(net, s).T @ r`` bit for bit.

Every function here is a pure evaluation over a network and a state; the
only state a network gains is its index maps, built on first use and
never changed, so regions can be linearized concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .network import ModelError, NetworkModel, StateVector

__all__ = ["RegionLinearization", "residual", "jacobian", "q_term", "lm_hessian", "linearize"]


@dataclass
class RegionLinearization:
    """Residual, Jacobian and derived quantities at one iterate."""

    r: np.ndarray           # (2*n_core,)
    jac: sp.csr_matrix | None  # (2*n_core, n_free); None from linearize, which builds no matrix
    g: np.ndarray           # (n_free,)  gradient J^T r of f = 0.5*||r||^2
    hess: np.ndarray        # (n_free, n_free) J^T J + eps*I: dense from linearize,
                            # CSC from the central reference's _sparse_linearize
    eps: float

    @property
    def f(self) -> float:
        return 0.5 * float(self.r @ self.r)


def _check_state(net: NetworkModel, s: StateVector):
    if s.vm.shape[0] != net.n_bus:
        raise ValueError("state is dimensioned for a different network")
    finite = np.isfinite(s.theta) & np.isfinite(s.vm) & np.isfinite(s.p) & np.isfinite(s.q)
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
    """The Jacobian's nonzeros in the CSR order of ``net.jac_pattern``.

    The blocks follow the coordinates :attr:`NetworkModel.jac_pattern`
    lists; the residual is spec - calc, so each entry is minus a partial of
    the computed injection.
    """
    _, _, tc, td, p_calc, q_calc = terms
    pat = net.jac_pattern
    tco, tdo = tc[pat.off], td[pat.off]
    vko = s.vm[net.y_col[pat.off]]
    core = net.core_idx
    vii = s.vm[core]
    gdd, bdd = net.g_diag[core], net.b_diag[core]
    pc, qc = p_calc[core], q_calc[core]
    ones = np.ones(net.n_core)
    return np.concatenate([
        # couplings to the neighbour's angle and magnitude
        -tdo, tco, -tco / vko, -tdo / vko,
        # own-bus angle and magnitude
        qc + bdd * vii**2, -(pc - gdd * vii**2), -(pc / vii + gdd * vii), -(qc / vii - bdd * vii),
        # injection variables enter linearly with coefficient +1 on their own row
        ones, ones,
    ])[pat.order]


def q_term(net: NetworkModel, s: StateVector) -> np.ndarray:
    """Second-order residual correction sum_m r_m * hess(r_m), dense.

    Only used for diagnostics (the gap between the regularized Gauss-Newton
    matrix and the true Hessian of f); the solve path never forms it.
    """
    terms = _flow_terms(net, s)
    c, d, tc, td, p_calc, q_calc = terms
    r = _residual(net, s, terms)

    n = net.n_bus
    w_p = np.zeros(n)
    w_q = np.zeros(n)
    w_p[net.core_idx] = r[0::2]
    w_q[net.core_idx] = r[1::2]

    # copy-bus rows weigh zero, and adding a zero changes no sum, so only
    # the off-diagonal entries on core rows contribute
    off = net.jac_pattern.off
    io, ko = net.y_row[off], net.y_col[off]
    vio, vko = s.vm[io], s.vm[ko]
    co, do = c[off], d[off]
    tco, tdo = tc[off], td[off]
    wpo, wqo = w_p[io], w_q[io]

    core = net.core_idx
    vii = s.vm[core]
    gdd, bdd = net.g_diag[core], net.b_diag[core]
    pc, qc = p_calc[core], q_calc[core]
    wpc, wqc = w_p[core], w_q[core]
    mixed_p = -qc / vii - bdd * vii                             # d2P/dth_i dv_i
    mixed_q = pc / vii - gdd * vii                              # d2Q/dth_i dv_i

    # hess(r) = -hess(calc); residual rows are spec - calc.  The terms
    # follow the coordinates of net.q_targets.
    p_tt, p_vv = -wpo * tco, -wpo * co               # d2P/dth_i dth_k = t_c, d2P/dv_i dv_k = c
    p_tiv, p_tvi, p_tvk = wpo * vio * do, -wpo * vko * do, -wpo * vio * do
    q_tt, q_vv = -wqo * tdo, -wqo * do               # d2Q/dth_i dth_k = t_d, d2Q/dv_i dv_k = d
    q_tiv, q_tvi, q_tvk = -wqo * vio * co, wqo * vko * co, wqo * vio * co
    m_p, m_q = -wpc * mixed_p, -wqc * mixed_q
    vals = np.concatenate([
        # P second derivatives, weighted by -w_p
        p_tt, p_tt, wpo * tco,                       # d2P/dth_k2 = -t_c
        p_vv, p_vv,
        p_tiv, p_tiv,                                # d2P/dth_i dv_k = -v_i d
        p_tvi, p_tvi,                                # d2P/dth_k dv_i = v_k d
        p_tvk, p_tvk,                                # d2P/dth_k dv_k = v_i d
        # Q second derivatives, weighted by -w_q
        q_tt, q_tt, wqo * tdo,                       # d2Q/dth_k2 = -t_d
        q_vv, q_vv,
        q_tiv, q_tiv,                                # d2Q/dth_i dv_k = v_i c
        q_tvi, q_tvi,                                # d2Q/dth_k dv_i = -v_k c
        q_tvk, q_tvk,                                # d2Q/dth_k dv_k = -v_i c
        # own-bus blocks
        -wpc * (-pc + gdd * vii**2), -wpc * 2.0 * gdd, m_p, m_p,      # d2P/dth_i2, d2P/dv_i2
        -wqc * (-qc - bdd * vii**2), -wqc * (-2.0 * bdd), m_q, m_q,   # d2Q/dth_i2, d2Q/dv_i2
    ])
    nf = net.n_free
    # the spare last bin collects the terms on fixed entries
    return np.bincount(net.q_targets, weights=vals, minlength=nf * nf + 1)[:-1].reshape(nf, nf)


def _check_eps(eps: float):
    if eps <= 0.0:
        raise ValueError(f"regularization must be positive, got {eps}")


def lm_hessian(jac, eps: float) -> np.ndarray:
    """Regularized Gauss-Newton matrix B = J^T J + eps*I, dense SPD."""
    _check_eps(eps)
    if sp.issparse(jac):
        b = (jac.T @ jac).toarray()
    else:
        jac = np.asarray(jac)
        b = jac.T @ jac
    b[np.diag_indices_from(b)] += eps
    return b


def linearize(net: NetworkModel, s: StateVector, eps: float) -> RegionLinearization:
    """Evaluate residual, gradient and regularized Hessian at s.

    The Jacobian's values are filled into the network's fixed pattern and
    never wrapped in a sparse matrix: ``g = J'r`` is one bincount over the
    columns, and the dense ``B = J'J + eps*I`` one bincount over
    ``net.jtj_pairs``.  Both add in ascending row order, so they equal
    ``jacobian(net, s).T @ r`` and ``lm_hessian(jacobian(net, s), eps)``
    bit for bit.
    """
    _check_eps(eps)
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
