"""Power-flow residuals, analytic derivatives, and the regularized Hessian.

For every core (non-copy) bus i the balance equations in polar coordinates
give two residual rows,

    r_p,i = p_i - v_i * sum_k v_k * (G_ik cos th_ik + B_ik sin th_ik)
    r_q,i = q_i - v_i * sum_k v_k * (G_ik sin th_ik - B_ik cos th_ik)

with th_ik = th_i - th_k.  Rows are ordered bus-ascending, p row before q
row.  Copy buses contribute no rows.  All derivatives are closed-form; the
second-order term is assembled only for diagnostics.

Every function here is a pure evaluation over an immutable network and a
state, so regions can be linearized concurrently without shared state.
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
    jac: sp.csr_matrix      # (2*n_core, n_free)
    g: np.ndarray           # (n_free,)  gradient J^T r of f = 0.5*||r||^2
    hess: np.ndarray        # (n_free, n_free) J^T J + eps*I, dense (CSC in the central reference)
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
    _, d, tc, td, p_calc, q_calc = terms

    n = net.n_bus
    row_of_bus = np.full(n, -1, dtype=np.int64)
    row_of_bus[net.core_idx] = 2 * np.arange(net.n_core)

    i, k = net.y_row, net.y_col
    off = (i != k) & (row_of_bus[i] >= 0)
    io, ko = i[off], k[off]
    p_rows = row_of_bus[io]
    q_rows = p_rows + 1

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []

    def add(r, c, v):
        keep = c >= 0
        rows.append(r[keep])
        cols.append(c[keep])
        data.append(v[keep])

    # off-diagonal angle and magnitude couplings (residual = spec - calc)
    add(p_rows, net.col_theta[ko], -td[off])          # dr_p/dth_k = -dP/dth_k = -t_d... see below
    add(q_rows, net.col_theta[ko], tc[off])
    add(p_rows, net.col_v[ko], -tc[off] / s.vm[ko])
    add(q_rows, net.col_v[ko], -td[off] / s.vm[ko])

    # diagonal (own-bus) partials
    core = net.core_idx
    pr = row_of_bus[core]
    qr = pr + 1
    vii = s.vm[core]
    gd = np.zeros(n)
    bd = np.zeros(n)
    dm = net._diag_mask
    gd[net.y_row[dm]] = net.g_val[dm]
    bd[net.y_row[dm]] = net.b_val[dm]
    gdd, bdd = gd[core], bd[core]
    pc, qc = p_calc[core], q_calc[core]

    add(pr, net.col_theta[core], qc + bdd * vii**2)            # -dP/dth_i
    add(qr, net.col_theta[core], -(pc - gdd * vii**2))          # -dQ/dth_i
    add(pr, net.col_v[core], -(pc / vii + gdd * vii))           # -dP/dv_i
    add(qr, net.col_v[core], -(qc / vii - bdd * vii))           # -dQ/dv_i

    # injection variables enter linearly with coefficient +1 on their own row
    add(pr, net.col_p[core], np.ones(net.n_core))
    add(qr, net.col_q[core], np.ones(net.n_core))

    j = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * net.n_core, net.n_free),
    )
    return j.tocsr()


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

    H = np.zeros((net.n_free, net.n_free))
    ct, cv = net.col_theta, net.col_v

    def accum(rows, cols, vals):
        keep = (rows >= 0) & (cols >= 0)
        np.add.at(H, (rows[keep], cols[keep]), vals[keep])

    i, k = net.y_row, net.y_col
    off = i != k
    io, ko = i[off], k[off]
    vio, vko = s.vm[io], s.vm[ko]
    co, do = c[off], d[off]
    tco, tdo = tc[off], td[off]
    wpo, wqo = w_p[io], w_q[io]

    # hess(r) = -hess(calc); residual rows are spec - calc
    # P second derivatives, weighted by -w_p
    accum(ct[io], ct[ko], -wpo * tco)                # d2P/dth_i dth_k = t_c
    accum(ct[ko], ct[io], -wpo * tco)
    accum(ct[ko], ct[ko], wpo * tco)                 # d2P/dth_k2 = -t_c
    accum(cv[io], cv[ko], -wpo * co)                 # d2P/dv_i dv_k = c
    accum(cv[ko], cv[io], -wpo * co)
    accum(ct[io], cv[ko], wpo * vio * do)            # d2P/dth_i dv_k = -v_i d
    accum(cv[ko], ct[io], wpo * vio * do)
    accum(ct[ko], cv[io], -wpo * vko * do)           # d2P/dth_k dv_i = v_k d
    accum(cv[io], ct[ko], -wpo * vko * do)
    accum(ct[ko], cv[ko], -wpo * vio * do)           # d2P/dth_k dv_k = v_i d
    accum(cv[ko], ct[ko], -wpo * vio * do)

    # Q second derivatives, weighted by -w_q
    accum(ct[io], ct[ko], -wqo * tdo)                # d2Q/dth_i dth_k = t_d
    accum(ct[ko], ct[io], -wqo * tdo)
    accum(ct[ko], ct[ko], wqo * tdo)                 # d2Q/dth_k2 = -t_d
    accum(cv[io], cv[ko], -wqo * do)                 # d2Q/dv_i dv_k = d
    accum(cv[ko], cv[io], -wqo * do)
    accum(ct[io], cv[ko], -wqo * vio * co)           # d2Q/dth_i dv_k = v_i c
    accum(cv[ko], ct[io], -wqo * vio * co)
    accum(ct[ko], cv[io], wqo * vko * co)            # d2Q/dth_k dv_i = -v_k c
    accum(cv[io], ct[ko], wqo * vko * co)
    accum(ct[ko], cv[ko], wqo * vio * co)            # d2Q/dth_k dv_k = -v_i c
    accum(cv[ko], ct[ko], wqo * vio * co)

    # own-bus blocks
    core = net.core_idx
    vii = s.vm[core]
    gd = np.zeros(n)
    bd = np.zeros(n)
    dm = net._diag_mask
    gd[net.y_row[dm]] = net.g_val[dm]
    bd[net.y_row[dm]] = net.b_val[dm]
    gdd, bdd = gd[core], bd[core]
    pc, qc = p_calc[core], q_calc[core]
    wpc, wqc = w_p[core], w_q[core]

    accum(ct[core], ct[core], -wpc * (-pc + gdd * vii**2))      # d2P/dth_i2
    accum(cv[core], cv[core], -wpc * 2.0 * gdd)                 # d2P/dv_i2
    mixed_p = -qc / vii - bdd * vii                             # d2P/dth_i dv_i
    accum(ct[core], cv[core], -wpc * mixed_p)
    accum(cv[core], ct[core], -wpc * mixed_p)

    accum(ct[core], ct[core], -wqc * (-qc - bdd * vii**2))      # d2Q/dth_i2
    accum(cv[core], cv[core], -wqc * (-2.0 * bdd))              # d2Q/dv_i2
    mixed_q = pc / vii - gdd * vii                              # d2Q/dth_i dv_i
    accum(ct[core], cv[core], -wqc * mixed_q)
    accum(cv[core], ct[core], -wqc * mixed_q)

    return H


def lm_hessian(jac, eps: float) -> np.ndarray:
    """Regularized Gauss-Newton matrix B = J^T J + eps*I, dense SPD."""
    if eps <= 0.0:
        raise ValueError(f"regularization must be positive, got {eps}")
    if sp.issparse(jac):
        b = (jac.T @ jac).toarray()
    else:
        jac = np.asarray(jac)
        b = jac.T @ jac
    b[np.diag_indices_from(b)] += eps
    return b


def linearize(net: NetworkModel, s: StateVector, eps: float) -> RegionLinearization:
    """Evaluate residual, Jacobian, gradient and regularized Hessian at s."""
    r, j = _residual_and_jacobian(net, s)
    g = j.T @ r
    b = lm_hessian(j, eps)
    return RegionLinearization(r=r, jac=j, g=g, hess=b, eps=eps)
