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
the Jacobian's fixed CSR pattern, and :func:`linearize` forms ``g = J'r``
and ``B = J'J + eps*I`` with one more each.  B has one form for every
network: its values on the network's fixed pattern of B,
``net.jtj_pattern``, a 1-D array that is never wrapped in a matrix, so a
region's B costs its nonzeros, not n_free^2.  The diagnostic Q takes the
same form, added with one more bincount into B's pattern, which holds all
of Q's entries; the public :func:`q_term` scatters those values dense, as
an oracle.  A bincount adds in input order, and the maps list each entry's
products in ascending Jacobian row, the order a sparse ``J.T @ J`` and
``J.T @ r`` use, so :func:`linearize` equals ``J.T @ J`` plus ``eps`` on
the diagonal and ``J.T @ r``, with ``J = jacobian(net, s)``, bit for bit,
at every entry of the pattern.

The solvers evaluate all regions in one call, :func:`linearize_regions`,
over a :class:`~hdpf.network.NetworkUnion` of their networks, so the
per-call cost is paid once per iteration, not once per region, with the
same bits as each region evaluated alone by :func:`linearize`, the same
body with one network.

Every function here is a pure evaluation over networks and states; the
only state a network, a union or a problem gains is index maps, built on
first use and never changed.
"""

from __future__ import annotations

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
    hess: np.ndarray | None  # J^T J + eps*I, (nnz,) values on `pattern` (a 2-D one, with no
                            # pattern, on the full one); None once a plain solve condensed it
    eps: float
    q: np.ndarray | None = None  # (nnz,) q_term's values on `pattern`, when diagnosed
    pattern: GramPattern | None = None  # the network's jtj_pattern, from linearize


def _checked_table(nets, states) -> np.ndarray:
    """The states of ``nets`` side by side, one (4, total buses) table,
    after checking that each fits its network and that every entry is
    finite and every magnitude positive.  With several networks, a bad
    state names its region, by its index in ``nets``, and bus positions
    within it."""
    if len(states) != len(nets) or any(s.x.shape != (4, net.n_bus)
                                       for net, s in zip(nets, states)):
        raise ValueError("state is dimensioned for a different network")
    x = states[0].x if len(states) == 1 else np.concatenate([s.x for s in states], axis=1)
    for what, bad in (("non-finite state", ~np.isfinite(x).all(axis=0)),
                      ("non-positive voltage magnitude", x[1] <= 0.0)):
        if bad.any():
            pos, prefix = np.flatnonzero(bad), ""
            if len(nets) > 1:
                ends = np.cumsum([net.n_bus for net in nets])
                k = int(np.searchsorted(ends, pos[0], side="right"))
                pos = pos[pos < ends[k]] - (ends[k] - nets[k].n_bus)
                prefix = f"region {k}: "
            raise ModelError(f"{prefix}{what} at bus position(s) {pos.tolist()}")
    return x


def _flow_terms(net, x: np.ndarray):
    """The per-nonzero trig terms and the per-bus computed injections of
    the state table ``x`` of ``net``, a network or a :class:`NetworkUnion`."""
    theta, vm = x[0], x[1]
    i, k = net.y_row, net.y_col
    dth = theta[i] - theta[k]
    cos, sin = np.cos(dth), np.sin(dth)
    c = net.g_val * cos + net.b_val * sin     # G cos + B sin
    d = net.g_val * sin - net.b_val * cos     # G sin - B cos
    vv = vm[i] * vm[k]
    tc = vv * c
    td = vv * d
    p_calc = np.bincount(i, weights=tc, minlength=net.n_bus)
    q_calc = np.bincount(i, weights=td, minlength=net.n_bus)
    return c, d, tc, td, p_calc, q_calc


def residual(net: NetworkModel, s: StateVector) -> np.ndarray:
    """Residual vector over core buses, rows (p_1, q_1, p_2, q_2, ...)."""
    x = _checked_table((net,), (s,))
    return _residual(net, x, _flow_terms(net, x))


def _residual(net, x: np.ndarray, terms) -> np.ndarray:
    _, _, _, _, p_calc, q_calc = terms
    core = net.core_idx
    r = np.empty(2 * net.n_core)
    r[0::2] = x[2, core] - p_calc[core]
    r[1::2] = x[3, core] - q_calc[core]
    return r


def jacobian(net: NetworkModel, s: StateVector) -> sp.csr_matrix:
    """Analytic Jacobian of the residual w.r.t. the free state entries."""
    x = _checked_table((net,), (s,))
    return _jacobian(net, x, _flow_terms(net, x))


def _residual_and_jacobian(net: NetworkModel, s: StateVector) -> tuple[np.ndarray, sp.csr_matrix]:
    """:func:`residual` and :func:`jacobian` from one state check and one
    evaluation of the flow terms."""
    x = _checked_table((net,), (s,))
    terms = _flow_terms(net, x)
    return _residual(net, x, terms), _jacobian(net, x, terms)


def _jacobian(net: NetworkModel, x: np.ndarray, terms) -> sp.csr_matrix:
    pat = net.jac_pattern
    return sp.csr_matrix((_jacobian_values(net, x, terms), pat.indices, pat.indptr),
                         shape=(2 * net.n_core, net.n_free))


def _jacobian_values(net, x: np.ndarray, terms) -> np.ndarray:
    """The Jacobian's nonzeros in the CSR order of ``net.jac_pattern``: minus
    each term's gradient, listed as the pattern's ``slot`` expects, and +1
    for the injection entries."""
    c, d, tc, td, vi, vk = _on_terms(net, x, terms)
    ones = np.ones(net.n_core)
    vals = np.concatenate([td, -td, -vk * c, -vi * c,      # -grad of v_i v_k c
                           -tc, tc, -vk * d, -vi * d,      # -grad of v_i v_k d
                           ones, ones])
    pat = net.jac_pattern
    return np.bincount(pat.slot, weights=vals, minlength=len(pat.indices) + 1)[:-1]


def _on_terms(net, x: np.ndarray, terms):
    """c, d, t_c, t_d, v_i and v_k of each term of ``net.jac_pattern``."""
    c, d, tc, td, _, _ = terms
    t = net.jac_pattern.terms
    return c[t], d[t], tc[t], td[t], x[1, net.y_row[t]], x[1, net.y_col[t]]


def q_term(net: NetworkModel, s: StateVector) -> np.ndarray:
    """Second-order residual correction sum_m r_m * hess(r_m), dense: the
    oracle of the diagnostics (the gap between the regularized Gauss-Newton
    matrix and the true Hessian of f), which read only its values on B's
    pattern, from :func:`_q_values`.  The injection entries add nothing."""
    gram = net.jtj_pattern
    q = np.zeros((net.n_free, net.n_free))
    q[gram.indices, gram.cols] = _q_values(net, s)
    return q


def _q_values(net: NetworkModel, s: StateVector) -> np.ndarray:
    """The values of :func:`q_term` on ``net.jtj_pattern``, added once into
    that pattern by ``net.q_slots``."""
    x = _checked_table((net,), (s,))
    terms = _flow_terms(net, x)
    r = _residual(net, x, terms)
    c, d, tc, td, vi, vk = _on_terms(net, x, terms)
    row = net.row_of_bus[net.y_row[net.jac_pattern.terms]]
    w_p, w_q = r[row], r[row + 1]
    # over (theta_i, theta_k, v_i, v_k), w_p hess(v_i v_k c) + w_q hess(v_i v_k d)
    # has the angle block [[-a, a], [a, -a]], the angle-magnitude block
    # [[-v_k b, -v_i b], [v_k b, v_i b]] and the magnitude block [[0, e], [e, 0]];
    # minus it is listed row by row, as net.q_slots expects
    a = w_p * tc + w_q * td
    b = w_p * d - w_q * c
    e = w_p * c + w_q * d
    kb, ib, zero = vk * b, vi * b, np.zeros(len(a))
    vals = np.concatenate([a, -a, kb, ib,
                           -a, a, -kb, -ib,
                           kb, -kb, zero, -e,
                           ib, -ib, -e, zero])
    # the spare last bin collects the entries on fixed columns
    return np.bincount(net.q_slots, weights=vals, minlength=len(net.jtj_pattern.indices) + 1)[:-1]


def linearize(net: NetworkModel, s: StateVector, eps: float) -> RegionLinearization:
    """Evaluate residual, gradient and regularized Hessian at s: the
    one-network case of :func:`linearize_regions`, the network standing
    for its own union."""
    return _linearize(net, (net,), (s,), eps)[0]


def linearize_regions(union: NetworkUnion, states, eps: float) -> list[RegionLinearization]:
    """Evaluate residual, gradient and regularized Hessian of every network
    of ``union`` at its state in ``states``, in the union's order.

    The flow terms, the residual, the Jacobian's values and ``g = J'r``
    come from one pass over the union, whose Jacobian is block diagonal, so
    each network's r, g and Jacobian values are a slice of the union's.
    The values are filled into the fixed pattern and never wrapped in a
    sparse matrix: ``g`` is one bincount over the columns, and each
    network's ``B = J'J + eps*I`` one bincount over its ``net.jtj_pairs``
    from its own slice, into the values of ``net.jtj_pattern``.  Every sum
    adds in ascending row order, so they equal the sparse ``J.T @ r`` and
    ``J.T @ J + eps*I`` bit for bit, as a network evaluated alone gives
    them.  ``eps`` must be positive and finite.  A bad state raises
    :class:`ModelError`, naming its region when the union has several
    networks.
    """
    return _linearize(union, union.nets, states, eps)


def _linearize(whole, nets, states, eps: float) -> list[RegionLinearization]:
    """The evaluation of ``nets`` at ``states`` through ``whole``, their
    union or the one network itself."""
    if not 0.0 < eps < math.inf:  # NaN fails too
        raise ValueError(f"regularization must be positive and finite, got {eps}")
    x = _checked_table(nets, states)
    terms = _flow_terms(whole, x)
    r = _residual(whole, x, terms)
    vals = _jacobian_values(whole, x, terms)
    del terms  # every network's at once; free them before the B's are formed
    pat = whole.jac_pattern
    g = np.bincount(pat.indices, weights=vals * r[pat.rows], minlength=whole.n_free)
    lins = []
    row = free = nnz = 0
    for net in nets:
        ends = row + 2 * net.n_core, free + net.n_free, nnz + len(net.jac_pattern.indices)
        lins.append(RegionLinearization(r=r[row:ends[0]], jac=None, g=g[free:ends[1]],
                                        hess=_gram(net, vals[nnz:ends[2]], eps), eps=eps,
                                        pattern=net.jtj_pattern))
        row, free, nnz = ends
    return lins


def _gram(net: NetworkModel, vals: np.ndarray, eps: float) -> np.ndarray:
    """B = J'J + eps*I's values on ``net.jtj_pattern`` from the network's
    Jacobian values, one network's products at a time."""
    a, b = net.jtj_pairs
    gram = net.jtj_pattern
    data = np.bincount(gram.slot, weights=vals[a] * vals[b], minlength=len(gram.indices))
    data[gram.diag] += eps
    return data
