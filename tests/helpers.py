"""Independent oracles and generators shared across the test suite.

Everything here deliberately recomputes quantities through a different
route than the library: dense complex admittance assembly by looping over
branches, complex-power residual evaluation, finite differences for
derivatives, and a throwaway Newton-Raphson solver in complex form.
"""

from __future__ import annotations

import cmath
import math
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from hdpf import BusType, RawCase
from hdpf.condense import CondensedQP
from hdpf.network import NetworkModel, StateVector
from hdpf.residual import jacobian, residual


def union_state(union, states) -> StateVector:
    """The state of a union of networks from one state per network, their
    tables side by side."""
    return StateVector(union, *np.concatenate([s.x for s in states], axis=1))


def region_states(p, state: StateVector) -> list[StateVector]:
    """Each region's own state, from its buses' columns of the union state."""
    bus = p.union.bounds[:, 4]
    return [StateVector(r.net, *state.x[:, a:b]) for r, a, b in zip(p.regions, bus, bus[1:])]


def region_free(p, chi: np.ndarray) -> list[np.ndarray]:
    """Each region's free vector, its slice of the union's free vector."""
    return [chi[free] for _, free, *_ in p.union.slices]


def dense_admittance_pu(case: RawCase) -> np.ndarray:
    """Dense Y in per-unit including bus shunts."""
    ids = sorted(b.id for b in case.buses)
    pos = {b: i for i, b in enumerate(ids)}
    y = np.zeros((len(ids), len(ids)), dtype=complex)
    for br in case.branches:
        if not br.in_service:
            continue
        f, t = pos[br.from_bus], pos[br.to_bus]
        ys = 1.0 / complex(br.r, br.x)
        bc = 1j * br.total_line_charging_b / 2.0
        tap = br.tap_ratio if br.tap_ratio != 0.0 else 1.0
        tcplx = tap * cmath.exp(1j * math.radians(br.phase_shift))
        y[f, f] += (ys + bc) / (tap * tap)
        y[f, t] += -ys / tcplx.conjugate()
        y[t, f] += -ys / tcplx
        y[t, t] += ys + bc
    for b in case.buses:
        y[pos[b.id], pos[b.id]] += complex(b.shunt_g, b.shunt_b) / case.base_mva
    return y


def scalar_ybus(case: RawCase) -> sp.csr_matrix:
    """Y in per-unit as a CSR matrix, assembled one branch at a time in
    Python ``complex`` arithmetic (standard pi model), the listing summed by
    SciPy's COO to CSR conversion: each in-service branch's (f, f), (f, t),
    (t, f), (t, t) entries in turn, then every bus's shunt on the diagonal."""
    buses = sorted(case.buses, key=lambda b: b.id)
    pos = {b.id: i for i, b in enumerate(buses)}
    rows, cols, vals = [], [], []
    for br in case.branches:
        if not br.in_service:
            continue
        f, t = pos[br.from_bus], pos[br.to_bus]
        tap = br.tap_ratio if br.tap_ratio != 0.0 else 1.0
        shift = math.radians(br.phase_shift)
        ys = 1.0 / complex(br.r, br.x)
        ysh = 0.5j * br.total_line_charging_b
        a = tap * complex(math.cos(shift), math.sin(shift))
        rows += [f, f, t, t]
        cols += [f, t, f, t]
        vals += [(ys + ysh) / (tap * tap), -ys / a.conjugate(), -ys / a, ys + ysh]
    n = len(buses)
    rows += range(n)
    cols += range(n)
    vals += [complex(b.shunt_g / case.base_mva, b.shunt_b / case.base_mva) for b in buses]
    y = sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex).tocsr()
    y.sum_duplicates()
    return y


def gram_maps_alone(pat, n: int):
    """A network's ``jtj_pairs`` and B pattern ``(slot, diag, indices,
    indptr, cols)`` from its Jacobian pattern alone: every pair of nonzeros
    in each row, row by row, and the sorted flat keys ``col_a * n + col_b``
    of their products and of the diagonal, by ``np.unique``."""
    a, b = [], []
    for row in range(len(pat.indptr) - 1):
        nz = np.arange(pat.indptr[row], pat.indptr[row + 1])
        a.append(np.repeat(nz, len(nz)))
        b.append(np.tile(nz, len(nz)))
    a = np.concatenate(a + [np.zeros(0, dtype=np.int64)])
    b = np.concatenate(b + [np.zeros(0, dtype=np.int64)])
    target = pat.indices[a] * n + pat.indices[b]
    uniq, slot = np.unique(np.concatenate([target, np.arange(n) * (n + 1)]), return_inverse=True)
    cols = uniq // n
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    return (a, b), (slot[:len(target)], slot[len(target):], (uniq % n).astype(np.int32),
                    indptr.astype(np.int32), cols)


def q_slots_alone(pat, gram_cols, gram_indices, n: int) -> np.ndarray:
    """Position in a network's B pattern of each entry (j1, j2) of every
    term's 4x4 curvature block, entry-major, searched among its sorted
    flat keys ``col * n + row``; the spare bin for an entry on a fixed
    column."""
    cols = pat.cols.T
    r, c = cols[:, None, :], cols[None, :, :]
    free = (r >= 0) & (c >= 0)
    keys = gram_cols * n + gram_indices
    pos = np.searchsorted(keys, np.where(free, c * n + r, 0))
    return np.where(free, pos, len(keys)).ravel()


def union_pattern_alone(nets):
    """The Jacobian pattern arrays of the networks side by side, each
    network's own pattern shifted: (slot, rows, indices, indptr, cols, i,
    k, g, b), the union listing each of the ten value blocks (eight of
    term derivatives, then the core buses' p and q injections) of every
    network in turn, a value on a fixed column in the union's spare bin."""
    pats = [net.jac_pattern for net in nets]
    off = lambda sizes: np.concatenate([[0], np.cumsum(sizes)])
    bus, rows = off([n.n_bus for n in nets]), off([2 * n.n_core for n in nets])
    free, jac = off([n.n_free for n in nets]), off([len(p.indices) for p in pats])
    blocks = [np.split(np.where(p.slot < len(p.indices), p.slot + j, jac[-1]),
                       np.cumsum([len(p.i)] * 8 + [net.n_core]))
              for net, p, j in zip(nets, pats, jac)]
    return (np.concatenate([blk[i] for i in range(10) for blk in blocks]),
            np.concatenate([p.rows + r for p, r in zip(pats, rows)]),
            np.concatenate([p.indices + f for p, f in zip(pats, free)]),
            np.append(np.concatenate([p.indptr[:-1] + j for p, j in zip(pats, jac)]), jac[-1]),
            np.concatenate([np.where(p.cols >= 0, p.cols + f, -1) for p, f in zip(pats, free)]),
            np.concatenate([p.i + o for p, o in zip(pats, bus)]),
            np.concatenate([p.k + o for p, o in zip(pats, bus)]),
            np.concatenate([p.g for p in pats]), np.concatenate([p.b for p in pats]))


def complex_power_residual(net: NetworkModel, s: StateVector) -> np.ndarray:
    """Residual via S = diag(V) conj(Y V), interleaved (p, q) per core bus."""
    v = s.vm * np.exp(1j * s.theta)
    inj = v * np.conj(net.ybus @ v)
    out = np.empty(2 * net.n_core)
    out[0::2] = s.p[net.core_idx] - inj.real[net.core_idx]
    out[1::2] = s.q[net.core_idx] - inj.imag[net.core_idx]
    return out


def complex_jacobian(net: NetworkModel, s: StateVector) -> np.ndarray:
    """Dense residual Jacobian from the complex-matrix derivatives of
    S = diag(V) conj(Y V) (Zimmerman, MATPOWER Technical Note 2)."""
    v = s.vm * np.exp(1j * s.theta)
    y = net.ybus.toarray()
    i_bus = y @ v
    ds_dva = 1j * np.diag(v) @ np.conj(np.diag(i_bus) - y @ np.diag(v))
    ds_dvm = np.diag(v) @ np.conj(y @ np.diag(v / s.vm)) + np.conj(np.diag(i_bus)) @ np.diag(v / s.vm)
    jac = np.zeros((2 * net.n_core, net.n_free))
    core = net.core_idx
    for ds, cols in ((ds_dva, net.col[0]), (ds_dvm, net.col[1])):
        free = cols >= 0
        jac[0::2, cols[free]] = -ds.real[np.ix_(core, free)]
        jac[1::2, cols[free]] = -ds.imag[np.ix_(core, free)]
    row = {int(b): 2 * n for n, b in enumerate(core)}
    for bus in np.flatnonzero(net.free[2]):
        jac[row[int(bus)], net.col[2, bus]] = 1.0
    for bus in np.flatnonzero(net.free[3]):
        jac[row[int(bus)] + 1, net.col[3, bus]] = 1.0
    return jac


def fd_jacobian(net: NetworkModel, s: StateVector, h: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of the residual w.r.t. the free entries."""
    x0 = s.free()
    cols = []
    for i in range(len(x0)):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        rp = residual(net, s.with_free(xp))
        rm = residual(net, s.with_free(xm))
        cols.append((rp - rm) / (2 * h))
    return np.array(cols).T


def fd_hessian_of_f(net: NetworkModel, s: StateVector, h: float = 1e-6) -> np.ndarray:
    """Central differences of grad f = J^T r."""
    x0 = s.free()

    def grad(x):
        st = s.with_free(x)
        return jacobian(net, st).T @ residual(net, st)

    cols = []
    for i in range(len(x0)):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((grad(xp) - grad(xm)) / (2 * h))
    h_fd = np.array(cols).T
    return 0.5 * (h_fd + h_fd.T)


def lm_hessian(jac, eps: float) -> np.ndarray:
    """Regularized Gauss-Newton matrix B = J^T J + eps*I, dense SPD, through
    a sparse (or dense) product; the oracle of ``linearize``'s assembly."""
    if eps <= 0.0:
        raise ValueError(f"regularization must be positive, got {eps}")
    if sp.issparse(jac):
        b = (jac.T @ jac).toarray()
    else:
        jac = np.asarray(jac)
        b = jac.T @ jac
    b[np.diag_indices_from(b)] += eps
    return b


def dense_b(lin, values=None) -> np.ndarray:
    """The dense n_free x n_free array of a linearization's B, or of
    ``values`` on B's pattern (its Q), zero off the pattern."""
    pat = lin.pattern
    n = len(pat.indptr) - 1
    out = np.zeros((n, n))
    out[pat.indices, pat.cols] = lin.hess if values is None else values
    return out


def newton_solve_complex(case: RawCase, tol: float = 1e-10, max_iter: int = 40):
    """Plain Newton power flow in complex form; returns (vm, theta) by bus.

    Solves the PV/PQ mismatch equations for angles and PQ magnitudes with
    numpy only; an entirely separate route from the least-squares solver.
    """
    buses = sorted(case.buses, key=lambda b: b.id)
    pos = {b.id: i for i, b in enumerate(buses)}
    n = len(buses)
    y = dense_admittance_pu(case)

    pg = np.zeros(n)
    qg = np.zeros(n)
    vset = {}
    for g in case.generators:
        if not g.in_service:
            continue
        pg[pos[g.bus_id]] += g.p_gen
        qg[pos[g.bus_id]] += g.q_gen
        vset.setdefault(pos[g.bus_id], g.v_setpoint)
    s_spec = (pg - np.array([b.p_demand for b in buses])) / case.base_mva \
        + 1j * (qg - np.array([b.q_demand for b in buses])) / case.base_mva

    types = np.array([int(b.type) for b in buses])
    slack = np.flatnonzero(types == BusType.SLACK)
    pv = np.flatnonzero(types == BusType.PV)
    pq = np.flatnonzero(types == BusType.PQ)
    assert len(slack) == 1

    vm = np.ones(n)
    va = np.zeros(n)
    for i, b in enumerate(buses):
        if types[i] in (BusType.PV, BusType.SLACK):
            vm[i] = vset.get(i, b.v_mag)
        if types[i] == BusType.SLACK:
            va[i] = math.radians(b.v_ang)

    pvpq = np.concatenate([pv, pq])
    for _ in range(max_iter):
        v = vm * np.exp(1j * va)
        mis = v * np.conj(y @ v) - s_spec
        f = np.concatenate([mis[pvpq].real, mis[pq].imag])
        if np.max(np.abs(f)) < tol:
            break
        diag_v = np.diag(v)
        diag_i = np.diag(y @ v)
        diag_vn = np.diag(v / np.abs(v))
        ds_dvm = diag_v @ np.conj(y @ diag_vn) + np.conj(diag_i) @ diag_vn
        ds_dva = 1j * diag_v @ np.conj(diag_i - y @ diag_v)
        j11 = ds_dva[np.ix_(pvpq, pvpq)].real
        j12 = ds_dvm[np.ix_(pvpq, pq)].real
        j21 = ds_dva[np.ix_(pq, pvpq)].imag
        j22 = ds_dvm[np.ix_(pq, pq)].imag
        jac = np.block([[j11, j12], [j21, j22]])
        dx = np.linalg.solve(jac, -f)
        va[pvpq] += dx[: len(pvpq)]
        vm[pq] += dx[len(pvpq):]
    return vm, va


def random_spd(rng: np.random.Generator, n: int, cond: float = 100.0) -> np.ndarray:
    """Random SPD matrix with eigenvalues in [1, cond]."""
    if n == 0:
        return np.zeros((0, 0))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    m = (q * eig) @ q.T
    return 0.5 * (m + m.T)


def random_consensus_qp(rng: np.random.Generator, n_regions: int | None = None,
                        max_nz: int = 30):
    """Random strongly convex consensus QP over a hypergraph structure.

    Returns (cqps, regions, n_z) where cqps are condensed models and
    regions are stubs carrying z_cols, so the one-pass functions and the
    dense KKT oracle both run on the instance.
    Hyperedges have cardinality 2-4 across 2-10 regions.
    """
    if n_regions is None:
        n_regions = int(rng.integers(2, 11))
    n_edges = int(rng.integers(1, 6))
    # each hyperedge owns a z-block of 1-3 columns shared by 2-4 regions
    blocks = []
    col = 0
    for _ in range(n_edges):
        width = int(rng.integers(1, 4))
        if col + width > max_nz:
            break
        card = int(rng.integers(2, min(4, n_regions) + 1))
        members = rng.choice(n_regions, size=card, replace=False)
        blocks.append((np.arange(col, col + width), members))
        col += width
    if not blocks:
        blocks = [(np.arange(0, 1), np.array([0, 1]))]
        col = 1
    n_z = col

    region_cols: list[list[int]] = [[] for _ in range(n_regions)]
    for cols, members in blocks:
        for m in members:
            region_cols[m].extend(cols.tolist())

    cqps = []
    regions = []
    for reg in range(n_regions):
        cols = np.array(sorted(region_cols[reg]), dtype=np.int64)
        n = len(cols)
        b_bar = random_spd(rng, n)
        g_bar = rng.standard_normal(n)
        x_k = rng.standard_normal(n)
        cqps.append(CondensedQP(
            b_bar=b_bar, g_bar=g_bar, x_k=x_k, x_cols=np.arange(n),
            y_cols=np.zeros(0, dtype=np.int64), w_y=np.zeros(0), w_x=np.zeros((0, n)),
        ))
        regions.append(SimpleNamespace(index=reg, z_cols=cols, n_cpl=n))
    return cqps, regions, n_z
