"""Per-unit network model: admittance matrix, bus typing, state vectors.

A :class:`NetworkModel` is built from one :class:`~hdpf.caseio.RawCase`,
either the merged case or one region's case, by :func:`build_network`, the
only constructor path.  It orders the buses by id, converts to per-unit and
radians, adds the in-service generators into the injections and assembles
Y.  A case with copy buses is a region and has at most one slack bus; any
other case needs exactly one.

A state is one float table ``x`` of shape (4, n_bus): its rows are the
four steady-state quantities (angle theta, magnitude v, active power p,
reactive power q), its columns the buses in model order.  The model fixes,
per bus, which of the four are specified and which are free, in one boolean
table ``free`` of the same shape:

==========  =============  ==========
bus type    fixed          free
==========  =============  ==========
PQ          p, q           theta, v
PV          p, v           theta, q
slack       theta, v       p, q
copy        (none)         theta, v
==========  =============  ==========

Copy buses carry only (theta, v); they exist to make a region's power-flow
equations self-contained, and the balance equations of the physical bus
they mirror live in its home region.

The free vector of a state is ``x[free]``: read in C order, all free
angles by bus position, then magnitudes, then p, then q.  ``col`` is the
int table of the same shape with ``col[free] = arange(n_free)`` and -1
where fixed, so ``col[0, i]`` is the free-vector column of bus i's angle;
coupling selectors and the index maps below are read from it.

The sparsity of everything :mod:`hdpf.residual` assembles depends on the
networks alone, so its index maps are computed once, on first use, and
kept (``functools.cached_property``).  A network keeps its Jacobian's
pattern, :attr:`NetworkModel.jac_pattern`: the Jacobian's terms (each
admittance nonzero (i, k) on a core row, as arrays of i, k, G_ik and B_ik,
the only admittance entries the evaluation reads, with its columns
theta_i, theta_k, v_i and v_k), its CSR pattern, and the slot in it of
each term derivative.

A :class:`NetworkUnion` puts several networks side by side as one: their
buses, admittance nonzeros, residual rows and free entries, each index
shifted.  Its Jacobian pattern is built from the networks' admittance
arrays put side by side, and it builds and owns every other map, once for
all its networks, in one pass: for each network every pair (a, b) of
nonzeros sharing a Jacobian row, the CSC pattern of J'J + eps*I with the
position in it of each pair's product and diagonal entry
(:attr:`NetworkUnion.grams`), and the position in that pattern of every
entry of each term's 4x4 curvature block in the diagnostic
:func:`hdpf.residual.q_term` (:attr:`NetworkUnion.q_slots`).  A network
alone is evaluated through its union of one, :attr:`NetworkModel.union`;
a partitioned problem's regions through the union its analysis builds
(:meth:`hdpf.partition.PartitionedProblem.analyze`), one state of it
evaluated in one pass, Q included when diagnosed.  The merged network,
used for stitching and by the sparse reference, builds only its
Jacobian's pattern.

Y is assembled from arrays of the in-service branches' parameters, each
entry by the float operations of the scalar pi-model formula in Python's
``complex`` arithmetic, and summed by SciPy's COO to CSR conversion, so
it is the same, byte for byte, as a branch-by-branch assembly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .caseio import BusType, RawCase

__all__ = ["ModelError", "NetworkModel", "NetworkUnion", "StateVector", "build_network",
           "flat_start"]


class ModelError(ValueError):
    """Raised when a case cannot be turned into a usable network model."""


def csc_columns(indptr: np.ndarray) -> np.ndarray:
    """Column of each stored entry of a CSC matrix with column pointers
    ``indptr``."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


@dataclass(frozen=True)
class JacobianPattern:
    """Fixed sparsity of the residual Jacobian, canonical CSR, and the map
    that adds the derivatives of its terms into it.

    The values are listed as the p-row derivatives of every term, column by
    column (``cols.T`` order), then the q-row ones, then the injection
    entries of the core buses' p and q rows; ``slot`` sends each to its CSR
    position, or one on a fixed column to the spare bin ``len(indices)``.
    """

    i: np.ndarray        # each term's row bus (a core bus), in admittance storage order
    k: np.ndarray        # its column bus
    g: np.ndarray        # G_ik
    b: np.ndarray        # B_ik
    cols: np.ndarray     # (n_terms, 4) free columns of (theta_i, theta_k, v_i, v_k), -1 if fixed
    slot: np.ndarray     # listed value -> CSR position
    rows: np.ndarray     # row of each CSR nonzero
    indices: np.ndarray  # column of each CSR nonzero, ascending within a row
    indptr: np.ndarray


@dataclass(frozen=True)
class GramPattern:
    """Fixed CSC pattern of B = J'J + eps*I, and the maps that fill it.

    B is symmetric, so the sorted flat keys ``row * n_free + col`` of its
    nonzeros list it in CSR and in CSC order alike.  The diagonal is always
    in the pattern.  Index arrays are int32, the type scipy and SuperLU keep,
    so a matrix built on them shares them instead of copying.
    """

    slot: np.ndarray     # position of each pair's product
    diag: np.ndarray     # position of each diagonal entry, by column
    indices: np.ndarray  # row of each nonzero, ascending within a column
    indptr: np.ndarray
    cols: np.ndarray     # column of each nonzero


class NetworkModel:
    """Immutable per-unit network: Y = G + jB plus per-bus specifications."""

    def __init__(self, case: RawCase):
        buses = sorted(case.buses, key=lambda b: b.id)
        n = len(buses)
        if n == 0:
            raise ModelError("network has no buses")
        self.n_bus = n
        self.base_mva = base = case.base_mva
        self.bus_ids = np.array([b.id for b in buses], dtype=np.int64)
        self.bus_type = np.array([int(b.type) for b in buses], dtype=np.int8)

        n_slack = int(np.sum(self.bus_type == BusType.SLACK))
        if np.any(self.bus_type == BusType.COPY):
            if n_slack > 1:
                raise ModelError(f"a region (a case with copy buses) may have at most one "
                                 f"slack bus, found {n_slack}")
        elif n_slack != 1:
            raise ModelError(f"expected exactly one slack bus, found {n_slack}")

        pos = {b.id: i for i, b in enumerate(buses)}
        for g in case.generators:
            if g.bus_id not in pos:
                raise ModelError(f"generator references unknown bus {g.bus_id}")
        # each branch's end positions (-1 if unknown), r, x, b, tap, shift, in-service flag
        table = np.array([(pos.get(br.from_bus, -1), pos.get(br.to_bus, -1), br.r, br.x,
                           br.total_line_charging_b, br.tap_ratio, br.phase_shift,
                           bool(br.in_service)) for br in case.branches],
                         dtype=float).reshape(-1, 8)
        unknown = np.flatnonzero((table[:, :2] < 0).any(axis=1))
        if len(unknown):
            br = case.branches[unknown[0]]
            end = br.from_bus if br.from_bus not in pos else br.to_bus
            raise ModelError(f"branch {br.from_bus}-{br.to_bus} references unknown bus {end}")

        # in-service generators add into the injections; the first one at a
        # PV or slack bus sets its magnitude
        p_gen, q_gen = np.zeros(n), np.zeros(n)
        v_set: dict[int, float] = {}
        for g in case.generators:
            if g.in_service:
                i = pos[g.bus_id]
                p_gen[i] += g.p_gen
                q_gen[i] += g.q_gen
                v_set.setdefault(i, g.v_setpoint)
        regulated = (BusType.PV, BusType.SLACK)
        self.p_spec = (p_gen - np.array([b.p_demand for b in buses])) / base
        self.q_spec = (q_gen - np.array([b.q_demand for b in buses])) / base
        self.v_spec = np.array([v_set.get(i, b.v_mag) if b.type in regulated else b.v_mag
                                for i, b in enumerate(buses)])
        self.theta_spec = np.radians([b.v_ang for b in buses])
        # written so that NaN fails too; a PQ bus's magnitude is free
        t = self.bus_type
        bad = self.bus_ids[((t == BusType.PV) | (t == BusType.SLACK)) & ~(self.v_spec > 0.0)]
        if len(bad):
            raise ModelError(f"non-positive voltage setpoint at PV or slack bus(es) {bad.tolist()}")

        self._assemble_admittance(buses, case.branches, table)
        self._index_free_entries()

    # -- admittance ---------------------------------------------------------

    def _assemble_admittance(self, buses, branches, table):
        n = self.n_bus
        live = np.flatnonzero(table[:, 7])
        f, t, r, x, b, tap, shift, _ = table[live].T
        zero = np.flatnonzero((r == 0.0) & (x == 0.0))
        if len(zero):
            br = branches[live[zero[0]]]
            raise ModelError(f"zero-impedance branch {br.from_bus}-{br.to_bus}")
        ends = np.stack([f, t]).astype(np.int64)
        touched = np.zeros(n, dtype=bool)
        touched[ends] = True
        if n > 1 and not touched.all():
            lonely = self.bus_ids[~touched]
            raise ModelError(f"isolated bus(es) with no in-service branch: {lonely.tolist()}")

        # each branch's entries (f, f), (f, t), (t, f), (t, t) as Python's
        # complex arithmetic forms them, one float operation at a time:
        # ys = 1/(r + jx), ysh = 0.5j*b, a = tap*(cos + j sin) of the shift,
        # then (ys + ysh)/tap^2, -ys/conj(a), -ys/a and ys + ysh
        tap = np.where(tap != 0.0, tap, 1.0)
        ys_re, ys_im = _complex_quotient(1.0, 0.0, r, x)
        full_re, full_im = ys_re + (0.0 * b - 0.0), ys_im + (0.0 + 0.5 * b)
        rad = shift * (math.pi / 180.0)  # math.radians
        cos, sin = np.ones(len(rad)), rad.copy()  # cos(+-0) = 1, sin(+-0) = +-0
        for k in np.flatnonzero(rad != 0.0):
            cos[k], sin[k] = math.cos(rad[k]), math.sin(rad[k])
        a_re, a_im = tap * cos - 0.0 * sin, tap * sin + 0.0 * cos
        q_re, q_im = _complex_quotient(np.array([full_re, -ys_re, -ys_re]),
                                       np.array([full_im, -ys_im, -ys_im]),
                                       np.array([tap * tap, a_re, a_re]),
                                       np.array([np.zeros(len(tap)), -a_im, a_im]))

        # branch after branch its four entries, then the bus shunts, plus a
        # structural zero so every diagonal entry exists
        shunt = np.array([(bus.shunt_g, bus.shunt_b) for bus in buses]).T / self.base_mva
        vals = np.empty(4 * len(live) + n, dtype=complex)
        vals.real = np.concatenate([np.vstack([q_re, full_re]).T.ravel(), shunt[0]])
        vals.imag = np.concatenate([np.vstack([q_im, full_im]).T.ravel(), shunt[1]])
        f, t = ends
        diag = np.arange(n)
        rows = np.concatenate([np.stack([f, f, t, t], axis=1).ravel(), diag])
        cols = np.concatenate([np.stack([f, t, f, t], axis=1).ravel(), diag])

        # COO to CSR sums the duplicates in listing order
        y = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        y.sum_duplicates()
        self.ybus = y
        self.y_row = np.repeat(np.arange(n), np.diff(y.indptr))
        self.y_col = y.indices.astype(np.int64)
        self.g_val = y.data.real.copy()
        self.b_val = y.data.imag.copy()

    # -- free-variable layout -----------------------------------------------

    def _index_free_entries(self):
        t = self.bus_type
        is_slack = t == BusType.SLACK
        is_copy = t == BusType.COPY

        self.is_copy = is_copy
        self.core_idx = np.flatnonzero(~is_copy)
        self.n_core = len(self.core_idx)
        # bus -> its p residual row (q row follows); -1 for copy buses
        self.row_of_bus = np.full(self.n_bus, -1, dtype=np.int64)
        self.row_of_bus[self.core_idx] = 2 * np.arange(self.n_core)

        # rows (theta, v, p, q) by bus, as in the module docstring's table
        self.free = np.stack([~is_slack, (t == BusType.PQ) | is_copy,
                              is_slack, is_slack | (t == BusType.PV)])
        self.n_free = int(self.free.sum())
        self.col = np.full(self.free.shape, -1, dtype=np.int64)
        self.col[self.free] = np.arange(self.n_free)
        self.free_at = np.flatnonzero(self.free)  # each free entry's position in x.ravel()

        # every state entry that exists, free or fixed: 4 per core bus, 2 per copy
        self.n_state_entries = 4 * self.n_core + 2 * int(is_copy.sum())

    # -- index maps of the linearization ------------------------------------

    @functools.cached_property
    def jac_pattern(self) -> JacobianPattern:
        """The Jacobian's CSR pattern and the map from listed values into it."""
        return _jac_pattern(self.y_row, self.y_col, self.g_val, self.b_val, self.row_of_bus,
                            self.col, self.core_idx, self.n_free)

    @functools.cached_property
    def union(self) -> NetworkUnion:
        """The network as a union of one, built on first use, through which
        :func:`hdpf.residual.linearize` evaluates it."""
        return NetworkUnion((self,))


def _jac_pattern(y_row, y_col, g_val, b_val, row_of_bus, col, core_idx,
                 n_free: int) -> JacobianPattern:
    """The Jacobian's CSR pattern and the map from listed values into it, of
    a network or of a union of networks side by side: its admittance
    nonzeros (``y_row``, ``y_col``, ``g_val``, ``b_val``), each bus's p
    residual row (``row_of_bus``, -1 for a copy bus), the free-column table
    ``col``, the core buses and the free-entry count."""
    terms = row_of_bus[y_row] >= 0
    i, k = y_row[terms], y_col[terms]
    th, v = col[0], col[1]
    cols = np.stack([th[i], th[k], v[i], v[k]], axis=1)
    p_term, p_core = row_of_bus[i], row_of_bus[core_idx]
    n, n_rows = n_free, 2 * len(core_idx)
    # row and column of each listed value, in the order the class lists them
    rows = np.concatenate([np.tile(p_term, 4), np.tile(p_term + 1, 4), p_core, p_core + 1])
    cols_all = np.concatenate([np.tile(cols.T.ravel(), 2), col[2, core_idx], col[3, core_idx]])
    # sorted flat keys are CSR order; the sentinel, past every real key,
    # is the spare bin of the values on fixed columns
    sentinel = n_rows * n
    keys = np.where(cols_all >= 0, rows * n + cols_all, sentinel)
    uniq, slot = np.unique(np.append(keys, sentinel), return_inverse=True)
    csr_rows = uniq[:-1] // n
    counts = np.bincount(csr_rows, minlength=n_rows)
    return JacobianPattern(i=i, k=k, g=g_val[terms], b=b_val[terms],
                           cols=cols, slot=slot[:-1], rows=csr_rows,
                           indices=uniq[:-1] % n,
                           indptr=np.concatenate([[0], np.cumsum(counts)]))


def _gram_maps(pat: JacobianPattern, rows_at, free_at):
    """Each block's pairs and :class:`GramPattern`, for the block-diagonal
    Jacobian pattern ``pat`` whose blocks start at the residual rows
    ``rows_at`` and free columns ``free_at`` (both ending with the totals).

    The pairs and their flat keys ``col_a * n_l + col_b``, in block l's own
    columns, come from one pass over all blocks; each block then ranks its
    keys and the diagonal's into its pattern, a sort or a mark in its n_l^2
    square, whichever is cheaper.
    """
    counts = np.diff(pat.indptr)
    n_pairs = counts * counts
    pair_at = _offsets(n_pairs)
    t = np.arange(pair_at[-1]) - np.repeat(pair_at[:-1], n_pairs)
    row_pair, col_pair = np.divmod(t, np.repeat(counts, n_pairs))
    del t
    a = np.repeat(pat.indptr[:-1], n_pairs)
    b = a + col_pair
    a += row_pair
    del row_pair, col_pair
    n = np.diff(free_at)
    nnz_at = pat.indptr[rows_at]
    # each Jacobian nonzero's column in its block, and that times its block's n_l
    blocks = np.repeat(np.arange(len(n)), np.diff(nnz_at))
    local = pat.indices - free_at[blocks]
    target = (local * n[blocks])[a]
    target += local[b]
    maps = []
    for p0, p1, j0, n_l in zip(pair_at[rows_at[:-1]].tolist(), pair_at[rows_at[1:]].tolist(),
                               nnz_at[:-1].tolist(), n.tolist()):
        keys = np.concatenate([target[p0:p1], np.arange(n_l) * (n_l + 1)])
        if n_l * n_l <= 8 * len(keys):  # a small square: rank the keys by a mark in it, not a sort
            rank = np.zeros(n_l * n_l, dtype=np.intp)
            rank[keys] = 1
            uniq = np.flatnonzero(rank)
            rank[uniq] = np.arange(len(uniq))
            slot = rank[keys]
        else:
            uniq, slot = np.unique(keys, return_inverse=True)
        cols = uniq // n_l
        indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n_l))])
        pairs = a[p0:p1], b[p0:p1]
        for v in pairs:  # rebased to the block's own Jacobian nonzeros
            v -= j0
        maps.append((pairs, GramPattern(slot=slot[:p1 - p0], diag=slot[p1 - p0:],
                                        indices=(uniq % n_l).astype(np.int32),
                                        indptr=indptr.astype(np.int32), cols=cols)))
    return maps


def _q_slots(pat: JacobianPattern, row_of_bus, grams, term_at) -> list[np.ndarray]:
    """Each block's curvature slots (:attr:`NetworkUnion.q_slots`), in one
    pass and without a search, for the block-diagonal Jacobian pattern
    ``pat`` of a union of networks, with its residual rows ``row_of_bus``,
    each block's pairs and :class:`GramPattern` in ``grams`` and its first
    term in ``term_at``.

    Entry (j1, j2) of a term's 4x4 block, both columns free, lies where the
    pair (a, b) of the term's p row lies, a and b that row's nonzeros in
    the term's columns j2 and j1: the pair numbered (a - start) * width +
    (b - start) from the row's first pair.
    """
    n_terms = len(pat.i)
    counts = np.diff(pat.indptr)
    pair_at = _offsets(counts * counts)
    pair_slot = np.concatenate([g.slot for _, g in grams])
    nnz = np.array([len(g.indices) for _, g in grams], dtype=np.int64)
    # each term's p row, its first nonzero and width, and the CSR position
    # of its p-row derivatives, by column, as the pattern's slot sends them
    row = row_of_bus[pat.i]
    start, width = pat.indptr[row], counts[row]
    at = pat.slot[:4 * n_terms].reshape(4, n_terms) - start
    free = pat.cols.T >= 0
    both = free[:, None, :] & free[None, :, :]
    pairs = pair_at[row] + at[None, :, :] * width + at[:, None, :]
    spare = np.repeat(nnz, np.diff(term_at))
    pos = np.where(both, pair_slot[np.where(both, pairs, 0)], spare)
    return [pos[:, :, t0:t1].ravel() for t0, t1 in zip(term_at[:-1].tolist(), term_at[1:].tolist())]


def _complex_quotient(ar, ai, br, bi):
    """(ar + j ai) / (br + j bi) elementwise, as real and imaginary parts,
    by the algorithm and operation order of Python's complex division
    (Smith's, CPython's ``_Py_c_quot``), so each quotient equals Python's
    bit for bit, signed zeros included: scaled by the larger of |br| and
    |bi|, NaN if either is NaN."""
    if np.any((br == 0.0) & (bi == 0.0)):
        raise ZeroDivisionError("complex division by zero")
    by_re = np.abs(br) >= np.abs(bi)
    big, small = np.where(by_re, br, bi), np.where(by_re, bi, br)
    ratio = small / big
    denom = big + small * ratio
    # scaled by br: (ar + ai*ratio, ai - ar*ratio) / denom; by bi:
    # (ar*ratio + ai, ai*ratio - ar) / denom, the same sums with the pair
    # (u, w) swapped, as a float sum does not depend on the order of its terms
    u, w = np.where(by_re, ar, ai), np.where(by_re, ai, ar)
    ur = u * ratio
    return (u + w * ratio) / denom, np.where(by_re, w - ur, ur - w) / denom


def _offsets(sizes) -> np.ndarray:
    """Start of each block and the total, for blocks of the given sizes."""
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


class NetworkUnion:
    """Several networks side by side as one network, for their evaluation.

    Its buses, admittance nonzeros, residual rows and free entries are
    those of ``nets``, network after network, each index shifted by the
    networks before it, so its Jacobian is block diagonal with each
    network's CSR pattern as a block.  It carries what
    :mod:`hdpf.residual` reads of a network to evaluate the flow terms (the
    Jacobian pattern's term arrays, not the full admittance), the residual,
    the Jacobian's values and Q's curvature weights (each term's residual
    rows, by ``row_of_bus``), so one evaluation of the union evaluates
    every network.  Its Jacobian pattern is built when the union is made,
    from the networks' admittance arrays put side by side; a union of one
    network takes that network's.

    ``bounds`` holds, for each network and then for the total, its first
    residual row, free entry, Jacobian nonzero, term and bus in the union,
    and ``slices`` each network's slices of those five.

    Its state is one (4, n_bus) table, the networks' side by side, as are
    ``free`` and the specified values, which :func:`flat_start` reads.
    """

    def __init__(self, nets):
        nets = self.nets = tuple(nets)
        bus = _offsets([net.n_bus for net in nets])
        rows = _offsets([2 * net.n_core for net in nets])
        free = _offsets([net.n_free for net in nets])
        self.n_bus, self.n_core, self.n_free = int(bus[-1]), int(rows[-1]) // 2, int(free[-1])
        for name in ("free", "theta_spec", "v_spec", "p_spec", "q_spec"):
            setattr(self, name, np.concatenate([getattr(net, name) for net in nets], axis=-1))
        if len(nets) == 1:
            (net,) = nets
            self.core_idx, self.row_of_bus, col = net.core_idx, net.row_of_bus, net.col
            self.jac_pattern = net.jac_pattern
        else:
            def cat(arrays, shifts=None):
                """The arrays one after another, each plus its shift if given."""
                if shifts is not None:
                    arrays = [a + shift for a, shift in zip(arrays, shifts)]
                return np.concatenate(list(arrays))

            self.core_idx = cat([net.core_idx for net in nets], bus)
            self.row_of_bus = cat(np.where(net.row_of_bus >= 0, net.row_of_bus + r, -1)
                                  for net, r in zip(nets, rows))
            col = np.concatenate([np.where(net.col >= 0, net.col + f, -1)
                                  for net, f in zip(nets, free)], axis=1)
            self.jac_pattern = _jac_pattern(
                cat([net.y_row for net in nets], bus), cat([net.y_col for net in nets], bus),
                cat(net.g_val for net in nets), cat(net.b_val for net in nets),
                self.row_of_bus, col, self.core_idx, self.n_free)
        self.free_at = np.empty(self.n_free, dtype=np.int64)
        self.free_at[col[col >= 0]] = np.flatnonzero(col >= 0)
        pat = self.jac_pattern
        # the terms are listed network after network, each by its row bus
        self.bounds = np.stack([rows, free, pat.indptr[rows], np.searchsorted(pat.i, bus), bus],
                               axis=1)
        edges = self.bounds.tolist()
        self.slices = [tuple(map(slice, lo, hi)) for lo, hi in zip(edges, edges[1:])]

    @functools.cached_property
    def grams(self) -> list[tuple[tuple[np.ndarray, np.ndarray], GramPattern]]:
        """Each network's pairs, the positions (a, b) in its Jacobian's CSR
        values of every two nonzeros sharing a row, row by row, so a
        bincount over their products adds each entry of J'J in ascending row
        order, as a sparse J'J does; and its :class:`GramPattern`."""
        return _gram_maps(self.jac_pattern, self.bounds[:, 0], self.bounds[:, 1])

    @functools.cached_property
    def q_slots(self) -> list[np.ndarray]:
        """Each network's position in its :class:`GramPattern` of every entry
        of each term's 4x4 curvature block, as :func:`hdpf.residual.q_term`
        lists them (row-major over the block, every term per entry); an
        entry on a fixed column goes to the spare bin ``len(indices)``.  A
        term's four columns lie in one Jacobian row, so the pattern holds
        every entry."""
        return _q_slots(self.jac_pattern, self.row_of_bus, self.grams, self.bounds[:, 3])


class StateVector:
    """A network's (or a union's) state as one (4, n_bus) table ``x`` with
    rows (theta, v, p, q); ``theta``, ``vm``, ``p`` and ``q`` are writable
    views of its rows.

    The free vector is ``x.ravel()[net.free_at]``: ``x[net.free]``,
    quantity-major in C order, or a union's networks' one after another.  A
    copy bus's p and q are never free, no residual reads them, and
    :func:`flat_start` sets them to zero.
    """

    __slots__ = ("net", "x")

    def __init__(self, net: NetworkModel, theta, vm, p, q):
        self.net = net
        self.x = np.array([theta, vm, p, q], dtype=float)

    theta = property(lambda self: self.x[0])
    vm = property(lambda self: self.x[1])
    p = property(lambda self: self.x[2])
    q = property(lambda self: self.x[3])

    def free(self) -> np.ndarray:
        """Free entries, in the free vector's order."""
        return self.x.take(self.net.free_at)

    def with_free(self, vec: np.ndarray) -> "StateVector":
        """New state with the free entries replaced; fixed entries untouched."""
        n = self.net.n_free
        if vec.shape != (n,):
            raise ValueError(f"free vector must have shape ({n},), got {vec.shape}")
        out = self.copy()
        out.x.put(self.net.free_at, vec)
        return out

    def copy(self) -> "StateVector":
        return StateVector(self.net, *self.x)


def build_network(case: RawCase) -> NetworkModel:
    """Build the per-unit model of a merged case or of one region's case.

    Buses are ordered by id.  A case without copy buses needs exactly one
    slack bus; a case with copy buses is a region and has at most one.
    The admittance matrix uses the standard pi branch model: series
    admittance 1/(r+jx), half the line charging at each end, tap ratio and
    phase shift on the from side, bus shunts on the diagonal.  Out-of-service
    branches are skipped; a generator or branch at a bus the case lacks,
    zero-impedance branches and isolated buses are rejected.
    """
    return NetworkModel(case)


def flat_start(net: NetworkModel | NetworkUnion) -> StateVector:
    """Initial state of a network or a union: zero angles and unit
    magnitudes on all free entries.

    Fixed entries take their specified values, and the injections start at
    the specified net injection; a copy bus has no demand and no generator,
    so its p and q are +0.0.
    """
    theta = np.where(net.free[0], 0.0, net.theta_spec)
    vm = np.where(net.free[1], 1.0, net.v_spec)
    return StateVector(net, theta, vm, net.p_spec, net.q_spec)
