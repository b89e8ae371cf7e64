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
network alone, so each model computes its index maps once, on first use,
and keeps them (``functools.cached_property``):

- :attr:`NetworkModel.jac_pattern`: the Jacobian's terms (each admittance
  nonzero (i, k) on a core row, as arrays of i, k, G_ik and B_ik, the only
  admittance entries the evaluation reads, with its columns theta_i,
  theta_k, v_i and v_k), its CSR pattern, and the slot in it of each term
  derivative;
- :attr:`NetworkModel.jtj_pairs`, for each Jacobian row every pair (a, b)
  of its nonzeros, whose product adds into one entry of J'J;
- :attr:`NetworkModel.jtj_pattern`, the CSC pattern of J'J + eps*I, the
  column of each of its nonzeros, and the position in it of each pair's
  product and of each diagonal entry;
- :attr:`NetworkModel.q_slots`, the position in ``jtj_pattern`` of every
  entry of each term's 4x4 curvature block in the diagnostic
  :func:`hdpf.residual.q_term`;
- :attr:`NetworkModel.union`, the network as a :class:`NetworkUnion` of
  one, through which :func:`hdpf.residual.linearize` evaluates it.

A region's model builds the Jacobian's pattern, ``jtj_pairs`` and
``jtj_pattern``, on which B's values live; only when diagnosed, also
``q_slots``, as Q's values live there too.  The merged network, used for
stitching and by the sparse reference, builds only the Jacobian's
pattern.

A :class:`NetworkUnion` puts several networks side by side as one, from
their Jacobian patterns (the term arrays concatenated, bus indices
shifted; the full admittance arrays are not copied) and residual rows
(``row_of_bus``, shifted); a partitioned problem builds the union of its
regions on its first solve, and the solvers evaluate every region
through it in one pass, Q included when diagnosed.
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

    slot: np.ndarray     # position of each jtj_pairs product
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
        for br in case.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in pos:
                    raise ModelError(
                        f"branch {br.from_bus}-{br.to_bus} references unknown bus {end}")

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
        bad = self.bus_ids[np.isin(self.bus_type, regulated) & ~(self.v_spec > 0.0)]
        if len(bad):
            raise ModelError(f"non-positive voltage setpoint at PV or slack bus(es) {bad.tolist()}")

        self._assemble_admittance(buses, case.branches, pos)
        self._index_free_entries()

    # -- admittance ---------------------------------------------------------

    def _assemble_admittance(self, buses, branches, pos):
        n = self.n_bus
        rows: list[int] = []
        cols: list[int] = []
        vals: list[complex] = []

        touched = np.zeros(n, dtype=bool)
        for br in branches:
            if not br.in_service:
                continue
            if br.r == 0.0 and br.x == 0.0:
                raise ModelError(f"zero-impedance branch {br.from_bus}-{br.to_bus}")
            f, t = pos[br.from_bus], pos[br.to_bus]
            tap = br.tap_ratio if br.tap_ratio != 0.0 else 1.0
            shift = math.radians(br.phase_shift)
            ys = 1.0 / complex(br.r, br.x)
            ysh = 0.5j * br.total_line_charging_b
            a = tap * complex(math.cos(shift), math.sin(shift))
            rows += [f, f, t, t]
            cols += [f, t, f, t]
            vals += [
                (ys + ysh) / (tap * tap),
                -ys / a.conjugate(),
                -ys / a,
                ys + ysh,
            ]
            touched[f] = True
            touched[t] = True

        if n > 1 and not touched.all():
            lonely = self.bus_ids[~touched]
            raise ModelError(f"isolated bus(es) with no in-service branch: {lonely.tolist()}")

        # bus shunts, plus a structural zero so every diagonal entry exists
        base = self.base_mva
        rows += range(n)
        cols += range(n)
        vals += [complex(b.shunt_g / base, b.shunt_b / base) for b in buses]

        y = sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex).tocsr()
        y.sum_duplicates()
        self.ybus = y
        coo = y.tocoo()
        self.y_row = coo.row.astype(np.int64)
        self.y_col = coo.col.astype(np.int64)
        self.g_val = coo.data.real.copy()
        self.b_val = coo.data.imag.copy()

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

        # every state entry that exists, free or fixed: 4 per core bus, 2 per copy
        self.n_state_entries = 4 * self.n_core + 2 * int(is_copy.sum())

    # -- index maps of the linearization ------------------------------------

    @functools.cached_property
    def jac_pattern(self) -> JacobianPattern:
        """The Jacobian's CSR pattern and the map from listed values into it."""
        terms = self.row_of_bus[self.y_row] >= 0
        i, k = self.y_row[terms], self.y_col[terms]
        th, v = self.col[0], self.col[1]
        cols = np.stack([th[i], th[k], v[i], v[k]], axis=1)
        core = self.core_idx
        p_term, p_core = self.row_of_bus[i], self.row_of_bus[core]
        n = self.n_free
        # row and column of each listed value, in the order the class lists them
        rows = np.concatenate([np.tile(p_term, 4), np.tile(p_term + 1, 4), p_core, p_core + 1])
        cols_all = np.concatenate([np.tile(cols.T.ravel(), 2), self.col[2, core], self.col[3, core]])
        # sorted flat keys are CSR order; the sentinel, past every real key,
        # is the spare bin of the values on fixed columns
        sentinel = 2 * self.n_core * n
        keys = np.where(cols_all >= 0, rows * n + cols_all, sentinel)
        uniq, slot = np.unique(np.append(keys, sentinel), return_inverse=True)
        csr_rows = uniq[:-1] // n
        counts = np.bincount(csr_rows, minlength=2 * self.n_core)
        return JacobianPattern(i=i, k=k, g=self.g_val[terms], b=self.b_val[terms],
                               cols=cols, slot=slot[:-1], rows=csr_rows,
                               indices=uniq[:-1] % n,
                               indptr=np.concatenate([[0], np.cumsum(counts)]))

    @functools.cached_property
    def jtj_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR positions (a, b) of every pair of nonzeros sharing a Jacobian
        row.

        Pairs run row by row, so a bincount over their entries of J'J adds
        each entry's products in ascending row order, as a sparse J'J does.
        """
        pat = self.jac_pattern
        counts = np.diff(pat.indptr)
        n_pairs = counts * counts
        first = np.repeat(pat.indptr[:-1], n_pairs)
        width = np.repeat(counts, n_pairs)
        t = np.arange(int(n_pairs.sum())) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
        a = first + t // width
        b = first + t % width
        return a, b

    @functools.cached_property
    def jtj_pattern(self) -> GramPattern:
        """CSC pattern of J'J + eps*I over the entries of the ``jtj_pairs``,
        ``col_a * n_free + col_b`` flat, and the diagonal."""
        n = self.n_free
        a, b = self.jtj_pairs
        indices = self.jac_pattern.indices
        target = indices[a] * n + indices[b]
        keys = np.concatenate([target, np.arange(n) * (n + 1)])
        if n * n <= 8 * len(keys):  # a small square: rank the keys by a mark in it, not a sort
            rank = np.zeros(n * n, dtype=np.intp)
            rank[keys] = 1
            uniq = np.flatnonzero(rank)
            rank[uniq] = np.arange(len(uniq))
            slot = rank[keys]
        else:
            uniq, slot = np.unique(keys, return_inverse=True)
        cols = uniq // n
        counts = np.bincount(cols, minlength=n)
        return GramPattern(slot=slot[:len(target)], diag=slot[len(target):],
                           indices=(uniq % n).astype(np.int32),
                           indptr=np.concatenate([[0], np.cumsum(counts)]).astype(np.int32),
                           cols=cols)

    @functools.cached_property
    def union(self) -> NetworkUnion:
        """The network as a union of one, built on first use, through which
        :func:`hdpf.residual.linearize` evaluates it."""
        return NetworkUnion((self,))

    @functools.cached_property
    def q_slots(self) -> np.ndarray:
        """Position in :attr:`jtj_pattern` of every entry of each term's 4x4
        curvature block, listed as :func:`hdpf.residual.q_term` lists them
        (row-major over the block, every term per entry); an entry on a
        fixed column goes to the spare bin ``len(indices)``.

        A term's four columns all lie in its Jacobian row, so every entry of
        its block is a pair of ``jtj_pairs`` and the pattern holds it.
        """
        cols = self.jac_pattern.cols.T
        r, c = cols[:, None, :], cols[None, :, :]
        free = (r >= 0) & (c >= 0)
        n = self.n_free
        # the pattern's flat keys col * n_free + row, ascending in CSC order
        keys = self.jtj_pattern.cols * n + self.jtj_pattern.indices
        pos = np.searchsorted(keys, np.where(free, c * n + r, 0))
        return np.where(free, pos, len(keys)).ravel()


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
    every network.  Everything is built from the networks' own maps when
    the union is made.
    """

    def __init__(self, nets):
        nets = self.nets = tuple(nets)
        pats = [net.jac_pattern for net in nets]
        bus = _offsets([net.n_bus for net in nets])
        rows = _offsets([2 * net.n_core for net in nets])
        free = _offsets([net.n_free for net in nets])
        jac = _offsets([len(pat.indices) for pat in pats])
        self.n_bus, self.n_core, self.n_free = int(bus[-1]), int(rows[-1]) // 2, int(free[-1])

        def cat(arrays, shifts=None):
            """The arrays one after another, each plus its shift if given."""
            if shifts is not None:
                arrays = [a + shift for a, shift in zip(arrays, shifts)]
            return np.concatenate(list(arrays))

        self.core_idx = cat([net.core_idx for net in nets], bus)
        self.row_of_bus = cat(np.where(net.row_of_bus >= 0, net.row_of_bus + r, -1)
                              for net, r in zip(nets, rows))
        # a network lists its term derivatives in eight blocks of n_terms
        # values, then its injection entries in two blocks of n_core; the
        # union lists each block of every network in turn, and sends a value
        # on a fixed column to its own spare bin
        blocks = [np.split(np.where(pat.slot < len(pat.indices), pat.slot + j, jac[-1]),
                           np.cumsum([len(pat.i)] * 8 + [net.n_core]))
                  for net, pat, j in zip(nets, pats, jac)]
        self.jac_pattern = JacobianPattern(
            i=cat([pat.i for pat in pats], bus), k=cat([pat.k for pat in pats], bus),
            g=cat(pat.g for pat in pats), b=cat(pat.b for pat in pats),
            cols=cat(np.where(pat.cols >= 0, pat.cols + f, -1) for pat, f in zip(pats, free)),
            slot=cat(b[i] for i in range(10) for b in blocks),
            rows=cat([pat.rows for pat in pats], rows),
            indices=cat([pat.indices for pat in pats], free),
            indptr=np.append(cat([pat.indptr[:-1] for pat in pats], jac), jac[-1]),
        )


class StateVector:
    """A network's state as one (4, n_bus) table ``x`` with rows (theta, v,
    p, q); ``theta``, ``vm``, ``p`` and ``q`` are writable views of its rows.

    The free vector is ``x[net.free]``, quantity-major in C order.  A copy
    bus's p and q are never free, no residual reads them, and
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
        """Free entries, quantity-major (theta, v, p, q blocks)."""
        return self.x[self.net.free]

    def with_free(self, vec: np.ndarray) -> "StateVector":
        """New state with the free entries replaced; fixed entries untouched."""
        n = self.net.n_free
        if vec.shape != (n,):
            raise ValueError(f"free vector must have shape ({n},), got {vec.shape}")
        out = self.copy()
        out.x[self.net.free] = vec
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


def flat_start(net: NetworkModel) -> StateVector:
    """Initial state: zero angles and unit magnitudes on all free entries.

    Fixed entries take their specified values, and the injections start at
    the specified net injection; a copy bus has no demand and no generator,
    so its p and q are +0.0.
    """
    theta = np.where(net.free[0], 0.0, net.theta_spec)
    vm = np.where(net.free[1], 1.0, net.v_spec)
    return StateVector(net, theta, vm, net.p_spec, net.q_spec)
