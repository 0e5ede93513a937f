"""Simulation oracle for the analytic reception pipeline.

Samples the two roads' point processes on a finite window, applies the
MAC (independent thinning for Aloha, the exact Matern type II hard-core
law for CSMA - deliberately not the PPP approximation, so the
approximation error of the analytic CSMA model is measurable), draws
per-interferer fading from the scenario's true distributions (log-normal
included), and estimates the outage probability P(SINR < beta).

Estimator (conditional Monte Carlo, Rao-Blackwell; Asmussen & Glynn,
Stochastic Simulation, 2007). Given a realization's interference I, the
link fails iff the useful fading S0 < t = beta (N~ + I) / g, with g the
useful path gain, so each realization contributes p_r = F_S0(t), the
useful fading's CDF, instead of its 0/1 outcome. The mean of the p_r is
unbiased for the outage, and since p_r is in [0, 1] its variance is at
most the indicator's. Only the useful link's closed-form CDF enters
(``propagation.fading_cdf_array``), no Laplace transform, so the oracle
stays independent of the analytic engine. S0 is still drawn and the
failures still counted, for the tests' failure-fraction reference.

Reproducibility contract: a run is a pure function of (scenario, links,
settings) and, for an Aloha job, of the p values of its group (below).
Realizations are processed in chunks: a group's n realizations are cut
into ceil(n / rows) chunks whose sizes differ by at most one row
(_chunk_sizes), rows being the most a chunk may hold under its cell
budget (_plan_rows). Chunk i draws everything it needs from its own
SFC64 stream, seeded by SeedSequence(seed, spawn_key=(i,)), and the
chunk layout depends only on the group's scenarios and settings, never
on ``workers``. Jobs that share draws form groups (_group_key):

- Under CSMA every node is drawn at its road's density, so neither the
  draws nor the chunk layout depend on the sensing range delta: CSMA
  jobs whose scenarios are equal except for delta share each chunk's
  draws, and a job's bits are the ones it gets alone.
- Aloha jobs equal except for p whose links have the same set of
  receivers draw each chunk once, as independent Poisson layers of
  density (p_k - p_(k-1)) lambda, one per p (_draw_chunk): the layers
  up to p_k are the road's process thinned to p_k, so each p keeps its
  law, and the jobs share common random numbers. A job's bits depend
  on the set of p values in its group, not on job order or on jobs
  outside it; a group with one p draws what each of its jobs draws alone.

``simulate_outages`` takes a batch of (scenario, links) jobs and
evaluates every chunk of every group on one pool of ``workers``
threads, so a batch of one-chunk jobs runs in parallel too. Threads only
decide who evaluates which chunk for which jobs (the Matern II retained
nodes at one delta do not depend on the other deltas evaluated with
it). Each chunk gives every link its failure count and the mean and sum
of squared deviations (M2) of its p_r, and each job merges its chunks'
statistics in chunk order (Chan et al.'s pairwise update), so no worker
count changes a bit.

Per-chunk draw order (fixed, do not reorder): H counts, V counts, H
positions, V positions, [H marks, V marks when CSMA], H fading, V
fading, useful fading. Each road's counts are one Poisson call of
(layer x row) shape, one layer but for an Aloha group with several p.

Each road's nodes are drawn as flat arrays, exactly as many as its
Poisson counts. Under CSMA they are read row (realization) after row,
and each row's positions are sorted in place before the marks and the
fading are drawn, so nothing is gathered after the draws; an Aloha
group reads them in segments (below). An interferer's gain at a
receiver is fad * A * r^-alpha, taken as
(r^2)^(-alpha / 2) of the squared distance with no square root (at
alpha = 2 a true ``np.reciprocal`` per node, with the bits of
``** -1.0``). The useful link keeps ``propagation.path_loss``.

Per-chunk work. Aloha keeps every drawn node (its thinning is folded
into the draw), and each road's nodes are read as segments (level, row),
level-major, the group's smallest p first, so that every p's nodes are
a contiguous prefix. One pass (_interference) per chunk sums each
segment for every receiver of the group, and a running sum over the
levels gives each p its interference, row by row (_level_interference).
Under CSMA the chunk
is drawn and retained in one call: one call of the Matern II kernel
gives the retained nodes at every delta of the task's jobs, because
retention depends on the marks alone; it walks the deltas in increasing
order, and each delta only checks the survivors of the one before. Each
CSMA job then runs the pass on its retained nodes, each distinct
transmitter's kill disc masking its receivers' rows of the block. The
pass walks each road in blocks of whole segments, all distinct
receivers sharing one broadcast (receiver x node) block, and sums each
segment over its own nodes (_row_sums), so no sum depends on the block
size or on the other receivers and links.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .mac import access_probability_from_mass
# Unused here; perfbench's tracer patches it by name.
from .mac import access_probability  # noqa: F401
from .model import (EUCLIDEAN, Aloha, Csma, LinkSpec, PathLossSpec, Position,
                    Scenario)
from .propagation import fading_cdf_array, path_loss, sample_fading_array

# Cells-per-chunk budgets keep peak memory flat as densities change. The
# hard-core kernel keeps keys, marks and per-delta work arrays besides
# the draws, hence the tighter budget. The budgets set the
# chunk layout, so changing one changes the Monte Carlo bits.
# The Aloha budget is 2^21 cells. At 2^22 a 1000-realization fig4 group
# of the access-sweep benchmark (top p = 0.3) was one 1000-row chunk,
# run by one thread at workers = 2; at 2^21 it is two chunks of 500,
# and that workload's Monte Carlo pass went 0.118 -> 0.088 s (medians
# of 10 runs each, 2-core host) and its peak memory 121 -> 102 MB.
# More chunks cost memory churn, though: the fig2 preset (105 chunks of
# about 952 rows, 53 of 1909 before) takes about twice the page faults
# and about 4% longer. At 2^20 fig2 took three times the page faults,
# and 4.3-4.5 s against 3.6-3.7 s at workers = 1.
_CELL_BUDGET_IID = 1 << 21
_CELL_BUDGET_MATERN = 1 << 18
_MAX_ROWS = 4096
# Cells per broadcast block of the interference pass (_interference):
# all of a job's distinct receivers share one block, and each gain step
# (the squared distance, the power law, at alpha = 2 a true reciprocal,
# the two products) is one numpy call on it. Blocks hold whole rows, so
# the block size does not change the bits. At 2^15 the calls were too
# short to beat one call per receiver on aloha-distance; 2^17 (1 MB) was
# faster and, with one buffer for both roads, added under 1 MB of peak
# memory.
_BLOCK_CELLS = 1 << 17
# Sorted neighbours on each side that the Matern kernel compares a node
# with before it runs the node's full window query.
_NEIGHBOUR_SCREEN = 3
_ROADS = ("h", "v")
# The smallest standard error reported: neither engine resolves an
# outage probability finer than one unit in the last place of 1.0.
STDERR_FLOOR = 2.0 ** -52


@dataclass(frozen=True)
class SimSettings:
    """A run's size, window, seed and ``workers``, the most threads it
    may use (at most one per CPU); no output bit depends on ``workers``."""

    realizations: int
    window_half_length: float = 20000.0
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.realizations < 1:
            raise ValueError(
                f"realizations must be >= 1, got {self.realizations}")
        w = self.window_half_length
        if not (math.isfinite(w) and w > 0):
            raise ValueError(
                f"window_half_length must be finite and positive, got {w}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class OutageEstimate:
    """An outage estimate, the mean of the n per-realization p_r, and
    its standard error, never below ``STDERR_FLOOR``: the sample
    standard error sqrt(M2 / (n (n - 1))) of the p_r, or at n = 1 the
    bound sqrt(p (1 - p)) that any [0, 1]-valued draw obeys."""

    p_out: float
    std_err: float


def _stream(seed: int, chunk_index: int) -> np.random.Generator:
    # A spawn key, not SeedSequence([seed, chunk]), whose trailing zero
    # words do not count: (5, 1) and (2^32 + 5, 0) would share a stream.
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(chunk_index,))))


# --- Matern II kernel --------------------------------------------------------
#
# Batched over realizations (rows), and run once per chunk for all the
# deltas of a task: retention depends on the marks alone, so every link
# of a job shares it and only applies its own transmitter's kill disc
# afterwards (_clear_of_tx).
#
# Each road's nodes come sorted by position within their row, rows in
# order, as one flat array (_draw_chunk), so their keys, key = row * span
# + position with span = 2 * window + 4, increase. Every window is
# clipped to [-window - 1, window + 1] of its row, which keeps every
# node, so rows cannot overlap at any delta and the keys serve every
# delta. Every contention window is then a contiguous slice of the marks, and
# one np.minimum.reduceat over the interleaved window bounds answers
# "smallest mark in [lo, hi)" for many nodes at once. A node is retained
# iff its own mark IS the window minimum on its own road (the window
# includes the node itself, which spares an exclusion pass) and strictly
# beats the other road's window. Before the own-road query, each node
# is compared with its _NEIGHBOUR_SCREEN nearest queried neighbours on
# each side, using the same key bounds as the query; a node one of them
# beats is out, and only the rest are queried. The other road's window
# is the chord centered on the intersection, so it is empty unless
# |z| <= delta, and it is only queried for those nodes that already won
# their own road.
#
# The deltas are nested (_retain): windows only grow with delta, and
# every key bound is a correctly rounded, monotone function of delta,
# so the survivors at one delta contain those at any larger delta, and
# each delta after the smallest queries only the survivors of the one
# before. The retained nodes come back as increasing indices into the
# road's flat arrays.

def _row_offsets(counts: np.ndarray, window: float) -> np.ndarray:
    """Each node's row offset in key space, row * (2 * window + 4), for
    rows of ``counts`` nodes each, laid out row after row."""
    return np.repeat(np.arange(len(counts)) * (2.0 * window + 4.0), counts)


def _pack(z: np.ndarray, off: np.ndarray, marks: np.ndarray,
          window: float) -> dict:
    """One road's nodes for the Matern kernel: positions ``z``, sorted
    within each row, and row offsets ``off`` (_row_offsets), whose sum
    is the increasing key, and the marks with a +inf sentinel appended.
    ``window`` bounds every |position|, and _retain clips every window
    to [-edge, edge] with edge = window + 1, so no window reaches into
    another row at any delta. Nothing here depends on delta, and nothing
    changes a pack, so every delta of a chunk shares one per road."""
    return {"z": z, "off": off, "key": z + off, "edge": window + 1.0,
            "mark": np.append(marks, np.inf)}


def _window_min(pack: dict, lo_key: np.ndarray,
                hi_key: np.ndarray) -> np.ndarray:
    """Min mark of ``pack`` with lo_key <= key <= hi_key, +inf if none.
    reduceat over the interleaved bounds (lo, hi) puts each window's min
    in the even slots. An odd slot reduces the gap up to the next window,
    or reads one mark if that window starts sooner; queries come row by
    row, so the gaps add up to at most one pass over the marks. The +inf
    sentinel keeps hi == len(key) a valid index."""
    lo = np.searchsorted(pack["key"], lo_key, side="left")
    hi = np.searchsorted(pack["key"], hi_key, side="right")
    mins = np.minimum.reduceat(pack["mark"],
                               np.stack((lo, hi), axis=1).ravel())
    return np.where(hi > lo, mins[::2], np.inf)


def _retain(h: dict, v: dict,
            deltas: list[float]) -> dict[float, tuple[np.ndarray, np.ndarray]]:
    """Matern II retained nodes of both packed roads at each sensing
    range in ``deltas``, as {delta: (kept_h, kept_v)}, each an increasing
    index array into its road's flat arrays. The tagged transmitter's
    kill disc is not applied here.

    The distinct deltas are walked in increasing order. Every key bound
    is a correctly rounded, monotone function of delta, so a node's
    windows at a larger delta contain its windows at a smaller one, and
    a node retained at a larger delta is retained at every smaller one.
    The first delta screens and queries every node; each later delta
    screens and queries only the previous delta's survivors, against the
    whole road. Each delta's result is therefore the one it gets alone,
    whatever other deltas share the call."""
    live = [None, None]  # per road: the previous delta's survivors
    kept = {}
    for delta in sorted(set(deltas)):
        delta_sq = delta * delta
        for r, (own, cross) in enumerate(((h, v), (v, h))):
            at = slice(None) if live[r] is None else live[r]
            z, off, key = own["z"][at], own["off"][at], own["key"][at]
            mark, edge = own["mark"][:-1][at], own["edge"]
            lo_key = z - delta
            np.maximum(lo_key, -edge, out=lo_key)
            lo_key += off
            hi_key = z + delta
            np.minimum(hi_key, edge, out=hi_key)
            hi_key += off
            # A node beaten by one of its nearest queried neighbours inside
            # its window cannot win; only the others need the window query.
            keep = np.ones(z.shape, dtype=bool)
            for k in range(1, _NEIGHBOUR_SCREEN + 1):
                keep[k:] &= (key[:-k] < lo_key[k:]) | (mark[:-k] >= mark[k:])
                keep[:-k] &= (key[k:] > hi_key[:-k]) | (mark[k:] >= mark[:-k])
            sel = np.flatnonzero(keep)
            sel = sel[mark[sel] == _window_min(own, lo_key[sel], hi_key[sel])]
            # The other road's window is the chord through the
            # intersection, empty unless |z| <= delta.
            zs = z[sel]
            cross_gap = delta_sq - zs * zs
            near = cross_gap >= 0.0
            reach = np.minimum(np.sqrt(cross_gap[near]), edge)
            nodes = sel[near]
            won = np.ones(sel.shape, dtype=bool)
            won[near] = mark[nodes] < _window_min(
                cross, off[nodes] - reach, off[nodes] + reach)
            sel = sel[won]
            live[r] = sel if live[r] is None else live[r][sel]
        kept[delta] = tuple(live)
    return kept


def _clear_of_tx(road: str, pos: np.ndarray, tx: Position,
                 delta: float) -> np.ndarray:
    """Nodes of ``road`` outside the tagged transmitter's kill disc."""
    along, perp = (tx.x, tx.y) if road == "h" else (tx.y, tx.x)
    return (pos - along) ** 2 + perp ** 2 > delta * delta


# --- SINR engine -------------------------------------------------------------

def _effective_lambda(scenario: Scenario, road: str) -> float:
    lam = scenario.roads.density(road)
    mac = scenario.mac
    if isinstance(mac, Aloha):
        # Independent thinning commutes with sampling: drawing the
        # thinned PPP directly is the same law as sample-then-thin.
        return mac.p * lam
    if isinstance(mac, Csma):
        return lam
    return 0.0


def _plan_rows(scenario: Scenario, settings: SimSettings) -> int:
    est_cells = 0
    for road in _ROADS:
        mean = 2.0 * settings.window_half_length * _effective_lambda(scenario, road)
        est_cells += int(mean + 10.0 * math.sqrt(mean) + 16.0)
    budget = (_CELL_BUDGET_MATERN if isinstance(scenario.mac, Csma)
              else _CELL_BUDGET_IID)
    return max(1, min(_MAX_ROWS, budget // max(est_cells, 1)))


def _chunk_sizes(n: int, rows: int) -> list[int]:
    """The rows of each chunk of n realizations: ceil(n / rows) chunks of
    at most ``rows`` rows, whose sizes differ by at most one, so that a
    pool's threads get about equal shares of a job's work."""
    count = -(-n // rows)
    return [n * (i + 1) // count - n * i // count for i in range(count)]


def _weighted_gains(road: str, pos: np.ndarray, fad: np.ndarray,
                    loss: PathLossSpec, rx_x: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """fad * A * r^-alpha at each receiver (x, 0), x in ``rx_x``, as an
    array of shape (len(rx_x),) + pos.shape, written into ``out`` if
    given. Every step runs once for all receivers, broadcast along the
    leading axis. The power law is taken of the squared distance,
    (r^2)^(-alpha / 2), so no cell needs a square root; at alpha = 2 it
    is a true reciprocal, which has the bits of ``**= -1.0`` at about
    half its cost. Every step after the first works in place."""
    x = rx_x.reshape((-1,) + (1,) * pos.ndim)
    g = _road_distance_sq(road, pos, x, loss.norm, out)
    if loss.alpha == 2.0:
        np.reciprocal(g, out=g)
    else:
        g **= -loss.alpha / 2.0
    g *= loss.amplitude_a
    g *= fad
    return g


def _road_distance_sq(road: str, positions: np.ndarray, x: np.ndarray,
                      norm: str, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distance from receivers (x, 0) on the H road to nodes of
    ``road``, broadcast over ``x`` and ``positions``: (z - x)^2 on H,
    z^2 + x^2 on a Euclidean V road and (|z| + |x|)^2 on a Manhattan
    one. On V, z^2 or |z| is taken once, into the first receiver's
    slice, and every receiver's shift is added from there, so no
    temporary array is made."""
    if out is None:
        out = np.empty(x.shape[:1] + positions.shape)
    if road == "h":
        np.subtract(positions, x, out=out)
        return np.square(out, out=out)
    euclid = norm == EUCLIDEAN
    base = (np.square if euclid else np.abs)(positions, out=out[0])
    shift = x * x if euclid else np.abs(x)
    np.add(base, shift[1:], out=out[1:])
    base += shift[0]
    return out if euclid else np.square(out, out=out)


def _row_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per row r, the sum of values[..., starts[r]:starts[r + 1]], 0.0
    for a row without nodes. np.add.reduceat would give an empty row the
    value at its index, and takes no index past the end, so it only gets
    the starts of rows with nodes; each of their sums ends where the
    next such row starts."""
    sums = np.zeros(values.shape[:-1] + (len(starts) - 1,))
    full = starts[:-1] < starts[1:]
    if full.any():
        sums[..., full] = np.add.reduceat(values, starts[:-1][full], axis=-1)
    return sums


def _interference(scenario: Scenario, roads: list, links: list[LinkSpec],
                  delta: float | None) -> list[np.ndarray]:
    """Per-segment interference of each link, H road then V: one array
    per link, shared (a view) by the links of one (disc, receiver) pair.
    ``roads`` holds per road (H, V) the positions, fading and segment
    starts of its transmitting nodes, a segment being a realization's
    row or, in an Aloha group, a (level, row) (_draw_chunk); with a
    sensing range ``delta`` (CSMA) the nodes inside each link's
    transmitter's kill disc are silent.

    Each road is walked in blocks of whole segments, about _BLOCK_CELLS
    cells of (receiver x node) gains each, one segment at least, in one
    buffer. Per block, each kill disc (per distinct transmitter, or
    None) sums its receivers' rows, once per (disc, receiver) pair."""
    nrows = len(roads[0][2]) - 1
    discs: dict = {}  # kill disc -> {receiver: its row of the disc's sums}
    link_rows = []  # per link: its kill disc and its row of that disc's sums
    for link in links:
        disc = None if delta is None else link.tx
        rxs = discs.setdefault(disc, {})
        link_rows.append((disc, rxs.setdefault(link.rx, len(rxs))))
    # Each receiver's row of the broadcast block, in order of first use:
    # with no disc, the block's rows are the None disc's.
    receivers = {rx: i for i, rx in enumerate(
        dict.fromkeys(rx for rxs in discs.values() for rx in rxs))}
    sums = {disc: np.zeros((len(rxs), nrows)) for disc, rxs in discs.items()}
    nrx = len(receivers)
    rx_x = np.array([rx.x for rx in receivers])
    per_rx = max(1, _BLOCK_CELLS // nrx)
    widest = max(int(np.diff(starts).max()) for _, _, starts in roads)
    buf = np.empty(nrx * max(per_rx, widest))
    for road, (pos, fad, starts), loss in zip(
            _ROADS, roads, (scenario.loss_h, scenario.loss_v)):
        lo = 0
        while lo < nrows:
            # The most whole rows from row lo with at most per_rx nodes.
            hi = max(lo + 1, int(np.searchsorted(
                starts, starts[lo] + per_rx, side="right")) - 1)
            first, end = starts[lo], starts[hi]
            if end > first:
                out = buf[:nrx * (end - first)].reshape(nrx, end - first)
                _weighted_gains(road, pos[first:end], fad[first:end], loss,
                                rx_x, out)
                bounds = starts[lo:hi + 1] - first
                for disc, rxs in discs.items():
                    block = out if disc is None else np.where(
                        _clear_of_tx(road, pos[first:end], disc, delta),
                        out[[receivers[rx] for rx in rxs]], 0.0)
                    sums[disc][:, lo:hi] += _row_sums(block, bounds)
            lo = hi
    return [sums[disc][row] for disc, row in link_rows]


@dataclass(frozen=True)
class _Chunk:
    """One chunk's draws, shared by every job of its task. Per road (H,
    V), ``pos`` and ``fad`` are its nodes' positions and fading, segment
    after segment, segment s's nodes at [starts[s], starts[s + 1]); under
    CSMA the segments are the rows, and each row's positions increase.
    ``s0`` is the useful link's fading per realization. Under CSMA
    ``kept`` maps each delta of the task's jobs to its retained nodes,
    increasing indices into the road's arrays (_retain); it is None else.
    ``levels`` holds the MACs of the Poisson layers, the smallest Aloha
    p first; one MAC, and the segments are the rows, unless an Aloha
    group has several p values. Without CSMA,
    ``interference`` maps each (MAC, receiver) of the task's jobs to its
    per-realization interference (_level_interference)."""
    index: int
    pos: tuple[np.ndarray, np.ndarray]
    fad: tuple[np.ndarray, np.ndarray]
    starts: tuple[np.ndarray, np.ndarray]
    s0: np.ndarray
    kept: dict | None
    levels: tuple
    interference: dict | None = None


def _draw_chunk(scenarios: list[Scenario], settings: SimSettings,
                chunk_index: int, nrows: int) -> _Chunk:
    """Chunk ``chunk_index`` of a task whose jobs have ``scenarios``, all
    of one group, so that they share the draws; under CSMA it is also
    retained at every delta of the task's jobs.

    Each road's counts are one Poisson draw of (layer, row) shape: one
    layer per distinct p of an Aloha group, the smallest first, layer k
    of mean 2 w (p_k - p_(k-1)) lambda, and one layer for every other
    task. Read level-major, they are the road's segments (level, row),
    so every p's nodes are a contiguous prefix; with one layer the
    segments are the rows."""
    scenario = scenarios[0]
    rng = _stream(settings.seed, chunk_index)
    w = settings.window_half_length
    is_csma = isinstance(scenario.mac, Csma)
    macs = (sorted({s.mac for s in scenarios}, key=lambda mac: mac.p)
            if isinstance(scenario.mac, Aloha) else [scenario.mac])

    counts = []
    for road in _ROADS:
        # Each level's mean less the one below, so that a lone layer keeps
        # the bits of a lone job's mean.
        means = [2.0 * w * _effective_lambda(replace(scenario, mac=mac), road)
                 for mac in macs]
        layers = np.diff(means, prepend=0.0)[:, None]
        counts.append(rng.poisson(layers, (len(macs), nrows)).ravel())
    starts = [np.concatenate(([0], np.cumsum(c))) for c in counts]
    pos = [rng.uniform(-w, w, c.sum()) for c in counts]
    if is_csma:
        # Each row sorted in place, before the marks and the fading are
        # drawn for the sorted nodes.
        for z, bounds in zip(pos, starts):
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                z[lo:hi].sort()
        offs = [_row_offsets(c, w) for c in counts]
        marks = [rng.random(z.size) for z in pos]
    fad = tuple(sample_fading_array(f, rng, (z.size,))
                for f, z in zip((scenario.fading_h, scenario.fading_v), pos))
    s0 = sample_fading_array(scenario.fading_useful, rng, (nrows,))
    kept = (_retain(*map(_pack, pos, offs, marks, (w, w)),
                    [s.mac.delta for s in scenarios]) if is_csma else None)
    return _Chunk(chunk_index, tuple(pos), fad, tuple(starts), s0, kept,
                  tuple(macs))


def _level_interference(scenario: Scenario, links: list[LinkSpec],
                        chunk: _Chunk) -> _Chunk:
    """``chunk``, drawn without CSMA, with each (MAC, receiver)'s
    per-realization interference, for every receiver of ``links``: one
    pass (_interference) sums each segment, and each row's segment sums
    are added up over the levels, the smallest p first, in place."""
    sums = _interference(scenario, list(zip(chunk.pos, chunk.fad,
                                            chunk.starts)), links, None)
    interference = {}
    for rx, row in dict(zip((link.rx for link in links), sums)).items():
        levels = row.reshape(len(chunk.levels), -1)
        for lower, upper in zip(levels, levels[1:]):
            upper += lower
        interference.update(((mac, rx), level)
                            for mac, level in zip(chunk.levels, levels))
    return replace(chunk, interference=interference)


def _job_chunk(scenario: Scenario, links: list[LinkSpec],
               chunk: _Chunk) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per link of ``links``, on one chunk's draws: the failure count,
    and the mean and M2 (sum of squared deviations from that mean) of
    the conditional outage p_r = P(S0 < beta (N~ + I) / g) over the
    chunk's realizations."""
    s0 = chunk.s0
    if isinstance(scenario.mac, Csma):
        delta = scenario.mac.delta
        # Retained nodes only: positions, fading, and the bounds of each
        # row's retained nodes.
        roads = [(pos[kept], fad[kept], np.searchsorted(kept, starts))
                 for pos, fad, starts, kept in zip(
                     chunk.pos, chunk.fad, chunk.starts, chunk.kept[delta])]
        interference = _interference(scenario, roads, links, delta)
    else:
        # The group's shared pass, read at this job's p.
        interference = [chunk.interference[scenario.mac, link.rx]
                        for link in links]

    # Per link (a row each): beta (N~ + I) per realization, and the
    # useful path gain.
    need = np.empty((len(links), len(s0)))
    gain = np.empty((len(links), 1))
    for li, link in enumerate(links):
        gain[li] = path_loss(scenario.loss_useful, link.tx, link.rx)
        tilde_n = link.noise_w / link.power_w
        np.multiply(link.beta, tilde_n + interference[li], out=need[li])
    fails = np.count_nonzero(s0 * gain < need, axis=1)
    # The threshold on S0 is need / gain. With no useful signal it is
    # +inf where anything is to be beaten and 0 where nothing is, as the
    # strict comparison counts it; a threshold past the float range is
    # +inf too, and P(S0 < inf) = 1.
    dead = gain[:, 0] == 0.0
    if dead.any():
        need[dead] = np.where(need[dead] > 0.0, np.inf, 0.0)
        gain[dead] = 1.0
    with np.errstate(over="ignore"):
        need /= gain
    p = fading_cdf_array(scenario.fading_useful, need)
    means = p.mean(axis=1)
    p -= means[:, None]
    return fails, means, np.square(p, out=p).sum(axis=1)


def _warn(message: str) -> None:
    """Warn on behalf of the nearest caller outside this module, so the
    warning points at the code that called a public entry point."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _truncation_warnings(scenario: Scenario, links: list[LinkSpec],
                         settings: SimSettings) -> None:
    w = settings.window_half_length
    for tag, lam in (("lambda_h", scenario.roads.lambda_h),
                     ("lambda_v", scenario.roads.lambda_v)):
        if lam > 0 and w < 10.0 / lam:
            _warn(f"window half-length {w} m is under 10 mean spacings for "
                  f"{tag}={lam}; point counts will be tiny")
    if not links:
        return
    tilde_n = links[0].noise_w / links[0].power_w
    if tilde_n <= 0:
        return
    tail = 0.0
    mac = scenario.mac
    for road, loss in zip(_ROADS, (scenario.loss_h, scenario.loss_v)):
        lam_far = _effective_lambda(scenario, road)
        if isinstance(mac, Csma):
            lam_far *= access_probability_from_mass(2.0 * mac.delta * lam_far)
        tail += (2.0 * lam_far * loss.amplitude_a
                 * w ** (1.0 - loss.alpha) / (loss.alpha - 1.0))
    if tail > 1e-3 * tilde_n:
        _warn(f"expected interference truncated beyond the window "
              f"({tail:.3e}) exceeds 1e-3 of normalized noise "
              f"({tilde_n:.3e}); estimates carry a (usually small) "
              "truncation bias - enlarge window_half_length to reduce it")


def _estimate(n: int, mean: float, m2: float) -> OutageEstimate:
    """The reported estimate of a link whose n realizations have these
    merged statistics; see OutageEstimate."""
    var = m2 / (n * (n - 1.0)) if n > 1 else mean * (1.0 - mean)
    return OutageEstimate(p_out=mean,
                          std_err=max(math.sqrt(var), STDERR_FLOOR))


def _merge(acc: list, part: tuple, n_b: int) -> None:
    """Fold one chunk's per-link (fails, mean, M2) over n_b realizations
    into ``acc`` = [n_a, fails, mean, M2], the statistics of the n_a
    realizations before it, by Chan et al.'s pairwise update; from
    n_a = 0 it copies the chunk's values exactly."""
    n_a, fails, mean, m2 = acc
    n = n_a + n_b
    delta = part[1] - mean
    acc[:] = (n, fails + part[0], mean + delta * (n_b / n),
              m2 + part[2] + delta * delta * (n_a * n_b / n))


def _group_key(job: int, scenario: Scenario, links: list[LinkSpec]):
    """Jobs with equal keys share each chunk's draws. CSMA draws every
    node at its road's density whatever delta is, so CSMA jobs equal but
    for delta share a key. Aloha jobs equal but for p whose links have
    the same receivers share a key: their layered draws share one
    interference pass. Every other job is its own group."""
    if isinstance(scenario.mac, Csma):
        return replace(scenario, mac=None)
    if isinstance(scenario.mac, Aloha):
        return (Aloha, replace(scenario, mac=None),
                frozenset(link.rx for link in links))
    return job


def simulate_outages(jobs: list[tuple[Scenario, list[LinkSpec]]],
                     settings: SimSettings) -> list[list[OutageEstimate]]:
    """Outage estimates for a batch of jobs, each a scenario with the
    links to evaluate on its draws; one list per job, in job order.

    A job gets what ``simulate_outage_sweep`` gives it alone, unless it
    is an Aloha job in a group with other p values: the module docstring
    states the contract. CSMA jobs that differ only in delta form one
    group, and so do Aloha jobs that differ only in p and have the same
    receivers; each chunk of a group is drawn once for all of its jobs.
    An Aloha group runs one task per chunk, which draws the chunk and
    runs one interference pass for all of its p values. The pool holds
    at most ``settings.workers`` threads and at most one per CPU; a CSMA
    group with fewer chunks than that pool size splits its jobs into
    ceil(pool size / chunks) contiguous slices, one task per (slice,
    chunk), so that one-chunk groups still fill the pool. Each CSMA task
    runs the Matern kernel once for the deltas of its jobs; a delta's
    retained nodes do not depend on which other deltas share the task,
    so neither the slices nor the job order change them. The tasks go
    to that one pool; with one thread they run in the calling thread.

    When chunks raise, the exception of the first failing (job, chunk)
    in job and chunk order propagates, whatever the worker count, and
    its ``job`` attribute holds the index of its job. A failure in a
    task's shared draw, retention or pass fails each of its jobs.
    """

    return [[_estimate(n, mean, m2) for n, _, mean, m2 in job]
            for job in _merged_stats(jobs, settings)]


def _merged_stats(jobs: list[tuple[Scenario, list[LinkSpec]]],
                  settings: SimSettings) -> list[list[tuple]]:
    """Per job, per link: the (n, fails, mean, M2) of its n realizations'
    failure count and p_r, merged in chunk order; simulate_outages says
    how the batch is run."""

    n = settings.realizations
    groups: dict = {}  # group key -> [(job, its planned rows)] in job order
    for job, (scenario, links) in enumerate(jobs):
        try:
            _truncation_warnings(scenario, links, settings)
            rows = _plan_rows(scenario, settings)
        except Exception as exc:
            exc.job = job
            raise
        if links:
            key = _group_key(job, scenario, links)
            groups.setdefault(key, []).append((job, rows))

    pool_size = min(settings.workers, os.cpu_count() or 1)
    tasks = []  # (jobs, chunk index, rows)
    for planned in groups.values():
        members = [job for job, _ in planned]
        # An Aloha group's rows are its top p's, the fewest of its jobs';
        # the jobs of a CSMA group all plan the same rows.
        rows = min(rows for _, rows in planned)
        chunks = list(enumerate(_chunk_sizes(n, rows)))
        # Only CSMA groups split their jobs: an Aloha slice would repeat
        # the group's whole draw and interference pass.
        slices = (min(len(members), -(-pool_size // len(chunks)))
                  if isinstance(jobs[members[0]][0].mac, Csma) else 1)
        cuts = [len(members) * i // slices for i in range(slices + 1)]
        for lo, hi in zip(cuts, cuts[1:]):
            tasks.extend((members[lo:hi], idx, nrows) for idx, nrows in chunks)

    def run(task) -> list:
        # Each job's chunk statistics or exception, in the task's job order.
        members, idx, nrows = task
        try:
            chunk = _draw_chunk([jobs[job][0] for job in members], settings,
                                idx, nrows)
            if not isinstance(jobs[members[0]][0].mac, Csma):
                # The jobs of an Aloha group have the same receivers.
                chunk = _level_interference(*jobs[members[0]], chunk)
        except Exception as exc:
            return [exc] * len(members)
        outcomes = []
        for job in members:
            try:
                outcomes.append(_job_chunk(*jobs[job], chunk))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    threads = min(pool_size, len(tasks))
    if threads <= 1:
        results = [run(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, tasks))

    # Per job: [realizations merged, then per link fails, mean, M2]. A
    # job's chunks come in chunk order, whatever the worker count.
    stats = [[0, np.zeros(len(links), dtype=np.int64), np.zeros(len(links)),
              np.zeros(len(links))] for _, links in jobs]
    first = None  # (job, chunk index, exception) of the first failure
    for (members, idx, nrows), outcomes in zip(tasks, results):
        for job, outcome in zip(members, outcomes):
            if isinstance(outcome, Exception):
                if first is None or (job, idx) < first[:2]:
                    first = (job, idx, outcome)
            else:
                _merge(stats[job], outcome, nrows)
    if first is not None:
        job, _, exc = first
        exc.job = job
        raise exc
    return [[(n_job, int(fails), float(mean), float(m2))
             for fails, mean, m2 in zip(*arrays)]
            for n_job, *arrays in stats]


def simulate_outage_sweep(scenario: Scenario, links: list[LinkSpec],
                          settings: SimSettings) -> list[OutageEstimate]:
    """Outage estimates for several links sharing one scenario.

    All links are evaluated on the same realizations (one set of draws
    per chunk), which shares the expensive sampling across a sweep;
    estimates are therefore correlated across links but each is unbiased
    and carries its own standard error (see OutageEstimate): the sample
    standard error of the conditional outage per realization, which is
    never above the failure count's binomial one but for rounding.
    """

    return simulate_outages([(scenario, links)], settings)[0]


def simulate_outage(scenario: Scenario, link: LinkSpec,
                    settings: SimSettings) -> OutageEstimate:
    """Estimate P(SINR < beta) for one link. See simulate_outage_sweep."""

    return simulate_outage_sweep(scenario, [link], settings)[0]

