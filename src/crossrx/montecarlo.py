"""Simulation oracle for the analytic reception pipeline.

Samples the two roads' point processes on a finite window, applies the
MAC (independent thinning for Aloha, the exact Matern type II hard-core
law for CSMA - deliberately not the PPP approximation, so the
approximation error of the analytic CSMA model is measurable), draws
per-interferer fading from the scenario's true distributions (log-normal
included), and counts SINR failures.

Reproducibility contract: a run is a pure function of (scenario, links,
settings). Realizations are processed in fixed-size chunks; chunk i draws
everything it needs from a counter-based stream keyed (seed, i), and the
chunk layout depends only on scenario and settings. Worker threads only
decide who evaluates which chunk, so any worker count produces
bit-identical results.

Per-chunk draw order (fixed, do not reorder): H counts, V counts, H
positions, V positions, [H marks, V marks when CSMA], H fading, V
fading, useful fading.

Per-chunk work after the draws. Aloha keeps every drawn node (its
thinning is folded into the draw), so each receiver sums gains over the
padded (realization x node) arrays. CSMA runs the Matern II kernel once
for the chunk, because retention depends on the marks alone; each link
then applies its own transmitter's kill disc to the retained nodes. The
retained nodes are gathered into flat (realization, position, fading)
arrays, so each receiver computes gains for those nodes only and sums
them per realization with ``np.bincount``.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .mac import access_probability_at, access_probability_from_mass
# Unused here; perfbench's tracer patches it by name.
from .mac import access_probability  # noqa: F401
from .model import (EUCLIDEAN, Aloha, Csma, LinkSpec, PathLossSpec, Position,
                    Scenario)
from .propagation import path_loss, sample_fading_array

_MASK64 = (1 << 64) - 1

# Cells-per-chunk budgets keep peak memory flat as densities change. The
# hard-core kernel builds log-depth min tables over its arrays, hence the
# tighter budget.
_CELL_BUDGET_IID = 1 << 22
_CELL_BUDGET_MATERN = 1 << 18
_MAX_ROWS = 4096
# Sorted neighbours on each side that the Matern kernel compares a node
# with before it runs the node's full window query.
_NEIGHBOUR_SCREEN = 3


@dataclass(frozen=True)
class SimSettings:
    realizations: int
    window_half_length: float = 20000.0
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if not self.window_half_length > 0:
            raise ValueError("window_half_length must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class OutageEstimate:
    p_out: float
    std_err: float
    realizations_used: int


def _stream(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        key=[seed & _MASK64, chunk_index]))


def thin_csma_matern2(points_h, points_v, tx: Position, delta: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Matern type II thinning of both roads, conditioned on tx active.

    Every node draws a uniform mark (H road first, then V) and survives
    iff its mark is the strict minimum within Euclidean distance delta,
    taking competitors from both roads into account. The tagged
    transmitter behaves as a mark-0 node: everything within delta of it
    is removed, and tx itself is not part of the returned processes.
    """

    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    ph = np.asarray(points_h, dtype=float).reshape(1, -1)
    pv = np.asarray(points_v, dtype=float).reshape(1, -1)
    marks_h = rng.random(ph.shape)
    marks_v = rng.random(pv.shape)
    extent = max(
        float(np.abs(ph).max()) if ph.size else 0.0,
        float(np.abs(pv).max()) if pv.size else 0.0,
        abs(tx.x), abs(tx.y), delta)
    keep_h, keep_v = _matern2_retain(
        ph, np.ones(ph.shape, bool), marks_h,
        pv, np.ones(pv.shape, bool), marks_v,
        delta, bound=extent + 2.0)
    keep_h &= _clear_of_tx("h", ph, tx, delta)
    keep_v &= _clear_of_tx("v", pv, tx, delta)
    return ph[0][keep_h[0]], pv[0][keep_v[0]]


# --- Matern II kernel --------------------------------------------------------
#
# Batched over realizations (rows), and run once per chunk: retention
# depends on the marks alone, so every link of a chunk shares it and only
# applies its own transmitter's kill disc afterwards (_clear_of_tx).
#
# Each road's valid nodes are sorted by position within their row and
# packed into one flat key array, key = row * span + position, with span
# chosen so rows cannot overlap; every contention window is then a
# contiguous slice and a sparse min-table answers "smallest mark in
# [lo, hi)" for many nodes at once. A node is retained iff its own mark IS
# the window minimum on its own road (the window includes the node
# itself, which spares an exclusion pass) and strictly beats the other
# road's window. Before the own-road query, each node is compared with
# its _NEIGHBOUR_SCREEN nearest sorted neighbours on each side, using the
# same key bounds as the query; a node one of them beats is out, and
# only the rest are queried. The other road's window is the chord
# centered on the intersection, so it is empty unless |z| <= delta, and
# it is only queried for those nodes that already won their own road.
# Retention is a function of marks and positions only, so the sorted
# evaluation order does not change which fading draw belongs to which
# node, and the masks come back in the input layout.

def _grow_min_table(levels: list[np.ndarray], max_span: int) -> None:
    """Extend the sparse min-table in place so that it answers windows of
    up to max_span entries: level l holds min(flat[i : i + 2**l])."""
    while (1 << len(levels)) <= max_span:
        width = 1 << (len(levels) - 1)
        prev = levels[-1]
        level = prev.copy()
        np.minimum(prev[:-width], prev[width:], out=level[:-width])
        levels.append(level)


def _range_min(levels: list[np.ndarray], lo: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
    out = np.full(lo.shape, np.inf)
    span = hi - lo
    if not span.size:
        return out
    _grow_min_table(levels, int(span.max()))
    # frexp exponent - 1 == floor(log2(span)), exact for integer spans;
    # an empty window (span 0) gets -1.
    lv = np.frexp(span.astype(np.float64))[1] - 1
    for level in np.unique(lv[lv >= 0]):
        width = 1 << int(level)
        table = levels[int(level)]
        sel = np.flatnonzero(lv == level)
        out[sel] = np.minimum(table[lo[sel]], table[hi[sel] - width])
    return out


def _matern2_retain(pos_h, valid_h, marks_h, pos_v, valid_v, marks_v,
                    delta: float, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Matern II retention of both roads from their marks, one row per
    realization; boolean masks shaped like the inputs.

    The tagged transmitter's kill disc is not applied here. ``bound``
    must exceed every valid |position| by at least delta.
    """
    rows = pos_h.shape[0]
    span = 2.0 * bound + 4.0
    row_off = np.arange(rows, dtype=np.float64) * span
    delta_sq = delta * delta

    def pack(pos, valid, marks):
        # Invalid cells sort last, so each row's valid nodes are a prefix.
        order = np.argsort(np.where(valid, pos, bound + 1.0), axis=1)
        counts = np.count_nonzero(valid, axis=1)
        row = np.repeat(np.arange(rows), counts)
        col = order[np.arange(pos.shape[1]) < counts[:, None]]
        z = pos[row, col]
        mark = marks[row, col]
        return {"row": row, "col": col, "z": z, "key": z + row_off[row],
                "mark": mark, "levels": [mark]}

    def window(node_row, lo_pos, hi_pos):
        # Key bounds of [lo_pos, hi_pos] in each node's own row.
        return (np.clip(lo_pos, -bound - 1.0, bound + 2.0) + row_off[node_row],
                np.clip(hi_pos, -bound - 1.0, bound + 2.0) + row_off[node_row])

    def window_min(target, lo_key, hi_key) -> np.ndarray:
        # Min mark on road `target` with lo_key <= key <= hi_key.
        lo = np.searchsorted(target["key"], lo_key, side="left")
        hi = np.searchsorted(target["key"], hi_key, side="right")
        return _range_min(target["levels"], lo, hi)

    h = pack(pos_h, valid_h, marks_h)
    v = pack(pos_v, valid_v, marks_v)
    masks = []
    for own, cross, pos in ((h, v, pos_h), (v, h, pos_v)):
        z, row, mark, key = own["z"], own["row"], own["mark"], own["key"]
        lo_key, hi_key = window(row, z - delta, z + delta)
        # A node beaten by one of its nearest neighbours inside its window
        # cannot win; only the others need the window query.
        keep = np.ones(z.shape, dtype=bool)
        for k in range(1, _NEIGHBOUR_SCREEN + 1):
            keep[k:] &= (key[:-k] < lo_key[k:]) | (mark[:-k] >= mark[k:])
            keep[:-k] &= (key[k:] > hi_key[:-k]) | (mark[k:] >= mark[:-k])
        idx = np.flatnonzero(keep)
        keep[idx] = mark[idx] == window_min(own, lo_key[idx], hi_key[idx])
        cross_gap = delta_sq - z * z
        near = np.flatnonzero(keep & (cross_gap >= 0.0))
        reach = np.sqrt(cross_gap[near])
        keep[near] = mark[near] < window_min(cross,
                                             *window(row[near], -reach, reach))
        mask = np.zeros(pos.shape, dtype=bool)
        mask[row[keep], own["col"][keep]] = True
        masks.append(mask)
    return masks[0], masks[1]


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
    for road in ("h", "v"):
        mean = 2.0 * settings.window_half_length * _effective_lambda(scenario, road)
        est_cells += int(mean + 10.0 * math.sqrt(mean) + 16.0)
    budget = (_CELL_BUDGET_MATERN if isinstance(scenario.mac, Csma)
              else _CELL_BUDGET_IID)
    return max(1, min(_MAX_ROWS, budget // max(est_cells, 1)))


def _weighted_gains(road: str, pos: np.ndarray, fad: np.ndarray,
                    loss: PathLossSpec, rx: Position) -> np.ndarray:
    r = _road_distance(road, pos, rx, loss.norm)
    return fad * (loss.amplitude_a * r ** (-loss.alpha))


def _road_distance(road: str, positions: np.ndarray, rx: Position,
                   norm: str) -> np.ndarray:
    if road == "h":
        return np.abs(positions - rx.x)
    if norm == EUCLIDEAN:
        return np.hypot(rx.x, positions)
    return abs(rx.x) + np.abs(positions)


def _run_chunk(scenario: Scenario, links: list[LinkSpec],
               settings: SimSettings, chunk_index: int,
               nrows: int) -> np.ndarray:
    rng = _stream(settings.seed, chunk_index)
    w = settings.window_half_length
    is_csma = isinstance(scenario.mac, Csma)

    counts_h = rng.poisson(2.0 * w * _effective_lambda(scenario, "h"), nrows)
    counts_v = rng.poisson(2.0 * w * _effective_lambda(scenario, "v"), nrows)
    mh = int(counts_h.max()) if nrows else 0
    mv = int(counts_v.max()) if nrows else 0
    pos_h = rng.uniform(-w, w, (nrows, mh))
    pos_v = rng.uniform(-w, w, (nrows, mv))
    valid_h = np.arange(mh) < counts_h[:, None]
    valid_v = np.arange(mv) < counts_v[:, None]
    if is_csma:
        marks_h = rng.random((nrows, mh))
        marks_v = rng.random((nrows, mv))
    fad_h = sample_fading_array(scenario.fading_h, rng, (nrows, mh))
    fad_v = sample_fading_array(scenario.fading_v, rng, (nrows, mv))
    s0 = sample_fading_array(scenario.fading_useful, rng, (nrows,))

    if is_csma:
        delta = scenario.mac.delta
        keep_h, keep_v = _matern2_retain(
            pos_h, valid_h, marks_h, pos_v, valid_v, marks_v, delta,
            bound=w + delta + 2.0)
        # Retained nodes only, as flat (row, position, fading) arrays.
        retained = [(road, loss, np.nonzero(keep)[0], pos[keep], fad[keep])
                    for road, loss, pos, keep, fad in (
                        ("h", scenario.loss_h, pos_h, keep_h, fad_h),
                        ("v", scenario.loss_v, pos_v, keep_v, fad_v))]
        gains_cache: dict = {}
        clear_cache: dict = {}

        def interference(link: LinkSpec) -> np.ndarray:
            rx_key, tx_key = link.rx.x, (link.tx.x, link.tx.y)
            if rx_key not in gains_cache:
                gains_cache[rx_key] = [
                    _weighted_gains(road, pos, fad, loss, link.rx)
                    for road, loss, _, pos, fad in retained]
            if tx_key not in clear_cache:
                clear_cache[tx_key] = [
                    _clear_of_tx(road, pos, link.tx, delta)
                    for road, _, _, pos, _ in retained]
            total = np.zeros(nrows)
            for (_, _, row, _, _), gains, clear in zip(
                    retained, gains_cache[rx_key], clear_cache[tx_key]):
                total += np.bincount(row[clear], weights=gains[clear],
                                     minlength=nrows)
            return total
    else:
        def interference(link: LinkSpec) -> np.ndarray:
            total = np.zeros(nrows)
            for road, pos, valid, fad, loss in (
                    ("h", pos_h, valid_h, fad_h, scenario.loss_h),
                    ("v", pos_v, valid_v, fad_v, scenario.loss_v)):
                if pos.shape[1]:
                    total += np.where(
                        valid, _weighted_gains(road, pos, fad, loss, link.rx),
                        0.0).sum(axis=1)
            return total

    interference_cache: dict = {}
    fails = np.zeros(len(links), dtype=np.int64)
    for li, link in enumerate(links):
        cache_key = (link.rx.x, (link.tx.x, link.tx.y) if is_csma else None)
        if cache_key not in interference_cache:
            interference_cache[cache_key] = interference(link)
        gain = path_loss(scenario.loss_useful, link.tx, link.rx)
        tilde_n = link.noise_w / link.power_w
        fails[li] = int(np.count_nonzero(
            s0 * gain < link.beta * (tilde_n + interference_cache[cache_key])))
    return fails


def _truncation_warnings(scenario: Scenario, links: list[LinkSpec],
                         settings: SimSettings) -> None:
    w = settings.window_half_length
    for tag, lam in (("lambda_h", scenario.roads.lambda_h),
                     ("lambda_v", scenario.roads.lambda_v)):
        if lam > 0 and w < 10.0 / lam:
            warnings.warn(
                f"window half-length {w} m is under 10 mean spacings for "
                f"{tag}={lam}; point counts will be tiny", stacklevel=3)
    if not links:
        return
    tilde_n = links[0].noise_w / links[0].power_w
    if tilde_n <= 0:
        return
    tail = 0.0
    mac = scenario.mac
    for road, loss in (("h", scenario.loss_h), ("v", scenario.loss_v)):
        lam = scenario.roads.density(road)
        if isinstance(mac, Aloha):
            lam_far = mac.p * lam
        elif isinstance(mac, Csma):
            lam_far = access_probability_from_mass(2.0 * mac.delta * lam) * lam
        else:
            lam_far = 0.0
        tail += (2.0 * lam_far * loss.amplitude_a
                 * w ** (1.0 - loss.alpha) / (loss.alpha - 1.0))
    if tail > 1e-3 * tilde_n:
        warnings.warn(
            f"expected interference truncated beyond the window "
            f"({tail:.3e}) exceeds 1e-3 of normalized noise "
            f"({tilde_n:.3e}); estimates carry a (usually small) "
            "truncation bias - enlarge window_half_length to reduce it",
            stacklevel=3)


def simulate_outage_sweep(scenario: Scenario, links: list[LinkSpec],
                          settings: SimSettings) -> list[OutageEstimate]:
    """Outage estimates for several links sharing one scenario.

    All links are evaluated on the same realizations (one set of draws
    per chunk), which shares the expensive sampling across a sweep;
    estimates are therefore correlated across links but each is unbiased
    and carries its own binomial standard error.
    """

    _truncation_warnings(scenario, links, settings)
    n = settings.realizations
    rows = _plan_rows(scenario, settings)
    chunks = [(idx, min(rows, n - start))
              for idx, start in enumerate(range(0, n, rows))]

    def run(chunk) -> np.ndarray:
        idx, nrows = chunk
        return _run_chunk(scenario, links, settings, idx, nrows)

    if settings.workers == 1 or len(chunks) == 1:
        results = [run(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=settings.workers) as pool:
            results = list(pool.map(run, chunks))

    fails = np.zeros(len(links), dtype=np.int64)
    for r in results:
        fails += r
    out = []
    for f in fails:
        p_out = float(f) / n
        out.append(OutageEstimate(
            p_out=p_out,
            std_err=math.sqrt(p_out * (1.0 - p_out) / n),
            realizations_used=n))
    return out


def simulate_outage(scenario: Scenario, link: LinkSpec,
                    settings: SimSettings) -> OutageEstimate:
    """Estimate P(SINR < beta) for one link. See simulate_outage_sweep."""

    return simulate_outage_sweep(scenario, [link], settings)[0]


def simulate_throughput(scenario: Scenario, link: LinkSpec,
                        settings: SimSettings) -> float:
    """Simulated link throughput: p_A(tx) * (1 - p_out) * log2(1 + beta)."""

    est = simulate_outage(scenario, link, settings)
    return (access_probability_at(scenario, link.tx) * (1.0 - est.p_out)
            * math.log2(1.0 + link.beta))
