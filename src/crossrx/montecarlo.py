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
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .mac import access_probability, access_probability_from_mass
from .model import (EUCLIDEAN, Aloha, Csma, LinkSpec, NoMac, Position,
                    Scenario)
from .propagation import path_loss, sample_fading_array

_MASK64 = (1 << 64) - 1

# Cells-per-chunk budgets keep peak memory flat as densities change. The
# hard-core kernel builds log-depth min tables over its arrays, hence the
# tighter budget.
_CELL_BUDGET_IID = 1 << 22
_CELL_BUDGET_MATERN = 1 << 18
_MAX_ROWS = 4096


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
        tx.x, tx.y, delta, bound=extent + 2.0)
    return ph[0][keep_h[0]], pv[0][keep_v[0]]


# --- Matern II kernel --------------------------------------------------------
#
# Batched over realizations (rows). Positions are packed into one flat
# sorted key array, key = row * span + position, with span chosen so rows
# cannot overlap; every contention window is then a contiguous slice and
# a sparse min-table answers "smallest mark in [lo, hi)" for all nodes at
# once. A node is retained iff its own mark IS the window minimum (the
# window includes the node itself, which spares an exclusion pass) and
# strictly beats the other road's window.

def _build_min_table(flat: np.ndarray, max_span: int) -> list[np.ndarray]:
    levels = [flat]
    size = 1
    while size < max_span:
        prev = levels[-1]
        shifted = np.concatenate([prev[size:], np.full(size, np.inf)])
        levels.append(np.minimum(prev, shifted))
        size *= 2
    return levels


def _range_min(levels: list[np.ndarray], lo: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
    out = np.full(lo.shape, np.inf)
    span = hi - lo
    nonempty = span > 0
    if not nonempty.any():
        return out
    lv = np.zeros(lo.shape, dtype=np.int64)
    # frexp exponent - 1 == floor(log2(span)), exact for integer spans
    lv[nonempty] = np.frexp(span[nonempty].astype(np.float64))[1] - 1
    for level in np.unique(lv[nonempty]):
        width = 1 << int(level)
        table = levels[int(level)]
        sel = nonempty & (lv == level)
        out[sel] = np.minimum(table[lo[sel]], table[hi[sel] - width])
    return out


def _matern2_retain(pos_h, valid_h, marks_h, pos_v, valid_v, marks_v,
                    tx_x: float, tx_y: float, delta: float,
                    bound: float) -> tuple[np.ndarray, np.ndarray]:
    rows = pos_h.shape[0]
    span = 2.0 * bound + 4.0
    sentinel = bound + 1.0
    row_off = np.arange(rows, dtype=np.float64)[:, None] * span

    def pack(pos, valid, marks):
        m = pos.shape[1]
        if m == 0:
            return None
        filled = np.where(valid, pos, sentinel)
        order = np.argsort(filled, axis=1, kind="stable")
        keys = (np.take_along_axis(filled, order, axis=1) + row_off).ravel()
        srt_marks = np.take_along_axis(
            np.where(valid, marks, np.inf), order, axis=1).ravel()
        return keys, _build_min_table(srt_marks, m)

    packed = {"h": pack(pos_h, valid_h, marks_h),
              "v": pack(pos_v, valid_v, marks_v)}

    def window_min(target: str, centers: np.ndarray,
                   reach: np.ndarray) -> np.ndarray:
        # Min mark on road `target` within [centers - reach, centers + reach]
        # per node; reach < 0 marks an empty window.
        if packed[target] is None:
            return np.full(centers.shape, np.inf).ravel()
        keys, levels = packed[target]
        nonempty = reach >= 0.0
        safe_reach = np.where(nonempty, reach, 0.0)
        lo_vals = np.clip(centers - safe_reach, -bound - 1.0, bound + 2.0)
        hi_vals = np.clip(centers + safe_reach, -bound - 1.0, bound + 2.0)
        rows_idx = np.broadcast_to(row_off, centers.shape)
        lo = np.searchsorted(keys, (lo_vals + rows_idx).ravel(), side="left")
        hi = np.searchsorted(keys, (hi_vals + rows_idx).ravel(), side="right")
        lo = np.where(nonempty.ravel(), lo, 0)
        hi = np.where(nonempty.ravel(), hi, 0)
        return _range_min(levels, lo, hi)

    delta_sq = delta * delta

    def retain(pos, valid, marks, own: str, cross: str,
               tx_along: float, tx_perp: float) -> np.ndarray:
        if pos.shape[1] == 0:
            return np.zeros(pos.shape, dtype=bool)
        full_reach = np.full(pos.shape, delta)
        own_min = window_min(own, pos, full_reach).reshape(pos.shape)
        cross_gap = delta_sq - pos * pos
        cross_reach = np.where(cross_gap >= 0.0, np.sqrt(np.maximum(cross_gap, 0.0)),
                               -1.0)
        # The reachable stretch of the other road is the chord centered
        # on the intersection, not on the node itself.
        cross_min = window_min(cross, np.zeros_like(pos),
                               cross_reach).reshape(pos.shape)
        killed = (pos - tx_along) ** 2 + tx_perp ** 2 <= delta_sq
        return valid & ~killed & (marks == own_min) & (marks < cross_min)

    keep_h = retain(pos_h, valid_h, marks_h, "h", "v", tx_x, tx_y)
    keep_v = retain(pos_v, valid_v, marks_v, "v", "h", tx_y, tx_x)
    return keep_h, keep_v


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

    retained_cache: dict = {}
    interference_cache: dict = {}
    fails = np.zeros(len(links), dtype=np.int64)
    for li, link in enumerate(links):
        if is_csma:
            tx_key = (link.tx.x, link.tx.y)
            if tx_key not in retained_cache:
                retained_cache[tx_key] = _matern2_retain(
                    pos_h, valid_h, marks_h, pos_v, valid_v, marks_v,
                    link.tx.x, link.tx.y, scenario.mac.delta,
                    bound=w + scenario.mac.delta + 2.0)
            keep_h, keep_v = retained_cache[tx_key]
            cache_key = (link.rx.x, tx_key)
        else:
            keep_h, keep_v = valid_h, valid_v
            cache_key = (link.rx.x, None)

        if cache_key not in interference_cache:
            total = np.zeros(nrows)
            for road, pos, keep, fad, loss in (
                    ("h", pos_h, keep_h, fad_h, scenario.loss_h),
                    ("v", pos_v, keep_v, fad_v, scenario.loss_v)):
                if pos.shape[1] == 0:
                    continue
                r = _road_distance(road, pos, link.rx, loss.norm)
                gains = loss.amplitude_a * r ** (-loss.alpha)
                total += np.where(keep, fad * gains, 0.0).sum(axis=1)
            interference_cache[cache_key] = total

        interference = interference_cache[cache_key]
        gain = path_loss(scenario.loss_useful, link.tx, link.rx)
        tilde_n = link.noise_w / link.power_w
        fails[li] = int(np.count_nonzero(
            s0 * gain < link.beta * (tilde_n + interference)))
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

    mac = scenario.mac
    if isinstance(mac, Aloha):
        p_a = mac.p
    elif isinstance(mac, Csma):
        p_a = access_probability(link.tx, mac.delta, scenario.roads)
    else:
        p_a = 1.0
    est = simulate_outage(scenario, link, settings)
    return p_a * (1.0 - est.p_out) * math.log2(1.0 + link.beta)
