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
chunk layout depends only on scenario and settings. Under CSMA every
node is drawn at its road's density, so neither the draws nor the chunk
layout depend on the sensing range delta: CSMA jobs whose scenarios are
equal except for delta form one delta-group and share each chunk's
draws. ``simulate_outages`` takes a batch of (scenario, links) jobs and
evaluates every chunk of every group on one pool of ``workers``
threads, so a batch of one-chunk jobs runs in parallel too. Threads only
decide who evaluates which chunk for which jobs, and each job's failure
counts are integer sums over its chunks, so any worker count and any
batch composition produce bit-identical results.

Per-chunk draw order (fixed, do not reorder): H counts, V counts, H
positions, V positions, [H marks, V marks when CSMA], H fading, V
fading, useful fading.

Per-chunk work after the draws. An interferer's gain at a receiver is
fad * A * r^-alpha, taken as (r^2)^(-alpha / 2) of the squared distance
with no square root; at alpha = 2 that is one reciprocal per node. The
useful link keeps ``propagation.path_loss``. Aloha keeps every drawn
node (its thinning is folded into the draw), so its interference is a
sum of gains over the padded (realization x node) arrays. It takes one
pass per road over blocks of whole rows, and evaluates every distinct
receiver of the job on a block while the block is in cache; each row is
still summed over its full padded width with padded cells at +0.0, so
every receiver's totals have the bits of a sum over the whole arrays.
CSMA sorts each road's nodes by position once per chunk, and every
delta of the group shares that. Then, per job, it runs the Matern II
kernel once at the job's delta, because retention depends on the marks
alone; the kernel returns the retained nodes' row-major indices, and
each link then applies its own transmitter's kill disc to those nodes.
The retained nodes are gathered into flat (realization, position,
fading) arrays, so each receiver computes gains for those nodes only
and sums them per realization with ``np.bincount``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .mac import access_probability_at, access_probability_from_mass
# Unused here; perfbench's tracer patches it by name.
from .mac import access_probability  # noqa: F401
from .model import (EUCLIDEAN, Aloha, Csma, LinkSpec, PathLossSpec, Position,
                    Scenario)
from .propagation import path_loss, sample_fading_array

_MASK64 = (1 << 64) - 1

# Cells-per-chunk budgets keep peak memory flat as densities change. The
# hard-core kernel keeps sorted copies of its arrays and per-delta work
# arrays besides the draws, hence the tighter budget. The budgets set the
# chunk layout, so changing one changes the Monte Carlo bits.
_CELL_BUDGET_IID = 1 << 22
_CELL_BUDGET_MATERN = 1 << 18
_MAX_ROWS = 4096
# Cells per block of the Aloha interference pass (_aloha_interference).
# Blocks hold whole rows, so the block size does not change the bits.
_BLOCK_CELLS = 1 << 15
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
            raise ValueError(
                f"realizations must be >= 1, got {self.realizations}")
        w = self.window_half_length
        if not (math.isfinite(w) and w > 0):
            raise ValueError(
                f"window_half_length must be finite and positive, got {w}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class OutageEstimate:
    p_out: float
    std_err: float
    realizations_used: int


def _stream(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        key=[seed & _MASK64, chunk_index]))


# --- Matern II kernel --------------------------------------------------------
#
# Batched over realizations (rows), and run once per chunk and delta:
# retention depends on the marks alone, so every link of a job shares it
# and only applies its own transmitter's kill disc afterwards
# (_clear_of_tx).
#
# Each road's valid nodes are sorted by position within their row, once
# per chunk for every delta (_pack). Per delta (_retain) they get one
# flat key array, key = row * span + position, with span = 2 * bound + 4
# chosen so rows cannot overlap; every contention window is then a
# contiguous slice of the sorted marks, and one np.minimum.reduceat over
# the interleaved window bounds answers "smallest mark in [lo, hi)" for
# many nodes at once. A node is retained iff its own mark IS the window
# minimum on its own road (the window includes the node itself, which
# spares an exclusion pass) and strictly beats the other road's window.
# Before the own-road query, each node is compared with its
# _NEIGHBOUR_SCREEN nearest sorted neighbours on each side, using the
# same key bounds as the query; a node one of them beats is out, and
# only the rest are queried. The other road's window is the chord
# centered on the intersection, so it is empty unless |z| <= delta, and
# it is only queried for those nodes that already won their own road.
# Retention is a function of marks and positions only, so the sorted
# evaluation order does not change which fading draw belongs to which
# node; the retained nodes come back as their indices into the padded
# (realization x node) arrays, in row-major order.

def _pack(pos: np.ndarray, valid: np.ndarray, marks: np.ndarray) -> dict:
    """One road's valid nodes sorted by position within their row, as flat
    arrays: their row, their row-major index into the padded arrays
    (``flat``), position and mark, the marks followed by a +inf sentinel.
    Nothing here depends on delta, and nothing changes a pack after it
    is built, so every delta evaluated on a chunk shares one per road."""
    rows, cols = pos.shape
    # Invalid cells sort last, so each row's valid nodes are a prefix.
    order = np.argsort(np.where(valid, pos, np.inf), axis=1)
    counts = np.count_nonzero(valid, axis=1)
    row = np.repeat(np.arange(rows), counts)
    flat = row * cols + order[np.arange(cols) < counts[:, None]]
    return {"row": row, "flat": flat, "z": pos.ravel()[flat],
            "mark": np.append(marks.ravel()[flat], np.inf)}


def _retain(h: dict, v: dict, delta: float,
            bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Matern II retained nodes of both packed roads at sensing range
    delta, as increasing row-major indices into the padded arrays they
    were packed from.

    The tagged transmitter's kill disc is not applied here. ``bound``
    must exceed every valid |position| by at least delta: every window
    then lies within [-bound, bound] of its row, and rows are
    2 * bound + 4 apart, so no window reaches into another row.
    """
    span = 2.0 * bound + 4.0
    delta_sq = delta * delta
    roads = []
    for pack in (h, v):
        off = pack["row"] * span
        roads.append((pack, pack["z"] + off, off))

    def window_min(target, lo_key, hi_key) -> np.ndarray:
        # Min mark on road `target` with lo_key <= key <= hi_key, +inf if
        # none. reduceat over the interleaved bounds (lo, hi) puts each
        # window's min in the even slots. An odd slot reduces the gap up
        # to the next window, or reads one mark if that window starts
        # sooner; queries come row by row, so the gaps add up to at most
        # one pass over the marks. The +inf sentinel keeps hi == len(key)
        # a valid index.
        pack, key, _ = target
        lo = np.searchsorted(key, lo_key, side="left")
        hi = np.searchsorted(key, hi_key, side="right")
        mins = np.minimum.reduceat(pack["mark"],
                                   np.stack((lo, hi), axis=1).ravel())
        return np.where(hi > lo, mins[::2], np.inf)

    kept = []
    for own, cross in (roads, roads[::-1]):
        pack, key, off = own
        z, mark = pack["z"], pack["mark"][:-1]
        lo_key, hi_key = (z - delta) + off, (z + delta) + off
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
        keep[near] = mark[near] < window_min(cross, off[near] - reach,
                                             off[near] + reach)
        kept.append(np.sort(pack["flat"][keep]))
    return kept[0], kept[1]


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
                    loss: PathLossSpec, rx: Position,
                    out: np.ndarray | None = None) -> np.ndarray:
    """fad * A * r^-alpha at ``rx``, written into ``out`` if given.
    The power law is taken of the squared distance, (r^2)^(-alpha / 2),
    so no cell needs a square root; at alpha = 2 the exponent is -1.0,
    for which numpy's power is an exact reciprocal. Every step works in
    place on a fresh or the given array."""
    g = _road_distance_sq(road, pos, rx, loss.norm, out)
    g **= -loss.alpha / 2.0
    g *= loss.amplitude_a
    g *= fad
    return g


def _road_distance_sq(road: str, positions: np.ndarray, rx: Position,
                      norm: str, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distance from ``rx`` on the H road to nodes of ``road``:
    (z - x)^2 on H, z^2 + x^2 on a Euclidean V road and (|z| + |x|)^2
    on a Manhattan one."""
    if road == "h":
        r = np.subtract(positions, rx.x, out=out)
    elif norm == EUCLIDEAN:
        r = np.square(positions, out=out)
        r += rx.x * rx.x
        return r
    else:
        r = np.abs(positions, out=out)
        r += abs(rx.x)
    return np.square(r, out=r)


def _aloha_interference(scenario: Scenario, chunk: _Chunk,
                        receivers: list[Position]) -> dict:
    """Per-realization interference at each receiver on one chunk's
    padded draws, H road then V, as {receiver: totals}.

    Each road is walked once, in blocks of whole rows of about
    _BLOCK_CELLS cells; every receiver is evaluated on a block while its
    positions and fading are in cache, into one reused buffer. Padded
    cells are zeroed in the buffer, and every row is summed over its
    full padded width, so a receiver's totals do not depend on the block
    size or on the other receivers."""
    nrows = chunk.nrows
    totals = {rx: np.zeros(nrows) for rx in receivers}
    for road, pos, valid, fad, loss in (
            ("h", chunk.pos_h, chunk.valid_h, chunk.fad_h, scenario.loss_h),
            ("v", chunk.pos_v, chunk.valid_v, chunk.fad_v, scenario.loss_v)):
        cols = pos.shape[1]
        if not cols:
            continue
        pad = ~valid
        step = max(1, _BLOCK_CELLS // cols)
        buf = np.empty(min(step, nrows) * cols)
        for lo in range(0, nrows, step):
            hi = min(lo + step, nrows)
            out = buf[:(hi - lo) * cols].reshape(hi - lo, cols)
            for rx, total in totals.items():
                _weighted_gains(road, pos[lo:hi], fad[lo:hi], loss, rx, out)
                np.copyto(out, 0.0, where=pad[lo:hi])
                total[lo:hi] += out.sum(axis=1)
    return totals


@dataclass(frozen=True)
class _Chunk:
    """One chunk's draws, shared by every job of its group. Positions,
    validity and fading are padded (realization x node) arrays per road,
    the valid cells a prefix of each row; no result depends on the draws
    of a padded cell. ``packs`` holds the Matern kernel's sorted roads
    (H, V) under CSMA and is None else; Aloha reads the padded arrays in
    blocks of rows (_aloha_interference)."""
    index: int
    nrows: int
    window: float
    pos_h: np.ndarray
    pos_v: np.ndarray
    valid_h: np.ndarray
    valid_v: np.ndarray
    fad_h: np.ndarray
    fad_v: np.ndarray
    s0: np.ndarray
    packs: tuple[dict, dict] | None


def _draw_chunk(scenario: Scenario, settings: SimSettings, chunk_index: int,
                nrows: int) -> _Chunk:
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
    packs = ((_pack(pos_h, valid_h, marks_h), _pack(pos_v, valid_v, marks_v))
             if is_csma else None)
    return _Chunk(chunk_index, nrows, w, pos_h, pos_v, valid_h, valid_v,
                  fad_h, fad_v, s0, packs)


def _job_chunk(scenario: Scenario, links: list[LinkSpec],
               chunk: _Chunk) -> np.ndarray:
    """Failure counts of ``links`` on one chunk's draws."""
    nrows, s0 = chunk.nrows, chunk.s0
    pos_h, fad_h = chunk.pos_h, chunk.fad_h
    pos_v, fad_v = chunk.pos_v, chunk.fad_v
    is_csma = isinstance(scenario.mac, Csma)
    if is_csma:
        delta = scenario.mac.delta
        kept_h, kept_v = _retain(*chunk.packs, delta,
                                 bound=chunk.window + delta + 2.0)
        # Retained nodes only, as flat (row, position, fading) arrays in
        # row-major order, which fixes the order of each bincount sum. A
        # road with no node in any row has width 0 and no index to divide.
        retained = [(road, loss, kept // max(pos.shape[1], 1),
                     pos.ravel()[kept], fad.ravel()[kept])
                    for road, loss, pos, kept, fad in (
                        ("h", scenario.loss_h, pos_h, kept_h, fad_h),
                        ("v", scenario.loss_v, pos_v, kept_v, fad_v))]

        @functools.cache
        def gains(rx: Position) -> list:
            return [_weighted_gains(road, pos, fad, loss, rx)
                    for road, loss, _, pos, fad in retained]

        @functools.cache
        def clear(tx: Position) -> list:
            return [_clear_of_tx(road, pos, tx, delta)
                    for road, _, _, pos, _ in retained]

        @functools.cache
        def interference(rx: Position, tx: Position) -> np.ndarray:
            total = np.zeros(nrows)
            for (_, _, row, _, _), road_gains, road_clear in zip(
                    retained, gains(rx), clear(tx)):
                total += np.bincount(row[road_clear],
                                     weights=road_gains[road_clear],
                                     minlength=nrows)
            return total
    else:
        totals = _aloha_interference(scenario, chunk,
                                     [link.rx for link in links])

    fails = np.zeros(len(links), dtype=np.int64)
    for li, link in enumerate(links):
        # CSMA's kill disc makes interference depend on the transmitter.
        total = (interference(link.rx, link.tx) if is_csma
                 else totals[link.rx])
        gain = path_loss(scenario.loss_useful, link.tx, link.rx)
        tilde_n = link.noise_w / link.power_w
        fails[li] = int(np.count_nonzero(
            s0 * gain < link.beta * (tilde_n + total)))
    return fails


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
        _warn(f"expected interference truncated beyond the window "
              f"({tail:.3e}) exceeds 1e-3 of normalized noise "
              f"({tilde_n:.3e}); estimates carry a (usually small) "
              "truncation bias - enlarge window_half_length to reduce it")


@contextlib.contextmanager
def _job_context(job: int):
    """Tag an exception escaping the block with the index of its job."""
    try:
        yield
    except Exception as exc:
        exc.job = job
        raise


def _estimate(fails: int, n: int) -> OutageEstimate:
    p_out = float(fails) / n
    return OutageEstimate(p_out=p_out,
                          std_err=math.sqrt(p_out * (1.0 - p_out) / n),
                          realizations_used=n)


def _group_key(job: int, scenario: Scenario):
    """Jobs with equal keys draw identical chunks. CSMA draws every node at
    its road's density whatever delta is, so CSMA jobs equal but for
    delta share a key; every other job is its own group."""
    if isinstance(scenario.mac, Csma):
        return replace(scenario, mac=None)
    return job


def simulate_outages(jobs: list[tuple[Scenario, list[LinkSpec]]],
                     settings: SimSettings) -> list[list[OutageEstimate]]:
    """Outage estimates for a batch of jobs, each a scenario with the
    links to evaluate on its draws; one list per job, in job order.

    Each job gets exactly what ``simulate_outage_sweep`` gives it alone:
    its chunk layout, streams and failure counts do not depend on the
    other jobs. CSMA jobs that differ only in delta form one group, and
    each chunk of a group is drawn once for all of its jobs. A group
    with fewer chunks than ``settings.workers`` splits its jobs into
    ceil(workers / chunks) contiguous slices, one task per (slice,
    chunk), so that one-chunk groups still fill the pool. The tasks go
    to one pool of ``settings.workers`` threads; with one worker they
    run in the calling thread.

    When chunks raise, the exception of the first failing (job, chunk)
    in job and chunk order propagates, whatever the worker count, and
    its ``job`` attribute holds the index of its job.
    """

    n = settings.realizations
    groups: dict = {}  # group key -> (rows per chunk, jobs in order)
    for job, (scenario, links) in enumerate(jobs):
        with _job_context(job):
            _truncation_warnings(scenario, links, settings)
            rows = _plan_rows(scenario, settings)
        if links:
            key = _group_key(job, scenario)
            groups.setdefault(key, (rows, []))[1].append(job)

    tasks = []  # (jobs, chunk index, rows)
    for rows, members in groups.values():
        chunks = [(idx, min(rows, n - start))
                  for idx, start in enumerate(range(0, n, rows))]
        slices = min(len(members), -(-settings.workers // len(chunks)))
        cuts = [len(members) * i // slices for i in range(slices + 1)]
        for lo, hi in zip(cuts, cuts[1:]):
            tasks.extend((members[lo:hi], idx, nrows) for idx, nrows in chunks)

    def run(task) -> list:
        # Each job's failure counts or exception, in the task's job order.
        members, idx, nrows = task
        try:
            chunk = _draw_chunk(jobs[members[0]][0], settings, idx, nrows)
        except Exception as exc:
            return [exc] * len(members)
        outcomes = []
        for job in members:
            try:
                outcomes.append(_job_chunk(*jobs[job], chunk))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    if settings.workers == 1 or len(tasks) <= 1:
        results = [run(task) for task in tasks]
    else:
        with ThreadPoolExecutor(
                max_workers=min(settings.workers, len(tasks))) as pool:
            results = list(pool.map(run, tasks))

    fails = [np.zeros(len(links), dtype=np.int64) for _, links in jobs]
    first = None  # (job, chunk index, exception) of the first failure
    for (members, idx, _), outcomes in zip(tasks, results):
        for job, outcome in zip(members, outcomes):
            if isinstance(outcome, Exception):
                if first is None or (job, idx) < first[:2]:
                    first = (job, idx, outcome)
            else:
                fails[job] += outcome
    if first is not None:
        job, _, exc = first
        exc.job = job
        raise exc
    return [[_estimate(f, n) for f in job_fails] for job_fails in fails]


def simulate_outage_sweep(scenario: Scenario, links: list[LinkSpec],
                          settings: SimSettings) -> list[OutageEstimate]:
    """Outage estimates for several links sharing one scenario.

    All links are evaluated on the same realizations (one set of draws
    per chunk), which shares the expensive sampling across a sweep;
    estimates are therefore correlated across links but each is unbiased
    and carries its own binomial standard error.
    """

    return simulate_outages([(scenario, links)], settings)[0]


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
