"""AP mode partition, user-centric serving sets and target-centric clusters.

Four scalability modes are supported:
  UTC  user-and-target-centric: each UE served by q transmit APs, no AP
       serving more than n_antennas UEs (see associate_ues), each region
       sensed by a small dedicated AP cluster.
  UC   user-centric only: scalable UE serving, sensing by all APs.
  TC   target-centric only: dedicated sensing clusters, UEs served by all
       transmit APs (no per-AP cap).
  CF   pure cell-free: both tasks non-scalable, no per-AP cap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import TARGET_CENTRIC_MODES, USER_CENTRIC_MODES, ConfigError, ExperimentConfig
from .deployment import NetworkLayout


@dataclass
class ClusterAssignment:
    """Immutable drop-level clustering decision.

    tx_aps / rx_aps partition all APs; serving[k] lists the transmit APs of
    UE k; served[m] the inverse relation; sensing_clusters[l] the APs that
    inspect region l (a (tx tuple, rx tuple) pair); pointing[m] the region
    whose current cell the sensing beam of transmit AP m illuminates (-1 for
    APs with no sensing role).
    """

    tx_aps: np.ndarray
    rx_aps: np.ndarray
    serving: list[np.ndarray]
    served: list[np.ndarray]
    sensing_clusters: list[tuple[np.ndarray, np.ndarray]]
    pointing: np.ndarray


def _ranked_by_distance(
    candidates: np.ndarray, positions: np.ndarray, center_xy: tuple[float, float]
) -> np.ndarray:
    d = np.hypot(positions[candidates, 0] - center_xy[0], positions[candidates, 1] - center_xy[1])
    # ties broken by lower AP index
    return candidates[np.lexsort((candidates, d))]


def assign_ap_modes(
    layout: NetworkLayout, mode: str, m_tx_per_region: int, m_rx_per_region: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Split APs into transmit/receive roles and build per-region clusters.

    Scalable sensing (UTC/TC): regions claim APs once, in ascending region
    index; the m_rx closest APs to the region center receive, the next m_tx
    transmit, and those m_tx + m_rx APs form the region's cluster. Unclaimed
    APs stay in transmit mode with no sensing role.

    Non-scalable sensing (UC/CF): the same receive selection runs per region,
    but every cluster contains all APs, so all transmit APs illuminate and
    all receive APs listen for every region; each transmit AP points its
    sensing beam at the cells of its nearest region.

    The sizes are those of a validated config: ExperimentConfig.validate
    checks that the APs cover every region's claim.
    """
    m_total = len(layout.aps)
    target_centric = mode in TARGET_CENTRIC_MODES
    unclaimed = np.ones(m_total, dtype=bool)
    rx_all: list[int] = []
    pointing = np.full(m_total, -1, dtype=int)
    cluster_members: list[tuple[list[int], list[int]]] = []
    for region in layout.regions:
        ranked = _ranked_by_distance(np.flatnonzero(unclaimed), layout.aps, region.center_xy)
        rx_here = ranked[:m_rx_per_region]
        unclaimed[rx_here] = False
        rx_all.extend(int(m) for m in rx_here)
        if target_centric:
            tx_here = ranked[m_rx_per_region : m_rx_per_region + m_tx_per_region]
            unclaimed[tx_here] = False
            pointing[tx_here] = region.index
            cluster_members.append((sorted(int(m) for m in tx_here), sorted(int(m) for m in rx_here)))
        else:
            cluster_members.append(([], sorted(int(m) for m in rx_here)))

    rx_aps = np.array(sorted(rx_all), dtype=int)
    tx_aps = np.setdiff1d(np.arange(m_total), rx_aps)

    clusters: list[tuple[np.ndarray, np.ndarray]] = []
    if target_centric:
        for tx_here, rx_here in cluster_members:
            clusters.append((np.array(tx_here, dtype=int), np.array(rx_here, dtype=int)))
    else:
        # every AP senses every region; beams point at the nearest region
        centers = np.array([r.center_xy for r in layout.regions])
        for m in tx_aps:
            d = np.hypot(centers[:, 0] - layout.aps[m, 0], centers[:, 1] - layout.aps[m, 1])
            pointing[m] = int(np.argmin(d))
        for _ in layout.regions:
            clusters.append((tx_aps.copy(), rx_aps.copy()))

    return tx_aps, rx_aps, clusters, pointing


def _capped_greedy(gains_tx: np.ndarray, ranked: np.ndarray, q: int, cap: int) -> np.ndarray:
    """Greedy capped association: (K, q) array of transmit-AP columns per UE.

    Visits (UE, AP) pairs in descending gain, ties broken by lower UE index
    and then lower AP index, and accepts a pair while the UE holds fewer than
    q APs and the AP serves fewer than cap UEs. ranked[k] lists UE k's
    columns in that order, so a heap holding each open UE's next pair yields
    the global order, and a UE leaves the heap once it is full.
    """
    k_ues, n_tx = ranked.shape
    order = ranked.tolist()
    heap = [(-gains_tx[k, order[k][0]], k, 0) for k in range(k_ues)]
    heapq.heapify(heap)
    load = [0] * n_tx
    picks: list[list[int]] = [[] for _ in range(k_ues)]
    while heap:
        _, k, rank = heapq.heappop(heap)
        col = order[k][rank]
        if load[col] < cap:
            load[col] += 1
            picks[k].append(col)
            if len(picks[k]) == q:
                continue
        if rank + 1 < n_tx:
            heapq.heappush(heap, (-gains_tx[k, order[k][rank + 1]], k, rank + 1))
    short = [k for k in range(k_ues) if len(picks[k]) < q]
    if short:
        raise ConfigError(
            f"a cap of {cap} UEs per AP leaves UE {short[0]} with {len(picks[short[0]])} "
            f"of q={q} serving APs ({len(short)} UEs short); with {n_tx} transmit APs and "
            f"{k_ues} UEs, cap * (|M_tx| - q + 1) >= q * K guarantees a fit"
        )
    return np.array(picks, dtype=int)


def associate_ues(
    large_scale: np.ndarray, tx_aps: np.ndarray, q: int, mode: str, cap: Optional[int] = None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Build serving sets M_k and the inverse served sets K_m.

    User-centric modes give each UE exactly q transmit APs and no AP more
    than ``cap`` UEs (None: no cap). The sets are those of a greedy pass over
    all (UE, AP) pairs in descending large-scale gain, ties broken by lower
    UE index and then lower AP index, accepting a pair while the UE holds
    fewer than q APs and the AP fewer than cap UEs. When the cap does not
    bind, that is each UE's q strongest APs (ties broken by lower AP index).
    A ConfigError is raised if the cap leaves a UE short of q APs, which
    cap * (|M_tx| - q + 1) >= q K rules out (ExperimentConfig.validate
    checks it, and q <= |M_tx|, for cap = n_antennas before any drop).

    build_assignment sets the cap to n_antennas (the paper gives no value):
    an N-antenna AP resolves at most N spatial streams, and a bounded load
    per AP is what keeps per-AP complexity flat as the network grows
    (scalable cell-free massive MIMO). TC/CF, the non-scalable arms, serve
    every UE from every transmit AP, uncapped.
    """
    k_ues, m_total = large_scale.shape
    if mode in USER_CENTRIC_MODES:
        gains_tx = large_scale[:, tx_aps]
        ranked = np.lexsort((np.broadcast_to(tx_aps, gains_tx.shape), -gains_tx), axis=-1)
        picks = _capped_greedy(gains_tx, ranked, q, k_ues if cap is None else cap)
        serving = list(np.sort(tx_aps[picks], axis=1))
    else:
        serving = [tx_aps.copy() for _ in range(k_ues)]

    served: list[np.ndarray] = [np.zeros(0, dtype=int)] * m_total
    buckets: dict[int, list[int]] = {}
    for k, aps in enumerate(serving):
        for m in aps:
            buckets.setdefault(int(m), []).append(k)
    for m, ks in buckets.items():
        served[m] = np.array(ks, dtype=int)
    return serving, served


def build_assignment(
    layout: NetworkLayout, large_scale: np.ndarray, config: ExperimentConfig
) -> ClusterAssignment:
    tx_aps, rx_aps, clusters, pointing = assign_ap_modes(
        layout, config.mode, config.m_tx_per_region, config.m_rx_per_region
    )
    serving, served = associate_ues(
        large_scale, tx_aps, config.q_serving, config.mode, cap=config.n_antennas
    )
    return ClusterAssignment(
        tx_aps=tx_aps,
        rx_aps=rx_aps,
        serving=serving,
        served=served,
        sensing_clusters=clusters,
        pointing=pointing,
    )
