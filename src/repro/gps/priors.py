"""Preset priors for GPS data (Section 3.5).

The paper has expert library developers ship preset priors for common
situations — walking speeds, driving speeds, "on a road".  Applications
select and combine them rather than writing statistics.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from repro.core.bayes import Prior
from repro.dists.gaussian import TruncatedGaussian
from repro.gps.geo import GeoCoordinate

if TYPE_CHECKING:
    import networkx as nx


def walking_speed_prior(
    mean_mph: float = 3.0, sigma_mph: float = 1.5, max_mph: float = 10.0
) -> Prior:
    """Prior over plausible human walking speeds.

    "Humans are incredibly unlikely to walk at 60 mph or even 10 mph"
    (Section 5.1) — a truncated Gaussian over [0, max] with mass around the
    average walking pace encodes exactly that.
    """
    dist = TruncatedGaussian(mean_mph, sigma_mph, 0.0, max_mph)
    return Prior.from_distribution(dist, label="walking-speed")


def driving_speed_prior(
    mean_mph: float = 35.0, sigma_mph: float = 15.0, max_mph: float = 90.0
) -> Prior:
    """Preset prior for driving, one of the paper's example library presets."""
    dist = TruncatedGaussian(mean_mph, sigma_mph, 0.0, max_mph)
    return Prior.from_distribution(dist, label="driving-speed")


# ---------------------------------------------------------------------------
# Road snapping (Figure 10)
# ---------------------------------------------------------------------------


def build_road_graph(segments: Iterable[tuple[GeoCoordinate, GeoCoordinate]]) -> nx.Graph:
    """A road network as a graph whose edges carry segment geometry."""
    import networkx as nx

    graph = nx.Graph()
    for i, (a, b) in enumerate(segments):
        ka, kb = (a.latitude, a.longitude), (b.latitude, b.longitude)
        graph.add_node(ka, coordinate=a)
        graph.add_node(kb, coordinate=b)
        graph.add_edge(ka, kb, index=i, start=a, end=b)
    if graph.number_of_edges() == 0:
        raise ValueError("road graph needs at least one segment")
    return graph


def _point_segment_distance_m(
    p: GeoCoordinate, a: GeoCoordinate, b: GeoCoordinate
) -> float:
    """Distance from ``p`` to segment ``ab`` in the local tangent plane."""
    px, py = p.enu_m(a)
    bx, by = b.enu_m(a)
    seg_len_sq = bx * bx + by * by
    if seg_len_sq == 0.0:
        return math.hypot(px, py)
    t = max(0.0, min(1.0, (px * bx + py * by) / seg_len_sq))
    return math.hypot(px - t * bx, py - t * by)


def distance_to_roads_m(point: GeoCoordinate, roads: nx.Graph) -> float:
    """Distance from ``point`` to the nearest road segment."""
    return min(
        _point_segment_distance_m(point, data["start"], data["end"])
        for _, _, data in roads.edges(data=True)
    )


def road_prior(
    roads: nx.Graph, sigma_m: float = 5.0, off_road_weight: float = 0.05
) -> Prior:
    """Prior assigning high probability near roads, low elsewhere.

    This achieves the paper's "road-snapping" behaviour (Figure 10): the
    location posterior shifts towards the nearest road unless GPS evidence
    to the contrary is strong.  ``off_road_weight`` keeps the prior proper
    away from roads so pedestrians cutting corners are not impossible.
    """
    if sigma_m <= 0:
        raise ValueError(f"sigma_m must be positive, got {sigma_m}")
    if not 0 <= off_road_weight <= 1:
        raise ValueError(f"off_road_weight must be in [0, 1], got {off_road_weight}")

    def weight(location: GeoCoordinate) -> float:
        d = distance_to_roads_m(location, roads)
        return off_road_weight + (1 - off_road_weight) * math.exp(
            -(d * d) / (2 * sigma_m * sigma_m)
        )

    return Prior.from_weights(weight, label="on-road")
