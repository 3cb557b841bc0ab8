"""Framing analysis: per-document proximity to the AI / Augment / Automate
anchor centroids and the Framing Index (augment similarity minus automate
similarity). The ``framing`` stage averages the four columns by year and by
(year, sector) with ``skills.rate_table``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import anchor_centroid, cosine
from .taxonomy import ANCHOR_GROUPS


@dataclass(frozen=True)
class AnchorCentroids:
    ai: np.ndarray
    augment: np.ndarray
    automate: np.ndarray

    @classmethod
    def from_anchors(cls, anchors: dict[str, list[str]], provider) -> "AnchorCentroids":
        """The centroid of each group of ``load_anchors``, in field order."""
        return cls(*(anchor_centroid(anchors[group], provider) for group in ANCHOR_GROUPS))


@dataclass(frozen=True)
class FramingResult:
    posting_id: str
    sim_ai: float
    sim_augment: float
    sim_automate: float
    framing_index: float


def frame_document(embedding: np.ndarray, centroids: AnchorCentroids,
                   posting_id: str = "") -> FramingResult:
    sim_ai = cosine(embedding, centroids.ai)
    sim_augment = cosine(embedding, centroids.augment)
    sim_automate = cosine(embedding, centroids.automate)
    return FramingResult(
        posting_id=posting_id,
        sim_ai=sim_ai,
        sim_augment=sim_augment,
        sim_automate=sim_automate,
        framing_index=sim_augment - sim_automate,
    )

