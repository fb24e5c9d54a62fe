"""Flat parameter vectors with a per-label block layout.

Model parameters live in a single 1-D float64 array. The layout records one
contiguous block per output label (the weights and bias feeding that label's
logit) plus one trailing shared block (empty for the linear model, the hidden
layer for the MLP). Per-label slicing is what the density-ratio defense keys on,
so the layout is part of the vector, not a convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class LayoutError(ValueError):
    pass


@dataclass(frozen=True)
class ParamLayout:
    """Block structure of a flat parameter vector.

    label_ranges: one (start, stop) half-open range per output label.
    shared_range: trailing (start, stop) range for label-independent
        parameters; start == stop when there are none.
    """

    label_ranges: tuple[tuple[int, int], ...]
    shared_range: tuple[int, int]

    def __post_init__(self):
        if not self.label_ranges:
            raise LayoutError("layout needs at least one label block")
        cursor = 0
        for start, stop in self.label_ranges:
            if start != cursor or stop <= start:
                raise LayoutError(f"label ranges must be contiguous and nonempty, got {self.label_ranges}")
            cursor = stop
        s_start, s_stop = self.shared_range
        if s_start != cursor or s_stop < s_start:
            raise LayoutError(f"shared range {self.shared_range} must follow the label blocks")

    @property
    def num_labels(self) -> int:
        return len(self.label_ranges)

    @property
    def size(self) -> int:
        return self.shared_range[1]

    def label_slice(self, label: int) -> slice:
        if not 0 <= label < self.num_labels:
            raise LayoutError(f"label {label} out of range for {self.num_labels} labels")
        start, stop = self.label_ranges[label]
        return slice(start, stop)


@dataclass
class ParamVector:
    """A flat float64 parameter vector bound to a layout."""

    values: np.ndarray
    layout: ParamLayout

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise LayoutError(f"expected 1-D values, got shape {self.values.shape}")
        if self.values.shape[0] != self.layout.size:
            raise LayoutError(f"values length {self.values.shape[0]} != layout size {self.layout.size}")

    @classmethod
    def zeros(cls, layout: ParamLayout) -> "ParamVector":
        return cls(np.zeros(layout.size), layout)
