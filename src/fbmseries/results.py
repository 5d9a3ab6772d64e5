"""Truncated-series results shared by the two expansion engines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SeriesResult:
    """Per-order contributions and running partial sums of a truncated series.

    terms[l] is the order-l contribution: a float when evaluated on a single
    path, an ndarray when evaluated across an ensemble, or a symbolic
    expression when no path was supplied.  partial_sums[l] accumulates terms
    up to and including order l.
    """

    order: int
    terms: list
    partial_sums: list
    diagnostics: "list | None" = field(default=None)

    @property
    def value(self):
        return self.partial_sums[-1]
