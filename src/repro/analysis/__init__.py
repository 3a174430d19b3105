"""Result containers, projections and table rendering for experiments."""

from repro.analysis.breakdown import (LatencyTrace, NULL_TRACE, NullTrace,
                                      current_trace, traced_op)
from repro.analysis.tables import format_table
from repro.analysis.projection import ScalabilityProjection, project_cores

__all__ = [
    "LatencyTrace",
    "NULL_TRACE",
    "NullTrace",
    "ScalabilityProjection",
    "current_trace",
    "format_table",
    "project_cores",
    "traced_op",
]
