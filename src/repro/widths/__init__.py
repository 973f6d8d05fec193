"""Width measures: edge covers, static width, dynamic width."""

from repro.widths.dynamic_width import (
    dynamic_width,
    dynamic_width_of_order,
    dynamic_width_profile,
)
from repro.widths.edge_cover import (
    fractional_edge_cover,
    integral_edge_cover,
    rho,
    rho_star,
)
from repro.widths.static_width import (
    static_width,
    static_width_of_order,
    static_width_profile,
)

__all__ = [
    "dynamic_width",
    "dynamic_width_of_order",
    "dynamic_width_profile",
    "fractional_edge_cover",
    "integral_edge_cover",
    "rho",
    "rho_star",
    "static_width",
    "static_width_of_order",
    "static_width_profile",
]
