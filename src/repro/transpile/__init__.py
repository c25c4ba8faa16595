"""Mapping & routing substrate: layouts, SABRE, ASAP scheduling."""

from .layout import Layout, LayoutError, dense_layout
from .sabre import SabreResult, route_with_sabre, sabre_layout, sabre_route
from .scheduling import Schedule, asap_schedule, two_qubit_depth

__all__ = [
    "Layout",
    "LayoutError",
    "SabreResult",
    "Schedule",
    "asap_schedule",
    "dense_layout",
    "route_with_sabre",
    "sabre_layout",
    "sabre_route",
    "two_qubit_depth",
]
