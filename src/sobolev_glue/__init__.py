"""Folding, cone capture and chart gluing of boundary-map extensions."""

__version__ = "0.1.0"

from . import (  # noqa: E402  (cli reads __version__)
    acceptance,
    cli,
    cone,
    covering,
    domain,
    energy,
    errors,
    fileio,
    folding,
    gridmap,
    minimize,
    target,
)

_SUBMODULES = (
    "domain",
    "target",
    "gridmap",
    "fileio",
    "energy",
    "folding",
    "cone",
    "covering",
    "minimize",
    "acceptance",
    "errors",
    "cli",
)
