"""Machine-readable run reports: one self-describing JSON document per
invocation, deterministic for fixed (args, seed, version)."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional

from . import __version__
from .embeddings import cite
from .norms import LP_MAX_RESOLUTION, LP_RESOLUTION, QuadratureConfig
from .xrational import ExtRational

SCHEMA = "rkhs-sandwich-report/1"


def _plain(value: Any) -> Any:
    """JSON-stable encoding; rationals become strings to stay exact."""
    if isinstance(value, ExtRational):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 \
            else str(value.numerator)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return _plain(asdict(value))
    return value


@dataclass
class Report:
    command: str
    query: Dict[str, Any]
    payload: Dict[str, Any]
    rule_citations: List[Dict[str, str]] = field(default_factory=list)
    version: str = __version__
    seed: Optional[int] = None
    quadrature: Optional[Dict[str, Any]] = None
    schema: str = SCHEMA

    @staticmethod
    def build(command: str, query: Dict[str, Any], payload: Any,
              rules: Optional[List[str]] = None, seed: Optional[int] = None,
              quadrature: Optional[QuadratureConfig] = None) -> "Report":
        # each part of each tag, cited from the engine's RULES table
        citations = [{"rule": part, "anchor": statement}
                     for tag in rules or [] for part, statement in cite(tag)]
        quad = None
        if quadrature is not None:
            quad = {"resolution": LP_RESOLUTION,
                    "tolerance": quadrature.tolerance,
                    "max_resolution": LP_MAX_RESOLUTION,
                    "mc_samples": quadrature.mc_samples}
        return Report(command=command, query=_plain(query), payload=_plain(payload),
                      rule_citations=citations, seed=seed, quadrature=quad)

    def to_json(self) -> str:
        # build() and from_json() leave every field a plain JSON value
        return json.dumps(vars(self), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "Report":
        data = json.loads(text)
        return Report(**data)
