"""Experiment configuration: a flat, JSON-round-trippable record of one CLI
invocation.  Flags override config-file fields; identical config + seed gives
byte-identical artifacts."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    inputs: dict = field(default_factory=dict)      # inline specs / file paths
    tolerances: dict = field(default_factory=dict)  # name -> positive float
    resolution: int = 256
    grid: int = 48
    degree_cap: int = 8192
    out: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.resolution < 16:
            raise ValueError("resolution must be at least 16")
        for name, tol in self.tolerances.items():
            if not tol > 0:
                raise ValueError(f"tolerance {name} must be positive")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**json.loads(text))

    def replace(self, **kw) -> "ExperimentConfig":
        data = asdict(self)
        data.update(kw)
        return ExperimentConfig(**data)
