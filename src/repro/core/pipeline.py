"""End-to-end offline phase: classify -> rewrite -> metadata."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.asm.program import Module
from repro.core.classify import Classification, classify_module
from repro.core.rewrite_map import RewriteMap
from repro.core.rewriter import RewriterConfig, rewrite_for_rap_track


@dataclass
class RapTrackConfig:
    """All offline-phase switches in one place (ablation surface)."""

    nop_padding: bool = True  # MTB activation padding (section V-C)
    loop_opt: bool = True  # loop-condition logging (section IV-D)
    fixed_loops: bool = True  # statically-deterministic loop elision
    share_pop_stub: bool = True  # one MTBAR_POP_ADDR stub (figure 4)
    enable_dataflow: bool = True  # value-set devirtualization (section IV-C)

    def rewriter(self) -> RewriterConfig:
        return RewriterConfig(
            nop_padding=self.nop_padding,
            share_pop_stub=self.share_pop_stub,
        )


@dataclass
class RapTrackResult:
    """Output of the offline phase."""

    module: Module  # the rewritten (MTBDR + MTBAR) module
    rmap: RewriteMap
    classification: Classification
    site_counts: Dict[str, int] = field(default_factory=dict)


def transform(module: Module,
              config: Optional[RapTrackConfig] = None) -> RapTrackResult:
    """Run RAP-Track's static analysis and rewriting over a module."""
    config = config or RapTrackConfig()
    classification = classify_module(
        module,
        enable_loop_opt=config.loop_opt,
        enable_fixed_loops=config.fixed_loops,
        enable_dataflow=config.enable_dataflow,
    )
    rewritten, rmap = rewrite_for_rap_track(
        module, classification, config.rewriter()
    )
    counts = Counter(
        site.cls.name.lower() for site in classification.sites.values()
    )
    return RapTrackResult(rewritten, rmap, classification, dict(counts))
