"""The benchmark's workloads: one pipeline manifest and stage list each.

Each workload is dominated by a different layer, so a change to one layer
shows undiluted on one workload and is predicted to move nothing on another:

* ``desk-train``: the Siamese model (train + evaluate) is about three
  quarters of the run and the path sampler most of the rest; the only
  workload that scores the model.
* ``desk-paths``: the path sampler is about 99% of the run, on the desk cell
  with the largest graph; the model never runs.
* ``paper-resolve``: lineage resolution (``convert`` over the ``kgstore``
  pattern engine) at paper scale, next to N-Triples writes and reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task: str
    profile: str
    preset: str
    overrides: dict = field(default_factory=dict)
    # None runs the whole pipeline through one run_pipeline call
    stages: Optional[tuple[str, ...]] = None

    def manifest_fields(self, seed: int, out_dir: str) -> dict:
        """Keyword arguments for ``cli.RunManifest``, with the preset applied."""
        from lineagekg.cli import PRESETS

        fields = dict(out_dir=out_dir, seed=seed, profile=self.profile,
                      tasks=[self.task])
        fields.update(PRESETS[self.preset])
        fields.update(self.overrides)
        return fields

    def has_stage(self, stage: str) -> bool:
        return self.stages is None or stage in self.stages


# Sizes are cut from the presets so that one run takes seconds, not tens of
# seconds: on a shared 2-vCPU VM, speed drifted by tens of percent over
# minutes, and a figure over several runs inside one invocation is steadier.  The cuts
# shrink the train graphs; desk-train moves scenarios from train to test so
# that its eval set stays as large as the preset's, and scores one profile
# (paper-resolve covers both).

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="desk-train",
            why="Siamese train+evaluate are ~3/4 of the run, the path sampler ~1/5;"
                " the only workload that scores the model (one epoch)",
            task="selection-projection", profile="rddl", preset="desk",
            overrides={"epochs": 1, "rows_per_table": 5, "train_scenarios": 2},
        ),
        Workload(
            name="desk-paths",
            why="path sampling is ~95% of the run (train-set walks over the"
                " desk-size union-linear graph); the model never runs",
            task="union-linear", profile="rddl", preset="desk",
            overrides={"scenarios_per_task": 3, "train_scenarios": 1},
            stages=("gen-scenarios", "build-kg", "resolve-lineage", "sample-paths"),
        ),
        Workload(
            name="paper-resolve",
            why="lineage resolution (convert over kgstore match_pattern) is ~3/4"
                " of a paper-scale run, beside N-Triples writes and reads",
            task="join-nonlinear", profile="both", preset="paper",
            overrides={"scenarios_per_task": 8, "train_scenarios": 6},
            stages=("gen-scenarios", "build-kg", "resolve-lineage"),
        ),
    )
}
