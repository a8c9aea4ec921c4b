"""Batch analysis of prompt-optimization edit trajectories.

Ingests JSONL comparison logs of consecutive prompt revisions, extracts
surface features and inserted edit motifs, and estimates per-feature,
per-task-group associations between edits and performance gains with
stabilized inverse-probability weighting, block-bootstrap uncertainty,
and BH-FDR control, plus stability diagnostics and a synthetic
benchmark with known ground truth.
"""

__version__ = "0.1.0"

# The four inserted-span motif categories. They live here, not in the
# motif stage, so the CLI can offer them without loading that stage.
MOTIF_LABELS = (
    "chain_of_thought",
    "meta_instruction",
    "step_by_step",
    "clarity_constraint",
)
