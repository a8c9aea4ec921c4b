"""Shared builders for hand-made corpora.

Most tests need a ComparisonRecord with only one or two fields that
matter; make_record fills the rest with consistent defaults (gain is
derived from the accuracies unless given).
"""

import pytest

# The CLI sets its BLAS pins (one thread, one OpenBLAS kernel) on import,
# and they take effect only if numpy has not loaded yet. Importing it
# first makes in-process runs match the CLI's subprocess runs byte for byte.
import editfx.cli  # noqa: F401
from editfx.store import ComparisonRecord, PromptState
from editfx.surface import _TOKEN


def tokenize_with_offsets(text):
    # tokenize() plus each token's character span, the offset scan the
    # span extractor once made over the whole text: the offset oracle.
    return [(m.group().lower(), m.start(), m.end()) for m in _TOKEN.finditer(text)]


def make_record(
    pair_id,
    before_text="table value record input",
    after_text="table value record input",
    dataset="synth_arith",
    task_group="math",
    backbone="bb_alpha",
    framework="synthopt",
    step_index=1,
    accuracy_before=0.5,
    gain=0.0,
    demos_before=(),
    demos_after=(),
    annotations_before=None,
    annotations_after=None,
):
    return ComparisonRecord(
        pair_id=pair_id,
        framework=framework,
        backbone=backbone,
        dataset=dataset,
        task_group=task_group,
        step_index=step_index,
        before=PromptState(instruction_text=before_text, demos=tuple(demos_before)),
        after=PromptState(instruction_text=after_text, demos=tuple(demos_after)),
        accuracy_before=accuracy_before,
        accuracy_after=accuracy_before + gain,
        gain=gain,
        annotations_before=annotations_before,
        annotations_after=annotations_after,
    )


# Appending extra filler words to the after text raises word_count, so a
# surface:word_count treatment spec marks the record treated.
GROW = " window field entry"


def effect_corpus(layout, feature_text=GROW, prefix="r"):
    """Build records from (dataset, group, treated, gain, count) tuples."""
    records = []
    k = 0
    for dataset, group, treated, gain, count in layout:
        for _ in range(count):
            after = "table value record input" + (feature_text if treated else "")
            records.append(
                make_record(
                    f"{prefix}{k:05d}",
                    after_text=after,
                    dataset=dataset,
                    task_group=group,
                    gain=gain,
                )
            )
            k += 1
    return records


@pytest.fixture(scope="session")
def default_corpus():
    from editfx.synth import SynthConfig, generate

    records, truth = generate(SynthConfig())
    return records, truth
