"""Confounded synthetic corpora with known ground truth.

The generator plants a measurable confounder (the before-prompt word
count) that drives both treatment assignment and gain, plus shared
block effects, so the estimation and inference layers can be validated
against closed-form targets. Treated records receive a real inserted
instruction span, which means the full text pipeline (tokenize, diff,
classify) sees the same treatment the outcome model used.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.special import expit, ndtr

from . import surface as surface_mod
from .errors import ConfigError, check_types
from .store import ANNOTATION_FEATURES, ComparisonRecord, PromptState, TASK_GROUPS

# Neutral filler vocabulary: no overlap with motif patterns or the
# step/reasoning/metacognition word lists, so the only classified
# insertion is the planted span.
VOCAB = (
    "table", "value", "record", "input", "output", "format", "detail",
    "context", "number", "label", "entry", "source", "target", "index",
    "field", "window",
)

# Appended to treated prompts: 8 tokens, classified as meta_instruction
# ("make sure to") and nothing else by the bundled ruleset.
TREATED_SPAN = "Make sure to verify the final answer carefully."

DEFAULT_DATASETS = ("synth_arith", "synth_logic", "synth_sort", "synth_qa")
DEFAULT_BACKBONES = ("bb_alpha", "bb_beta")
DEFAULT_GROUPS = ("math", "logical")


@dataclass(frozen=True)
class SynthConfig:
    n: int = 1200
    tau: float = 0.05
    beta_confound: float = 0.1
    gamma: tuple[float, float] = (0.0, 1.0)
    sigma_block: float = 0.02
    sigma_noise: float = 0.06
    datasets: tuple[str, ...] = DEFAULT_DATASETS
    backbones: tuple[str, ...] = DEFAULT_BACKBONES
    groups: tuple[str, ...] = DEFAULT_GROUPS
    framework: str = "synthopt"
    seed: int = 0
    base_word_count: int = 30
    dataset_stagger: int = 2
    accuracy_low: float = 0.40
    accuracy_high: float = 0.50
    max_clamp_rate: float = 0.001
    annotate: bool = False

    def __post_init__(self):
        check_types(self)
        if self.n < 10:
            raise ConfigError("n must be >= 10")
        if len(self.gamma) != 2:
            raise ConfigError(f"gamma must hold 2 values (intercept, slope), got {self.gamma!r}")
        if not self.groups:
            raise ConfigError("need at least one task group")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if len(self.datasets) * len(self.backbones) < 2:
            raise ConfigError("need at least 2 (dataset, backbone) blocks")
        if len(set(self.datasets)) != len(self.datasets):
            raise ConfigError("dataset names must be unique")
        if self.sigma_noise <= 0.0:
            raise ConfigError("sigma_noise must be > 0")
        if self.sigma_block < 0.0:
            raise ConfigError("sigma_block must be >= 0")
        unknown = [g for g in self.groups if g not in TASK_GROUPS]
        if unknown:
            raise ConfigError(f"unknown task groups {unknown}")
        if not 0.0 <= self.accuracy_low < self.accuracy_high <= 1.0:
            raise ConfigError("accuracy bounds must satisfy 0 <= low < high <= 1")
        if self.base_word_count < 5:
            raise ConfigError("base_word_count must be >= 5")

    @property
    def dataset_means(self) -> np.ndarray:
        return np.array(
            [self.base_word_count + self.dataset_stagger * k for k in range(len(self.datasets))],
            dtype=np.float64,
        )

    def group_of(self, dataset_index: int) -> str:
        return self.groups[dataset_index % len(self.groups)]

    @classmethod
    def from_json(cls, doc: dict) -> "SynthConfig":
        """The config of a JSON object, whose tuple fields are JSON lists."""
        kwargs = dict(doc)
        for name in _TUPLE_FIELDS:
            if name in kwargs:
                if not isinstance(kwargs[name], list):
                    raise ConfigError(f"config key '{name}' must be a list, got {kwargs[name]!r}")
                kwargs[name] = tuple(kwargs[name])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad synthetic config: {exc}") from exc

    def to_json(self) -> dict:
        doc = asdict(self)
        for name in _TUPLE_FIELDS:
            doc[name] = list(doc[name])
        return doc


_TUPLE_FIELDS = tuple(item.name for item in fields(SynthConfig) if isinstance(item.default, tuple))


@dataclass(frozen=True)
class SynthGroundTruth:
    tau: float
    expected_naive_bias: float
    implied_treatment_rate: float
    clamp_rate: float
    config: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def _word_count_pmf(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact pmf of the integerized word count, one row per dataset.

    The raw draw is Normal(mu_d, 1) rounded to the nearest integer with
    a floor of 1, so P(wc=k) = ndtr(k+0.5-mu) - ndtr(k-0.5-mu) for k >= 2
    and the k=1 bin absorbs the left tail.
    """
    means = cfg.dataset_means
    k_max = int(math.ceil(means.max() + 10.0))
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    upper = ndtr(ks[None, :] + 0.5 - means[:, None])
    lower = ndtr(ks[None, :] - 0.5 - means[:, None])
    pmf = upper - lower
    pmf[:, 0] = upper[:, 0]
    return ks, pmf


def theoretical_moments(cfg: SynthConfig) -> tuple[float, float]:
    """Mean and sd of the word count under the uniform dataset mixture.

    These exact moments define the z-scoring both the generator and
    expected_naive_bias use, so the two stay consistent by construction.
    """
    ks, pmf = _word_count_pmf(cfg)
    mixture = pmf.mean(axis=0)
    mean = float(mixture @ ks)
    second = float(mixture @ (ks * ks))
    return mean, math.sqrt(second - mean * mean)


def implied_treatment_rate(cfg: SynthConfig) -> float:
    """Marginal P(T=1) under the logistic assignment, by summation."""
    ks, pmf = _word_count_pmf(cfg)
    mean, sd = theoretical_moments(cfg)
    z = (ks - mean) / sd
    propensity = expit(cfg.gamma[0] + cfg.gamma[1] * z)
    return float(pmf.mean(axis=0) @ propensity)


def expected_naive_bias(cfg: SynthConfig) -> float:
    """Closed-form bias of the unweighted difference under the generator.

    beta times the gap in mean standardized confounder between arms,
    computed by exact summation over the word-count distribution.
    """
    ks, pmf = _word_count_pmf(cfg)
    mean, sd = theoretical_moments(cfg)
    z = (ks - mean) / sd
    propensity = expit(cfg.gamma[0] + cfg.gamma[1] * z)
    mixture = pmf.mean(axis=0)
    mass_treated = float(mixture @ propensity)
    mass_control = float(mixture @ (1.0 - propensity))
    if mass_treated == 0.0 or mass_control == 0.0:
        return 0.0
    mean_z_treated = float(mixture @ (propensity * z)) / mass_treated
    mean_z_control = float(mixture @ ((1.0 - propensity) * z)) / mass_control
    return cfg.beta_confound * (mean_z_treated - mean_z_control)


def _annotation_scores(text: str, n_demos: int) -> dict[str, float]:
    """Deterministic annotation-scale proxies for synthetic prompts.

    Crude monotone mappings from surface statistics; they give the
    annotation view, construct validity, and receptivity something
    consistent to chew on without pretending to judge semantics.
    """
    vector = surface_mod.extract(PromptState(instruction_text=text, demos=()), None)
    wc = vector["word_count"]

    def squeeze(value: float) -> float:
        return float(min(10.0, max(1.0, round(value))))

    scores = {
        "Intrinsic_load": squeeze(1 + wc / 8.0),
        "Extraneous_load": squeeze(1 + wc / 10.0),
        "Enc_germane_load": squeeze(1 + wc / 12.0),
        "Clarity": squeeze(10 - wc / 10.0),
        "Contextual_logic": squeeze(vector["avg_word_length"]),
        "Structural_logic": squeeze(1 + 9 * vector["numbered_list_presence"]),
        "Metacognition": squeeze(1 + 40 * vector["metacog_word_density"]),
        "Engagement": squeeze(1 + vector["question_count"]),
        "Demos": squeeze(1 + n_demos),
        "Objectives": squeeze(1 + 20 * vector["imperative_density"]),
        "Politeness": squeeze(1 + 9 * vector["uppercase_ratio"]),
        "Hallucination_awareness": squeeze(1 + 20 * vector["metacog_word_density"]),
    }
    if set(scores) != set(ANNOTATION_FEATURES):
        raise ConfigError("synthetic annotations must cover every annotation feature")
    return scores


def generate(cfg: SynthConfig) -> tuple[list[ComparisonRecord], SynthGroundTruth]:
    """Sample one corpus; byte-identical for identical configs.

    Draw order is fixed: datasets, backbones, raw word counts, treatment
    uniforms, block effects, noise, base accuracies, then filler tokens.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    n_datasets = len(cfg.datasets)
    n_backbones = len(cfg.backbones)
    d_idx = rng.integers(0, n_datasets, size=n)
    b_idx = rng.integers(0, n_backbones, size=n)
    x_raw = rng.normal(loc=cfg.dataset_means[d_idx], scale=1.0)
    word_counts = np.maximum(1, np.rint(x_raw)).astype(np.int64)
    mean, sd = theoretical_moments(cfg)
    z = (word_counts - mean) / sd
    treatment_draw = rng.random(n)
    treated = treatment_draw < expit(cfg.gamma[0] + cfg.gamma[1] * z)
    block_effects = rng.normal(0.0, cfg.sigma_block, size=(n_datasets, n_backbones))
    noise = rng.normal(0.0, cfg.sigma_noise, size=n)
    accuracy_before = rng.uniform(cfg.accuracy_low, cfg.accuracy_high, size=n)
    total_tokens = int(word_counts.sum())
    token_ids = rng.integers(0, len(VOCAB), size=total_tokens)

    gain_raw = (
        cfg.tau * treated.astype(np.float64)
        + cfg.beta_confound * z
        + block_effects[d_idx, b_idx]
        + noise
    )
    gain = np.clip(gain_raw, -accuracy_before, 1.0 - accuracy_before)
    clamp_rate = float(np.mean(gain != gain_raw))
    if clamp_rate >= cfg.max_clamp_rate:
        raise ConfigError(
            f"gain clamp rate {clamp_rate:.4%} exceeds budget {cfg.max_clamp_rate:.4%};"
            " reduce noise scales or widen the accuracy band"
        )
    accuracy_after = accuracy_before + gain

    records = []
    offsets = np.concatenate([[0], np.cumsum(word_counts)])
    for i in range(n):
        tokens = [VOCAB[t] for t in token_ids[offsets[i] : offsets[i + 1]]]
        before_text = " ".join(tokens)
        after_text = before_text + " " + TREATED_SPAN if treated[i] else before_text
        dataset = cfg.datasets[d_idx[i]]
        if cfg.annotate:
            annotations_before = _annotation_scores(before_text, 0)
            annotations_after = _annotation_scores(after_text, 0)
        else:
            annotations_before = None
            annotations_after = None
        records.append(
            ComparisonRecord(
                pair_id=f"synth-{i:06d}",
                framework=cfg.framework,
                backbone=cfg.backbones[b_idx[i]],
                dataset=dataset,
                task_group=cfg.group_of(int(d_idx[i])),
                step_index=int(i % 20) + 1,
                before=PromptState(instruction_text=before_text, demos=()),
                after=PromptState(instruction_text=after_text, demos=()),
                accuracy_before=float(accuracy_before[i]),
                accuracy_after=float(accuracy_after[i]),
                gain=float(gain[i]),
                annotations_before=annotations_before,
                annotations_after=annotations_after,
            )
        )
    truth = SynthGroundTruth(
        tau=cfg.tau,
        expected_naive_bias=expected_naive_bias(cfg),
        implied_treatment_rate=implied_treatment_rate(cfg),
        clamp_rate=clamp_rate,
        config=cfg.to_json(),
    )
    return records, truth
