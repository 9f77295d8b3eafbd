"""Synthetic corpus of schema histories.

The paper studies 151 GitHub-extracted schema histories. Offline, this
package generates a *faithful synthetic stand-in*: for every pattern it
samples a landmark plan (birth month, PUP, activity schedule) inside the
pattern's defining label region — following the paper's per-pattern birth
distribution (Fig. 7), population counts (Table 2) and activity medians
(§6.1) — and then **realizes the plan as real DDL commit histories**, so
the full parse→diff→measure pipeline is exercised end to end.

Entry point::

    from repro.corpus import generate_corpus

    corpus = generate_corpus(seed=7)
    corpus.projects[0].history          # a real SchemaHistory
    corpus.projects[0].intended_pattern # ground truth

A corpus is stored on disk one way: as the versioned corpus directory
of :mod:`repro.sources.corpusdir` (``repro-schema corpus export``,
studied through ``--source dir:``).
"""

from repro.corpus.planner import LandmarkPlan, plan_schedule
from repro.corpus.templates import NamePool, fresh_column_type
from repro.corpus.ddlgen import DdlScribe, realize_history
from repro.corpus.profiles import (
    BIRTH_BUCKETS,
    PatternSampler,
    sampler_for,
)
from repro.corpus.generator import Corpus, GeneratedProject, generate_corpus

__all__ = [
    "BIRTH_BUCKETS",
    "Corpus",
    "DdlScribe",
    "GeneratedProject",
    "LandmarkPlan",
    "NamePool",
    "PatternSampler",
    "fresh_column_type",
    "generate_corpus",
    "plan_schedule",
    "realize_history",
    "sampler_for",
]
