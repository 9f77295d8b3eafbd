"""Columnar timeline kernels for the heartbeat/metrics stack.

The paper's measurement device — the monthly heartbeat and its
cumulative-fraction curve — is consumed many times per project: the
landmark finder, the activity totals, the 20-point progress vector and
the chart renderers all walk the same cumulative arrays. This module
computes those arrays **once** per series, in a single fused pass over
the flat monthly counts, and counts ``kernel_series`` (prefix tables
built) and ``kernel_reuse`` (lookups served from a built table) in
:mod:`repro.obs`, so the execution engine reports kernel activity next
to its cache and parse-memo statistics.

The naive per-call implementations the kernels replaced are retained
below as ``naive_*`` functions. They are the *oracles*: the hypothesis
suite in ``tests/history/test_kernel_oracle.py`` asserts the kernels
are exactly equal to them on arbitrary inputs, which is the argument
that the golden-pinned study outputs cannot drift.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro import obs
from repro.diff.changes import KIND_ORDER, N_KINDS

__all__ = [
    "PrefixView",
    "accumulate_month_counts",
    "activity_prefix",
    "count_reuse",
    "kernel_counters",
    "naive_accumulate_month_counts",
    "naive_combine_flat",
    "naive_cumulative",
    "naive_cumulative_fraction",
]


def kernel_counters() -> tuple[int, int]:
    """(series_built, reuse_hits) of the prefix kernels, as counted in
    :mod:`repro.obs`: prefix tables built (one per distinct
    ActivitySeries inspected) and lookups answered from an
    already-built table (each one a full cumulative-array
    recomputation before this layer existed)."""
    counts = obs.snapshot()
    return counts.get("kernel_series", 0), counts.get("kernel_reuse", 0)


def count_reuse() -> None:
    """Record one memo-served prefix lookup."""
    obs.count("kernel_reuse")


#: The fused prefix state of one activity series:
#: ``(cumulative, total, fractions)``.
PrefixView = tuple[tuple[int, ...], int, tuple[float, ...]]


def activity_prefix(monthly: Sequence[int]) -> PrefixView:
    """Cumulative array, total and cumulative-fraction vector, fused.

    One pass over ``monthly``; the total falls out of the prefix sum,
    and the fraction vector divides it back in (all zeros for a series
    with no activity — the convention the golden outputs pin).
    """
    obs.count("kernel_series")
    cumulative: list[int] = []
    running = 0
    for value in monthly:
        running += value
        cumulative.append(running)
    if running == 0:
        fractions = (0.0,) * len(cumulative)
    else:
        fractions = tuple(c / running for c in cumulative)
    return tuple(cumulative), running, fractions


def accumulate_month_counts(
    months: int,
    events: Iterable[tuple[int, tuple[int, ...]]],
) -> tuple[list[int], list[list[int] | None]]:
    """Accumulate per-transition flat kind counts into monthly rows.

    Args:
        months: length of the project update period.
        events: ``(month, flat_counts)`` per transition, flat counts in
            :data:`~repro.diff.changes.KIND_ORDER` order.

    Returns:
        ``(monthly, rows)`` — total affected attributes per month, and
        one flat per-kind count row per month (``None`` for months no
        event touched, so callers can share an empty singleton).
    """
    monthly = [0] * months
    rows: list[list[int] | None] = [None] * months
    for month, flat in events:
        monthly[month] += sum(flat)
        row = rows[month]
        if row is None:
            rows[month] = list(flat)
        else:
            for index in range(N_KINDS):
                row[index] += flat[index]
    return monthly, rows


# ----------------------------------------------------------------------
# naive reference implementations (oracles for the kernel tests)


def naive_cumulative(monthly: Sequence[int]) -> tuple[int, ...]:
    """Reference cumulative array (the pre-kernel per-call loop)."""
    out: list[int] = []
    running = 0
    for value in monthly:
        running += value
        out.append(running)
    return tuple(out)


def naive_cumulative_fraction(monthly: Sequence[int]) -> tuple[float, ...]:
    """Reference cumulative-fraction vector (recomputes everything)."""
    total = sum(monthly)
    if total == 0:
        return tuple(0.0 for _ in monthly)
    return tuple(c / total for c in naive_cumulative(monthly))


def naive_combine_flat(flats: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """Reference breakdown sum via the old enum-keyed dict churn."""
    totals = {kind: 0 for kind in KIND_ORDER}
    for flat in flats:
        for kind, count in zip(KIND_ORDER, flat):
            totals[kind] += count
    return tuple(totals[kind] for kind in KIND_ORDER)


def naive_accumulate_month_counts(
    months: int,
    events: Iterable[tuple[int, tuple[int, ...]]],
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Reference per-month accumulation via intermediate lists.

    Mirrors the pre-kernel ``schema_heartbeat`` shape: collect every
    transition's counts per month, then dict-combine each month.
    """
    monthly = [0] * months
    per_month: list[list[tuple[int, ...]]] = [[] for _ in range(months)]
    for month, flat in events:
        monthly[month] += sum(flat)
        per_month[month].append(flat)
    combined = [naive_combine_flat(items) for items in per_month]
    return monthly, combined
