"""The hate-target distribution a scan produces, and its report formats.

A TargetDistribution counts every post of a corpus as hateful, normal,
excluded or failed, and the hateful ones per target. It renders as JSON,
CSV or a monospace chart. This module imports no numpy, so the command line
can list the report formats without loading the models' dependencies.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .corpus import TARGET_CLASSES
from .errors import DataError

__all__ = [
    "TargetDistribution",
    "distribution_from_dict",
    "render_json",
    "render_csv",
    "render_chart",
    "RENDERERS",
    "report",
]


@dataclass(frozen=True)
class TargetDistribution:
    total_posts: int
    hateful_posts: int
    normal_posts: int
    excluded_posts: int
    failed_posts: int
    per_target: dict
    detector_tag: str = ""

    def __post_init__(self):
        parts = (self.hateful_posts + self.normal_posts
                 + self.excluded_posts + self.failed_posts)
        if parts != self.total_posts:
            raise ValueError(
                f"post counts do not add up: {parts} != {self.total_posts}")
        if sum(self.per_target.values()) != self.hateful_posts:
            raise ValueError("per-target counts must sum to the hateful count")
        if any(v < 0 for v in self.per_target.values()):
            raise ValueError("negative target count")

    @property
    def fractions(self) -> dict:
        if self.hateful_posts == 0:
            return {t: 0.0 for t in self.per_target}
        return {t: c / self.hateful_posts for t, c in self.per_target.items()}


def _distribution_to_dict(dist: TargetDistribution) -> dict:
    return {
        "total_posts": dist.total_posts,
        "hateful_posts": dist.hateful_posts,
        "normal_posts": dist.normal_posts,
        "excluded_posts": dist.excluded_posts,
        "failed_posts": dist.failed_posts,
        "per_target": dict(dist.per_target),
        "fractions": dist.fractions,
        "detector_tag": dist.detector_tag,
    }


def distribution_from_dict(doc: dict) -> TargetDistribution:
    try:
        return TargetDistribution(
            total_posts=int(doc["total_posts"]),
            hateful_posts=int(doc["hateful_posts"]),
            normal_posts=int(doc["normal_posts"]),
            excluded_posts=int(doc["excluded_posts"]),
            failed_posts=int(doc["failed_posts"]),
            per_target={str(k): int(v) for k, v in doc["per_target"].items()},
            detector_tag=str(doc.get("detector_tag", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"corrupt distribution document: {exc}") from exc


def render_json(dist: TargetDistribution) -> str:
    return json.dumps(_distribution_to_dict(dist), indent=2, sort_keys=True)


def _targets_by_count(dist: TargetDistribution):
    order = {t: i for i, t in enumerate(TARGET_CLASSES)}
    return sorted(dist.per_target,
                  key=lambda t: (-dist.per_target[t], order.get(t, len(order))))


def render_csv(dist: TargetDistribution) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["target", "count", "fraction"])
    fractions = dist.fractions
    for target in _targets_by_count(dist):
        writer.writerow([target, dist.per_target[target],
                         f"{fractions[target]:.6f}"])
    return buffer.getvalue()


def render_chart(dist: TargetDistribution, width: int = 40) -> str:
    lines = [
        f"posts: {dist.total_posts} total, {dist.hateful_posts} hateful, "
        f"{dist.normal_posts} normal, {dist.excluded_posts} excluded, "
        f"{dist.failed_posts} failed"
    ]
    if dist.detector_tag:
        lines.append(f"detector: {dist.detector_tag}")
    if dist.hateful_posts == 0:
        lines.append("no hateful posts")
        return "\n".join(lines) + "\n"
    fractions = dist.fractions
    peak = max(dist.per_target.values())
    name_width = max(len(t) for t in dist.per_target)
    for target in _targets_by_count(dist):
        count = dist.per_target[target]
        bar = "#" * (round(width * count / peak) if peak else 0)
        lines.append(f"{target:<{name_width}}  {bar} {count} "
                     f"({100 * fractions[target]:.1f}%)")
    return "\n".join(lines) + "\n"


# report format name -> renderer, for report() and `hatescan report --format`
RENDERERS = {"json": render_json, "csv": render_csv, "text-chart": render_chart}


def report(dist: TargetDistribution, fmt: str, path: str) -> str:
    """Write the distribution in the requested format; returns the path."""
    try:
        renderer = RENDERERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown format {fmt!r}; choose from {sorted(RENDERERS)}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(renderer(dist))
    return path
