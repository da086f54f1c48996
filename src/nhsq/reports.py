"""Experiment reports: canonical JSON, CSV series, and static SVG plots.

Determinism contract: identical config and seeds produce byte-identical
report.json and series.csv.  Floats are serialized via repr (shortest
round-trip form), keys are sorted, and wall-clock time never enters the
serialized payload.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import InvalidParams

__all__ = ["Verdict", "ExperimentReport", "emit_csv", "emit_svg"]

CSV_HEADER = "n,alpha,g_n,partial_sum,err_est"


@dataclass
class Verdict:
    """Pass/fail against one acceptance rule, identified by its number."""

    criterion: str
    passed: bool
    detail: str


@dataclass
class ExperimentReport:
    name: str
    config: dict
    metrics: dict = field(default_factory=dict)
    series_rows: list = field(default_factory=list)  # (n, alpha, g_n, partial, err)
    verdicts: list = field(default_factory=list)
    runtime_seconds: float = 0.0  # reported on stdout only, never serialized
    counters: dict = field(default_factory=dict)  # stdout only, never serialized
    skipped: list = field(default_factory=list)  # (criterion, reason); stdout only

    @property
    def all_passed(self) -> bool:
        """Every criterion ran and passed: a skipped one is not a pass."""
        return not self.skipped and all(v.passed for v in self.verdicts)

    def add_series(self, series) -> None:
        self.series_rows.extend(series.rows())

    def to_json_bytes(self) -> bytes:
        payload = {
            "name": self.name,
            "config": self.config,
            "metrics": self.metrics,
            "series": [list(r) for r in self.series_rows],
            "verdicts": [asdict(v) for v in self.verdicts],
        }
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("ascii")

    def write(self, out_dir: Path, svg: bool = False) -> list[Path]:
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        jpath = out_dir / "report.json"
        jpath.write_bytes(self.to_json_bytes())
        paths.append(jpath)
        cpath = out_dir / "series.csv"
        emit_csv(self, cpath)
        paths.append(cpath)
        if svg and self.series_rows:
            spath = out_dir / "series.svg"
            emit_svg(self, spath)
            paths.append(spath)
        return paths


def emit_csv(report: ExperimentReport, path) -> None:
    """series.csv: one row per (n, alpha); '.' decimal point, repr floats."""
    lines = [CSV_HEADER]
    for (n, alpha, g_n, partial, err) in report.series_rows:
        alpha_s = "" if alpha == "" else repr(float(alpha))
        lines.append(f"{n},{alpha_s},{g_n!r},{partial!r},{err!r}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def _svg_polyline(points: list[tuple[float, float]], color: str) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


def emit_svg(report: ExperimentReport, path) -> None:
    """log-x plot of partial sums, one polyline per aperture; pure markup."""
    if not report.series_rows:
        raise InvalidParams("SVG plot needs at least one series row")
    groups: dict = {}
    for (n, alpha, _, partial, _) in report.series_rows:
        groups.setdefault(alpha, []).append((n, partial))
    width, height, pad = 640, 400, 50
    xs = [math.log10(n + 1) for rows in groups.values() for n, _ in rows]
    ys = [p for rows in groups.values() for _, p in rows]
    x_lo, x_hi = min(xs), max(xs) or 1.0
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return pad + (v - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" font-size="14">'
        f"{report.name}: partial sums vs log10(n+1)</text>",
    ]
    for idx, (alpha, rows) in enumerate(sorted(groups.items(), key=lambda kv: str(kv[0]))):
        color = colors[idx % len(colors)]
        pts = [(sx(math.log10(n + 1)), sy(p)) for n, p in sorted(rows)]
        if len(pts) == 1:
            x, y = pts[0]
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        else:
            parts.append(_svg_polyline(pts, color))
        label = "V" if alpha == "" else f"alpha={alpha}"
        parts.append(
            f'<text x="{width - pad + 4}" y="{pad + 16 * idx}" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    parts.append(
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" '
        'stroke="black"/>'
    )
    parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>')
    parts.append("</svg>")
    Path(path).write_bytes(("\n".join(parts) + "\n").encode("ascii"))
