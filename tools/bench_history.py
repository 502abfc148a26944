#!/usr/bin/env python3
"""Benchmark trajectory across git history: trend table + regression flags.

Every benchmark runner commits its measurement as
``benchmarks/results/BENCH_<name>.json``; this tool walks the git
history of that directory, extracts each artifact's *headline metric*
at every commit that touched it, and renders a per-benchmark trend
table — so "did PR N slow the hot path?" is answered from committed
evidence instead of re-running old checkouts.

A step is flagged as a regression when the headline metric moves in
the *bad* direction by more than ``--tolerance-pct`` (default 10%)
relative to the previous committed value.  Metric and direction per
benchmark live in :data:`HEADLINES`; artifacts without an entry fall
back to their boolean pass flag (``passed`` / ``within_threshold``),
flagging any True→False transition.

Usage::

    python tools/bench_history.py [--tolerance-pct 10] [--json out.json]

Exit code 1 when the *latest* step of any benchmark is a flagged
regression (the trajectory gate); older flagged steps are reported but
do not fail, since later commits already recovered.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS_DIR = "benchmarks/results"


@dataclass(frozen=True)
class Headline:
    """Which number of a BENCH artifact to track, and which way is up."""

    key: str
    higher_is_better: bool

    def extract(self, entry: dict) -> float | None:
        value = entry.get(self.key)
        return float(value) if isinstance(value, (int, float)) else None


HEADLINES: dict[str, Headline] = {
    "hotpath": Headline("cache_improvement", higher_is_better=True),
    "obs_overhead": Headline("disabled_overhead_pct", higher_is_better=False),
    "obs_events_overhead": Headline("enabled_pct", higher_is_better=False),
    "refactor_overhead": Headline("overhead_pct", higher_is_better=False),
    "parallel_speedup": Headline("best_speedup", higher_is_better=True),
}
"""Headline metric per ``benchmark`` field value.

``obs_events_overhead`` and ``parallel_speedup`` carry their headline
nested; :func:`headline_value` flattens those cases before lookup.
"""


def headline_value(name: str, entry: dict) -> float | None:
    """The headline metric of one artifact (derived fields flattened)."""
    if name == "obs_events_overhead":
        run = entry.get("run", {})
        value = run.get("events_enabled_overhead_pct")
        return float(value) if isinstance(value, (int, float)) else None
    if name == "parallel_speedup":
        speedups = [
            workload.get("speedup")
            for workload in entry.get("workloads", [])
            if isinstance(workload.get("speedup"), (int, float))
        ]
        return max(speedups) if speedups else None
    headline = HEADLINES.get(name)
    return headline.extract(entry) if headline else None


def passed_flag(entry: dict) -> bool | None:
    """The artifact's own pass verdict, whichever field spells it."""
    for key in ("passed", "within_threshold"):
        if key in entry:
            return bool(entry[key])
    return None


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(REPO), *args],
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def result_commits() -> list[str]:
    """Commits that touched the results directory, oldest first."""
    out = _git("log", "--format=%H", "--reverse", "--", RESULTS_DIR)
    return [line for line in out.splitlines() if line]


def artifacts_at(commit: str) -> dict[str, dict]:
    """``{filename: parsed artifact}`` of the BENCH files in a commit."""
    try:
        listing = _git("ls-tree", "--name-only", commit, f"{RESULTS_DIR}/")
    except subprocess.CalledProcessError:
        return {}
    artifacts: dict[str, dict] = {}
    for path in listing.splitlines():
        name = Path(path).name
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        try:
            artifacts[name] = json.loads(_git("show", f"{commit}:{path}"))
        except (subprocess.CalledProcessError, json.JSONDecodeError):
            continue
    return artifacts


@dataclass
class Step:
    """One committed value of one benchmark's headline metric."""

    commit: str
    subject: str
    value: float | None
    passed: bool | None
    regression: bool = False


@dataclass
class Trend:
    """The committed trajectory of one benchmark."""

    benchmark: str
    metric: str
    higher_is_better: bool
    steps: list[Step] = field(default_factory=list)


def worktree_artifacts() -> dict[str, dict]:
    """``{filename: parsed artifact}`` of the BENCH files on disk now."""
    artifacts: dict[str, dict] = {}
    for path in sorted((REPO / RESULTS_DIR).glob("BENCH_*.json")):
        try:
            artifacts[path.name] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
    return artifacts


def collect_trends(tolerance_pct: float) -> list[Trend]:
    """Walk history (plus the working tree) into per-benchmark trends."""
    trends: dict[str, Trend] = {}
    sources = [
        (commit[:12], _git("log", "-1", "--format=%s", commit).strip(),
         artifacts_at(commit))
        for commit in result_commits()
    ]
    sources.append(("worktree", "(uncommitted working tree)", worktree_artifacts()))
    for label, subject, artifacts in sources:
        for _filename, entry in sorted(artifacts.items()):
            name = str(entry.get("benchmark", _filename))
            headline = HEADLINES.get(name)
            trend = trends.setdefault(
                name,
                Trend(
                    benchmark=name,
                    metric=(
                        "max workload speedup"
                        if name == "parallel_speedup"
                        else "events_enabled_overhead_pct"
                        if name == "obs_events_overhead"
                        else headline.key
                        if headline
                        else "passed"
                    ),
                    higher_is_better=(
                        headline.higher_is_better if headline else True
                    ),
                ),
            )
            step = Step(
                commit=label,
                subject=subject,
                value=headline_value(name, entry),
                passed=passed_flag(entry),
            )
            previous = trend.steps[-1] if trend.steps else None
            # Skip no-change steps (same commit touched other files).
            if previous is not None and (
                previous.value == step.value and previous.passed == step.passed
            ):
                continue
            step.regression = _is_regression(trend, previous, step, tolerance_pct)
            trend.steps.append(step)
    return sorted(trends.values(), key=lambda trend: trend.benchmark)


def _is_regression(
    trend: Trend, previous: Step | None, step: Step, tolerance_pct: float
) -> bool:
    if previous is not None and previous.passed and step.passed is False:
        return True
    if (
        previous is None
        or previous.value is None
        or step.value is None
    ):
        return False
    allowance = abs(previous.value) * tolerance_pct / 100.0
    if trend.higher_is_better:
        return step.value < previous.value - allowance
    return step.value > previous.value + allowance


def format_trends(trends: list[Trend]) -> str:
    """The human-readable trajectory tables."""
    lines: list[str] = []
    for trend in trends:
        direction = "higher is better" if trend.higher_is_better else "lower is better"
        lines.append(f"{trend.benchmark} — {trend.metric} ({direction})")
        header = f"{'commit':<13} {'value':>12} {'pass':>5} {'flag':>11}  subject"
        lines.append(header)
        lines.append("-" * 72)
        for step in trend.steps:
            value = f"{step.value:.4f}" if step.value is not None else "-"
            passed = {True: "ok", False: "FAIL", None: "-"}[step.passed]
            flag = "REGRESSION" if step.regression else ""
            lines.append(
                f"{step.commit:<13} {value:>12} {passed:>5} {flag:>11}  "
                f"{step.subject[:40]}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance-pct",
        type=float,
        default=10.0,
        help="movement in the bad direction that flags a regression",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the trends as JSON",
    )
    args = parser.parse_args(argv)

    trends = collect_trends(args.tolerance_pct)
    if not trends:
        print(f"no BENCH_*.json history under {RESULTS_DIR}", file=sys.stderr)
        return 1
    print(format_trends(trends))

    if args.json:
        payload = [
            {
                "benchmark": trend.benchmark,
                "metric": trend.metric,
                "higher_is_better": trend.higher_is_better,
                "steps": [
                    {
                        "commit": step.commit,
                        "subject": step.subject,
                        "value": step.value,
                        "passed": step.passed,
                        "regression": step.regression,
                    }
                    for step in trend.steps
                ],
            }
            for trend in trends
        ]
        Path(args.json).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )

    latest_regressions = [
        trend.benchmark
        for trend in trends
        if trend.steps and trend.steps[-1].regression
    ]
    if latest_regressions:
        print(
            f"REGRESSION in latest step of: {', '.join(latest_regressions)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
