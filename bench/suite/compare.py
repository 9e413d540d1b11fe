#!/usr/bin/env python3
"""Compare sets of benchmark runs written by `run.py --out`.

    python3 bench/suite/compare.py PARENT.json... -- CHANGE.json...
    python3 bench/suite/compare.py RUNS.json...

With two sides, every (workload, end_to_end metric) of BENCHMARK.json gets
one verdict:
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's spread (quartile distance over median) is wider
              than the bound, unless every change run beats every parent
              run;
  gain        the change wins at least 9 of 10 run pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile distance;
  same        none of these.
cr, qp_cr_gain_pct and failed_frac are compared exactly: any worsening is
a regression, any improvement reads `changed`. A pair is a parent run and
a change run with the same seed; both sides must hold the same seeds, the
same number of times each, or the comparison is refused (exit 2). The
exit code is 1 on any regression.

With one side, it prints each metric's spread against its bound, as the
benchmark's acceptance check reads it, and exits 1 when a spread other
than setup_s's exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
EXACT = {"cr": "higher", "qp_cr_gain_pct": "higher", "failed_frac": "lower"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def beats(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def worse_share(parent: float, change: float, better: str) -> float:
    """How much worse the change is, as a share of the parent (< 0: better)."""
    d = (parent - change) if better == "higher" else (change - parent)
    return d / abs(parent) if parent else 0.0


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, exact: bool = False) -> str:
    """parent[i] and change[i] are a pair: runs with the same seed."""
    p = statistics.median(parent)
    c = statistics.median(change)
    if exact:
        if c == p:
            return "same"
        return "changed" if beats(c, p, better) else "regression"
    all_better = all(beats(x, y, better) for x in change for y in parent)
    if worse_share(p, c, better) > bound and not all_better:
        return "regression"
    if spread(parent) > bound and not all_better:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(beats(y, x, better) for x, y in pairs)
    q1, _, q3 = quartiles(parent)
    if pairs and wins >= 0.9 * len(pairs) and abs(c - p) > q3 - q1:
        return "gain"
    return "same"


def load_runs(paths: list[str]) -> list[dict]:
    """Untraced runs of every file, ordered by seed, then by file order."""
    runs = []
    for p in paths:
        runs += [r for r in json.loads(Path(p).read_text())["runs"]
                 if not r.get("trace")]
    return sorted(runs, key=lambda r: r["seed"])


def value(run: dict, workload: str, metric: str) -> float | None:
    m = run["workloads"].get(workload, {}).get("metrics", {}).get(metric)
    return None if m is None else float(m["value"])


def series(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [v for v in (value(r, workload, metric) for r in runs)
            if v is not None]


def paired(parent: list[dict], change: list[dict], workload: str,
           metric: str) -> tuple[list[float], list[float]]:
    """The metric's values over run pairs that both report it; the runs
    are seed-ordered with equal seeds, so each pair shares its seed."""
    p, c = [], []
    for rp, rc in zip(parent, change):
        vp, vc = value(rp, workload, metric), value(rc, workload, metric)
        if vp is not None and vc is not None:
            p.append(vp)
            c.append(vc)
    return p, c


def compared_metrics(bench: dict) -> list[tuple[str, str, float, bool]]:
    """(name, better, bound, exact) of every metric the comparison reads."""
    rows = [(m["name"], m["better"], m["bound"], m["name"] in EXACT)
            for m in bench["end_to_end"]]
    named = {m["name"] for m in bench["end_to_end"]}
    rows += [(n, b, 0.0, True) for n, b in EXACT.items() if n not in named]
    return rows


def compare(bench: dict, parent: list[dict], change: list[dict]) -> int:
    regressions = 0
    for w in (x["name"] for x in bench["workloads"]):
        lines, counts = [], {}
        for name, better, bound, exact in compared_metrics(bench):
            p, c = paired(parent, change, w, name)
            if not p:
                continue
            v = verdict(p, c, better, bound, exact)
            counts[v] = counts.get(v, 0) + 1
            q1, mp, q3 = quartiles(p)
            mc = statistics.median(c)
            lines.append(f"    {name:<18} parent {mp:>12.6g} [{q1:.6g}, {q3:.6g}]"
                         f"  change {mc:>12.6g}  "
                         f"{-worse_share(mp, mc, better) * 100:+7.2f}% better"
                         f"  bound {'exact' if exact else f'{bound:.0%}'}"
                         f"  {v}")
        regressions += counts.get("regression", 0)
        summary = ", ".join(f"{n} {k}" for k, n in sorted(counts.items()))
        print(f"{w:<13} {len(parent)} vs {len(change)} runs: {summary}")
        print("\n".join(lines))
    return 1 if regressions else 0


def spreads(bench: dict, runs: list[dict]) -> int:
    over = 0
    for w in (x["name"] for x in bench["workloads"]):
        print(f"{w}")
        for m in bench["end_to_end"]:
            v = series(runs, w, m["name"])
            if not v:
                continue
            s = spread(v)
            flag = ("over bound" if s > m["bound"] else
                    "over a third" if s > m["bound"] / 3 else "ok")
            if s > m["bound"] and m["name"] != "setup_s":
                over += 1
            print(f"    {m['name']:<18} median {statistics.median(v):>12.6g}"
                  f"  spread {s:7.2%}  bound {m['bound']:.1%}  n {len(v)}"
                  f"  {flag}")
    return 1 if over else 0


def main(argv: list[str]) -> int:
    if not argv or argv in (["-h"], ["--help"]):
        print(__doc__)
        return 0 if argv else 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if "--" not in argv:
        return spreads(bench, load_runs(argv))
    cut = argv.index("--")
    parent, change = load_runs(argv[:cut]), load_runs(argv[cut + 1:])
    if not parent or not change:
        print("compare.py: each side needs at least one untraced run",
              file=sys.stderr)
        return 2
    seeds_p = [r["seed"] for r in parent]
    seeds_c = [r["seed"] for r in change]
    if seeds_p != seeds_c:
        print(f"compare.py: the sides ran different seeds ({seeds_p} vs "
              f"{seeds_c}); runs pair by seed", file=sys.stderr)
        return 2
    return compare(bench, parent, change)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
