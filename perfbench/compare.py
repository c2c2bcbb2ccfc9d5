"""Compare two run sets by the bounds in ``BENCHMARK.json``.

A run set is the JSON file ``run.py --record`` writes; ``FILE:LABEL``
selects the runs recorded under one label, so the two agreement sets of
a baseline file compare as ``BASE.json:A BASE.json:B``.  Only untraced
runs count.

Per workload and end-to-end metric, with the base set as the parent:

* **unresolved** - either set's spread (inter-quartile distance over
  median) exceeds the metric's bound, and not every new run reads
  better than every base run;
* **regression** - the new median is worse than the base median by
  more than the bound (and, for ``setup_s``, by more than 50 ms);
* **gain** - at least ten pairs were run (runs paired by seed), the new
  run wins at least 9 of 10 of them (ties counting for neither side),
  the medians differ by more than the base set's inter-quartile
  distance, and no more ops failed than in the base set;
* **ok** - none of these.

Each workload also gets a ``failed_frac`` row, failed over attempted
ops of all its runs: a **regression** whenever the new set's fraction
is higher than the base set's.

To measure a change against its parent, record alternating pairs, for
example with the two checkouts side by side::

    for s in 1 2 3 4 5 6 7 8 9 10; do
      for side in parent change; do   # swap the order on odd seeds
        (cd $side && python3 perfbench/run.py --workload W --seed $s \\
           --record ../$side.json)
      done
    done
    python3 change/perfbench/run.py --compare parent.json change.json
"""

from __future__ import annotations

import json
import os
import statistics

from harness import load_manifest

#: Absolute slack below which a worse median is never a regression.
FLOORS = {"setup_s": 0.05}
WIN_SHARE = 0.9
MIN_PAIRS = 10


def verdict(base, new, *, better: str, bound: float, floor: float = 0.0,
            pairs=None, more_failures: bool = False) -> dict:
    """Judge one metric of one workload; ``pairs`` are (base, new)
    values of runs with the same seed (default: in recorded order), and
    ``more_failures`` rules a gain out."""
    pairs = list(zip(base, new)) if pairs is None else list(pairs)
    sign = 1.0 if better == "lower" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    worse = sign * (mn - mb) / mb
    spread = max(_spread(base), _spread(new))
    wins = sum(sign * (n - b) < 0 for b, n in pairs)
    all_better = (max(new) < min(base)) if sign > 0 else (min(new) > max(base))
    gain = (worse < 0 and not more_failures and len(pairs) >= MIN_PAIRS
            and wins >= WIN_SHARE * len(pairs) and abs(mn - mb) > _iqr(base))
    if spread > bound and not all_better:
        tag = "unresolved"
    elif worse > bound and abs(mn - mb) > floor:
        tag = "regression"
    elif gain:
        tag = "gain"
    else:
        tag = "ok"
    return {"tag": tag, "change": (mn - mb) / mb, "spread": spread,
            "wins": wins, "pairs": len(pairs), "base": mb, "new": mn}


def _iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _spread(values) -> float:
    med = statistics.median(values)
    return _iqr(values) / med if med else 0.0


def load_runs(spec: str) -> list[dict]:
    path, label = spec, None
    if not os.path.exists(spec) and ":" in spec:
        path, label = spec.rsplit(":", 1)
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    return [r for r in runs
            if not r["trace"] and (label is None or r.get("label") == label)]


def _failed_frac(runs) -> float:
    return (sum(r["failed"] for r in runs)
            / max(1, sum(r["attempted"] for r in runs)))


def compare_runs(base_runs, new_runs, manifest) -> dict:
    """``{workload: {metric: verdict}}`` over the workloads in both sets,
    with a ``failed_frac`` verdict beside the end-to-end metrics."""
    out = {}
    for w in [x["name"] for x in manifest["workloads"]]:
        b = {r["seed"]: r for r in base_runs if r["workload"] == w}
        n = {r["seed"]: r for r in new_runs if r["workload"] == w}
        if not b or not n:
            continue
        common = sorted(set(b) & set(n))
        fb, fn = _failed_frac(b.values()), _failed_frac(n.values())
        row = {}
        for m in manifest["end_to_end"]:
            name = m["name"]
            row[name] = verdict(
                [r["e2e"][name]["value"] for r in b.values()],
                [r["e2e"][name]["value"] for r in n.values()],
                better=m["better"], bound=m["bound"],
                floor=FLOORS.get(name, 0.0),
                pairs=[(b[s]["e2e"][name]["value"], n[s]["e2e"][name]["value"])
                       for s in common] or None,
                more_failures=fn > fb)
        row["failed_frac"] = {
            "tag": "regression" if fn > fb else "ok", "change": fn - fb,
            "spread": 0.0, "wins": 0, "pairs": len(common), "base": fb,
            "new": fn}
        out[w] = row
    return out


def compare_files(base_spec: str, new_spec: str) -> int:
    manifest = load_manifest()
    result = compare_runs(load_runs(base_spec), load_runs(new_spec), manifest)
    names = [m["name"] for m in manifest["end_to_end"]] + ["failed_frac"]
    width = max(len(n) for n in names) + 2
    print(f"{'workload':<15}" + "".join(f"{n:>{width}}" for n in names))
    regressions = 0
    for w, row in result.items():
        cells = []
        for name in names:
            v = row[name]
            mark = {"ok": "", "gain": " G", "regression": " R",
                    "unresolved": " ?"}[v["tag"]]
            regressions += v["tag"] == "regression"
            cells.append(f"{v['change']:+.1%}{mark}")
        print(f"{w:<15}" + "".join(f"{c:>{width}}" for c in cells))
    print("median change new vs base (failed_frac: difference of the "
          "fractions); G gain, R regression beyond the bound, ? unresolved "
          "(spread above the bound)")
    for w, row in result.items():
        for name in names:
            v = row[name]
            print(f"  {w:<15} {name:<18} {v['tag']:<10} base {v['base']:.4g} "
                  f"new {v['new']:.4g} spread {v['spread']:.3f} "
                  f"wins {v['wins']}/{v['pairs']}")
    return 1 if regressions else 0
