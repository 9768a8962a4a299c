#!/usr/bin/env python3
"""Summarize a fuzz campaign's JSON log (docs/fuzzing.md, triage workflow).

bench_fuzz_campaign emits one JSON object per run on stdout. Pipe that (or a
saved log file) through this tool to get a triage summary: pass/fail counts,
failures grouped by violation class (liveness / agreement / trace /
convergence / reply-cache), and for every failing seed its schedule summary,
violations, and the repro file to replay with
`bench_fuzz_campaign --replay <file>`.

Baseline mode compares the same seeds run at two commits: it lists the
seeds the change fixed and the seeds it newly fails, with their violations,
and the seeds that fail at both with a different set of oracles.

Usage:
  ./build/bench_fuzz_campaign --seeds 100 | python3 tools/fuzz_triage.py
  python3 tools/fuzz_triage.py campaign.jsonl [more.jsonl ...]
  python3 tools/fuzz_triage.py --baseline PARENT.jsonl CHANGE.jsonl

Exits 1 when any run failed (baseline mode: when a seed that passed in
PARENT fails in CHANGE), 2 on unusable input.
"""
import json
import sys
from collections import Counter


def violation_class(message):
    """The oracle that fired: the prefix up to the first ':'."""
    head, sep, _ = message.partition(":")
    return head if sep else "other"


def read_runs(streams):
    runs = []
    bad_lines = 0
    for stream in streams:
        for line in stream:
            line = line.strip()
            if not line or not line.startswith("{"):
                continue  # human-readable noise interleaved with the log
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                bad_lines += 1
                continue
            if "seed" in record and "ok" in record:
                runs.append(record)
    return runs, bad_lines


def oracles(run):
    return sorted({violation_class(v) for v in run.get("violations", [])})


def compare(parent_path, change_path):
    """Baseline mode: seeds fixed and newly failing between two campaigns."""
    sides = []
    for path in (parent_path, change_path):
        with open(path, encoding="utf-8") as stream:
            runs, _ = read_runs([stream])
        if not runs:
            print(f"fuzz_triage: no campaign records in {path}")
            return 2
        sides.append({run["seed"]: run for run in runs})
    parent, change = sides
    common = sorted(parent.keys() & change.keys())
    fixed = [s for s in common if not parent[s]["ok"] and change[s]["ok"]]
    broken = [s for s in common if parent[s]["ok"] and not change[s]["ok"]]
    moved = [s for s in common if not parent[s]["ok"] and not change[s]["ok"]
             and oracles(parent[s]) != oracles(change[s])]
    failing = [sum(not side[s]["ok"] for s in common) for side in sides]

    print(f"fuzz_triage: {len(common)} seed(s) in both logs; failures "
          f"{failing[0]} -> {failing[1]}")
    unmatched = len(parent.keys() ^ change.keys())
    if unmatched:
        print(f"  {unmatched} seed(s) in only one log (ignored)")
    print(f"  fixed ({len(fixed)}): {' '.join(map(str, fixed)) or '-'}")
    print(f"  newly failing ({len(broken)}): "
          f"{' '.join(map(str, broken)) or '-'}")
    for seed in broken:
        run = change[seed]
        print(f"    seed {seed}: {run.get('schedule', '?')}")
        for violation in run.get("violations", []):
            print(f"      - {violation}")
    if moved:
        print(f"  failing at both, other oracles ({len(moved)}):")
        for seed in moved:
            print(f"    seed {seed}: {', '.join(oracles(parent[seed]))} -> "
                  f"{', '.join(oracles(change[seed]))}")
    return 1 if broken else 0


def main(argv):
    if len(argv) > 1 and argv[1] == "--baseline":
        if len(argv) != 4:
            print("usage: fuzz_triage.py --baseline PARENT.jsonl CHANGE.jsonl")
            return 2
        return compare(argv[2], argv[3])
    if len(argv) > 1:
        streams = [open(path, encoding="utf-8") for path in argv[1:]]
    else:
        streams = [sys.stdin]
    runs, bad_lines = read_runs(streams)
    if not runs:
        print("fuzz_triage: no campaign records found "
              "(expected JSON lines from bench_fuzz_campaign)")
        return 2

    failures = [r for r in runs if not r["ok"]]
    classes = Counter()
    for run in failures:
        for violation in run.get("violations", []):
            classes[violation_class(violation)] += 1

    print(f"fuzz_triage: {len(runs)} run(s), {len(failures)} failure(s)"
          + (f", {bad_lines} unparseable line(s)" if bad_lines else ""))
    total_exec = sum(r.get("executed", 0) for r in runs)
    total_vc = sum(r.get("view_changes", 0) for r in runs)
    total_rec = sum(r.get("recoveries", 0) for r in runs)
    print(f"  coverage: {total_exec} blocks executed, {total_vc} view "
          f"change(s), {total_rec} recover(ies) across all runs")

    if not failures:
        return 0

    print("  violations by oracle:")
    for name, count in classes.most_common():
        print(f"    {name}: {count}")
    print("  failing seeds:")
    for run in failures:
        print(f"    seed {run['seed']}: {run.get('schedule', '?')}")
        for violation in run.get("violations", []):
            print(f"      - {violation}")
        if "repro" in run:
            print(f"      replay: ./build/bench_fuzz_campaign --replay "
                  f"{run['repro']}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
