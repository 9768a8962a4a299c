#!/usr/bin/env python3
"""Where the heap is at its peak: symbolizes a heap-site profile.

tools/heap_profile/heap_profile.cpp, preloaded into a program, writes the
live heap's exact peak and the sampled sites live at that peak, each frame
as module+offset. This script symbolizes the frames with addr2line
(inlined frames included) and groups the sites by their first sbft::
frame, the library function that made the allocation, largest first.

Usage:
  python3 tools/heap_sites.py REPORT
  python3 tools/heap_sites.py --shim build/libheap_profile.so \\
      -- build/example_quickstart [ARGS...]

The second form runs the command with the shim preloaded and reads the
report it leaves. --require-sbft exits 1 unless some site groups under an
sbft:: frame (the ctest's check that the pipeline still attributes).
"""
import argparse
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict

TOP_GROUPS = 25  # groups printed, largest first


def read_report(path):
    header, sites = {}, []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            fields = line.split()
            if not fields:
                continue
            if fields[0] == "site":
                frames = [tuple(f.rsplit("+0x", 1)) for f in fields[2:]]
                sites.append((int(fields[1]), [(m, int(o, 16)) for m, o in frames]))
            elif len(fields) >= 2:
                header[fields[0]] = fields[1]
    if header.get("sbft-heap-profile") != "1":
        sys.exit(f"heap_sites: {path} is not a heap-site profile")
    return header, sites


def symbolize(sites):
    """(module, offset) -> [(function, file:line), ...], innermost first."""
    by_module = defaultdict(set)
    for _, frames in sites:
        for module, offset in frames:
            by_module[module].add(offset)
    names = {}
    for module, offsets in by_module.items():
        ordered = sorted(offsets)
        if not os.path.exists(module):
            for offset in ordered:
                names[(module, offset)] = [("??", "??:0")]
            continue
        # A frame is a return address; the call it returns from ends one
        # byte earlier.
        query = "\n".join(f"{max(offset - 1, 0):x}" for offset in ordered)
        out = subprocess.run(["addr2line", "-C", "-f", "-i", "-a", "-e", module],
                             input=query, stdout=subprocess.PIPE, text=True,
                             check=False).stdout.splitlines()
        blocks, current = [], None
        for line in out:
            if re.fullmatch(r"0x[0-9a-f]+", line):
                current = []
                blocks.append(current)
            elif current is not None:
                current.append(line)
        for offset, block in zip(ordered, blocks):
            names[(module, offset)] = list(zip(block[0::2], block[1::2])) or [
                ("??", "??:0")]
    return names


def short_name(function):
    """The qualified function name without template arguments, parameters
    or return type: 'sbft::core::SbftReplica::collect'."""
    text = function.replace("operator()", "operator_call")
    for opening, closing in (("(", ")"), ("<", ">")):
        out, depth = [], 0
        for ch in text:
            if ch == opening:
                depth += 1
            elif ch == closing and depth > 0:
                depth -= 1
            elif depth == 0:
                out.append(ch)
        text = "".join(out)
    tokens = text.split()
    return tokens[-1] if tokens else function


def group(sites, names):
    groups = defaultdict(lambda: {"bytes": 0, "sites": 0, "where": defaultdict(int)})
    for estimate, frames in sites:
        key, where = "(no sbft:: frame)", ""
        for frame in frames:
            for function, location in names[frame]:
                name = short_name(function)
                if name.startswith("sbft::"):
                    key, where = name, location.split(" ")[0]
                    break
            if where:
                break
        entry = groups[key]
        entry["bytes"] += estimate
        entry["sites"] += 1
        entry["where"][where] += estimate
    return sorted(groups.items(), key=lambda item: -item[1]["bytes"])


def report(path):
    header, sites = read_report(path)
    names = symbolize(sites)
    groups = group(sites, names)
    peak = int(header.get("peak_bytes", "0"))
    sampled = sum(estimate for estimate, _ in sites)
    print(f"peak live heap {peak / 1e6:.2f} MB; sampled sites at the peak "
          f"account for {sampled / 1e6:.2f} MB "
          f"(one sample per ~{header.get('sample_interval', '?')} B)")
    print(f"{'MB':>9} {'share':>6} {'sites':>5}  first sbft:: frame")
    for key, entry in groups[:TOP_GROUPS]:
        # Name the group's heaviest source line.
        where = max(entry["where"].items(), key=lambda kv: kv[1])[0]
        suffix = f"  [{os.path.basename(where)}]" if where else ""
        print(f"{entry['bytes'] / 1e6:9.2f} {entry['bytes'] / max(peak, 1):6.1%} "
              f"{entry['sites']:5d}  {key}{suffix}")
    return groups


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("report", nargs="?", help="a report the shim wrote")
    p.add_argument("--shim", help="run COMMAND with this shim preloaded")
    p.add_argument("--require-sbft", action="store_true",
                   help="exit 1 unless a site groups under an sbft:: frame")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = p.parse_args(argv[:split])
    command = argv[split + 1:]
    if args.shim:
        if not command:
            p.error("--shim needs a command after --")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "heap.txt")
            env = dict(os.environ, LD_PRELOAD=os.path.abspath(args.shim),
                       SBFT_HEAP_PROFILE_OUT=path)
            run = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                                 check=False)
            if run.returncode != 0:
                sys.exit(f"heap_sites: {' '.join(command)} exited {run.returncode}")
            if not os.path.exists(path):
                sys.exit("heap_sites: the shim wrote no report")
            groups = report(path)
    elif args.report:
        groups = report(args.report)
    else:
        p.error("give a REPORT, or --shim LIB -- COMMAND")
    if args.require_sbft and not any(key.startswith("sbft::") for key, _ in groups):
        print("heap_sites: no site groups under an sbft:: frame")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
