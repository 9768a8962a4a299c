#!/usr/bin/env python3
"""BFT protocol-safety lint suite (run as `ctest -L lint`; docs/static_analysis.md).

Five checks grounded in this repo's real hazard classes — each one encodes an
invariant that a reviewer cannot reliably police by eye and whose violation
has already bitten (or would silently bite) replay determinism, wire
compatibility, or reconfiguration safety:

  determinism  No iteration over std::unordered_map/unordered_set anywhere in
               src/. Hash-order iteration leaking into a message, digest,
               snapshot, or trace breaks byte-identical fuzzer replays (PR 8)
               and the cores=1-vs-8 identical-trace guarantee (PR 7).
  entropy      All of src/ draws randomness only through common::Rng and
               never reads wall clocks as input.
  epoch_math   Slot-scoped protocol code must resolve rosters and quorums via
               epoch_for_seq(s); every direct config/f/c/n/quorum read in the
               ordering engines and their shared shell needs a justification
               naming its scope (boot, view-change, or epoch-derived
               parameter).
  wire_format  Wire Tag values are unique, every Tag maps to a Message
               variant alternative and vice versa, and every message type is
               serde-round-tripped in tests/message_test.cpp.
  counters     Every uint64/int64 field of the *Stats structs is visited by
               its struct's for_each (the single descriptor the harness uses
               to fold counters into RunMetrics/bench JSON) or carries a
               justified exemption.

Usage: bft_lint.py --check <name> [--root <repo>]   (or --check all)
Exit status is non-zero with one line per finding; suppression goes through
tools/lint/allowlists/<check>.allow (see lintlib.Allowlist for the format —
every entry needs a justification and must still match a finding).
"""
from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import lintlib
from lintlib import Allowlist, Finding, finish, load_sources, struct_body


def allowlist(root: Path, check: str) -> Allowlist:
    return Allowlist(root / "tools" / "lint" / "allowlists" / f"{check}.allow")


# ---------------------------------------------------------------------------
# determinism: no unordered-container iteration can feed wire/digest state

UNORDERED_RE = re.compile(r"\bstd::unordered_(?:map|set)\b")
# Trailing identifier of a single-line member/local declaration.
DECL_ID_RE = re.compile(r">\s*(\w+)\s*[;={]")


def check_determinism(root: Path) -> int:
    sources = load_sources(root)
    findings: list[Finding] = []
    unordered_ids: set[str] = set()
    for src in sources:
        for lineno, line in enumerate(src.lines, start=1):
            if "#include" in line:
                continue
            if UNORDERED_RE.search(line):
                for ident in DECL_ID_RE.findall(line):
                    unordered_ids.add(ident)
                findings.append(Finding(
                    src.rel, lineno, "std::unordered",
                    "unordered container in src/ — hash iteration order can "
                    "leak into messages/digests/snapshots/traces; use "
                    "std::map/std::set (or justify why order cannot escape)",
                    line.strip()))
    # Any iteration over a variable declared with an unordered type is flagged
    # wherever it happens, including a different file than the declaration.
    iter_res = [
        re.compile(r"for\s*\([^;)]*:\s*(?:this->)?(\w+)\s*\)"),
        re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\("),
    ]
    for src in sources:
        for lineno, line in enumerate(src.lines, start=1):
            for rx in iter_res:
                for ident in rx.findall(line):
                    if ident in unordered_ids:
                        findings.append(Finding(
                            src.rel, lineno, f"iterate:{ident}",
                            f"iteration over unordered container '{ident}' — "
                            f"order is hash-seed dependent; convert the "
                            f"container to std::map or iterate a sorted copy",
                            line.strip()))
    return finish("determinism", findings, allowlist(root, "determinism"),
                  len(sources))


# ---------------------------------------------------------------------------
# entropy: every stochastic choice flows from a seed through common::Rng

ENTROPY_FORBIDDEN = [
    (re.compile(r"\bsrand\s*\("), "srand() seeds the libc RNG"),
    (re.compile(r"(?<![\w:.>])rand\s*\("), "rand() draws from ambient state"),
    (re.compile(r"#\s*include\s*<random>"), "<random> engines bypass common::Rng"),
    (re.compile(r"\bstd::(mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
                r"random_device|uniform_int_distribution|"
                r"uniform_real_distribution|bernoulli_distribution|"
                r"normal_distribution|discrete_distribution)\b"),
     "std <random> machinery bypasses common::Rng"),
    (re.compile(r"/dev/u?random"), "kernel entropy is not replayable"),
    (re.compile(r"(?<![\w:.>])time\s*\(|\bgettimeofday\b|(?<![\w:.>])clock\s*\("),
     "wall-clock time as input"),
    (re.compile(r"std::chrono::(system_clock|high_resolution_clock|"
                r"steady_clock)"), "chrono clock as input"),
]


def check_entropy(root: Path) -> int:
    sources = load_sources(root)
    findings: list[Finding] = []
    for src in sources:
        for lineno, line in enumerate(src.lines, start=1):
            for rx, why in ENTROPY_FORBIDDEN:
                m = rx.search(line)
                if m:
                    findings.append(Finding(
                        src.rel, lineno, m.group(0).strip(),
                        f"{why} — all simulator/workload/fuzzer randomness "
                        f"must flow from an explicit seed through common::Rng",
                        line.strip()))
    return finish("entropy", findings, allowlist(root, "entropy"), len(sources))


# ---------------------------------------------------------------------------
# epoch_math: slot-scoped roster/quorum reads must route through epoch_for_seq

# A config object holding genesis or current-epoch-derived sizing. Bare
# `config` needs the lookbehind so `opts_.config.f` is counted once.
CONFIG_OBJ = r"(?:cfg_|config_|opts_\.config|(?<![\w.])config)"
EPOCH_MATH_RES = [
    (re.compile(CONFIG_OBJ + r"\.(?:f|c)\b"),
     "direct f/c read on a config object"),
    (re.compile(CONFIG_OBJ + r"\.n\(\)"),
     "direct roster-size read on a config object"),
    (re.compile(CONFIG_OBJ + r"\.(?:fast_quorum|slow_quorum|exec_quorum|"
                r"view_change_quorum|num_collectors)\(\)"),
     "direct quorum read on a config object"),
    (re.compile(r"\bepoch\(\)\.(?:primary_of|rank_of|fast_quorum|slow_quorum|"
                r"exec_quorum|n)\s*\("),
     "current-epoch roster/quorum read"),
]
# The engines plus the shell they share (runtime::EngineShell): code moved
# out of an engine into the shell stays in scope.
ENGINE_DIRS = ("src/core/", "src/pbft/", "src/runtime/engine_shell.")


def check_epoch_math(root: Path) -> int:
    sources = [s for s in load_sources(root)
               if s.rel.startswith(ENGINE_DIRS)]
    findings: list[Finding] = []
    for src in sources:
        for lineno, line in enumerate(src.lines, start=1):
            for rx, why in EPOCH_MATH_RES:
                for m in rx.finditer(line):
                    findings.append(Finding(
                        src.rel, lineno, m.group(0).strip(),
                        f"{why} in engine code — slot-scoped paths must use "
                        f"epoch_for_seq(s) (a post-reconfiguration quorum "
                        f"read against the wrong epoch is a latent safety "
                        f"bug); justify the scope in the allowlist if this "
                        f"is boot-, view-, or epoch-derived",
                        line.strip()))
    return finish("epoch_math", findings, allowlist(root, "epoch_math"),
                  len(sources))


# ---------------------------------------------------------------------------
# wire_format: tags and serde coverage

def parse_enum(text: str, name: str) -> list[tuple[str, int]]:
    m = re.search(rf"enum class {name}\s*:\s*\w+\s*{{(.*?)}};", text, re.S)
    if not m:
        return []
    out: list[tuple[str, int]] = []
    next_value = 0
    for part in m.group(1).split(","):
        part = part.strip()
        if not part:
            continue
        em = re.match(r"(\w+)(?:\s*=\s*(\d+))?$", part)
        if not em:
            continue
        value = int(em.group(2)) if em.group(2) else next_value
        out.append((em.group(1), value))
        next_value = value + 1
    return out


def check_wire_format(root: Path) -> int:
    findings: list[Finding] = []
    msg_cpp = "\n".join(lintlib.strip_comments(
        (root / "src/proto/message.cpp").read_text(encoding="utf-8")))
    msg_h = "\n".join(lintlib.strip_comments(
        (root / "src/proto/message.h").read_text(encoding="utf-8")))
    test_cpp = "\n".join(lintlib.strip_comments(
        (root / "tests/message_test.cpp").read_text(encoding="utf-8")))

    # (a) Tag uniqueness.
    tags = parse_enum(msg_cpp, "Tag")
    if not tags:
        findings.append(Finding("src/proto/message.cpp", 1, "Tag",
                                "wire Tag enum not found"))
    seen: dict[int, str] = {}
    for name, value in tags:
        if value in seen:
            findings.append(Finding(
                "src/proto/message.cpp", 1, name,
                f"duplicate wire tag value {value} ({seen[value]} vs {name}) "
                f"— decode_message would mis-route one of them"))
        seen[value] = name

    # (b) Tag <-> Message variant alternatives stay in sync.
    vm = re.search(r"using Message = std::variant<(.*?)>;", msg_h, re.S)
    variant = [t.strip() for t in vm.group(1).split(",")] if vm else []
    if not variant:
        findings.append(Finding("src/proto/message.h", 1, "Message",
                                "Message variant not found"))
    variant_set = set(variant)
    for name, _ in tags:
        expect = name[1:] + "Msg" if name.startswith("k") else name
        if expect not in variant_set:
            findings.append(Finding(
                "src/proto/message.cpp", 1, name,
                f"wire tag {name} has no Message alternative named {expect}"))
    if tags and variant and len(tags) != len(variant):
        findings.append(Finding(
            "src/proto/message.h", 1, "Message",
            f"{len(variant)} Message alternatives but {len(tags)} wire tags "
            f"— every message type needs exactly one tag"))

    # (c) Serde coverage: every alternative is named in a message_test
    # round-trip, and the auto-derived exhaustiveness test is present (it
    # covers alternatives added later even before a named test exists).
    for type_name in variant:
        if not re.search(rf"\b{type_name}\b", test_cpp):
            findings.append(Finding(
                "tests/message_test.cpp", 1, type_name,
                f"message type {type_name} has no serde round-trip in "
                f"message_test.cpp — untested wire types cannot ship"))
    if "AllWireMessages" not in test_cpp:
        findings.append(Finding(
            "tests/message_test.cpp", 1, "AllWireMessages",
            "auto-derived exhaustiveness test (AllWireMessages) missing — "
            "it is what forces future wire types through serde testing"))

    return finish("wire_format", findings, None, 3)


# ---------------------------------------------------------------------------
# counters: every stats field reaches the metrics registry (or is exempted)

def check_counters(root: Path) -> int:
    findings: list[Finding] = []
    structs = 0
    for src in load_sources(root, suffixes=(".h",)):
        for m in re.finditer(r"struct\s+(\w*Stats)\b[^;{]*{", src.text):
            name = m.group(1)
            body = struct_body(src.text, name)
            if body is None:
                continue
            counters = re.findall(r"\b(?:u?int64_t)\s+(\w+)\s*=", body)
            if not counters:
                continue
            structs += 1
            visited = set(re.findall(r'fn\("(\w+)"\s*,', body))
            derived = "RuntimeStats::for_each(fn)" in body
            has_for_each = "for_each" in body
            if not has_for_each:
                findings.append(Finding(
                    src.rel, 1, name,
                    f"{name} has counters but no for_each descriptor — "
                    f"nothing threads them into RunMetrics/bench JSON"))
                continue
            base = name != "RuntimeStats" and "RuntimeStats" in \
                re.search(rf"struct\s+{name}\b([^{{]*){{", src.text).group(1)
            if base and not derived:
                findings.append(Finding(
                    src.rel, 1, name,
                    f"{name} derives from RuntimeStats but its for_each "
                    f"does not call RuntimeStats::for_each(fn) — the base "
                    f"counters would silently vanish from the registry"))
            for counter in counters:
                if counter not in visited:
                    findings.append(Finding(
                        src.rel, 1, f"{name}::{counter}",
                        f"counter {name}::{counter} is not visited by "
                        f"for_each — it can never reach RunMetrics or the "
                        f"bench JSON; visit it or exempt it with a "
                        f"justification"))
    return finish("counters", findings, allowlist(root, "counters"), structs)


# ---------------------------------------------------------------------------

CHECKS = {
    "determinism": check_determinism,
    "entropy": check_entropy,
    "epoch_math": check_epoch_math,
    "wire_format": check_wire_format,
    "counters": check_counters,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", required=True,
                        choices=sorted(CHECKS) + ["all"])
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels up from here)")
    args = parser.parse_args()
    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parent.parent.parent
    names = sorted(CHECKS) if args.check == "all" else [args.check]
    return max(CHECKS[name](root) for name in names)


if __name__ == "__main__":
    sys.exit(main())
