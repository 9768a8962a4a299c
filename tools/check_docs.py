#!/usr/bin/env python3
"""Documentation consistency checks (run by the CI docs job).

1. Every relative markdown link in docs/*.md and README.md resolves to an
   existing file (anchors are stripped; http(s) links are skipped).
2. Every public class declared in src/runtime/*.h appears by name in
   docs/architecture.md — the runtime layer is the protocol-agnostic core
   both ordering engines share, so its surface must stay documented
   (MembershipManager, StateTransferManager, ... are discovered, not listed).
3. Every page under docs/ is linked from at least one *other* checked
   document — a doc nobody can reach from README.md or its siblings is
   effectively unpublished.
4. Every public class declared in src/obs/*.h appears by name in
   docs/observability.md or docs/architecture.md — same contract as the
   runtime layer, for the observability surface.
5. Every public class declared in src/sim/*.h appears by name in
   docs/performance.md or docs/architecture.md — the simulator's execution
   model (lanes, offload, determinism) is the foundation everything else
   builds on, so its surface must stay documented.
6. Every public class declared in src/fuzz/*.h appears by name in
   docs/fuzzing.md or docs/architecture.md — the schedule fuzzer is the
   repo's randomized safety net, so its surface must stay documented.
7. Every public class declared in src/shard/*.h appears by name in
   docs/sharding.md or docs/architecture.md — the multi-group deployment
   and its BFT 2PC are a protocol surface of their own, so it must stay
   documented.
8. Every lint check registered in tools/lint/bft_lint.py (the CHECKS
   registry) appears by name in docs/static_analysis.md — the lint suite
   encodes protocol invariants, so adding a check without documenting what
   it enforces (and its allowlist policy) fails here.
9. Every public class declared in src/core/*.h and src/pbft/*.h appears by
   name in docs/architecture.md or docs/reconfiguration.md — the two
   ordering engines and the client session that talks to them are the
   protocol itself, so their surface must stay documented.
10. Every public class declared in src/merkle/*.h and src/kv/*.h appears by
   name in docs/architecture.md or docs/state_transfer.md — the Merkle
   trees and the authenticated store are what a client's single-replica
   proof and every state digest rest on, so their surface must stay
   documented.
11. Every field declared in struct ProtocolConfig (src/proto/config.h) is a
   row of a docs table headed "Knob (ProtocolConfig)", and every row of
   such a table names a field that exists — each value a caller can set on
   a replica has its default, meaning and setter written down once, and a
   deleted field takes its row with it.

Rules 2, 4-7, 9 and 10 share one table, CLASS_RULES.

Exits non-zero with a summary of every violation.
"""
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Top-level class *definitions* only: 'class Foo {' / 'class Foo final ...'
# at the start of a line. Member/nested classes are indented; forward
# declarations ('class Foo;') belong to other layers and are excluded.
CLASS_RE = re.compile(r"^class\s+(\w+)[^;]*$", re.MULTILINE)


def doc_files():
    docs = sorted((ROOT / "docs").glob("*.md"))
    readme = ROOT / "README.md"
    return docs + ([readme] if readme.exists() else [])


def check_links():
    errors = []
    for doc in doc_files():
        text = doc.read_text(encoding="utf-8")
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                errors.append(f"{doc.relative_to(ROOT)}: broken link -> {target}")
    return errors


def check_docs_reachable():
    """Every docs/*.md page must be linked from another checked document."""
    errors = []
    linked = set()
    for doc in doc_files():
        text = doc.read_text(encoding="utf-8")
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if resolved.exists() and resolved != doc.resolve():
                linked.add(resolved)
    for doc in sorted((ROOT / "docs").glob("*.md")):
        if doc.resolve() not in linked:
            errors.append(
                f"{doc.relative_to(ROOT)}: not linked from any other document "
                f"(orphaned page)"
            )
    return errors


# Public-class documentation rules: every top-level class declared in a
# header of the listed source directories appears by name in one of the
# listed pages. Each layer's reason is in the module docstring.
CLASS_RULES = [
    (("runtime",), ("architecture.md",)),
    (("obs",), ("observability.md", "architecture.md")),
    (("sim",), ("performance.md", "architecture.md")),
    (("fuzz",), ("fuzzing.md", "architecture.md")),
    (("shard",), ("sharding.md", "architecture.md")),
    (("core", "pbft"), ("architecture.md", "reconfiguration.md")),
    (("merkle", "kv"), ("architecture.md", "state_transfer.md")),
]


def check_classes_documented():
    errors = []
    for dirs, pages in CLASS_RULES:
        corpus = ""
        for name in pages:
            page = ROOT / "docs" / name
            if not page.exists():
                errors.append(f"missing docs/{name}")
                continue
            corpus += page.read_text(encoding="utf-8")
        where = " or ".join(f"docs/{name}" for name in pages)
        for d in dirs:
            for header in sorted((ROOT / "src" / d).glob("*.h")):
                for cls in CLASS_RE.findall(header.read_text(encoding="utf-8")):
                    if cls not in corpus:
                        errors.append(
                            f"src/{d}/{header.name}: public class '{cls}' is "
                            f"not mentioned in {where}"
                        )
    return errors


def check_lint_checks_documented():
    """Every check in tools/lint/bft_lint.py's CHECKS registry is documented."""
    lint = ROOT / "tools" / "lint" / "bft_lint.py"
    page = ROOT / "docs" / "static_analysis.md"
    if not lint.exists():
        return [f"missing {lint.relative_to(ROOT)}"]
    if not page.exists():
        return ["missing docs/static_analysis.md"]
    registry = re.search(r"CHECKS\s*=\s*\{(.*?)\}", lint.read_text(
        encoding="utf-8"), re.DOTALL)
    if not registry:
        return ["tools/lint/bft_lint.py: CHECKS registry not found"]
    names = re.findall(r"\"(\w+)\"\s*:", registry.group(1))
    if not names:
        return ["tools/lint/bft_lint.py: CHECKS registry is empty"]
    text = page.read_text(encoding="utf-8")
    return [
        f"tools/lint/bft_lint.py: lint check '{name}' is not documented in "
        f"docs/static_analysis.md"
        for name in names if f"`{name}`" not in text
    ]


CONFIG_HEADER = ROOT / "src" / "proto" / "config.h"
# A data member of the struct body: type, name, optional initializer, ';'.
# Member functions never match: their name is followed by '('.
FIELD_RE = re.compile(
    r"^\s+[A-Za-z_][\w:<>, ]*\s+(\w+)\s*(?:=[^;]*|\{[^}]*\})?;", re.MULTILINE)
KNOB_HEADER_RE = re.compile(r"^\|\s*Knob \(`?ProtocolConfig`?\)\s*\|")
KNOB_ROW_RE = re.compile(r"^\|\s*`(\w+)`\s*\|")


def protocol_config_fields():
    text = CONFIG_HEADER.read_text(encoding="utf-8")
    start = text.find("struct ProtocolConfig {")
    if start < 0:
        return None
    end = text.find("\n};", start)
    return FIELD_RE.findall(text[start:end])


def knob_table_rows():
    """(doc, field) for every row of every 'Knob (ProtocolConfig)' table."""
    rows = []
    for doc in doc_files():
        in_table = False
        for line in doc.read_text(encoding="utf-8").splitlines():
            if KNOB_HEADER_RE.match(line):
                in_table = True
            elif not line.startswith("|"):
                in_table = False
            elif in_table and (m := KNOB_ROW_RE.match(line)):
                rows.append((doc, m.group(1)))
    return rows


def check_protocol_config_documented():
    fields = protocol_config_fields()
    if not fields:
        return [f"{CONFIG_HEADER.relative_to(ROOT)}: struct ProtocolConfig "
                f"declares no fields"]
    rows = knob_table_rows()
    documented = {name for _, name in rows}
    errors = [
        f"{CONFIG_HEADER.relative_to(ROOT)}: ProtocolConfig field '{name}' "
        f"has no row in a 'Knob (ProtocolConfig)' docs table"
        for name in fields if name not in documented
    ]
    errors += [
        f"{doc.relative_to(ROOT)}: 'Knob (ProtocolConfig)' row '{name}' names "
        f"no ProtocolConfig field"
        for doc, name in rows if name not in fields
    ]
    return errors


def main():
    errors = (check_links() + check_docs_reachable()
              + check_classes_documented() + check_lint_checks_documented()
              + check_protocol_config_documented())
    docs = len(doc_files())
    if errors:
        print(f"check_docs: {len(errors)} problem(s) across {docs} documents:")
        for err in errors:
            print(f"  - {err}")
        return 1
    print(f"check_docs: OK ({docs} documents, links resolve, no orphaned "
          f"pages, runtime, obs, sim, fuzz, shard, core, pbft, merkle and "
          f"kv classes documented, lint checks documented, ProtocolConfig "
          f"fields documented)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
