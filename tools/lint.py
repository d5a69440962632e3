#!/usr/bin/env python3
"""Project invariant linter: fast, AST-free checks for contracts that
otherwise live only in comments.

Rules (see DESIGN.md §10 for the rationale behind each):

  raw-sync              std::mutex / std::shared_mutex / std::lock_guard /
                        std::unique_lock / std::shared_lock / std::scoped_lock /
                        std::condition_variable outside src/common/sync.h.
                        All locking goes through the annotated frn wrappers so
                        a clang -Wthread-safety build can check lock discipline.
  raw-clock             std::chrono::{steady,system,high_resolution}_clock,
                        clock_gettime, gettimeofday outside src/common/clock.h.
                        Cost accounting has exactly one source of time.
  raw-rand              rand()/srand(), std::random_device, std::mt19937,
                        std::*_distribution outside src/common/rng.h. Every
                        stochastic draw must come from the seeded frn::Rng or
                        tables/figures stop regenerating bit-identically.
  unordered-iter        Range-for over a std::unordered_{map,set} inside a
                        function that feeds roots, JSON output, or stats
                        merging (name matches Commit/Json/Merge/Snapshot/
                        Write/Export/Root/Stats/Dump/Summary). Hash-map order
                        is not a contract; ordered output must not depend on
                        it. Iterations that are provably order-independent
                        carry a suppression explaining why.
  raii-temporary        A guard type (MutexLock, ReaderLock, TraceSpan)
                        constructed as an unnamed
                        temporary: `MutexLock(mu_);` locks and unlocks on the
                        same line, which is never what was meant.
  todo-tag              TODO/FIXME without an owner/issue tag: write
                        `TODO(#123): ...` or `TODO(name): ...` so stale
                        markers stay traceable.

Suppression: append `// frn:allow(rule-id)` to the flagged line, or put it
alone on the line directly above. Multiple rules: `frn:allow(a, b)`. Every
suppression should sit next to a comment saying why the exception is sound.

Usage:
  tools/lint.py                  # lint src/ tests/ bench/ (default)
  tools/lint.py path [path...]   # lint specific files or directories
  tools/lint.py --self-test      # fixture suite + clean run on the full tree
  tools/lint.py --list-rules
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_PATHS = ["src", "tests", "bench"]
SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")
FIXTURE_DIR_NAME = "lint_fixtures"

# Files exempt per rule (the sanctioned home of the raw construct).
RULE_EXEMPT_FILES = {
    "raw-sync": {"src/common/sync.h"},
    "raw-clock": {"src/common/clock.h"},
    "raw-rand": {"src/common/rng.h"},
}

ALLOW_RE = re.compile(r"//\s*frn:allow\(([\w\-,\s]+)\)")

RAW_SYNC_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock|condition_variable(?:_any)?)\b"
)
RAW_CLOCK_RE = re.compile(
    r"std::chrono::(?:steady_clock|system_clock|high_resolution_clock)\b"
    r"|\bclock_gettime\s*\(|\bgettimeofday\s*\("
)
RAW_RAND_RE = re.compile(
    r"std::(?:random_device|mt19937(?:_64)?|minstd_rand0?|"
    r"uniform_(?:int|real)_distribution|normal_distribution)\b"
    r"|(?<![\w.])s?rand\s*\("
)
TODO_RE = re.compile(r"\b(TODO|FIXME)\b(?!\(\S[^)]*\))")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\([^;()]*?:\s*\(?\*?([A-Za-z_][\w.\->\[\]]*)\s*\)?\s*\)"
)
DETERMINISM_FN_RE = re.compile(
    r"(Json|Merge|Snapshot|Commit|Write|Export|Root|Stats|Dump|Summary)"
)
UNORDERED_DECL_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\s*<")
GUARD_TYPES = r"(?:MutexLock|ReaderLock|TraceSpan)"
# Unnamed guard temporary: a complete `Type(args);` statement on one line.
# Requiring the trailing `);` keeps multi-line constructor *declarations* and
# `= delete` lines (which continue past the closing paren) out of scope.
RAII_TEMP_RE = re.compile(
    r"^\s*(?:frn::)?" + GUARD_TYPES + r"\s*\([^;]*\)\s*;\s*$"
)
# A function-definition-looking line: starts at column 0, has a parameter
# list, is not a control-flow statement. Heuristic — suppressions cover any
# leftovers — but it matches every definition style used in this repo.
FN_DEF_RE = re.compile(r"^[A-Za-z_][\w:<>,&*\s]*?\b(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\(")
FN_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof", "catch", "case"}

RULES = {
    "raw-sync": "raw std:: synchronization primitive outside src/common/sync.h "
                "(use frn::Mutex / frn::SharedMutex / MutexLock / ReaderLock / CondVar)",
    "raw-clock": "raw clock outside src/common/clock.h "
                 "(use frn::Stopwatch / ThreadCpuSeconds / ThreadCpuTimer)",
    "raw-rand": "raw randomness outside src/common/rng.h (use the seeded frn::Rng)",
    "unordered-iter": "iteration over a std::unordered_ container in a function that feeds "
                      "roots/JSON/stats (hash-map order is not deterministic output order)",
    "raii-temporary": "RAII guard constructed as an unnamed temporary "
                      "(destroyed immediately — name it)",
    "todo-tag": "TODO/FIXME must carry a tag: TODO(#issue) or TODO(name)",
}


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_strings(code):
    """Blanks out string/char literal contents (keeps the quotes)."""
    out = []
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and code[i] != quote:
                out.append(" " if code[i] != "\\" else " ")
                i += 2 if code[i] == "\\" else 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def split_lines(text):
    """Yields (code, comment, allow_set) per line, handling /* */ state.

    `code` has strings blanked and comments removed; `comment` is the line's
    comment text (for todo-tag); `allow_set` is the set of rule-ids the line's
    own frn:allow() names.
    """
    rows = []
    in_block = False
    for raw in text.splitlines():
        line = strip_strings(raw)
        code_parts = []
        comment_parts = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    comment_parts.append(line[i:])
                    i = n
                else:
                    comment_parts.append(line[i:end])
                    in_block = False
                    i = end + 2
            elif line.startswith("//", i):
                comment_parts.append(line[i + 2:])
                i = n
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            else:
                code_parts.append(line[i])
                i += 1
        code = "".join(code_parts)
        comment = " ".join(comment_parts)
        allow = set()
        for m in ALLOW_RE.finditer(raw):
            allow.update(r.strip() for r in m.group(1).split(","))
        rows.append((code, comment, allow))
    return rows


def scan_unordered_names(rows):
    """Identifiers declared (anywhere in the scanned set) as unordered containers."""
    names = set()
    for code, _, _ in rows:
        for m in UNORDERED_DECL_RE.finditer(code):
            # Walk the template argument list to its closing '>', then take
            # the next identifier as the declared name.
            i = m.end() - 1
            depth = 0
            while i < len(code):
                if code[i] == "<":
                    depth += 1
                elif code[i] == ">":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            tail = code[i + 1:]
            # The declared name may be followed by a thread-safety annotation
            # (`map_ FRN_GUARDED_BY(mu_);`) before the terminator — strip any
            # FRN_*(...) suffixes so such members still register. Without this,
            # a structured-binding loop over an annotated member escaped the
            # unordered-iter rule entirely.
            tail = re.sub(r"\s+FRN_\w+\([^)]*\)", "", tail)
            dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(?:[;={(]|$)", tail)
            if dm:
                names.add(dm.group(1))
    return names


def lint_file(path, rel, rows, unordered_names):
    findings = []
    exempt = {rule for rule, files in RULE_EXEMPT_FILES.items() if rel in files}

    current_fn = ""

    for idx, (code, comment, allow) in enumerate(rows):
        lineno = idx + 1
        prev_allow = rows[idx - 1][2] if idx > 0 else set()
        allowed = allow | prev_allow

        def report(rule, message=None):
            if rule in exempt or rule in allowed:
                return
            findings.append(Finding(rel, lineno, rule, message or RULES[rule]))

        # Track the enclosing function name (column-0 definitions).
        fm = FN_DEF_RE.match(code)
        if fm and fm.group(1) not in FN_KEYWORDS:
            current_fn = fm.group(1)

        if RAW_SYNC_RE.search(code):
            report("raw-sync")
        if RAW_CLOCK_RE.search(code):
            report("raw-clock")
        if RAW_RAND_RE.search(code):
            report("raw-rand")
        if TODO_RE.search(comment) or TODO_RE.search(code):
            report("todo-tag")
        if RAII_TEMP_RE.match(code):
            report("raii-temporary")

        if DETERMINISM_FN_RE.search(current_fn):
            for m in RANGE_FOR_RE.finditer(code):
                base = re.split(r"\.|->", m.group(1))[-1].strip("[]")
                if base in unordered_names:
                    report("unordered-iter",
                           f"{RULES['unordered-iter']} — `{m.group(1)}` in `{current_fn}`")


    return findings


def collect_files(paths, include_fixtures=False):
    files = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(REPO_ROOT, p)
        if os.path.isfile(ap):
            files.append(ap)
        elif os.path.isdir(ap):
            for dirpath, dirnames, filenames in os.walk(ap):
                if not include_fixtures and FIXTURE_DIR_NAME in dirnames:
                    dirnames.remove(FIXTURE_DIR_NAME)
                # tools/analyze.py's fixture trees are analyzer input, never
                # compiled; they carry deliberate violations of both tools'
                # rules, so the clean-tree scan must not descend into them.
                if "analyze_fixtures" in dirnames:
                    dirnames.remove("analyze_fixtures")
                for f in sorted(filenames):
                    if f.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(dirpath, f))
        else:
            print(f"lint.py: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def run_lint(paths, include_fixtures=False):
    files = collect_files(paths, include_fixtures)
    parsed = {}
    for f in files:
        with open(f, encoding="utf-8", errors="replace") as fh:
            parsed[f] = split_lines(fh.read())
    # Global pass: container names from every scanned file (members are
    # usually declared in a header and iterated in the matching .cc).
    unordered_names = set()
    for rows in parsed.values():
        unordered_names.update(scan_unordered_names(rows))
    findings = []
    for f in files:
        rel = os.path.relpath(f, REPO_ROOT)
        findings.extend(lint_file(f, rel, parsed[f], unordered_names))
    return findings


EXPECT_RE = re.compile(r"\[expect:([\w\-]+)\]")


def self_test():
    fixture_dir = os.path.join(REPO_ROOT, "tests", FIXTURE_DIR_NAME)
    fixtures = sorted(
        f for f in os.listdir(fixture_dir) if f.endswith(SOURCE_EXTENSIONS)
    )
    if not fixtures:
        print("self-test: no fixtures found", file=sys.stderr)
        return 1
    failures = 0
    for name in fixtures:
        path = os.path.join(fixture_dir, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        expected = set()
        for lineno, line in enumerate(text.splitlines(), 1):
            for m in EXPECT_RE.finditer(line):
                expected.add((m.group(1), lineno))
        got = {(f.rule, f.line) for f in run_lint([path], include_fixtures=True)}
        if got == expected:
            print(f"self-test: {name}: OK ({len(expected)} expected finding(s))")
        else:
            failures += 1
            print(f"self-test: {name}: MISMATCH", file=sys.stderr)
            for rule, line in sorted(expected - got):
                print(f"  missing: line {line} [{rule}]", file=sys.stderr)
            for rule, line in sorted(got - expected):
                print(f"  spurious: line {line} [{rule}]", file=sys.stderr)
    # The real tree must be clean: every rule either holds or carries an
    # explicit, justified suppression.
    tree = run_lint(DEFAULT_PATHS)
    if tree:
        failures += 1
        print(f"self-test: default tree scan is NOT clean ({len(tree)} finding(s)):",
              file=sys.stderr)
        for f in tree:
            print(f"  {f}", file=sys.stderr)
    else:
        print(f"self-test: default tree scan clean ({len(collect_files(DEFAULT_PATHS))} files)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", help="files or directories (default: src tests bench)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite, then assert the tree is clean")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:22} {desc}")
        return 0
    if args.self_test:
        return self_test()

    findings = run_lint(args.paths or DEFAULT_PATHS,
                        include_fixtures=bool(args.paths))
    for f in findings:
        print(f)
    if findings:
        print(f"lint.py: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
