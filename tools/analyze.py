#!/usr/bin/env python3
"""Static checker for the forerunner repo's contracts.

It builds a whole-program model — classes, mutex members, lock-acquisition
sites, a call graph, the include graph — and checks the repo's concurrency,
layering and determinism contracts against it; its lexical passes check
single lines:

  lock-order       Builds the global lock-acquisition graph: an edge A -> B
                   means some thread can acquire B while holding A (observed
                   from nested MutexLock/ReaderLock scopes and propagated
                   through the call graph). Any cycle is a potential
                   deadlock and fails the run. The full graph is committed
                   as graphviz (tools/lock_order.dot) so the intended order
                   is reviewable; --self-test fails when the committed file
                   differs from a fresh graph. The runtime cross-check is
                   TSan's deadlock detector (tools/run_tsan.sh), which sees
                   orders established through function pointers and
                   data-dependent paths that no static scan can follow.
  lock-annotation  Every field written while a lock of the owning class is
                   held must carry FRN_GUARDED_BY: an unannotated field
                   invisibly escapes the clang -Wthread-safety stage, which
                   can only check what is declared.
  layering         Enforces the include DAG over src/ (see LAYER_RANKS):
                   common -> {crypto,rlp} -> {evm,core,easm,
                   contracts} -> {obs,trie} -> state -> {dice,forerunner,
                   replay,workload}. Includes within one rank are peer
                   includes and legal; an include whose target ranks above
                   the including directory is an upward dependency and
                   fails.
  determinism      Taint-tracks unordered-container iteration into
                   deterministic-output sinks. A sink is any function whose
                   name says it feeds roots / JSON / stats merging
                   (DETERMINISM_SINK_RE); the tainted set is the sinks plus
                   every function transitively *called by* a sink, computed
                   over the real call graph. Hash-map order is not a
                   contract; anything it can reach in ordered output must be
                   sorted or proven order-independent.
  raw-sync         std::mutex / std::shared_mutex / std::lock_guard /
                   std::unique_lock / std::shared_lock / std::scoped_lock /
                   std::condition_variable outside src/common/sync.h. All
                   locking goes through the annotated frn wrappers so a clang
                   -Wthread-safety build can check lock discipline.
  raw-clock        std::chrono::{steady,system,high_resolution}_clock,
                   clock_gettime, gettimeofday outside src/common/clock.h.
                   Cost accounting has exactly one source of time.
  raw-rand         rand()/srand(), std::random_device, std::mt19937,
                   std::*_distribution outside src/common/rng.h. Every
                   stochastic draw must come from the seeded frn::Rng or
                   tables/figures stop regenerating bit-identically.
  raii-temporary   A guard type (MutexLock, ReaderLock, TraceSpan)
                   constructed as an unnamed temporary: `MutexLock(mu_);`
                   locks and unlocks on the same line, which is never what
                   was meant.
  todo-tag         TODO/FIXME without an owner/issue tag: write
                   `TODO(#123): ...` or `TODO(name): ...` so stale markers
                   stay traceable.

Scan scopes (SCOPES): lock-order, lock-annotation and layering read src/;
determinism and the lexical passes read src/ tests/ bench/ examples/ tools/.

Front end
---------
The model is extracted from source by a pure-python lexical front end:
comment/string-aware line splitting, scope tracking (namespace/class/function
by brace depth), guard-scope tracking for held-lock sets, and a name-based
call scan. No dependencies beyond python3. Declarations, annotations,
includes, lock sites and guard scopes are recoverable lexically because the
repo's locking idiom is strictly scoped (`MutexLock lock(mu_);` — the
raii-temporary pass guarantees guards are named locals).

Call-graph conservatism: the call scan resolves a call site to every
known function with that name (it cannot do overload/receiver resolution).
That over-approximation can only add lock-order edges and determinism taint,
never hide any — false positives are suppressed in place, with a rationale.

Suppressions
------------
`// frn:allow(<pass-id>)` on the offending line or the line above;
`frn:allow(a, b)` names several. Every suppression in the tree must carry a
comment saying why the flagged pattern is actually safe. For lock-order, the
suppression goes on an acquisition (or call) line: edges witnessed only by
suppressed lines are dropped from the cycle check but still drawn dashed in
the dot output. A suppression that matches no finding of a pass that ran,
or names no pass, is itself a `stale-allow` finding.

Exit codes: 0 clean, 1 findings, 2 internal/usage error.

Usage:
  tools/analyze.py                          # every pass over its scope
  tools/analyze.py --passes lock-order,layering
  tools/analyze.py --self-test              # fixtures, clean tree, fresh graph
  tools/analyze.py --list-locks             # dump the mutex inventory
  tools/analyze.py --dot tools/lock_order.dot
"""

import argparse
import os
import re
import sys
from collections import defaultdict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")
FIXTURE_DIR_NAME = "analyze_fixtures"

# Lexical passes: id -> (pattern, the construct's sanctioned home, message).
# The pattern runs over each line's code; todo-tag's also over its comment.
LEXICAL_PASSES = {
    "raw-sync": (
        re.compile(r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
                   r"lock_guard|unique_lock|shared_lock|scoped_lock|"
                   r"condition_variable(?:_any)?)\b"),
        "src/common/sync.h",
        "raw std:: synchronization primitive outside src/common/sync.h "
        "(use frn::Mutex / frn::SharedMutex / MutexLock / ReaderLock / CondVar)"),
    "raw-clock": (
        re.compile(r"std::chrono::(?:steady_clock|system_clock|"
                   r"high_resolution_clock)\b"
                   r"|\bclock_gettime\s*\(|\bgettimeofday\s*\("),
        "src/common/clock.h",
        "raw clock outside src/common/clock.h "
        "(use frn::Stopwatch / ThreadCpuSeconds / ThreadCpuTimer)"),
    "raw-rand": (
        re.compile(r"std::(?:random_device|mt19937(?:_64)?|minstd_rand0?|"
                   r"uniform_(?:int|real)_distribution|normal_distribution)\b"
                   r"|(?<![\w.])s?rand\s*\("),
        "src/common/rng.h",
        "raw randomness outside src/common/rng.h (use the seeded frn::Rng)"),
    # A complete `Type(args);` statement on one line. Requiring the trailing
    # `);` keeps multi-line constructor *declarations* and `= delete` lines
    # (which continue past the closing paren) out of scope.
    "raii-temporary": (
        re.compile(r"^\s*(?:frn::)?(?:MutexLock|ReaderLock|TraceSpan)"
                   r"\s*\([^;]*\)\s*;\s*$"),
        None,
        "RAII guard constructed as an unnamed temporary "
        "(destroyed immediately — name it)"),
    "todo-tag": (
        re.compile(r"\b(TODO|FIXME)\b(?!\(\S[^)]*\))"),
        None,
        "TODO/FIXME must carry a tag: TODO(#issue) or TODO(name)"),
}
MODEL_PASSES = ("lock-order", "lock-annotation", "layering")
TREE_PASSES = ("determinism",) + tuple(LEXICAL_PASSES)
PASSES = MODEL_PASSES + TREE_PASSES

# Default scan scope of each pass. The model passes read src/ only: over
# tests/, lock-order would report the deliberate inversion in
# tsan_lock_order_probe.cc and draw it into tools/lock_order.dot. e2ebench/
# belongs to the benchmark and is in neither scope.
SCOPES = (
    (("src",), MODEL_PASSES),
    (("src", "tests", "bench", "examples", "tools"), TREE_PASSES),
)

# Include-DAG ranks over src/<dir>/. Lower may not include higher; equal
# ranks are peer groups and may include each other. The order mirrors the
# build's link layering (src/*/CMakeLists.txt): common has no dependencies;
# crypto/rlp are leaf utilities; the EVM group is the execution
# engine; obs and trie sit above it (obs is included by state and the
# forerunner layers, trie feeds state); state owns the versioned store; the
# top rank is the application layer (speculation engine, replay, workloads).
LAYER_RANKS = {
    "common": 0,
    "crypto": 1,
    "rlp": 1,
    "evm": 2,
    "core": 2,
    "easm": 2,
    "contracts": 2,
    "obs": 3,
    "trie": 3,
    "state": 4,
    "dice": 5,
    "forerunner": 5,
    "replay": 5,
    "workload": 5,
}

ALLOW_RE = re.compile(r"//\s*frn:allow\(([\w\-,\s]+)\)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
NAMESPACE_RE = re.compile(r"\bnamespace\s+([A-Za-z_]\w*)?\s*\{")
CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(?:FRN_\w+\([^)]*\)\s+)?([A-Za-z_]\w*)"
    r"(?:\s*final)?(?:\s*:\s*[^{;]+)?\s*\{"
)
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(Mutex|SharedMutex)\s+([A-Za-z_]\w*)"
    r"(?:\s*FRN_\w+\([^)]*\))*\s*;"
)
GUARD_DECL_RE = re.compile(
    r"\b(MutexLock|ReaderLock)\s+[A-Za-z_]\w*\s*\(([^;]*?)\)\s*;"
)
# A data member: optional qualifiers, a type (no '(' so method decls are
# out), a name, optional FRN annotations, optional initializer.
FIELD_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?(?:constexpr\s+)?"
    r"([A-Za-z_][\w:<>,*&\s]*[\w:<>,*&])\s+([A-Za-z_]\w*)\s*"
    r"((?:FRN_\w+\([^)]*\)\s*)*)"
    r"(?:=[^;]*|\{[^;{}]*\})?\s*;"
)
FN_DEF_RE = re.compile(
    r"^[A-Za-z_][\w:<>,&*\s]*?\b(?:([A-Za-z_]\w*)::)?([A-Za-z_]\w*)\s*\("
)
FN_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof", "catch",
               "case", "new", "delete", "do", "else", "throw"}
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
CALL_NOISE = FN_KEYWORDS | {
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "static_assert", "alignof", "decltype", "defined", "assert", "move",
    "forward", "swap", "get", "make_unique", "make_shared", "emplace_back",
    "push_back", "size", "empty", "begin", "end", "find", "insert", "erase",
    "clear", "reserve", "resize", "at", "count", "front", "back", "data",
}
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\([^;()]*?:\s*\(?\*?([A-Za-z_][\w.\->\[\]]*)\s*\)?\s*\)"
)
UNORDERED_DECL_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\s*<")
DETERMINISM_SINK_RE = re.compile(
    r"(Json|Merge|Snapshot|Commit|Write|Export|Root|Stats|Dump|Summary)"
)
ASSIGN_RE = re.compile(
    r"(?:^|[^\w.>])(?:(?:\+\+|--)\s*)?([A-Za-z_]\w*)\s*"
    r"(?:(?:[+\-*/%|&^]|<<|>>)?=(?!=)|\+\+|--)"
)
MUTATE_CALL_RE = re.compile(
    r"(?:^|[^\w.>])([A-Za-z_]\w*)\s*\.\s*"
    r"(?:insert|erase|clear|push_back|pop_back|pop_front|emplace|"
    r"emplace_back|resize|assign|reserve|swap|merge|extract)\s*\("
)
NONDATA_FIELD_TYPE_RE = re.compile(
    r"\b(?:Mutex|SharedMutex|CondVar|std::atomic|std::condition_variable)\b"
)


class Finding:
    def __init__(self, path, line, pass_id, message):
        self.path = path
        self.line = line
        self.pass_id = pass_id
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.pass_id}] {self.message}"


# ---------------------------------------------------------------------------
# Lexical front end
# ---------------------------------------------------------------------------

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
                out.append(" ")
                i += 2 if code[i] == "\\" else 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def split_lines(text):
    """Yields (code, comment, allow_set) per line, /* */ tracked: `code` has
    strings blanked and comments removed, `comment` is the comment text (for
    todo-tag), `allow_set` the pass ids the line's frn:allow() names."""
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
        allow = set()
        for m in ALLOW_RE.finditer(raw):
            allow.update(r.strip() for r in m.group(1).split(","))
        rows.append(("".join(code_parts), " ".join(comment_parts), allow))
    return rows


class MutexDecl:
    def __init__(self, lock_id, kind, rel, line):
        self.lock_id = lock_id      # "Class::field" (or "Outer::Inner::field")
        self.kind = kind            # Mutex | SharedMutex
        self.rel = rel
        self.line = line


class FieldDecl:
    def __init__(self, cls, name, type_text, guarded_by, rel, line):
        self.cls = cls
        self.name = name
        self.type_text = type_text
        self.guarded_by = guarded_by  # annotation argument text or None
        self.rel = rel
        self.line = line


class Function:
    def __init__(self, qual_name, cls, rel, line):
        self.qual_name = qual_name  # "Class::Name" or "Name"
        self.name = qual_name.rsplit("::", 1)[-1]
        self.cls = cls              # enclosing/owning class, "" for free fns
        self.rel = rel
        self.line = line
        # (lock_id, line) in acquisition order
        self.acquires = []
        # (callee_name, line, frozenset(held lock_ids))
        self.calls = []
        # (expr, line) range-for over an unordered container
        self.unordered_iters = []
        # (field_name, line, frozenset(held lock_ids))
        self.writes = []


class Model:
    """Whole-program facts extracted from the scanned tree."""

    def __init__(self):
        self.files = {}             # rel -> rows
        self.includes = []          # (rel, line, header)
        self.mutexes = {}           # lock_id -> MutexDecl
        self.fields = {}            # (cls, name) -> FieldDecl
        self.classes_mutexes = defaultdict(list)   # cls -> [lock_id]
        self.functions = []         # [Function]
        self.by_name = defaultdict(list)           # bare name -> [Function]
        self.unordered_names = {}   # rel -> names unordered in its include closure
        self.used_allows = set()    # (rel, line, pass_id) that matched a finding

    def add_function(self, fn):
        self.functions.append(fn)
        self.by_name[fn.name].append(fn)

    def allowed(self, rel, line, pass_id):
        """True when frn:allow(pass_id) sits on `line` or the line above;
        marks each such suppression used."""
        rows = self.files.get(rel, ())
        hits = [ln for ln in (line, line - 1)
                if 0 < ln <= len(rows) and pass_id in rows[ln - 1][2]]
        self.used_allows.update((rel, ln, pass_id) for ln in hits)
        return bool(hits)


def scan_unordered_names(rows):
    """Names declared in these rows as unordered containers (annotation-aware)."""
    names = set()
    for code, _, _ in rows:
        for m in UNORDERED_DECL_RE.finditer(code):
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
            tail = re.sub(r"\s+FRN_\w+\([^)]*\)", "", tail)
            dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(?:[;={(]|$)", tail)
            if dm:
                names.add(dm.group(1))
    return names


def _base_ident(expr):
    """`slot_->mutex` -> ('slot_', 'mutex'); `mutex_` -> (None, 'mutex_')."""
    expr = expr.strip()
    if expr.startswith("this->"):
        expr = expr[len("this->"):]
    expr = expr.strip("&* ")
    m = re.fullmatch(r"(.+?)(?:\.|->)([A-Za-z_]\w*)", expr)
    if not m:
        if re.fullmatch(r"[A-Za-z_]\w*", expr):
            return None, expr
        return None, None
    obj = m.group(1)
    om = re.match(r"[A-Za-z_]\w*", obj.strip("()*& "))
    return (om.group(0) if om else None), m.group(2)


class _Scope:
    def __init__(self, kind, name, entry_depth):
        self.kind = kind                # namespace | class
        self.name = name
        self.entry_depth = entry_depth  # brace depth just outside the scope


def extract_model(files, root):
    """Tokens front end: builds the Model from the given absolute paths."""
    model = Model()
    parsed = {}
    for path in files:
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        parsed[rel] = (split_lines(text), text)
        model.files[rel] = parsed[rel][0]

    # Unordered-container names are scoped to each file's include closure:
    # a tree-global set would let `std::unordered_map<...> entries_` in one
    # subsystem flag a same-named std::vector member in an unrelated one.
    per_file_names = {rel: scan_unordered_names(rows)
                      for rel, (rows, _) in parsed.items()}
    include_edges = {}
    for rel, (_, text) in parsed.items():
        include_edges[rel] = [m.group(1) for m in
                              (INCLUDE_RE.match(ln) for ln in text.splitlines())
                              if m]
    for rel in parsed:
        closure, work = {rel}, [rel]
        while work:
            for header in include_edges.get(work.pop(), []):
                if header in parsed and header not in closure:
                    closure.add(header)
                    work.append(header)
        model.unordered_names[rel] = set().union(
            *(per_file_names[r] for r in closure))

    # Two-phase scan: lock resolution in a .cc body needs the declarations
    # from headers that sort after it (statedb.cc before statedb.h), so the
    # first pass harvests declarations tree-wide and the second — seeded
    # with them — builds the function-level facts.
    decl_model = Model()
    decl_model.unordered_names = model.unordered_names
    for rel, (rows, text) in sorted(parsed.items()):
        _scan_file(decl_model, rel, rows, text)
    model.mutexes = decl_model.mutexes
    model.fields = decl_model.fields
    model.classes_mutexes = decl_model.classes_mutexes

    for rel, (rows, text) in sorted(parsed.items()):
        _scan_file(model, rel, rows, text)
    return model


def _scan_file(model, rel, rows, text):
    """Line-based scope scanner.

    Relies on the repo's clang-format discipline: namespace/class/function
    opening braces sit on the declaration line (signatures may span lines up
    to the brace). Guard extents are tracked by brace depth, so held-lock
    sets at call/write sites are exact for the scoped-guard idiom — the only
    locking idiom the repo permits (passes raii-temporary, raw-sync).
    """
    scopes = []               # open namespace/class scopes
    depth = 0                 # brace depth
    pending_sig = None        # (accumulated signature text, start line)
    fn = None                 # Function currently being scanned
    fn_entry_depth = 0        # brace depth just outside fn's body
    held = []                 # [(lock_id, depth_at_decl)]
    lines = [code for code, _, _ in rows]
    raw_lines = text.splitlines()

    def qual_class():
        chain = [s.name for s in scopes if s.kind == "class"]
        return "::".join(chain) if chain else ""

    def open_function(sig, lineno):
        nonlocal fn, fn_entry_depth
        fm = FN_DEF_RE.match(sig)
        if not fm or fm.group(2) in FN_KEYWORDS:
            return False
        cls = fm.group(1) or qual_class()
        name = fm.group(2)
        if not cls:
            # Out-of-line constructor/destructor: no return type, so
            # FN_DEF_RE's lazy prefix swallows the `Cls::` qualifier.
            cm = re.match(r"\s*([A-Za-z_]\w*)::~?\1\s*\(", sig)
            if cm:
                cls = cm.group(1)
        qual = f"{cls}::{name}" if cls else name
        fn = Function(qual, cls, rel, lineno)
        fn_entry_depth = depth
        model.add_function(fn)
        return True

    def scan_body_facts(segment, lineno):
        """Records guard/iteration/call/write facts from a body fragment."""
        for gm in GUARD_DECL_RE.finditer(segment):
            lock_id = _resolve_lock(model, gm.group(2), fn.cls or qual_class(),
                                    fn, lines, rel)
            if lock_id:
                fn.acquires.append((lock_id, lineno))
                held.append((lock_id, depth + segment[:gm.start()].count("{")
                             - segment[:gm.start()].count("}")))
        for rm in RANGE_FOR_RE.finditer(segment):
            base = re.split(r"\.|->", rm.group(1))[-1].strip("[]")
            if base in model.unordered_names.get(rel, ()):
                fn.unordered_iters.append((rm.group(1), lineno))
        held_ids = frozenset(h[0] for h in held)
        for cm in CALL_RE.finditer(segment):
            name = cm.group(1)
            if name in CALL_NOISE or name.startswith("FRN_"):
                continue
            fn.calls.append((name, lineno, held_ids))
        if held_ids:
            for am in ASSIGN_RE.finditer(segment):
                fn.writes.append((am.group(1), lineno, held_ids))
            for mm in MUTATE_CALL_RE.finditer(segment):
                fn.writes.append((mm.group(1), lineno, held_ids))

    for idx, (code, _, _) in enumerate(rows):
        lineno = idx + 1
        start_depth = depth

        # Includes must be matched on the raw line: strip_strings blanks the
        # quoted path out of `code`.
        im = INCLUDE_RE.match(raw_lines[idx]) if idx < len(raw_lines) else None
        if im:
            model.includes.append((rel, lineno, im.group(1)))

        body_segment = None  # portion of this line inside a function body

        if fn is not None:
            body_segment = code
        elif pending_sig is not None:
            sig, sig_line = pending_sig
            brace = code.find("{")
            semi = code.find(";")
            if brace != -1 and (semi == -1 or brace < semi):
                pending_sig = None
                if open_function(sig + " " + code[:brace].strip(), sig_line):
                    body_segment = code[brace + 1:]
            elif semi != -1:
                pending_sig = None  # it was a declaration, not a definition
            else:
                pending_sig = (sig + " " + code.strip(), sig_line)
        else:
            stripped = code.strip()
            mm = MUTEX_DECL_RE.match(code)
            cm = CLASS_RE.search(code)
            if mm and qual_class():
                lock_id = f"{qual_class()}::{mm.group(2)}"
                model.mutexes[lock_id] = MutexDecl(lock_id, mm.group(1), rel,
                                                   lineno)
                if lock_id not in model.classes_mutexes[qual_class()]:
                    model.classes_mutexes[qual_class()].append(lock_id)
            elif cm and "}" not in code[cm.end():]:
                pass  # scope push happens below, after brace counting
            elif not stripped.startswith("#"):
                if qual_class() and "(" not in code:
                    fm2 = FIELD_DECL_RE.match(code)
                    if fm2:
                        annots = fm2.group(3) or ""
                        gb = re.search(r"FRN_GUARDED_BY\(([^)]*)\)", annots)
                        model.fields[(qual_class(), fm2.group(2))] = FieldDecl(
                            qual_class(), fm2.group(2), fm2.group(1),
                            gb.group(1) if gb else None, rel, lineno)
                fdm = FN_DEF_RE.match(code)
                if (cm is None and fdm is not None
                        and fdm.group(2) not in FN_KEYWORDS
                        and not re.match(r"\s*(?:class|struct|enum|namespace|"
                                         r"using|typedef|friend|template)\b",
                                         code)):
                    paren = code.find("(")
                    brace = code.find("{", paren) if paren != -1 else -1
                    semi = code.find(";")
                    if brace != -1 and (semi == -1 or brace < semi):
                        if open_function(code[:brace].strip(), lineno):
                            body_segment = code[brace + 1:]
                    elif semi == -1 and paren != -1:
                        pending_sig = (code.strip(), lineno)

        if body_segment is not None and fn is not None:
            scan_body_facts(body_segment, lineno)

        # Brace accounting, then scope/guard/function lifetime management.
        depth += code.count("{") - code.count("}")
        while held and held[-1][1] > depth:
            held.pop()
        if fn is not None and depth <= fn_entry_depth:
            fn = None
            held = []
        while scopes and depth <= scopes[-1].entry_depth:
            scopes.pop()
        if fn is None and pending_sig is None:
            for nsm in NAMESPACE_RE.finditer(code):
                scopes.append(_Scope("namespace", nsm.group(1) or "",
                                     start_depth))
            cm2 = CLASS_RE.search(code)
            if (cm2 and depth > start_depth
                    and not re.match(r"\s*enum\b", code)):
                scopes.append(_Scope("class", cm2.group(1), start_depth))


def _resolve_lock(model, expr, enclosing_cls, fn, lines, rel):
    """Maps a guard's constructor argument to a lock id, best effort."""
    obj, field = _base_ident(expr)
    if field is None:
        return None
    if obj is None:
        # Bare member: walk the enclosing class chain outward.
        cls = enclosing_cls
        while cls:
            if f"{cls}::{field}" in model.mutexes:
                return f"{cls}::{field}"
            cls = cls.rsplit("::", 1)[0] if "::" in cls else ""
        # The function may be Class::Method defined out of line.
        if fn and fn.cls and f"{fn.cls}::{field}" in model.mutexes:
            return f"{fn.cls}::{field}"
    else:
        # obj.field / obj->field: infer obj's type lexically — a declaration
        # `Type* obj` / `Type& obj` / `Type obj` in this file, or a field of
        # a known class — then match Type against classes declaring `field`.
        candidates = [lid for lid in model.mutexes
                      if lid.rsplit("::", 1)[1] == field]
        if len(candidates) == 1:
            return candidates[0]
        type_re = re.compile(
            r"\b([A-Za-z_][\w:]*)\s*(?:<\s*([A-Za-z_][\w:]*)[^;<>]*>)?"
            r"\s*[*&]?\s*" + re.escape(obj) + r"\b")
        for line in lines:
            tm = type_re.search(line)
            if tm:
                type_name = tm.group(1).rsplit("::", 1)[-1]
                # Smart pointers point at the type in their template slot.
                if type_name.endswith("_ptr") and tm.group(2):
                    type_name = tm.group(2).rsplit("::", 1)[-1]
                hits = [lid for lid in candidates
                        if f"::{type_name}::" in f"::{lid}"]
                if len(hits) == 1:
                    return hits[0]
        # Also try member-field type lookup in known classes.
        for (cls, name), fd in model.fields.items():
            if name == obj:
                for lid in candidates:
                    owner = lid.rsplit("::", 1)[0].rsplit("::", 1)[-1]
                    if owner and owner in fd.type_text:
                        return lid
        if candidates:
            # Ambiguous: conservative per-name node, unioned across classes.
            return f"?::{field}"
    # Unknown lock — give it a file-local node so edges are still recorded.
    return f"{os.path.splitext(os.path.basename(rel))[0]}::{field}"


# ---------------------------------------------------------------------------
# Pass: lock-order
# ---------------------------------------------------------------------------

def _callees(model, name):
    return model.by_name.get(name, [])


def _transitive_acquires(model):
    """lock ids each function may acquire, directly or via calls (fixpoint)."""
    acq = {id(fn): set(a[0] for a in fn.acquires) for fn in model.functions}
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            mine = acq[id(fn)]
            before = len(mine)
            for name, line, _ in fn.calls:
                targets = set().union(*(acq[id(c)] for c in _callees(model, name)))
                # A lock-order allow on a call line asserts the callee's
                # acquisitions do not nest inside the caller's locks (e.g.
                # guaranteed copy elision moves the construction past the
                # guard) — stop propagation through this call.
                if targets and not model.allowed(fn.rel, line, "lock-order"):
                    mine |= targets
            if len(mine) != before:
                changed = True
    return acq


def pass_lock_order(model, findings):
    """Cycle detection over the global acquisition-order graph; returns the
    edges with their witnesses (for render_dot)."""
    # edge (a, b) -> list of witnesses (rel, line, via, suppressed)
    edges = defaultdict(list)

    def add_edge(a, b, rel, line, via):
        if a == b:
            # The static model is instance-blind: two locks with one id may
            # be different objects (per-shard mutexes), so flagging every
            # same-id pair here would drown the signal. Same-instance
            # recursion within one function is a clang -Wthread-safety
            # compile error; across functions it deadlocks, and
            # tools/run_tsan.sh's per-binary timeout turns that into a failure.
            return
        edges[(a, b)].append(
            (rel, line, via, model.allowed(rel, line, "lock-order")))

    acq = _transitive_acquires(model)
    for fn in model.functions:
        held = []
        for lock_id, line in fn.acquires:
            for h in held:
                add_edge(h, lock_id, fn.rel, line, fn.qual_name)
            held.append(lock_id)
        # Call-graph propagation: anything a callee may acquire nests inside
        # whatever is held at the call site.
        for name, line, held_ids in fn.calls:
            if not held_ids:
                continue
            for callee in _callees(model, name):
                for target in acq[id(callee)]:
                    for h in held_ids:
                        add_edge(h, target, fn.rel, line,
                                 f"{fn.qual_name} -> {callee.qual_name}")

    # Effective graph: drop edges whose every witness is suppressed.
    graph = defaultdict(set)
    for (a, b), wits in edges.items():
        if all(w[3] for w in wits):
            continue
        graph[a].add(b)

    # Tarjan SCC; any component with >1 node is a potential deadlock.
    index_counter = [0]
    stack, on_stack = [], set()
    indices, lowlink = {}, {}
    sccs = []

    def strongconnect(v):
        indices[v] = lowlink[v] = index_counter[0]
        index_counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in sorted(graph.get(v, ())):
            if w not in indices:
                strongconnect(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif w in on_stack:
                lowlink[v] = min(lowlink[v], indices[w])
        if lowlink[v] == indices[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            sccs.append(comp)

    nodes = set(graph) | {b for bs in graph.values() for b in bs}
    sys.setrecursionlimit(max(10000, len(nodes) * 4 + 1000))
    for v in sorted(nodes):
        if v not in indices:
            strongconnect(v)

    for comp in sccs:
        if len(comp) < 2:
            continue
        comp_set = set(comp)
        witnesses = []
        for (a, b), wits in sorted(edges.items()):
            if a in comp_set and b in comp_set:
                for rel, line, via, sup in wits:
                    if not sup:
                        witnesses.append((rel, line, f"{a} -> {b} ({via})"))
        cycle = " -> ".join(sorted(comp)) + " -> " + sorted(comp)[0]
        first = witnesses[0] if witnesses else (model.mutexes[comp[0]].rel
                                                if comp[0] in model.mutexes
                                                else "?", 0, "")
        detail = "; ".join(f"{r}:{l} {d}" for r, l, d in witnesses[:4])
        findings.append(Finding(
            first[0], first[1], "lock-order",
            f"lock acquisition cycle: {cycle} — witnesses: {detail}"))

    return edges


def render_dot(model, edges):
    """The acquisition graph as graphviz text: every declared mutex is a node
    labeled with its kind and file, observed edges solid, suppressed edges
    dashed, each labeled with its first witness's file. Labels carry no line
    numbers, so the committed graph changes only when the order does."""
    lines = [
        f"// Generated by `python3 tools/analyze.py --dot {DOT_PATH}`. Do not edit.",
        "// Nodes: every frn::Mutex/SharedMutex declaration in the scanned",
        "// tree. Edges: A -> B when B can be acquired while A is held.",
        "digraph lock_order {",
        "  rankdir=LR;",
        "  node [shape=box, fontname=\"monospace\"];",
    ]
    for lock_id in sorted(model.mutexes):
        decl = model.mutexes[lock_id]
        lines.append(f'  "{lock_id}" [label="{lock_id}\\n({decl.kind}, '
                     f'{decl.rel})"];')
    seen = set()
    for (a, b), wits in sorted(edges.items()):
        if (a, b) in seen:
            continue
        seen.add((a, b))
        live = [w for w in wits if not w[3]]
        style = "solid" if live else "dashed"
        w = (live or wits)[0]
        lines.append(f'  "{a}" -> "{b}" [style={style}, label="{w[0]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pass: lock-annotation
# ---------------------------------------------------------------------------

def pass_lock_annotation(model, findings):
    """Fields written under a held lock of the owning class must be
    FRN_GUARDED_BY-annotated, otherwise clang -Wthread-safety never checks
    their other access sites."""
    for fn in model.functions:
        if not fn.cls:
            continue
        own_locks = set()
        cls = fn.cls
        while cls:
            own_locks.update(model.classes_mutexes.get(cls, ()))
            cls = cls.rsplit("::", 1)[0] if "::" in cls else ""
        if not own_locks:
            continue
        for field_name, line, held_ids in fn.writes:
            if not (held_ids & own_locks):
                continue  # held lock belongs to another object
            fd = model.fields.get((fn.cls, field_name))
            if fd is None:
                # Walk outer classes for nested-struct methods.
                cls = fn.cls
                while fd is None and "::" in cls:
                    cls = cls.rsplit("::", 1)[0]
                    fd = model.fields.get((cls, field_name))
            if fd is None:
                continue  # a local, parameter, or unparsed declaration
            if fd.guarded_by is not None:
                continue
            if NONDATA_FIELD_TYPE_RE.search(fd.type_text):
                continue  # the lock itself / atomics have their own story
            findings.append(Finding(
                fn.rel, line, "lock-annotation",
                f"`{fn.cls}::{field_name}` is written in `{fn.qual_name}` "
                f"with {sorted(held_ids & own_locks)} held but its "
                f"declaration ({fd.rel}:{fd.line}) has no FRN_GUARDED_BY"))


# ---------------------------------------------------------------------------
# Pass: layering
# ---------------------------------------------------------------------------

def layer_rank(rel):
    """Rank of src/<dir>/... paths; None for anything outside the table."""
    parts = rel.replace("\\", "/").split("/")
    if len(parts) >= 2 and parts[0] == "src":
        return LAYER_RANKS.get(parts[1])
    return None


def pass_layering(model, findings):
    for rel, line, header in model.includes:
        from_rank = layer_rank(rel)
        to_rank = layer_rank(header)
        if from_rank is None or to_rank is None:
            continue  # tests/bench/tools or an unranked directory
        if to_rank > from_rank:
            findings.append(Finding(
                rel, line, "layering",
                f"upward include: {rel} (rank {from_rank}) includes "
                f"{header} (rank {to_rank}); the DAG is common -> "
                f"crypto/rlp -> evm/core/easm/contracts -> "
                f"obs/trie -> state -> app layers"))


# ---------------------------------------------------------------------------
# Pass: determinism
# ---------------------------------------------------------------------------

def pass_determinism(model, findings):
    """Unordered-container iteration in any function reachable from a
    deterministic-output sink, over the real call graph."""
    tainted = set()
    work = []
    reason = {}
    for fn in model.functions:
        if DETERMINISM_SINK_RE.search(fn.name):
            tainted.add(id(fn))
            reason[id(fn)] = fn.qual_name
            work.append(fn)
    while work:
        fn = work.pop()
        for name, _, _ in fn.calls:
            for callee in _callees(model, name):
                if id(callee) not in tainted:
                    tainted.add(id(callee))
                    reason[id(callee)] = reason[id(fn)]
                    work.append(callee)
    for fn in model.functions:
        if id(fn) not in tainted:
            continue
        for expr, line in fn.unordered_iters:
            sink = reason[id(fn)]
            via = "" if sink == fn.qual_name else f" (reached from sink `{sink}`)"
            findings.append(Finding(
                fn.rel, line, "determinism",
                f"iteration over unordered container `{expr}` in "
                f"`{fn.qual_name}`{via}: hash-map order is not deterministic "
                f"output order — sort, or suppress with a why-comment"))


# ---------------------------------------------------------------------------
# Lexical passes
# ---------------------------------------------------------------------------

def pass_lexical(model, findings, passes):
    """Each lexical pass's pattern over every line outside its home file."""
    for rel, rows in model.files.items():
        for line, (code, comment, _) in enumerate(rows, start=1):
            for pass_id in passes:
                pattern, home, message = LEXICAL_PASSES[pass_id]
                text = f"{code} {comment}" if pass_id == "todo-tag" else code
                if rel != home and pattern.search(text):
                    findings.append(Finding(rel, line, pass_id, message))


def stale_allows(models, passes):
    """Each frn:allow(id) of a pass that ran but that matched no finding on
    its own line or the next, and each id that names no pass."""
    used = set().union(*(m.used_allows for m in models))
    files = {rel: rows for m in models for rel, rows in m.files.items()}
    stale = []
    for rel, rows in files.items():
        for line, (_, _, allow) in enumerate(rows, start=1):
            for pass_id in sorted(allow):
                if pass_id not in PASSES:
                    why = "names no pass"
                elif pass_id in passes and (rel, line, pass_id) not in used:
                    why = "matches no finding on this line or the next"
                else:
                    continue
                stale.append(Finding(rel, line, "stale-allow",
                                     f"frn:allow({pass_id}) {why}"))
    return stale


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(root, paths):
    files = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            files.append(ap)
        elif os.path.isdir(ap):
            for dirpath, dirnames, filenames in os.walk(ap):
                dirnames[:] = [d for d in dirnames if d != FIXTURE_DIR_NAME]
                for f in sorted(filenames):
                    if f.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(dirpath, f))
    return sorted(set(files))


def run_analysis(root, paths, passes):
    """Runs `passes` over `paths`, or each pass over its SCOPES entry when
    `paths` is empty. Returns the models (the first holds the lock
    inventory), the sorted findings and the lock-order edges (empty unless
    the lock-order pass ran)."""
    scans = ([(paths, passes)] if paths else
             [(scope, [p for p in passes if p in group])
              for scope, group in SCOPES])
    models, findings, edges = [], [], {}
    for scan_paths, scan_passes in scans:
        model = extract_model(collect_files(root, scan_paths), root)
        models.append(model)
        raw = []
        if "lock-order" in scan_passes:
            edges = pass_lock_order(model, raw)
        if "lock-annotation" in scan_passes:
            pass_lock_annotation(model, raw)
        if "layering" in scan_passes:
            pass_layering(model, raw)
        if "determinism" in scan_passes:
            pass_determinism(model, raw)
        pass_lexical(model, raw, [p for p in scan_passes if p in LEXICAL_PASSES])
        findings += [f for f in raw
                     if not model.allowed(f.path, f.line, f.pass_id)]
    findings += stale_allows(models, passes)
    findings.sort(key=lambda f: (f.path, f.line, f.pass_id))
    return models, findings, edges


def describe(models):
    files = set().union(*(m.files for m in models))
    return f"{len(files)} files, {len(models[0].mutexes)} mutexes"


EXPECT_RE = re.compile(r"\[expect:([\w\-]+)\]")
DOT_PATH = os.path.join("tools", "lock_order.dot")


def self_test(fixture=None):
    """Runs every pass over each fixture tree and checks the [expect:...]
    markers, then asserts the real tree is clean and the committed lock-order
    graph matches a fresh one. With `fixture`, runs just that fixture dir
    (the ctest per-pass suites) and skips the tree checks."""
    fixture_root = os.path.join(REPO_ROOT, "tests", FIXTURE_DIR_NAME)
    if fixture is not None and not os.path.isdir(os.path.join(fixture_root, fixture)):
        print(f"self-test: no fixture tree named {fixture}", file=sys.stderr)
        return 2
    ok = True
    for name in sorted(os.listdir(fixture_root)):
        fdir = os.path.join(fixture_root, name)
        if not os.path.isdir(fdir) or (fixture is not None and name != fixture):
            continue
        expected = set()
        for f in collect_files(fdir, ["."]):
            rel = os.path.relpath(f, fdir)
            with open(f, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    for m in EXPECT_RE.finditer(line):
                        expected.add((rel, lineno, m.group(1)))
        _, findings, _ = run_analysis(fdir, ["."], PASSES)
        found = {(f.path, f.line, f.pass_id) for f in findings}
        missing = expected - found
        unexpected = found - expected
        if missing or unexpected:
            ok = False
            print(f"self-test: {name}: MISMATCH")
            for rel, line, p in sorted(missing):
                print(f"  missing: {rel}:{line} [{p}]")
            for rel, line, p in sorted(unexpected):
                print(f"  unexpected: {rel}:{line} [{p}]")
        else:
            print(f"self-test: {name}: OK ({len(expected)} expected finding(s))")

    if fixture is not None:
        return 0 if ok else 1

    models, findings, edges = run_analysis(REPO_ROOT, None, PASSES)
    if findings:
        ok = False
        print("self-test: tree scan NOT clean:")
        for f in findings:
            print(f"  {f}")
    else:
        print(f"self-test: tree scan clean ({describe(models)})")

    fresh = render_dot(models[0], edges)
    with open(os.path.join(REPO_ROOT, DOT_PATH), encoding="utf-8") as f:
        committed = f.read()
    if committed != fresh:
        ok = False
        print(f"self-test: {DOT_PATH} is stale; regenerate it with:\n"
              f"  python3 tools/analyze.py --dot {DOT_PATH}")
    else:
        print(f"self-test: {DOT_PATH} is current ({len(edges)} edge(s))")
    return 0 if ok else 1


def main(argv):
    ap = argparse.ArgumentParser(
        description="Static contract checker (see module docstring)")
    ap.add_argument("--root", default=REPO_ROOT,
                    help="tree root (default: the repo)")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files/dirs to scan (default: each pass's SCOPES entry)")
    ap.add_argument("--passes", default=",".join(PASSES),
                    help="comma list out of: " + ", ".join(PASSES))
    ap.add_argument("--dot", default=None, metavar="FILE",
                    help="write the lock-order graph as graphviz")
    ap.add_argument("--list-locks", action="store_true",
                    help="print the mutex inventory and exit")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--fixture", default=None, metavar="NAME",
                    help="with --self-test: run only this fixture dir")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test(fixture=args.fixture)

    passes = tuple(p.strip() for p in args.passes.split(",") if p.strip())
    for p in passes:
        if p not in PASSES:
            print(f"unknown pass: {p}", file=sys.stderr)
            return 2
    for p in args.paths:
        if not os.path.exists(os.path.join(args.root, p)):
            print(f"no such path: {p}", file=sys.stderr)
            return 2

    models, findings, edges = run_analysis(args.root, args.paths, passes)

    if args.dot and "lock-order" in passes:
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(render_dot(models[0], edges))

    if args.list_locks:
        for lock_id in sorted(models[0].mutexes):
            d = models[0].mutexes[lock_id]
            print(f"{lock_id}  ({d.kind})  {d.rel}:{d.line}")
        return 0

    for f in findings:
        print(f)
    if not args.quiet:
        print(f"analyze: {describe(models)}, {len(findings)} finding(s)",
              file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except KeyboardInterrupt:
        sys.exit(2)
