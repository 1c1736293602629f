"""The jisc-verify contract checks, run over a srcmodel.Model.

Four call-graph checks read the model's functions; three text checks
(naked-thread, unguarded-mutex, header-hygiene) read only model.files, so
both frontends give them identical findings.  Each check returns a list
of Finding.  Findings are normalized for golden comparison as (check,
relpath, line, symbol); the message carries the human explanation (and
call chains where relevant).
"""

import os
import re
from dataclasses import dataclass, field

import srcmodel

CHECKS = ("determinism", "coordinator-only", "obs-null-discipline",
          "lock-order", "naked-thread", "unguarded-mutex", "header-hygiene")


@dataclass
class Finding:
    check: str
    file: str      # repo-relative path
    line: int
    symbol: str    # function / lock / callee the finding anchors to
    message: str
    chain: list = field(default_factory=list)

    def key(self):
        return (self.check, self.file, self.line, self.symbol)

    def to_json(self):
        out = {"check": self.check, "file": self.file, "line": self.line,
               "symbol": self.symbol, "message": self.message}
        if self.chain:
            out["chain"] = self.chain
        return out


def _rel(path, repo_root):
    try:
        return os.path.relpath(path, repo_root)
    except ValueError:
        return path


# ---------------------------------------------------------------------------
# Call-graph helpers
# ---------------------------------------------------------------------------

def _by_name(model):
    index = {}
    for fn in model.functions:
        index.setdefault(fn.name, []).append(fn)
    return index


def _resolve(call, caller, index):
    """Candidate Function definitions for a call site.

    Same-class definitions win for unqualified/this calls; otherwise any
    definition with the name matches (name-based linking — see DESIGN.md
    for the precision trade-off).
    """
    cands = index.get(call.name, [])
    if not cands:
        return []
    if call.qualifier in ("", "this") and caller.cls:
        same = [f for f in cands if f.cls == caller.cls]
        if same:
            return same
    return cands


def _closure(roots, index, follow):
    """Transitive callee closure. follow(call, caller) gates edges.

    Returns {id(fn): (fn, chain)} where chain is the qual_name path from
    a root to fn (inclusive).
    """
    reached = {}
    stack = []
    for fn in roots:
        reached[id(fn)] = (fn, [fn.qual_name])
        stack.append(fn)
    while stack:
        caller = stack.pop()
        chain = reached[id(caller)][1]
        if len(chain) > 32:
            continue
        for call in caller.calls:
            if not follow(call, caller):
                continue
            for fn in _resolve(call, caller, index):
                if id(fn) in reached:
                    continue
                reached[id(fn)] = (fn, chain + [fn.qual_name])
                stack.append(fn)
    return reached


# ---------------------------------------------------------------------------
# 1. determinism
# ---------------------------------------------------------------------------

def check_determinism(model, repo_root, roots):
    """Nondeterminism sources reachable from deterministic-serialization
    roots: wall-clock reads, PRNG draws, and iteration over unordered
    containers (hash order leaks into the serialized bytes)."""
    index = _by_name(model)
    root_fns = [fn for fn in model.functions if fn.name in set(roots)]
    # Data reachable through any receiver feeds the serialization, so the
    # closure follows every call qualifier.
    reached = _closure(root_fns, index, lambda call, caller: True)
    findings = []
    for fn, chain in reached.values():
        rel = _rel(fn.file, repo_root)
        for site in fn.nondet:
            kind = ("wall-clock read" if site.what == "clock"
                    else "PRNG draw")
            findings.append(Finding(
                check="determinism", file=rel, line=site.line,
                symbol=site.detail,
                message=(f"{kind} `{site.detail}` in {fn.qual_name}, "
                         f"reachable from deterministic root "
                         f"{chain[0]} — serialized bytes would depend "
                         f"on it"),
                chain=chain))
        for site in fn.iters:
            findings.append(Finding(
                check="determinism", file=rel, line=site.line,
                symbol=site.expr,
                message=(f"iteration over unordered container "
                         f"`{site.expr}` in {fn.qual_name}, reachable "
                         f"from deterministic root {chain[0]} — hash "
                         f"order leaks into serialized bytes; iterate a "
                         f"sorted copy or a canonical ordering"),
                chain=chain))
    return findings


# ---------------------------------------------------------------------------
# 2. coordinator-only
# ---------------------------------------------------------------------------

def check_coordinator_only(model, repo_root):
    """Any function transitively reachable from a worker-loop root that
    calls a JISC_COORDINATOR_ONLY symbol.  Only unqualified / this-> /
    scope-qualified calls are followed (a receiver-qualified call targets
    another object, which is the coordinator's business to mediate)."""
    index = _by_name(model)
    roots = [fn for fn in model.functions if fn.worker_entry]

    def follow(call, caller):
        return call.qualifier in ("", "this", "scope")

    reached = _closure(roots, index, follow)
    findings = []
    seen = set()
    for fn, chain in reached.values():
        for call in fn.calls:
            if call.qualifier not in ("", "this", "scope"):
                continue
            mark_hit = ((fn.cls, call.name) in model.coordinator_marks or
                        ("", call.name) in model.coordinator_marks)
            if not mark_hit:
                targets = _resolve(call, fn, index)
                mark_hit = any(t.coordinator_only for t in targets)
            if not mark_hit:
                continue
            rel = _rel(fn.file, repo_root)
            k = (rel, call.line, call.name)
            if k in seen:
                continue
            seen.add(k)
            findings.append(Finding(
                check="coordinator-only", file=rel, line=call.line,
                symbol=call.name,
                message=(f"worker-reachable call to coordinator-only "
                         f"symbol {call.name} "
                         f"(path: {' -> '.join(chain)} -> {call.name})"),
                chain=chain + [call.name]))
    return findings


# ---------------------------------------------------------------------------
# 3. obs-null-discipline
# ---------------------------------------------------------------------------

def check_obs_null(model, repo_root):
    """Every Observability*/TelemetryRegistry* dereference must be
    dominated by a null check (the pointers are nullptr when the feature
    is off — see src/obs/observability.h)."""
    findings = []
    for fn in model.functions:
        for site in fn.derefs:
            if site.guarded:
                continue
            findings.append(Finding(
                check="obs-null-discipline",
                file=_rel(fn.file, repo_root), line=site.line,
                symbol=f"{site.expr}->{site.member}",
                message=(f"dereference of {site.ptr_type}* "
                         f"`{site.expr}->{site.member}` in {fn.qual_name} "
                         f"is not dominated by a null check — this "
                         f"pointer is nullptr when observability is "
                         f"off")))
    return findings


# ---------------------------------------------------------------------------
# 4. lock-order
# ---------------------------------------------------------------------------

def check_lock_order(model, repo_root, follow_receivers=False):
    """Builds the static lock-acquisition graph (edge A->B when B is
    acquired while A is held, including one level of interprocedural
    nesting) and fails on cycles.  Self-edges are skipped: re-acquiring
    the same named lock through a wrapper is the -Wthread-safety gate's
    job, and receiver-qualified calls target other objects whose
    same-named locks are distinct instances."""
    index = _by_name(model)
    edges = {}   # lock -> {other_lock: (file, line, via)}

    def add_edge(a, b, file, line, via):
        if a == b:
            return
        edges.setdefault(a, {}).setdefault(b, (file, line, via))

    for fn in model.functions:
        for held in fn.locks:
            # Intra-function nesting.
            for other in fn.locks:
                if other is held:
                    continue
                if held.start < other.start < held.end:
                    add_edge(held.lock, other.lock, fn.file, other.line,
                             fn.qual_name)
            # One-level interprocedural nesting through calls made while
            # the lock is held.
            for call in fn.calls:
                if not (held.start < call.pos < held.end):
                    continue
                if call.qualifier not in ("", "this", "scope") and \
                        not follow_receivers:
                    continue
                for callee in _resolve(call, fn, index):
                    for acq in callee.locks:
                        add_edge(held.lock, acq.lock, fn.file, call.line,
                                 f"{fn.qual_name} -> {callee.qual_name}")

    # Cycle detection (DFS with colors); each cycle reported once under a
    # canonical rotation.
    findings = []
    reported = set()
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    stack = []

    def dfs(node):
        color[node] = GRAY
        stack.append(node)
        for nxt in edges.get(node, {}):
            c = color.get(nxt, WHITE)
            if c == GRAY:
                cyc = stack[stack.index(nxt):] + [nxt]
                rots = [tuple(cyc[i:-1] + cyc[:i])
                        for i in range(len(cyc) - 1)]
                canon = min(rots)
                if canon in reported:
                    continue
                reported.add(canon)
                file, line, via = edges[node][nxt]
                findings.append(Finding(
                    check="lock-order", file=_rel(file, repo_root),
                    line=line, symbol=" -> ".join(cyc),
                    message=(f"lock-order cycle: {' -> '.join(cyc)} "
                             f"(edge {node} -> {nxt} via {via}); a "
                             f"concurrent reverse acquisition can "
                             f"deadlock"),
                    chain=list(cyc)))
            elif c == WHITE:
                dfs(nxt)
        stack.pop()
        color[node] = BLACK

    for node in sorted(edges):
        if color.get(node, WHITE) == WHITE:
            dfs(node)
    return findings


# ---------------------------------------------------------------------------
# 5. naked-thread
# ---------------------------------------------------------------------------

def check_naked_thread(model, repo_root, allowlist):
    """std::thread only inside the parallel engine (the allowlist): every
    other src/ file must route its work through ParallelExecutor."""
    findings = []
    for path, text in model.files.items():
        rel = _rel(path, repo_root)
        if not rel.startswith("src/") or rel in allowlist:
            continue
        code = srcmodel.strip_comments(text)
        for m in re.finditer(r"\bstd::thread\b", code):
            findings.append(Finding(
                check="naked-thread", file=rel,
                line=srcmodel.line_of(code, m.start()), symbol="std::thread",
                message="std::thread outside the parallel engine — route "
                        "work through ParallelExecutor (or waive with a "
                        "reason)"))
    return findings


# ---------------------------------------------------------------------------
# 6. unguarded-mutex
# ---------------------------------------------------------------------------

_MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?P<decl>(?:mutable\s+)?(?:jisc::)?(?P<type>Mutex|std::mutex)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*[;{=])", re.M)
_GUARDED_BY_RE = re.compile(r"\bJISC_(?:PT_)?GUARDED_BY\s*\(")


def check_unguarded_mutex(model, repo_root):
    """A class holding a Mutex must mark at least one field
    JISC_GUARDED_BY / JISC_PT_GUARDED_BY; a raw std::mutex member is always
    rejected, since -Wthread-safety cannot see through it."""
    findings = []
    for path, text in model.files.items():
        code = srcmodel.strip_comments(text)
        for cls, open_pos, _, body in srcmodel._class_regions(code):
            for m in _MUTEX_MEMBER_RE.finditer(body):
                if m.group("type") == "std::mutex":
                    message = (f"class {cls}: raw std::mutex member — use "
                               f"jisc::Mutex so -Wthread-safety can track it")
                elif _GUARDED_BY_RE.search(body):
                    continue
                else:
                    message = (f"class {cls} holds a Mutex but no field is "
                               f"JISC_GUARDED_BY it — annotate the protected "
                               f"state or waive with a reason")
                findings.append(Finding(
                    check="unguarded-mutex", file=_rel(path, repo_root),
                    line=srcmodel.line_of(code, open_pos + m.start("decl")),
                    symbol=f"{cls}::{m.group('name')}", message=message))
    return findings


# ---------------------------------------------------------------------------
# 7. header-hygiene
# ---------------------------------------------------------------------------

# std symbol -> the header a src/ header must include directly to use it.
# Deliberately high-precision: each pattern matches only an unambiguous use.
STD_SYMBOLS = [
    (r"\bstd::string\b", "<string>"),
    (r"\bstd::vector<", "<vector>"),
    (r"\bstd::deque<", "<deque>"),
    (r"\bstd::map<", "<map>"),
    (r"\bstd::unordered_map<", "<unordered_map>"),
    (r"\bstd::unordered_set<", "<unordered_set>"),
    (r"\bstd::(?:unique_ptr|shared_ptr|make_unique|make_shared|weak_ptr)\b",
     "<memory>"),
    (r"\bstd::(?:move|forward|pair|make_pair|swap|exchange)\b", "<utility>"),
    (r"\bstd::function<", "<functional>"),
    (r"\bstd::atomic\b", "<atomic>"),
    (r"\bstd::optional<", "<optional>"),
    (r"\bstd::ostream\b", "<ostream>"),
    (r"\bstd::(?:ostringstream|istringstream|stringstream)\b", "<sstream>"),
    (r"\bstd::chrono\b", "<chrono>"),
    (r"\bstd::thread\b", "<thread>"),
    (r"\bstd::mutex\b", "<mutex>"),
    (r"\bstd::condition_variable\b", "<condition_variable>"),
    (r"\b(?:u?int(?:8|16|32|64)_t)\b", "<cstdint>"),
    (r"\bsize_t\b", "<cstddef>"),
]


def check_header_hygiene(model, repo_root):
    """src/ headers stand alone: the canonical JISC_<PATH>_H_ include guard
    (no #pragma once) and a direct #include for every std symbol used."""
    findings = []

    def add(rel, line, symbol, message):
        findings.append(Finding(check="header-hygiene", file=rel, line=line,
                                symbol=symbol, message=message))

    for path, text in model.files.items():
        rel = _rel(path, repo_root)
        if not (rel.startswith("src/") and rel.endswith(".h")):
            continue
        code = srcmodel.strip_comments(text)
        pragma = re.search(r"^\s*(#\s*pragma\s+once)", code, re.M)
        if pragma:
            add(rel, srcmodel.line_of(code, pragma.start(1)), "#pragma once",
                "#pragma once — use the canonical include guard")
        want = "JISC_" + re.sub(r"[/.]", "_", rel[len("src/"):]).upper() + "_"
        guard = re.search(r"^\s*#\s*ifndef\s+(\S+)", code, re.M)
        if guard is None or guard.group(1) != want:
            have = guard.group(1) if guard else "none"
            add(rel, 1, want, f"include guard must be {want} (found {have})")
        includes = set(re.findall(r'#\s*include\s+(<[^>]+>|"[^"]+")', text))
        missing = {}
        for pattern, header in STD_SYMBOLS:
            if header in includes:
                continue
            m = re.search(pattern, code)
            if m:
                missing.setdefault(header, srcmodel.line_of(code, m.start()))
        for header, line in sorted(missing.items()):
            add(rel, line, header,
                f"uses a symbol from {header} without including it directly "
                f"(headers must stand alone)")
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_checks(model, repo_root, waivers, selected=None,
               follow_receivers=False):
    """Runs the selected checks; returns (findings, waived)."""
    selected = set(selected or CHECKS)
    raw = []
    if "determinism" in selected:
        raw += check_determinism(model, repo_root,
                                 waivers.deterministic_roots)
    if "coordinator-only" in selected:
        raw += check_coordinator_only(model, repo_root)
    if "obs-null-discipline" in selected:
        raw += check_obs_null(model, repo_root)
    if "lock-order" in selected:
        raw += check_lock_order(model, repo_root,
                                follow_receivers=follow_receivers)
    if "naked-thread" in selected:
        raw += check_naked_thread(model, repo_root,
                                  waivers.naked_thread_allowlist)
    if "unguarded-mutex" in selected:
        raw += check_unguarded_mutex(model, repo_root)
    if "header-hygiene" in selected:
        raw += check_header_hygiene(model, repo_root)

    findings, waived = [], []
    abs_files = {path: text for path, text in model.files.items()}
    # Surface malformed waivers even in files with no other findings.
    for path, text in abs_files.items():
        waivers._site_waivers(path, text)
    for f in sorted(raw, key=lambda f: f.key()):
        path = os.path.join(repo_root, f.file)
        if waivers.is_waived(f.check, path, f.line, abs_files):
            waived.append(f)
        else:
            findings.append(f)
    for rel, line in waivers.bad_waivers:
        findings.append(Finding(
            check="waiver-syntax", file=rel, line=line, symbol="allow",
            message="jisc-verify: allow() waiver without a reason — "
                    "every waiver must say why"))
    return findings, waived
