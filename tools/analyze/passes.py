"""The four analysis passes.

Each pass consumes the frontend-independent `Model` and returns
`Violation`s. Suppression is uniform: `// analyze:allow(<pass>) <reason>`
on the flagged line or alone on the line above; a reason is mandatory
(an allow without one is itself a violation). The blocking-under-lock
pass additionally honors a decl-site allow on a mutex *member
declaration*, which sanctions blocking calls under that specific mutex —
that is how deliberately IO-serializing locks (WAL group-commit,
manifest-fsync serialization) are expressed without sprinkling per-call
suppressions.
"""

from __future__ import annotations

import re

from cpp_model import (
    Function,
    Model,
    MutexMember,
    Violation,
    short_class,
)
from cpp_source import CleanSource

# ---------------------------------------------------------------------------
# Receiver / mutex resolution shared by the passes
# ---------------------------------------------------------------------------


def resolve_receiver_class(model: Model, fn: Function, receiver: str) -> str | None:
    """Best-effort: the short class name of a call receiver chain like
    `file_`, `this->env_`, `state->file`, `r.mu` (minus the final member)."""
    recv = receiver.strip()
    recv = recv.removeprefix("this->").removeprefix("this.")
    if not recv or recv == "this":
        return short_class(fn.cls) if fn.cls else None
    parts = [p.split("[")[0] for p in re.split(r"\.|->", recv) if p]
    cur_cls = model.classes.get(fn.cls) if fn.cls else None
    cur_type: str | None = None
    for idx, part in enumerate(parts):
        if idx == 0:
            if part in fn.local_types:
                cur_type = fn.local_types[part]
            elif cur_cls is not None and part in cur_cls.member_types:
                cur_type = cur_cls.member_types[part]
            else:
                return None
        else:
            info = model.find_class(short_class(cur_type)) if cur_type else None
            if info is None or part not in info.member_types:
                return None
            cur_type = info.member_types[part]
    return short_class(cur_type) if cur_type else None


def resolve_mutex(model: Model, fn: Function,
                  expr: str) -> tuple[str, MutexMember | None]:
    """Canonicalize a lock expression to "Class::member" where possible.

    Returns (canonical_name, member_or_None). Locals come back as
    "<local>Fn::name"; unresolvable expressions as "<unresolved>expr".
    """
    e = expr.strip().lstrip("&").strip()
    e = e.removeprefix("this->").removeprefix("this.")
    if re.fullmatch(r"[A-Za-z_]\w*", e):
        info = model.classes.get(fn.cls) if fn.cls else None
        if info is not None and e in info.mutexes:
            return info.mutexes[e].qualified, info.mutexes[e]
        if e in fn.local_types and "Mutex" in fn.local_types[e]:
            return f"<local>{fn.qualified}::{e}", None
        hits = [m for c in model.classes.values()
                for m in c.mutexes.values() if m.name == e]
        if len(hits) == 1:
            return hits[0].qualified, hits[0]
        return f"<unresolved>{e}", None
    # Dotted path: resolve the owner chain, last component is the member.
    m = re.match(r"^(?P<owner>.+?)(?:\.|->)(?P<member>\w+)$", e)
    if m:
        owner_cls = resolve_receiver_class(model, fn, m.group("owner"))
        if owner_cls is not None:
            info = model.find_class(owner_cls)
            if info is not None and m.group("member") in info.mutexes:
                mem = info.mutexes[m.group("member")]
                return mem.qualified, mem
        hits = [mm for c in model.classes.values()
                for mm in c.mutexes.values() if mm.name == m.group("member")]
        if len(hits) == 1:
            return hits[0].qualified, hits[0]
    return f"<unresolved>{e}", None


def resolve_callee(model: Model, fn: Function, call) -> list[Function]:
    """Repo-local definitions a call may land on (one level, best effort)."""
    name = call.name.split("::")[-1]
    if call.receiver:
        cls = resolve_receiver_class(model, fn, call.receiver)
        if cls is None:
            return []
        return model.functions_named(name, cls)
    # Unqualified: same class first, then a unique global match.
    if fn.cls:
        own = model.functions_named(name, short_class(fn.cls))
        if own:
            return own
    if "::" in call.name:
        owner = call.name.rsplit("::", 2)[-2]
        hits = model.functions_named(name, owner)
        if hits:
            return hits
    hits = [f for f in model.functions if f.name == name and f.cls is None]
    return hits if len(hits) == 1 else []


# ---------------------------------------------------------------------------
# Pass 1: blocking-under-lock
# ---------------------------------------------------------------------------

PASS_BLOCKING = "blocking-under-lock"

# Method names that are IO/blocking regardless of receiver resolution —
# unique to the Env/file surfaces in this tree.
UNAMBIGUOUS_BLOCKING_METHODS = {
    "Sync", "Append", "AppendV", "Flush", "MultiRead", "ReadAheadHint",
    "NewWritableFile", "NewRandomAccessFile", "NewSequentialFile",
    "NewRandomRWFile", "GetChildren", "RemoveFile", "RenameFile",
    "GetFileSize", "FileExists", "CreateDir", "RemoveDir",
    "RemoveDirRecursive", "SleepForMicroseconds", "Skip",
}
# Ambiguous names: blocking only when the receiver resolves to an IO type.
AMBIGUOUS_BLOCKING_METHODS = {"Read", "Write", "Close"}
IO_TYPE_SUFFIXES = (
    "Env", "SequentialFile", "RandomAccessFile", "WritableFile",
    "RandomRWFile",
)
BLOCKING_FREE_FUNCTIONS = {
    "pread", "pwrite", "preadv", "pwritev", "fsync", "fdatasync",
    "fallocate", "posix_fallocate", "usleep", "nanosleep", "sleep",
    "sleep_for", "sleep_until", "io_uring_submit_and_wait",
    "io_uring_wait_cqe", "io_uring_wait_cqes", "msync", "sync_file_range",
}


def direct_blocking_calls(model: Model, fn: Function) -> list[tuple]:
    """(call, description) for every directly blocking call in fn."""
    out = []
    for c in fn.calls:
        name = c.name.split("::")[-1]
        if c.receiver:
            if name in UNAMBIGUOUS_BLOCKING_METHODS:
                out.append((c, f"{c.receiver}->{name}()"))
            elif name in AMBIGUOUS_BLOCKING_METHODS:
                cls = resolve_receiver_class(model, fn, c.receiver)
                if cls is not None and cls.endswith(IO_TYPE_SUFFIXES):
                    out.append((c, f"{c.receiver}->{name}() [{cls}]"))
        else:
            if name in BLOCKING_FREE_FUNCTIONS:
                out.append((c, f"{c.name}()"))
            elif name in UNAMBIGUOUS_BLOCKING_METHODS and "::" not in c.name:
                out.append((c, f"{name}()"))
    return out


def _held_regions(model: Model, fn: Function):
    """(canonical, member, start, end, why) for every lock-held region.

    REQUIRES-annotated functions are held over the whole body.
    """
    regions = []
    for s in fn.lock_scopes:
        canon, member = resolve_mutex(model, fn, s.mutex)
        regions.append((canon, member, s.start, s.end,
                        f"{s.kind} at line {s.line}"))
    for req in fn.requires:
        canon, member = resolve_mutex(model, fn, req)
        regions.append((canon, member, fn.body_start, fn.body_end,
                        f"REQUIRES({req})"))
    return regions


def run_blocking_under_lock(model: Model, files: set[str]) -> list[Violation]:
    out = []
    direct: dict[int, list] = {}
    for fn in model.functions:
        direct[id(fn)] = direct_blocking_calls(model, fn)
    for fn in model.functions:
        if fn.file not in files:
            continue
        src: CleanSource = model.sources[fn.file]
        regions = _held_regions(model, fn)
        if not regions:
            continue
        blocking_here = {id(c): why for c, why in direct[id(fn)]}
        for c in fn.calls:
            held = [r for r in regions if r[2] <= c.offset < r[3]]
            # Only consider locks without a decl-site IO sanction.
            held = [r for r in held
                    if r[1] is None or r[1].io_allowed_reason is None]
            if not held:
                continue
            canon, _, _, _, why_held = held[0]
            if id(c) in blocking_here:
                if src.allowed(PASS_BLOCKING, c.line):
                    continue
                out.append(Violation(
                    PASS_BLOCKING, fn.file, c.line,
                    f"{fn.qualified} performs blocking call "
                    f"{blocking_here[id(c)]} while holding {canon} "
                    f"({why_held})"))
                continue
            if c.name in ("Wait", "WaitFor", "Lock", "Unlock", "LockShared",
                          "UnlockShared", "TryLock"):
                continue  # CondVar::Wait releases the lock; lock ops are not IO
            for callee in resolve_callee(model, fn, c):
                cb = direct[id(callee)]
                # A helper whose only blocking calls sit under its own
                # decl-sanctioned IO mutex still blocks its caller; report
                # it — the caller's lock must be sanctioned too or the
                # call hoisted out.
                if not cb:
                    continue
                if src.allowed(PASS_BLOCKING, c.line):
                    break
                _, why0 = cb[0]
                out.append(Violation(
                    PASS_BLOCKING, fn.file, c.line,
                    f"{fn.qualified} calls {callee.qualified} (which "
                    f"performs {why0}) while holding {canon} ({why_held})"))
                break
    return out


# ---------------------------------------------------------------------------
# Pass 2: RCU publish ordering
# ---------------------------------------------------------------------------

PASS_RCU = "rcu-publish-order"

PIN_TYPE_RE = re.compile(r"(Ptr\b|shared_ptr)")


def run_rcu_publish_order(model: Model, files: set[str]) -> list[Violation]:
    out = []
    # Publishing methods: anything that itself stores to a view slot.
    publishers: set[tuple[str | None, str]] = set()
    for fn in model.functions:
        if fn.slot_stores:
            publishers.add((short_class(fn.cls) if fn.cls else None, fn.name))
    for fn in model.functions:
        if fn.file not in files:
            continue
        src: CleanSource = model.sources[fn.file]
        clean = src.clean

        publish_points = [s.offset for s in fn.slot_stores]
        for c in fn.calls:
            key_own = (short_class(fn.cls) if fn.cls else None, c.name)
            if key_own in publishers and not c.receiver:
                publish_points.append(c.offset)
            elif c.receiver:
                cls = resolve_receiver_class(model, fn, c.receiver)
                if cls is not None and (cls, c.name) in publishers:
                    publish_points.append(c.offset)
        if not publish_points:
            continue
        last_publish = max(publish_points)

        # R1: the published object must not be touched after the store.
        for s in fn.slot_stores:
            if s.arg_var is None:
                continue
            stmt_end = clean.find(";", s.offset)
            if stmt_end < 0:
                stmt_end = s.offset
            tail = clean[stmt_end:fn.body_end]
            m = re.search(r"\b%s\b" % re.escape(s.arg_var), tail)
            if m:
                off = stmt_end + m.start()
                line = src.line_of(off)
                if src.allowed(PASS_RCU, line):
                    continue
                out.append(Violation(
                    PASS_RCU, fn.file, line,
                    f"{fn.qualified} uses `{s.arg_var}` after publishing it "
                    f"via {s.slot}.store() at line {s.line}; the view must "
                    f"be fully built before the store and never touched "
                    f"after"))

        # R2: inputs pinned for the new view may be released only after
        # the publishing store. Member restructuring (c1_.reset() while
        # rewiring slots under the tree mutex) is protocol, so only
        # obsolete-marking and local-pin drops are ordered.
        for r in fn.release_ops:
            if r.offset >= last_publish:
                continue
            flag = False
            if r.op == "obsolete":
                flag = True
            elif not r.is_member:
                head = re.split(r"\.|->|\[", r.target)[0]
                t = fn.local_decl_types.get(head, "")
                flag = bool(PIN_TYPE_RE.search(t))
            if not flag:
                continue
            if src.allowed(PASS_RCU, r.line):
                continue
            out.append(Violation(
                PASS_RCU, fn.file, r.line,
                f"{fn.qualified} releases input `{r.target}` ({r.op}) "
                f"before the publishing store at line "
                f"{src.line_of(last_publish)}; inputs may be dropped only "
                f"after the new view is visible"))
    return out


# ---------------------------------------------------------------------------
# Pass 3: lock-order graph
# ---------------------------------------------------------------------------

PASS_LOCK_ORDER = "lock-order"


def build_lock_graph(model: Model):
    """Directed edges canonical_outer -> canonical_inner with provenance.

    Sources: ACQUIRED_BEFORE annotations, nested lock scopes, and
    one-level calls from a held region into a function that acquires.
    """
    edges: dict[tuple[str, str], list[str]] = {}

    def add(outer: str, inner: str, why: str):
        if outer.startswith("<") or inner.startswith("<") or outer == inner:
            return
        edges.setdefault((outer, inner), [])
        if why not in edges[(outer, inner)]:
            edges[(outer, inner)].append(why)

    for cls in model.classes.values():
        for mem in cls.mutexes.values():
            for target in mem.acquired_before:
                canon = (cls.mutexes[target].qualified
                         if target in cls.mutexes
                         else f"{short_class(cls.name)}::{target}")
                add(mem.qualified, canon,
                    f"ACQUIRED_BEFORE on {mem.qualified} "
                    f"({mem.file}:{mem.line})")

    for fn in model.functions:
        regions = _held_regions(model, fn)
        # Nested scopes.
        for outer in regions:
            for inner in fn.lock_scopes:
                ic, _ = resolve_mutex(model, fn, inner.mutex)
                if outer[2] < inner.start < outer[3] and outer[0] != ic:
                    add(outer[0], ic,
                        f"nested in {fn.qualified} ({fn.file}:{inner.line})")
        # Calls into acquiring functions (one level).
        for c in fn.calls:
            held = [r for r in regions if r[2] <= c.offset < r[3]]
            if not held:
                continue
            for callee in resolve_callee(model, fn, c):
                inner_canons = set()
                for s in callee.lock_scopes:
                    ic, _ = resolve_mutex(model, callee, s.mutex)
                    inner_canons.add(ic)
                for acq in callee.acquires:
                    ic, _ = resolve_mutex(model, callee, acq)
                    inner_canons.add(ic)
                for r in held:
                    for ic in inner_canons:
                        add(r[0], ic,
                            f"{fn.qualified} -> {callee.qualified} "
                            f"({fn.file}:{c.line})")
    return edges


def find_cycles(edges) -> list[list[str]]:
    graph: dict[str, list[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, []).append(b)
        graph.setdefault(b, [])
    cycles = []
    color: dict[str, int] = {}
    stack: list[str] = []

    def dfs(u: str):
        color[u] = 1
        stack.append(u)
        for v in sorted(graph[u]):
            if color.get(v, 0) == 0:
                dfs(v)
            elif color.get(v) == 1:
                cycles.append(stack[stack.index(v):] + [v])
        stack.pop()
        color[u] = 2

    for node in sorted(graph):
        if color.get(node, 0) == 0:
            dfs(node)
    return cycles


def assign_ranks(model: Model, edges) -> dict[str, int]:
    """Longest-path layering: outer locks get lower ranks; an edge
    A -> B (A held while acquiring B) forces rank(A) < rank(B). Ranks are
    spaced by 10 to leave insertion headroom; every known mutex gets a
    rank, isolated ones land in the first layer."""
    graph: dict[str, list[str]] = {}
    nodes = {m.qualified for c in model.classes.values()
             for m in c.mutexes.values()}
    for (a, b) in edges:
        nodes.add(a)
        nodes.add(b)
        graph.setdefault(a, []).append(b)
    depth: dict[str, int] = {}

    def longest_to(n: str, seen: frozenset) -> int:
        if n in depth:
            return depth[n]
        if n in seen:
            return 0  # cycle; reported separately
        best = 0
        for (a, b) in edges:
            if b == n:
                best = max(best, 1 + longest_to(a, seen | {n}))
        depth[n] = best
        return best

    for n in sorted(nodes):
        longest_to(n, frozenset())
    return {n: (depth[n] + 1) * 10 for n in sorted(nodes)}


def run_lock_order(model: Model) -> list[Violation]:
    edges = build_lock_graph(model)
    out = []
    seen = set()
    for cyc in find_cycles(edges):
        key = frozenset(cyc)
        if key in seen:
            continue
        seen.add(key)
        first = cyc[0]
        member = next((m for c in model.classes.values()
                       for m in c.mutexes.values() if m.qualified == first),
                      None)
        file = member.file if member else "(unknown)"
        line = member.line if member else 0
        out.append(Violation(
            PASS_LOCK_ORDER, file, line,
            "lock-order cycle: " + " -> ".join(cyc)))
    return out


# ---------------------------------------------------------------------------
# Pass 4: stats-key registry
# ---------------------------------------------------------------------------

PASS_STATS = "stats-keys"

STATS_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
# Helper functions whose string literals also emit stats keys.
STATS_EMITTERS = {"Stats", "AddIoStats", "AddReadStats"}


def collect_emitted_keys(model: Model):
    """{key: [(file, line, fn_qualified)]}, plus dynamic prefixes
    ({prefix: [...]}) for keys finished with runtime suffixes like
    `"files_l" + std::to_string(i)`."""
    keys: dict[str, list] = {}
    prefixes: dict[str, list] = {}
    for fn in model.functions:
        if fn.name not in STATS_EMITTERS:
            continue
        src: CleanSource = model.sources[fn.file]
        for lit in src.strings:
            if not (fn.body_start <= lit.offset < fn.body_end):
                continue
            if not STATS_KEY_RE.match(lit.text):
                continue
            j = lit.offset + len(lit.text) + 2
            while j < len(src.raw) and src.raw[j] in " \t\n":
                j += 1
            dynamic = j < len(src.raw) and src.raw[j] == "+"
            bucket = prefixes if dynamic else keys
            bucket.setdefault(lit.text, []).append(
                (fn.file, lit.line, fn.qualified))
    return keys, prefixes


def collect_consumed_keys(model: Model, consumer_files: set[str]):
    """Dotted string literals used in stats lookups outside the emitters
    (tests/bench/tools reading engine stats)."""
    out = []
    for path in sorted(consumer_files):
        src: CleanSource = model.sources.get(path)
        if src is None:
            continue
        for lit in src.strings:
            if "." not in lit.text or not STATS_KEY_RE.match(lit.text):
                continue
            line_text = src.line_text(lit.line)
            if "stats" not in line_text.lower():
                continue
            out.append((lit.text, path, lit.line))
    return out


def run_stats_keys(model: Model, registry: dict | None,
                   consumer_files: set[str]) -> list[Violation]:
    out = []
    keys, prefixes = collect_emitted_keys(model)

    # Duplicate emission of the same key from one Stats() implementation
    # is a typo/copy-paste bug.
    for key, sites in keys.items():
        by_fn: dict[str, list] = {}
        for file, line, fq in sites:
            by_fn.setdefault(fq, []).append((file, line))
        for fq, locs in by_fn.items():
            if len(locs) > 1:
                src = model.sources[locs[1][0]]
                if src.allowed(PASS_STATS, locs[1][1]):
                    continue
                out.append(Violation(
                    PASS_STATS, locs[1][0], locs[1][1],
                    f"{fq} emits stats key \"{key}\" more than once "
                    f"(first at line {locs[0][1]})"))

    if registry is not None:
        reg_keys = set(registry.get("keys", []))
        reg_prefixes = set(registry.get("prefixes", []))
        for key, sites in keys.items():
            if key not in reg_keys:
                file, line, fq = sites[0]
                out.append(Violation(
                    PASS_STATS, file, line,
                    f"stats key \"{key}\" ({fq}) missing from the generated "
                    f"registry — run tools/analyze --update-artifacts"))
        for p, sites in prefixes.items():
            if p not in reg_prefixes:
                file, line, fq = sites[0]
                out.append(Violation(
                    PASS_STATS, file, line,
                    f"dynamic stats prefix \"{p}\" ({fq}) missing from the "
                    f"generated registry"))
        for key, path, line in collect_consumed_keys(model, consumer_files):
            if key in reg_keys:
                continue
            if any(key.startswith(p) for p in reg_prefixes):
                continue
            src = model.sources[path]
            if src.allowed(PASS_STATS, line):
                continue
            out.append(Violation(
                PASS_STATS, path, line,
                f"\"{key}\" is read as a stats key but no Stats() "
                f"implementation emits it (typo?)"))
    return out


# ---------------------------------------------------------------------------
# allow hygiene: every allow must carry a reason and match a real pass
# ---------------------------------------------------------------------------

KNOWN_PASSES = {PASS_BLOCKING, PASS_RCU, PASS_LOCK_ORDER, PASS_STATS}


def run_allow_hygiene(model: Model, lint_rules: set[str]) -> list[Violation]:
    out = []
    for path, src in sorted(model.sources.items()):
        for line, allows in sorted(src.allows.items()):
            for a in allows:
                if a.rule in lint_rules and a.rule not in KNOWN_PASSES:
                    continue  # lint.py owns its own rule names
                if a.rule not in KNOWN_PASSES:
                    out.append(Violation(
                        "allow-hygiene", path, line,
                        f"allow names unknown pass '{a.rule}'"))
                elif not a.reason:
                    out.append(Violation(
                        "allow-hygiene", path, line,
                        f"analyze:allow({a.rule}) has no reason — every "
                        f"suppression must be named"))
    return out
