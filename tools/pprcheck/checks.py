"""The four pprcheck analyses over an extracted Model.

lock-order
    Directed graph over capability names: an edge A -> B means some
    execution path acquires B while holding A.  Direct edges come from
    `MutexLock` sites with a non-empty held set (REQUIRES caps count as
    held — that is the interprocedural charge-to-the-caller rule); call
    edges come from per-function transitive acquisition summaries
    computed to fixpoint over the call graph.  Any strongly connected
    component of size > 1, or a self-loop (acquiring a capability
    already held), is a potential deadlock.  When the graph is acyclic
    the deterministic topological order is emitted as the canonical
    acquisition order artifact.

blocking-under-lock
    A blocking operation (socket syscalls, sleeps, `BoundedQueue`
    waits, `std::thread::join`, `CondVar::Wait` on a different mutex)
    must not run while `GlobalObsMutex` or a shard mutex is held.
    Transitive: calling a function whose summary contains a blocking
    operation is as bad as blocking directly.  File I/O is deliberately
    exempt (artifact flushes under GlobalObsMutex are a documented
    design decision), as is the per-connection write_mu + SendFrame
    pattern in the service (write_mu is not a watched capability).

arena-escape
    Events are extracted per-function in model.py; this module only
    turns them into findings.  The heuristic: pointers/spans tainted by
    `ExecArena::Allocate`/`AllocSpan` must not be stored into statics
    (always wrong), nor into members/member containers or returned
    while an `ArenaScope` is active in the same function (the scope's
    destructor frees the storage).  Member stores in functions without
    an ArenaScope are the caller-owns-lifetime pattern (JoinIndex,
    FlatKeyIndex) and are accepted.

obs-lock-ast
    Scope-accurate successor of pprlint's regex obs-lock rule: every
    call to a function annotated REQUIRES(cap) — for any statically
    nameable cap, not just GlobalObsMutex — must occur while cap is in
    the held set (an enclosing MutexLock scope, the caller's own
    REQUIRES annotation, or an AssertHeld).
"""

from __future__ import annotations

import json
import os
import re

CHECKS = {
    "lock-order":
        "lock-acquisition graph must be acyclic; emits canonical order",
    "blocking-under-lock":
        "no blocking calls while GlobalObsMutex or a shard mutex is held",
    "arena-escape":
        "ExecArena memory must not outlive the enclosing ArenaScope",
    "obs-lock-ast":
        "calls to REQUIRES-annotated functions must hold the capability",
}

DEFAULT_WATCH = r"^GlobalObsMutex\(\)$|::Shard::mu$|^FlightRecorder::mu_$"

ALLOW_RE = re.compile(r"pprcheck:\s*allow\(([a-z-]+)\)")


class Finding:
    def __init__(self, check, file, line, func, message):
        self.check = check
        self.file = file
        self.line = line
        self.func = func
        self.message = message

    def render(self, root):
        path = self.file or "<unknown>"
        if root and path.startswith(root):
            path = os.path.relpath(path, root)
        return "%s:%d: [%s] %s: %s" % (
            path, self.line, self.check, self.func, self.message)


def _active(functions):
    for f in functions.values():
        if f.no_tsa or f.owner_skip:
            continue
        yield f


def build_acq_summaries(model):
    """qname -> set of capabilities the function may acquire, fixpoint."""
    summary = {}
    for f in _active(model.functions):
        caps = {ev["cap"] for ev in f.acquire_events if ev["cap"]}
        caps |= f.acquires_static()
        summary[f.qname] = caps
    changed = True
    while changed:
        changed = False
        for f in _active(model.functions):
            s = summary[f.qname]
            for c in f.call_events:
                g = summary.get(c["callee"])
                if g and not g <= s:
                    s |= g
                    changed = True
    return summary


def build_block_summaries(model):
    """qname -> set of (kind, detail) blocking ops reachable, fixpoint."""
    summary = {}
    for f in _active(model.functions):
        ops = {(ev["kind"], ev["detail"]) for ev in f.blocking_events}
        summary[f.qname] = ops
    changed = True
    while changed:
        changed = False
        for f in _active(model.functions):
            s = summary[f.qname]
            for c in f.call_events:
                g = summary.get(c["callee"])
                if g and not g <= s:
                    s |= g
                    changed = True
    return summary


# ---------------------------------------------------------------------------
# lock-order


class LockGraph:
    def __init__(self):
        self.edges = {}  # (src, dst) -> [site strings]

    def add(self, src, dst, site):
        sites = self.edges.setdefault((src, dst), [])
        if len(sites) < 3 and site not in sites:
            sites.append(site)

    def nodes(self):
        out = set()
        for src, dst in self.edges:
            out.add(src)
            out.add(dst)
        return out

    def sccs(self):
        """Tarjan, iterative; returns list of lists (only len>1 SCCs)."""
        adj = {}
        for src, dst in self.edges:
            adj.setdefault(src, []).append(dst)
        index = {}
        low = {}
        on_stack = set()
        stack = []
        result = []
        counter = [0]

        for root in sorted(self.nodes()):
            if root in index:
                continue
            work = [(root, iter(sorted(adj.get(root, ()))))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(sorted(adj.get(nxt, ())))))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        top = stack.pop()
                        on_stack.discard(top)
                        comp.append(top)
                        if top == node:
                            break
                    if len(comp) > 1:
                        result.append(sorted(comp))
        return result

    def topo_order(self):
        """Deterministic Kahn order (lexicographic tie-break), or None
        if the graph is cyclic."""
        nodes = self.nodes()
        indeg = {n: 0 for n in nodes}
        adj = {n: [] for n in nodes}
        for src, dst in self.edges:
            if src == dst:
                return None
            adj[src].append(dst)
            indeg[dst] += 1
        ready = sorted(n for n in nodes if indeg[n] == 0)
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            inserted = False
            for nxt in sorted(adj[node]):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
                    inserted = True
            if inserted:
                ready.sort()
        if len(order) != len(nodes):
            return None
        return order


def build_lock_graph(model, acq_summary):
    graph = LockGraph()
    for f in _active(model.functions):
        for ev in f.acquire_events:
            if not ev["cap"]:
                continue
            site = "%s:%d (%s)" % (ev["file"], ev["line"], f.qname)
            for held in ev["held"]:
                graph.add(held, ev["cap"], site)
        for c in f.call_events:
            if not c["held"]:
                continue
            acquired = acq_summary.get(c["callee"])
            if not acquired:
                continue
            site = "%s:%d (%s -> %s)" % (c["file"], c["line"], f.qname,
                                         c["callee"])
            for cap in acquired:
                for held in c["held"]:
                    graph.add(held, cap, site)
    return graph


def check_lock_order(model, acq_summary):
    graph = build_lock_graph(model, acq_summary)
    findings = []
    for src, dst in sorted(graph.edges):
        if src == dst:
            sites = graph.edges[(src, dst)]
            file, line = _site_loc(sites[0])
            findings.append(Finding(
                "lock-order", file, line, src,
                "capability %s may be acquired while already held "
                "(double acquisition / self-deadlock); sites: %s" % (
                    src, "; ".join(sites))))
    for comp in graph.sccs():
        witness = []
        for src, dst in sorted(graph.edges):
            if src in comp and dst in comp and src != dst:
                witness.append("%s -> %s at %s" % (
                    src, dst, graph.edges[(src, dst)][0]))
        file, line = _site_loc(witness[0].split(" at ", 1)[1]) if witness \
            else ("", 0)
        findings.append(Finding(
            "lock-order", file, line, comp[0],
            "lock-order cycle among {%s}: %s" % (
                ", ".join(comp), "; ".join(witness))))
    return findings, graph


def _site_loc(site):
    # site format: "path:line (context)"
    head = site.split(" ", 1)[0]
    if ":" in head:
        path, _, line = head.rpartition(":")
        try:
            return path, int(line)
        except ValueError:
            pass
    return site, 0


# ---------------------------------------------------------------------------
# blocking-under-lock


def check_blocking(model, block_summary, watch_re):
    findings = []
    for f in _active(model.functions):
        for ev in f.blocking_events:
            bad = {c for c in ev["held"] if watch_re.search(c)}
            if ev["exempt"]:
                bad.discard(ev["exempt"])
            if bad:
                findings.append(Finding(
                    "blocking-under-lock", ev["file"], ev["line"], f.qname,
                    "blocking operation %s (%s) while holding %s" % (
                        ev["detail"], ev["kind"], ", ".join(sorted(bad)))))
        for c in f.call_events:
            bad = {cap for cap in c["held"] if watch_re.search(cap)}
            if not bad:
                continue
            ops = block_summary.get(c["callee"])
            if not ops:
                continue
            kinds = ", ".join(sorted("%s(%s)" % op for op in ops)[:3])
            findings.append(Finding(
                "blocking-under-lock", c["file"], c["line"], f.qname,
                "call to %s may block [%s] while holding %s" % (
                    c["callee"], kinds, ", ".join(sorted(bad)))))
    return findings


# ---------------------------------------------------------------------------
# arena-escape


def check_arena_escape(model):
    findings = []
    messages = {
        "member-store": "arena-backed pointer/span stored into member %s "
                        "that outlives the enclosing ArenaScope",
        "static-store": "arena-backed pointer/span stored into "
                        "static/global %s",
        "container-store": "arena-backed pointer/span inserted into %s "
                           "which outlives the enclosing ArenaScope",
        "return": "arena-backed pointer/span returned from %s while its "
                  "ArenaScope is active (freed at scope exit)",
    }
    for f in _active(model.functions):
        for ev in f.escape_events:
            findings.append(Finding(
                "arena-escape", ev["file"], ev["line"], f.qname,
                messages[ev["kind"]] % ev["detail"]))
    return findings


# ---------------------------------------------------------------------------
# obs-lock-ast


def check_obs_lock(model):
    findings = []
    for f in _active(model.functions):
        for c in f.call_events:
            callee = model.functions.get(c["callee"])
            if callee is None:
                continue
            missing = callee.requires_static() - set(c["held"])
            if missing:
                findings.append(Finding(
                    "obs-lock-ast", c["file"], c["line"], f.qname,
                    "call to %s requires %s which is not held here" % (
                        c["callee"], ", ".join(sorted(missing)))))
    return findings


# ---------------------------------------------------------------------------
# driver-facing entry points


def run_checks(model, selected=None, watch=DEFAULT_WATCH):
    """Returns (findings, lock_graph).  `selected` limits the checks."""
    selected = set(selected) if selected else set(CHECKS)
    watch_re = re.compile(watch)
    acq_summary = build_acq_summaries(model)
    findings = []
    lock_findings, graph = check_lock_order(model, acq_summary)
    if "lock-order" in selected:
        findings += lock_findings
    if "blocking-under-lock" in selected:
        findings += check_blocking(model, build_block_summaries(model),
                                   watch_re)
    if "arena-escape" in selected:
        findings += check_arena_escape(model)
    if "obs-lock-ast" in selected:
        findings += check_obs_lock(model)
    findings = _dedupe(findings)
    findings.sort(key=lambda f: (f.check, f.file, f.line, f.message))
    return findings, graph


def _dedupe(findings):
    seen = set()
    out = []
    for f in findings:
        key = (f.check, f.file, f.line, f.message)
        if key in seen:
            continue
        seen.add(key)
        out.append(f)
    return out


def suppress_allowed(findings, root):
    """Drop findings whose source line (or the line above) carries a
    `// pprcheck: allow(<check>)` marker."""
    cache = {}
    out = []
    for f in findings:
        path = f.file
        if path and not os.path.isabs(path):
            path = os.path.join(root, path)
        lines = cache.get(path)
        if lines is None:
            try:
                with open(path, "r", encoding="utf-8", errors="replace") as fh:
                    lines = fh.read().splitlines()
            except OSError:
                lines = []
            cache[path] = lines
        allowed = False
        for ln in (f.line, f.line - 1):
            if 1 <= ln <= len(lines):
                m = ALLOW_RE.search(lines[ln - 1])
                if m and m.group(1) == f.check:
                    allowed = True
        if not allowed:
            out.append(f)
    return out


def lock_order_artifact(graph):
    order = graph.topo_order()
    cycles = graph.sccs()
    self_loops = sorted(src for src, dst in graph.edges if src == dst)
    return {
        "edges": [
            {"from": src, "to": dst, "sites": sites}
            for (src, dst), sites in sorted(graph.edges.items())
        ],
        "acyclic": order is not None,
        "order": order or [],
        "cycles": cycles,
        "self_loops": self_loops,
    }


def render_report(model, findings, graph, root):
    lines = []
    lines.append("pprcheck report")
    lines.append("===============")
    lines.append("translation units: %d" % len(model.tus))
    lines.append("functions analyzed: %d  lock sites: %d  calls: %d" % (
        model.stats["functions"], model.stats["lock_sites"],
        model.stats["calls"]))
    lines.append("")
    if findings:
        lines.append("findings (%d):" % len(findings))
        for f in findings:
            lines.append("  " + f.render(root))
    else:
        lines.append("findings: none")
    lines.append("")
    lines.append("lock-acquisition graph (%d edges):" % len(graph.edges))
    for (src, dst), sites in sorted(graph.edges.items()):
        lines.append("  %s -> %s" % (src, dst))
        for site in sites:
            lines.append("      %s" % _relsite(site, root))
    order = graph.topo_order()
    if order is None:
        lines.append("canonical acquisition order: UNAVAILABLE (graph is "
                     "cyclic — see lock-order findings)")
    else:
        lines.append("canonical acquisition order (proven acyclic):")
        for i, cap in enumerate(order, 1):
            lines.append("  %d. %s" % (i, cap))
    lines.append("")
    return "\n".join(lines)


def _relsite(site, root):
    if root and site.startswith(root):
        return os.path.relpath(site, root) if os.path.isabs(site) else site
    return site
