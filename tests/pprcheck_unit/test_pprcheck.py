#!/usr/bin/env python3
"""Unit tests for the pprcheck analysis core — no clang required.

The fixtures are hand-written AST JSON in the exact shape
tools/pprcheck parses (clang's -ast-dump=json node layout: sticky
file/line emission, referencedDecl/referencedMemberDecl resolution,
CXXConstructExpr initializers).  This validates the extraction model,
the interprocedural summaries, cycle detection, taint tracking, and the
report/artifact plumbing under the gcc-only local toolchain; the real
clang path is exercised by tests/pprcheck_violations/ and CI.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path.insert(0, os.path.join(REPO, "tools", "pprcheck"))

import astload  # noqa: E402
import checks   # noqa: E402
import model    # noqa: E402


# ---------------------------------------------------------------------------
# fixture builders (clang AST JSON shapes)

def tu(*decls):
    return {"kind": "TranslationUnitDecl",
            "inner": [{"kind": "NamespaceDecl", "name": "ppr",
                       "inner": list(decls)}]}


def this_member(name, field_id, qual=None):
    node = {"kind": "MemberExpr", "name": name,
            "referencedMemberDecl": field_id,
            "inner": [{"kind": "CXXThisExpr"}]}
    if qual:
        node["type"] = {"qualType": qual}
    return node


def declref(vid, name, kind="VarDecl", qual=None):
    node = {"kind": "DeclRefExpr",
            "referencedDecl": {"id": vid, "kind": kind, "name": name}}
    if qual:
        node["type"] = {"qualType": qual}
    return node


def free_call(fid, name, *args):
    return {"kind": "CallExpr",
            "inner": [{"kind": "ImplicitCastExpr",
                       "inner": [declref(fid, name, kind="FunctionDecl")]}]
            + list(args)}


def member_call(method_name, method_id, base, *args, qual=None):
    callee = {"kind": "MemberExpr", "name": method_name,
              "referencedMemberDecl": method_id, "inner": [base]}
    node = {"kind": "CXXMemberCallExpr", "inner": [callee] + list(args)}
    if qual:
        node["type"] = {"qualType": qual}
    return node


def mutex_lock(var_id, cap_expr, line=None):
    var = {"kind": "VarDecl", "id": var_id, "name": "lock",
           "type": {"qualType": "ppr::MutexLock"},
           "inner": [{"kind": "CXXConstructExpr",
                      "type": {"qualType": "ppr::MutexLock"},
                      "inner": [cap_expr]}]}
    if line is not None:
        var["loc"] = {"line": line}
    return {"kind": "DeclStmt", "inner": [var]}


def arena_scope(var_id):
    return {"kind": "DeclStmt",
            "inner": [{"kind": "VarDecl", "id": var_id, "name": "scope",
                       "type": {"qualType": "ppr::ArenaScope"},
                       "inner": [{"kind": "CXXConstructExpr",
                                  "type": {"qualType": "ppr::ArenaScope"},
                                  "inner": []}]}]}


def compound(*stmts):
    return {"kind": "CompoundStmt", "inner": list(stmts)}


def method(mid, name, body, attrs=(), params=()):
    return {"kind": "CXXMethodDecl", "id": mid, "name": name,
            "inner": list(params) + list(attrs) + [body]}


def func(fid, name, body=None, attrs=(), params=()):
    inner = list(params) + list(attrs)
    if body is not None:
        inner.append(body)
    node = {"kind": "FunctionDecl", "id": fid, "name": name}
    if inner:
        node["inner"] = inner
    return node


def requires_attr(cap_expr):
    return {"kind": "RequiresCapabilityAttr", "inner": [cap_expr]}


def obs_mutex_cap(fid="0xobs"):
    """GlobalObsMutex() as a capability expression."""
    return free_call(fid, "GlobalObsMutex")


def obs_mutex_decl(fid="0xobs"):
    return func(fid, "GlobalObsMutex")


def build(*decls):
    m = model.Model()
    m.add_tu(tu(*decls), "fixture")
    return m


def run_all(m, selected=None):
    findings, graph = checks.run_checks(m, selected=selected)
    return findings, graph


def by_check(findings, name):
    return [f for f in findings if f.check == name]


# ---------------------------------------------------------------------------


class LockOrderTest(unittest.TestCase):
    def two_mutex_class(self, second_order):
        """A class whose First() locks a_ then b_ and Second() locks in
        `second_order` ("ab" or "ba")."""
        fields = [{"kind": "FieldDecl", "id": "0xfa", "name": "a_"},
                  {"kind": "FieldDecl", "id": "0xfb", "name": "b_"}]
        first = method("0xm1", "First", compound(
            mutex_lock("0xv1", this_member("a_", "0xfa")),
            mutex_lock("0xv2", this_member("b_", "0xfb"))))
        order = [("a_", "0xfa"), ("b_", "0xfb")]
        if second_order == "ba":
            order.reverse()
        second = method("0xm2", "Second", compound(
            mutex_lock("0xv3", this_member(*order[0])),
            mutex_lock("0xv4", this_member(*order[1]))))
        return {"kind": "CXXRecordDecl", "id": "0xc1", "name": "Pair",
                "inner": fields + [first, second]}

    def test_consistent_order_is_clean_and_ordered(self):
        m = build(self.two_mutex_class("ab"))
        findings, graph = run_all(m)
        self.assertEqual(by_check(findings, "lock-order"), [])
        self.assertEqual(graph.topo_order(), ["Pair::a_", "Pair::b_"])
        art = checks.lock_order_artifact(graph)
        self.assertTrue(art["acyclic"])
        self.assertEqual(art["order"], ["Pair::a_", "Pair::b_"])

    def test_inverted_order_is_a_cycle(self):
        m = build(self.two_mutex_class("ba"))
        findings, graph = run_all(m)
        cyc = by_check(findings, "lock-order")
        self.assertEqual(len(cyc), 1)
        self.assertIn("Pair::a_", cyc[0].message)
        self.assertIn("Pair::b_", cyc[0].message)
        self.assertIsNone(graph.topo_order())
        self.assertFalse(checks.lock_order_artifact(graph)["acyclic"])

    def test_interprocedural_requires_edge(self):
        """A helper annotated REQUIRES(obs) that locks log_ charges the
        obs -> log_ edge; a caller locking log_ then obs closes the
        cycle even though no single function nests the two locks."""
        helper = func("0xh", "HelperLocksLog", compound(
            mutex_lock("0xv1", declref("0xlog", "log_mu"))),
            attrs=[requires_attr(obs_mutex_cap())])
        backwards = func("0xb", "Backwards", compound(
            mutex_lock("0xv2", declref("0xlog", "log_mu")),
            mutex_lock("0xv3", obs_mutex_cap())))
        m = build(obs_mutex_decl(), helper, backwards)
        findings, graph = run_all(m)
        self.assertEqual(graph.edges.keys() >= {
            ("GlobalObsMutex()", "log_mu"),
            ("log_mu", "GlobalObsMutex()")}, True)
        self.assertEqual(len(by_check(findings, "lock-order")), 1)

    def test_call_summary_edge(self):
        """Caller holds A and calls a helper that locks B -> edge A->B
        through the transitive acquisition summary."""
        helper = func("0xh", "LocksB", compound(
            mutex_lock("0xv1", declref("0xB", "b_mu"))))
        caller = func("0xc", "HoldsA", compound(
            mutex_lock("0xv2", declref("0xA", "a_mu")),
            free_call("0xh", "LocksB")))
        m = build(helper, caller)
        _, graph = run_all(m)
        self.assertIn(("a_mu", "b_mu"), graph.edges)

    def test_double_acquire_self_loop(self):
        helper = func("0xh", "LocksM", compound(
            mutex_lock("0xv1", declref("0xM", "m_mu"))))
        caller = func("0xc", "Reenters", compound(
            mutex_lock("0xv2", declref("0xM", "m_mu")),
            free_call("0xh", "LocksM")))
        m = build(helper, caller)
        findings, _ = run_all(m)
        selfloops = [f for f in by_check(findings, "lock-order")
                     if "double acquisition" in f.message]
        self.assertEqual(len(selfloops), 1)

    def test_scope_exit_releases(self):
        """A lock inside a nested compound is not held afterwards."""
        f = func("0xf", "Sequential", compound(
            compound(mutex_lock("0xv1", declref("0xA", "a_mu"))),
            mutex_lock("0xv2", declref("0xB", "b_mu"))))
        m = build(f)
        _, graph = run_all(m)
        self.assertEqual(dict(graph.edges), {})


class BlockingTest(unittest.TestCase):
    def test_send_under_obs_mutex(self):
        f = func("0xf", "BadSend", compound(
            mutex_lock("0xv1", obs_mutex_cap()),
            free_call("0xsend", "send")))
        m = build(obs_mutex_decl(), f)
        findings, _ = run_all(m)
        hits = by_check(findings, "blocking-under-lock")
        self.assertEqual(len(hits), 1)
        self.assertIn("send", hits[0].message)

    def test_send_after_scope_is_clean(self):
        f = func("0xf", "GoodSend", compound(
            compound(mutex_lock("0xv1", obs_mutex_cap())),
            free_call("0xsend", "send")))
        m = build(obs_mutex_decl(), f)
        findings, _ = run_all(m)
        self.assertEqual(by_check(findings, "blocking-under-lock"), [])

    def test_transitive_blocking_call(self):
        helper = func("0xh", "DoesIo", compound(free_call("0xr", "recv")))
        caller = func("0xc", "HoldsObs", compound(
            mutex_lock("0xv1", obs_mutex_cap()),
            free_call("0xh", "DoesIo")))
        m = build(obs_mutex_decl(), helper, caller)
        findings, _ = run_all(m)
        hits = by_check(findings, "blocking-under-lock")
        self.assertEqual(len(hits), 1)
        self.assertIn("DoesIo", hits[0].message)

    def test_condvar_wait_own_mutex_is_exempt(self):
        fields = [{"kind": "FieldDecl", "id": "0xfm", "name": "mu"},
                  {"kind": "FieldDecl", "id": "0xfc", "name": "cv"}]
        wait = member_call(
            "Wait", "0xw",
            this_member("cv", "0xfc", qual="ppr::CondVar"),
            this_member("mu", "0xfm"))
        body = compound(mutex_lock("0xv1", this_member("mu", "0xfm")), wait)
        shard = {"kind": "CXXRecordDecl", "id": "0xS", "name": "Shard",
                 "inner": fields + [method("0xm", "WaitLoop", body)]}
        m = build(shard)
        findings, _ = run_all(m)
        self.assertEqual(by_check(findings, "blocking-under-lock"), [])

    def test_condvar_wait_under_watched_mutex_fires(self):
        fields = [{"kind": "FieldDecl", "id": "0xfm", "name": "mu"},
                  {"kind": "FieldDecl", "id": "0xfc", "name": "cv"}]
        wait = member_call(
            "Wait", "0xw",
            this_member("cv", "0xfc", qual="ppr::CondVar"),
            this_member("mu", "0xfm"))
        body = compound(
            mutex_lock("0xv0", obs_mutex_cap()),
            mutex_lock("0xv1", this_member("mu", "0xfm")), wait)
        shard = {"kind": "CXXRecordDecl", "id": "0xS", "name": "Shard",
                 "inner": fields + [method("0xm", "WaitUnderObs", body)]}
        m = build(obs_mutex_decl(), shard)
        findings, _ = run_all(m)
        hits = by_check(findings, "blocking-under-lock")
        self.assertEqual(len(hits), 1)
        self.assertIn("condvar-wait", hits[0].message)


class ArenaEscapeTest(unittest.TestCase):
    def alloc_span(self):
        return member_call(
            "AllocSpan", "0xalloc",
            declref("0xarena", "arena", kind="ParmVarDecl"),
            qual="std::span<int64_t>")

    def span_var(self, vid="0xsp"):
        return {"kind": "DeclStmt",
                "inner": [{"kind": "VarDecl", "id": vid, "name": "scratch",
                           "type": {"qualType": "std::span<int64_t>"},
                           "inner": [self.alloc_span()]}]}

    def test_member_store_under_scope_fires(self):
        store = {"kind": "BinaryOperator", "opcode": "=",
                 "inner": [this_member("saved_", "0xfs"),
                           declref("0xsp", "scratch")]}
        body = compound(arena_scope("0xas"), self.span_var(), store)
        cls = {"kind": "CXXRecordDecl", "id": "0xC", "name": "Cache",
               "inner": [{"kind": "FieldDecl", "id": "0xfs", "name": "saved_"},
                         method("0xm", "Fill", body)]}
        m = build(cls)
        findings, _ = run_all(m)
        hits = by_check(findings, "arena-escape")
        self.assertEqual(len(hits), 1)
        self.assertIn("Cache::saved_", hits[0].message)

    def test_member_store_without_scope_is_callers_lifetime(self):
        """The JoinIndex/FlatKeyIndex constructor pattern: no ArenaScope in
        the function means the caller owns the storage lifetime."""
        store = {"kind": "BinaryOperator", "opcode": "=",
                 "inner": [this_member("saved_", "0xfs"),
                           declref("0xsp", "scratch")]}
        body = compound(self.span_var(), store)
        cls = {"kind": "CXXRecordDecl", "id": "0xC", "name": "Cache",
               "inner": [{"kind": "FieldDecl", "id": "0xfs", "name": "saved_"},
                         method("0xm", "Fill", body)]}
        m = build(cls)
        findings, _ = run_all(m)
        self.assertEqual(by_check(findings, "arena-escape"), [])

    def test_static_store_fires_even_without_scope(self):
        store = {"kind": "BinaryOperator", "opcode": "=",
                 "inner": [declref("0xglobal", "g_scratch"),
                           declref("0xsp", "scratch")]}
        f = func("0xf", "Leak", compound(self.span_var(), store))
        m = build(f)
        findings, _ = run_all(m)
        hits = by_check(findings, "arena-escape")
        self.assertEqual(len(hits), 1)
        self.assertIn("g_scratch", hits[0].message)

    def test_container_push_under_scope_fires(self):
        data = member_call("data", "0xdata", declref("0xsp", "scratch"),
                           qual="int64_t *")
        push = member_call("push_back", "0xpb",
                           this_member("rows_", "0xfr"), data)
        body = compound(arena_scope("0xas"), self.span_var(), push)
        cls = {"kind": "CXXRecordDecl", "id": "0xC", "name": "Cache",
               "inner": [{"kind": "FieldDecl", "id": "0xfr", "name": "rows_"},
                         method("0xm", "Fill", body)]}
        m = build(cls)
        findings, _ = run_all(m)
        hits = by_check(findings, "arena-escape")
        self.assertEqual(len(hits), 1)
        self.assertIn("Cache::rows_", hits[0].message)

    def test_value_copy_is_not_tainted(self):
        """Constructing an owning container from arena iterators copies;
        the new object must not inherit the taint."""
        vec = {"kind": "DeclStmt",
               "inner": [{"kind": "VarDecl", "id": "0xvec", "name": "owned",
                          "type": {"qualType": "std::vector<int64_t>"},
                          "inner": [{"kind": "CXXConstructExpr",
                                     "type": {"qualType":
                                              "std::vector<int64_t>"},
                                     "inner": [declref("0xsp", "scratch")]}]}]}
        store = {"kind": "BinaryOperator", "opcode": "=",
                 "inner": [this_member("owned_", "0xfo"),
                           declref("0xvec", "owned")]}
        body = compound(arena_scope("0xas"), self.span_var(), vec, store)
        cls = {"kind": "CXXRecordDecl", "id": "0xC", "name": "Cache",
               "inner": [{"kind": "FieldDecl", "id": "0xfo", "name": "owned_"},
                         method("0xm", "Fill", body)]}
        m = build(cls)
        findings, _ = run_all(m)
        self.assertEqual(by_check(findings, "arena-escape"), [])

    def test_return_under_scope_fires(self):
        ret = {"kind": "ReturnStmt", "inner": [declref("0xsp", "scratch")]}
        f = func("0xf", "Give", compound(arena_scope("0xas"),
                                         self.span_var(), ret))
        m = build(f)
        findings, _ = run_all(m)
        self.assertEqual(len(by_check(findings, "arena-escape")), 1)


class ObsLockAstTest(unittest.TestCase):
    def metrics_decl(self):
        return func("0xgm", "GlobalMetrics",
                    attrs=[requires_attr(obs_mutex_cap())])

    def test_call_without_capability_fires(self):
        f = func("0xf", "Bump", compound(free_call("0xgm", "GlobalMetrics")))
        m = build(obs_mutex_decl(), self.metrics_decl(), f)
        findings, _ = run_all(m)
        hits = by_check(findings, "obs-lock-ast")
        self.assertEqual(len(hits), 1)
        self.assertIn("GlobalObsMutex()", hits[0].message)

    def test_call_under_scope_is_clean(self):
        f = func("0xf", "Bump", compound(
            mutex_lock("0xv1", obs_mutex_cap()),
            free_call("0xgm", "GlobalMetrics")))
        m = build(obs_mutex_decl(), self.metrics_decl(), f)
        findings, _ = run_all(m)
        self.assertEqual(by_check(findings, "obs-lock-ast"), [])

    def test_call_after_scope_closed_fires(self):
        """The case the 20-line regex window cannot see."""
        f = func("0xf", "Bump", compound(
            compound(mutex_lock("0xv1", obs_mutex_cap())),
            free_call("0xgm", "GlobalMetrics")))
        m = build(obs_mutex_decl(), self.metrics_decl(), f)
        findings, _ = run_all(m)
        self.assertEqual(len(by_check(findings, "obs-lock-ast")), 1)

    def test_caller_requires_annotation_satisfies(self):
        """A REQUIRES-annotated caller holds the capability by contract."""
        f = func("0xf", "Flush", compound(free_call("0xgm", "GlobalMetrics")),
                 attrs=[requires_attr(obs_mutex_cap())])
        m = build(obs_mutex_decl(), self.metrics_decl(), f)
        findings, _ = run_all(m)
        self.assertEqual(by_check(findings, "obs-lock-ast"), [])

    def test_param_dependent_requires_is_skipped(self):
        """REQUIRES(mu) where mu is a parameter cannot be name-matched
        and must not produce findings."""
        wait = func("0xw", "WaitOn",
                    attrs=[requires_attr(declref("0xpmu", "mu"))],
                    params=[{"kind": "ParmVarDecl", "id": "0xpmu",
                             "name": "mu"}])
        f = func("0xf", "Caller", compound(free_call("0xw", "WaitOn")))
        m = build(wait, f)
        findings, _ = run_all(m)
        self.assertEqual(by_check(findings, "obs-lock-ast"), [])


class LambdaTest(unittest.TestCase):
    def test_lambda_body_not_charged_to_creation_locks(self):
        """A callback created under a lock runs later without it: its
        blocking body must not be flagged against the creation-site
        held set, and is analyzed as its own function."""
        lam = {"kind": "LambdaExpr",
               "inner": [{"kind": "CXXRecordDecl", "inner": []},
                         compound(free_call("0xsend", "send"))]}
        f = func("0xf", "Spawn", compound(
            mutex_lock("0xv1", obs_mutex_cap()), lam))
        m = build(obs_mutex_decl(), f)
        findings, _ = run_all(m)
        self.assertEqual(by_check(findings, "blocking-under-lock"), [])
        self.assertIn("Spawn::<lambda#1>", m.functions)


class SuppressionAndCliTest(unittest.TestCase):
    def test_allow_marker_suppresses(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "case.cc")
            with open(src, "w") as f:
                f.write("line1\n"
                        "send(fd);  // pprcheck: allow(blocking-under-lock)\n")
            call = free_call("0xsend", "send")
            call["loc"] = {"file": src, "line": 2}
            fn = func("0xf", "Allowed", compound(
                mutex_lock("0xv1", obs_mutex_cap()), call))
            m = build(obs_mutex_decl(), fn)
            findings, _ = run_all(m)
            self.assertEqual(len(findings), 1)
            kept = checks.suppress_allowed(findings, tmp)
            self.assertEqual(kept, [])

    def test_cli_end_to_end_on_fixture(self):
        """`pprcheck run --ast-json` must report findings (exit 1) and
        write both artifacts."""
        fixture = tu(
            obs_mutex_decl(),
            func("0xf", "BadSend", compound(
                mutex_lock("0xv1", obs_mutex_cap()),
                free_call("0xsend", "send"))),
            func("0xg", "Order", compound(
                mutex_lock("0xv2", declref("0xA", "a_mu")),
                mutex_lock("0xv3", declref("0xB", "b_mu")))))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fixture.json")
            with open(path, "w") as f:
                json.dump(fixture, f)
            report = os.path.join(tmp, "report.txt")
            lock_json = os.path.join(tmp, "lock_order.json")
            proc = subprocess.run(
                [sys.executable, os.path.join(REPO, "tools", "pprcheck"),
                 "run", "--source-root", REPO, "--ast-json", path,
                 "--report", report, "--lock-order-out", lock_json],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
            self.assertIn("blocking-under-lock", proc.stdout)
            with open(lock_json) as f:
                art = json.load(f)
            self.assertTrue(art["acyclic"])
            self.assertEqual(art["order"], ["a_mu", "b_mu"])
            with open(report) as f:
                text = f.read()
            self.assertIn("canonical acquisition order", text)

    def test_cli_list_checks(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO, "tools", "pprcheck"),
             "list-checks"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0)
        for name in ("lock-order", "blocking-under-lock", "arena-escape",
                     "obs-lock-ast"):
            self.assertIn(name, proc.stdout)


class LocTrackerTest(unittest.TestCase):
    def test_sticky_file_and_line(self):
        t = astload.LocTracker()
        self.assertEqual(t.visit({"file": "a.cc", "line": 3}), ("a.cc", 3))
        # Elided keys repeat the previous printed location.
        self.assertEqual(t.visit({"col": 5}), ("a.cc", 3))
        self.assertEqual(t.visit({"line": 9}), ("a.cc", 9))
        self.assertEqual(t.visit({"file": "b.h", "line": 1}), ("b.h", 1))

    def test_macro_uses_expansion(self):
        t = astload.LocTracker()
        t.visit({"file": "a.cc", "line": 1})
        eff = t.visit({"spellingLoc": {"file": "m.h", "line": 7},
                       "expansionLoc": {"file": "a.cc", "line": 42}})
        self.assertEqual(eff, ("a.cc", 42))


if __name__ == "__main__":
    unittest.main()
