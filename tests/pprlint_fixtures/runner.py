#!/usr/bin/env python3
"""Unit tests for the pprlint rule engine, run against the seeded
fixture tree in tests/pprlint_fixtures/tree/.

The fixture tree is a miniature repo layout (src/, tests/) with exactly
one seeded violation per rule plus the cases that must stay silent:
exempt paths, `pprlint: allow(...)` markers, rule mentions inside
comments and string literals, and — for obs-lock — functions annotated
REQUIRES(GlobalObsMutex()). The tests pin both directions: every rule
fires where it should, and nowhere else.

Pure python, no compiler needed — registered in ctest without a skip
path. Exit: 0 all pass, 1 failures.
"""

import importlib.machinery
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
PPRLINT_PATH = os.path.join(REPO_ROOT, "tools", "pprlint")
FIXTURE_ROOT = os.path.join(HERE, "tree")

pprlint = importlib.machinery.SourceFileLoader(
    "pprlint", PPRLINT_PATH).load_module()


def findings_for(rule=None):
    selected = {rule} if rule else None
    findings, _ = pprlint.run_check(FIXTURE_ROOT, selected)
    return findings


def by_rule(findings, rule):
    return [f for f in findings if f[2] == rule]


class RuleFiringTest(unittest.TestCase):
    """Each rule flags its seeded violation — and only that."""

    def setUp(self):
        self.findings = findings_for()

    def assert_single(self, rule, rel, needle):
        hits = by_rule(self.findings, rule)
        self.assertEqual(
            len(hits), 1, f"{rule}: expected exactly 1 finding, got {hits}")
        self.assertEqual(hits[0][0], rel)
        self.assertIn(needle, hits[0][3])

    def test_raw_sync_fires(self):
        self.assert_single("raw-sync", "src/core/violations.cc",
                           "g_raw_mutex")

    def test_raw_getenv_fires(self):
        self.assert_single("raw-getenv", "src/core/violations.cc",
                           "ReadHome")

    def test_naked_new_fires_and_wrong_marker_does_not_suppress(self):
        hits = by_rule(self.findings, "naked-new")
        self.assertEqual(len(hits), 2, hits)
        texts = "\n".join(h[3] for h in hits)
        self.assertIn("LeakyAlloc", texts)
        # allow(raw-sync) on a naked-new line suppresses nothing.
        self.assertIn("g_wrong_marker", texts)

    def test_hook_coverage_flags_untested_member_only(self):
        hits = by_rule(self.findings, "hook-coverage")
        self.assertEqual(len(hits), 1, hits)
        self.assertIn("on_result", hits[0][3])

    def test_telemetry_sync_flags_both_directions(self):
        hits = by_rule(self.findings, "telemetry-sync")
        texts = "\n".join(h[3] for h in hits)
        self.assertEqual(len(hits), 2, hits)
        self.assertIn("ghost_field", texts)
        self.assertIn("stale_key", texts)

    def test_one_resolve_fires(self):
        self.assert_single("one-resolve", "src/core/violations.cc",
                           "GetOrCompile")

    def test_obs_lock_flags_unlocked_and_post_declaration_touches(self):
        hits = by_rule(self.findings, "obs-lock")
        texts = "\n".join(h[3] for h in hits)
        self.assertEqual(len(hits), 2, hits)
        self.assertIn("fx.unlocked", texts)
        self.assertIn("fx.after_decl", texts)


class SilenceTest(unittest.TestCase):
    """The cases that must NOT fire."""

    def setUp(self):
        self.findings = findings_for()
        self.texts = "\n".join(f[3] for f in self.findings)

    def test_exempt_paths_are_skipped(self):
        files = {f[0] for f in self.findings}
        self.assertNotIn("src/common/mutex.h", files)
        self.assertNotIn("src/common/env.cc", files)

    def test_allow_marker_suppresses_matching_rule(self):
        self.assertNotIn("g_suppressed", self.texts)
        self.assertNotIn("fx.marked", self.texts)

    def test_comment_and_string_mentions_do_not_count(self):
        self.assertNotIn("kDecoy", self.texts)

    def test_obs_requires_definition_is_accepted(self):
        # FlushLocked touches global obs state with no MutexLock in
        # sight; its REQUIRES(GlobalObsMutex()) annotation makes the
        # lock the caller's obligation.
        self.assertNotIn("fx.required", self.texts)

    def test_obs_lock_window_is_accepted(self):
        self.assertNotIn("fx.locked", self.texts)

    def test_resolve_step_and_declaration_may_name_get_or_compile(self):
        files = {f[0] for f in by_rule(self.findings, "one-resolve")}
        self.assertNotIn("src/runtime/plan_cache.cc", files)
        self.assertNotIn("src/runtime/plan_cache.h", files)


class RuleFilterTest(unittest.TestCase):
    """`--rule` filtering and the registry."""

    def test_selected_rule_only(self):
        findings = findings_for("raw-sync")
        self.assertTrue(findings)
        self.assertEqual({f[2] for f in findings}, {"raw-sync"})

    def test_registry_names_are_unique_and_complete(self):
        names = [rule.name for rule in pprlint.RULES]
        self.assertEqual(sorted(names), sorted(set(names)))
        self.assertEqual(set(names), {
            "raw-sync", "raw-getenv", "naked-new",
            "hook-coverage", "telemetry-sync", "obs-lock", "one-resolve",
        })


class StripCodeTest(unittest.TestCase):
    """The comment/string stripper that fronts every regex rule."""

    def test_line_comment_stripped(self):
        out = pprlint.strip_code("int x;  // std::mutex here\nint y;\n")
        self.assertNotIn("std::mutex", out)
        self.assertIn("int x;", out)

    def test_block_comment_preserves_line_structure(self):
        src = "a /* std::mutex\n getenv( */ b\n"
        out = pprlint.strip_code(src)
        self.assertNotIn("std::mutex", out)
        self.assertNotIn("getenv", out)
        self.assertEqual(src.count("\n"), out.count("\n"))

    def test_string_contents_blanked_quotes_kept(self):
        out = pprlint.strip_code('call("new int");')
        self.assertNotIn("new", out)
        self.assertIn('"', out)

    def test_escaped_quote_does_not_end_string(self):
        out = pprlint.strip_code('x = "a\\"new\\"b"; new int;')
        self.assertNotIn("anew", out)
        self.assertIn("new int;", out)

    def test_char_literal_stripped(self):
        out = pprlint.strip_code("char c = 'n'; int n;")
        self.assertIn("int n;", out)


class CliTest(unittest.TestCase):
    """The pprlint CLI surface: list-rules and --rule end-to-end."""

    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, PPRLINT_PATH, *argv],
            capture_output=True, text=True)

    def test_list_rules(self):
        proc = self.run_cli("list-rules")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for name in ("raw-sync", "obs-lock", "telemetry-sync"):
            self.assertIn(name, proc.stdout)

    def test_rule_filter_exit_code(self):
        proc = self.run_cli("check", "--source-root", FIXTURE_ROOT,
                            "--rule", "raw-sync")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("[raw-sync]", proc.stdout)
        self.assertNotIn("[naked-new]", proc.stdout)

    def test_unknown_rule_is_usage_error(self):
        proc = self.run_cli("check", "--source-root", FIXTURE_ROOT,
                            "--rule", "no-such-rule")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("unknown rule", proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
