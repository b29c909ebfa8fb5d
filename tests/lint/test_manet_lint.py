#!/usr/bin/env python3
"""Self-tests for scripts/lint/manet_lint.py.

Driven by ctest (see tests/CMakeLists.txt) with python3 + unittest only —
no pytest dependency. Three layers:

  1. Fixture tree (tests/lint/fixtures/tree): known-bad files must fire the
     expected rule at the expected site, known-clean files must stay silent,
     suppression and allowlist boundaries behave exactly as documented.
     The bad_agent_prefix fixture replicates the pre-fix
     src/cluster/agent.cpp contention loops, proving the tree as it stood
     before the determinism fixes would have failed the unordered-iter rule.
  2. The real repository: `manet_lint.py --werror src` must pass clean.
  3. Suppression budget: the number of `manet-lint: allow(...)` comments
     under src/ is pinned to the current count so it can only shrink (raise
     the pin only with a justification in the PR).
"""

import os
import re
import subprocess
import sys
import unittest

TEST_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.abspath(os.path.join(TEST_DIR, "..", ".."))
LINTER = os.path.join(REPO_ROOT, "scripts", "lint", "manet_lint.py")
FIXTURE_ROOT = os.path.join(TEST_DIR, "fixtures", "tree")

# The suppression budget: every entry must carry a one-line justification.
# This pin can only go DOWN; raising it requires a documented decision.
# History: 2 -> 1 when the beacon fallback path in net/node.cpp moved to a
# pooled HelloPacket and no longer needed its hot-path suppression.
# History: 1 -> 0 when InplaceEvent's heap fallback for oversized captures
# became a static_assert (every event callback now provably fits inline).
MAX_SUPPRESSIONS_IN_SRC = 0


def run_lint(*args):
    """Runs the linter; returns (exit_code, stdout_lines, stderr)."""
    proc = subprocess.run(
        [sys.executable, LINTER, *args],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def findings_of(lines):
    """Parses `path:line: [rule] message` records."""
    out = []
    pat = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[\w-]+)\] "
                     r"(?P<msg>.*)$")
    for line in lines:
        m = pat.match(line)
        if m:
            out.append((m.group("path"), int(m.group("line")),
                        m.group("rule")))
    return out


class FixtureTreeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        code, lines, _ = run_lint("--root", FIXTURE_ROOT, "src")
        cls.exit_code = code
        cls.findings = findings_of(lines)
        cls.by_file = {}
        for path, line, rule in cls.findings:
            cls.by_file.setdefault(path, []).append((line, rule))

    def rules_in(self, path):
        return [r for _, r in self.by_file.get(path, [])]

    def test_regression_prefix_agent_pattern_fails(self):
        # The miniature of pre-fix agent.cpp: iterator-erase loop + two
        # range-fors over the unordered member declared in the HEADER.
        rules = self.rules_in("src/cluster/bad_agent_prefix.cpp")
        self.assertEqual(rules, ["unordered-iter"] * 3,
                         f"expected 3 unordered-iter findings, got "
                         f"{self.by_file.get('src/cluster/bad_agent_prefix.cpp')}")
        lines = [l for l, _ in
                 self.by_file["src/cluster/bad_agent_prefix.cpp"]]
        self.assertIn(12, lines)  # for (auto it = contention_.begin(); ...
        self.assertIn(23, lines)  # winner scan range-for
        self.assertIn(29, lines)  # trace range-for

    def test_alias_declarations_resolve(self):
        self.assertEqual(self.rules_in("src/cluster/bad_alias_iter.cpp"),
                         ["unordered-iter"])

    def test_wall_clock_fires_and_ignores_comments_strings_members(self):
        hits = self.by_file.get("src/mobility/bad_wallclock.cpp", [])
        self.assertEqual([r for _, r in hits], ["wall-clock"] * 3)

    def test_global_rng_fires(self):
        self.assertEqual(self.rules_in("src/mobility/bad_rng.cpp"),
                         ["global-rng"] * 3)

    def test_io_discipline_fires_only_on_direct_streams(self):
        self.assertEqual(self.rules_in("src/routing/bad_io.cpp"),
                         ["io-discipline"] * 3)

    def test_hot_path_fires_but_not_on_placement_new(self):
        self.assertEqual(sorted(self.rules_in("src/sim/bad_hotpath.cpp")),
                         ["hot-path"] * 3)

    def test_clean_files_are_silent(self):
        for clean in ("src/cluster/clean_sorted.cpp",
                      "src/net/clean_hotpath.cpp"):
            self.assertEqual(self.by_file.get(clean, []), [],
                             f"{clean} should be finding-free")

    def test_allowlist_boundaries(self):
        # Inside the allowlists: silent.
        for allowed in ("src/util/progress_meter.cpp",
                        "src/scenario/runner_extra.cpp",
                        "src/util/rng_seeder.cpp"):
            self.assertEqual(self.by_file.get(allowed, []), [],
                             f"{allowed} is allowlisted")
        # One directory over: still banned.
        self.assertEqual(
            self.rules_in("src/scenario/bad_timeline_clock.cpp"),
            ["wall-clock"])

    def test_justified_suppressions_silence(self):
        self.assertEqual(self.by_file.get("src/sim/suppressed_ok.cpp", []),
                         [])

    def test_unjustified_suppressions_are_findings_and_do_not_silence(self):
        rules = sorted(self.rules_in("src/sim/suppressed_nojust.cpp"))
        self.assertEqual(rules,
                         ["hot-path", "hot-path",
                          "suppression", "suppression"])

    def test_exit_codes(self):
        code_plain, _, _ = run_lint("--root", FIXTURE_ROOT, "src")
        self.assertEqual(code_plain, 0, "findings without --werror: exit 0")
        code_werror, _, _ = run_lint("--root", FIXTURE_ROOT, "--werror",
                                     "src")
        self.assertEqual(code_werror, 2, "findings with --werror: exit 2")

    def test_single_rule_filter(self):
        _, lines, _ = run_lint("--root", FIXTURE_ROOT, "--rule",
                               "wall-clock", "src")
        rules = {r for _, _, r in findings_of(lines)}
        self.assertEqual(rules, {"wall-clock"})


class RealTreeTest(unittest.TestCase):
    def test_repository_src_is_lint_clean(self):
        code, lines, err = run_lint("--root", REPO_ROOT, "--werror", "src")
        self.assertEqual(code, 0,
                         "src/ must stay manet-lint clean:\n" +
                         "\n".join(lines) + err)

    def test_suppression_budget_can_only_shrink(self):
        code, lines, err = run_lint(
            "--root", REPO_ROOT, "--count-suppressions",
            "--max-suppressions", str(MAX_SUPPRESSIONS_IN_SRC), "src")
        self.assertEqual(code, 0, err)
        total = [l for l in lines if l.startswith("total: ")]
        self.assertEqual(len(total), 1, lines)
        count = int(total[0].split()[1])
        self.assertLessEqual(
            count, MAX_SUPPRESSIONS_IN_SRC,
            f"suppression count grew to {count}; the budget "
            f"({MAX_SUPPRESSIONS_IN_SRC}) only shrinks — fix the code "
            "instead, or justify raising the pin in your PR")
        # Every suppression must carry a justification (the linter enforces
        # the syntax; this asserts none slipped into the count regardless).
        for line in lines:
            if line.startswith("total:"):
                continue
            self.assertRegex(line, r"allow\([\w-]+\): \S",
                             f"unjustified suppression: {line}")

    def test_list_rules_names_every_contract(self):
        code, lines, _ = run_lint("--list-rules")
        self.assertEqual(code, 0)
        text = "\n".join(lines)
        for rule in ("wall-clock", "global-rng", "unordered-iter",
                     "hot-path", "io-discipline"):
            self.assertIn(rule, text)

    def test_unknown_rule_name_is_a_hard_error(self):
        code, _, err = run_lint("--rule", "no-such-rule", "src")
        self.assertEqual(code, 2)
        self.assertIn("unknown rule", err)


if __name__ == "__main__":
    unittest.main(verbosity=2)
