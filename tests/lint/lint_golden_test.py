#!/usr/bin/env python3
"""Golden test for scripts/pta_lint.py (docs/STATIC_ANALYSIS.md).

For every known-bad fixture in tests/lint/fixtures/ the linter must report
EXACTLY the violation list recorded in tests/lint/expected/<name>.txt and
exit 1; the clean fixtures must produce no output and exit 0; bad
invocations must exit 2. Any drift — a rule regressing, a new false
positive, a changed message — fails here first.

Usage: lint_golden_test.py <repo-root>
"""

import os
import subprocess
import sys

BAD_FIXTURES = (
    "bad_unordered_iteration.cc",
    "bad_float_equality.cc",
    "bad_bytereader.cc",
    "bad_header.h",
    "bad_suppression.cc",
    "bad_address_key.cc",
)
CLEAN_FIXTURES = ("clean.cc", "clean.h")

failures = []


def check(name, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print("[%s] %s" % (status, name))
    if not cond:
        if detail:
            print(detail)
        failures.append(name)


def run_lint(lint, args, cwd):
    proc = subprocess.run(
        [sys.executable, lint] + list(args), cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc


def main():
    if len(sys.argv) != 2 or not os.path.isdir(sys.argv[1]):
        print("usage: lint_golden_test.py <repo-root>", file=sys.stderr)
        return 2
    root = os.path.abspath(sys.argv[1])
    lint = os.path.join(root, "scripts", "pta_lint.py")
    fixtures = os.path.join(root, "tests", "lint", "fixtures")
    expected_dir = os.path.join(root, "tests", "lint", "expected")

    # Every known-bad fixture: exit 1 and the exact recorded violation list.
    for name in BAD_FIXTURES:
        proc = run_lint(lint, [name], cwd=fixtures)
        golden_path = os.path.join(
            expected_dir, os.path.splitext(name)[0] + ".txt")
        with open(golden_path, encoding="utf-8") as f:
            golden = f.read()
        check("%s: exit code 1" % name, proc.returncode == 1,
              "got %d, stderr: %s" % (proc.returncode, proc.stderr))
        check("%s: exact violation list" % name, proc.stdout == golden,
              "--- expected ---\n%s--- got ---\n%s" % (golden, proc.stdout))

    # The clean fixtures: exit 0, no output.
    proc = run_lint(lint, list(CLEAN_FIXTURES), cwd=fixtures)
    check("clean fixtures: exit code 0", proc.returncode == 0,
          "got %d, stdout: %s" % (proc.returncode, proc.stdout))
    check("clean fixtures: no output", proc.stdout == "", proc.stdout)

    # Usage errors: exit 2, diagnostics on stderr, nothing on stdout.
    for label, args in (
        ("no arguments", []),
        ("unknown rule", ["--rules=no-such-rule", "clean.cc"]),
        ("unknown option", ["--frobnicate", "clean.cc"]),
        ("missing path", ["no/such/file.cc"]),
    ):
        proc = run_lint(lint, args, cwd=fixtures)
        check("usage (%s): exit code 2" % label, proc.returncode == 2,
              "got %d" % proc.returncode)
        check("usage (%s): stderr diagnostic" % label, proc.stderr != "")

    # --rules narrowing: only the requested rule fires.
    proc = run_lint(lint, ["--rules=header-hygiene", "bad_header.h",
                           "bad_float_equality.cc"], cwd=fixtures)
    check("--rules narrowing: exit code 1", proc.returncode == 1)
    check("--rules narrowing: only header-hygiene findings",
          proc.stdout != "" and all(
              "[header-hygiene]" in line
              for line in proc.stdout.splitlines()),
          proc.stdout)

    # The production tree must stay clean — the gate scripts/ci.sh
    # --analyze enforces; asserting it here keeps `ctest` sufficient.
    proc = run_lint(lint, ["src", "tests", "bench", "examples"], cwd=root)
    check("production tree: lint-clean", proc.returncode == 0, proc.stdout)

    if failures:
        print("\n%d check(s) failed" % len(failures))
        return 1
    print("\nall lint golden checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
