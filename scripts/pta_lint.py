#!/usr/bin/env python3
"""PTA project linter: determinism and parse-discipline rules that generic
tools do not know about (docs/STATIC_ANALYSIS.md has the full rationale).

Rules
-----
  unordered-iteration   Iterating a std::unordered_map/unordered_set.
                        Hash-table iteration order is unspecified and can
                        differ across libstdc++ versions and hosts, so it
                        must never feed serialized output or a recorded
                        merge order. Collect keys and sort instead.
  float-equality        Raw == / != against a floating-point literal.
                        Bitwise comparisons belong in the blessed helpers
                        (SequentialRelation::BitwiseEquals, std::memcmp on
                        the value arrays); exact sentinel checks must say
                        why they are exact.
  bytereader-unchecked  An io::ByteReader read whose bool result is
                        discarded (a bare statement). Every read must be
                        checked — or the parse must consult ok() before
                        trusting any value read.
  header-hygiene        Headers need a PTA_<PATH>_H_ include guard
                        (#ifndef/#define pair, matching the file path) and
                        must not contain `using namespace`.
  address-key           reinterpret_cast<uintptr_t> (or std::uintptr_t).
                        Hashing an address into a key aliases once the
                        memory is reused and differs from run to run; key
                        on an identity stamp (src/util/identity.h).

Suppression
-----------
A finding is suppressed by an inline annotation on the same line or on the
line directly above:

    // pta-lint: allow(<rule-id>) -- <why this is correct>

The rationale after `--` is mandatory: an allow() without one does not
suppress anything and is itself reported (rule `suppression-format`).

Usage
-----
    pta_lint.py [--rules=<id>[,<id>...]] <path>...

Paths may be files or directories (searched recursively for .h/.cc/.cpp).
Exit codes: 0 clean, 1 findings reported, 2 usage or I/O error.
"""

import os
import re
import sys

RULES = (
    "unordered-iteration",
    "float-equality",
    "bytereader-unchecked",
    "header-hygiene",
    "address-key",
)

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")

ALLOW_RE = re.compile(r"//\s*pta-lint:\s*allow\(([A-Za-z0-9_,\s-]+)\)(.*)")

# An unordered container declaration that introduces a named variable or
# member, e.g. `std::unordered_map<K, V> index;` possibly split across
# lines (the name is on the line where the template closes).
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<[^;{}]*>\s*\n?\s*(\w+)\s*(?:;|=|\{|\()"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*\*?(\w+(?:\.\w+|->\w+)*)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+(?:\.\w+|->\w+)*)(?:\.|->)c?begin\s*\(")

FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+|\d+\.?\d*[eE][-+]?\d+)[fFlL]?"
FLOAT_EQ_RE = re.compile(
    r"(?:%s\s*[=!]=(?!=)|[=!]=(?!=)\s*%s)" % (FLOAT_LITERAL, FLOAT_LITERAL)
)

BYTEREADER_DECL_RE = re.compile(r"\bByteReader\s+(\w+)\s*(?:\(|\{|;)")
GUARD_TOKEN_RE = re.compile(r"#\s*(ifndef|define)\s+(\w+)")
USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\b")
ADDRESS_KEY_RE = re.compile(
    r"\breinterpret_cast\s*<\s*(?:std\s*::\s*)?uintptr_t\s*>")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure, so the rule regexes never fire inside prose or data. Inline
    `// pta-lint:` annotations are handled separately from the raw lines."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def collect_allows(raw_lines):
    """Maps line number -> (set of allowed rules, has_rationale) covering
    both same-line and next-line suppression. Returns (allows, bad) where
    bad is a list of (line, message) for allow() without a rationale."""
    allows = {}
    bad = []
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        trailer = m.group(2).strip()
        has_rationale = trailer.startswith("--") and len(trailer) > 2 and \
            trailer[2:].strip() != ""
        if not has_rationale:
            bad.append((idx, "allow(%s) has no rationale; write "
                        "`// pta-lint: allow(%s) -- <why>`"
                        % (",".join(sorted(rules)), ",".join(sorted(rules)))))
            continue
        unknown = rules - set(RULES)
        if unknown:
            bad.append((idx, "allow() names unknown rule(s): %s"
                        % ", ".join(sorted(unknown))))
            rules -= unknown
        # A suppression covers its own line and, when it is the only thing
        # on its line, the line below it.
        allows.setdefault(idx, set()).update(rules)
        if line.strip().startswith("//"):
            allows.setdefault(idx + 1, set()).update(rules)
    return allows, bad


def line_of(offset, text):
    return text.count("\n", 0, offset) + 1


def check_unordered_iteration(path, text, findings):
    names = set(m.group(1) for m in UNORDERED_DECL_RE.finditer(text))
    if not names:
        return
    for m in RANGE_FOR_RE.finditer(text):
        target = m.group(1)
        leaf = re.split(r"\.|->", target)[-1]
        if leaf in names:
            findings.append(Finding(
                path, line_of(m.start(), text), "unordered-iteration",
                "range-for over unordered container '%s'; iteration order "
                "is unspecified — collect keys and sort, or iterate a "
                "deterministic mirror" % target))
    for m in BEGIN_CALL_RE.finditer(text):
        target = m.group(1)
        leaf = re.split(r"\.|->", target)[-1]
        if leaf in names:
            findings.append(Finding(
                path, line_of(m.start(), text), "unordered-iteration",
                "begin() on unordered container '%s'; iteration order is "
                "unspecified" % target))


def check_float_equality(path, text, findings):
    for m in FLOAT_EQ_RE.finditer(text):
        findings.append(Finding(
            path, line_of(m.start(), text), "float-equality",
            "raw ==/!= against a floating-point literal; use the bitwise "
            "helpers (BitwiseEquals/memcmp) or justify the exact "
            "comparison"))


def check_bytereader(path, text, findings):
    readers = set(m.group(1) for m in BYTEREADER_DECL_RE.finditer(text))
    if not readers:
        return
    # A read whose bool result is discarded: the call is the whole
    # statement (preceded by ; { } or start-of-line, followed by ;).
    pattern = re.compile(
        r"(?:^|[;{}])\s*(%s)\s*\.\s*\w+\s*\([^;]*\)\s*;" %
        "|".join(re.escape(r) for r in readers), re.M)
    for m in pattern.finditer(text):
        findings.append(Finding(
            path, line_of(m.start(1), text), "bytereader-unchecked",
            "discarded result of a ByteReader read on '%s'; check the "
            "returned bool (or consult ok() before using any value)"
            % m.group(1)))


def expected_guard(path):
    norm = os.path.normpath(path).replace(os.sep, "/")
    for prefix in ("src/", "tests/", "bench/", "examples/"):
        idx = norm.find(prefix)
        if idx != -1:
            norm = norm[idx + (len(prefix) if prefix == "src/" else 0):]
            break
    stem = re.sub(r"[^A-Za-z0-9]", "_", norm)
    return "PTA_%s_" % stem.upper()


def check_header_hygiene(path, text, findings):
    if not path.endswith(".h"):
        return
    tokens = GUARD_TOKEN_RE.findall(text)
    ifndefs = [name for kind, name in tokens if kind == "ifndef"]
    defines = [name for kind, name in tokens if kind == "define"]
    want = expected_guard(path)
    if not ifndefs or ifndefs[0] != want or want not in defines:
        got = ifndefs[0] if ifndefs else "none"
        findings.append(Finding(
            path, 1, "header-hygiene",
            "missing or wrong include guard: want %s, got %s" % (want, got)))
    for m in USING_NAMESPACE_RE.finditer(text):
        findings.append(Finding(
            path, line_of(m.start(), text), "header-hygiene",
            "`using namespace` in a header leaks into every includer"))


def check_address_key(path, text, findings):
    for m in ADDRESS_KEY_RE.finditer(text):
        findings.append(Finding(
            path, line_of(m.start(), text), "address-key",
            "address cast to uintptr_t; an address aliases once its memory "
            "is reused and is not stable across runs — key on an identity "
            "stamp (util/identity.h) instead"))


CHECKS = {
    "unordered-iteration": check_unordered_iteration,
    "float-equality": check_float_equality,
    "bytereader-unchecked": check_bytereader,
    "header-hygiene": check_header_hygiene,
    "address-key": check_address_key,
}


def lint_file(path, enabled_rules):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        print("pta_lint: cannot read %s: %s" % (path, e), file=sys.stderr)
        sys.exit(2)
    raw_lines = raw.splitlines()
    stripped = strip_comments_and_strings(raw)
    allows, bad_allows = collect_allows(raw_lines)

    findings = []
    for rule in enabled_rules:
        CHECKS[rule](path, stripped, findings)

    kept = [f for f in findings
            if f.rule not in allows.get(f.line, set())]
    for line, msg in bad_allows:
        kept.append(Finding(path, line, "suppression-format", msg))
    return kept


def gather_paths(args):
    files = []
    for arg in args:
        if os.path.isdir(arg):
            for root, dirs, names in os.walk(arg):
                dirs.sort()
                # The linter's own golden corpus is known-bad by design
                # (tests/lint/lint_golden_test.py lints it file by file);
                # directory sweeps must not trip over it. An explicit file
                # argument still lints a fixture.
                norm = os.path.normpath(root).replace(os.sep, "/")
                if norm.endswith("tests/lint/fixtures"):
                    continue
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(root, name))
        elif os.path.isfile(arg):
            files.append(arg)
        else:
            print("pta_lint: no such file or directory: %s" % arg,
                  file=sys.stderr)
            sys.exit(2)
    return files


def main(argv):
    enabled = list(RULES)
    paths = []
    for arg in argv[1:]:
        if arg in ("-h", "--help"):
            print(__doc__)
            return 0
        if arg.startswith("--rules="):
            enabled = [r.strip() for r in arg[len("--rules="):].split(",")
                       if r.strip()]
            unknown = set(enabled) - set(RULES)
            if unknown:
                print("pta_lint: unknown rule(s): %s (known: %s)"
                      % (", ".join(sorted(unknown)), ", ".join(RULES)),
                      file=sys.stderr)
                return 2
        elif arg.startswith("-"):
            print("pta_lint: unknown option: %s" % arg, file=sys.stderr)
            print("usage: pta_lint.py [--rules=<id>,...] <path>...",
                  file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if not paths:
        print("usage: pta_lint.py [--rules=<id>,...] <path>...",
              file=sys.stderr)
        return 2

    all_findings = []
    for path in gather_paths(paths):
        all_findings.extend(lint_file(path, enabled))
    all_findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in all_findings:
        print(f.render())
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
