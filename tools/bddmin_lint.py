#!/usr/bin/env python3
"""bddmin-specific lint: invariant contracts the compiler cannot check.

Rules (see docs/API.md for the full contract text):
  R1  every memoized recursion in the BDD core (a function body that both
      probes and fills the computed cache) must charge the resource
      governor on its memo-miss path (`charge_step`)
  R2  every computed-cache probe/fill names its op tag from the single
      registry (src/bdd/cache_tags.hpp) — directly, through a same-file
      `constexpr` alias, through `analysis::ManagerAccess::op_*()`, or
      through a `CacheKey` built once by `cache_key(...)`; ad-hoc numeric
      tags are errors, as are duplicate values inside the registry itself
  R3  no raw `assert(` outside src/analysis/check.hpp — use BDDMIN_CHECK
      (always on) or BDDMIN_DCHECK (hot path, opt-in) so failures obey the
      project-wide tiering
  R4  an `Edge` local must not be used after a `garbage_collect()` /
      `reorder_sift*()` call unless it was pinned first (wrapped in a
      `Bdd`, passed to `pin_for_unwind`, or stored into a pinned
      container) — unpinned edges may dangle across reclamation
  R5  `PhaseScope` must be bound to a named local; a discarded temporary
      destructs immediately and records nothing
  (R6 is retired; rule ids are never reused, since suppressions cite them)
  R7  failpoint hygiene: every `BDDMIN_FAILPOINT("name")` site must name
      an entry of the catalog in src/analysis/failpoint.cpp, each
      catalog name may have at most one site in the tree (a second site
      makes `once`/`nth` arming fire at whichever polls first —
      ambiguous), the catalog itself must not register a name twice, and
      a `catch` of ResourceExhausted must not have an empty body — a
      silently swallowed injection defeats the fault it simulates

Suppressions: append `// bddmin-lint: allow(Rn) -- <justification>` on the
offending line or the line directly above it.  The justification is
mandatory; an allow() without one is itself reported.

Input is either a compile_commands.json (`-p`), or explicit files or
directories.  Headers reachable under the source roots are scanned too.
Uses clang.cindex for precise parsing when the module and a libclang are
available; otherwise a built-in lexer (comment/string-aware, brace-matched
function bodies) performs the same checks — CI runs both paths.

Exit status 0 when no findings, 1 otherwise (one `file:line: Rn: message`
per finding on stdout, summary on stderr).
"""
import argparse
import json
import os
import re
import sys

ALL_RULES = ("R1", "R2", "R3", "R4", "R5", "R7")

# Files whose *definitions* legitimately contain the patterns a rule hunts.
RULE_EXEMPT_FILES = {
    "R3": ("src/analysis/check.hpp",),
    "R5": ("src/telemetry/profile.hpp",),
}

# R1 applies to the BDD core only: that is where memoized recursions live
# and where an uncharged recursion silently escapes the step budget.
R1_FILES = ("src/bdd/ops.cpp", "src/bdd/manager.cpp")

REGISTRY_RELPATH = "src/bdd/cache_tags.hpp"

# R7's ground truth: the failpoint catalog between the sentinel comments.
FAILPOINT_CATALOG_RELPATH = "src/analysis/failpoint.cpp"

SUPPRESS_RE = re.compile(
    r"//\s*bddmin-lint:\s*allow\((R[1-7])\)\s*(?:(?:--|:)\s*(.*\S))?\s*$")


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message


# ---------------------------------------------------------------------------
# Lexing: strip comments and string/char literals, preserving line structure,
# and collect suppression comments keyed by line number.
# ---------------------------------------------------------------------------

def scan_source(text, keep_strings=False):
    """Return (clean_text, suppressions) for one translation unit.

    clean_text has comments and string/char literal *contents* blanked out
    (newlines kept), so downstream regexes never match inside either.
    keep_strings leaves literal contents in place (still comment-free) for
    rules that must read them, like R7's failpoint site names.
    suppressions maps line number -> list of (rule, justification|None).
    """
    suppressions = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        m = SUPPRESS_RE.search(line)
        if m:
            suppressions.setdefault(lineno, []).append((m.group(1), m.group(2)))

    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif ch == '"' or ch == "'":
            quote = ch
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    if keep_strings:
                        out.append(text[i])
                    i += 1
                if i < n:
                    if keep_strings or text[i] == "\n":
                        out.append(text[i])
                i += 1
            out.append(quote)
            i = min(i + 1, n)
        else:
            out.append(ch)
            i += 1
    return "".join(out), suppressions


SIGNATURE_TAIL_RE = re.compile(
    r"\)\s*(?:const|noexcept(?:\([^()]*\))?|override|final|mutable|&&?|"
    r"->\s*[\w:<>,*&\s]+|\[\[[^\]]*\]\])*\s*$")

CONTROL_KEYWORDS = frozenset(
    ("if", "for", "while", "switch", "catch", "return", "sizeof"))


def _looks_like_function(prefix):
    """True when prefix (text before a '{') ends in a parameter list."""
    m = SIGNATURE_TAIL_RE.search(prefix)
    if not m:
        return False
    # Balance back from the ')' that opens the qualifier tail to its '(',
    # then inspect the word before it: control keywords open blocks, not
    # function bodies.
    depth = 0
    k = m.start()
    while k >= 0:
        if prefix[k] == ")":
            depth += 1
        elif prefix[k] == "(":
            depth -= 1
            if depth == 0:
                break
        k -= 1
    if k < 0:
        return False
    head = prefix[:k].rstrip()
    word = re.search(r"(\w+)\s*$", head)
    if word and word.group(1) in CONTROL_KEYWORDS:
        return False
    return word is not None or head.endswith("]")  # identifier, or a lambda


def function_bodies(clean):
    """Yield (start_line, body_text) for every function body in clean text.

    A body is a brace block whose preceding context ends in a parameter
    list (plus qualifiers).  Namespace/class/enum blocks are containers —
    their members are scanned in place, the container itself is not
    yielded.  Good enough for clang-formatted code; the lint fixtures
    exercise the shapes that matter.
    """
    line_of = _line_index(clean)
    i, n = 0, len(clean)
    while i < n:
        if clean[i] == "{" and _looks_like_function(clean[max(0, i - 300):i]):
            end = _match_brace(clean, i)
            yield line_of(i), clean[i + 1:end]
            i = end + 1
            continue
        i += 1


def _match_brace(text, open_idx):
    depth = 0
    for j in range(open_idx, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(text) - 1


def _line_index(text):
    starts = [0]
    for k, ch in enumerate(text):
        if ch == "\n":
            starts.append(k + 1)

    def line_of(idx):
        lo, hi = 0, len(starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if starts[mid] <= idx:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    return line_of


def first_argument(clean, call_idx):
    """The first argument of the call whose '(' is at call_idx."""
    depth = 0
    start = call_idx + 1
    for j in range(call_idx, len(clean)):
        ch = clean[j]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                return clean[start:j].strip()
        elif ch == "," and depth == 1:
            return clean[start:j].strip()
    return clean[start:].strip()


# ---------------------------------------------------------------------------
# The rules (text frontend).
# ---------------------------------------------------------------------------

def check_r1(relpath, clean, findings):
    if not relpath.endswith(R1_FILES):
        return
    for start_line, body in function_bodies(clean):
        if "cache_lookup" in body and "cache_insert" in body \
                and "charge_step" not in body:
            findings.append(Finding(
                relpath, start_line, "R1",
                "memoized recursion (cache_lookup + cache_insert) never "
                "calls governor charge_step on its miss path"))


REGISTRY_CONST_RE = re.compile(
    r"inline\s+constexpr\s+std::uint32_t\s+(k\w+)\s*=\s*([\w:]+|\d+)\s*;")
ALIAS_RE = re.compile(
    r"constexpr\s+std::uint32_t\s+(k\w+)\s*=\s*cache_tag::(k\w+)\s*;")
CACHE_CALL_RE = re.compile(r"\b(cache_lookup|cache_insert|cache_key)\s*\(")
CACHEKEY_DECL_RE = re.compile(
    r"\b(?:Manager::)?CacheKey\s+(\w+)\s*=")


def load_registry(root):
    """Name -> value (int where literal) from the tag registry header."""
    path = os.path.join(root, REGISTRY_RELPATH)
    registry = {}
    try:
        with open(path, encoding="utf-8") as fh:
            clean, _ = scan_source(fh.read())
    except OSError:
        return registry
    symbolic = {}
    for name, value in REGISTRY_CONST_RE.findall(clean):
        registry[name] = value
        symbolic[name] = value
    # Resolve one level of name = other-name (e.g. kUserBase aliases).
    for name, value in list(registry.items()):
        if not value.isdigit() and value in symbolic:
            registry[name] = symbolic[value]
    return registry


def check_registry_duplicates(root, registry, findings):
    seen = {}
    path = os.path.join(root, REGISTRY_RELPATH)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return
    for lineno, line in enumerate(lines, 1):
        m = REGISTRY_CONST_RE.search(line)
        if not m:
            continue
        name, value = m.group(1), m.group(2)
        if not value.isdigit():
            continue
        if value in seen:
            findings.append(Finding(
                REGISTRY_RELPATH, lineno, "R2",
                f"duplicate cache tag value {value}: {name} collides with "
                f"{seen[value]}"))
        else:
            seen[value] = name


def check_r2(relpath, clean, registry, findings):
    line_of = _line_index(clean)
    aliases = {}
    for m in ALIAS_RE.finditer(clean):
        alias, target = m.group(1), m.group(2)
        if target in registry:
            aliases[alias] = target
        else:
            findings.append(Finding(
                relpath, line_of(m.start()), "R2",
                f"alias {alias} names unknown cache tag cache_tag::{target}"))
    cachekey_vars = set(m.group(1) for m in CACHEKEY_DECL_RE.finditer(clean))

    for m in CACHE_CALL_RE.finditer(clean):
        fn = m.group(1)
        # Skip declarations/definitions of the API itself (Manager::...).
        before = clean[max(0, m.start() - 60):m.start()]
        if re.search(r"(?:Manager::|void\s+|bool\s+)$", before):
            continue
        arg = first_argument(clean, m.end() - 1)
        if not arg:
            continue
        # A parameter declaration ("std::uint32_t op") marks the API's own
        # declaration, not a call site.
        if re.fullmatch(r"(?:const\s+)?[\w:]+(?:\s*[&*])?\s+\w+", arg):
            continue
        lineno = line_of(m.start())
        base = arg.split("+")[0].strip()  # allow `kUserOpBase + h` offsets
        if _tag_ok(base, registry, aliases) or \
                (fn != "cache_key" and base in cachekey_vars):
            continue
        if fn != "cache_key" and re.match(r"cache_key\s*\(", base):
            continue  # nested cache_key() call is checked on its own
        # First token being a known CacheKey variable also covers members
        # like `and_key` used twice; anything else is ad-hoc.
        findings.append(Finding(
            relpath, lineno, "R2",
            f"{fn}() tag {arg!r} is not a cache_tags.hpp registry constant "
            "(use cache_tag::k*, a same-file constexpr alias of one, "
            "ManagerAccess::op_*(), kUserOpBase, or a named CacheKey)"))


def _tag_ok(base, registry, aliases):
    if re.fullmatch(r"(?:bddmin::)?cache_tag::(k\w+)", base):
        name = base.rsplit("::", 1)[1]
        return name in registry
    if re.fullmatch(r"(?:analysis::)?ManagerAccess::op_\w+\(\)", base):
        return True
    if re.fullmatch(r"(?:Manager::)?kUserOpBase", base):
        return True
    return base in aliases


ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")


def check_r3(relpath, clean, findings):
    line_of = _line_index(clean)
    for m in ASSERT_RE.finditer(clean):
        prefix = clean[max(0, m.start() - 7):m.start()]
        if prefix.endswith("static_"):
            continue
        findings.append(Finding(
            relpath, line_of(m.start()), "R3",
            "raw assert() — use BDDMIN_CHECK (always on) or BDDMIN_DCHECK "
            "(hot path) from analysis/check.hpp"))


EDGE_DECL_RE = re.compile(
    r"(?:^|[;{}])\s*(?:const\s+)?Edge\s+(\w+)\s*(?:=\s*([^;]*)|\{[^;]*)?;")
GC_CALL_RE = re.compile(r"\b(?:garbage_collect|reorder_sift\w*)\s*\(")
# Initializers whose value survives collection by construction: terminals
# and variable nodes are permanently referenced.
IMMORTAL_INIT_RE = re.compile(r"^(?:kOne|kZero|\w+[.\->]*\s*n?var_edge\s*\()")


def check_r4(relpath, body_line, body, findings):
    gc_positions = [m.start() for m in GC_CALL_RE.finditer(body)]
    if not gc_positions:
        return
    line_of = _line_index(body)
    for m in EDGE_DECL_RE.finditer(body):
        name = m.group(1)
        init = (m.group(2) or "").strip()
        if IMMORTAL_INIT_RE.match(init):
            continue
        decl_end = m.end()
        gcs = [g for g in gc_positions if g > decl_end]
        if not gcs:
            continue
        gc_at = gcs[0]
        # Pinned before the collection?  Wrapping in a Bdd, an explicit
        # ref()/pin_for_unwind(), or storage into a pinned container all
        # count.
        window = body[decl_end:gc_at]
        esc = re.escape(name)
        if re.search(r"\bBdd\s+\w+\s*[({][^;]*\b%s\b" % esc, window) \
                or re.search(r"\bpin_for_unwind\s*\(\s*%s\s*\)" % esc, window) \
                or re.search(r"\bref\s*\(\s*%s\s*\)" % esc, window) \
                or re.search(r"\b%s\s*=\s*[^;]*\bpin\s*\(" % esc, window) \
                or re.search(r"emplace_back\s*\([^;]*\b%s\b" % esc, window):
            continue
        after = body[gc_at:]
        use = re.search(r"\b%s\b" % esc, after)
        if use:
            findings.append(Finding(
                relpath, body_line + line_of(gc_at + use.start()) - 1, "R4",
                f"Edge local {name!r} used after garbage_collect/reorder "
                "without pinning (wrap in Bdd, ref(), or pin_for_unwind "
                "first)"))


SCOPE_TEMP_RE = re.compile(
    r"(?:^|[;{}])\s*(?:\w[\w:]*::)?(PhaseScope)\s*[({]")


def check_r5(relpath, clean, findings):
    line_of = _line_index(clean)
    for m in SCOPE_TEMP_RE.finditer(clean):
        findings.append(Finding(
            relpath, line_of(m.start(1)), "R5",
            f"discarded {m.group(1)} temporary destructs immediately — "
            "bind it to a named local"))


FAILPOINT_SITE_RE = re.compile(r"\bBDDMIN_FAILPOINT\s*\(\s*\"(\w+)\"\s*\)")
FAILPOINT_ENTRY_RE = re.compile(r"^\s*\{\s*\"(\w+)\"", re.MULTILINE)
EMPTY_EXHAUSTED_CATCH_RE = re.compile(
    r"\bcatch\s*\(([^()]*\bResourceExhausted\b[^()]*)\)\s*\{\s*\}")


def load_failpoint_catalog(root, findings):
    """Name -> line of the failpoint catalog; duplicates become findings.

    Parses the block between the bddmin-failpoint-catalog-begin/end
    sentinels in src/analysis/failpoint.cpp (comment-stripped, strings
    kept — the names *are* string literals).
    """
    path = os.path.join(root, FAILPOINT_CATALOG_RELPATH)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        return {}
    begin = text.find("bddmin-failpoint-catalog-begin")
    end = text.find("bddmin-failpoint-catalog-end")
    if begin < 0 or end < 0 or end <= begin:
        findings.append(Finding(
            FAILPOINT_CATALOG_RELPATH, 1, "R7",
            "failpoint catalog sentinels (bddmin-failpoint-catalog-begin/"
            "end) not found — R7 cannot cross-check sites"))
        return {}
    block = scan_source(text[begin:end], keep_strings=True)[0]
    line_base = text.count("\n", 0, begin)
    catalog = {}
    for m in FAILPOINT_ENTRY_RE.finditer(block):
        name = m.group(1)
        lineno = line_base + block.count("\n", 0, m.start()) + 1
        if name in catalog:
            findings.append(Finding(
                FAILPOINT_CATALOG_RELPATH, lineno, "R7",
                f"failpoint {name!r} registered twice in the catalog "
                f"(first at line {catalog[name]})"))
        else:
            catalog[name] = lineno
    return catalog


def check_r7(relpath, clean_keep, clean, catalog, seen_sites, findings):
    """Failpoint site hygiene; `seen_sites` accumulates across files."""
    line_of = _line_index(clean_keep)
    for m in FAILPOINT_SITE_RE.finditer(clean_keep):
        name = m.group(1)
        lineno = line_of(m.start())
        if name not in catalog:
            findings.append(Finding(
                relpath, lineno, "R7",
                f"BDDMIN_FAILPOINT site {name!r} is not in the catalog of "
                f"{FAILPOINT_CATALOG_RELPATH} — it can never be armed"))
        elif name in seen_sites:
            first_path, first_line = seen_sites[name]
            findings.append(Finding(
                relpath, lineno, "R7",
                f"second BDDMIN_FAILPOINT site for {name!r} (first at "
                f"{first_path}:{first_line}) — once/nth arming would fire "
                "at whichever site polls first"))
        else:
            seen_sites[name] = (relpath, lineno)
    line_of_clean = _line_index(clean)
    for m in EMPTY_EXHAUSTED_CATCH_RE.finditer(clean):
        findings.append(Finding(
            relpath, line_of_clean(m.start()), "R7",
            "empty catch of ResourceExhausted swallows injected faults — "
            "recover, rethrow, or at least record the trip"))


# ---------------------------------------------------------------------------
# Optional clang.cindex frontend (same findings, AST-precise locations).
# ---------------------------------------------------------------------------

def try_cindex():
    """Return the clang.cindex module when usable, else None."""
    try:
        import clang.cindex as cindex  # type: ignore
        cindex.Index.create()
        return cindex
    except Exception:  # ImportError, LibclangError — fall back to the lexer
        return None


def cindex_function_bodies(cindex, path, compile_args):
    """Yield (start_line, body_text) via libclang, mirroring the lexer."""
    index = cindex.Index.create()
    tu = index.parse(path, args=compile_args or ["-std=c++20"])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    kinds = (cindex.CursorKind.FUNCTION_DECL, cindex.CursorKind.CXX_METHOD,
             cindex.CursorKind.CONSTRUCTOR, cindex.CursorKind.DESTRUCTOR,
             cindex.CursorKind.FUNCTION_TEMPLATE)

    def walk(cursor):
        for child in cursor.get_children():
            if child.kind in kinds and child.is_definition() and \
                    child.location.file and child.location.file.name == path:
                ext = child.extent
                yield (ext.start.line,
                       text[ext.start.offset:ext.end.offset])
            else:
                yield from walk(child)

    yield from walk(tu.cursor)


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

SOURCE_EXTS = (".cpp", ".cc", ".cxx", ".hpp", ".h")


def collect_files(args, root):
    files = set()
    if args.compile_commands:
        with open(args.compile_commands, encoding="utf-8") as fh:
            for entry in json.load(fh):
                p = entry["file"]
                if not os.path.isabs(p):
                    p = os.path.join(entry.get("directory", root), p)
                files.add(os.path.realpath(p))
        # Headers ride along: scan the project source roots.
        for sub in ("src", "tests", "bench", "examples"):
            top = os.path.join(root, sub)
            for dirpath, _, names in os.walk(top):
                for name in names:
                    if name.endswith((".hpp", ".h")):
                        files.add(os.path.realpath(os.path.join(dirpath, name)))
    for p in args.paths:
        if os.path.isdir(p):
            explicit_fixture = "lint_fixtures" in os.path.realpath(p)
            for dirpath, dirnames, names in os.walk(p):
                if not explicit_fixture and "lint_fixtures" in dirnames:
                    # The violation-seeding test corpus lints dirty by
                    # design; walk it only when named explicitly.
                    dirnames.remove("lint_fixtures")
                for name in names:
                    if name.endswith(SOURCE_EXTS):
                        files.add(os.path.realpath(os.path.join(dirpath, name)))
        else:
            files.add(os.path.realpath(p))
    return sorted(f for f in files if f.endswith(SOURCE_EXTS))


def relpath_of(path, root):
    rel = os.path.relpath(path, root)
    return path if rel.startswith("..") else rel


def exempt(relpath, rule):
    rel = relpath.replace(os.sep, "/")
    return any(rel.endswith(e) for e in RULE_EXEMPT_FILES.get(rule, ()))


def apply_suppressions(findings, suppressions_by_file, errors):
    kept = []
    for f in findings:
        allows = []
        per_file = suppressions_by_file.get(f.path, {})
        for line in (f.line, f.line - 1):
            allows.extend(per_file.get(line, []))
        matched = False
        for rule, justification in allows:
            if rule != f.rule:
                continue
            if justification:
                matched = True
            else:
                errors.append(Finding(
                    f.path, f.line, f.rule,
                    "suppression without justification — write "
                    f"'bddmin-lint: allow({f.rule}) -- <why>'"))
                matched = True  # the naked allow is the reported finding
        if not matched:
            kept.append(f)
    return kept


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    parser.add_argument("-p", "--compile-commands", metavar="JSON",
                        help="compile_commands.json; lints every TU plus "
                             "project headers")
    parser.add_argument("--root", default=None,
                        help="repo root for relative paths and the tag "
                             "registry (default: inferred from this script)")
    parser.add_argument("--rules", default=",".join(ALL_RULES),
                        help="comma-separated subset of rules (default: all)")
    parser.add_argument("--no-cindex", action="store_true",
                        help="skip clang.cindex even when available")
    args = parser.parse_args()

    root = os.path.realpath(
        args.root or os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  os.pardir))
    rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    for r in rules:
        if r not in ALL_RULES:
            print(f"bddmin_lint: unknown rule {r!r}", file=sys.stderr)
            return 2

    files = collect_files(args, root)
    if not files:
        print("bddmin_lint: no input files (pass paths or -p "
              "compile_commands.json)", file=sys.stderr)
        return 2

    cindex = None if args.no_cindex else try_cindex()
    registry = load_registry(root)
    if "R2" in rules and not registry:
        print(f"bddmin_lint: warning: tag registry {REGISTRY_RELPATH} not "
              "found under --root; R2 limited to alias checks",
              file=sys.stderr)

    findings = []
    suppressions_by_file = {}
    if "R2" in rules:
        check_registry_duplicates(root, registry, findings)
    failpoint_catalog = {}
    failpoint_sites = {}
    if "R7" in rules:
        failpoint_catalog = load_failpoint_catalog(root, findings)
    for path in files:
        rel = relpath_of(path, root)
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError as e:
            print(f"bddmin_lint: cannot read {rel}: {e}", file=sys.stderr)
            return 2
        clean, suppressions = scan_source(text)
        suppressions_by_file[rel] = suppressions

        if "R1" in rules and not exempt(rel, "R1"):
            check_r1(rel, clean, findings)
        if "R2" in rules and not exempt(rel, "R2") and \
                not rel.replace(os.sep, "/").endswith(REGISTRY_RELPATH):
            check_r2(rel, clean, registry, findings)
        if "R3" in rules and not exempt(rel, "R3"):
            check_r3(rel, clean, findings)
        if "R4" in rules and not exempt(rel, "R4") and rel.endswith(".cpp"):
            bodies = None
            if cindex is not None:
                try:
                    bodies = list(cindex_function_bodies(cindex, path, None))
                except Exception:
                    bodies = None  # parse trouble: lexer path below
            if bodies is None:
                bodies = list(function_bodies(clean))
            for body_line, body in bodies:
                body_clean = body if cindex is None else scan_source(body)[0]
                check_r4(rel, body_line, body_clean, findings)
        if "R5" in rules and not exempt(rel, "R5"):
            check_r5(rel, clean, findings)
        if "R7" in rules and not exempt(rel, "R7"):
            clean_keep = scan_source(text, keep_strings=True)[0]
            check_r7(rel, clean_keep, clean, failpoint_catalog,
                     failpoint_sites, findings)

    errors = []
    findings = apply_suppressions(findings, suppressions_by_file, errors)
    findings.extend(errors)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f"{f.path}:{f.line}: {f.rule}: {f.message}")
    if findings:
        print(f"bddmin_lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    frontend = "clang.cindex" if cindex is not None else "builtin lexer"
    print(f"bddmin_lint: OK — {len(files)} file(s), rules "
          f"{','.join(rules)} ({frontend})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
