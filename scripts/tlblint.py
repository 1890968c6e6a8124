#!/usr/bin/env python3
"""tlblint: static concurrency & determinism linter for the tlbsim tree.

Four rule classes, each aimed at an invariant the parallel core depends on
but the C++ type system cannot state:

  banked        Shard-affinity. Members annotated `// tlblint: banked(socket)`
                hold per-socket protocol state (coherence banks, apic banks,
                queue-backend ticket banks, SocketMask words). They may be
                referenced only inside functions annotated
                `// tlblint: shard-local` (runs inside the owning shard's
                engine window) or `// tlblint: setup` (single-threaded
                configure/aggregate context: construction, ConfigureBanks,
                Snapshot between runs). Anything else is a latent cross-shard
                race that no mutex will ever flag, because the ownership
                discipline is the engine's closed-shard phase, not a lock.

  layering      Include-direction DAG over src/ subdirectories. The checker
                (src/check) is observational: nothing outside it may include
                it. src/sim is the foundation: it includes only src/base.
                The full allowed-dependency map is ALLOWED_DEPS below; the
                single historical back-edge (src/kernel/kernel.h ->
                src/core/optimizations.h) is pinned in LAYERING_WHITELIST as
                a file pair so it cannot silently widen into kernel -> core.

  determinism   Host-nondeterminism gate. Flags host clocks outside
                sanctioned host-side-timing code, host randomness, range-for
                over unordered containers, and
                pointer-keyed ordered containers (std::map/set<T*>: iteration
                order follows allocation addresses). Suppress a provably
                order-independent loop with `// det-ok: <why>` on the line.

  no-ts-optout  The clang thread-safety escape hatch NO_THREAD_SAFETY_ANALYSIS
                must not appear in src/exec, src/sim or src/core: the
                annotated concurrency core documents barrier-transferred
                ownership with AssertHeld() + a justification comment instead
                of opting out of the analysis.

Per-line suppression for any rule: `// tlblint: allow(<rule>) <reason>`.

Engine: a deliberately dependency-free syntactic analysis (Python stdlib
only — CI runners and dev containers need no libclang/bindings). The banked
rule uses a brace-tracking scope scanner, not a bare grep: a reference is
blessed by an annotation on any enclosing scope, so lambdas and nested
blocks inherit their function's affinity. An AST engine can slot in behind
the same Finding interface if clang Python bindings ever become a baseline.

Usage: tlblint.py [--root DIR] [--strict] [--json PATH] [--rules r1,r2,...]
Exit 0: clean. 1: findings. 2: usage/internal error.
"""

import argparse
import json
import os
import re
import sys

EXTS = (".h", ".cc", ".cpp")

# --- roots per rule class (relative to repo root) ---------------------------
DET_ROOTS = ("src", "bench", "examples")
SRC_ROOT = "src"
TS_OPTOUT_DIRS = ("src/exec/", "src/sim/", "src/core/")

# --- layering ---------------------------------------------------------------
# Allowed #include targets per src/ subdirectory (a dir always may include
# itself). Tight by construction: an edge is added here deliberately, with
# review, or the build goes red. Keep acyclic.
ALLOWED_DEPS = {
    "base": set(),
    "mm": set(),
    "sim": {"base"},
    "cache": {"sim"},
    "exec": {"base", "sim"},
    "hw": {"cache", "exec", "mm", "sim"},
    "virt": {"hw", "mm"},
    "kernel": {"cache", "hw", "mm", "sim"},
    "core": {"hw", "kernel", "sim"},
    "check": {"core", "hw", "kernel", "sim"},
    "workloads": {"cache", "core", "exec", "mm", "sim", "virt"},
}
# (including file, included file): historical back-edges pinned at file
# granularity so they cannot widen into a directory-level cycle.
LAYERING_WHITELIST = {
    ("src/kernel/kernel.h", "src/core/optimizations.h"),
}

# --- determinism ------------------------------------------------------------
# Paths (dir/ prefixes or exact files) where host clocks are by design:
# host-side speedup measurement and wall-clock self-benchmarks. src/base is
# the annotated Mutex/CondVar layer (chrono durations for bounded waits).
CLOCK_ALLOWED = ("src/exec/", "src/base/", "bench/report.cc", "bench/sim_throughput.cc")

DET_SUPPRESS = "det-ok:"
CLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b"
    r"|\bclock_gettime\s*\(|\bgettimeofday\s*\(")
RAND_RE = re.compile(
    r"\brand\s*\(|\bsrand\s*\(|std::random_device|\brandom_device\b"
    r"|\bl?rand48\s*\(|\bdrand48\s*\(")
UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<.*>\s+(\w+)\s*[;={(]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*?:\s*(?:\w+(?:\.|->))*(\w+)\s*\)")
PTRKEY_RE = re.compile(r"\b(?:std::)?(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?[\w:]+\s*\*")

# --- annotations ------------------------------------------------------------
BANKED_MARK_RE = re.compile(r"//\s*tlblint:\s*banked\(socket\)")
AFFINITY_MARK_RE = re.compile(r"//\s*tlblint:\s*(shard-local|setup)\b")
ALLOW_RE = re.compile(r"//\s*tlblint:\s*allow\(([\w-]+)\)")
TLBLINT_COMMENT_RE = re.compile(r"//\s*tlblint:\s*(\S+)")
KNOWN_DIRECTIVES_RE = re.compile(r"^(?:banked\(socket\)|shard-local|setup|allow\([\w-]+\))")
BANKED_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:=[^;]*|\{[^;]*\})?\s*;")
NO_TS_OPTOUT_RE = re.compile(r"\bNO_THREAD_SAFETY_ANALYSIS\b")

RULES = ("banked", "layering", "determinism", "no-ts-optout")


class Finding:
    def __init__(self, rule, path, line, message, text):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.text = text.rstrip()

    def as_dict(self):
        return {"rule": self.rule, "file": self.path, "line": self.line,
                "message": self.message, "text": self.text}


def rel(path, root):
    return os.path.relpath(path, root).replace(os.sep, "/")


def walk(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in sorted(os.walk(base)):
            for name in sorted(names):
                if name.endswith(EXTS):
                    yield os.path.join(dirpath, name)


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return f.readlines()


def strip_strings(code):
    # Blank out string and char literal contents (keeps column positions).
    out = []
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and code[i] != quote:
                out.append(" " if code[i] != "\\" else " ")
                i += 2 if code[i] == "\\" else 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class LineSplitter:
    """Splits physical lines into (code, comment) across // and block comments."""

    def __init__(self):
        self.in_block = False

    def split(self, line):
        code, comment = [], []
        i, n = 0, len(line)
        while i < n:
            if self.in_block:
                end = line.find("*/", i)
                if end < 0:
                    comment.append(line[i:])
                    i = n
                else:
                    comment.append(line[i:end])
                    self.in_block = False
                    i = end + 2
                continue
            two = line[i:i + 2]
            if two == "//":
                comment.append(line[i + 2:])
                i = n
            elif two == "/*":
                self.in_block = True
                i += 2
            elif line[i] in "\"'":
                # skip literal so comment markers inside strings don't trigger
                quote = line[i]
                code.append(line[i])
                i += 1
                while i < n and line[i] != quote:
                    code.append(line[i])
                    i += 2 if line[i] == "\\" else 1
                if i < n:
                    code.append(line[i])
                    i += 1
            else:
                code.append(line[i])
                i += 1
        return "".join(code), " ".join(comment)


# --- rule: banked -----------------------------------------------------------

def collect_banked_names(root, findings, strict):
    """Pass 1: member names declared with `// tlblint: banked(socket)`."""
    names = {}
    for path in walk(root, (SRC_ROOT,)):
        r = rel(path, root)
        splitter = LineSplitter()
        for lineno, line in enumerate(read_lines(path), 1):
            code, comment = splitter.split(line)
            if not BANKED_MARK_RE.search("//" + comment):
                continue
            m = BANKED_NAME_RE.search(strip_strings(code))
            if m:
                names.setdefault(m.group(1), []).append((r, lineno))
            elif strict:
                findings.append(Finding(
                    "banked", r, lineno,
                    "banked(socket) marker on a line with no recognizable member declaration",
                    line))
    return names


def check_banked_file(path, r, banked_names, findings):
    """Pass 2: brace-tracking scope scan; a banked-member reference needs a
    shard-local/setup annotation on some enclosing scope (or the statement
    in progress, which covers constructor initializer lists)."""
    tok_re = re.compile(r"[{};]|[A-Za-z_]\w*")
    scope_stack = []   # one annotation-set per open brace
    stmt_annos = set()
    splitter = LineSplitter()
    for lineno, line in enumerate(read_lines(path), 1):
        code, comment = splitter.split(line)
        comment = "//" + comment
        line_annos = {m.group(1) for m in AFFINITY_MARK_RE.finditer(comment)}
        stmt_annos |= line_annos
        is_decl = bool(BANKED_MARK_RE.search(comment))
        allowed = {m.group(1) for m in ALLOW_RE.finditer(comment)}
        code = strip_strings(code)
        if code.lstrip().startswith("#"):
            continue  # preprocessor: no brace/scope meaning
        for tok in tok_re.finditer(code):
            t = tok.group(0)
            if t == "{":
                scope_stack.append(frozenset(stmt_annos))
                stmt_annos = set()
            elif t == "}":
                if scope_stack:
                    scope_stack.pop()
                stmt_annos = set()
            elif t == ";":
                stmt_annos = set()
            elif t in banked_names and not is_decl and "banked" not in allowed:
                held = (line_annos | stmt_annos) & {"shard-local", "setup"}
                if not held and not any(
                        a in ("shard-local", "setup")
                        for s in scope_stack for a in s):
                    findings.append(Finding(
                        "banked", r, lineno,
                        f"banked(socket) member '{t}' referenced outside a "
                        "shard-local/setup-annotated function (see "
                        "docs/CHECKING.md § Static analysis)",
                        line))


def check_banked(root, findings, strict):
    banked_names = collect_banked_names(root, findings, strict)
    for path in walk(root, (SRC_ROOT,)):
        check_banked_file(path, rel(path, root), set(banked_names), findings)
    return banked_names


# --- rule: layering ---------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(src/([a-z_]+)/[^"]+)"')


def check_layering(root, findings):
    for path in walk(root, (SRC_ROOT,)):
        r = rel(path, root)
        parts = r.split("/")
        if len(parts) < 3:
            continue
        this_dir = parts[1]
        for lineno, line in enumerate(read_lines(path), 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            if "tlblint" in line and "allow(layering)" in line:
                continue
            target, target_dir = m.group(1), m.group(2)
            if target_dir == this_dir:
                continue
            if (r, target) in LAYERING_WHITELIST:
                continue
            allowed = ALLOWED_DEPS.get(this_dir)
            if allowed is None:
                findings.append(Finding(
                    "layering", r, lineno,
                    f"directory 'src/{this_dir}' has no entry in tlblint's "
                    "ALLOWED_DEPS layering map; add one deliberately",
                    line))
            elif target_dir not in allowed:
                findings.append(Finding(
                    "layering", r, lineno,
                    f"src/{this_dir} may not include src/{target_dir} "
                    f"(allowed: {sorted(allowed) or 'nothing'}); extend "
                    "ALLOWED_DEPS or LAYERING_WHITELIST in scripts/tlblint.py "
                    "only with a layering justification",
                    line))


# --- rule: determinism ------------------------------------------------------

def check_determinism(root, findings):
    files = list(walk(root, DET_ROOTS))
    unordered_vars = set()
    for path in files:
        for line in read_lines(path):
            m = UNORDERED_DECL_RE.search(line)
            if m:
                unordered_vars.add(m.group(1))
    for path in files:
        r = rel(path, root)
        clock_ok = any(r.startswith(p) if p.endswith("/") else r == p
                       for p in CLOCK_ALLOWED)
        for lineno, line in enumerate(read_lines(path), 1):
            if DET_SUPPRESS in line or "allow(determinism)" in line:
                continue
            if not clock_ok and CLOCK_RE.search(line):
                findings.append(Finding(
                    "determinism", r, lineno,
                    "host clock (use virtual time; see src/sim/engine.h)", line))
            if RAND_RE.search(line):
                findings.append(Finding(
                    "determinism", r, lineno,
                    "host randomness (use seeded tlbsim::Rng)", line))
            m = RANGE_FOR_RE.search(line)
            if m and m.group(1) in unordered_vars:
                findings.append(Finding(
                    "determinism", r, lineno,
                    f"iteration over unordered container '{m.group(1)}' "
                    "(hash order is not deterministic; sort first, or add "
                    "'// det-ok: <why order-independent>' if provably so)",
                    line))
            if PTRKEY_RE.search(line):
                findings.append(Finding(
                    "determinism", r, lineno,
                    "pointer-keyed ordered container (iteration order follows "
                    "allocation addresses, which vary run to run; key by a "
                    "stable id instead)", line))
    return unordered_vars


# --- rule: no-ts-optout -----------------------------------------------------

def check_ts_optout(root, findings):
    for path in walk(root, (SRC_ROOT,)):
        r = rel(path, root)
        if not any(r.startswith(d) for d in TS_OPTOUT_DIRS):
            continue
        for lineno, line in enumerate(read_lines(path), 1):
            if "allow(no-ts-optout)" in line:
                continue
            if NO_TS_OPTOUT_RE.search(line):
                findings.append(Finding(
                    "no-ts-optout", r, lineno,
                    "NO_THREAD_SAFETY_ANALYSIS is banned in src/exec, src/sim "
                    "and src/core; document barrier-transferred ownership with "
                    "AssertHeld() + a justification comment instead", line))


# --- strict-mode hygiene ----------------------------------------------------

def check_directive_hygiene(root, findings):
    """Every `// tlblint: ...` comment must be a recognized directive; a typo
    like `tlblint: shardlocal` would otherwise silently bless nothing."""
    roots = set(DET_ROOTS) | {SRC_ROOT}
    for path in walk(root, sorted(roots)):
        r = rel(path, root)
        for lineno, line in enumerate(read_lines(path), 1):
            for m in TLBLINT_COMMENT_RE.finditer(line):
                d = m.group(1)
                if not KNOWN_DIRECTIVES_RE.match(d):
                    findings.append(Finding(
                        "hygiene", r, lineno,
                        f"unrecognized tlblint directive '{d}' "
                        "(known: banked(socket), shard-local, setup, "
                        "allow(rule))", line))
                elif d.startswith("allow("):
                    named = d[len("allow("):].rstrip(")")
                    if named not in RULES:
                        findings.append(Finding(
                            "hygiene", r, lineno,
                            f"allow() names unknown rule '{named}' "
                            f"(known rules: {', '.join(RULES)})", line))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--strict", action="store_true",
                    help="also fail on tlblint-directive hygiene problems")
    ap.add_argument("--json", metavar="PATH", help="write findings as JSON")
    ap.add_argument("--rules", default=",".join(RULES),
                    help=f"comma-separated subset of: {', '.join(RULES)}")
    args = ap.parse_args(argv[1:])

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in RULES]
    if unknown:
        print(f"tlblint: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    findings = []
    banked_names = {}
    unordered_vars = set()
    if "banked" in rules:
        banked_names = check_banked(args.root, findings, args.strict)
    if "layering" in rules:
        check_layering(args.root, findings)
    if "determinism" in rules:
        unordered_vars = check_determinism(args.root, findings)
    if "no-ts-optout" in rules:
        check_ts_optout(args.root, findings)
    if args.strict:
        check_directive_hygiene(args.root, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f"FAIL [{f.rule}] {f.path}:{f.line}: {f.message}\n     {f.text}")

    if args.json:
        payload = {
            "findings": [f.as_dict() for f in findings],
            "rules": rules,
            "strict": args.strict,
            "banked_members": {k: [f"{p}:{ln}" for p, ln in v]
                               for k, v in sorted(banked_names.items())},
            "unordered_vars_tracked": sorted(unordered_vars),
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    if findings:
        print(f"\ntlblint: {len(findings)} problem(s) "
              f"[rules: {', '.join(rules)}{', strict' if args.strict else ''}]")
        return 1
    print(f"tlblint: OK [rules: {', '.join(rules)}"
          f"{', strict' if args.strict else ''}; "
          f"{len(banked_names)} banked member(s), "
          f"{len(unordered_vars)} unordered var(s) tracked]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
