#!/usr/bin/env python3
"""atmx_lint: repo-specific invariant checks the generic clang-tidy profile
cannot express.

The checks (each with a self-test in tools/test_atmx_lint.py):

  no-raw-mutex           Raw std::mutex / std::lock_guard / std::unique_lock /
                         std::condition_variable / ... are banned in src/
                         outside the annotated wrapper (src/common/mutex.h)
                         and the annotation header. The standard types carry
                         no capability attributes, so using them silently
                         opts code out of Clang's -Wthread-safety analysis.

  nodiscard-status       atmx::Status and atmx::Result must keep their
                         class-level [[nodiscard]]; every Status/Result-
                         returning function declared in a src/ header must
                         be marked [[nodiscard]]; no src/ statement may
                         discard (or `(void)`-launder) a call to a known
                         Status-returning API. Compile-time enforcement is
                         the attribute itself (-Werror=unused-result in the
                         clang CI job); the lint keeps the attributes from
                         being dropped and catches laundering.

  fp-contract            The SIMD kernel TUs (src/kernels/simd/) promised
                         bitwise identity across dispatch levels, which
                         requires no FMA contraction: no std::fma / fma()
                         calls, no FMA intrinsics, no `#pragma STDC
                         FP_CONTRACT` other than OFF, and the CMake rules
                         must keep -ffp-contract=off on both the portable
                         and the AVX2 TU. Every kernel TU in the directory
                         (all .cc except the arithmetic-free dispatcher)
                         must also be listed in a
                         set_source_files_properties block that applies a
                         *_KERNEL_OPTIONS list — a newly added TU cannot
                         silently compile with default contraction.

  lock-order-doc         The TraceRecorder's registry-before-shard lock
                         order cannot be expressed with ATMX_ACQUIRED_AFTER
                         (the shard mutexes are dynamic objects); the
                         documented invariant in src/obs/trace.h is pinned
                         here so it cannot be deleted without the lint
                         noticing.

  no-lock-across-callback  No atmx::MutexLock scope may invoke a
                         user-supplied callback (run/fn/cost_of/home_of/
                         callback, or `(*job)(...)`): a callback that
                         blocks or re-enters the locking object under a
                         held lock is a deadlock waiting to happen. The
                         scheduler's contract is lock -> pop -> unlock ->
                         invoke. The same check bans blocking socket calls
                         (accept/recv/send/sendto/write) under a held
                         MutexLock in src/obs/stats_server.cc: a stuck
                         client must never be able to wedge Start/Stop.
                         shutdown(2)/close(2) stay allowed — they are how
                         Stop unwedges the listener.

  no-lock-across-file-io  No atmx::MutexLock scope in the audit-ledger
                         write paths (src/obs/audit_ledger.cc) may perform
                         file I/O (fopen/fwrite/fprintf/fputs/fflush/
                         fclose): a slow disk would stall every thread
                         recording a decision behind the flush. The
                         contract is snapshot under the lock, render and
                         write lock-free (AuditLedger::WriteJson).

  single-decision-site   Outside src/ops/optimizer.cc (the definition),
                         src/ops/product_task.cc (the pair planner) and
                         src/obs/audit_ledger.cc (the counterfactual
                         replay), no file under src/ may call
                         DecidePairRepresentations. Execution and EXPLAIN
                         both run the pair planner, so a second decision
                         loop would let a plan drift from what executes.

Exit status 0 when clean, 1 when any check reports a violation, 2 on usage
errors. Output is one `path:line: [check] message` per violation, so the
format is grep- and CI-annotation-friendly.

Optionally, when clang-query (from clang-tools) is on PATH and a compile
database is given via --build-dir, the AST-grep scripts in
tools/lint_queries/ run as a deeper second pass over the same invariants.
The pure-Python pass is authoritative in CI (toolchain-independent); the
clang-query pass is best-effort local depth, like run_clang_tidy.sh.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
from typing import Callable, Iterable, List, NamedTuple


class Violation(NamedTuple):
    path: str
    line: int  # 1-based; 0 = whole file
    check: str
    message: str

    def render(self, repo: str) -> str:
        rel = os.path.relpath(self.path, repo)
        return f"{rel}:{self.line}: [{self.check}] {self.message}"


# --------------------------------------------------------------------------
# Source model


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Replaced characters become spaces so column/line numbers in the
    remaining code stay valid. Handles // and /* */ comments, "..." and
    '...' literals with escapes. Raw strings are treated as plain strings,
    which is fine for linting (no raw strings in this codebase carry code).
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def iter_files(root: str, subdir: str, exts: Iterable[str]) -> List[str]:
    base = os.path.join(root, subdir)
    found = []
    for dirpath, _, filenames in os.walk(base):
        for name in sorted(filenames):
            if any(name.endswith(e) for e in exts):
                found.append(os.path.join(dirpath, name))
    return sorted(found)


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


# --------------------------------------------------------------------------
# Check: no-raw-mutex

RAW_MUTEX_RE = re.compile(
    r"std\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
)

# The annotated wrapper and the annotation macros: the ONLY files in src/
# where the raw standard locking types may appear.
RAW_MUTEX_ALLOWED = ("common/mutex.h", "common/thread_annotations.h")


def check_no_raw_mutex(repo: str) -> List[Violation]:
    violations = []
    for path in iter_files(repo, "src", (".h", ".cc")):
        rel = os.path.relpath(path, os.path.join(repo, "src"))
        if rel in RAW_MUTEX_ALLOWED:
            continue
        code = strip_comments_and_strings(read(path))
        for lineno, line in enumerate(code.splitlines(), start=1):
            for m in RAW_MUTEX_RE.finditer(line):
                violations.append(Violation(
                    path, lineno, "no-raw-mutex",
                    f"raw std::{m.group(1)} outside common/mutex.h; use the "
                    "annotated atmx::Mutex/MutexLock/CondVar wrappers"))
    return violations


# --------------------------------------------------------------------------
# Check: nodiscard-status

STATUS_DECL_RE = re.compile(
    r"^\s*(?P<nodiscard>\[\[nodiscard\]\]\s+)?(?:static\s+|virtual\s+)?"
    r"(?:Status|Result<[\w:<>,\s]+>)\s+(?P<name>\w+)\s*\(",
)


def collect_status_apis(repo: str) -> List[tuple]:
    """(path, line, name, has_nodiscard) for Status/Result-returning
    function declarations in src/ headers (status.h itself exempt: its
    class-level [[nodiscard]] covers the factory methods)."""
    apis = []
    for path in iter_files(repo, "src", (".h",)):
        if path.endswith(os.path.join("common", "status.h")):
            continue
        code = strip_comments_and_strings(read(path))
        for lineno, line in enumerate(code.splitlines(), start=1):
            m = STATUS_DECL_RE.match(line)
            if m:
                apis.append((path, lineno, m.group("name"),
                             m.group("nodiscard") is not None))
    return apis


def check_nodiscard_status(repo: str) -> List[Violation]:
    violations = []
    status_h = os.path.join(repo, "src", "common", "status.h")
    text = read(status_h)
    for cls in ("Status", "Result"):
        if not re.search(r"class\s+\[\[nodiscard\]\]\s+" + cls + r"\b", text):
            violations.append(Violation(
                status_h, 0, "nodiscard-status",
                f"class {cls} lost its [[nodiscard]] attribute"))

    apis = collect_status_apis(repo)
    for path, lineno, name, has_nodiscard in apis:
        if not has_nodiscard:
            violations.append(Violation(
                path, lineno, "nodiscard-status",
                f"Status/Result-returning '{name}' missing [[nodiscard]]"))

    # Discard / laundering scan over src/ implementation files. A bare
    # `Foo(...);` expression statement calling a known Status API drops the
    # result; `(void)Foo(...)` launders it past the compiler. Both are
    # banned in src/ (tests may launder deliberately-failing calls).
    names = sorted({name for _, _, name, _ in apis})
    if names:
        alt = "|".join(map(re.escape, names))
        discard_re = re.compile(
            r"^\s*(?:\w+(?:\.|->))*(?:" + alt + r")\s*\(")
        launder_re = re.compile(
            r"\(\s*void\s*\)\s*(?:\w+(?:\.|->))*(?:" + alt + r")\s*\(")
        for path in iter_files(repo, "src", (".cc",)):
            code = strip_comments_and_strings(read(path))
            for lineno, line in enumerate(code.splitlines(), start=1):
                if launder_re.search(line):
                    violations.append(Violation(
                        path, lineno, "nodiscard-status",
                        "(void)-laundered Status result in src/; handle or "
                        "propagate the Status instead"))
                    continue
                if not discard_re.match(line):
                    continue
                # Expression statements only: a used value appears after
                # `=`, `return`, or inside a condition/macro.
                stripped = line.strip()
                if not stripped.endswith(";"):
                    continue
                if re.search(r"\b(return|if|while|for)\b|=", line):
                    continue
                violations.append(Violation(
                    path, lineno, "nodiscard-status",
                    "discarded Status-returning call"))
    return violations


# --------------------------------------------------------------------------
# Check: fp-contract

FMA_RE = re.compile(
    r"(std\s*::\s*fmaf?\b|(?<![\w.])fmaf?\s*\(|_mm\d*_(fmadd|fmsub|fnmadd|"
    r"fnmsub)_\w+|vfma\w*\b)"
)
FP_CONTRACT_PRAGMA_RE = re.compile(
    r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+(\w+)")
SOURCE_PROPERTIES_RE = re.compile(
    r"set_source_files_properties\s*\(([^)]*)\)", re.S)

# TUs under src/kernels/simd/ that hold no kernel arithmetic and so need
# no per-file compile options (the dispatcher only resolves levels).
FP_CONTRACT_EXEMPT_TUS = frozenset({"simd_dispatch.cc"})


def check_fp_contract(repo: str) -> List[Violation]:
    violations = []
    simd_dir = os.path.join("src", "kernels", "simd")
    for path in iter_files(repo, simd_dir, (".h", ".cc")):
        raw = read(path)
        code = strip_comments_and_strings(raw)
        for lineno, line in enumerate(code.splitlines(), start=1):
            if FMA_RE.search(line):
                violations.append(Violation(
                    path, lineno, "fp-contract",
                    "FMA use in a SIMD kernel TU breaks the bitwise "
                    "cross-level identity contract (docs/KERNELS.md)"))
        # Pragmas survive in the raw text (the stripper does not blank
        # preprocessor lines, but scan raw to be safe against format).
        for lineno, line in enumerate(raw.splitlines(), start=1):
            m = FP_CONTRACT_PRAGMA_RE.search(line)
            if m and m.group(1).upper() != "OFF":
                violations.append(Violation(
                    path, lineno, "fp-contract",
                    f"FP_CONTRACT {m.group(1)} pragma; only OFF is allowed "
                    "in SIMD kernel TUs"))
    cmake = os.path.join(repo, "src", "CMakeLists.txt")
    text = read(cmake)
    for var in ("ATMX_PORTABLE_KERNEL_OPTIONS", "ATMX_AVX2_KERNEL_OPTIONS"):
        if not re.search(
                r"list\(APPEND\s+" + var + r"\s+\"-ffp-contract=off\"\)",
                text):
            violations.append(Violation(
                cmake, 0, "fp-contract",
                f"{var} no longer appends -ffp-contract=off; the SIMD "
                "bitwise-identity contract needs it"))
    # Every kernel TU must be claimed by a set_source_files_properties
    # block that applies one of the *_KERNEL_OPTIONS lists; otherwise a
    # newly added TU (the SpMM panel family was one) compiles with the
    # compiler's default contraction and silently breaks the contract.
    covered = set()
    for m in SOURCE_PROPERTIES_RE.finditer(text):
        block = m.group(1)
        if "KERNEL_OPTIONS" not in block:
            continue
        covered.update(re.findall(r"kernels/simd/[\w./-]+\.cc", block))
    for path in iter_files(repo, simd_dir, (".cc",)):
        name = os.path.basename(path)
        if name in FP_CONTRACT_EXEMPT_TUS:
            continue
        rel = "kernels/simd/" + name
        if rel not in covered:
            violations.append(Violation(
                cmake, 0, "fp-contract",
                f"{rel} has no set_source_files_properties entry applying "
                "a *_KERNEL_OPTIONS list; kernel TUs must compile with "
                "-ffp-contract=off"))
    return violations


# --------------------------------------------------------------------------
# Check: lock-order-doc

def check_lock_order_doc(repo: str) -> List[Violation]:
    trace_h = os.path.join(repo, "src", "obs", "trace.h")
    text = read(trace_h)
    if "LOCK ORDER: registry_mutex_ strictly before any shard" not in text:
        return [Violation(
            trace_h, 0, "lock-order-doc",
            "the documented registry-before-shard lock order comment is "
            "gone; restore it (the order cannot be expressed with "
            "ATMX_ACQUIRED_AFTER because shard mutexes are dynamic)")]
    return []


# --------------------------------------------------------------------------
# Check: no-lock-across-callback

LOCK_DECL_RE = re.compile(r"\bMutexLock\s+\w+\s*[({]")
CALLBACK_CALL_RE = re.compile(
    r"(?:(?<![\w.>:])(?:run|fn|cost_of|home_of|callback)\s*\(|"
    r"\(\s*\*\s*job\s*\)\s*\()")
# Blocking socket syscalls that must not run under the stats-server
# lifecycle mutex. The lookbehind rejects member calls (`x.send(`,
# `p->send(`) but accepts the bare and `::`-qualified forms the file
# uses. shutdown/close are deliberately absent: Stop() calls them under
# mu_ to unblock the listener, which is the point of the discipline.
SOCKET_CALL_RE = re.compile(
    r"(?<![\w.>])(?:accept|recv|send|sendto|write)\s*\(")
SOCKET_CHECKED_FILES = (os.path.join("obs", "stats_server.cc"),)


def check_no_lock_across_callback(repo: str) -> List[Violation]:
    violations = []
    for path in iter_files(repo, "src", (".cc", ".h")):
        socket_checked = any(path.endswith(f) for f in SOCKET_CHECKED_FILES)
        code = strip_comments_and_strings(read(path))
        depth = 0
        lock_depths: List[int] = []  # brace depth at each active MutexLock
        for lineno, line in enumerate(code.splitlines(), start=1):
            # A lock declared on this line guards until its scope closes.
            # Process closing braces first so a `}` on the declaration line
            # of an outer scope is handled in order; this line-granular
            # model is exact for the repo's one-statement-per-line style.
            for ch in line:
                if ch == "}":
                    depth -= 1
                    while lock_depths and lock_depths[-1] > depth:
                        lock_depths.pop()
                elif ch == "{":
                    depth += 1
            if lock_depths and CALLBACK_CALL_RE.search(line):
                violations.append(Violation(
                    path, lineno, "no-lock-across-callback",
                    "user-supplied callback invoked while a MutexLock is "
                    "held; unlock before invoking (lock -> pop -> unlock "
                    "-> invoke)"))
            if lock_depths and socket_checked and SOCKET_CALL_RE.search(line):
                violations.append(Violation(
                    path, lineno, "no-lock-across-callback",
                    "blocking socket call under a held MutexLock in the "
                    "stats server; a stuck client could wedge Start/Stop "
                    "(release mu_ before accept/recv/send)"))
            if LOCK_DECL_RE.search(line):
                lock_depths.append(depth)
        # (unbalanced braces reset naturally at EOF; next file restarts)
    return violations


# --------------------------------------------------------------------------
# Check: no-lock-across-file-io

# File I/O that must not run under the audit-ledger mutex: a slow disk
# (or a pathological path like an NFS mount) would stall every recording
# thread behind the flush. The contract is snapshot-under-lock,
# serialize-and-write lock-free (see AuditLedger::WriteJson). Same
# line-granular brace-depth model as the callback/socket rule above;
# the lookbehind rejects member calls but accepts bare and
# `std::`-qualified forms.
FILE_IO_CALL_RE = re.compile(
    r"(?<![\w.>])(?:fopen|fwrite|fprintf|fputs|fflush|fclose)\s*\(")
FILE_IO_CHECKED_FILES = (os.path.join("obs", "audit_ledger.cc"),)


def check_no_lock_across_file_io(repo: str) -> List[Violation]:
    violations = []
    for path in iter_files(repo, "src", (".cc", ".h")):
        if not any(path.endswith(f) for f in FILE_IO_CHECKED_FILES):
            continue
        code = strip_comments_and_strings(read(path))
        depth = 0
        lock_depths: List[int] = []  # brace depth at each active MutexLock
        for lineno, line in enumerate(code.splitlines(), start=1):
            for ch in line:
                if ch == "}":
                    depth -= 1
                    while lock_depths and lock_depths[-1] > depth:
                        lock_depths.pop()
                elif ch == "{":
                    depth += 1
            if lock_depths and FILE_IO_CALL_RE.search(line):
                violations.append(Violation(
                    path, lineno, "no-lock-across-file-io",
                    "file I/O under a held MutexLock in a ledger write "
                    "path; snapshot under the lock, then render and write "
                    "with no lock held"))
            if LOCK_DECL_RE.search(line):
                lock_depths.append(depth)
    return violations


# --------------------------------------------------------------------------
# Check: single-decision-site

DECISION_CALL_RE = re.compile(r"\bDecidePairRepresentations\s*\(")
DECISION_DECL_RE = re.compile(r"\bPairDecision\s+$")
DECISION_SITES = (
    os.path.join("ops", "optimizer.cc"),
    os.path.join("ops", "product_task.cc"),
    os.path.join("obs", "audit_ledger.cc"),
)


def check_single_decision_site(repo: str) -> List[Violation]:
    violations = []
    for path in iter_files(repo, "src", (".cc", ".h")):
        rel = os.path.relpath(path, os.path.join(repo, "src"))
        if rel in DECISION_SITES:
            continue
        code = strip_comments_and_strings(read(path))
        for m in DECISION_CALL_RE.finditer(code):
            # The declaration names the function after its return type.
            if DECISION_DECL_RE.search(code, max(0, m.start() - 40),
                                       m.start()):
                continue
            violations.append(Violation(
                path, code.count("\n", 0, m.start()) + 1,
                "single-decision-site",
                "DecidePairRepresentations called outside the pair planner "
                "(ops/product_task.cc) and the audit replay; plan pairs "
                "with PlanTileTask so EXPLAIN and execution share one "
                "decision loop"))
    return violations


# --------------------------------------------------------------------------
# Optional clang-query pass

def run_clang_query(repo: str, build_dir: str) -> int:
    """Best-effort AST pass; returns the number of reported matches."""
    tool = shutil.which("clang-query")
    if tool is None:
        print("atmx_lint: clang-query not found; skipping AST pass "
              "(the pure-Python checks above are authoritative)",
              file=sys.stderr)
        return 0
    queries = iter_files(repo, os.path.join("tools", "lint_queries"),
                         (".query",))
    sources = [p for p in iter_files(repo, "src", (".cc",))
               if not p.endswith(os.path.join("common", "mutex.cc"))]
    matches = 0
    for query in queries:
        cmd = [tool, "-p", build_dir, "-f", query] + sources
        proc = subprocess.run(cmd, capture_output=True, text=True)
        out = proc.stdout
        # clang-query prints "N matches." per run plus one location line
        # per match; surface everything and count non-zero totals.
        for line in out.splitlines():
            m = re.match(r"(\d+) match(es)?\.", line.strip())
            if m and int(m.group(1)) > 0:
                matches += int(m.group(1))
        if out.strip():
            print(f"--- clang-query: {os.path.basename(query)} ---")
            print(out)
    return matches


# --------------------------------------------------------------------------

CHECKS: dict = {
    "no-raw-mutex": check_no_raw_mutex,
    "nodiscard-status": check_nodiscard_status,
    "fp-contract": check_fp_contract,
    "lock-order-doc": check_lock_order_doc,
    "no-lock-across-callback": check_no_lock_across_callback,
    "no-lock-across-file-io": check_no_lock_across_file_io,
    "single-decision-site": check_single_decision_site,
}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--check", action="append", choices=sorted(CHECKS),
                        help="run only the named check (repeatable)")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--build-dir", default=None,
                        help="build tree with compile_commands.json; "
                             "enables the optional clang-query AST pass")
    args = parser.parse_args(argv)

    if args.list_checks:
        for name in sorted(CHECKS):
            print(name)
        return 0

    repo = args.repo or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(repo, "src")):
        print(f"atmx_lint: no src/ under {repo}", file=sys.stderr)
        return 2

    selected = args.check or sorted(CHECKS)
    violations: List[Violation] = []
    for name in selected:
        violations.extend(CHECKS[name](repo))

    for v in sorted(violations):
        print(v.render(repo))

    query_matches = 0
    if args.build_dir:
        query_matches = run_clang_query(repo, args.build_dir)

    if violations or query_matches:
        print(f"atmx_lint: {len(violations)} violation(s)"
              + (f", {query_matches} clang-query match(es)"
                 if query_matches else ""),
              file=sys.stderr)
        return 1
    print(f"atmx_lint: clean ({', '.join(selected)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
