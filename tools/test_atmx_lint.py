#!/usr/bin/env python3
"""Unit tests for atmx_lint.py: every invariant check must (a) fire on a
minimal synthetic violation and (b) stay quiet on the equivalent clean
code, and the real repository must lint clean.

Run directly (`python3 tools/test_atmx_lint.py`) or via ctest, which
registers this file when a Python3 interpreter is found.
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import atmx_lint  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeRepo:
    """A throwaway tree with the minimal layout the checks expect."""

    def __init__(self):
        self.root = tempfile.mkdtemp(prefix="atmx_lint_test_")
        # Baseline files the cross-file checks read unconditionally.
        self.write("src/common/status.h", (
            "class [[nodiscard]] Status {};\n"
            "template <typename T> class [[nodiscard]] Result {};\n"))
        self.write("src/common/mutex.h", "class Mutex {};\n")
        self.write("src/common/thread_annotations.h", "#define X\n")
        self.write("src/obs/trace.h", (
            "// LOCK ORDER: registry_mutex_ strictly before any shard\n"
            "// `mutex`.\n"))
        self.write("src/CMakeLists.txt", (
            'list(APPEND ATMX_PORTABLE_KERNEL_OPTIONS "-ffp-contract=off")\n'
            'list(APPEND ATMX_AVX2_KERNEL_OPTIONS "-ffp-contract=off")\n'
            "set_source_files_properties(\n"
            "  kernels/simd/ok.cc\n"
            "  kernels/simd/bad.cc\n"
            '  PROPERTIES COMPILE_OPTIONS "${ATMX_PORTABLE_KERNEL_OPTIONS}")'
            "\n"))

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        return path

    def destroy(self):
        shutil.rmtree(self.root, ignore_errors=True)


class LintCheckTest(unittest.TestCase):
    def setUp(self):
        self.repo = FakeRepo()
        self.addCleanup(self.repo.destroy)

    def run_check(self, name):
        return atmx_lint.CHECKS[name](self.repo.root)

    # -- no-raw-mutex ------------------------------------------------------

    def test_raw_mutex_flagged(self):
        self.repo.write("src/foo/bar.cc",
                        "#include <mutex>\nstd::mutex mu;\n"
                        "void F() { std::lock_guard<std::mutex> l(mu); }\n")
        v = self.run_check("no-raw-mutex")
        self.assertEqual(len(v), 3)  # mutex, lock_guard, nested std::mutex
        self.assertTrue(all(x.check == "no-raw-mutex" for x in v))

    def test_raw_condvar_flagged(self):
        self.repo.write("src/foo/bar.h", "std::condition_variable cv;\n")
        self.assertEqual(len(self.run_check("no-raw-mutex")), 1)

    def test_wrapper_file_allowed(self):
        self.repo.write("src/common/mutex.h",
                        "#include <mutex>\nclass Mutex { std::mutex m_; };\n")
        self.assertEqual(self.run_check("no-raw-mutex"), [])

    def test_mention_in_comment_or_string_ignored(self):
        self.repo.write("src/foo/doc.cc",
                        "// std::mutex is banned here\n"
                        'const char* kMsg = "std::lock_guard";\n')
        self.assertEqual(self.run_check("no-raw-mutex"), [])

    def test_atmx_wrappers_clean(self):
        self.repo.write("src/foo/ok.cc",
                        "void F() { MutexLock lock(mu_); }\n")
        self.assertEqual(self.run_check("no-raw-mutex"), [])

    # -- nodiscard-status --------------------------------------------------

    def test_status_class_attribute_required(self):
        self.repo.write("src/common/status.h",
                        "class Status {};\n"
                        "template <typename T> class Result {};\n")
        v = self.run_check("nodiscard-status")
        self.assertEqual(len(v), 2)

    def test_unmarked_api_flagged(self):
        self.repo.write("src/io/io.h", "Status Save(const int& x);\n")
        v = self.run_check("nodiscard-status")
        self.assertEqual(len(v), 1)
        self.assertIn("missing [[nodiscard]]", v[0].message)

    def test_marked_api_clean(self):
        self.repo.write("src/io/io.h",
                        "[[nodiscard]] Status Save(const int& x);\n"
                        "[[nodiscard]] Result<int> Load(const char* p);\n")
        self.assertEqual(self.run_check("nodiscard-status"), [])

    def test_discarded_call_flagged(self):
        self.repo.write("src/io/io.h", "[[nodiscard]] Status Save(int x);\n")
        self.repo.write("src/io/use.cc", "void F() {\n  Save(1);\n}\n")
        v = self.run_check("nodiscard-status")
        self.assertEqual(len(v), 1)
        self.assertIn("discarded", v[0].message)

    def test_laundered_call_flagged(self):
        self.repo.write("src/io/io.h", "[[nodiscard]] Status Save(int x);\n")
        self.repo.write("src/io/use.cc", "void F() { (void)Save(1); }\n")
        v = self.run_check("nodiscard-status")
        self.assertEqual(len(v), 1)
        self.assertIn("laundered", v[0].message)

    def test_consumed_call_clean(self):
        self.repo.write("src/io/io.h", "[[nodiscard]] Status Save(int x);\n")
        self.repo.write("src/io/use.cc", (
            "void F() {\n"
            "  Status s = Save(1);\n"
            "  if (!Save(2).ok()) return;\n"
            "  return Save(3);\n"
            "}\n"))
        self.assertEqual(self.run_check("nodiscard-status"), [])

    # -- fp-contract -------------------------------------------------------

    def test_std_fma_flagged(self):
        self.repo.write("src/kernels/simd/bad.cc",
                        "double F(double a, double b, double c) {\n"
                        "  return std::fma(a, b, c);\n}\n")
        v = self.run_check("fp-contract")
        self.assertEqual(len(v), 1)

    def test_fma_intrinsic_flagged(self):
        self.repo.write("src/kernels/simd/bad.cc",
                        "__m256d F(__m256d a, __m256d b, __m256d c) {\n"
                        "  return _mm256_fmadd_pd(a, b, c);\n}\n")
        self.assertEqual(len(self.run_check("fp-contract")), 1)

    def test_fp_contract_pragma_on_flagged(self):
        self.repo.write("src/kernels/simd/bad.cc",
                        "#pragma STDC FP_CONTRACT ON\n")
        self.assertEqual(len(self.run_check("fp-contract")), 1)

    def test_fp_contract_pragma_off_allowed(self):
        self.repo.write("src/kernels/simd/ok.cc",
                        "#pragma STDC FP_CONTRACT OFF\n"
                        "double F(double a, double b) { return a * b; }\n")
        self.assertEqual(self.run_check("fp-contract"), [])

    def test_fma_in_comment_or_flagstring_ignored(self):
        self.repo.write("src/kernels/simd/ok.cc",
                        "// compiled with -mavx2 -mfma\n"
                        'bool F() { return cpu_supports("fma"); }\n')
        self.assertEqual(self.run_check("fp-contract"), [])

    def test_cmake_flag_removal_flagged(self):
        self.repo.write("src/CMakeLists.txt",
                        'list(APPEND ATMX_AVX2_KERNEL_OPTIONS "-mavx2")\n')
        v = self.run_check("fp-contract")
        self.assertEqual(len(v), 2)  # both option lists lost the flag

    def test_uncovered_kernel_tu_flagged(self):
        # A new kernel TU with no set_source_files_properties entry would
        # compile with the compiler's default contraction.
        self.repo.write("src/kernels/simd/simd_new_family.cc",
                        "double F(double a, double b) { return a * b; }\n")
        v = self.run_check("fp-contract")
        self.assertEqual(len(v), 1)
        self.assertIn("simd_new_family.cc", v[0].message)

    def test_dispatcher_tu_exempt_from_coverage(self):
        self.repo.write("src/kernels/simd/simd_dispatch.cc",
                        "int ActiveLevel() { return 1; }\n")
        self.assertEqual(self.run_check("fp-contract"), [])

    # -- lock-order-doc ----------------------------------------------------

    def test_lock_order_comment_removal_flagged(self):
        self.repo.write("src/obs/trace.h", "struct ThreadBuffer {};\n")
        self.assertEqual(len(self.run_check("lock-order-doc")), 1)

    def test_lock_order_comment_present_clean(self):
        self.assertEqual(self.run_check("lock-order-doc"), [])

    # -- no-lock-across-callback -------------------------------------------

    def test_callback_under_lock_flagged(self):
        self.repo.write("src/sched/bad.cc", (
            "void Drain(const std::function<void(int)>& run) {\n"
            "  MutexLock lock(mu_);\n"
            "  run(0);\n"
            "}\n"))
        v = self.run_check("no-lock-across-callback")
        self.assertEqual(len(v), 1)

    def test_job_pointer_under_lock_flagged(self):
        self.repo.write("src/sched/bad.cc", (
            "void Loop() {\n"
            "  MutexLock lock(mu_);\n"
            "  (*job)(1);\n"
            "}\n"))
        self.assertEqual(len(self.run_check("no-lock-across-callback")), 1)

    def test_callback_after_scope_close_clean(self):
        self.repo.write("src/sched/ok.cc", (
            "void Drain(const std::function<void(int)>& run) {\n"
            "  int task;\n"
            "  {\n"
            "    MutexLock lock(mu_);\n"
            "    task = q_.front();\n"
            "  }\n"
            "  run(task);\n"
            "}\n"))
        self.assertEqual(self.run_check("no-lock-across-callback"), [])

    def test_non_callback_call_under_lock_clean(self):
        self.repo.write("src/sched/ok.cc", (
            "void Drain() {\n"
            "  MutexLock lock(mu_);\n"
            "  q_.push_back(1);\n"
            "  Refill(3);\n"
            "}\n"))
        self.assertEqual(self.run_check("no-lock-across-callback"), [])

    def test_socket_call_under_lock_flagged(self):
        self.repo.write("src/obs/stats_server.cc", (
            "void StatsServer::ThreadMain() {\n"
            "  MutexLock lock(mu_);\n"
            "  const int fd = accept(listen_fd, nullptr, nullptr);\n"
            "  send(fd, body.data(), body.size(), 0);\n"
            "}\n"))
        v = self.run_check("no-lock-across-callback")
        self.assertEqual(len(v), 2)
        self.assertIn("socket call", v[0].message)

    def test_socket_call_outside_lock_clean(self):
        self.repo.write("src/obs/stats_server.cc", (
            "void StatsServer::ThreadMain() {\n"
            "  {\n"
            "    MutexLock lock(mu_);\n"
            "    running_ = true;\n"
            "  }\n"
            "  const int fd = accept(listen_fd, nullptr, nullptr);\n"
            "  send(fd, body.data(), body.size(), 0);\n"
            "}\n"))
        self.assertEqual(self.run_check("no-lock-across-callback"), [])

    def test_shutdown_under_lock_allowed(self):
        # Stop() holds mu_ while shutting the listener down — that is how
        # it unblocks accept, and the check must not ban it.
        self.repo.write("src/obs/stats_server.cc", (
            "void StatsServer::Stop() {\n"
            "  MutexLock lock(mu_);\n"
            "  shutdown(fd, SHUT_RDWR);\n"
            "  close(fd);\n"
            "}\n"))
        self.assertEqual(self.run_check("no-lock-across-callback"), [])

    def test_socket_call_under_lock_other_file_not_flagged(self):
        # The socket rule is scoped to the stats server; write() on a
        # plain fd elsewhere under a lock is out of its jurisdiction.
        self.repo.write("src/io/ok.cc", (
            "void Flush() {\n"
            "  MutexLock lock(mu_);\n"
            "  write(fd_, buf, n);\n"
            "}\n"))
        self.assertEqual(self.run_check("no-lock-across-callback"), [])

    def test_member_named_send_under_lock_clean(self):
        self.repo.write("src/obs/stats_server.cc", (
            "void StatsServer::Poke() {\n"
            "  MutexLock lock(mu_);\n"
            "  channel_.send(1);\n"
            "}\n"))
        self.assertEqual(self.run_check("no-lock-across-callback"), [])

    # -- no-lock-across-file-io --------------------------------------------

    def test_file_io_under_lock_flagged(self):
        self.repo.write("src/obs/audit_ledger.cc", (
            "Status AuditLedger::WriteJson(const std::string& path) {\n"
            "  MutexLock lock(mutex_);\n"
            "  std::FILE* f = std::fopen(path.c_str(), \"w\");\n"
            "  fwrite(json.data(), 1, json.size(), f);\n"
            "  fclose(f);\n"
            "}\n"))
        v = self.run_check("no-lock-across-file-io")
        self.assertEqual(len(v), 3)
        self.assertIn("file I/O", v[0].message)
        self.assertEqual(v[0].line, 3)

    def test_snapshot_then_lock_free_write_clean(self):
        # The intended shape: the lock scope only copies, the I/O runs
        # after it closes.
        self.repo.write("src/obs/audit_ledger.cc", (
            "Status AuditLedger::WriteJson(const std::string& path) {\n"
            "  std::string json;\n"
            "  {\n"
            "    MutexLock lock(mutex_);\n"
            "    json = RenderAuditLedgerJson(doc_);\n"
            "  }\n"
            "  std::FILE* f = std::fopen(path.c_str(), \"w\");\n"
            "  fwrite(json.data(), 1, json.size(), f);\n"
            "  fclose(f);\n"
            "}\n"))
        self.assertEqual(self.run_check("no-lock-across-file-io"), [])

    def test_file_io_under_lock_other_file_not_flagged(self):
        # The rule is scoped to the ledger write paths; fprintf elsewhere
        # under a lock is another rule's (or reviewer's) problem.
        self.repo.write("src/io/log.cc", (
            "void Log() {\n"
            "  MutexLock lock(mu_);\n"
            "  fprintf(stderr, \"x\");\n"
            "}\n"))
        self.assertEqual(self.run_check("no-lock-across-file-io"), [])

    def test_member_named_fflush_under_lock_clean(self):
        self.repo.write("src/obs/audit_ledger.cc", (
            "void AuditLedger::Tick() {\n"
            "  MutexLock lock(mutex_);\n"
            "  sink_.fflush(1);\n"
            "  sink_->fclose();\n"
            "}\n"))
        self.assertEqual(self.run_check("no-lock-across-file-io"), [])

    def test_file_io_mention_in_comment_ignored(self):
        self.repo.write("src/obs/audit_ledger.cc", (
            "void AuditLedger::Note() {\n"
            "  MutexLock lock(mutex_);\n"
            "  // fopen() here would stall every recording thread\n"
            "  counter_++;\n"
            "}\n"))
        self.assertEqual(self.run_check("no-lock-across-file-io"), [])

    # -- single-decision-site ----------------------------------------------

    def test_second_decision_loop_flagged(self):
        self.repo.write("src/ops/explain.cc", (
            "MultiplyPlan ExplainMultiply() {\n"
            "  const PairDecision d = DecidePairRepresentations(\n"
            "      model, shape, false, false, false, false, c, true);\n"
            "}\n"))
        v = self.run_check("single-decision-site")
        self.assertEqual(len(v), 1)
        self.assertEqual(v[0].line, 2)
        self.assertIn("pair planner", v[0].message)

    def test_decision_sites_and_declaration_clean(self):
        call = "  DecidePairRepresentations(m, s, a, b, ac, bc, c, true);\n"
        for rel in ("src/ops/optimizer.cc", "src/ops/product_task.cc",
                    "src/obs/audit_ledger.cc"):
            self.repo.write(rel, "void F() {\n" + call + "}\n")
        self.repo.write("src/ops/optimizer.h", (
            "// DecidePairRepresentations(...) picks the kernel.\n"
            "PairDecision DecidePairRepresentations(const CostModel& model,\n"
            "                                       bool allow_conversion);\n"))
        self.assertEqual(self.run_check("single-decision-site"), [])


class RealRepoTest(unittest.TestCase):
    """The actual repository must satisfy every invariant."""

    def test_repo_is_clean(self):
        for name, check in sorted(atmx_lint.CHECKS.items()):
            violations = check(REPO)
            rendered = "\n".join(v.render(REPO) for v in violations)
            self.assertEqual(
                violations, [],
                f"check '{name}' found violations in the repo:\n{rendered}")

    def test_main_exit_zero(self):
        self.assertEqual(atmx_lint.main(["--repo", REPO]), 0)


class StripperTest(unittest.TestCase):
    def test_preserves_line_numbers(self):
        text = 'a /* x\ny */ b\n// c\n"s\\"tr"\n'
        stripped = atmx_lint.strip_comments_and_strings(text)
        self.assertEqual(stripped.count("\n"), text.count("\n"))
        self.assertNotIn("str", stripped)
        self.assertNotIn("x", stripped.splitlines()[0])


if __name__ == "__main__":
    unittest.main()
