#!/usr/bin/env python3
"""Unit tests for tools/gt_lint.py: one synthetic violation per rule,
plus the suppression and ratchet-baseline mechanics.

Each test builds a miniature repo tree in a temp dir and runs the linter
over it, so the tests prove every rule actually fires - a linter whose
rules silently stopped matching would pass on the real tree for the
wrong reason.
"""

import importlib.util
import os
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_spec = importlib.util.spec_from_file_location(
    "gt_lint", os.path.join(REPO_ROOT, "tools", "gt_lint.py"))
gt_lint = importlib.util.module_from_spec(_spec)
sys.modules["gt_lint"] = gt_lint
_spec.loader.exec_module(gt_lint)


class MiniTree:
    """Builds a throwaway src/ tree and lints it."""

    def __init__(self):
        self._dir = tempfile.TemporaryDirectory(prefix="gt_lint_test_")
        self.root = self._dir.name

    def write(self, relpath, text):
        full = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(text)
        return relpath

    def lint(self, relpath):
        findings = gt_lint.LexEngine(self.root).lint_file(relpath)
        with open(os.path.join(self.root, relpath), encoding="utf-8") as fh:
            allow = {relpath: gt_lint.collect_suppressions(fh.read())}
        kept, bad = gt_lint.apply_suppressions(findings, allow)
        return kept, bad

    def cleanup(self):
        self._dir.cleanup()


def rules_of(findings):
    return sorted({f.rule for f in findings})


class RuleTests(unittest.TestCase):
    """Every rule must fire on a synthetic violation."""

    def setUp(self):
        self.tree = MiniTree()
        self.addCleanup(self.tree.cleanup)

    def check_fires(self, relpath, text, rule, clean_variant=None):
        rel = self.tree.write(relpath, text)
        kept, _ = self.tree.lint(rel)
        self.assertIn(rule, rules_of(kept), f"{rule} did not fire: {kept}")
        if clean_variant is not None:
            rel2 = self.tree.write(relpath, clean_variant)
            kept, _ = self.tree.lint(rel2)
            self.assertNotIn(rule, rules_of(kept), f"{rule} false positive: {kept}")

    def test_nondet_call_fires_in_emit_path(self):
        self.check_fires(
            "src/stats/report.cc",
            """
            struct Report {
              int WriteSummary() {
                return rand();
              }
            };
            """,
            "nondet-call",
            clean_variant="""
            struct Report {
              int WriteSummary() { return 7; }
              int Shuffle() { return rand(); }  // not an emit path
            };
            """)

    def test_nondet_call_flags_wall_clock_type(self):
        self.check_fires(
            "src/core/emit.cc",
            """
            #include <chrono>
            double EmitTimestamp() {
              return std::chrono::duration<double>(
                  std::chrono::system_clock::now().time_since_epoch()).count();
            }
            """,
            "nondet-call")

    def test_nondet_iteration_fires_on_range_for(self):
        self.check_fires(
            "src/trace/agg.cc",
            """
            #include <unordered_map>
            struct Agg {
              std::unordered_map<int, int> cells_;
              int total = 0;
              void MergeInto() {
                for (const auto& [k, v] : cells_) total += v * k;
              }
            };
            """,
            "nondet-iteration",
            clean_variant="""
            #include <map>
            struct Agg {
              std::map<int, int> cells_;
              int total = 0;
              void MergeInto() {
                for (const auto& [k, v] : cells_) total += v * k;
              }
            };
            """)

    def test_nondet_iteration_fires_on_begin_end(self):
        self.check_fires(
            "src/trace/agg2.cc",
            """
            #include <unordered_set>
            #include <vector>
            struct Agg {
              std::unordered_set<int> seen_;
              std::vector<int> ToSorted() {
                return std::vector<int>(seen_.begin(), seen_.end());
              }
            };
            """,
            "nondet-iteration")

    def test_nondet_iteration_covers_sketch_and_ring_paths(self):
        """The streaming-sketch verbs (Quantile/Collapse/Fold/Advance/Push/
        Evict) are emit paths: hash-order iteration there reaches merged
        snapshots exactly like it would from a Write or Merge."""
        for verb in ("Quantile", "CollapseToBound", "FoldInto",
                     "AdvanceTo", "PushSample", "EvictFront"):
            self.assertTrue(
                gt_lint.EMIT_FUNC_RE.match(verb),
                f"{verb} must be classified as a report/merge/emit path")
        self.check_fires(
            "src/stats/sketchy.cc",
            """
            #include <unordered_map>
            struct Sketchy {
              std::unordered_map<int, double> buckets_;
              double total = 0;
              void AdvanceTo() {
                for (const auto& [k, v] : buckets_) total += v;
              }
            };
            """,
            "nondet-iteration",
            clean_variant="""
            #include <map>
            struct Sketchy {
              std::map<int, double> buckets_;
              double total = 0;
              void AdvanceTo() {
                for (const auto& [k, v] : buckets_) total += v;
              }
            };
            """)

    def test_nondet_call_covers_sketch_and_ring_paths(self):
        self.check_fires(
            "src/stats/ringy.cc",
            """
            #include <ctime>
            struct Ringy {
              long stamp = 0;
              void PushSample() { stamp = time(nullptr); }
            };
            """,
            "nondet-call")

    def test_nondet_iteration_sees_members_from_paired_header(self):
        self.tree.write(
            "src/trace/split.h",
            """
            #include <unordered_map>
            struct Split {
              void MergeCounts();
              std::unordered_map<int, long> counts_;
              long total_ = 0;
            };
            """)
        self.check_fires(
            "src/trace/split.cc",
            """
            #include "trace/split.h"
            void Split::MergeCounts() {
              for (const auto& [k, v] : counts_) total_ += v;
            }
            """,
            "nondet-iteration")

    def test_sink_tier_rejects_record_adapter_overrides(self):
        self.check_fires(
            "src/trace/sinks.h",
            """
            struct PacketRecord {};
            struct PacketBatch {};
            class CaptureSink {
             public:
              virtual ~CaptureSink() = default;
              virtual void OnColumns(const PacketBatch&) = 0;
              virtual void OnPacket(const PacketRecord&) {}
              virtual void OnBatch(const PacketRecord*) {}
            };
            class ScalarSink : public CaptureSink {
             public:
              void OnColumns(const PacketBatch&) override {}
              void OnPacket(const PacketRecord&) override {}
            };
            """,
            "sink-tier",
            clean_variant="""
            struct PacketRecord {};
            struct PacketBatch {};
            class CaptureSink {
             public:
              virtual ~CaptureSink() = default;
              virtual void OnColumns(const PacketBatch&) = 0;
              virtual void OnPacket(const PacketRecord&) {}
              virtual void OnBatch(const PacketRecord*) {}
            };
            class ColumnSink final : public CaptureSink {
             public:
              void OnColumns(const PacketBatch&) override {}
            };
            """)

    def test_sink_tier_rejects_onbatch_override(self):
        self.check_fires(
            "src/trace/batch.h",
            """
            struct PacketRecord {};
            struct PacketBatch {};
            class CaptureSink {
             public:
              virtual ~CaptureSink() = default;
              virtual void OnColumns(const PacketBatch&) = 0;
              virtual void OnBatch(const PacketRecord*) {}
            };
            class BatchSink : public CaptureSink {
             public:
              void OnColumns(const PacketBatch&) override {}
              void OnBatch(const PacketRecord*) override {}
            };
            """,
            "sink-tier")

    def test_sink_tier_requires_override_keyword(self):
        self.check_fires(
            "src/trace/hiding.h",
            """
            struct PacketBatch {};
            class CaptureSink {
             public:
              virtual ~CaptureSink() = default;
              virtual void OnColumns(const PacketBatch&) = 0;
            };
            class HidingSink : public CaptureSink {
             public:
              void OnColumns(const PacketBatch&) {}
            };
            """,
            "sink-tier")

    def test_raw_contract_fires_on_assert(self):
        self.check_fires(
            "src/core/math.cc",
            """
            #include <cassert>
            int Half(int x) {
              assert(x % 2 == 0);
              return x / 2;
            }
            """,
            "raw-contract",
            clean_variant="""
            static_assert(sizeof(int) == 4, "ILP32/LP64 expected");
            int Half(int x) { return x / 2; }
            """)

    def test_raw_contract_fires_on_foreign_throw(self):
        self.check_fires(
            "src/core/oops.cc",
            """
            #include <stdexcept>
            void Boom() { throw std::runtime_error("nope"); }
            """,
            "raw-contract",
            clean_variant="""
            namespace gametrace::net { struct PcapError { const char* what; }; }
            void Boom() { throw gametrace::net::PcapError{"pcap_open failed"}; }
            void Rethrow() { try { Boom(); } catch (...) { throw; } }
            """)

    def test_raw_mutex_fires_on_std_mutex_member(self):
        self.check_fires(
            "src/core/cache.h",
            """
            #include <mutex>
            struct Cache {
              std::mutex m_;
              int hits_ = 0;
            };
            """,
            "raw-mutex",
            clean_variant="""
            struct Cache {
              int hits_ = 0;
            };
            """)

    def test_raw_mutex_exempts_thread_annotations_header(self):
        rel = self.tree.write(
            "src/core/thread_annotations.h",
            """
            #include <mutex>
            namespace gametrace::core { class Mutex { std::mutex m_; }; }
            """)
        kept, _ = self.tree.lint(rel)
        self.assertNotIn("raw-mutex", rules_of(kept))


    def test_mirrored_count_fires_on_cached_instrument_members(self):
        for member in ("obs::Counter* drops_ = nullptr;",
                       "obs::Counter* packets_[kSegments] = {};",
                       "gametrace::obs::Gauge& high_water_;"):
            self.check_fires(
                "src/router/queue.h",
                f"""
                #include "obs/metrics.h"
                class Queue {{
                 public:
                  void Bind(obs::MetricsRegistry& registry);
                 private:
                  {member}
                }};
                """,
                "mirrored-count",
                clean_variant="""
                #include "obs/metrics.h"
                class Queue {
                 public:
                  void Publish(obs::MetricsRegistry& registry) const {
                    obs::Counter* drops = &registry.counter("q.drops");
                    drops->Add(drops_);
                  }
                  obs::Counter& counter(std::string_view name);
                 private:
                  std::uint64_t drops_ = 0;
                };
                """)

    def test_mirrored_count_exempts_src_obs(self):
        rel = self.tree.write(
            "src/obs/watch.h",
            "struct Watch {\n  obs::Counter* fired_ = nullptr;\n};\n")
        kept, _ = self.tree.lint(rel)
        self.assertNotIn("mirrored-count", rules_of(kept))

    def test_raw_binding_fires_outside_src_obs(self):
        for use in ("const obs::ScopedObsBinding bind({.metrics = &metrics});",
                    "std::optional<gametrace::obs::ScopedObsBinding> binding;"):
            self.check_fires(
                "src/core/fleet.cc",
                f"""
                #include "obs/obs.h"
                void RunShard(obs::MetricsRegistry& metrics) {{
                  {use}
                }}
                """,
                "raw-binding",
                clean_variant="""
                #include "obs/shard_scope.h"
                // A comment may name obs::ScopedObsBinding.
                void RunShard(obs::ShardScope& scope) {
                  const auto bind = scope.Bind();
                }
                """)

    def test_raw_binding_exempts_src_obs_and_other_trees(self):
        for relpath in ("src/obs/exporter.h", "bench/common.h", "tests/obs/obs_test.cc"):
            rel = self.tree.write(
                relpath, "struct S {\n  std::optional<ScopedObsBinding> binding_;\n};\n")
            kept, _ = self.tree.lint(rel)
            self.assertNotIn("raw-binding", rules_of(kept), relpath)

    def test_run_harness_fires_in_bench_and_examples(self):
        for relpath in ("bench/ablation_sweep.cc", "examples/chain.cpp"):
            for call in ("simulator.RunUntil(duration);",
                         "point.metrics().AdvanceRingsTo(duration + 0.05);",
                         "nat.PublishCounts(point.metrics());"):
                self.check_fires(
                    relpath,
                    f"""
                    void RunPoint(double duration) {{
                      {call}
                    }}
                    """,
                    "run-harness",
                    clean_variant="""
                    // A comment may name simulator.RunUntil(duration).
                    void RunPoint(sim::Simulator& simulator, game::CsServer& server) {
                      core::RunHarnessed(simulator, server, {}, "point");
                    }
                    """)

    def test_run_harness_exempts_src_and_tests(self):
        for relpath in ("src/core/experiment.cc", "tests/core/experiment_test.cc"):
            rel = self.tree.write(
                relpath, "void Run(sim::Simulator& s) {\n  s.RunUntil(60.0);\n}\n")
            kept, _ = self.tree.lint(rel)
            self.assertNotIn("run-harness", rules_of(kept), relpath)


class OrphanModuleTests(unittest.TestCase):
    """A src/ header only tests include is dead code."""

    HEADER = "// A module nothing runs.\n#pragma once\nint Lonely();\n"

    def setUp(self):
        self.tree = MiniTree()
        self.addCleanup(self.tree.cleanup)
        self.rel = self.tree.write("src/stats/lonely.h", self.HEADER)
        self.tree.write("src/stats/lonely.cc", '#include "stats/lonely.h"\n')
        self.tree.write("tests/stats/lonely_test.cc", '#include "stats/lonely.h"\n')

    def test_header_included_only_from_tests_fires(self):
        kept, _ = self.tree.lint(self.rel)
        self.assertEqual(rules_of(kept), ["orphan-module"])
        self.assertEqual(kept[0].line, 2)  # anchored on `#pragma once`

    def test_bench_include_keeps_header_alive(self):
        self.tree.write("bench/fig.cc", '#include "common.h"\n#include "stats/lonely.h"\n')
        kept, _ = self.tree.lint(self.rel)
        self.assertEqual(kept, [])

    def test_own_cc_include_does_not_count(self):
        # lonely.cc (setUp) includes the header; an unrelated src/ file
        # that mentions it only in a comment does not count either.
        self.tree.write("src/core/other.cc", '// #include "stats/lonely.h"\n')
        kept, _ = self.tree.lint(self.rel)
        self.assertEqual(rules_of(kept), ["orphan-module"])

    def test_include_from_another_orphan_does_not_count(self):
        self.tree.write("src/core/user.h", '#pragma once\n#include "stats/lonely.h"\n')
        kept, _ = self.tree.lint(self.rel)
        self.assertEqual(rules_of(kept), ["orphan-module"])
        self.tree.write("examples/tool.cpp", '#include "core/user.h"\n')
        kept, _ = self.tree.lint(self.rel)
        self.assertEqual(kept, [])

    def test_justified_allow_suppresses(self):
        self.tree.write(
            self.rel,
            "// gt-lint: allow(orphan-module) verification helper for a paper check\n"
            + self.HEADER)
        kept, bad = self.tree.lint(self.rel)
        self.assertEqual(kept, [])
        self.assertEqual(bad, [])

    def test_unjustified_allow_is_a_bad_suppression(self):
        self.tree.write(self.rel, "#pragma once  // gt-lint: allow(orphan-module)\n")
        kept, bad = self.tree.lint(self.rel)
        self.assertEqual(kept, [])
        self.assertEqual(rules_of(bad), ["orphan-module"])
        self.assertIn("justification", bad[0].message)


class SuppressionTests(unittest.TestCase):
    def setUp(self):
        self.tree = MiniTree()
        self.addCleanup(self.tree.cleanup)
        # Keeps the fixture headers out of orphan-module's way.
        self.tree.write("bench/main.cc", '#include "core/cache.h"\n')

    def test_trailing_allow_suppresses(self):
        rel = self.tree.write(
            "src/core/cache.h",
            "struct C {\n"
            "  std::mutex m_;  // gt-lint: allow(raw-mutex) FFI handoff to a C callback\n"
            "};\n")
        kept, bad = self.tree.lint(rel)
        self.assertEqual(kept, [])
        self.assertEqual(bad, [])

    def test_standalone_allow_covers_wrapped_statement(self):
        rel = self.tree.write(
            "src/trace/agg.cc",
            "#include <unordered_set>\n"
            "#include <vector>\n"
            "struct Agg {\n"
            "  std::unordered_set<int> seen_;\n"
            "  std::vector<int> ToVec() {\n"
            "    // gt-lint: allow(nondet-iteration) consumed by a sorting caller\n"
            "    return std::vector<int>(seen_.begin(),\n"
            "                            seen_.end());\n"
            "  }\n"
            "};\n")
        kept, bad = self.tree.lint(rel)
        self.assertEqual(kept, [])
        self.assertEqual(bad, [])

    def test_unjustified_allow_is_itself_a_finding(self):
        rel = self.tree.write(
            "src/core/cache.h",
            "struct C {\n"
            "  std::mutex m_;  // gt-lint: allow(raw-mutex)\n"
            "};\n")
        kept, bad = self.tree.lint(rel)
        self.assertEqual(kept, [])
        self.assertEqual(len(bad), 1)
        self.assertIn("justification", bad[0].message)

    def test_allow_for_other_rule_does_not_suppress(self):
        rel = self.tree.write(
            "src/core/cache.h",
            "struct C {\n"
            "  std::mutex m_;  // gt-lint: allow(nondet-call) wrong rule named\n"
            "};\n")
        kept, _ = self.tree.lint(rel)
        self.assertEqual(rules_of(kept), ["raw-mutex"])


class BaselineTests(unittest.TestCase):
    """The baseline is a shrink-only ratchet."""

    def setUp(self):
        self.tree = MiniTree()
        self.addCleanup(self.tree.cleanup)
        self.baseline = os.path.join(self.tree.root, "tools", "gt_lint_baseline.txt")
        os.makedirs(os.path.dirname(self.baseline), exist_ok=True)
        self.rel = self.tree.write(
            "src/core/cache.h",
            "struct C {\n  std::mutex m_;\n};\n")
        self.tree.write("bench/main.cc", '#include "core/cache.h"\n')

    def run_lint(self, update=False):
        return gt_lint.run(self.tree.root, self.baseline, [self.rel],
                           update_baseline=update, report_path=None)

    def test_new_finding_fails_without_baseline(self):
        self.assertEqual(self.run_lint(), 1)

    def test_baselined_finding_passes(self):
        self.assertEqual(self.run_lint(update=True), 0)
        self.assertEqual(self.run_lint(), 0)

    def test_stale_baseline_entry_fails(self):
        self.assertEqual(self.run_lint(update=True), 0)
        self.tree.write(self.rel, "struct C {\n  int m_;\n};\n")
        self.assertEqual(self.run_lint(), 1)  # ratchet: must shrink the file
        self.assertEqual(self.run_lint(update=True), 0)
        self.assertEqual(self.run_lint(), 0)

    def test_baseline_does_not_mask_new_findings(self):
        self.assertEqual(self.run_lint(update=True), 0)
        self.tree.write(
            self.rel,
            "struct C {\n  std::mutex m_;\n  std::condition_variable cv_;\n};\n")
        self.assertEqual(self.run_lint(), 1)


class RepoTreeTest(unittest.TestCase):
    def test_repo_tree_is_clean(self):
        baseline = os.path.join(REPO_ROOT, "tools", "gt_lint_baseline.txt")
        self.assertEqual(
            gt_lint.run(REPO_ROOT, baseline, [], False, None), 0,
            "gt_lint must pass on the committed tree")


if __name__ == "__main__":
    unittest.main()
