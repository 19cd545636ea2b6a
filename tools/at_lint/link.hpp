#pragma once
// Phase-2 linker: stitches per-file facts into project-wide graphs. Built
// fresh on every run (phase 1 is the cached part); all heavy lifting is
// index lookups over already-extracted facts, so linking ~200 files costs
// single-digit milliseconds.
//
// Call resolution is name-based, pruned by the include closure: a call
// `foo(...)` in a.cpp resolves to every project function whose last name
// component is `foo` and whose defining file (or that file's sibling
// header) is reachable through a.cpp's quoted includes. The distinct-name
// fanout of a resolution gates how each analysis uses the edge:
//   fanout == 1  lock-acquisition, throw, and taint propagation (precision
//                first: a wrong edge forges a deadlock cycle, a noexcept
//                report, or a phantom taint path)
//   fanout <= 2  hot-path reachability (recall matters more; the report
//                carries the full call chain so a reviewer can audit it)

#include <cstddef>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "at_lint/lint.hpp"

namespace at::lint {

struct ProjectGraph {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// One function entry (definition, annotated declaration, or ThreadPool
  /// task pseudo-function) with its owning file.
  struct FnRef {
    std::size_t file = 0;  ///< index into the files vector passed to link_project
    const FileFacts::Function* fn = nullptr;
  };
  std::vector<FnRef> fns;

  struct Edge {
    std::size_t callee = 0;                         ///< index into fns
    const FileFacts::CallSite* site = nullptr;
    std::size_t fanout = 1;  ///< distinct callee names this site resolved to
  };
  std::vector<std::vector<Edge>> edges;  ///< outgoing, indexed like fns

  /// Effective hot flag per entry: AT_HOT unioned across same-name entries
  /// (an annotated header prototype marks the out-of-line definition).
  std::vector<char> hot_flag;

  /// Transitively-closed lock acquisitions per entry: direct LockGuard
  /// scopes + AT_ACQUIRES annotations + unique-resolution callees.
  std::vector<std::vector<std::string>> acquires;

  /// Lock-order edges discovered through helper propagation: a mutex held
  /// at a call site precedes every mutex the callee's summary acquires.
  struct LockEdge {
    std::string first, second;  ///< first is acquired before second
    std::string file;           ///< call site attribution
    std::uint32_t line = 0;
  };
  std::vector<LockEdge> propagated_lock_edges;

  /// Hot-path reachability (BFS from AT_HOT functions and the intrinsic
  /// drain-loop roots: Engine run/run_until/step in src/sim/).
  std::vector<char> hot;
  std::vector<char> hot_root;
  std::vector<std::size_t> hot_parent;  ///< BFS parent, kNone at roots

  /// Throw propagation: an entry can throw when its body throws outside a
  /// try block, or it calls (outside a try block, unique resolution) an
  /// entry that can.
  std::vector<char> can_throw;
  struct ThrowWitness {
    std::uint32_t line = 0;  ///< throw statement or offending call site
    std::string via;         ///< callee name, empty for a direct throw
  };
  std::vector<ThrowWitness> throw_witness;

  /// Taint propagation (worklist over the FlowEdge summaries, fanout == 1
  /// call resolution like throw propagation). Seeds: AT_UNTRUSTED entries
  /// taint all their parameters and their return value. An arg-pass edge
  /// whose origin is tainted taints the callee's parameter; a return edge
  /// taints the caller-visible result unless the entry is AT_SANITIZES.
  std::vector<char> untrusted;             ///< unioned across same-name entries
  std::vector<char> sanitizes;             ///< unioned across same-name entries
  std::vector<std::uint32_t> param_taint;  ///< bitmask, bit i = parameter i tainted
  std::vector<char> ret_taint;
  /// Provenance for diagnostics: the caller that first tainted this
  /// entry's parameters and the call-site line (kNone/0 at seeds).
  std::vector<std::size_t> taint_parent;
  std::vector<std::uint32_t> taint_parent_line;
  /// Per-entry, per-FlowEdge taint verdict, parallel to fns[f].fn->flows:
  /// the edge's origin is tainted after the interprocedural fixpoint.
  /// Rules read this instead of re-deriving resolution.
  std::vector<std::vector<char>> flow_taint;

  /// Project-wide union of every file's bounded_fields (AT_BOUNDED
  /// annotations + eviction evidence), consumed by unbounded-growth.
  std::unordered_set<std::string> bounded_fields;

  /// Reflexive include closure per file path (quoted includes + sibling
  /// pairing), shared with the cross-TU determinism rule.
  std::unordered_map<std::string, std::unordered_set<std::string>> closure;

  const std::vector<FileAnalysis>* files = nullptr;

  /// "root -> caller -> ... -> fns[f]" along the hot BFS parents.
  [[nodiscard]] std::string hot_chain(std::size_t f) const;

  /// "source -> caller -> ... -> fns[f]" along the taint parents.
  [[nodiscard]] std::string taint_chain(std::size_t f) const;
};

[[nodiscard]] ProjectGraph link_project(const std::vector<FileAnalysis>& files);

}  // namespace at::lint
