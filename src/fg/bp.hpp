#pragma once
// Belief propagation (sum-product and max-product) over discrete factor
// graphs, in log space. Exact on trees; loopy with damping otherwise.
//
// Two call shapes:
//   - run_bp(graph)                  — convenient, allocates per call.
//   - run_bp(graph, opts, ws, out)   — hot-path form: all edge storage,
//     inner-loop scratch, and the result live in caller-owned buffers, so
//     repeated calls make zero heap allocations once the workspace has
//     warmed up to the largest graph it has seen (verified by an
//     allocation-count test).
//
// The online detectors do not run BP: the chain and the entity model both
// have exact forward filters (fg/model.hpp). run_bp is the offline path
// over general graphs.

#include <cstdint>
#include <vector>

#include "fg/graph.hpp"

namespace at::fg {

struct BpOptions {
  std::size_t max_iterations = 50;
  double tolerance = 1e-9;   ///< max message change for convergence
  double damping = 0.0;      ///< 0 = none; used for loopy graphs
  bool max_product = false;  ///< max-product (MAP) instead of sum-product
};

struct BpResult {
  /// Per-variable normalized beliefs (linear domain, sum to 1).
  std::vector<std::vector<double>> marginals;
  /// Per-variable argmax of belief; the MAP estimate under max-product.
  std::vector<std::size_t> map_assignment;
  bool converged = false;
  std::size_t iterations = 0;
};

/// Reusable BP storage: the SoA edge layout over a FactorGraph plus the
/// flat log-domain message pools and inner-loop scratch. bind() rebuilds
/// the layout for a graph but never shrinks capacity, so a workspace that
/// has seen its largest graph allocates nothing on later binds.
struct BpWorkspace {
  // One edge per (factor, scope-slot) pair; edges of a factor are
  // contiguous, so factor f's slot k is edge factor_edge[f] + k.
  std::vector<VarId> edge_var;          ///< target variable of each edge
  std::vector<std::uint32_t> edge_card; ///< its cardinality
  std::vector<std::size_t> edge_off;    ///< offset into the message pools
  std::vector<std::size_t> factor_edge; ///< size num_factors + 1
  // Incident CSR: edge ids touching each variable.
  std::vector<std::size_t> var_edge_off;  ///< size num_variables + 1
  std::vector<std::uint32_t> var_edge;
  // Flat message pools (log domain), one `edge_card` slice per edge.
  std::vector<double> to_var;     ///< factor -> variable
  std::vector<double> to_factor;  ///< variable -> factor
  // Inner-loop scratch.
  std::vector<double> message;
  std::vector<double> log_belief;
  std::vector<std::size_t> cards;
  std::vector<std::size_t> idx;

  /// (Re)build the layout for `graph` and zero all messages.
  void bind(const FactorGraph& graph);

  [[nodiscard]] std::size_t num_edges() const noexcept { return edge_var.size(); }
};

/// Run BP to convergence (or max_iterations) and extract beliefs.
[[nodiscard]] BpResult run_bp(const FactorGraph& graph, const BpOptions& options = {});

/// Hot-path overload: reuses `workspace` and writes beliefs into `result`
/// in place. Zero heap allocations once both are warm.
void run_bp(const FactorGraph& graph, const BpOptions& options, BpWorkspace& workspace,
            BpResult& result);

/// Exact inference by joint enumeration (test oracle; product of
/// cardinalities must be <= 2^22).
struct ExactResult {
  std::vector<std::vector<double>> marginals;
  std::vector<std::size_t> map_assignment;
  double log_partition = 0.0;
};
[[nodiscard]] ExactResult enumerate_exact(const FactorGraph& graph);

}  // namespace at::fg
