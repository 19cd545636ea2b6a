#include "fg/graph.hpp"

#include <stdexcept>

namespace at::fg {

VarId FactorGraph::add_variable(std::size_t cardinality, std::string name) {
  if (cardinality == 0) throw std::invalid_argument("FactorGraph: zero cardinality");
  const auto id = static_cast<VarId>(variables_.size());
  if (name.empty()) name = "x" + std::to_string(id);
  variables_.push_back(Variable{std::move(name), cardinality});
  var_factors_.emplace_back();
  return id;
}

FactorId FactorGraph::add_factor(std::vector<VarId> scope, std::vector<double> log_table,
                                 std::string name) {
  std::size_t expected = 1;
  for (const auto var : scope) {
    if (var >= variables_.size()) throw std::out_of_range("FactorGraph: bad scope var");
    expected *= variables_[var].cardinality;
  }
  if (log_table.size() != expected) {
    throw std::invalid_argument("FactorGraph: table size mismatch");
  }
  const auto id = static_cast<FactorId>(factors_.size());
  if (name.empty()) name = "f" + std::to_string(id);
  for (const auto var : scope) var_factors_[var].push_back(id);
  factors_.push_back(Factor{std::move(name), std::move(scope), std::move(log_table)});
  return id;
}

double FactorGraph::joint_log_score(std::span<const std::size_t> assignment) const {
  if (assignment.size() != variables_.size()) {
    throw std::invalid_argument("joint_log_score: assignment size mismatch");
  }
  double total = 0.0;
  for (FactorId f = 0; f < factors_.size(); ++f) {
    const auto& factor = factors_[f];
    const auto stride = strides(f);
    std::size_t index = 0;
    for (std::size_t k = 0; k < factor.scope.size(); ++k) {
      const std::size_t value = assignment[factor.scope[k]];
      if (value >= variables_[factor.scope[k]].cardinality) {
        throw std::out_of_range("joint_log_score: value out of range");
      }
      index += value * stride[k];
    }
    total += factor.log_table[index];
  }
  return total;
}

bool FactorGraph::is_tree() const {
  // Bipartite graph with V + F nodes and one edge per scope entry; a forest
  // has edges <= nodes - components. Use union-find to detect cycles.
  const std::size_t n = variables_.size() + factors_.size();
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (FactorId f = 0; f < factors_.size(); ++f) {
    for (const auto var : factors_[f].scope) {
      const std::size_t a = find(var);
      const std::size_t b = find(variables_.size() + f);
      if (a == b) return false;  // cycle
      parent[a] = b;
    }
  }
  return true;
}

std::vector<std::size_t> FactorGraph::strides(FactorId id) const {
  const auto& factor = factors_.at(id);
  std::vector<std::size_t> stride(factor.scope.size(), 1);
  for (std::size_t k = factor.scope.size(); k-- > 1;) {
    stride[k - 1] = stride[k] * variables_[factor.scope[k]].cardinality;
  }
  return stride;
}

}  // namespace at::fg
