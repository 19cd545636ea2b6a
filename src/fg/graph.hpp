#pragma once
// Discrete factor graph representation.
//
// The paper's preemption model is a probabilistic graphical model over
// hidden per-event attack stages (Cao et al., AttackTagger). This library
// implements general discrete factor graphs in log space plus the belief-
// propagation inference the detector runs online. Variables are discrete
// with small cardinality (4 attack stages); factors hold log-potential
// tables over their scope, flattened row-major with the *last* scope
// variable varying fastest.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace at::fg {

using VarId = std::uint32_t;
using FactorId = std::uint32_t;

struct Variable {
  std::string name;
  std::size_t cardinality = 0;
};

struct Factor {
  std::string name;
  std::vector<VarId> scope;       ///< variables, order defines table layout
  std::vector<double> log_table;  ///< size = product of scope cardinalities
};

class FactorGraph {
 public:
  VarId add_variable(std::size_t cardinality, std::string name = {});
  /// `log_table` must have size = product of the scope's cardinalities.
  FactorId add_factor(std::vector<VarId> scope, std::vector<double> log_table,
                      std::string name = {});

  [[nodiscard]] std::size_t num_variables() const noexcept { return variables_.size(); }
  [[nodiscard]] std::size_t num_factors() const noexcept { return factors_.size(); }
  [[nodiscard]] const Variable& variable(VarId id) const { return variables_.at(id); }
  [[nodiscard]] const Factor& factor(FactorId id) const { return factors_.at(id); }
  [[nodiscard]] std::span<const Variable> variables() const noexcept { return variables_; }
  [[nodiscard]] std::span<const Factor> factors() const noexcept { return factors_; }
  /// Factors adjacent to a variable.
  [[nodiscard]] const std::vector<FactorId>& factors_of(VarId id) const {
    return var_factors_.at(id);
  }

  /// Joint log-probability (unnormalized) of a full assignment.
  [[nodiscard]] double joint_log_score(std::span<const std::size_t> assignment) const;

  /// True when the factor graph is acyclic (BP is exact on it).
  [[nodiscard]] bool is_tree() const;

  /// Table strides for a factor (last scope variable fastest).
  [[nodiscard]] std::vector<std::size_t> strides(FactorId id) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Factor> factors_;
  std::vector<std::vector<FactorId>> var_factors_;
};

}  // namespace at::fg
