#pragma once
// In-memory span tracer for the benchmark's own code. Spans wrap calls into
// the testbed's public functions (one span per call, or per chunk of calls
// for per-item functions); they are kept in a vector and summarized when
// the run ends. A disabled tracer records nothing and reads no clock, so
// the same pass code serves the untraced and the traced runs.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;  ///< index into spans, or kNoParent
    std::uint32_t request = 0;         ///< spans of one pass share this id
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t items = 0;  ///< work units the span covered
  };
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  /// Per-name summary: self time is each span's duration minus the part of
  /// it covered by its direct children.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t items = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, std::uint32_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    void add_items(std::uint64_t n) {
      if (tracer_ != nullptr) tracer_->spans_[index_].items += n;
    }

   private:
    Tracer* tracer_;
    std::uint32_t index_;
  };

  /// Start a span; it ends when the returned scope is destroyed.
  [[nodiscard]] Scope span(std::string_view name, std::uint64_t items = 0);
  /// Start a new request id for the spans that follow.
  void next_request() noexcept { ++request_; }

  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Summary of one span name (zeros when no such span was recorded).
  [[nodiscard]] Totals totals(const std::string& name) const;

 private:
  void close(std::uint32_t index);
  std::uint32_t intern(std::string_view name);

  bool enabled_;
  std::uint32_t request_ = 0;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

}  // namespace perfbench
