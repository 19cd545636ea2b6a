#include "trace.hpp"

namespace perfbench {

Tracer::Scope Tracer::span(std::string_view name, std::uint64_t items) {
  if (!enabled_) return Scope(nullptr, 0);
  Span span;
  span.name = intern(name);
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.request = request_;
  span.items = items;
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  spans_[index].start_ns = now_ns();  // last, so set-up cost stays outside
  return Scope(this, index);
}

void Tracer::close(std::uint32_t index) {
  spans_[index].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Totals& totals = out[names_[span.name]];
    const auto duration = span.end_ns - span.start_ns;
    totals.total_s += static_cast<double>(duration) * 1e-9;
    totals.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
    ++totals.calls;
    totals.items += span.items;
  }
  return out;
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  return it == all.end() ? Totals{} : it->second;
}

}  // namespace perfbench
