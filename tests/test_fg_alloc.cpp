// Zero-allocation guarantees for the hot inference paths: once a
// BpWorkspace/BpResult pair has warmed up to the largest problem it has
// seen, repeated inference calls must not touch the heap at all, and the
// entity engine (fg::EntityFilter, fixed-size state) never does. Verified
// by counting global operator new/delete hits around the warm calls — the
// strongest form of the "reusable scratch" contract BpOptions-style
// callers rely on in the per-alert pipelines.
//
// The count is exported through alloc_count.hpp so other test files can
// pin their own paths' allocations (one replacement per program).
//
// The counting replacements are malloc-backed and unconditionally defined:
// under ASan the sanitizer interposes malloc itself, so the counters keep
// working (they wrap the sanitizer's allocator rather than fight it).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"
#include "detect/detector.hpp"
#include "fg/model.hpp"
#include "incidents/generator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

std::uint64_t at::test_support::allocation_count() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

// Global replacements: count every heap allocation in the process. Tests
// are exempt from the raw-new-delete lint rule; these exist precisely to
// observe allocator traffic.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

// At -O2 GCC pairs inlined `new` expressions with the free() below and
// warns -Wmismatched-new-delete; the pairing is correct by construction
// here because the replacement operator new above is malloc-backed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace at::fg {
namespace {

using alerts::AlertType;
using alerts::AttackStage;

const ModelParams& model() {
  static const ModelParams p = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return learn_params(incidents::CorpusGenerator(config).generate());
  }();
  return p;
}

using test_support::allocations_during;

TEST(FgAllocation, WarmWorkspaceRunBpAllocatesNothing) {
  const std::vector<AlertType> observed = {
      AlertType::kPortScan, AlertType::kSshBruteforce, AlertType::kDownloadSensitive,
      AlertType::kCompileSource, AlertType::kC2Communication};
  const FactorGraph graph = build_entity_graph(model(), observed);
  BpOptions options;
  options.damping = 0.3;
  options.max_iterations = 4 * observed.size() + 20;

  BpWorkspace workspace;
  BpResult result;
  // Warm-up: two calls let every vector (including the per-variable
  // marginal rows) reach its high-water capacity.
  run_bp(graph, options, workspace, result);
  run_bp(graph, options, workspace, result);

  const auto allocated =
      allocations_during([&] { run_bp(graph, options, workspace, result); });
  EXPECT_EQ(allocated, 0u) << "warm workspace run_bp touched the heap";
}

TEST(FgAllocation, WarmEntityFilterObserveAllocatesNothing) {
  EntityFilter filter(compile_params(model()));
  filter.observe(AlertType::kPortScan);
  const auto allocated = allocations_during([&] {
    for (int i = 0; i < 64; ++i) {
      filter.observe(AlertType::kSshBruteforce, GapBucket::kBurst);
      filter.observe(AlertType::kJobSubmitted);
    }
  });
  EXPECT_EQ(allocated, 0u) << "warm EntityFilter::observe touched the heap";
}

TEST(FgAllocation, EntityEngineObserveAllocatesAmortizedConstant) {
  // The detector-level entity mode: state no longer grows with the
  // history, so a stream that never fires costs zero allocations per
  // alert, however long it runs.
  detect::FactorGraphDetector detector(compile_params(model()), /*threshold=*/1.1,
                                       AttackStage::kInProgress, /*use_timing=*/true,
                                       detect::FgInference::kEntityIncremental);
  alerts::Alert alert;
  alert.type = AlertType::kJobSubmitted;
  ASSERT_FALSE(detector.observe(alert, 0).has_value());
  const auto allocated = allocations_during([&] {
    for (std::size_t i = 1; i <= 256; ++i) {
      alert.ts = static_cast<util::SimTime>(i * 90);
      alert.type = i % 2 == 0 ? AlertType::kPortScan : AlertType::kJobSubmitted;
      static_cast<void>(detector.observe(alert, i));
    }
  });
  EXPECT_EQ(allocated, 0u) << "entity-mode observe allocates per alert";
}

TEST(FgAllocation, WarmForwardDetectorObserveAllocatesNothing) {
  // Forward mode, threshold out of reach: the detector never fires, so
  // observe() must not build its reason text ("P(stage>=in_progress)=..."
  // outgrows the small-string buffer) nor touch the heap at all.
  detect::FactorGraphDetector detector(compile_params(model()), /*threshold=*/1.1,
                                       AttackStage::kInProgress, /*use_timing=*/true);
  ASSERT_EQ(detector.inference(), detect::FgInference::kForwardFilter);
  alerts::Alert alert;
  alert.type = AlertType::kPortScan;
  ASSERT_FALSE(detector.observe(alert, 0).has_value());
  const auto allocated = allocations_during([&] {
    for (std::size_t i = 1; i <= 256; ++i) {
      alert.ts = static_cast<util::SimTime>(i * 90);
      alert.type = i % 3 == 0 ? AlertType::kDownloadSensitive : AlertType::kSshBruteforce;
      static_cast<void>(detector.observe(alert, i));
    }
  });
  EXPECT_EQ(allocated, 0u) << "forward-mode observe allocates per alert";
}

}  // namespace
}  // namespace at::fg
