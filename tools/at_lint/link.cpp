// Phase-2 linker implementation (see link.hpp). Everything here operates on
// FileFacts only — no token streams, no file content — so a fully-warm run
// (every phase-1 result from cache) still gets complete whole-program
// analysis.

#include <algorithm>
#include <array>
#include <deque>
#include <set>
#include <tuple>

#include "at_lint/link.hpp"

namespace at::lint {

namespace {

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Mirror of the quoted-include resolution in checks.cpp: module roots
/// first (matching the CMake include dirs), then includer-relative.
std::ptrdiff_t resolve_include(const std::unordered_map<std::string, std::size_t>& index,
                               const std::string& includer, const std::string& inc) {
  static constexpr std::array<std::string_view, 5> kRoots = {"src/", "tools/", "bench/",
                                                             "tests/", ""};
  for (const auto root : kRoots) {
    const auto it = index.find(std::string(root) + inc);
    if (it != index.end()) return static_cast<std::ptrdiff_t>(it->second);
  }
  const std::size_t slash = includer.rfind('/');
  if (slash != std::string::npos) {
    const auto it = index.find(includer.substr(0, slash + 1) + inc);
    if (it != index.end()) return static_cast<std::ptrdiff_t>(it->second);
  }
  return -1;
}

std::string_view last_component(std::string_view name) {
  const std::size_t pos = name.rfind("::");
  return pos == std::string_view::npos ? name : name.substr(pos + 2);
}

/// Intrinsic hot roots: the sim::Engine drain loops. (The daemon's shard
/// drain carries AT_HOT itself.)
bool intrinsic_hot_root(std::string_view path, std::string_view last) {
  return starts_with(path, "src/sim/") &&
         (last == "run" || last == "run_until" || last == "step");
}

}  // namespace

std::string ProjectGraph::taint_chain(std::size_t f) const {
  std::vector<std::string_view> chain;
  std::unordered_set<std::size_t> seen;
  for (std::size_t cur = f; cur != kNone && seen.insert(cur).second;
       cur = taint_parent[cur]) {
    chain.push_back(fns[cur].fn->name);
  }
  std::string out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!out.empty()) out += " -> ";
    out += *it;
  }
  return out;
}

std::string ProjectGraph::hot_chain(std::size_t f) const {
  std::vector<std::string_view> chain;
  for (std::size_t cur = f; cur != kNone; cur = hot_parent[cur]) {
    chain.push_back(fns[cur].fn->name);
    if (hot_parent[cur] == cur) break;  // defensive: no self-loops expected
  }
  std::string out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!out.empty()) out += " -> ";
    out += *it;
  }
  return out;
}

ProjectGraph link_project(const std::vector<FileAnalysis>& files) {
  ProjectGraph g;
  g.files = &files;

  std::unordered_map<std::string, std::size_t> file_index;
  for (std::size_t i = 0; i < files.size(); ++i) file_index.emplace(files[i].path, i);

  // ---- include closures (reflexive; sibling .cpp -> .hpp edge added even
  // when the include is spelled with a module-root prefix the resolver
  // already handles, for robustness).
  std::vector<std::vector<std::size_t>> inc_adj(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const auto& inc : files[i].facts.quoted_includes) {
      const std::ptrdiff_t target = resolve_include(file_index, files[i].path, inc);
      if (target >= 0) inc_adj[i].push_back(static_cast<std::size_t>(target));
    }
    if (ends_with(files[i].path, ".cpp")) {
      const auto it = file_index.find(sibling_header_path(files[i].path));
      if (it != file_index.end()) inc_adj[i].push_back(it->second);
    }
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    auto& reach = g.closure[files[i].path];
    std::deque<std::size_t> queue{i};
    reach.insert(files[i].path);
    std::vector<char> seen(files.size(), 0);
    seen[i] = 1;
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop_front();
      for (const std::size_t v : inc_adj[u]) {
        if (seen[v] != 0) continue;
        seen[v] = 1;
        reach.insert(files[v].path);
        queue.push_back(v);
      }
    }
  }

  // ---- function entries + indices
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const auto& fn : files[i].facts.functions) g.fns.push_back({i, &fn});
  }
  const std::size_t n = g.fns.size();
  std::unordered_map<std::string, std::vector<std::size_t>> by_name;    // full name
  std::unordered_map<std::string, std::vector<std::size_t>> by_method;  // last component
  for (std::size_t f = 0; f < n; ++f) {
    by_name[g.fns[f].fn->name].push_back(f);
    by_method[std::string(last_component(g.fns[f].fn->name))].push_back(f);
  }

  // Union annotations across same-name entries: AT_HOT / AT_ACQUIRES on a
  // header prototype must summarize the out-of-line definition too.
  g.hot_flag.assign(n, 0);
  std::vector<std::set<std::string>> acq(n);
  for (std::size_t f = 0; f < n; ++f) {
    if (g.fns[f].fn->hot) g.hot_flag[f] = 1;
    acq[f].insert(g.fns[f].fn->acquires.begin(), g.fns[f].fn->acquires.end());
  }
  for (const auto& [name, group] : by_name) {
    if (group.size() < 2) continue;
    bool any_hot = false;
    std::set<std::string> merged;
    for (const std::size_t f : group) {
      any_hot = any_hot || g.hot_flag[f] != 0;
      merged.insert(acq[f].begin(), acq[f].end());
    }
    for (const std::size_t f : group) {
      if (any_hot) g.hot_flag[f] = 1;
      acq[f] = merged;
    }
  }

  // ---- call-edge resolution
  static constexpr std::size_t kMaxFanout = 6;
  g.edges.assign(n, {});
  for (std::size_t f = 0; f < n; ++f) {
    const std::string& caller_path = files[g.fns[f].file].path;
    const auto& reach = g.closure[caller_path];
    for (const auto& call : g.fns[f].fn->calls) {
      const auto it = by_method.find(call.name);
      if (it == by_method.end()) continue;
      std::vector<std::size_t> visible;
      std::set<std::string_view> names;
      for (const std::size_t e : it->second) {
        const std::string& callee_path = files[g.fns[e].file].path;
        bool ok = reach.contains(callee_path);
        if (!ok && ends_with(callee_path, ".cpp")) {
          // A definition in x.cpp is callable wherever x.hpp is visible.
          ok = reach.contains(sibling_header_path(callee_path));
        }
        if (!ok) continue;
        visible.push_back(e);
        names.insert(g.fns[e].fn->name);
      }
      if (visible.empty() || names.size() > kMaxFanout) continue;
      for (const std::size_t e : visible) {
        g.edges[f].push_back({e, &call, names.size()});
      }
    }
  }

  // ---- lock-acquisition fixpoint (unique-resolution edges only)
  for (int iter = 0; iter < 20; ++iter) {
    bool changed = false;
    for (std::size_t f = 0; f < n; ++f) {
      for (const auto& e : g.edges[f]) {
        if (e.fanout != 1) continue;
        for (const auto& m : acq[e.callee]) {
          if (acq[f].insert(m).second) changed = true;
        }
      }
    }
    if (!changed) break;
  }
  g.acquires.assign(n, {});
  for (std::size_t f = 0; f < n; ++f) {
    g.acquires[f].assign(acq[f].begin(), acq[f].end());
  }

  // ---- propagated lock edges: held at the call site -> acquired by the
  // callee's summary. Same-name pairs are skipped: distinct instances of a
  // same-named member mutex would forge a self-deadlock report, and a
  // genuinely recursive acquisition is Clang -Wthread-safety's department.
  std::set<std::tuple<std::string, std::string, std::string, std::uint32_t>> prop;
  for (std::size_t f = 0; f < n; ++f) {
    for (const auto& e : g.edges[f]) {
      if (e.fanout != 1 || e.site->held.empty()) continue;
      for (const auto& h : e.site->held) {
        for (const auto& m : acq[e.callee]) {
          if (h == m) continue;
          prop.emplace(h, m, files[g.fns[f].file].path, e.site->line);
        }
      }
    }
  }
  for (const auto& [first, second, file, line] : prop) {
    g.propagated_lock_edges.push_back({first, second, file, line});
  }

  // ---- hot-path reachability (edges with fanout <= 2)
  g.hot.assign(n, 0);
  g.hot_root.assign(n, 0);
  g.hot_parent.assign(n, ProjectGraph::kNone);
  std::deque<std::size_t> queue;
  for (std::size_t f = 0; f < n; ++f) {
    const std::string& path = files[g.fns[f].file].path;
    if (!starts_with(path, "src/")) continue;
    const bool root = g.hot_flag[f] != 0 ||
                      intrinsic_hot_root(path, last_component(g.fns[f].fn->name));
    if (root) {
      g.hot[f] = 1;
      g.hot_root[f] = 1;
      queue.push_back(f);
    }
  }
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop_front();
    for (const auto& e : g.edges[u]) {
      if (e.fanout > 2 || g.hot[e.callee] != 0) continue;
      g.hot[e.callee] = 1;
      g.hot_parent[e.callee] = u;
      queue.push_back(e.callee);
    }
  }

  // ---- taint propagation (worklist over FlowEdge summaries)
  //
  // Union the source/sanitizer markers across same-name entries first (an
  // AT_UNTRUSTED header prototype marks the out-of-line definition), then
  // run the interprocedural fixpoint: a tainted origin flowing into a
  // call argument taints the callee's parameter; a tainted origin flowing
  // into `return` taints every caller that consumes the result — unless
  // the entry sanitizes. Only fanout == 1 resolutions propagate, matching
  // the throw analysis: a wrong edge would forge a taint path.
  g.untrusted.assign(n, 0);
  g.sanitizes.assign(n, 0);
  for (std::size_t f = 0; f < n; ++f) {
    if (g.fns[f].fn->untrusted) g.untrusted[f] = 1;
    if (g.fns[f].fn->sanitizes) g.sanitizes[f] = 1;
  }
  for (const auto& [name, group] : by_name) {
    if (group.size() < 2) continue;
    bool any_untrusted = false, any_sanitizes = false;
    for (const std::size_t f : group) {
      any_untrusted = any_untrusted || g.untrusted[f] != 0;
      any_sanitizes = any_sanitizes || g.sanitizes[f] != 0;
    }
    for (const std::size_t f : group) {
      if (any_untrusted) g.untrusted[f] = 1;
      if (any_sanitizes) g.sanitizes[f] = 1;
    }
  }

  // Per-caller name → unique-resolution callees, plus reverse edges so a
  // late ret_taint discovery re-queues consumers.
  std::vector<std::unordered_map<std::string_view, std::vector<std::size_t>>> resolved(n);
  std::vector<std::vector<std::size_t>> callers(n);
  for (std::size_t f = 0; f < n; ++f) {
    for (const auto& e : g.edges[f]) {
      if (e.fanout != 1) continue;
      auto& targets = resolved[f][std::string_view(e.site->name)];
      if (std::find(targets.begin(), targets.end(), e.callee) == targets.end()) {
        targets.push_back(e.callee);
      }
      callers[e.callee].push_back(f);
    }
  }

  g.param_taint.assign(n, 0);
  g.ret_taint.assign(n, 0);
  g.taint_parent.assign(n, ProjectGraph::kNone);
  g.taint_parent_line.assign(n, 0);
  std::deque<std::size_t> taint_queue;
  std::vector<char> queued(n, 0);
  const auto enqueue = [&](std::size_t f) {
    if (queued[f] == 0) {
      queued[f] = 1;
      taint_queue.push_back(f);
    }
  };
  for (std::size_t f = 0; f < n; ++f) {
    if (g.untrusted[f] == 0) continue;
    const std::size_t nparams = g.fns[f].fn->params.size();
    g.param_taint[f] = nparams >= 32 ? ~0u : ((1u << nparams) - 1u);
    if (g.sanitizes[f] == 0) g.ret_taint[f] = 1;
    enqueue(f);
    for (const std::size_t c : callers[f]) enqueue(c);
  }

  const auto origin_tainted = [&](std::size_t f, const FileFacts::FlowEdge& e) {
    if (g.untrusted[f] != 0) return true;  // everything local to a source is hot
    if (e.from_param >= 0 && e.from_param < 32 &&
        (g.param_taint[f] & (1u << static_cast<unsigned>(e.from_param))) != 0) {
      return true;
    }
    if (!e.from_call.empty()) {
      const auto it = resolved[f].find(std::string_view(e.from_call));
      if (it != resolved[f].end()) {
        for (const std::size_t c : it->second) {
          if (g.ret_taint[c] != 0 && g.sanitizes[c] == 0) return true;
        }
      }
    }
    return false;
  };

  while (!taint_queue.empty()) {
    const std::size_t f = taint_queue.front();
    taint_queue.pop_front();
    queued[f] = 0;
    for (const auto& e : g.fns[f].fn->flows) {
      if (!origin_tainted(f, e)) continue;
      if (e.kind == 'a') {
        const auto it = resolved[f].find(std::string_view(e.to_call));
        if (it == resolved[f].end() || e.to_arg < 0 || e.to_arg >= 32) continue;
        const std::uint32_t bit = 1u << static_cast<unsigned>(e.to_arg);
        for (const std::size_t c : it->second) {
          if ((g.param_taint[c] & bit) != 0) continue;
          g.param_taint[c] |= bit;
          if (g.taint_parent[c] == ProjectGraph::kNone && c != f) {
            g.taint_parent[c] = f;
            g.taint_parent_line[c] = e.line;
          }
          enqueue(c);
        }
      } else if (e.kind == 'r') {
        if (g.sanitizes[f] != 0 || g.ret_taint[f] != 0) continue;
        g.ret_taint[f] = 1;
        for (const std::size_t c : callers[f]) enqueue(c);
      }
    }
  }

  // Freeze the per-edge verdicts for the rules.
  g.flow_taint.assign(n, {});
  for (std::size_t f = 0; f < n; ++f) {
    const auto& flows = g.fns[f].fn->flows;
    g.flow_taint[f].assign(flows.size(), 0);
    for (std::size_t e = 0; e < flows.size(); ++e) {
      if (origin_tainted(f, flows[e])) g.flow_taint[f][e] = 1;
    }
  }

  // ---- bounded-growth field union (AT_BOUNDED + eviction evidence)
  for (const auto& file : files) {
    g.bounded_fields.insert(file.facts.bounded_fields.begin(),
                            file.facts.bounded_fields.end());
  }

  // ---- throw propagation (unique-resolution calls outside try blocks)
  g.can_throw.assign(n, 0);
  g.throw_witness.assign(n, {});
  for (std::size_t f = 0; f < n; ++f) {
    if (!g.fns[f].fn->throw_lines.empty()) {
      g.can_throw[f] = 1;
      g.throw_witness[f] = {g.fns[f].fn->throw_lines.front(), std::string()};
    }
  }
  for (int iter = 0; iter < 20; ++iter) {
    bool changed = false;
    for (std::size_t f = 0; f < n; ++f) {
      if (g.can_throw[f] != 0) continue;
      for (const auto& e : g.edges[f]) {
        if (e.fanout != 1 || e.site->in_try || g.can_throw[e.callee] == 0) continue;
        g.can_throw[f] = 1;
        g.throw_witness[f] = {e.site->line, g.fns[e.callee].fn->name};
        changed = true;
        break;
      }
    }
    if (!changed) break;
  }

  return g;
}

}  // namespace at::lint
