#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

/// One recording thread's buffer.  Owned by the registry, so spans of a
/// worker thread that has already exited are still there at drain().
struct Lane {
  std::uint32_t index = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  ///< positions in `spans` of open spans
};

std::mutex g_mu;
std::vector<std::unique_ptr<Lane>> g_lanes;  // guarded by g_mu
std::atomic<bool> g_on{false};
std::atomic<std::uint32_t> g_orphan_parent{0};
std::atomic<std::uint32_t> g_next_id{1};
thread_local Lane* tl_lane = nullptr;

Lane& this_lane() {
  if (tl_lane == nullptr) {
    const std::lock_guard<std::mutex> lock(g_mu);
    g_lanes.push_back(std::make_unique<Lane>());
    g_lanes.back()->index = static_cast<std::uint32_t>(g_lanes.size() - 1);
    tl_lane = g_lanes.back().get();
  }
  return *tl_lane;
}

}  // namespace

void set_tracing(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool tracing() { return g_on.load(std::memory_order_relaxed); }
void set_orphan_parent(std::uint32_t id) {
  g_orphan_parent.store(id, std::memory_order_relaxed);
}

Scope::Scope(std::string_view name, std::uint32_t instance) {
  if (!tracing()) return;
  Lane& lane = this_lane();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  Span s;
  s.id = id_;
  s.parent = lane.open.empty() ? g_orphan_parent.load(std::memory_order_relaxed)
                               : lane.spans[lane.open.back()].id;
  s.instance = instance;
  s.lane = lane.index;
  s.name = name;
  lane.open.push_back(lane.spans.size());
  s.start_ns = now_ns();
  lane.spans.push_back(s);
}

Scope::~Scope() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  Lane& lane = *tl_lane;
  lane.spans[lane.open.back()].end_ns = end;
  lane.open.pop_back();
}

std::vector<Span> drain() {
  std::vector<Span> out;
  const std::lock_guard<std::mutex> lock(g_mu);
  for (const std::unique_ptr<Lane>& lane : g_lanes) {
    out.insert(out.end(), lane->spans.begin(), lane->spans.end());
    std::vector<Span>().swap(lane->spans);
  }
  g_next_id.store(1, std::memory_order_relaxed);
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

SpanSummary summarize(const std::vector<Span>& spans) {
  SpanSummary summary;
  summary.spans = spans.size();
  std::unordered_map<std::uint32_t, std::size_t> pos;
  pos.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) pos[spans[i].id] = i;

  // Children grouped by (parent, lane), ordered by start within a group.
  struct Edge {
    std::size_t parent;
    std::uint32_t lane;
    std::size_t child;
  };
  std::vector<Edge> edges;
  edges.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = pos.find(spans[i].parent);
    if (spans[i].parent != 0 && it != pos.end()) {
      edges.push_back({it->second, spans[i].lane, i});
    }
  }
  std::sort(edges.begin(), edges.end(), [&](const Edge& a, const Edge& b) {
    if (a.parent != b.parent) return a.parent < b.parent;
    if (a.lane != b.lane) return a.lane < b.lane;
    return spans[a.child].start_ns < spans[b.child].start_ns;
  });

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (std::size_t g = 0; g < edges.size();) {
    const Span& p = spans[edges[g].parent];
    std::int64_t children = 0;
    std::int64_t covered = 0;
    std::int64_t reach = p.start_ns;  // end of the union so far
    std::size_t e = g;
    for (; e < edges.size() && edges[e].parent == edges[g].parent &&
           edges[e].lane == edges[g].lane;
         ++e) {
      const Span& c = spans[edges[e].child];
      children += c.end_ns - c.start_ns;
      const std::int64_t lo = std::max(c.start_ns, reach);
      const std::int64_t hi = std::min(c.end_ns, p.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(c.end_ns, p.end_ns));
    }
    const std::int64_t duration = p.end_ns - p.start_ns;
    if (edges[g].lane == p.lane) self[edges[g].parent] -= covered;
    if (duration > 0) {
      summary.max_tiling_error =
          std::max(summary.max_tiling_error,
                   std::fabs(static_cast<double>(children - covered)) /
                       static_cast<double>(duration));
    }
    g = e;
  }

  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = summary.by_name.find(spans[i].name);
    if (it == summary.by_name.end()) {
      it = summary.by_name.emplace(std::string(spans[i].name), NameTotals{})
               .first;
    }
    it->second.seconds +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    it->second.self_seconds += static_cast<double>(self[i]) * 1e-9;
    ++it->second.count;
  }
  return summary;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id,parent,instance,lane,name,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%u,%u,%u,%u,%.*s,%lld,%lld\n", s.id, s.parent,
                 s.instance, s.lane, static_cast<int>(s.name.size()),
                 s.name.data(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
