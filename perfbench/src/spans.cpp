#include "spans.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

struct Span {
  const char* layer;
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t child_ns;
  std::int64_t parent;  // index in the same buffer, -1 for a root span
  std::uint64_t request;
};

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::int64_t> open;  // stack of open span indices
  std::uint64_t request = 0;
};

std::atomic<bool> g_enabled{false};
const std::chrono::steady_clock::time_point g_origin =
    std::chrono::steady_clock::now();
std::mutex g_mu;
std::vector<std::shared_ptr<Buffer>> g_buffers;  // guarded by g_mu

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_origin)
          .count());
}

Buffer& local() {
  thread_local std::shared_ptr<Buffer> buffer = [] {
    auto b = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(g_mu);
    b->thread = static_cast<std::uint32_t>(g_buffers.size());
    g_buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

void Spans::enable(bool on) {
  g_enabled.store(on, std::memory_order_release);
}

bool Spans::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Spans::set_request(std::uint64_t id) { local().request = id; }

std::size_t Spans::count() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::size_t n = 0;
  for (const auto& b : g_buffers) n += b->spans.size();
  return n;
}

Spans::Scope::Scope(const char* layer, const char* name) {
  if (!enabled()) return;
  Buffer& b = local();
  const std::int64_t parent = b.open.empty() ? -1 : b.open.back();
  index_ = static_cast<std::int64_t>(b.spans.size());
  b.spans.push_back(Span{layer, name, now_ns(), 0, 0, parent, b.request});
  b.open.push_back(index_);
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  Buffer& b = local();
  Span& span = b.spans[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  b.open.pop_back();
  if (span.parent >= 0) {
    b.spans[static_cast<std::size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
}

std::map<std::string, double> Spans::self_ms_by_layer() {
  std::map<std::string, double> out;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    for (const Span& s : b->spans) {
      const std::uint64_t dur = s.end_ns - s.start_ns;
      out[s.layer] += static_cast<double>(dur - s.child_ns) * 1e-6;
    }
  }
  return out;
}

bool Spans::write_chrome(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& b : g_buffers) {
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
         << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << b->thread << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
         << ",\"args\":{\"request\":" << s.request << ",\"span\":" << i
         << ",\"parent\":" << s.parent << "}}";
      first = false;
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
