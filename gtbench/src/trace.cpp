#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace gtbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

// Buffers are owned here, not by their threads, so spans recorded on a
// thread that has since exited (a server connection thread) survive until
// take().
std::mutex g_mu;
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;

std::vector<Span>& local_buffer() {
  thread_local std::vector<Span>* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<std::vector<Span>>();
    owned->reserve(1 << 14);
    buf = owned.get();
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::move(owned));
  }
  return *buf;
}

}  // namespace

void enable() { g_enabled.store(true, std::memory_order_relaxed); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t new_id() noexcept {
  return enabled() ? g_next_id.fetch_add(1, std::memory_order_relaxed) : 0;
}

void record(const Span& s) {
  if (enabled()) local_buffer().push_back(s);
}

std::uint64_t record(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t parent,
                     std::uint64_t op) {
  const std::uint64_t id = new_id();
  if (id != 0) record(Span{name, start_ns, end_ns, id, parent, op});
  return id;
}

std::vector<Span> take() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> all;
  for (const auto& b : g_buffers) {
    if (all.empty()) {
      all.swap(*b);  // no copy of the (usually one) big buffer
    } else {
      all.insert(all.end(), b->begin(), b->end());
      std::vector<Span>().swap(*b);
    }
  }
  return all;
}

std::vector<double> durations_us(const std::vector<Span>& spans,
                                 const char* name) {
  const std::string want(name);
  std::vector<double> out;
  for (const Span& s : spans)
    if (want == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  return out;
}

bool write_csv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,id,parent,op\n");
  for (const Span& s : spans)
    std::fprintf(f, "%s,%llu,%llu,%llu,%llu,%llu\n", s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  return std::fclose(f) == 0;
}

}  // namespace trace

}  // namespace gtbench
