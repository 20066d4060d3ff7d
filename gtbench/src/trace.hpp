// gtbench/src/trace.hpp
//
// Spans for the traced mode (--trace 1). The benchmark records one span
// around each call it makes into a layer of the program, plus spans for
// the stage times the program reports about itself (a SearchJob's queue
// wait, a result's search time). Each span has a name, a start, an end, a
// parent span and the id of the op it belongs to. Spans are kept in
// per-thread buffers in memory and written out once, when the run ends;
// nothing is recorded when tracing is off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gtbench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span
  std::uint64_t op = 0;
};

/// Steady-clock nanoseconds (the clock every span and latency uses).
std::uint64_t now_ns() noexcept;

namespace trace {

/// Switch recording on for the rest of the process.
void enable();
bool enabled() noexcept;

/// A fresh span id (0 when tracing is off). Ids are taken when a span
/// starts, so its children can name it as their parent before it ends.
std::uint64_t new_id() noexcept;

/// Record one finished span (no-op when tracing is off).
void record(const Span& s);

/// Record a span under a fresh id; returns the id (0 when tracing is off).
std::uint64_t record(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t parent,
                     std::uint64_t op);

/// Every span recorded since the last take(), merged across threads; the
/// buffers are left empty. Call only while no thread records.
std::vector<Span> take();

/// Durations in microseconds of every span named `name`.
std::vector<double> durations_us(const std::vector<Span>& spans,
                                 const char* name);

/// Write `spans` to `path`, one CSV row each. Returns false on I/O error.
bool write_csv(const std::vector<Span>& spans, const std::string& path);

}  // namespace trace

/// RAII span around a synchronous call: starts on construction, records on
/// destruction. Reads no clock when tracing is off.
class Scope {
 public:
  Scope(const char* name, std::uint64_t op, std::uint64_t parent = 0)
      : span_{name, 0, 0, trace::new_id(), parent, op} {
    if (span_.id != 0) span_.start_ns = now_ns();
  }
  ~Scope() {
    if (span_.id == 0) return;
    span_.end_ns = now_ns();
    trace::record(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const noexcept { return span_.id; }

 private:
  Span span_;
};

}  // namespace gtbench
