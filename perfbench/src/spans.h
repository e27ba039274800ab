#pragma once
// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (nothing inside the library is instrumented). Each span
// has a layer, a name, wall-clock start/end, the span that caused it (the
// enclosing span on the same thread) and the request it belongs to. They
// stay in per-thread buffers until the run ends, then are written out as a
// Chrome trace-event file and folded into per-layer self times.
//
// When recording is off, a Scope is one relaxed atomic load.

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

class Spans {
 public:
  /// Starts or stops recording; spans recorded earlier are kept. Switch
  /// only while no span is open.
  static void enable(bool on);
  [[nodiscard]] static bool enabled();

  /// Request id stamped on the spans the calling thread records next.
  static void set_request(std::uint64_t id);

  /// Number of spans recorded.
  [[nodiscard]] static std::size_t count();

  /// Self time per layer in milliseconds, summed over all spans: a span's
  /// duration minus the durations of its direct children (which nest
  /// inside it on the same thread, so they never overlap each other).
  [[nodiscard]] static std::map<std::string, double> self_ms_by_layer();

  /// Writes every span as Chrome trace-event JSON ("X" events, one row per
  /// thread, args carry the layer, request id and parent span id).
  static bool write_chrome(const std::string& path);

  /// RAII span. `layer` and `name` must be string literals.
  class Scope {
   public:
    Scope(const char* layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::int64_t index_ = -1;  // slot in the thread's buffer, -1 when off
  };
};

}  // namespace perfbench
