#pragma once

// Span recorder of the traced run. Spans are taken in the bench's own
// files, around calls into each layer's public functions; the library
// itself carries no tracing. Each thread appends to its own vector, so a
// span opened inside a parallel_for body costs no lock. Recording is off
// until enable(); a disabled Scope is one branch.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qip::suite::trace {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = request root
  std::uint64_t request = 0;  ///< shared by every span of one request
  const char* layer = "";
  const char* name = "";
  std::int64_t t0 = 0;  ///< steady_clock ns
  std::int64_t t1 = 0;
  std::uint32_t thread = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

/// Switch recording on or off for the whole process.
void enable(bool on = true);
[[nodiscard]] bool enabled();
[[nodiscard]] std::uint64_t new_request();

/// RAII span: opened at construction, recorded at destruction.
class Scope {
 public:
  Scope(const char* layer, const char* name, std::uint64_t parent,
        std::uint64_t request, std::uint64_t bytes_in = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void bytes_out(std::uint64_t b) { span_.bytes_out = b; }
  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
};

/// Every span recorded so far, on all threads, ordered by id. Call only
/// while no thread is recording.
[[nodiscard]] std::vector<Span> collect();

/// One JSON object per line.
void write_jsonl(const std::string& path, const std::vector<Span>& spans);

/// Per-request attribution.
struct Request {
  double attributed_s = 0;  ///< wall time covered by spans of non-codec layers
  std::map<std::string, double> self_s;  ///< layer -> sum of span self times
};

/// Attribute `spans` per request. A span's self time is its duration
/// minus the part of it covered by its child spans (on any thread).
[[nodiscard]] std::map<std::uint64_t, Request> attribute(
    const std::vector<Span>& spans);

}  // namespace qip::suite::trace
