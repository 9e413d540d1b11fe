#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace qip::suite::trace {
namespace {

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_next_request{1};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu

Buffer& local_buffer() {
  thread_local Buffer* b = nullptr;
  if (!b) {
    std::lock_guard<std::mutex> lk(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    b = g_buffers.back().get();
    b->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
    b->spans.reserve(4096);
  }
  return *b;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Total length of the union of [lo, hi) intervals clipped to [a, b).
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                     std::int64_t a, std::int64_t b) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, a);
    hi = std::min(hi, b);
    if (lo >= hi) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

void enable(bool on) { g_on.store(on, std::memory_order_relaxed); }

bool enabled() { return g_on.load(std::memory_order_relaxed); }

std::uint64_t new_request() {
  return enabled() ? g_next_request.fetch_add(1, std::memory_order_relaxed)
                   : 0;
}

Scope::Scope(const char* layer, const char* name, std::uint64_t parent,
             std::uint64_t request, std::uint64_t bytes_in) {
  if (!enabled()) return;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent;
  span_.request = request;
  span_.layer = layer;
  span_.name = name;
  span_.bytes_in = bytes_in;
  span_.t0 = now_ns();
}

Scope::~Scope() {
  if (span_.id == 0) return;
  span_.t1 = now_ns();
  Buffer& b = local_buffer();
  span_.thread = b.thread;
  b.spans.push_back(span_);
}

std::vector<Span> collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lk(g_mu);
  for (const auto& b : g_buffers)
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

void write_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans)
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"layer\": \"%s\", \"name\": \"%s\", \"t0_ns\": %lld, "
                 "\"t1_ns\": %lld, \"thread\": %u, \"bytes_in\": %llu, "
                 "\"bytes_out\": %llu}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.layer, s.name,
                 static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                 s.thread, static_cast<unsigned long long>(s.bytes_in),
                 static_cast<unsigned long long>(s.bytes_out));
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

std::map<std::uint64_t, Request> attribute(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans)
    if (s.parent) children[s.parent].emplace_back(s.t0, s.t1);

  std::map<std::uint64_t, Request> out;
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      layer_iv;
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> roots;
  for (const Span& s : spans) {
    Request& r = out[s.request];
    const auto it = children.find(s.id);
    const std::int64_t self =
        (s.t1 - s.t0) -
        (it == children.end() ? 0 : covered(it->second, s.t0, s.t1));
    r.self_s[s.layer] += static_cast<double>(self) * 1e-9;
    if (s.parent == 0) {
      roots[s.request] = {s.t0, s.t1};
    } else if (std::string(s.layer) != "codec") {
      layer_iv[s.request].emplace_back(s.t0, s.t1);
    }
  }
  for (auto& [req, iv] : layer_iv) {
    const auto root = roots.find(req);
    if (root == roots.end()) continue;
    out[req].attributed_s =
        static_cast<double>(
            covered(std::move(iv), root->second.first, root->second.second)) *
        1e-9;
  }
  return out;
}

}  // namespace qip::suite::trace
