#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#if defined(__linux__)
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#elif defined(__APPLE__)
#include <time.h>
#endif

#include "obs/json.hpp"
#include "obs/metrics.hpp"  // obs::enabled()

namespace fascia::obs {
namespace {

constexpr std::size_t kDefaultCapacity = 1u << 15;  // 32768 events, ~4 MB
constexpr std::size_t kMinCapacity = 64;

struct Ring {
  std::mutex mutex;                // guards slot (re)allocation only
  std::vector<TraceEvent> slots;   // allocated lazily on first record
  std::atomic<bool> allocated{false};  // publishes `slots` to recorders
  std::atomic<std::size_t> capacity{kDefaultCapacity};
  std::atomic<std::uint64_t> cursor{0};  // total records since reset
  std::atomic<std::uint64_t> epoch_ns{0};

  static Ring& instance() noexcept {
    static Ring ring;
    return ring;
  }

  // Recorders never take the mutex once the slots exist: the release
  // store below makes the resized vector visible to every thread that
  // observes `allocated` with acquire.
  void ensure_slots() {
    if (allocated.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(mutex);
    if (!allocated.load(std::memory_order_relaxed)) {
      slots.resize(capacity.load(std::memory_order_relaxed));
      allocated.store(true, std::memory_order_release);
    }
  }
};

std::uint32_t thread_id() noexcept {
#if defined(__linux__)
  thread_local std::uint32_t id =
      static_cast<std::uint32_t>(::syscall(SYS_gettid));
  return id;
#else
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1);
  return id;
#endif
}

void copy_field(char* dst, std::size_t cap, const char* src) noexcept {
  if (src == nullptr) {
    dst[0] = '\0';
    return;
  }
  std::size_t i = 0;
  for (; i + 1 < cap && src[i] != '\0'; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

}  // namespace

namespace detail {

std::uint64_t wall_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_now_ns() noexcept {
#if defined(__linux__) || defined(__APPLE__)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }
#endif
  return 0;
}

void record_span(const char* name, const char* detail, std::uint64_t start_ns,
                 std::uint64_t wall_ns, std::uint64_t cpu_ns, std::int64_t arg0,
                 std::int64_t arg1) noexcept {
  Ring& ring = Ring::instance();
  ring.ensure_slots();
  std::uint64_t epoch = ring.epoch_ns.load(std::memory_order_relaxed);
  if (epoch == 0 || start_ns < epoch) {
    // First record since reset claims the epoch (ties are benign: the
    // loser's spans get clamped starts, not corrupted data).
    ring.epoch_ns.compare_exchange_strong(epoch, start_ns,
                                          std::memory_order_relaxed);
    epoch = ring.epoch_ns.load(std::memory_order_relaxed);
  }
  const std::size_t cap = ring.slots.size();
  const std::uint64_t index =
      ring.cursor.fetch_add(1, std::memory_order_relaxed);
  TraceEvent& slot = ring.slots[index % cap];
  copy_field(slot.name, TraceEvent::kNameCapacity, name);
  copy_field(slot.detail, TraceEvent::kDetailCapacity, detail);
  slot.start_ns = start_ns >= epoch ? start_ns - epoch : 0;
  slot.wall_ns = wall_ns;
  slot.cpu_ns = cpu_ns;
  slot.arg0 = arg0;
  slot.arg1 = arg1;
  slot.tid = thread_id();
}

}  // namespace detail

TraceSpan::TraceSpan(const char* name, std::int64_t arg0, std::int64_t arg1,
                     const char* detail) noexcept {
  if (!enabled()) return;
  name_ = name;
  detail_ = detail;
  arg0_ = arg0;
  arg1_ = arg1;
  start_ns_ = detail::wall_now_ns();
  cpu_start_ns_ = detail::cpu_now_ns();
  active_ = true;
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const std::uint64_t wall = detail::wall_now_ns() - start_ns_;
  const std::uint64_t cpu_end = detail::cpu_now_ns();
  const std::uint64_t cpu =
      cpu_end >= cpu_start_ns_ ? cpu_end - cpu_start_ns_ : 0;
  detail::record_span(name_, detail_, start_ns_, wall, cpu, arg0_, arg1_);
}

std::uint64_t trace_recorded() noexcept {
  return Ring::instance().cursor.load(std::memory_order_relaxed);
}

std::uint64_t trace_dropped() noexcept {
  Ring& ring = Ring::instance();
  const std::uint64_t recorded = ring.cursor.load(std::memory_order_relaxed);
  const std::size_t cap = ring.capacity.load(std::memory_order_relaxed);
  return recorded > cap ? recorded - cap : 0;
}

std::size_t trace_capacity() noexcept {
  return Ring::instance().capacity.load(std::memory_order_relaxed);
}

void set_trace_capacity(std::size_t capacity) {
  Ring& ring = Ring::instance();
  std::lock_guard<std::mutex> lock(ring.mutex);
  ring.capacity.store(std::max(capacity, kMinCapacity),
                      std::memory_order_relaxed);
  ring.allocated.store(false, std::memory_order_relaxed);
  ring.slots.clear();
  ring.slots.shrink_to_fit();
  ring.cursor.store(0, std::memory_order_relaxed);
  ring.epoch_ns.store(0, std::memory_order_relaxed);
}

void reset_trace() noexcept {
  Ring& ring = Ring::instance();
  std::lock_guard<std::mutex> lock(ring.mutex);
  ring.cursor.store(0, std::memory_order_relaxed);
  ring.epoch_ns.store(0, std::memory_order_relaxed);
}

std::size_t trace_events(TraceEvent* out, std::size_t max_events) noexcept {
  Ring& ring = Ring::instance();
  std::lock_guard<std::mutex> lock(ring.mutex);
  if (ring.slots.empty()) return 0;
  const std::uint64_t recorded = ring.cursor.load(std::memory_order_relaxed);
  const std::size_t cap = ring.slots.size();
  const std::size_t kept =
      static_cast<std::size_t>(std::min<std::uint64_t>(recorded, cap));
  const std::size_t n = std::min(kept, max_events);
  // Oldest retained event sits at cursor % cap when the ring wrapped.
  const std::uint64_t first = recorded > cap ? recorded - cap : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = ring.slots[(first + i) % cap];
  }
  return n;
}

std::string chrome_trace_json() {
  std::vector<TraceEvent> events(trace_capacity());
  const std::size_t n = trace_events(events.data(), events.size());
  events.resize(n);
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });

  std::string out;
  out.reserve(n * 160 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) out.push_back(',');
    // Complete ("X") events; timestamps/durations in microseconds as
    // the trace_event format requires.
    std::snprintf(buf, sizeof(buf),
                  "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f",
                  e.name, e.tid, static_cast<double>(e.start_ns) / 1000.0,
                  static_cast<double>(e.wall_ns) / 1000.0);
    out += buf;
    out += ",\"args\":{";
    std::snprintf(buf, sizeof(buf), "\"cpu_us\":%.3f",
                  static_cast<double>(e.cpu_ns) / 1000.0);
    out += buf;
    if (e.arg0 >= 0) {
      std::snprintf(buf, sizeof(buf), ",\"arg0\":%lld",
                    static_cast<long long>(e.arg0));
      out += buf;
    }
    if (e.arg1 >= 0) {
      std::snprintf(buf, sizeof(buf), ",\"arg1\":%lld",
                    static_cast<long long>(e.arg1));
      out += buf;
    }
    if (e.detail[0] != '\0') {
      out += ",\"detail\":";
      // Fields are short ASCII written by copy_field; escape anyway.
      out += Json(std::string(e.detail)).dump();
    }
    out += "}}";
  }
  out += "\n],\"otherData\":{\"dropped\":";
  out += std::to_string(trace_dropped());
  out += "}}";
  return out;
}

bool write_chrome_trace(const std::string& path, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  const std::string doc = chrome_trace_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  const bool closed = std::fclose(f) == 0;
  if (!(ok && closed)) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace fascia::obs
