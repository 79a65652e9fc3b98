// Host helpers, span bookkeeping and the layer probes.
//
// Probes drive one layer operation directly.  Each runs a warm-up batch,
// then several timed batches large enough that the two timer reads per batch
// are noise, and reports the median nanoseconds per operation.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <coroutine>
#include <fstream>
#include <functional>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "clocksync/fitting.hpp"
#include "perfbench.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

namespace clocksync = hcs::clocksync;

double host_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double proc_status_kib(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stod(line.substr(prefix.size()));
  }
  return 0.0;
}

// Times `batches` runs of `batch(ops)` after one warm-up call; returns the
// median ns per op.
template <class Fn>
double time_batches(int batches, std::size_t ops, Fn&& batch) {
  batch(ops);  // warm-up: caches, lazily grown state, branch predictors
  std::vector<double> per_op;
  for (int b = 0; b < batches; ++b) {
    const double t0 = host_now();
    batch(ops);
    const double t1 = host_now();
    per_op.push_back((t1 - t0) * 1e9 / static_cast<double>(ops));
  }
  return median(per_op);
}

volatile double g_sink = 0.0;  // keeps probe results observable

}  // namespace

double vm_rss_kib() { return proc_status_kib("VmRSS"); }
double vm_hwm_kib() { return proc_status_kib("VmHWM"); }
void release_free_memory() { malloc_trim(0); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double reference_kernel_s() {
  // Everything, the 4 MiB table included, is built inside the timed region
  // and freed afterwards, so the kernel leaves no resident memory behind to
  // inflate the workload's peak RSS.
  const double t0 = host_now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // xorshift64 state
  const auto next_u64 = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // A single random cycle over 1 Mi slots (Sattolo's algorithm): walking it
  // is a chain of dependent loads that defeats the prefetcher.
  std::vector<std::uint32_t> cycle(std::size_t{1} << 20);
  for (std::size_t i = 0; i < cycle.size(); ++i) cycle[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = cycle.size() - 1; i > 0; --i) std::swap(cycle[i], cycle[next_u64() % i]);
  std::uint32_t at = 0;
  for (int i = 0; i < 400'000; ++i) at = cycle[at];
  // Hold loop on a 64 Ki-entry min-heap: the event queue's access pattern.
  std::priority_queue<double, std::vector<double>, std::greater<>> heap;
  const auto next_uniform = [&] { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; };
  for (int i = 0; i < 65536; ++i) heap.push(next_uniform());
  for (int i = 0; i < 250'000; ++i) {
    const double t = heap.top();
    heap.pop();
    heap.push(t + next_uniform());
  }
  g_sink = heap.top() + at;
  return host_now() - t0;
}

std::map<std::string, double> SpanLog::self_time_by_layer() const {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += std::max(0.0, (s.end - s.start) - child[i]);
  }
  return out;
}

std::string SpanLog::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "[";
  const double origin = spans.empty() ? 0.0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n " : "\n ") << "{\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"start_s\": " << s.start - origin << ", \"end_s\": " << s.end - origin
       << ", \"parent\": " << s.parent << ", \"world\": " << s.world << "}";
  }
  os << "\n]\n";
  return os.str();
}

double probe_queue_ns(std::size_t pending) {
  // Hold model: the queue keeps `pending` events; each op pops the earliest
  // and pushes a successor a random increment later (the simulator's
  // steady-state shape).  Handles are never resumed.
  sim::EventQueue q;
  sim::Rng rng(7);
  const auto handle = std::coroutine_handle<>::from_address(&q);
  for (std::size_t i = 0; i < pending; ++i) q.push(rng.uniform(), handle);
  return time_batches(7, 200'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      const sim::EventQueue::Event ev = q.pop();
      q.push(ev.time + rng.uniform(), handle);
    }
  });
}

namespace {

sim::Task<void> delay_chain(sim::Simulation& s, std::size_t steps) {
  for (std::size_t i = 0; i < steps; ++i) co_await s.delay(1e-9);
}

}  // namespace

double probe_resume_ns() {
  // One resumption = one delay() suspend + queue round trip + resume.
  return time_batches(7, 200'000, [](std::size_t ops) {
    sim::Simulation s(3);
    s.spawn(delay_chain(s, ops));
    s.run();
  });
}

double probe_fit_ns(int points) {
  std::vector<double> x(static_cast<std::size_t>(points)), y(x.size());
  sim::Rng rng(11);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 10.0 + 0.01 * static_cast<double>(i);
    y[i] = 2e-6 * x[i] + 3e-3 + 1e-7 * rng.normal();
  }
  return time_batches(7, 20'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      g_sink = clocksync::fit_linear_model(x, y).model.slope;
    }
  });
}

double probe_sample_ns(simmpi::NetworkModel& net, simmpi::LinkLevel level) {
  return time_batches(7, 200'000, [&](std::size_t ops) {
    double acc = 0.0;
    for (std::size_t i = 0; i < ops; ++i) acc += net.sample_delay(level, 8);
    g_sink = acc;
  });
}

double probe_clock_read_ns(vclock::Clock& clock, double t) {
  return time_batches(7, 200'000, [&](std::size_t ops) {
    double acc = 0.0;
    for (std::size_t i = 0; i < ops; ++i) acc += clock.at(t + 1e-6 * static_cast<double>(i & 1023));
    g_sink = acc;
  });
}

}  // namespace perfbench
