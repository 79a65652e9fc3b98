// perfbench — the repository benchmark: shared types.
//
// The benchmark is a program of its own.  It links the simulator libraries and
// times calls into each layer's public API from outside; nothing under src/
// is instrumented for it.  A run executes one named workload: a sequence of
// simmpi::World instances, each run to completion by a single caller, one
// after another ("passes" repeat the workload's World list).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"

namespace perfbench {

namespace fault = hcs::fault;
namespace sim = hcs::sim;
namespace simmpi = hcs::simmpi;
namespace topology = hcs::topology;
namespace vclock = hcs::vclock;

// ---------------------------------------------------------------- host side

/// Host seconds on a monotonic clock (arbitrary origin).
double host_now();

/// Current resident set (VmRSS) and high-water mark (VmHWM), in KiB.
double vm_rss_kib();
double vm_hwm_kib();

/// Returns freed heap pages to the kernel so the next World's RSS deltas
/// measure that World, not reuse of the previous one's pages.  Only the
/// per-layer run calls it; end-to-end passes run as the program would.
void release_free_memory();

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);

/// Host seconds one run of a fixed reference kernel takes right now.  The
/// kernel uses only the standard library (a dependent random walk over a
/// 4 MiB table and a 64 Ki-entry heap in a hold loop), so no change to the
/// simulator moves it; it tracks how fast this host is at the moment.
double reference_kernel_s();

/// The unit of "reference seconds": a time measured beside a kernel time k
/// is reported as time * kReferenceNominalS / k.  The kernel took 0.05-0.11 s
/// on the 4-vCPU Xeon host that defined the benchmark.
constexpr double kReferenceNominalS = 0.1;

// ------------------------------------------------------------------ tracing

/// One host-time interval recorded by the benchmark's own code.
struct Span {
  std::string name;   // "<layer>.<what>", e.g. "clocksync.sync_phase"
  double start = 0.0; // host seconds (host_now origin)
  double end = 0.0;
  int parent = -1;    // index into SpanLog::spans, -1 = root
  int world = -1;     // World id within the run
};

/// In-memory span recorder, written out once at the end of the run.  Only
/// the benchmark's main thread appends (rank programs stash per-rank stamps
/// that are folded into spans after World::run returns).
struct SpanLog {
  std::vector<Span> spans;

  int add(std::string name, double start, double end, int parent, int world) {
    spans.push_back({std::move(name), start, end, parent, world});
    return static_cast<int>(spans.size()) - 1;
  }
  /// Host seconds per layer (the name's prefix before the first '.'),
  /// excluding time covered by child spans.
  std::map<std::string, double> self_time_by_layer() const;
  std::string to_json() const;
};

/// Per-pass switches and sinks.  A traced pass (non-null `spans`) turns on
/// per-rank host stamps, span recording and the probes that need a live World.
struct PassContext {
  std::uint64_t seed = 1;
  SpanLog* spans = nullptr;
  bool trim_heap = false;  // release_free_memory() after each World
  int world_id = 0;   // id of the World being executed
  int run_span = -1;  // span of the current World::run (parent of phases)

  bool traced() const { return spans != nullptr; }
};

// -------------------------------------------------------------- world level

/// Deterministic results and host measurements of one executed World.
struct WorldResult {
  std::string world;  // World name within the workload, e.g. "hca3"
  int ranks = 0;

  // Host measurements of public-API calls, timed from outside.
  double construct_s = 0.0;  // World::World
  double launch_s = 0.0;     // World::launch
  double run_s = 0.0;        // World::run
  double launch_rss_mib = 0.0;
  std::uint64_t events = 0;
  std::uint64_t processes_spawned = 0;
  double shard_event_share_max = 0.0;

  // Simulated, deterministic outputs checked against the expected values.
  std::vector<std::pair<std::string, double>> values;
  // Invariant violations found by the World program itself.
  std::vector<std::string> violations;
  std::string error;  // exception text; non-empty means the World threw
  double probe_s = 0.0;  // host time spent in probes inside collect (not wall)

  // Layer metrics only the traced pass fills (keyed by per-layer metric name).
  std::map<std::string, double> layer;

  void value(const std::string& key, double v) { values.emplace_back(key, v); }
};

/// One World's rank program plus the slots it writes.  The World keeps a
/// reference to the RankFn that launch() received, so the executor holds it
/// in a named object until World::run has returned.
class WorldProgram {
 public:
  virtual ~WorldProgram() = default;
  virtual simmpi::World::RankFn rank_fn() = 0;
  /// Reads results out of the finished World (still alive here).
  virtual void collect(simmpi::World& world, WorldResult& out, PassContext& pass) = 0;
};

/// Description of one World of a workload pass.
struct WorldSpec {
  std::string name;
  topology::MachineConfig machine;
  fault::FaultPlan plan;
  int shards = 1;
  int fit_points = 0;  // the sync's fit-point count (for the fit probe)
  std::function<std::unique_ptr<WorldProgram>(const PassContext&)> program;
};

/// A named workload: why it is in the benchmark, how it is sized, and the
/// Worlds one pass runs.
struct Workload {
  std::string name;
  std::string why;
  std::string sizing;
  bool record_probe = false;  // measure replay::Recorder overhead in the traced run
  std::vector<WorldSpec> worlds;
};

/// Builds the named workload; `smoke` selects the small self-test size.
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, bool smoke, int nproc);

// ------------------------------------------------------------------- probes

/// Microbenchmarks of single layer operations, timed in warmed-up batches.
/// Each returns the median host nanoseconds per operation.
double probe_queue_ns(std::size_t pending);
double probe_resume_ns();
double probe_fit_ns(int points);
double probe_sample_ns(simmpi::NetworkModel& net, simmpi::LinkLevel level);
double probe_clock_read_ns(vclock::Clock& clock, double t);

}  // namespace perfbench
