// hcsbench — runs one perfbench workload and prints its metrics.
//
//   hcsbench --workload NAME --seed N --seconds S --trace 0|1
//            [--size full|smoke] [--expected FILE] [--perturb WORLD.KEY]
//            [--emit-expected] [--spans-out FILE] [--source-id ID]
//
// --trace 0 repeats the workload's World list ("passes") until S host
// seconds have elapsed (at least once) and reports the end-to-end metrics,
// times in reference seconds (perfbench.hpp).  --trace 1 runs a warm-up
// pass, one untraced pass, one traced pass (spans, the metrics registry,
// per-rank host stamps, World probes), a recorded pass where the workload
// asks for one, and the standalone layer probes, and reports the per-layer
// metrics.  Either way every executed World is checked, and the last stdout
// line is the JSON result object.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"
#include "replay/format.hpp"
#include "replay/record.hpp"
#include "trace/metrics.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool emit_expected = false;
  std::string expected_path;
  std::string perturb;
  std::string spans_out;
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "hcsbench: " << msg << "\n"
            << "usage: hcsbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--size full|smoke] [--expected FILE] [--perturb WORLD.KEY] "
               "[--emit-expected] [--spans-out FILE] [--source-id ID]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--emit-expected") {
      o.emit_expected = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--trace") o.trace = std::stoi(v) != 0;
      else if (flag == "--size") o.smoke = v == "smoke";
      else if (flag == "--expected") o.expected_path = v;
      else if (flag == "--perturb") o.perturb = v;
      else if (flag == "--spans-out") o.spans_out = v;
      else if (flag == "--source-id") o.source_id = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string first_line_with(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      std::string v = colon == std::string::npos ? line : line.substr(colon + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      return v;
    }
  }
  return "unknown";
}

std::string host_json(const Options& o, const Workload& wl) {
  std::ostringstream os;
  os << "{\"host\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": " << json_str(first_line_with("/proc/cpuinfo", "model name"))
     << ", \"ram\": " << json_str(first_line_with("/proc/meminfo", "MemTotal"))
     << ", \"compiler\": " << json_str(std::string("g++ ") + __VERSION__)
     << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
     << ", \"source\": " << json_str(o.source_id) << "}, \"workload\": " << json_str(wl.name)
     << ", \"why\": " << json_str(wl.why) << ", \"sizing\": " << json_str(wl.sizing)
     << ", \"seed\": " << o.seed << ", \"trace\": " << (o.trace ? 1 : 0) << "}";
  return os.str();
}

// --------------------------------------------------------- expected values

/// Stored deterministic results, keyed "workload size seed world key".
class Expected {
 public:
  void load(const std::string& path) {
    if (path.empty()) return;
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read expected values from " + path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string wl, size, seed, world, key, value;
      ls >> wl >> size >> seed >> world >> key >> value;
      table_[wl + " " + size + " " + seed][world + "." + key] = std::strtod(value.c_str(), nullptr);
    }
  }

  /// The stored values for this run's (workload, size, seed), or null.
  std::map<std::string, double>* find(const std::string& wl, bool smoke, std::uint64_t seed) {
    auto it = table_.find(wl + (smoke ? " smoke " : " full ") + std::to_string(seed));
    return it == table_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, std::map<std::string, double>> table_;
};

bool same(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return false;
  return std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
}

/// Empty when the World passed; otherwise why it failed.
std::string check_world(const WorldResult& w, const std::map<std::string, double>* expected) {
  if (!w.error.empty()) return "threw: " + w.error;
  if (!w.violations.empty()) return "invariant: " + w.violations.front();
  if (expected == nullptr) return "";
  std::size_t matched = 0;
  for (const auto& [key, v] : w.values) {
    const auto it = expected->find(w.world + "." + key);
    if (it == expected->end()) return "no expected value for " + key;
    if (!same(v, it->second)) {
      return key + " = " + num(v) + ", expected " + num(it->second);
    }
    ++matched;
  }
  std::size_t stored = 0;
  const std::string prefix = w.world + ".";
  for (const auto& kv : *expected) stored += kv.first.rfind(prefix, 0) == 0 ? 1 : 0;
  if (matched != stored) return "missing results for stored keys";
  return "";
}

// ------------------------------------------------------------------ passes

// Set-up samples: after each pass, up to kMaxSetupPerPass while they cost
// under kSetupShare of the pass; at least kMinSetupSamples per run.
constexpr int kMinSetupSamples = 5;
constexpr int kMaxSetupPerPass = 50;
constexpr double kSetupShare = 0.05;
// Reference-kernel time per World, as a share of the World's run time.
constexpr double kReferenceShare = 0.25;

struct PassResult {
  std::vector<WorldResult> worlds;
  double wall_s = 0.0;   // host seconds for the pass, probes excluded
  double setup_s = 0.0;  // sum of World::World + World::launch
  double run_s = 0.0;    // sum of World::run
  std::uint64_t events = 0;
  double ref_s = 0.0;    // mean reference-kernel time, run after each World
  bool sharded = false;  // some World ran on shard worker threads

  /// Host seconds -> reference seconds at the speed this pass ran at.
  double to_ref() const { return kReferenceNominalS / ref_s; }
  /// The factor for run and wall times.  The single-threaded kernel tracks
  /// single-threaded work only: a sharded World::run follows cross-thread
  /// hand-offs (its wall correlated 0.24 with the kernel time over ten runs,
  /// against 0.85-0.91 for the unsharded workloads), so it stays in host
  /// seconds.  Set-up is single-threaded everywhere and always uses to_ref().
  double run_scale() const { return sharded ? 1.0 : to_ref(); }
};

WorldResult execute_world(const WorldSpec& spec, PassContext& pass, bool setup_only) {
  WorldResult out;
  out.world = spec.name;
  const std::unique_ptr<WorldProgram> program = spec.program(pass);
  // The World holds a reference to the RankFn launch() received; this named
  // object outlives both run() and the World itself.
  const hcs::simmpi::World::RankFn fn = program->rank_fn();
  const double t0 = host_now();
  int world_span = -1;
  try {
    hcs::simmpi::World world(spec.machine, pass.seed, spec.plan, spec.shards);
    const double t1 = host_now();
    const double rss0 = vm_rss_kib();
    world.launch(fn);
    const double t2 = host_now();
    out.ranks = world.size();
    out.construct_s = t1 - t0;
    out.launch_s = t2 - t1;
    out.launch_rss_mib = (vm_rss_kib() - rss0) / 1024.0;
    if (setup_only) return out;
    world.run();
    const double t3 = host_now();
    out.run_s = t3 - t2;
    out.events = world.events_processed();
    std::vector<std::uint64_t> per_shard(static_cast<std::size_t>(world.shards()), 0);
    std::vector<bool> seen(per_shard.size(), false);
    for (int r = 0; r < world.size(); ++r) {
      const auto s = static_cast<std::size_t>(world.shard_of_rank(r));
      if (seen[s]) continue;
      seen[s] = true;
      per_shard[s] = world.sim_of(r).events_processed();
      out.processes_spawned += world.sim_of(r).processes_spawned();
    }
    const auto biggest = *std::max_element(per_shard.begin(), per_shard.end());
    out.shard_event_share_max =
        out.events ? static_cast<double>(biggest) / static_cast<double>(out.events) : 0.0;
    if (pass.spans) {
      world_span = pass.spans->add("world." + spec.name, t0, t3, -1, pass.world_id);
      pass.spans->add("simmpi.construct", t0, t1, world_span, pass.world_id);
      pass.spans->add("simmpi.launch", t1, t2, world_span, pass.world_id);
      pass.run_span = pass.spans->add("simmpi.run", t2, t3, world_span, pass.world_id);
    }
    program->collect(world, out, pass);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  if (pass.spans && world_span >= 0) {
    // The root span covers destruction too (it is part of the pass's wall).
    pass.spans->spans[static_cast<std::size_t>(world_span)].end = host_now() - out.probe_s;
  }
  return out;
}

PassResult run_pass(const Workload& wl, PassContext& pass, bool setup_only = false) {
  PassResult p;
  double excluded_s = 0.0;  // probes, heap trimming and the reference kernel
  const double t0 = host_now();
  for (const WorldSpec& spec : wl.worlds) {
    WorldResult w = execute_world(spec, pass, setup_only);
    ++pass.world_id;
    const double trim0 = host_now();
    if (pass.trim_heap) release_free_memory();
    // The reference kernel runs for about a quarter of the World's run time
    // (at least once), so long Worlds get a reference averaged over a
    // comparable stretch.  Set-up-only passes are scaled by the caller.
    if (!setup_only) {
      double sum = 0.0;
      int n = 0;
      do {
        sum += reference_kernel_s();
        ++n;
      } while (sum < kReferenceShare * w.run_s);
      p.ref_s += sum / n / static_cast<double>(wl.worlds.size());
      if (pass.trim_heap) release_free_memory();  // the kernel's own buffers
    }
    excluded_s += host_now() - trim0 + w.probe_s;
    p.setup_s += w.construct_s + w.launch_s;
    p.run_s += w.run_s;
    p.events += w.events;
    p.sharded = p.sharded || spec.shards > 1;
    p.worlds.push_back(std::move(w));
  }
  p.wall_s = host_now() - t0 - excluded_s;
  return p;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void check(const PassResult& p, const std::map<std::string, double>* expected) {
    for (const WorldResult& w : p.worlds) {
      ++attempted;
      const std::string why = check_world(w, expected);
      if (!why.empty()) {
        ++failed;
        failures.push_back(w.world + ": " + why);
      }
    }
  }
};

// ----------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double layer_max(const PassResult& p, const std::string& key) {
  double v = 0.0;
  for (const WorldResult& w : p.worlds) {
    const auto it = w.layer.find(key);
    if (it != w.layer.end()) v = std::max(v, it->second);
  }
  return v;
}

double layer_sum(const PassResult& p, const std::string& key) {
  double v = 0.0;
  for (const WorldResult& w : p.worlds) {
    const auto it = w.layer.find(key);
    if (it != w.layer.end()) v += it->second;
  }
  return v;
}

double ns_per_event(const PassResult& p, const std::string& world) {
  for (const WorldResult& w : p.worlds) {
    if (w.world == world && w.events) return w.run_s * 1e9 / static_cast<double>(w.events);
  }
  return 0.0;
}

double counter(const hcs::trace::MetricsRegistry& reg, const std::string& name) {
  const auto it = reg.counters().find(name);
  return it == reg.counters().end() ? 0.0 : static_cast<double>(it->second.value());
}

std::vector<Metric> layer_metrics(const Workload& wl, const PassResult& plain,
                                  const PassResult& traced, const hcs::trace::MetricsRegistry& reg,
                                  const PassResult* recorded, double recording_bytes) {
  std::vector<Metric> m;
  double spawned = 0.0, construct = 0.0, launch = 0.0, launch_mib = 0.0, kib_rank = 0.0,
         share = 0.0;
  for (const WorldResult& w : plain.worlds) {
    spawned += static_cast<double>(w.processes_spawned);
    construct += w.construct_s;
    launch += w.launch_s;
    launch_mib = std::max(launch_mib, w.launch_rss_mib);
    kib_rank = std::max(kib_rank, w.launch_rss_mib * 1024.0 / std::max(1, w.ranks));
    share = std::max(share, w.shard_event_share_max);
  }
  const double events = static_cast<double>(plain.events);
  m.push_back({"sim.events", events, "count"});
  m.push_back({"sim.processes_spawned", spawned, "count"});
  m.push_back({"sim.host_ns_per_event", events ? plain.run_s * 1e9 / events : 0.0, "ns"});
  m.push_back({"sim.host_ns_per_event.hca3", ns_per_event(plain, "hca3"), "ns"});
  m.push_back({"sim.host_ns_per_event.jk", ns_per_event(plain, "jk"), "ns"});
  m.push_back({"sim.queue_ns.shallow", probe_queue_ns(1024), "ns"});
  m.push_back({"sim.queue_ns.deep", probe_queue_ns(65536), "ns"});
  m.push_back({"sim.resume_ns", probe_resume_ns(), "ns"});

  m.push_back({"simmpi.construct_s", construct, "s"});
  m.push_back({"simmpi.launch_s", launch, "s"});
  m.push_back({"simmpi.launch_rss_mib", launch_mib, "MiB"});
  m.push_back({"simmpi.launch_kib_per_rank", kib_rank, "KiB"});
  m.push_back({"simmpi.run_s", plain.run_s, "s"});
  m.push_back({"simmpi.shard_event_share_max", share, "ratio"});
  double messages = 0.0;
  for (const char* level : {"intra_socket", "intra_node", "inter_node"}) {
    const std::string l = level;
    m.push_back({"simmpi.net.sample_ns." + l, layer_max(traced, "simmpi.net.sample_ns." + l), "ns"});
    const double msgs = counter(reg, "net.messages." + l);
    messages += msgs;
    m.push_back({"simmpi.net.messages." + l, msgs, "count"});
    m.push_back({"simmpi.net.bytes." + l, counter(reg, "net.bytes." + l), "B"});
  }
  const double pingpongs = counter(reg, "sync.pingpongs");
  m.push_back({"simmpi.burst_share",
               pingpongs + messages > 0 ? pingpongs / (pingpongs + messages) : 0.0, "ratio"});

  m.push_back({"vclock.hw_read_ns.early", layer_max(traced, "vclock.hw_read_ns.early"), "ns"});
  m.push_back({"vclock.hw_read_ns.late", layer_max(traced, "vclock.hw_read_ns.late"), "ns"});
  m.push_back({"vclock.global_read_ns", layer_max(traced, "vclock.global_read_ns"), "ns"});

  m.push_back({"clocksync.sync_phase_s", layer_sum(traced, "clocksync.sync_phase_s"), "s"});
  m.push_back({"clocksync.accuracy_phase_s", layer_sum(traced, "clocksync.accuracy_phase_s"), "s"});
  m.push_back({"clocksync.fit_ns", probe_fit_ns(wl.worlds.front().fit_points), "ns"});
  m.push_back({"clocksync.fit_points", counter(reg, "sync.fit_points"), "count"});
  m.push_back({"clocksync.resync_round_s", layer_sum(traced, "clocksync.resync_round_s"), "s"});
  m.push_back({"clocksync.readmit_s", layer_sum(traced, "clocksync.readmit_s"), "s"});

  m.push_back({"mpibench.imb_s", layer_sum(traced, "mpibench.imb_s"), "s"});
  m.push_back({"mpibench.osu_s", layer_sum(traced, "mpibench.osu_s"), "s"});
  m.push_back({"mpibench.roundtime_s", layer_sum(traced, "mpibench.roundtime_s"), "s"});
  m.push_back({"mpibench.reps_valid", layer_sum(traced, "mpibench.reps_valid"), "count"});
  m.push_back({"mpibench.reps_invalid", layer_sum(traced, "mpibench.reps_invalid"), "count"});

  m.push_back({"fault.rss_growth_kib_per_round",
               layer_max(traced, "fault.rss_growth_kib_per_round"), "KiB"});
  m.push_back({"fault.retransmits", counter(reg, "fault.net.retransmits"), "count"});
  m.push_back({"fault.exchanges_lost", counter(reg, "sync.exchanges_lost"), "count"});

  const double plain_ref_s = plain.wall_s * plain.run_scale();
  m.push_back({"replay.record_overhead",
               recorded ? recorded->wall_s * recorded->run_scale() / plain_ref_s : 0.0, "ratio"});
  m.push_back({"replay.bytes_per_event", recorded ? recording_bytes / events : 0.0, "B"});
  m.push_back({"trace.overhead", traced.wall_s * traced.run_scale() / plain_ref_s, "ratio"});
  return m;
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << json_str(metrics[i].name) << ": {\"value\": " << num(metrics[i].value)
       << ", \"unit\": " << json_str(metrics[i].unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Options& o) {
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  Workload wl = make_workload(o.workload, o.smoke, nproc);
  Expected expected;
  expected.load(o.expected_path);

  if (o.emit_expected) {
    // Reference values come from unsharded Worlds, so a sharded workload is
    // checked against what one shard computes.
    for (WorldSpec& w : wl.worlds) w.shards = 1;
    PassContext pass;
    pass.seed = o.seed;
    const PassResult p = run_pass(wl, pass);
    for (const WorldResult& w : p.worlds) {
      if (!w.error.empty()) throw std::runtime_error(w.world + " threw: " + w.error);
      for (const auto& [key, v] : w.values) {
        std::printf("%s %s %llu %s %s %s\n", wl.name.c_str(), o.smoke ? "smoke" : "full",
                    static_cast<unsigned long long>(o.seed), w.world.c_str(), key.c_str(),
                    num(v).c_str());
      }
    }
    return 0;
  }

  std::map<std::string, double>* stored = expected.find(wl.name, o.smoke, o.seed);
  if (!o.perturb.empty()) {
    if (!stored) throw std::runtime_error("--perturb: no stored values for this seed and size");
    const auto it = stored->find(o.perturb);
    if (it == stored->end()) throw std::runtime_error("--perturb: no stored value " + o.perturb);
    it->second += std::max(1.0, std::abs(it->second) * 1e-3);
  }
  std::cout << host_json(o, wl) << "\n";
  std::cout << "workload " << wl.name << ": " << wl.sizing << "\n  why: " << wl.why << "\n"
            << "  check: " << (stored ? "stored values + invariants" : "invariants only") << "\n";

  Tally tally;
  std::vector<Metric> metrics;
  if (!o.trace) {
    // Times are reported in reference seconds (perfbench.hpp): this host's
    // speed drifts by tens of percent within minutes, and the reference
    // kernel run beside each pass cancels that drift.  A sharded pass's wall
    // and run times stay in host seconds (PassResult::run_scale).  Raw host
    // seconds are printed alongside.
    std::vector<double> walls, raw_walls, setups, raw_setups, rates, refs;
    const auto setup_only_pass = [&] {
      PassContext pass;
      pass.seed = o.seed;
      return run_pass(wl, pass, /*setup_only=*/true).setup_s;
    };
    const double deadline = host_now() + o.seconds;
    do {
      PassContext pass;
      pass.seed = o.seed;
      const PassResult p = run_pass(wl, pass);
      tally.check(p, stored);
      for (const WorldResult& w : p.worlds) {
        std::printf("  pass %zu %-8s construct %.4f s  launch %.4f s  run %.4f s  events %llu\n",
                    walls.size(), w.world.c_str(), w.construct_s, w.launch_s, w.run_s,
                    static_cast<unsigned long long>(w.events));
      }
      raw_walls.push_back(p.wall_s);
      walls.push_back(p.wall_s * p.run_scale());
      refs.push_back(p.ref_s);
      rates.push_back(p.run_s > 0 ? static_cast<double>(p.events) / (p.run_s * p.run_scale())
                                  : 0.0);
      // Set-up samples: the pass's own, then set-up-only passes (construct +
      // launch, destroyed unrun) while they cost under kSetupShare of the
      // pass, all scaled by this pass's reference.
      double spent = 0.0;
      for (int n = 0; n < kMaxSetupPerPass && spent < kSetupShare * p.wall_s; ++n) {
        const double sample = n == 0 ? p.setup_s : setup_only_pass();
        raw_setups.push_back(sample);
        setups.push_back(sample * p.to_ref());
        spent += sample;
      }
    } while (host_now() < deadline);
    // Long set-ups leave few samples: top up to kMinSetupSamples, scaled by
    // the kernel timed right before and after the top-up (median of three
    // each side, as one kernel run is noisier than the set-up samples).
    if (static_cast<int>(setups.size()) < kMinSetupSamples) {
      const auto kernel_s = [] {
        return median({reference_kernel_s(), reference_kernel_s(), reference_kernel_s()});
      };
      std::vector<double> extra;
      const double ref0 = kernel_s();
      while (static_cast<int>(setups.size() + extra.size()) < kMinSetupSamples) {
        extra.push_back(setup_only_pass());
      }
      const double to_ref = 2.0 * kReferenceNominalS / (ref0 + kernel_s());
      for (const double sample : extra) {
        raw_setups.push_back(sample);
        setups.push_back(sample * to_ref);
      }
    }
    metrics = {{"wall_s", median(walls), "s"},
               {"setup_s", median(setups), "s"},
               {"peak_rss_mib", vm_hwm_kib() / 1024.0, "MiB"},
               {"events_per_s", median(rates), "1/s"}};
    std::cout << "pass wall, host s:";
    for (const double w : raw_walls) std::cout << " " << w;
    std::cout << "\nhost s: wall median " << median(raw_walls) << ", set-up median "
              << median(raw_setups) << "; reference kernel median " << median(refs)
              << " s (nominal " << kReferenceNominalS << " s)";
    std::cout << "\npasses: " << walls.size() << ", set-up samples: " << setups.size()
              << ", worlds: " << tally.attempted << ", failed_ratio: "
              << static_cast<double>(tally.failed) / static_cast<double>(tally.attempted) << "\n";
  } else {
    // The first pass in a process pays one-time costs (frame-pool growth,
    // first page faults); a warm-up pass keeps them out of both sides of
    // trace.overhead and replay.record_overhead.  Every pass here trims the
    // heap after each World, so launch_rss_mib measures that World alone.
    const auto layer_pass = [&] {
      PassContext ctx;
      ctx.seed = o.seed;
      ctx.trim_heap = true;
      return ctx;
    };
    PassContext warm_ctx = layer_pass();
    tally.check(run_pass(wl, warm_ctx), stored);
    PassContext plain_ctx = layer_pass();
    const PassResult plain = run_pass(wl, plain_ctx);
    tally.check(plain, stored);

    hcs::trace::MetricsRegistry registry;
    SpanLog spans;
    PassResult traced;
    {
      const hcs::trace::ScopedMetrics scoped(&registry);
      PassContext ctx = layer_pass();
      ctx.spans = &spans;
      traced = run_pass(wl, ctx);
    }
    tally.check(traced, stored);

    PassResult recorded;
    double recording_bytes = 0.0;
    if (wl.record_probe) {
      hcs::replay::Recorder recorder;
      {
        const hcs::replay::ScopedRecorder scoped(&recorder);
        PassContext ctx = layer_pass();
        recorded = run_pass(wl, ctx);
      }
      recording_bytes = static_cast<double>(hcs::replay::serialize(recorder).size());
      tally.check(recorded, stored);
    }
    metrics = layer_metrics(wl, plain, traced, registry, wl.record_probe ? &recorded : nullptr,
                            recording_bytes);
    std::cout << "layer self time (traced pass, host s):\n";
    for (const auto& [layer, s] : spans.self_time_by_layer()) {
      std::printf("  %-12s %10.4f\n", layer.c_str(), s);
    }
    if (!o.spans_out.empty()) {
      std::ofstream out(o.spans_out);
      out << spans.to_json();
    }
  }
  for (const std::string& f : tally.failures) std::cout << "FAILED " << f << "\n";
  std::cout << "metrics (" << (o.trace ? "per layer" : "end to end") << "):\n";
  print_table(metrics);
  print_result(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::cerr << "hcsbench: " << e.what() << "\n";
    return 1;
  }
}
