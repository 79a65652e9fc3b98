// The four workloads and their rank programs.
//
// Every program records its simulated results into per-rank slots (rank
// programs may run on shard worker threads) and, in the traced pass only,
// host timestamps around the layer calls it makes.  collect() folds both
// after World::run has returned: results into WorldResult::values, stamps
// into phase spans under the World's run span.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "clocksync/accuracy.hpp"
#include "clocksync/factory.hpp"
#include "clocksync/membership.hpp"
#include "clocksync/resync.hpp"
#include "clocksync/skampi_offset.hpp"
#include "mpibench/suites.hpp"
#include "perfbench.hpp"
#include "simmpi/comm.hpp"

namespace perfbench {

namespace clocksync = hcs::clocksync;
namespace {

using hcs::sim::Task;
using hcs::simmpi::RankCtx;
using hcs::simmpi::World;
namespace mpibench = hcs::mpibench;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double max_of(const std::vector<double>& v) {
  double m = -std::numeric_limits<double>::infinity();
  for (const double x : v) {
    if (!std::isnan(x)) m = std::max(m, x);
  }
  return m;
}

double min_of(const std::vector<double>& v) {
  double m = std::numeric_limits<double>::infinity();
  for (const double x : v) {
    if (!std::isnan(x)) m = std::min(m, x);
  }
  return m;
}

// Adds the span [min(begin), max(end)] when any rank stamped it.
double add_phase(PassContext& pass, const std::string& name, const std::vector<double>& begin,
                 const std::vector<double>& end) {
  const double b = min_of(begin), e = max_of(end);
  if (!std::isfinite(b) || !std::isfinite(e)) return 0.0;
  pass.spans->add(name, b, e, pass.run_span, pass.world_id);
  return e - b;
}

// Probes that need the live World: the network model's per-level sampler,
// the hardware clock early and late in the World's horizon, and the synced
// clock a rank returned.
void probe_world(World& world, const vclock::ClockPtr& synced, WorldResult& out) {
  static const char* kLevels[3] = {"intra_socket", "intra_node", "inter_node"};
  for (int l = 0; l < 3; ++l) {
    out.layer[std::string("simmpi.net.sample_ns.") + kLevels[l]] =
        probe_sample_ns(world.network(), static_cast<simmpi::LinkLevel>(l));
  }
  const vclock::ClockPtr hw = world.base_clock(0);
  const double horizon = world.sim().now();
  out.layer["vclock.hw_read_ns.early"] = probe_clock_read_ns(*hw, 1.0);
  out.layer["vclock.hw_read_ns.late"] = probe_clock_read_ns(*hw, std::max(1.0, horizon - 1.0));
  if (synced) {
    out.layer["vclock.global_read_ns"] = probe_clock_read_ns(*synced, std::max(1.0, horizon - 1.0));
  }
}

// Runs `fn` and charges its host time to out.probe_s (excluded from wall).
template <class Fn>
void timed_probe(WorldResult& out, Fn&& fn) {
  const double t0 = host_now();
  fn();
  out.probe_s += host_now() - t0;
}

// ------------------------------------------------------------- titan sync

/// bench_scale's program: one sync algorithm, then the accuracy check on a
/// capped client sample.
class SyncAccuracyProgram final : public WorldProgram {
 public:
  SyncAccuracyProgram(std::string label, int ranks, std::uint64_t seed, bool traced,
                      double bound_t0, double bound_t1)
      : label_(std::move(label)),
        traced_(traced),
        bound_t0_(bound_t0),
        bound_t1_(bound_t1),
        clients_(clocksync::sample_clients(ranks, 0, std::min(0.10, 2000.0 / ranks),
                                           seed ^ 0xabcdefULL)),
        sync_sim_(static_cast<std::size_t>(ranks), 0.0),
        health_(static_cast<std::size_t>(ranks), 0),
        sync_end_(traced ? ranks : 0, kNaN),
        acc_end_(traced ? ranks : 0, kNaN) {}

  World::RankFn rank_fn() override {
    return [this](RankCtx& ctx) { return body(ctx); };
  }

  void collect(World& world, WorldResult& out, PassContext& pass) override {
    int counts[3] = {0, 0, 0};
    for (const std::uint8_t h : health_) ++counts[std::min<int>(h, 2)];
    out.value("sync_duration", *std::max_element(sync_sim_.begin(), sync_sim_.end()));
    out.value("max_offset_t0", t0_);
    out.value("max_offset_t1", t1_);
    out.value("events", static_cast<double>(world.events_processed()));
    out.value("health_ok", counts[0]);
    out.value("health_degraded", counts[1]);
    out.value("health_failed", counts[2]);
    if (counts[0] != world.size()) {
      out.violations.push_back(std::to_string(world.size() - counts[0]) + " unclean SyncReports");
    }
    if (!(t0_ <= bound_t0_) || !(t1_ <= bound_t1_)) {
      out.violations.push_back("max offsets " + std::to_string(t0_) + " / " +
                               std::to_string(t1_) + " s exceed the bound");
    }
    if (!pass.traced()) return;
    std::vector<double> run_start(1, pass.spans->spans[pass.run_span].start);
    out.layer["clocksync.sync_phase_s"] = add_phase(pass, "clocksync.sync_phase", run_start, sync_end_);
    // The accuracy phase starts when the last rank leaves the sync (earlier
    // ranks wait inside the check), so the two phases tile the run.
    const std::vector<double> last_sync(1, max_of(sync_end_));
    out.layer["clocksync.accuracy_phase_s"] =
        add_phase(pass, "clocksync.accuracy_phase", last_sync, acc_end_);
    timed_probe(out, [&] { probe_world(world, last_clock_, out); });
  }

 private:
  Task<void> body(RankCtx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    auto sync = clocksync::make_sync(label_);
    const sim::Time begin = ctx.sim().now();
    const clocksync::SyncResult res =
        co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    sync_sim_[r] = ctx.sim().now() - begin;
    health_[r] = static_cast<std::uint8_t>(res.report.health);
    if (traced_) sync_end_[r] = host_now();
    clocksync::SKaMPIOffset oalg(10);
    const clocksync::AccuracyResult acc = co_await clocksync::check_clock_accuracy(
        ctx.comm_world(), *res.clock, oalg, 1.0, clients_);
    if (traced_) acc_end_[r] = host_now();
    if (r == 0) {
      t0_ = acc.max_abs_t0;
      t1_ = acc.max_abs_t1;
    }
    if (ctx.rank() == ctx.world().size() - 1) last_clock_ = res.clock;
  }

  std::string label_;
  bool traced_;
  double bound_t0_, bound_t1_;
  std::vector<int> clients_;
  std::vector<double> sync_sim_;
  std::vector<std::uint8_t> health_;
  std::vector<double> sync_end_, acc_end_;
  double t0_ = kNaN, t1_ = kNaN;
  vclock::ClockPtr last_clock_;
};

// ---------------------------------------------------------- fig09 allreduce

/// Fig. 9's program: H2HCA, then IMB-, OSU- and Round-Time Allreduce over a
/// message-size sweep, all in one World.
class AllreduceProgram final : public WorldProgram {
 public:
  AllreduceProgram(std::string label, std::vector<std::int64_t> msizes, int nrep, int ranks,
                   bool traced, double offset_bound)
      : label_(std::move(label)),
        msizes_(std::move(msizes)),
        nrep_(nrep),
        traced_(traced),
        offset_bound_(offset_bound),
        health_(static_cast<std::size_t>(ranks), 0),
        clocks_(static_cast<std::size_t>(ranks)),
        sync_end_(traced ? ranks : 0, kNaN),
        latency_(msizes_.size() * 3, kNaN) {
    if (traced) {
      stamps_.assign(msizes_.size() * 6, std::vector<double>(static_cast<std::size_t>(ranks), kNaN));
    }
  }

  World::RankFn rank_fn() override {
    return [this](RankCtx& ctx) { return body(ctx); };
  }

  void collect(World& world, WorldResult& out, PassContext& pass) override {
    static const char* kSuites[3] = {"imb", "osu", "repro"};
    for (std::size_t i = 0; i < msizes_.size(); ++i) {
      for (std::size_t s = 0; s < 3; ++s) {
        const double v = latency_[i * 3 + s];
        out.value(std::string(kSuites[s]) + "_us." + std::to_string(msizes_[i]), v * 1e6);
        if (!(v > 0.0) || !std::isfinite(v)) {
          out.violations.push_back(std::string(kSuites[s]) + " latency not positive");
        }
      }
    }
    out.value("reps_valid", reps_valid_);
    out.value("reps_invalid", reps_invalid_);
    out.value("events", static_cast<double>(world.events_processed()));
    const auto clean = std::count(health_.begin(), health_.end(), 0);
    out.value("health_ok", static_cast<double>(clean));
    if (clean != world.size()) {
      out.violations.push_back(std::to_string(world.size() - clean) + " unclean SyncReports");
    }
    // Every rank's global clock against rank 0's at the end of the run, the
    // last instant Round-Time relied on them.
    const double t = world.sim().now();
    const double ref = clocks_[0]->at_exact(t);
    double max_offset = 0.0;
    for (const vclock::ClockPtr& c : clocks_) {
      max_offset = std::max(max_offset, std::abs(c->at_exact(t) - ref));
    }
    out.value("max_offset", max_offset);
    if (!(max_offset <= offset_bound_)) {
      out.violations.push_back("max offset " + std::to_string(max_offset * 1e6) + " us exceeds " +
                               std::to_string(offset_bound_ * 1e6) + " us");
    }
    if (!pass.traced()) return;
    std::vector<double> run_start(1, pass.spans->spans[pass.run_span].start);
    out.layer["clocksync.sync_phase_s"] = add_phase(pass, "clocksync.sync_phase", run_start, sync_end_);
    static const char* kPhases[3] = {"mpibench.imb", "mpibench.osu", "mpibench.roundtime"};
    for (std::size_t i = 0; i < msizes_.size(); ++i) {
      for (std::size_t s = 0; s < 3; ++s) {
        out.layer[std::string(kPhases[s]) + "_s"] +=
            add_phase(pass, kPhases[s], stamps_[i * 6 + s * 2], stamps_[i * 6 + s * 2 + 1]);
      }
    }
    out.layer["mpibench.reps_valid"] = reps_valid_;
    out.layer["mpibench.reps_invalid"] = reps_invalid_;
    timed_probe(out, [&] { probe_world(world, last_clock_, out); });
  }

 private:
  void stamp(std::size_t slot, std::size_t r) {
    if (traced_) stamps_[slot][r] = host_now();
  }

  Task<void> body(RankCtx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    const vclock::ClockPtr clk = ctx.base_clock();
    auto sync = clocksync::make_sync(label_);
    const clocksync::SyncResult g = co_await sync->sync_clocks(ctx.comm_world(), clk);
    health_[r] = static_cast<std::uint8_t>(g.report.health);
    clocks_[r] = g.clock;
    if (traced_) sync_end_[r] = host_now();
    const mpibench::BarrierSchemeParams bp{nrep_, simmpi::BarrierAlgo::kTree};
    mpibench::RoundTimeParams rt;
    rt.max_nrep = nrep_;
    rt.max_time_slice = 5.0;  // the paper's 5 s time slice per message size
    for (std::size_t i = 0; i < msizes_.size(); ++i) {
      const mpibench::CollectiveOp op = mpibench::make_allreduce_op(msizes_[i]);
      mpibench::SuiteReport rep[3];
      stamp(i * 6 + 0, r);
      rep[0] = co_await mpibench::run_imb_like(ctx.comm_world(), *clk, op, bp);
      stamp(i * 6 + 1, r);
      stamp(i * 6 + 2, r);
      rep[1] = co_await mpibench::run_osu_like(ctx.comm_world(), *clk, op, bp);
      stamp(i * 6 + 3, r);
      stamp(i * 6 + 4, r);
      rep[2] = co_await mpibench::run_repro_like(ctx.comm_world(), *g, op, rt);
      stamp(i * 6 + 5, r);
      if (r == 0) {
        for (int s = 0; s < 3; ++s) {
          latency_[i * 3 + static_cast<std::size_t>(s)] = rep[s].reported_latency;
          reps_valid_ += rep[s].reps;
          reps_invalid_ += rep[s].invalid_reps;
        }
      }
    }
    if (ctx.rank() == ctx.world().size() - 1) last_clock_ = g.clock;
  }

  std::string label_;
  std::vector<std::int64_t> msizes_;
  int nrep_;
  bool traced_;
  double offset_bound_;
  std::vector<std::uint8_t> health_;
  std::vector<vclock::ClockPtr> clocks_;  // each rank's H2HCA global clock
  std::vector<double> sync_end_;
  std::vector<std::vector<double>> stamps_;  // [msize * 6 + suite * 2 + {begin,end}][rank]
  std::vector<double> latency_;              // [msize * 3 + suite], rank 0
  double reps_valid_ = 0.0, reps_invalid_ = 0.0;
  vclock::ClockPtr last_clock_;
};

// ----------------------------------------------------------- service churn

/// bench_service's program: periodic HCA3 resyncs through ResyncManager,
/// re-admission sub-phases for ranks returning from the churn plan.
class ServiceProgram final : public WorldProgram {
 public:
  ServiceProgram(std::string label, double duration, double interval, int ranks,
                 int expected_readmits, bool traced)
      : label_(std::move(label)),
        duration_(duration),
        interval_(interval),
        traced_(traced),
        expected_readmits_(expected_readmits),
        history_(static_cast<std::size_t>(ranks)),
        readmits_(static_cast<std::size_t>(ranks), 0),
        resyncs_(static_cast<std::size_t>(ranks), 0),
        readmit_spans_(static_cast<std::size_t>(ranks)) {}

  World::RankFn rank_fn() override {
    return [this](RankCtx& ctx) { return body(ctx); };
  }

  /// Fixed instants at which every rank's clock is read after the run.
  std::vector<double> read_instants() const {
    std::vector<double> t;
    for (int k = 1; k < 8; ++k) t.push_back(duration_ * k / 8.0 + 0.25);
    return t;
  }

  void collect(World& world, WorldResult& out, PassContext& pass) override {
    const fault::FaultInjector* fault = world.fault_injector();
    int readmits_total = 0;
    for (std::size_t r = 0; r < history_.size(); ++r) {
      out.value("resyncs.r" + std::to_string(r), resyncs_[r]);
      out.value("readmits.r" + std::to_string(r), readmits_[r]);
      readmits_total += readmits_[r];
      if (resyncs_[r] < 1) out.violations.push_back("rank " + std::to_string(r) + " never synced");
    }
    const std::vector<double> instants = read_instants();
    for (std::size_t k = 0; k < instants.size(); ++k) {
      const double t = instants[k];
      const vclock::Clock* ref = clock_at(0, t);
      for (std::size_t r = 0; r < history_.size(); ++r) {
        const bool down = fault != nullptr && fault->is_down(static_cast<int>(r), t);
        const vclock::Clock* c = down ? nullptr : clock_at(r, t);
        // Offset from true time; -1 marks a rank that is down at t.
        const double read = c != nullptr ? c->at_exact(t) - t : -1.0;
        out.value("read" + std::to_string(k) + ".r" + std::to_string(r), read);
        if (c != nullptr && ref != nullptr && std::abs(c->at_exact(t) - ref->at_exact(t)) > 1e-3) {
          out.violations.push_back("rank " + std::to_string(r) + " off rank 0 by > 1 ms");
        }
      }
    }
    out.value("readmits", readmits_total);
    out.value("events", static_cast<double>(world.events_processed()));
    if (readmits_total != expected_readmits_) {
      out.violations.push_back("readmissions " + std::to_string(readmits_total) + " != " +
                               std::to_string(expected_readmits_));
    }
    if (!pass.traced()) return;
    double round_s = 0.0;
    for (const auto& [b, e] : round_spans_) {
      pass.spans->add("clocksync.resync_round", b, e, pass.run_span, pass.world_id);
      round_s += e - b;
    }
    double readmit_s = 0.0;
    for (const auto& per_rank : readmit_spans_) {
      for (const auto& [b, e] : per_rank) {
        pass.spans->add("clocksync.readmit", b, e, pass.run_span, pass.world_id);
        readmit_s += e - b;
      }
    }
    out.layer["clocksync.resync_round_s"] = round_s;
    out.layer["clocksync.readmit_s"] = readmit_s;
    out.layer["clocksync.sync_phase_s"] = first_sync_s_;
    out.layer["fault.rss_growth_kib_per_round"] = rss_slope();
    timed_probe(out, [&] { probe_world(world, history_[0].back().second, out); });
  }

 private:
  const vclock::Clock* clock_at(std::size_t r, double t) const {
    const vclock::Clock* best = nullptr;
    for (const auto& [at, clock] : history_[r]) {
      if (at > t) break;
      best = clock.get();
    }
    return best;
  }

  // Least-squares slope of rank 0's VmRSS samples over round index.
  double rss_slope() const {
    const std::size_t n = rss_kib_.size();
    if (n < 2) return 0.0;
    double mx = 0.0, my = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mx += static_cast<double>(i);
      my += rss_kib_[i];
    }
    mx /= static_cast<double>(n);
    my /= static_cast<double>(n);
    double sxy = 0.0, sxx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sxy += (static_cast<double>(i) - mx) * (rss_kib_[i] - my);
      sxx += (static_cast<double>(i) - mx) * (static_cast<double>(i) - mx);
    }
    return sxy / sxx;
  }

  struct AgendaItem {
    sim::Time at = 0.0;
    bool serve = false;  // false = resync round, true = serve a re-admission
    clocksync::ReadmitEvent event;
  };

  Task<void> body(RankCtx& ctx) {
    World& world = ctx.world();
    const fault::FaultInjector* fault = world.fault_injector();
    sim::Simulation& s = ctx.sim();
    const int me = ctx.rank();
    const auto r = static_cast<std::size_t>(me);
    const sim::Time entry = s.now();
    const int inc = fault != nullptr ? fault->incarnation(me, entry) : 0;
    const sim::Time my_end =
        std::min(fault != nullptr ? fault->next_down(me, entry) : sim::kTimeInfinity, duration_);
    const bool sample = traced_ && me == 0;

    clocksync::ResyncManager mgr(clocksync::make_sync(label_), interval_);
    clocksync::SKaMPIOffset oalg(8);
    const clocksync::ReadmitPolicy policy;
    vclock::ClockPtr clock;
    const double h0 = traced_ ? host_now() : 0.0;
    if (inc == 0) {
      simmpi::Comm view = simmpi::Comm::view_comm(world, me, entry);
      clock = co_await mgr.tick(view, ctx.base_clock());
      if (sample) first_sync_s_ = host_now() - h0;
    } else {
      const clocksync::ReadmitEvent event{entry, me, inc};
      simmpi::Comm view = simmpi::Comm::view_comm(world, me, entry);
      const clocksync::ReadmitResult res =
          co_await clocksync::readmit(view, event, ctx.base_clock(), oalg, policy);
      if (traced_) readmit_spans_[r].emplace_back(h0, host_now());
      clock = res.clock;
      ++readmits_[r];
      mgr.adopt(clock, clock->at_exact(s.now()) + interval_);
    }
    history_[r].emplace_back(s.now(), clock);

    std::vector<AgendaItem> agenda;
    for (const clocksync::ReadmitEvent& ev : clocksync::readmit_schedule(world)) {
      if (ev.rank == me || ev.at < entry || ev.at >= my_end) continue;
      if (clocksync::readmit_reference(world, ev) != me) continue;
      agenda.push_back({ev.at, true, ev});
    }
    for (sim::Time t = interval_; t < my_end; t += interval_) {
      if (t > entry) agenda.push_back({t, false, {}});
    }
    std::sort(agenda.begin(), agenda.end(), [](const AgendaItem& a, const AgendaItem& b) {
      if (a.at != b.at) return a.at < b.at;
      if (a.serve != b.serve) return a.serve;  // serve before the round at ties
      return a.event.rank < b.event.rank;
    });

    for (const AgendaItem& item : agenda) {
      if (s.now() < item.at) co_await s.delay(item.at - s.now());
      world.check_crash(me);
      const double b = traced_ ? host_now() : 0.0;
      if (item.serve) {
        simmpi::Comm view = simmpi::Comm::view_comm(world, me, item.event.at);
        (void)co_await clocksync::readmit(view, item.event, clock, oalg, policy);
        if (traced_) readmit_spans_[r].emplace_back(b, host_now());
      } else {
        const int before = mgr.resyncs();
        simmpi::Comm view = simmpi::Comm::view_comm(world, me, item.at);
        clock = co_await mgr.tick(view, ctx.base_clock());
        if (mgr.resyncs() != before) history_[r].emplace_back(s.now(), clock);
        if (sample) {
          round_spans_.emplace_back(b, host_now());
          rss_kib_.push_back(vm_rss_kib());
        }
      }
    }
    resyncs_[r] = mgr.resyncs();
    if (my_end < duration_) {
      // Departs before the window ends: run up to the departure so the churn
      // supervisor sees the crash and starts the next incarnation.
      if (s.now() < my_end) co_await s.delay(my_end - s.now());
      world.check_crash(me);
    }
  }

  std::string label_;
  double duration_, interval_;
  bool traced_;
  int expected_readmits_;
  std::vector<std::vector<std::pair<double, vclock::ClockPtr>>> history_;
  std::vector<int> readmits_, resyncs_;
  std::vector<std::vector<std::pair<double, double>>> readmit_spans_;
  std::vector<std::pair<double, double>> round_spans_;  // rank 0's resync rounds
  std::vector<double> rss_kib_;                          // rank 0, after each round
  double first_sync_s_ = 0.0;
};

std::string fault_spec(const char* kind, int rank, double at) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s:rank=%d,at=%.6fs", kind, rank, at);
  return buf;
}

// ---------------------------------------------------------------- builders

// Accuracy bounds for the invariant check on seeds without stored values:
// about 4x the largest max offset seen across the stored seeds at this size.
struct TitanBounds {
  double t0, t1;
};

WorldSpec titan_world(const std::string& algo, int ranks, int shards, TitanBounds bounds) {
  const int nodes = (ranks + 15) / 16;  // Titan is 16 cores per node
  const std::string label = algo + "/50/skampi_offset/8";
  WorldSpec w;
  w.name = algo;
  w.machine = topology::titan().with_nodes(nodes);
  w.shards = shards;
  w.fit_points = 50;
  w.program = [label, ranks = nodes * 16, bounds](const PassContext& pass) {
    return std::make_unique<SyncAccuracyProgram>(label, ranks, pass.seed, pass.traced(),
                                                 bounds.t0, bounds.t1);
  };
  return w;
}

Workload titan(const std::string& name, int ranks, int shards, bool smoke) {
  Workload wl;
  wl.name = name;
  // JK's sequential chain lets drift accumulate for the whole sync, so its
  // offsets grow with the rank count; HCA3's stay at a few microseconds.
  const TitanBounds hca3{20e-6, 400e-6}, jk{smoke ? 100e-6 : 3e-3, smoke ? 200e-6 : 3e-3};
  wl.worlds = {titan_world("hca3", ranks, shards, hca3), titan_world("jk", ranks, shards, jk)};
  wl.sizing = std::to_string(ranks) + " Titan ranks, hca3 + jk at 50 fit points x 8 ping-pongs, " +
              "accuracy on <= 2000 clients, " + std::to_string(shards) + " shard(s), no faults";
  return wl;
}

}  // namespace

Workload make_workload(const std::string& name, bool smoke, int nproc) {
  if (name == "titan_sync") {
    Workload wl = titan(name, smoke ? 512 : 16384, 1, smoke);
    wl.why = "set-up and memory dominate and the event queue is deep; JK's shallow "
             "sequential chain runs through the same code";
    return wl;
  }
  if (name == "titan_sync_sharded") {
    // nproc - 1 shards, because World::run adds a coordinating thread to the
    // shard workers; at least 2 so the window protocol always runs.
    Workload wl = titan(name, smoke ? 512 : 8192, std::clamp(nproc - 1, 2, 4), smoke);
    wl.why = "the only workload on the conservative-PDES window protocol: HCA3 gains from "
             "shards, JK loses";
    return wl;
  }
  if (name == "fig09_allreduce") {
    const int nodes = smoke ? 4 : 64;
    const std::vector<std::int64_t> msizes = {4, 32, 256, 1024};
    const int nrep = smoke ? 4 : 5;
    const std::string label = "top/hca3/100/skampi_offset/10/bottom/clockpropagation";
    WorldSpec w;
    w.name = "h2hca";
    w.machine = topology::titan().with_nodes(nodes);
    w.fit_points = 100;
    // The sync tests' bound for this H2HCA label right after the sync; the
    // stored seeds stay under 0.15 us at the end of the run.
    const double offset_bound = 2e-6;
    w.program = [=](const PassContext& pass) {
      return std::make_unique<AllreduceProgram>(label, msizes, nrep, nodes * 16, pass.traced(),
                                                offset_bound);
    };
    Workload wl;
    wl.name = name;
    wl.why = "message-level transport, collectives and mpibench dominate; set-up and sync "
             "are small, so it is the counterweight to the Titan sync workloads";
    wl.sizing = std::to_string(nodes) + " x 16 Titan ranks, H2HCA (100 fit points x 10), then "
                "IMB/OSU/Round-Time Allreduce at 4, 32, 256 and 1024 B, " +
                std::to_string(nrep) + " reps each";
    wl.record_probe = true;
    wl.worlds = {w};
    return wl;
  }
  if (name == "service_churn") {
    const double duration = smoke ? 1200.0 : 24000.0;
    const double interval = 20.0;
    topology::MachineConfig machine = topology::testbox(8, 1);
    machine.clocks.initial_offset_abs = 5e-3;
    machine.clocks.base_skew_abs = 2e-6;
    machine.clocks.skew_walk_sd = 0.005e-6;
    // bench_service's default churn plan: rank 5 leaves and rejoins twice,
    // rank 2 once, at fixed fractions of the window off the resync cadence.
    WorldSpec w;
    w.name = "service";
    w.machine = machine;
    const double d = duration;
    w.plan.add(fault_spec("leave", 5, 0.15 * d + 1.3));
    w.plan.add(fault_spec("rejoin", 5, 0.25 * d + 2.7));
    w.plan.add(fault_spec("leave", 2, 0.45 * d + 0.9));
    w.plan.add(fault_spec("rejoin", 2, 0.50 * d + 1.1));
    w.plan.add(fault_spec("leave", 5, 0.70 * d + 0.5));
    w.plan.add(fault_spec("rejoin", 5, 0.72 * d + 1.7));
    w.fit_points = 40;
    const std::string label = "hca3/40/skampi_offset/8";
    w.program = [=](const PassContext& pass) {
      return std::make_unique<ServiceProgram>(label, duration, interval, 8,
                                              /*expected_readmits=*/3, pass.traced());
    };
    Workload wl;
    wl.name = name;
    wl.why = "the only workload with faults active (injector, detector, view_comm, readmit) "
             "and the only long-horizon one, where memory grows with simulated time";
    wl.sizing = "8-rank testbox, HCA3 (40 fit points x 8) resync every 20 s over " +
                std::to_string(static_cast<int>(duration)) + " simulated s (" +
                std::to_string(static_cast<int>(duration / interval)) +
                " rounds), bench_service's leave/rejoin plan";
    wl.record_probe = true;
    wl.worlds = {w};
    return wl;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
