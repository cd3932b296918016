// End-to-end and per-layer benchmark of the block-rearrangement simulator.
//
//   abr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   abr_perfbench --self-test
//
// A run repeats one workload's whole protocol ("round": set-up, then every
// day and pass of the protocol, for each of the workload's independent
// instances) for --seconds of host time. Every round of a run simulates the
// same days from the same seeds, so each round's simulated output is
// identical and host time is the only thing that varies.
//
// --trace 0 times rounds driven through the public entry points
// (core::RunOnOffDays, a stepped core::Experiment, core::RunArrayOnOff) and
// prints the end-to-end metrics. --trace 1 alternates such untraced rounds
// with traced rounds that rebuild the same stack from each layer's public
// calls, time every call from outside, and print the per-layer metrics.
// Both modes then run one stepped reference round and one traced round and
// check the outputs (see checks.h); the last stdout line is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analyzer/exact_counter.h"
#include "array/array_device.h"
#include "checks.h"
#include "core/adaptive_system.h"
#include "core/array_day.h"
#include "core/experiment.h"
#include "core/onoff.h"
#include "driver/table_store.h"
#include "fs/file_server.h"
#include "workload/file_server_workload.h"
#include "workload/synthetic.h"

namespace abr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main(): the cold set-up time
// is the time from here to the first round plus that round's set-up.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Adds the host time of its scope to an accumulator.
class Span {
 public:
  explicit Span(double& acc) : acc_(acc), t0_(Clock::now()) {}
  ~Span() { acc_ += SecondsSince(t0_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& acc_;
  Clock::time_point t0_;
};

/// A non-OK Status from any layer call ends the run: its outputs cannot be
/// checked, so it is reported as a failed operation and an incorrect run.
/// May be called from a worker thread, so it ends the process without
/// running destructors under the other threads' feet.
[[noreturn]] void Fatal(const std::string& what, const Status& status) {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::fprintf(stderr, "FATAL: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::printf(
      "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": "
      "{}}\n");
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(1);
}

void Must(const Status& s, const char* what) {
  if (!s.ok()) Fatal(what, s);
}

template <typename T>
T Must(StatusOr<T> v, const char* what) {
  if (!v.ok()) Fatal(what, v.status());
  return std::move(v.value());
}

/// Runs fn(k) for every k in [0, n) on `jobs` threads, each taking the next
/// index as it finishes one; returns when all are done.
void ParallelFor(std::size_t n, std::int32_t jobs,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t k; (k = next++) < n;) fn(k);
  };
  std::vector<std::thread> threads;
  for (std::int32_t j = 1; j < jobs; ++j) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// --- Workloads -------------------------------------------------------------

enum class Kind { kFsOnOff, kFsContinuous, kArray };

/// One workload: independent systems (file servers or arrays), each with
/// its own seed derived from --seed, all run in every round. The simulated
/// end-to-end figures average over all of them, which keeps them steady
/// from seed to seed.
struct Workload {
  Kind kind = Kind::kFsOnOff;
  std::string name;
  std::vector<core::ExperimentConfig> fs;       // file-system workloads
  array::ArrayConfig array;                     // array workload
  std::vector<core::ArrayDayConfig> array_day;  // array workload
  /// Instances run at once. File servers: one per hardware thread, up to
  /// four. Arrays: one at a time, since each steps its members in parallel.
  std::int32_t jobs = 1;
  /// On/off workloads: off and on days after the warm-up day. Continuous:
  /// plan-carrying days after the warm-up day.
  std::int32_t days = 0;
  const PublishedDrive* published = nullptr;
  /// Method check: on-day mean seek must be at most this share of the
  /// baseline (off days, or the warm-up day where there are none).
  double max_seek_ratio = 0;
};

// Instance counts are set so that the simulated end-to-end figures move by
// only a few percent from one --seed to the next: a single file server's
// hot set (and so its seek and wait times) depends strongly on its seed.
bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload& w) {
  w.name = name;
  const std::int32_t hw = static_cast<std::int32_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  w.jobs = std::min(4, hw);
  if (name == "fs_system_onoff") {
    w.kind = Kind::kFsOnOff;
    for (std::int32_t k = 0; k < 32; ++k) {
      w.fs.push_back(core::ExperimentConfig::ToshibaSystem());
      w.fs.back().seed = Mix(Mix(seed) + 0x5157u + k);
    }
    w.days = 2;
    w.published = &PublishedToshibaMK156F();
    w.max_seek_ratio = 0.5;
    return true;
  }
  if (name == "fs_users_continuous") {
    w.kind = Kind::kFsContinuous;
    for (std::int32_t k = 0; k < 8; ++k) {
      w.fs.push_back(core::ExperimentConfig::FujitsuUsers());
      w.fs.back().system.continuous = true;
      w.fs.back().seed = Mix(Mix(seed) + 0x05E5u + k);
    }
    w.days = 4;
    w.published = &PublishedFujitsuM2266();
    w.max_seek_ratio = 0.8;
    return true;
  }
  if (name == "array_raid0_fleet") {
    w.kind = Kind::kArray;
    w.array.level = array::RaidLevel::kRaid0;
    w.array.members = 4;
    w.array.chunk_blocks = 1;
    w.array.adaptive_epoch = true;
    // At most one worker per member, and never more than the host has.
    w.jobs = 1;
    w.array.threads = std::min(w.array.members, hw);
    for (std::int32_t k = 0; k < 12; ++k) {
      core::ArrayDayConfig d;
      d.seed = Mix(Mix(seed) + 0xA4A4u + k);
      // Adaptive windows fuse up to 32 two-minute grids (a 60-minute day
      // fits in one window), so a 100-minute day crosses two barriers.
      d.day_length = 100 * kMinute;
      d.synthetic.population = 4000;
      d.synthetic.write_fraction = 0.3;
      d.synthetic.arrivals.mean_burst_size = 8.0;
      d.synthetic.arrivals.mean_burst_gap = 100 * kMillisecond;
      w.array_day.push_back(d);
    }
    w.days = 2;
    w.published = &PublishedToshibaMK156F();
    w.max_seek_ratio = 0.5;
    return true;
  }
  return false;
}

bool IsOnDay(const Workload& w, std::size_t day_with_warmup) {
  if (day_with_warmup == 0) return false;
  if (w.kind == Kind::kFsContinuous) return true;
  return day_with_warmup % 2 == 0;  // warm-up, off, on, off, on, ...
}

// --- Round results ---------------------------------------------------------

/// Block tables of every member (one for the file-system workloads).
using Tables = std::vector<Mapping>;

/// What one system instance produced in one round.
struct Result {
  /// Measured days; the warm-up day first when `has_warmup`.
  std::vector<core::DayMetrics> days;
  bool has_warmup = true;
  /// Block tables after each arrangement pass (continuous: after each
  /// day, when the day's plan has closed).
  std::vector<Tables> passes;
  Tables final_tables;
  /// Disk time of internal (movement and table) I/O over the round.
  Micros move_io = 0;
  double wall_s = 0;  // host time of the days and passes, set-up excluded
};

/// Every instance of the workload, run once.
struct Round {
  std::vector<Result> results;
  /// Host time of the round's set-up: the file servers' set-up phase (all
  /// are set up before any day runs), or the sum of the arrays' builds
  /// (arrays run one at a time, each built just before its days).
  double setup_s = 0;
  /// Host time of the round's days and passes, set-up excluded.
  double wall_s = 0;
};

Tables FsTables(const driver::AdaptiveDriver& d) {
  return {SnapshotMapping(d.block_table())};
}

Tables ArrayTables(const array::ArrayDevice& dev) {
  Tables t;
  for (std::int32_t m = 0; m < dev.members(); ++m) {
    t.push_back(SnapshotMapping(dev.member_driver(m).block_table()));
  }
  return t;
}

Micros ArrayInternalIo(const array::ArrayDevice& dev) {
  Micros t = 0;
  for (std::int32_t m = 0; m < dev.members(); ++m) {
    t += dev.member_driver(m).internal_io_time();
  }
  return t;
}

/// Every member's table after every pass, in one list.
std::vector<Mapping> Flatten(const std::vector<Tables>& passes) {
  std::vector<Mapping> all;
  for (const Tables& t : passes) all.insert(all.end(), t.begin(), t.end());
  return all;
}

// --- Untraced rounds through the public entry points -----------------------

/// fs_system_onoff: core::RunOnOffDays on a set-up core::Experiment.
Result RunFsOnOff(const Workload& w, core::Experiment& exp) {
  Result r;
  r.has_warmup = false;
  const Micros io0 = exp.driver().internal_io_time();
  const auto t1 = Clock::now();
  core::OnOffResult result = Must(core::RunOnOffDays(exp, w.days), "on/off");
  r.wall_s = SecondsSince(t1);
  r.move_io = exp.driver().internal_io_time() - io0;
  r.days = core::InterleaveOnOff(result);
  r.final_tables = FsTables(exp.driver());
  return r;
}

/// Stepped core::Experiment (set up): the day sequence RunOnOffDays runs
/// (on/off), or warm-up then one continuous plan per day. With
/// `snapshots`, records the block table after every pass.
Result StepFs(const Workload& w, core::Experiment& exp, bool snapshots) {
  Result r;
  const Micros io0 = exp.driver().internal_io_time();
  const auto t1 = Clock::now();
  r.days.push_back(Must(exp.RunMeasuredDay(), "warm-up day"));
  const std::int32_t n = w.kind == Kind::kFsOnOff ? 2 * w.days : w.days;
  for (std::int32_t i = 0; i < n; ++i) {
    if (w.kind == Kind::kFsContinuous) {
      Must(exp.OpenContinuousPlanForNextDay(), "open plan");
    } else if (i % 2 == 1) {
      Must(exp.RearrangeForNextDay(), "rearrange");
    } else {
      Must(exp.CleanForNextDay(), "clean");
    }
    if (snapshots && w.kind == Kind::kFsOnOff) {
      r.passes.push_back(FsTables(exp.driver()));
    }
    exp.AdvanceWorkloadDay();
    r.days.push_back(Must(exp.RunMeasuredDay(), "measured day"));
    if (snapshots && w.kind == Kind::kFsContinuous) {
      r.passes.push_back(FsTables(exp.driver()));
    }
  }
  r.wall_s = SecondsSince(t1);
  r.move_io = exp.driver().internal_io_time() - io0;
  r.final_tables = FsTables(exp.driver());
  return r;
}

/// array_raid0_fleet: core::RunArrayOnOff over a started array's runner.
Result RunArray(const Workload& w, array::ArrayDevice& dev,
                core::ArrayDayRunner& runner) {
  Result r;
  r.has_warmup = false;
  const Micros io0 = ArrayInternalIo(dev);
  const auto t1 = Clock::now();
  core::ArrayOnOffResult result =
      Must(core::RunArrayOnOff(runner, w.days), "array on/off");
  r.wall_s = SecondsSince(t1);
  if (result.crashes_seen != 0 || result.lost_requests != 0) {
    Fatal("array on/off", Status::FailedPrecondition("member crash or lost request"));
  }
  r.move_io = ArrayInternalIo(dev) - io0;
  r.days = core::InterleaveOnOff(
      {std::move(result.off_days), std::move(result.on_days)});
  r.final_tables = ArrayTables(dev);
  return r;
}

/// Stepped core::ArrayDayRunner with a block-table snapshot after each
/// pass: the reference the traced array round is compared against.
Result StepArray(const Workload& w, std::size_t k) {
  Result r;
  array::ArrayDevice dev(w.array);
  Must(dev.Start(), "array start");
  core::ArrayDayRunner runner(&dev, w.array_day[k]);
  const Micros io0 = ArrayInternalIo(dev);
  const auto t1 = Clock::now();
  r.days.push_back(Must(runner.RunMeasuredDay(), "array warm-up day"));
  for (std::int32_t i = 0; i < 2 * w.days; ++i) {
    if (i % 2 == 1) {
      Must(runner.RearrangeForNextDay(), "array rearrange");
    } else {
      Must(runner.CleanForNextDay(), "array clean");
    }
    r.passes.push_back(ArrayTables(dev));
    r.days.push_back(Must(runner.RunMeasuredDay(), "array day"));
  }
  r.wall_s = SecondsSince(t1);
  r.move_io = ArrayInternalIo(dev) - io0;
  r.final_tables = ArrayTables(dev);
  return r;
}

std::size_t Instances(const Workload& w) {
  return w.kind == Kind::kArray ? w.array_day.size() : w.fs.size();
}

Round MeasureRound(const Workload& w) {
  Round round;
  const std::size_t n = Instances(w);
  round.results.resize(n);
  if (w.kind == Kind::kArray) {
    for (std::size_t k = 0; k < n; ++k) {
      const auto t0 = Clock::now();
      array::ArrayDevice dev(w.array);
      Must(dev.Start(), "array start");
      core::ArrayDayRunner runner(&dev, w.array_day[k]);
      round.setup_s += SecondsSince(t0);
      round.results[k] = RunArray(w, dev, runner);
      round.wall_s += round.results[k].wall_s;
    }
    return round;
  }
  std::vector<std::unique_ptr<core::Experiment>> exps(n);
  const auto t0 = Clock::now();
  ParallelFor(n, w.jobs, [&](std::size_t k) {
    exps[k] = std::make_unique<core::Experiment>(w.fs[k]);
    Must(exps[k]->Setup(), "experiment setup");
  });
  round.setup_s = SecondsSince(t0);
  const auto t1 = Clock::now();
  ParallelFor(n, w.jobs, [&](std::size_t k) {
    round.results[k] = w.kind == Kind::kFsOnOff
                           ? RunFsOnOff(w, *exps[k])
                           : StepFs(w, *exps[k], /*snapshots=*/false);
  });
  round.wall_s = SecondsSince(t1);
  return round;
}

Round ReferenceRound(const Workload& w) {
  Round round;
  round.results.resize(Instances(w));
  ParallelFor(round.results.size(), w.jobs, [&](std::size_t k) {
    if (w.kind == Kind::kArray) {
      round.results[k] = StepArray(w, k);
    } else {
      core::Experiment exp(w.fs[k]);
      Must(exp.Setup(), "experiment setup");
      round.results[k] = StepFs(w, exp, /*snapshots=*/true);
    }
  });
  return round;
}

// --- Traced rounds ---------------------------------------------------------

/// One per-layer metric, in print order. `call`: host time of public layer
/// calls, part of the timed total that `run.unattributed_s` is taken from.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool call;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"workload.run_day_s", "s", true},
    {"workload.generate_s", "s", true},
    {"fs.flush_s", "s", true},
    {"driver.drain_records_s", "s", true},
    {"driver.read_stats_s", "s", true},
    {"analyzer.observe_s", "s", true},
    {"core.ground_truth_s", "s", true},
    {"placement.rearrange_s", "s", true},
    {"placement.clean_s", "s", true},
    {"placement.open_plan_s", "s", true},
    {"placement.close_day_s", "s", true},
    {"array.submit_s", "s", true},
    {"array.plan_s", "s", true},
    {"array.advance_s", "s", true},
    {"array.drain_s", "s", true},
    {"array.rearrange_s", "s", true},
    {"array.clean_s", "s", true},
    {"array.read_stats_s", "s", true},
    {"array.barrier_stall_s", "s", false},
    {"array.barrier_merge_s", "s", false},
    {"run.traced_wall_s", "s", false},
    {"run.untraced_wall_s", "s", false},
    {"run.cpu_s", "s", false},
    {"run.unattributed_s", "s", false},
    {"trace.overhead_s", "s", false},
    {"workload.ops", "count", false},
    {"workload.requests", "count", false},
    {"fs.cache_hits", "count", false},
    {"fs.cache_misses", "count", false},
    {"fs.cache_hit_ratio", "ratio", false},
    {"driver.requests", "count", false},
    {"driver.records", "count", false},
    {"disk.track_buffer_hits", "count", false},
    {"disk.straddle_refs", "count", false},
    {"driver.copy_ins", "count", false},
    {"driver.shuffles", "count", false},
    {"driver.evictions", "count", false},
    {"placement.kept", "count", false},
    {"placement.shuffled", "count", false},
    {"placement.evicted", "count", false},
    {"placement.admitted", "count", false},
    {"placement.skipped", "count", false},
    {"placement.deferred", "count", false},
    {"analyzer.tracked", "count", false},
    {"array.barriers", "count", false},
    {"disk.on_seek_cyl", "cyl", false},
    {"disk.on_rot_xfer_ms", "ms", false},
    {"disk.off_seek_ms", "ms", false},
    {"disk.off_service_ms", "ms", false},
    {"driver.move_busy_s", "s", false},
    {"driver.arrange_stall_s", "s", false},
    {"driver.idle_s", "s", false},
};

// Traced-round totals that are not printed as they are: the round's gross
// host time and the part of it spent in the benchmark's own checks.
constexpr const char* kTracedWall = "traced.wall_s";
constexpr const char* kCheckTime = "traced.checks_s";

/// Per-layer values of traced rounds, keyed by metric name: host seconds
/// and counts summed over instances and rounds (`analyzer.tracked` keeps
/// the largest). A name never set reads 0.
class Layers {
 public:
  double& operator[](std::string_view name) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      if (!Known(name)) {
        Fatal("layers", Status::InvalidArgument("unknown metric " +
                                                std::string(name)));
      }
      it = values_.emplace(std::string(name), 0.0).first;
    }
    return it->second;
  }

  double Get(std::string_view name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  /// Folds another instance's (or round's) values into these.
  void Add(const Layers& o) {
    for (const auto& [name, v] : o.values_) {
      double& mine = (*this)[name];
      mine = name == "analyzer.tracked" ? std::max(mine, v) : mine + v;
    }
  }

  /// Host seconds of all timed layer calls.
  double Timed() const {
    double t = 0;
    for (const LayerMetric& m : kLayerMetrics) {
      if (m.call) t += Get(m.name);
    }
    return t;
  }

 private:
  static bool Known(std::string_view name) {
    if (name == kTracedWall || name == kCheckTime) return true;
    return std::any_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                       [&](const LayerMetric& m) { return name == m.name; });
  }

  std::map<std::string, double, std::less<>> values_;
};

void AddMoves(Layers& L, const driver::MoveCounters& m) {
  L["driver.copy_ins"] += m.copy_ins;
  L["driver.shuffles"] += m.shuffles;
  L["driver.evictions"] += m.evictions;
}

void AddArrange(Layers& L, const placement::ArrangeResult& a) {
  L["placement.kept"] += a.kept;
  L["placement.shuffled"] += a.shuffled;
  L["placement.evicted"] += a.evicted;
  L["placement.admitted"] += a.admitted;
  L["placement.skipped"] += a.skipped;
  L["placement.deferred"] += a.deferred;
}
/// The file-system stack of core::Experiment, rebuilt from the public
/// calls of each layer (label, disk, AdaptiveSystem, FileServer,
/// FileServerWorkload), with every call timed. Also feeds the checks that
/// need values only visible between layers: per-day records, straddling
/// references, and exact per-period reference counts.
class FsTracer {
 public:
  FsTracer(const Workload& w, std::size_t k, Layers& L, CheckLog& log)
      : w_(w), cfg_(w.fs[k]), L_(L), log_(log),
        name_(w.name + "[" + std::to_string(k) + "]") {}

  Result Run() {
    Result r;
    Setup();
    const auto t0 = Clock::now();
    const Micros io0 = driver().internal_io_time();
    const std::int64_t ops0 = workload_->ops_issued();
    const std::int64_t hits0 = server_->cache().hits();
    const std::int64_t misses0 = server_->cache().misses();
    const std::int64_t bhits0 = disk_->buffer_hits();

    r.days.push_back(Day());
    const std::int32_t n = w_.kind == Kind::kFsOnOff ? 2 * w_.days : w_.days;
    for (std::int32_t i = 0; i < n; ++i) {
      CheckHotList(i);
      if (w_.kind == Kind::kFsContinuous) {
        Span s(L_["placement.open_plan_s"]);
        Must(system_->OpenContinuousPlan(), "open plan");
      } else if (i % 2 == 1) {
        placement::ArrangeResult a;
        {
          Span s(L_["placement.rearrange_s"]);
          a = Must(system_->Rearrange(), "rearrange");
        }
        last_arrange_ = a;
      } else {
        const std::int32_t before = driver().block_table().size();
        {
          Span s(L_["placement.clean_s"]);
          Must(system_->Clean(), "clean");
        }
        last_arrange_ = placement::ArrangeResult{};
        last_arrange_.cleaned = before - driver().block_table().size();
        last_arrange_.evicted = last_arrange_.cleaned;
        last_arrange_.halted = driver().halted();
      }
      period_exact_.clear();
      if (w_.kind == Kind::kFsOnOff) AfterPass(r);
      workload_->EndDay();
      r.days.push_back(Day());
      if (w_.kind == Kind::kFsContinuous) AfterPass(r);
    }

    L_[kTracedWall] += SecondsSince(t0);
    r.move_io = driver().internal_io_time() - io0;
    r.final_tables = FsTables(driver());
    L_["workload.ops"] += workload_->ops_issued() - ops0;
    L_["fs.cache_hits"] += server_->cache().hits() - hits0;
    L_["fs.cache_misses"] += server_->cache().misses() - misses0;
    L_["disk.track_buffer_hits"] += disk_->buffer_hits() - bhits0;
    if (driver().request_monitor().total_dropped() != 0) {
      log_.Fail(name_ + ": request monitor dropped records");
    }
    return r;
  }

 private:
  driver::AdaptiveDriver& driver() { return system_->driver(); }

  // Experiment::Setup's stack, built layer by layer.
  void Setup() {
    cfg_.system.driver.block_table_capacity = cfg_.rearrange_blocks;
    cfg_.system.rearrange_blocks = cfg_.rearrange_blocks;
    disk::DiskLabel label = Must(
        disk::DiskLabel::Rearranged(cfg_.drive.geometry,
                                    cfg_.reserved_cylinders),
        "label");
    Must(label.PartitionEvenly(1), "partition");
    disk_ = std::make_unique<disk::Disk>(cfg_.drive);
    store_ = std::make_unique<driver::InMemoryTableStore>();
    system_ = std::make_unique<core::AdaptiveSystem>(
        disk_.get(), std::move(label), cfg_.system, store_.get());
    Must(system_->Start(), "driver attach");
    server_ = std::make_unique<fs::FileServer>(&driver(), cfg_.server);
    Must(server_->AddFileSystem(0, cfg_.ffs), "newfs");
    workload_ = std::make_unique<workload::FileServerWorkload>(
        server_.get(), 0, cfg_.profile, cfg_.seed);
    Must(workload_->Populate(driver().now()), "populate");
    driver().IoctlReadStats(/*clear=*/true);
    driver().IoctlReadRequests();
    system_->ResetCounts();

    const std::int32_t block_sectors = cfg_.system.driver.block_size_bytes /
                                       cfg_.drive.geometry.bytes_per_sector;
    straddle_ = StraddlingBlocks(cfg_.drive.geometry, cfg_.reserved_cylinders,
                                 block_sectors);
    area_ = ReservedAreaOf(cfg_.drive.geometry, cfg_.reserved_cylinders,
                           block_sectors, cfg_.rearrange_blocks);
  }

  // Experiment::Tick: advance the clock (RunDay has already moved it to the
  // tick, so this call is kept for parity only and never steps), drain the
  // request table into the analyzer and the two ground-truth counters.
  void Tick(Micros now) {
    const auto t0 = Clock::now();
    if (now > driver().now()) driver().AdvanceTo(now);
    {
      Span s(L_["driver.drain_records_s"]);
      driver().IoctlReadRequests(records_);
    }
    {
      Span s(L_["analyzer.observe_s"]);
      system_->analyzer().ObserveRecords(records_.data(), records_.size());
    }
    {
      Span s(L_["core.ground_truth_s"]);
      ids_all_.clear();
      ids_reads_.clear();
      ids_all_.reserve(records_.size());
      for (const driver::RequestRecord& rec : records_) {
        const analyzer::BlockId id{rec.device, rec.block};
        ids_all_.push_back(id);
        if (rec.type == sched::IoType::kRead) ids_reads_.push_back(id);
      }
      counts_all_.ObserveBatch(ids_all_.data(), ids_all_.size());
      counts_reads_.ObserveBatch(ids_reads_.data(), ids_reads_.size());
    }
    {
      Span s(L_[kCheckTime]);
      for (const driver::RequestRecord& rec : records_) {
        ++period_exact_[analyzer::PackBlockId({rec.device, rec.block})];
        if (std::find(straddle_.begin(), straddle_.end(), rec.block) !=
            straddle_.end()) {
          ++day_straddle_;
        }
      }
      day_records_ += static_cast<std::int64_t>(records_.size());
    }
    tick_s_ += SecondsSince(t0);
  }

  // Experiment::RunMeasuredDay.
  core::DayMetrics Day() {
    {
      Span s(L_["driver.read_stats_s"]);
      driver().IoctlReadStats(/*clear=*/true);
    }
    {
      Span s(L_["core.ground_truth_s"]);
      counts_all_.Reset();
      counts_reads_.Reset();
    }
    day_records_ = 0;
    day_straddle_ = 0;
    const Micros day_start = driver().now();
    const double tick0 = tick_s_;
    const auto t0 = Clock::now();
    Must(workload_->RunDay(driver().now(), [this](Micros t) { Tick(t); }),
         "run day");
    L_["workload.run_day_s"] += SecondsSince(t0) - (tick_s_ - tick0);
    {
      Span s(L_["fs.flush_s"]);
      server_->FlushAndDrain();
    }
    Tick(driver().now());

    core::DayMetrics m;
    {
      Span s(L_["driver.read_stats_s"]);
      m = core::DayMetrics::From(driver().IoctlReadStats(/*clear=*/true),
                                 cfg_.drive.seek_model);
    }
    m.elapsed = driver().now() - day_start;
    if (system_->continuous_plan_open()) {
      Span s(L_["placement.close_day_s"]);
      m.arrange = system_->CloseContinuousDay();
    } else {
      m.arrange = last_arrange_;
    }
    last_arrange_ = placement::ArrangeResult{};

    Span s(L_[kCheckTime]);
    const std::string what =
        name_ + " day " + std::to_string(day_index_++);
    CheckFsConservation(m.all.count, day_records_, day_straddle_,
                        driver().request_monitor().dropped(), what, log_);
    L_["workload.requests"] += day_records_;
    L_["disk.straddle_refs"] += day_straddle_;
    L_["driver.records"] += day_records_;
    L_["driver.requests"] += m.all.count;
    AddMoves(L_, m.moves);
    AddArrange(L_, m.arrange);
    return m;
  }

  // Before pass i: the analyzer's hot list against the exact counts of the
  // period it summarises.
  void CheckHotList(std::int32_t pass) {
    Span s(L_[kCheckTime]);
    const analyzer::ReferenceCounter& c = system_->analyzer().counter();
    double& tracked = L_["analyzer.tracked"];
    tracked = std::max(tracked, static_cast<double>(c.tracked()));
    CheckSpaceSavingBound(system_->HotList(), period_exact_, c.total(),
                          cfg_.system.analyzer_entries,
                          name_ + " pass " + std::to_string(pass), log_);
  }

  void AfterPass(Result& r) {
    Span s(L_[kCheckTime]);
    r.passes.push_back(FsTables(driver()));
    CheckPlacement(r.passes.back()[0], area_,
                   name_ + " pass " + std::to_string(r.passes.size() - 1),
                   log_);
    // Batch passes run between days; their movement counters are cleared
    // by the next day's stats read, so peek at them here.
    if (w_.kind == Kind::kFsOnOff) {
      AddMoves(L_, driver().IoctlReadStats(/*clear=*/false).moves);
    }
  }

  const Workload& w_;
  core::ExperimentConfig cfg_;
  Layers& L_;
  CheckLog& log_;
  const std::string name_;

  std::unique_ptr<disk::Disk> disk_;
  std::unique_ptr<driver::InMemoryTableStore> store_;
  std::unique_ptr<core::AdaptiveSystem> system_;
  std::unique_ptr<fs::FileServer> server_;
  std::unique_ptr<workload::FileServerWorkload> workload_;

  analyzer::ExactCounter counts_all_;
  analyzer::ExactCounter counts_reads_;
  std::vector<driver::RequestRecord> records_;
  std::vector<analyzer::BlockId> ids_all_;
  std::vector<analyzer::BlockId> ids_reads_;
  placement::ArrangeResult last_arrange_;

  std::vector<BlockNo> straddle_;
  ReservedArea area_;
  std::unordered_map<std::uint64_t, std::int64_t> period_exact_;
  std::int64_t day_records_ = 0;
  std::int64_t day_straddle_ = 0;
  std::int32_t day_index_ = 0;
  double tick_s_ = 0;
};

/// The array day of core::ArrayDayRunner, rebuilt from the public calls of
/// SyntheticBlockWorkload and ArrayDevice, with every call timed.
class ArrayTracer {
 public:
  ArrayTracer(const Workload& w, std::size_t k, Layers& L, CheckLog& log)
      : w_(w), day_cfg_(w.array_day[k]), L_(L), log_(log),
        name_(w.name + "[" + std::to_string(k) + "]"), dev_(w.array) {}

  Result Run() {
    Result r;
    Must(dev_.Start(), "array start");
    gen_ = std::make_unique<workload::SyntheticBlockWorkload>(
        0, dev_.device_blocks(), day_cfg_.synthetic, day_cfg_.seed);
    const std::int32_t block_sectors = dev_.block_sectors();
    straddle_ = StraddlingBlocks(w_.array.drive.geometry,
                                 w_.array.reserved_cylinders, block_sectors);
    area_ = ReservedAreaOf(w_.array.drive.geometry,
                           w_.array.reserved_cylinders, block_sectors,
                           w_.array.rearrange_blocks + w_.array.spare_slots);

    const auto t0 = Clock::now();
    const Micros io0 = ArrayInternalIo(dev_);
    r.days.push_back(Day());
    for (std::int32_t i = 0; i < 2 * w_.days; ++i) {
      StatusOr<placement::ArrangeResult> a = placement::ArrangeResult{};
      if (i % 2 == 1) {
        Span s(L_["array.rearrange_s"]);
        a = dev_.RearrangeAll();
      } else {
        Span s(L_["array.clean_s"]);
        a = dev_.CleanAll();
      }
      last_arrange_ = Must(std::move(a), "array pass");
      AfterPass(r);
      r.days.push_back(Day());
    }
    L_[kTracedWall] += SecondsSince(t0);
    r.move_io = ArrayInternalIo(dev_) - io0;
    r.final_tables = ArrayTables(dev_);
    return r;
  }

 private:
  core::DayMetrics Day() {
    {
      Span s(L_["array.read_stats_s"]);
      (void)dev_.ReadStatsMerged(/*clear=*/true);
    }
    const Micros start = dev_.now();
    const Micros end = start + day_cfg_.day_length;
    const Micros chunk = day_cfg_.chunk;
    const std::int64_t barriers0 = dev_.barriers();
    const bool adaptive = dev_.config().adaptive_epoch;
    const std::int32_t max_chunks =
        std::max<std::int32_t>(1, dev_.config().max_epoch_grids);
    IoCount generated, straddling;

    Micros cur = start;
    while (cur < end) {
      Micros cur_end = std::min(end, cur + chunk);
      if (adaptive) {
        Micros horizon;
        {
          Span s(L_["array.plan_s"]);
          horizon = dev_.PlanSubmitHorizon(end);
        }
        for (std::int32_t k = 1; k < max_chunks && cur_end < end; ++k) {
          const Micros next = std::min(end, cur_end + chunk);
          if (next > horizon) break;
          cur_end = next;
        }
      }
      for (Micros piece = cur; piece < cur_end;) {
        const Micros piece_end = std::min(cur_end, piece + chunk);
        trace_.Clear();
        {
          Span s(L_["workload.generate_s"]);
          gen_->Generate(piece, piece_end, trace_);
        }
        {
          Span s(L_[kCheckTime]);
          // RAID0 striping, from its definition: chunk c of stripe unit
          // k goes to member k % N at local chunk k / N.
          const std::int64_t c = w_.array.chunk_blocks;
          const std::int64_t n = w_.array.members;
          for (const workload::TraceRecord& rec : trace_.records()) {
            const bool read = rec.type == sched::IoType::kRead;
            (read ? generated.reads : generated.writes) += 1;
            const BlockNo local =
                (rec.block / (c * n)) * c + rec.block % c;
            if (std::find(straddle_.begin(), straddle_.end(), local) !=
                straddle_.end()) {
              (read ? straddling.reads : straddling.writes) += 1;
            }
          }
        }
        {
          Span s(L_["array.submit_s"]);
          Must(dev_.SubmitBatch(trace_.records().data(), trace_.size()),
               "array submit");
        }
        piece = piece_end;
      }
      {
        // The window the next AdvanceTo will step; a pure query.
        Span s(L_["array.plan_s"]);
        (void)dev_.PlanStepEnd(cur_end);
      }
      {
        Span s(L_["array.advance_s"]);
        Must(dev_.AdvanceTo(cur_end), "array advance");
      }
      cur = cur_end;
    }
    Micros quiesce;
    {
      Span s(L_["array.drain_s"]);
      quiesce = Must(dev_.Drain(), "array drain");
    }
    core::DayMetrics m;
    {
      Span s(L_["array.read_stats_s"]);
      m = core::DayMetrics::From(dev_.ReadStatsMerged(/*clear=*/true),
                                 dev_.seek_model());
    }
    m.barriers = dev_.barriers() - barriers0;
    m.elapsed = (quiesce - start) * dev_.members();
    m.arrange = last_arrange_;
    last_arrange_ = placement::ArrangeResult{};

    Span s(L_[kCheckTime]);
    const std::string what =
        name_ + " day " + std::to_string(day_index_++);
    CheckArrayConservation({m.reads.count, m.writes.count}, generated,
                           straddling, what, log_);
    if (dev_.degraded() || !dev_.first_error().empty()) {
      log_.Fail(what + ": array degraded: " + dev_.first_error());
    }
    L_["workload.requests"] += generated.reads + generated.writes;
    L_["disk.straddle_refs"] += straddling.reads + straddling.writes;
    L_["driver.requests"] += m.all.count;
    L_["array.barriers"] += m.barriers;
    L_["array.barrier_stall_s"] += m.barrier_stall_wall;
    L_["array.barrier_merge_s"] += m.barrier_merge_wall;
    AddMoves(L_, m.moves);
    AddArrange(L_, m.arrange);
    return m;
  }

  void AfterPass(Result& r) {
    Span s(L_[kCheckTime]);
    r.passes.push_back(ArrayTables(dev_));
    for (std::size_t m = 0; m < r.passes.back().size(); ++m) {
      CheckPlacement(r.passes.back()[m], area_,
                     name_ + " pass " + std::to_string(r.passes.size() - 1) +
                         " member " + std::to_string(m),
                     log_);
    }
    AddMoves(L_, dev_.ReadStatsMerged(/*clear=*/false).moves);
  }

  const Workload& w_;
  const core::ArrayDayConfig& day_cfg_;
  Layers& L_;
  CheckLog& log_;
  const std::string name_;
  array::ArrayDevice dev_;
  std::unique_ptr<workload::SyntheticBlockWorkload> gen_;
  workload::Trace trace_;
  placement::ArrangeResult last_arrange_;
  std::vector<BlockNo> straddle_;
  ReservedArea area_;
  std::int32_t day_index_ = 0;
};

/// One traced round; instances run `w.jobs` at a time, each with its own
/// layer accumulators and check log, folded together at the end.
Round TracedRound(const Workload& w, Layers& L, CheckLog& log) {
  const std::size_t n = Instances(w);
  Round round;
  round.results.resize(n);
  std::vector<Layers> layers(n);
  std::vector<CheckLog> logs(n);
  const double cpu0 = CpuSeconds();
  ParallelFor(n, w.jobs, [&](std::size_t k) {
    if (w.kind == Kind::kArray) {
      ArrayTracer t(w, k, layers[k], logs[k]);
      round.results[k] = t.Run();
    } else {
      FsTracer t(w, k, layers[k], logs[k]);
      round.results[k] = t.Run();
    }
  });
  L["run.cpu_s"] += CpuSeconds() - cpu0;
  for (std::size_t k = 0; k < n; ++k) {
    L.Add(layers[k]);
    log.Merge(logs[k]);
  }
  return round;
}

// --- Metrics ---------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::int64_t CompletedRequests(const Round& r) {
  std::int64_t n = 0;
  for (const Result& res : r.results) {
    for (const core::DayMetrics& d : res.days) {
      n += d.all.count + d.faults.failed_requests;
    }
  }
  return n;
}

std::int64_t FailedRequests(const Round& r) {
  std::int64_t n = 0;
  for (const Result& res : r.results) {
    for (const core::DayMetrics& d : res.days) n += d.faults.failed_requests;
  }
  return n;
}

Micros MoveIo(const Round& r) {
  Micros t = 0;
  for (const Result& res : r.results) t += res.move_io;
  return t;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Simulated-time summary of the reference round (which every measured
/// round matches bit for bit): means over the on days (off days, warm-up
/// days) of every instance, and totals over all days.
struct Simulated {
  double on_seek_ms = 0, on_service_ms = 0, on_p99_ms = 0, on_wait_ms = 0;
  double on_seek_cyl = 0, on_rot_xfer_ms = 0;
  double off_seek_ms = 0, off_service_ms = 0;
  double warmup_seek_ms = 0;
  double move_busy_s = 0, stall_s = 0, idle_s = 0;
  std::int32_t on_days = 0, off_days = 0, warmup_days = 0;
};

Simulated Summarize(const Workload& w, const Round& ref) {
  Simulated s;
  for (const Result& res : ref.results) {
    for (std::size_t i = 0; i < res.days.size(); ++i) {
      const core::DayMetrics& d = res.days[i];
      s.move_busy_s += d.move_seconds();
      s.stall_s += d.stall_seconds();
      s.idle_s += d.idle_seconds();
      if (i == 0) {
        ++s.warmup_days;
        s.warmup_seek_ms += d.all.mean_seek_ms;
      } else if (IsOnDay(w, i)) {
        ++s.on_days;
        s.on_seek_ms += d.all.mean_seek_ms;
        s.on_service_ms += d.all.mean_service_ms;
        s.on_p99_ms += d.service_all.PercentileMillis(0.99);
        s.on_wait_ms += d.all.mean_wait_ms;
        s.on_seek_cyl += d.all.mean_seek_dist;
        s.on_rot_xfer_ms += d.all.rot_plus_transfer_ms;
      } else {
        ++s.off_days;
        s.off_seek_ms += d.all.mean_seek_ms;
        s.off_service_ms += d.all.mean_service_ms;
      }
    }
  }
  const double on = std::max(1, s.on_days), off = std::max(1, s.off_days);
  s.on_seek_ms /= on;
  s.on_service_ms /= on;
  s.on_p99_ms /= on;
  s.on_wait_ms /= on;
  s.on_seek_cyl /= on;
  s.on_rot_xfer_ms /= on;
  s.off_seek_ms /= off;
  s.off_service_ms /= off;
  s.warmup_seek_ms /= std::max(1, s.warmup_days);
  return s;
}

/// A reference result's days, without the warm-up day when the measured
/// entry point does not return it.
std::vector<core::DayMetrics> Comparable(const Result& ref,
                                         const Result& measured) {
  if (measured.has_warmup || ref.days.empty()) return ref.days;
  return {ref.days.begin() + 1, ref.days.end()};
}

/// Compares every instance of `got` with the reference round.
void CheckAgainstReference(const Round& got, const Round& ref,
                           const std::string& what, bool with_passes,
                           CheckLog& log) {
  if (got.results.size() != ref.results.size()) {
    log.Fail(what + ": instance count differs from the reference");
    return;
  }
  for (std::size_t k = 0; k < ref.results.size(); ++k) {
    const Result& g = got.results[k];
    const Result& r = ref.results[k];
    const std::string w = what + " instance " + std::to_string(k);
    CheckSameDays(g.days, Comparable(r, g), w + " days", log);
    if (with_passes) {
      CheckSameMappings(Flatten(g.passes), Flatten(r.passes),
                        w + " pass tables", log);
    }
    CheckSameMappings(g.final_tables, r.final_tables, w + " final tables",
                      log);
    if (g.move_io != r.move_io) {
      log.Fail(w + ": movement I/O time differs from the reference");
    }
  }
}

void CheckMethodAndPhysics(const Workload& w, const Round& ref,
                           const Simulated& s, CheckLog& log) {
  const bool arr = w.kind == Kind::kArray;
  const disk::Geometry& g =
      arr ? w.array.drive.geometry : w.fs[0].drive.geometry;
  CheckGeometry(g, *w.published, log);
  const std::int32_t block_sectors =
      (arr ? w.array.driver.block_size_bytes
           : w.fs[0].system.driver.block_size_bytes) /
      g.bytes_per_sector;
  for (std::size_t k = 0; k < ref.results.size(); ++k) {
    const Result& res = ref.results[k];
    for (std::size_t i = 0; i < res.days.size(); ++i) {
      CheckPhysics(res.days[i].all, *w.published, block_sectors,
                   w.name + "[" + std::to_string(k) + "] day " +
                       std::to_string(i),
                   log);
    }
  }
  if (s.off_days > 0) {
    CheckSeekReduction(s.on_seek_ms, s.off_seek_ms, w.max_seek_ratio,
                       w.name + " (vs off days)", log);
  } else {
    CheckSeekReduction(s.on_seek_ms, s.warmup_seek_ms, w.max_seek_ratio,
                       w.name + " (vs warm-up days)", log);
  }
}

void PrintJson(bool correct, std::int64_t attempted, std::int64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// The per-layer metrics per traced round, from the values summed over
/// `rounds` traced rounds.
std::vector<Metric> LayerMetrics(const Layers& traced, double rounds,
                                 double untraced_wall, const Simulated& s) {
  Layers L;
  for (const LayerMetric& m : kLayerMetrics) {
    const double v = traced.Get(m.name);
    L[m.name] = std::string_view(m.name) == "analyzer.tracked" ? v : v / rounds;
  }
  const double traced_wall =
      (traced.Get(kTracedWall) - traced.Get(kCheckTime)) / rounds;
  const double lookups = L["fs.cache_hits"] + L["fs.cache_misses"];
  L["fs.cache_hit_ratio"] = lookups > 0 ? L["fs.cache_hits"] / lookups : 0.0;
  L["run.traced_wall_s"] = traced_wall;
  L["run.untraced_wall_s"] = untraced_wall;
  L["run.unattributed_s"] = traced_wall - L.Timed();
  L["trace.overhead_s"] = traced_wall - untraced_wall;
  L["disk.on_seek_cyl"] = s.on_seek_cyl;
  L["disk.on_rot_xfer_ms"] = s.on_rot_xfer_ms;
  L["disk.off_seek_ms"] = s.off_seek_ms;
  L["disk.off_service_ms"] = s.off_service_ms;
  L["driver.move_busy_s"] = s.move_busy_s;
  L["driver.arrange_stall_s"] = s.stall_s;
  L["driver.idle_s"] = s.idle_s;
  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerMetrics) {
    out.push_back({m.name, L.Get(m.name), m.unit});
  }
  return out;
}

// --- Driver ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  long seconds = 0;
  int trace = -1;
  bool self_test = false;
};

bool ParseInt(const char* s, long long lo, long long hi, long long& out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) {
    return false;
  }
  out = v;
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: abr_perfbench --workload "
               "<fs_system_onoff|fs_users_continuous|array_raid0_fleet> "
               "--seed <n> --seconds <1..600> --trace <0|1>\n"
               "       abr_perfbench --self-test\n",
               why);
  return 2;
}

int Run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      opt.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    long long n = 0;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      if (!ParseInt(v, 0, (1LL << 62), n)) return Usage("bad --seed");
      opt.seed = static_cast<std::uint64_t>(n);
    } else if (a == "--seconds") {
      if (!ParseInt(v, 1, 600, n)) return Usage("bad --seconds");
      opt.seconds = static_cast<long>(n);
    } else if (a == "--trace") {
      if (!ParseInt(v, 0, 1, n)) return Usage("bad --trace");
      opt.trace = static_cast<int>(n);
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  if (opt.self_test) return RunSelfTest(/*verbose=*/true) == 0 ? 0 : 1;
  if (opt.seconds == 0 || opt.trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  Workload w;
  if (!MakeWorkload(opt.workload, opt.seed, w)) {
    return Usage(("unknown workload " + opt.workload).c_str());
  }

  CheckLog log;
  std::vector<Round> untraced;
  std::vector<Round> traced;
  Layers layers;
  const auto measure_start = Clock::now();
  const double before_setup = SecondsSince(kProcessStart);
  do {
    untraced.push_back(MeasureRound(w));
    if (opt.trace == 1) traced.push_back(TracedRound(w, layers, log));
  } while (SecondsSince(measure_start) < static_cast<double>(opt.seconds));
  // Cold set-up: process start until the first round's instances are built.
  const double setup_s = before_setup + untraced[0].setup_s;

  // Checks. The reference round is the stepped untraced path; the traced
  // round (one more in --trace 0) is the independent composition.
  const Round ref = ReferenceRound(w);
  if (traced.empty()) {
    Layers unused;
    traced.push_back(TracedRound(w, unused, log));
  }
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    CheckAgainstReference(untraced[i], ref,
                          "untraced round " + std::to_string(i),
                          /*with_passes=*/false, log);
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    CheckAgainstReference(traced[i], ref, "traced round " + std::to_string(i),
                          /*with_passes=*/true, log);
  }
  const Simulated sim = Summarize(w, ref);
  CheckMethodAndPhysics(w, ref, sim, log);
  if (RunSelfTest(/*verbose=*/false) != 0) {
    log.Fail("self-test: a check accepted a wrong input");
  }

  // Every round attempts the same requests, so failures are the same share
  // of attempts in every run.
  const std::int64_t per_round = CompletedRequests(ref);
  const std::int64_t rounds = static_cast<std::int64_t>(
      untraced.size() + (opt.trace == 1 ? traced.size() : 0));
  const std::int64_t attempted = per_round * rounds;
  const std::int64_t failed = FailedRequests(ref) * rounds;

  // Per-layer times are sums over instances, which may run at once; the
  // untraced time they are set against is summed the same way.
  std::vector<double> rates;
  double untraced_wall = 0;
  for (const Round& r : untraced) {
    rates.push_back(static_cast<double>(per_round) / r.wall_s);
    for (const Result& res : r.results) {
      untraced_wall += res.wall_s / static_cast<double>(untraced.size());
    }
  }
  std::printf("# %s seed=%llu instances=%zu rounds=%zu requests/round=%lld\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              ref.results.size(), untraced.size(),
              static_cast<long long>(per_round));

  std::vector<Metric> metrics;
  if (opt.trace == 0) {
    metrics = {
        {"sim_req_per_s", Median(std::move(rates)), "req/s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"on_seek_ms", sim.on_seek_ms, "ms"},
        {"on_service_ms", sim.on_service_ms, "ms"},
        {"on_service_p99_ms", sim.on_p99_ms, "ms"},
        {"on_wait_ms", sim.on_wait_ms, "ms"},
        {"move_io_s", MicrosToSeconds(MoveIo(ref)), "s"},
    };
  } else {
    metrics = LayerMetrics(layers, static_cast<double>(traced.size()),
                           untraced_wall, sim);
  }
  PrintJson(log.ok(), attempted, failed, metrics);
  return log.ok() ? 0 : 1;
}

}  // namespace
}  // namespace abr::perfbench

int main(int argc, char** argv) { return abr::perfbench::Run(argc, argv); }
