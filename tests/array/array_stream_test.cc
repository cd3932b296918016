// Streamed array days: a RAID0 ArrayDayRunner submits a window's chunks
// while the members step it. Three orders must agree bit for bit — the
// streamed runner, the same windows submitted whole before AdvanceTo, and
// the fixed-epoch oracle (one grid per step, never streamed) — on day
// metrics, member block tables, member hot lists and lost requests, for
// any thread count and under media faults and a timed member crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "array/array_device.h"
#include "array/record_log.h"
#include "core/array_day.h"
#include "disk/drive_spec.h"
#include "fault/fault_plan.h"
#include "workload/synthetic.h"

namespace abr::core {
namespace {

constexpr Micros kGrid = 15 * kSecond;
constexpr std::int32_t kMembers = 4;

array::ArrayConfig StreamConfig(std::int64_t chunk, std::int32_t threads,
                                bool adaptive) {
  array::ArrayConfig c;
  c.level = array::RaidLevel::kRaid0;
  c.members = kMembers;
  c.threads = threads;
  c.chunk_blocks = chunk;
  c.epoch = kGrid;
  c.adaptive_epoch = adaptive;
  c.drive = disk::DriveSpec::TestDrive(60, 2, 32);
  c.reserved_cylinders = 8;
  c.rearrange_blocks = 16;
  c.spare_slots = 4;
  c.resync_granule_blocks = 4;
  c.driver.block_size_bytes = 8192;
  c.driver.request_monitor_capacity = 1 << 12;
  return c;
}

ArrayDayConfig StreamDay() {
  ArrayDayConfig day;
  day.synthetic.population = 200;
  day.synthetic.theta = 1.0;
  day.synthetic.write_fraction = 0.3;
  day.synthetic.arrivals.mean_burst_gap = 300 * kMillisecond;
  day.synthetic.arrivals.mean_burst_size = 4.0;
  day.synthetic.arrivals.mean_intra_gap = 20 * kMillisecond;
  day.day_length = 4 * kMinute;
  day.seed = 0x57AE;
  day.chunk = kGrid;
  return day;
}

std::uint64_t Bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

void AddSlice(std::vector<std::uint64_t>& out, const SliceMetrics& s) {
  for (double d : {s.mean_seek_ms, s.fcfs_seek_ms, s.mean_seek_dist,
                   s.fcfs_seek_dist, s.zero_seek_pct, s.mean_service_ms,
                   s.mean_wait_ms, s.rot_plus_transfer_ms}) {
    out.push_back(Bits(d));
  }
  out.push_back(static_cast<std::uint64_t>(s.count));
}

/// Everything a measured day computed, barriers included; the barrier
/// wall-clock fields are host timing and stay out.
void AddDay(std::vector<std::uint64_t>& out, const DayMetrics& d) {
  AddSlice(out, d.all);
  AddSlice(out, d.reads);
  AddSlice(out, d.writes);
  const placement::ArrangeResult& a = d.arrange;
  for (std::int64_t v :
       {std::int64_t{d.faults.media_errors}, std::int64_t{d.faults.retries},
        std::int64_t{d.faults.failed_requests},
        std::int64_t{d.faults.aborted_chains}, std::int64_t{d.moves.copy_ins},
        std::int64_t{d.moves.shuffles}, std::int64_t{d.moves.evictions},
        std::int64_t{a.cleaned}, std::int64_t{a.copied}, std::int64_t{a.kept},
        std::int64_t{a.evicted}, std::int64_t{a.admitted},
        std::int64_t{a.internal_ios}, std::int64_t{a.io_time},
        std::int64_t{d.util.external_busy}, std::int64_t{d.util.internal_busy},
        d.elapsed, d.barriers}) {
    out.push_back(static_cast<std::uint64_t>(v));
  }
}

struct Outcome {
  std::vector<std::uint64_t> days;
  std::vector<std::uint64_t> tables;
  std::vector<std::uint64_t> hot;
  std::int64_t lost = 0;
  std::int64_t barriers = 0;
  std::int64_t streamed = 0;
  bool member_died = false;
};

/// Every day metric except the barrier count, for comparing runs whose
/// windowing differs (adaptive against the fixed-epoch oracle).
std::vector<std::uint64_t> WithoutBarriers(const Outcome& o) {
  std::vector<std::uint64_t> v;
  // AddDay ends each day with its barrier count.
  const std::size_t per_day = 3 * 9 + 18;
  for (std::size_t i = 0; i < o.days.size(); ++i) {
    if (i % per_day != per_day - 1) v.push_back(o.days[i]);
  }
  return v;
}

void AddHotLists(Outcome& out, const array::ArrayDevice& dev) {
  for (std::int32_t m = 0; m < dev.members(); ++m) {
    for (const analyzer::HotBlock& h : dev.MemberHotList(m)) {
      out.hot.push_back(static_cast<std::uint64_t>(m));
      out.hot.push_back(static_cast<std::uint64_t>(h.id.block));
      out.hot.push_back(static_cast<std::uint64_t>(h.count));
    }
  }
}

/// The day of ArrayDayRunner with every window submitted whole and then
/// advanced — the order a caller without BeginStep/EndStep uses.
StatusOr<DayMetrics> SubmitFirstDay(array::ArrayDevice& dev,
                                    workload::SyntheticBlockWorkload& gen,
                                    const ArrayDayConfig& cfg,
                                    const placement::ArrangeResult& pass) {
  (void)dev.ReadStatsMerged(true);
  const Micros start = dev.now();
  const Micros end = start + cfg.day_length;
  const std::int64_t barriers0 = dev.barriers();
  workload::Trace trace;
  Micros cur = start;
  while (cur < end) {
    Micros cur_end = std::min(end, cur + cfg.chunk);
    if (dev.config().adaptive_epoch) {
      const Micros horizon = dev.PlanSubmitHorizon(end);
      const std::int32_t max_chunks = dev.config().max_epoch_grids;
      for (std::int32_t k = 1; k < max_chunks && cur_end < end; ++k) {
        const Micros next = std::min(end, cur_end + cfg.chunk);
        if (next > horizon) break;
        cur_end = next;
      }
    }
    for (Micros piece = cur; piece < cur_end;) {
      const Micros piece_end = std::min(cur_end, piece + cfg.chunk);
      trace.Clear();
      gen.Generate(piece, piece_end, trace);
      ABR_RETURN_IF_ERROR(
          dev.SubmitBatch(trace.records().data(), trace.size()));
      piece = piece_end;
    }
    ABR_RETURN_IF_ERROR(dev.AdvanceTo(cur_end));
    cur = cur_end;
  }
  StatusOr<Micros> quiesce = dev.Drain();
  if (!quiesce.ok()) return quiesce.status();
  DayMetrics m = DayMetrics::From(dev.ReadStatsMerged(true), dev.seek_model());
  m.barriers = dev.barriers() - barriers0;
  m.elapsed = (*quiesce - start) * dev.members();
  m.arrange = pass;
  return m;
}

/// Warm-up day, rearrange, day, clean, day — in the streamed runner
/// (`streamed`) or the submit-first order.
Outcome RunDays(array::ArrayConfig config, bool streamed) {
  array::ArrayDevice dev(config);
  EXPECT_TRUE(dev.Start().ok()) << dev.first_error();
  const ArrayDayConfig day_cfg = StreamDay();
  ArrayDayRunner runner(&dev, day_cfg);
  workload::SyntheticBlockWorkload gen(0, dev.device_blocks(),
                                       day_cfg.synthetic, day_cfg.seed);
  placement::ArrangeResult pass;
  Outcome out;
  for (int day = 0; day < 3; ++day) {
    StatusOr<DayMetrics> m = streamed
                                 ? runner.RunMeasuredDay()
                                 : SubmitFirstDay(dev, gen, day_cfg, pass);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    if (!m.ok()) return out;
    AddDay(out.days, *m);
    out.barriers += m->barriers;
    EXPECT_GE(m->barrier_stall_wall, 0.0);
    EXPECT_GE(m->barrier_merge_wall, 0.0);
    if (day == 2) break;
    AddHotLists(out, dev);
    if (streamed) {
      EXPECT_TRUE((day == 0 ? runner.RearrangeForNextDay()
                            : runner.CleanForNextDay())
                      .ok());
    } else {
      StatusOr<placement::ArrangeResult> r =
          day == 0 ? dev.RearrangeAll() : dev.CleanAll();
      EXPECT_TRUE(r.ok());
      pass = r.ok() ? *r : placement::ArrangeResult{};
    }
  }
  AddHotLists(out, dev);
  for (std::int32_t m = 0; m < dev.members(); ++m) {
    for (const driver::BlockTableEntry& e :
         dev.member_driver(m).block_table().entries()) {
      out.tables.push_back(static_cast<std::uint64_t>(e.original));
      out.tables.push_back(static_cast<std::uint64_t>(e.relocated));
      out.tables.push_back(e.dirty ? 1 : 0);
    }
    out.member_died = out.member_died ||
                      dev.member_state(m) == array::MemberState::kDead;
  }
  out.lost = dev.lost_requests();
  out.streamed = runner.streamed_windows();
  return out;
}

void ExpectSame(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.days, b.days);
  EXPECT_EQ(a.tables, b.tables);
  EXPECT_EQ(a.hot, b.hot);
  EXPECT_EQ(a.lost, b.lost);
}

void ExpectSameAsOracle(const Outcome& a, const Outcome& oracle) {
  EXPECT_EQ(WithoutBarriers(a), WithoutBarriers(oracle));
  EXPECT_EQ(a.tables, oracle.tables);
  EXPECT_EQ(a.hot, oracle.hot);
  EXPECT_EQ(a.lost, oracle.lost);
}

TEST(ArrayStreamTest, Raid0StreamsAndMatchesSubmitFirstAndFixedOracle) {
  for (const std::int64_t chunk : {1, 4}) {
    SCOPED_TRACE(chunk);
    const Outcome oracle = RunDays(StreamConfig(chunk, 1, /*adaptive=*/false),
                               /*streamed=*/true);
    const Outcome first = RunDays(StreamConfig(chunk, 1, /*adaptive=*/true),
                              /*streamed=*/false);
    EXPECT_EQ(oracle.streamed, 0);  // fixed epochs never stream
    EXPECT_LT(first.barriers, oracle.barriers);
    ExpectSameAsOracle(first, oracle);
    for (const std::int32_t threads : {1, 2, 4}) {
      SCOPED_TRACE(threads);
      const Outcome streamed =
          RunDays(StreamConfig(chunk, threads, /*adaptive=*/true),
              /*streamed=*/true);
      EXPECT_GT(streamed.streamed, 0);
      ExpectSame(streamed, first);
      EXPECT_EQ(streamed.barriers, first.barriers);
    }
  }
}

TEST(ArrayStreamTest, MediaFaultsMakeTheRunnerFallBack) {
  auto with_faults = [](std::int32_t threads, bool adaptive) {
    array::ArrayConfig c = StreamConfig(4, threads, adaptive);
    for (std::int32_t m = 0; m < kMembers; ++m) {
      fault::FaultPlanConfig plan;
      plan.sector_count = c.drive.geometry.total_sectors();
      plan.transient_faults = 2;
      plan.persistent_faults = 1;
      plan.torn_writes = 1;
      plan.crash_points = 0;
      plan.io_horizon = 300;
      c.fault_plans.push_back(fault::FaultPlan::Random(0xFA07 + m, plan));
    }
    return c;
  };
  const Outcome clean = RunDays(StreamConfig(4, 2, true), /*streamed=*/true);
  const Outcome oracle = RunDays(with_faults(1, false), /*streamed=*/true);
  const Outcome first = RunDays(with_faults(1, true), /*streamed=*/false);
  ExpectSameAsOracle(first, oracle);
  for (const std::int32_t threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const Outcome streamed = RunDays(with_faults(threads, true), true);
    ExpectSame(streamed, first);
    // Armed io-indexed triggers pin the submit horizon to the clock, so
    // windows stream only once the fault budgets are spent.
    EXPECT_LT(streamed.streamed, clean.streamed);
  }
}

TEST(ArrayStreamTest, TimedMemberCrashMakesTheRunnerFallBack) {
  auto with_crash = [](std::int32_t threads, bool adaptive) {
    array::ArrayConfig c = StreamConfig(1, threads, adaptive);
    c.fault_plans.resize(kMembers);
    fault::CrashPoint timed;
    timed.at_time = 3 * kMinute + kGrid / 3;  // inside the first day
    c.fault_plans[2].crashes.push_back(timed);
    return c;
  };
  const Outcome oracle = RunDays(with_crash(1, false), /*streamed=*/true);
  const Outcome first = RunDays(with_crash(1, true), /*streamed=*/false);
  EXPECT_TRUE(oracle.member_died);
  EXPECT_GT(oracle.lost, 0);
  ExpectSameAsOracle(first, oracle);
  for (const std::int32_t threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const Outcome streamed = RunDays(with_crash(threads, true), true);
    ExpectSame(streamed, first);
    // Windows before the crash bound stream; none after, with a member
    // dead.
    EXPECT_GT(streamed.streamed, 0);
  }
}

// --- Step API misuse -------------------------------------------------------

TEST(ArrayStreamTest, StepMisuseIsRejected) {
  array::ArrayDevice dev(StreamConfig(1, 2, /*adaptive=*/true));
  ASSERT_TRUE(dev.Start().ok());
  EXPECT_EQ(dev.EndStep().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(dev.BeginStep(4 * kGrid).ok());
  EXPECT_TRUE(dev.step_active());
  EXPECT_EQ(dev.BeginStep(8 * kGrid).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dev.AdvanceTo(8 * kGrid).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dev.Drain().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dev.RearrangeAll().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(dev.CleanAll().status().code(), StatusCode::kFailedPrecondition);

  const workload::TraceRecord ok{kGrid, 0, 5, sched::IoType::kWrite};
  const workload::TraceRecord past_target{4 * kGrid + 1, 0, 6,
                                          sched::IoType::kRead};
  const workload::TraceRecord back_in_time{kGrid - 1, 0, 7,
                                           sched::IoType::kRead};
  EXPECT_TRUE(dev.Submit(ok).ok());
  EXPECT_EQ(dev.Submit(past_target).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dev.Submit(back_in_time).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(dev.EndStep().ok());
  EXPECT_FALSE(dev.step_active());
  EXPECT_EQ(dev.barriers(), 1);
  EXPECT_EQ(dev.EndStep().code(), StatusCode::kFailedPrecondition);

  // The accepted write was routed and counted by its member's worker.
  const sim::StripeMap map(kMembers, 1, dev.device_blocks());
  const std::vector<analyzer::HotBlock> hot =
      dev.MemberHotList(map.MemberOf(5));
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].id.block, map.LocalOf(5));
  EXPECT_EQ(hot[0].count, 1);
  EXPECT_TRUE(dev.Drain().ok());
  EXPECT_GT(dev.barrier_merge_wall(), 0.0);
}

// Records submitted between steps are counted once, when submitted: a
// Drain that follows directly must not count them again, or the hot lists
// double and a completed write looks outstanding when its member dies.
TEST(ArrayStreamTest, SubmitThenDrainCountsEachRecordOnce) {
  for (const std::int32_t threads : {1, 2}) {
    SCOPED_TRACE(threads);
    array::ArrayConfig c = StreamConfig(1, threads, /*adaptive=*/true);
    c.fault_plans.resize(kMembers);
    fault::CrashPoint timed;
    timed.at_time = 2 * kGrid;
    c.fault_plans[0].crashes.push_back(timed);
    array::ArrayDevice dev(c);
    ASSERT_TRUE(dev.Start().ok());
    const sim::StripeMap map(kMembers, 1, dev.device_blocks());
    // Virtual blocks 0 and 4 are member 0's locals 0 and 1; block 160 is
    // its local 40, in another resync granule.
    ASSERT_TRUE(dev.Submit({kMillisecond, 0, 0, sched::IoType::kWrite}).ok());
    ASSERT_TRUE(dev.Submit({2 * kMillisecond, 0, 4, sched::IoType::kRead})
                    .ok());
    ASSERT_TRUE(dev.Drain().ok());
    const std::vector<analyzer::HotBlock> hot = dev.MemberHotList(0);
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_EQ(hot[0].id.block, map.LocalOf(0));
    EXPECT_EQ(hot[0].count, 1);
    EXPECT_EQ(hot[1].id.block, map.LocalOf(4));
    EXPECT_EQ(hot[1].count, 1);

    // The member dies on its next op, a read far from the drained write:
    // only the crashed read's granule is dirty, none for the write.
    ASSERT_TRUE(dev.Submit({3 * kGrid, 0, 160, sched::IoType::kRead}).ok());
    ASSERT_TRUE(dev.AdvanceTo(4 * kGrid).ok());
    ASSERT_EQ(dev.member_state(0), array::MemberState::kDead);
    EXPECT_EQ(dev.dirty_granules(0), 1);
    EXPECT_EQ(dev.lost_requests(), 0);
    ASSERT_TRUE(dev.Submit({5 * kGrid, 0, 8, sched::IoType::kRead}).ok());
    ASSERT_TRUE(dev.Drain().ok());
    EXPECT_EQ(dev.lost_requests(), 1);
    EXPECT_TRUE(dev.first_error().empty()) << dev.first_error();
  }
}

TEST(ArrayStreamTest, MirrorRefusesSubmissionsDuringAStep) {
  array::ArrayConfig c = StreamConfig(1, 1, /*adaptive=*/true);
  c.level = array::RaidLevel::kRaid1;
  c.members = 2;
  array::ArrayDevice dev(c);
  ASSERT_TRUE(dev.Start().ok());
  ASSERT_TRUE(dev.BeginStep(kGrid).ok());
  const workload::TraceRecord r{1, 0, 3, sched::IoType::kRead};
  EXPECT_EQ(dev.Submit(r).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(dev.EndStep().ok());
  EXPECT_TRUE(dev.Submit(workload::TraceRecord{kGrid + 1, 0, 3,
                                               sched::IoType::kRead})
                  .ok());
}

TEST(ArrayStreamTest, MemberHotListReadsWithoutResetting) {
  array::ArrayDevice dev(StreamConfig(1, 1, /*adaptive=*/false));
  ASSERT_TRUE(dev.Start().ok());
  // Virtual blocks 1, 5 and 9 all live on member 1 (locals 0, 1, 2).
  const BlockNo blocks[] = {5, 1, 5, 9, 5, 1};
  Micros t = 0;
  for (BlockNo b : blocks) {
    ASSERT_TRUE(
        dev.Submit(workload::TraceRecord{t += 10, 0, b, sched::IoType::kRead})
            .ok());
  }
  const std::vector<analyzer::HotBlock> hot = dev.MemberHotList(1);
  ASSERT_EQ(hot.size(), 3u);
  EXPECT_EQ(hot[0].id.block, 1);
  EXPECT_EQ(hot[0].count, 3);
  EXPECT_EQ(hot[1].id.block, 0);
  EXPECT_EQ(hot[1].count, 2);
  EXPECT_EQ(hot[2].id.block, 2);
  EXPECT_EQ(hot[2].count, 1);
  EXPECT_EQ(dev.MemberHotList(1).size(), 3u);  // unchanged by reading
  EXPECT_TRUE(dev.MemberHotList(0).empty());
  ASSERT_TRUE(dev.AdvanceTo(kGrid).ok());
  ASSERT_TRUE(dev.RearrangeAll().ok());
  EXPECT_TRUE(dev.MemberHotList(1).empty());  // the pass consumed them
}

// --- RecordLog -------------------------------------------------------------

TEST(RecordLogTest, ReadersSeeEveryEntryAcrossSegmentsAndRecycle) {
  using array::RecordLog;
  RecordLog log;
  constexpr std::uint64_t kTotal = 3 * RecordLog::kSegmentEntries + 17;
  std::vector<RecordLog::Cursor> cursors(3, log.End());
  for (int round = 0; round < 2; ++round) {
    const std::uint64_t base = log.size();
    log.Publish(/*sealed=*/false, /*notify=*/false);
    std::vector<std::thread> readers;
    std::vector<std::uint64_t> sums(cursors.size(), 0);
    std::atomic<int> bad{0};
    for (std::size_t r = 0; r < cursors.size(); ++r) {
      readers.emplace_back([&, r] {
        RecordLog::Cursor& c = cursors[r];
        for (;;) {
          const std::uint64_t word = log.Watermark();
          while (c.index < (word >> 1)) {
            const RecordLog::Entry& e = RecordLog::At(c);
            if (e.block != static_cast<BlockNo>(c.index)) ++bad;
            sums[r] += static_cast<std::uint64_t>(e.time);
            ++c.index;
          }
          if ((word & 1) != 0) return;
          log.Wait(word);
        }
      });
    }
    std::uint64_t want = 0;
    for (std::uint64_t i = 0; i < kTotal; ++i) {
      const std::uint64_t index = base + i;
      log.Append({static_cast<Micros>(i), static_cast<BlockNo>(index), 0,
                  sched::IoType::kRead});
      want += i;
      if (i % 1000 == 999) log.Publish(false, /*notify=*/true);
    }
    log.Publish(/*sealed=*/true, /*notify=*/true);
    for (std::thread& t : readers) t.join();
    EXPECT_EQ(bad.load(), 0);
    for (std::uint64_t s : sums) EXPECT_EQ(s, want);
    std::vector<RecordLog::Cursor*> ptrs;
    for (RecordLog::Cursor& c : cursors) ptrs.push_back(&c);
    log.Release(ptrs);
  }
}

}  // namespace
}  // namespace abr::core
