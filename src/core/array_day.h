#ifndef ABR_CORE_ARRAY_DAY_H_
#define ABR_CORE_ARRAY_DAY_H_

#include <cstdint>
#include <vector>

#include "array/array_device.h"
#include "core/metrics.h"
#include "util/status.h"
#include "util/types.h"
#include "workload/synthetic.h"

namespace abr::core {

/// Workload half of an array measured day, mirroring ShardedDayConfig.
struct ArrayDayConfig {
  workload::SyntheticConfig synthetic;
  Micros day_length = 15 * kHour;
  std::uint64_t seed = 0xAB12;
  /// Generation chunk: traffic is generated and submitted one chunk at a
  /// time so RAID1 read routing sees the head positions the preceding
  /// chunk left behind rather than a day-start snapshot.
  Micros chunk = 2 * kMinute;
};

/// Runs measured days of synthetic traffic against an ArrayDevice with
/// the paper's daily protocol (clear stats, traffic, quiesce, snapshot).
/// Traffic is generated one chunk at a time on a day-relative grid, so the
/// request sequence never depends on windowing or thread count.
///
/// On an adaptive-epoch RAID0 device, quiet stretches fuse whole chunks
/// into one window, as far as ArrayDevice::PlanSubmitHorizon proves no
/// member can fail. Such a window is streamed when one step covers it:
/// the runner calls BeginStep, then generates and submits chunk by chunk
/// while the members step the grids already covered, then EndStep. Every
/// other window — fixed epochs, RAID1 (mirror reads route on live head
/// positions), a degraded or faulting array — is submitted whole and then
/// advanced. Both orders give bit-identical results.
class ArrayDayRunner {
 public:
  /// `device` must be Start()ed and outlive the runner.
  ArrayDayRunner(array::ArrayDevice* device, const ArrayDayConfig& config);

  /// One measured day. The returned metrics carry the ArrangeResult of
  /// the pass that prepared the day and sum `elapsed` over members.
  StatusOr<DayMetrics> RunMeasuredDay();

  /// End-of-day passes, mirroring ShardedDayRunner. Both are skipped
  /// internally (and counted) while the array is degraded.
  Status RearrangeForNextDay();
  Status CleanForNextDay();

  const placement::ArrangeResult& last_arrange() const {
    return last_arrange_;
  }
  std::int64_t requests_generated() const { return requests_; }
  /// Windows run as streamed steps so far.
  std::int64_t streamed_windows() const { return streamed_; }
  std::int32_t day() const { return day_; }
  array::ArrayDevice& device() { return *device_; }

 private:
  array::ArrayDevice* device_;
  ArrayDayConfig config_;
  workload::SyntheticBlockWorkload workload_;
  workload::Trace trace_;
  placement::ArrangeResult last_arrange_;
  std::int64_t requests_ = 0;
  std::int64_t streamed_ = 0;
  std::int32_t day_ = 0;
};

/// Alternating off/on protocol over an array runner — the array twin of
/// RunShardedOnOff, plus the availability story: if a member dies during
/// a day (a timed crash point in its fault plan), the array keeps serving
/// degraded and the runner reattaches the member after
/// `reattach_after_days` further measured days, resyncing divergent
/// granules in the background of subsequent traffic.
struct ArrayOnOffResult {
  std::vector<DayMetrics> off_days;
  std::vector<DayMetrics> on_days;
  std::int32_t crashes_seen = 0;
  std::int32_t resyncs_completed = 0;
  std::int64_t passes_skipped_degraded = 0;
  std::int64_t lost_requests = 0;
  std::int32_t spares_used = 0;
};
StatusOr<ArrayOnOffResult> RunArrayOnOff(ArrayDayRunner& runner,
                                         std::int32_t days_per_side,
                                         std::int32_t reattach_after_days = 1);

}  // namespace abr::core

#endif  // ABR_CORE_ARRAY_DAY_H_
