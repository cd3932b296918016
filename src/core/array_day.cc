#include "core/array_day.h"

#include <algorithm>
#include <utility>

namespace abr::core {

ArrayDayRunner::ArrayDayRunner(array::ArrayDevice* device,
                               const ArrayDayConfig& config)
    : device_(device),
      config_(config),
      workload_(/*device=*/0, device->device_blocks(), config.synthetic,
                config.seed) {}

StatusOr<DayMetrics> ArrayDayRunner::RunMeasuredDay() {
  array::ArrayDevice& dev = *device_;
  (void)dev.ReadStatsMerged(/*clear=*/true);
  const Micros start = dev.now();
  const Micros end = start + config_.day_length;

  const std::int64_t barriers_before = dev.barriers();
  const double stall_before = dev.barrier_stall_wall();
  const double merge_before = dev.barrier_merge_wall();

  // Chunks are day-relative durations, so every configuration sees the
  // identical per-day request sequence; only the absolute start shifts.
  // Under an adaptive device, quiet stretches batch several chunks into
  // one window (the device's submit horizon proves the batched routing
  // bit-identical); generation itself always stays on the chunk grid so
  // the request sequence cannot depend on the windowing.
  const bool adaptive = dev.config().adaptive_epoch;
  const bool raid0 = dev.level() == array::RaidLevel::kRaid0;
  const std::int32_t max_chunks =
      std::max<std::int32_t>(1, dev.config().max_epoch_grids);
  auto submit_pieces = [&](Micros from, Micros to) -> Status {
    for (Micros piece = from; piece < to;) {
      const Micros piece_end = std::min(to, piece + config_.chunk);
      trace_.Clear();
      workload_.Generate(piece, piece_end, trace_);
      requests_ += static_cast<std::int64_t>(trace_.size());
      ABR_RETURN_IF_ERROR(
          dev.SubmitBatch(trace_.records().data(), trace_.size()));
      piece = piece_end;
    }
    return Status::Ok();
  };
  Micros cur = start;
  while (cur < end) {
    Micros cur_end = std::min(end, cur + config_.chunk);
    Micros horizon = cur;
    if (adaptive) {
      horizon = dev.PlanSubmitHorizon(end);
      for (std::int32_t k = 1; k < max_chunks && cur_end < end; ++k) {
        const Micros next = std::min(end, cur_end + config_.chunk);
        if (next > horizon) break;
        cur_end = next;
      }
    }
    if (raid0 && cur_end <= horizon && dev.PlanStepEnd(cur_end) == cur_end) {
      // One step covers the window and no member can die inside it:
      // stream it. The members step the early grids while later chunks
      // are still being generated and routed.
      ABR_RETURN_IF_ERROR(dev.BeginStep(cur_end));
      Status submitted = submit_pieces(cur, cur_end);
      Status ended = dev.EndStep();
      ABR_RETURN_IF_ERROR(submitted);
      ABR_RETURN_IF_ERROR(ended);
      ++streamed_;
    } else {
      ABR_RETURN_IF_ERROR(submit_pieces(cur, cur_end));
      ABR_RETURN_IF_ERROR(dev.AdvanceTo(cur_end));
    }
    cur = cur_end;
  }

  StatusOr<Micros> quiesce = dev.Drain();
  if (!quiesce.ok()) return quiesce.status();
  ++day_;
  DayMetrics metrics =
      DayMetrics::From(dev.ReadStatsMerged(/*clear=*/true), dev.seek_model());
  metrics.barriers = dev.barriers() - barriers_before;
  metrics.barrier_stall_wall = dev.barrier_stall_wall() - stall_before;
  metrics.barrier_merge_wall = dev.barrier_merge_wall() - merge_before;
  // Every member ran the same span; the array's disk-time budget for idle
  // accounting is the span times the member count.
  metrics.elapsed = (*quiesce - start) * dev.members();
  metrics.arrange = last_arrange_;
  last_arrange_ = placement::ArrangeResult{};
  return metrics;
}

Status ArrayDayRunner::RearrangeForNextDay() {
  StatusOr<placement::ArrangeResult> result = device_->RearrangeAll();
  if (result.ok()) last_arrange_ = *result;
  return result.status();
}

Status ArrayDayRunner::CleanForNextDay() {
  StatusOr<placement::ArrangeResult> result = device_->CleanAll();
  if (result.ok()) last_arrange_ = *result;
  return result.status();
}

StatusOr<ArrayOnOffResult> RunArrayOnOff(ArrayDayRunner& runner,
                                         std::int32_t days_per_side,
                                         std::int32_t reattach_after_days) {
  array::ArrayDevice& dev = runner.device();
  ArrayOnOffResult result;
  std::int32_t days_degraded = 0;
  bool crash_counted = false;

  // After each measured day: count a fresh crash, and reattach the dead
  // member once it has sat out `reattach_after_days` full days. Resync
  // then rides the idle gaps of the following days' traffic.
  const auto maintain = [&]() -> Status {
    if (!dev.degraded()) {
      days_degraded = 0;
      return Status::Ok();
    }
    if (!crash_counted) {
      ++result.crashes_seen;
      crash_counted = true;
    }
    ++days_degraded;
    if (days_degraded < reattach_after_days) return Status::Ok();
    for (std::int32_t m = 0; m < dev.members(); ++m) {
      if (dev.member_state(m) == array::MemberState::kDead) {
        ABR_RETURN_IF_ERROR(dev.ReattachMember(m));
      }
    }
    return Status::Ok();
  };

  // Warm-up day: traffic and counts only; we start "off" like the paper.
  StatusOr<DayMetrics> warmup = runner.RunMeasuredDay();
  if (!warmup.ok()) return warmup.status();
  ABR_RETURN_IF_ERROR(maintain());

  const std::int32_t total_days = 2 * days_per_side;
  for (std::int32_t i = 0; i < total_days; ++i) {
    const bool on = (i % 2) == 1;
    if (on) {
      ABR_RETURN_IF_ERROR(runner.RearrangeForNextDay());
    } else {
      ABR_RETURN_IF_ERROR(runner.CleanForNextDay());
    }
    StatusOr<DayMetrics> day = runner.RunMeasuredDay();
    if (!day.ok()) return day.status();
    (on ? result.on_days : result.off_days).push_back(std::move(day.value()));
    ABR_RETURN_IF_ERROR(maintain());
  }

  result.resyncs_completed =
      static_cast<std::int32_t>(dev.resyncs_completed());
  result.passes_skipped_degraded = dev.passes_skipped_degraded();
  result.lost_requests = dev.lost_requests();
  result.spares_used = dev.spares_used();
  return result;
}

}  // namespace abr::core
