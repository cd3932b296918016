#include "checks.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>

namespace abr::perfbench {

void CheckLog::Fail(const std::string& what) {
  failures_.push_back(what);
  if (!quiet_) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void CheckLog::Merge(const CheckLog& other) {
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
}

namespace {

// Field-by-field comparison that reports the first difference. Doubles
// compare by bit pattern: the two paths must produce the same bits, not
// merely close values.
class Diff {
 public:
  explicit Diff(std::string* why) : why_(why) {}

  bool ok() const { return ok_; }

  void F(const char* name, double a, double b) {
    if (ok_ && std::bit_cast<std::uint64_t>(a) !=
                   std::bit_cast<std::uint64_t>(b)) {
      Mismatch(name, std::to_string(a), std::to_string(b));
    }
  }
  void I(const char* name, std::int64_t a, std::int64_t b) {
    if (ok_ && a != b) Mismatch(name, std::to_string(a), std::to_string(b));
  }
  void Slice(const char* name, const core::SliceMetrics& a,
             const core::SliceMetrics& b) {
    const std::string p = name;
    F((p + ".mean_seek_ms").c_str(), a.mean_seek_ms, b.mean_seek_ms);
    F((p + ".fcfs_seek_ms").c_str(), a.fcfs_seek_ms, b.fcfs_seek_ms);
    F((p + ".mean_seek_dist").c_str(), a.mean_seek_dist, b.mean_seek_dist);
    F((p + ".fcfs_seek_dist").c_str(), a.fcfs_seek_dist, b.fcfs_seek_dist);
    F((p + ".zero_seek_pct").c_str(), a.zero_seek_pct, b.zero_seek_pct);
    F((p + ".mean_service_ms").c_str(), a.mean_service_ms,
      b.mean_service_ms);
    F((p + ".mean_wait_ms").c_str(), a.mean_wait_ms, b.mean_wait_ms);
    F((p + ".rot_plus_transfer_ms").c_str(), a.rot_plus_transfer_ms,
      b.rot_plus_transfer_ms);
    I((p + ".count").c_str(), a.count, b.count);
  }
  void Hist(const char* name, const stats::TimeHistogram& a,
            const stats::TimeHistogram& b) {
    const std::string p = name;
    I((p + ".count").c_str(), a.count(), b.count());
    I((p + ".total").c_str(), a.total(), b.total());
    I((p + ".min").c_str(), a.min(), b.min());
    I((p + ".max").c_str(), a.max(), b.max());
    I((p + ".bucket_width").c_str(), a.bucket_width(), b.bucket_width());
    if (ok_ && a.buckets() != b.buckets()) {
      Mismatch((p + ".buckets").c_str(), "...", "...");
    }
  }

 private:
  void Mismatch(const char* name, const std::string& a, const std::string& b) {
    ok_ = false;
    if (why_ != nullptr) *why_ = std::string(name) + ": " + a + " vs " + b;
  }

  std::string* why_;
  bool ok_ = true;
};

}  // namespace

bool SameDay(const core::DayMetrics& a, const core::DayMetrics& b,
             std::string* why) {
  Diff d(why);
  d.Slice("all", a.all, b.all);
  d.Slice("reads", a.reads, b.reads);
  d.Slice("writes", a.writes, b.writes);
  d.Hist("service_all", a.service_all, b.service_all);
  d.Hist("service_reads", a.service_reads, b.service_reads);
  d.I("faults.media_errors", a.faults.media_errors, b.faults.media_errors);
  d.I("faults.retries", a.faults.retries, b.faults.retries);
  d.I("faults.failed_requests", a.faults.failed_requests,
      b.faults.failed_requests);
  d.I("faults.aborted_chains", a.faults.aborted_chains,
      b.faults.aborted_chains);
  d.I("faults.recovery_dirtied", a.faults.recovery_dirtied,
      b.faults.recovery_dirtied);
  d.I("faults.recovery_fallbacks", a.faults.recovery_fallbacks,
      b.faults.recovery_fallbacks);
  d.I("faults.remaps", a.faults.remaps, b.faults.remaps);
  d.I("faults.scrub_hits", a.faults.scrub_hits, b.faults.scrub_hits);
  d.I("moves.copy_ins", a.moves.copy_ins, b.moves.copy_ins);
  d.I("moves.shuffles", a.moves.shuffles, b.moves.shuffles);
  d.I("moves.evictions", a.moves.evictions, b.moves.evictions);
  d.I("arrange.cleaned", a.arrange.cleaned, b.arrange.cleaned);
  d.I("arrange.copied", a.arrange.copied, b.arrange.copied);
  d.I("arrange.skipped", a.arrange.skipped, b.arrange.skipped);
  d.I("arrange.aborted", a.arrange.aborted, b.arrange.aborted);
  d.I("arrange.kept", a.arrange.kept, b.arrange.kept);
  d.I("arrange.shuffled", a.arrange.shuffled, b.arrange.shuffled);
  d.I("arrange.evicted", a.arrange.evicted, b.arrange.evicted);
  d.I("arrange.admitted", a.arrange.admitted, b.arrange.admitted);
  d.I("arrange.deferred", a.arrange.deferred, b.arrange.deferred);
  d.I("arrange.halted", a.arrange.halted, b.arrange.halted);
  d.I("arrange.internal_ios", a.arrange.internal_ios, b.arrange.internal_ios);
  d.I("arrange.io_time", a.arrange.io_time, b.arrange.io_time);
  d.I("util.external_busy", a.util.external_busy, b.util.external_busy);
  d.I("util.internal_busy", a.util.internal_busy, b.util.internal_busy);
  d.I("util.arrange_stall", a.util.arrange_stall, b.util.arrange_stall);
  d.I("elapsed", a.elapsed, b.elapsed);
  d.I("barriers", a.barriers, b.barriers);
  return d.ok();
}

void CheckSameDays(const std::vector<core::DayMetrics>& a,
                   const std::vector<core::DayMetrics>& b,
                   const std::string& what, CheckLog& log) {
  if (a.size() != b.size()) {
    log.Fail(what + ": " + std::to_string(a.size()) + " vs " +
             std::to_string(b.size()) + " days");
    return;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::string why;
    if (!SameDay(a[i], b[i], &why)) {
      log.Fail(what + ": day " + std::to_string(i) + " differs in " + why);
      return;
    }
  }
}

Mapping SnapshotMapping(const driver::BlockTable& table) {
  Mapping m = table.entries();
  std::sort(m.begin(), m.end(),
            [](const driver::BlockTableEntry& x,
               const driver::BlockTableEntry& y) {
              return x.original < y.original;
            });
  return m;
}

void CheckSameMappings(const std::vector<Mapping>& a,
                       const std::vector<Mapping>& b, const std::string& what,
                       CheckLog& log) {
  if (a.size() != b.size()) {
    log.Fail(what + ": " + std::to_string(a.size()) + " vs " +
             std::to_string(b.size()) + " passes");
    return;
  }
  for (std::size_t p = 0; p < a.size(); ++p) {
    bool same = a[p].size() == b[p].size();
    for (std::size_t i = 0; same && i < a[p].size(); ++i) {
      same = a[p][i].original == b[p][i].original &&
             a[p][i].relocated == b[p][i].relocated &&
             a[p][i].dirty == b[p][i].dirty;
    }
    if (!same) {
      log.Fail(what + ": block-table mapping differs after pass " +
               std::to_string(p));
      return;
    }
  }
}

std::vector<BlockNo> StraddlingBlocks(const disk::Geometry& physical,
                                      std::int32_t reserved_cylinders,
                                      std::int32_t block_sectors) {
  const std::int64_t spc = static_cast<std::int64_t>(
                               physical.tracks_per_cylinder) *
                           physical.sectors_per_track;
  const std::int64_t boundary =
      static_cast<std::int64_t>((physical.cylinders - reserved_cylinders) /
                                2) *
      spc;
  if (boundary % block_sectors == 0) return {};
  return {boundary / block_sectors};
}

void CheckFsConservation(std::int64_t completed, std::int64_t recorded,
                         std::int64_t straddle_refs,
                         std::int64_t monitor_drops, const std::string& what,
                         CheckLog& log) {
  if (monitor_drops != 0) {
    log.Fail(what + ": request monitor dropped " +
             std::to_string(monitor_drops) + " records");
  }
  if (completed != recorded + straddle_refs) {
    log.Fail(what + ": " + std::to_string(completed) +
             " completed requests vs " + std::to_string(recorded) +
             " recorded + " + std::to_string(straddle_refs) +
             " straddling references");
  }
}

void CheckArrayConservation(IoCount completed, IoCount generated,
                            IoCount straddle_refs, const std::string& what,
                            CheckLog& log) {
  if (completed.reads != generated.reads + straddle_refs.reads ||
      completed.writes != generated.writes + straddle_refs.writes) {
    log.Fail(what + ": completed " + std::to_string(completed.reads) + "r/" +
             std::to_string(completed.writes) + "w vs generated " +
             std::to_string(generated.reads) + "r/" +
             std::to_string(generated.writes) + "w + straddling " +
             std::to_string(straddle_refs.reads) + "r/" +
             std::to_string(straddle_refs.writes) + "w");
  }
}

void CheckSpaceSavingBound(
    const std::vector<analyzer::HotBlock>& hot,
    const std::unordered_map<std::uint64_t, std::int64_t>& exact,
    std::int64_t total, std::int64_t entries, const std::string& what,
    CheckLog& log) {
  std::int64_t exact_total = 0;
  for (const auto& [key, n] : exact) exact_total += n;
  if (exact_total != total) {
    log.Fail(what + ": analyzer saw " + std::to_string(total) +
             " references, the benchmark counted " +
             std::to_string(exact_total));
    return;
  }
  const std::int64_t slack = entries > 0 ? total / entries : 0;
  for (const analyzer::HotBlock& h : hot) {
    const auto it = exact.find(analyzer::PackBlockId(h.id));
    const std::int64_t n = it == exact.end() ? 0 : it->second;
    if (h.count < n || h.count > n + slack) {
      log.Fail(what + ": block " + std::to_string(h.id.block) +
               " estimate " + std::to_string(h.count) + " outside [" +
               std::to_string(n) + ", " + std::to_string(n + slack) + "]");
      return;
    }
  }
}

ReservedArea ReservedAreaOf(const disk::Geometry& physical,
                            std::int32_t reserved_cylinders,
                            std::int32_t block_sectors,
                            std::int32_t table_capacity) {
  const std::int64_t spc = static_cast<std::int64_t>(
                               physical.tracks_per_cylinder) *
                           physical.sectors_per_track;
  ReservedArea r;
  r.first = static_cast<SectorNo>((physical.cylinders - reserved_cylinders) /
                                  2) *
            spc;
  r.end = r.first + static_cast<SectorNo>(reserved_cylinders) * spc;
  r.block_sectors = block_sectors;
  r.capacity = table_capacity;
  return r;
}

void CheckPlacement(const Mapping& mapping, const ReservedArea& area,
                    const std::string& what, CheckLog& log) {
  if (static_cast<std::int64_t>(mapping.size()) > area.capacity) {
    log.Fail(what + ": " + std::to_string(mapping.size()) +
             " entries exceed capacity " + std::to_string(area.capacity));
    return;
  }
  std::vector<SectorNo> slots;
  slots.reserve(mapping.size());
  for (const driver::BlockTableEntry& e : mapping) {
    if (e.relocated < area.first ||
        e.relocated + area.block_sectors > area.end) {
      log.Fail(what + ": block at sector " + std::to_string(e.original) +
               " relocated to " + std::to_string(e.relocated) +
               ", outside the reserved sectors [" +
               std::to_string(area.first) + ", " + std::to_string(area.end) +
               ")");
      return;
    }
    slots.push_back(e.relocated);
  }
  std::sort(slots.begin(), slots.end());
  for (std::size_t i = 1; i < slots.size(); ++i) {
    if (slots[i] - slots[i - 1] < area.block_sectors) {
      log.Fail(what + ": slots at sectors " + std::to_string(slots[i - 1]) +
               " and " + std::to_string(slots[i]) + " overlap");
      return;
    }
  }
}

void CheckSeekReduction(double on_seek_ms, double baseline_seek_ms,
                        double max_ratio, const std::string& what,
                        CheckLog& log) {
  if (!(on_seek_ms > 0.0) || !(on_seek_ms <= max_ratio * baseline_seek_ms)) {
    std::ostringstream s;
    s << what << ": on-day mean seek " << on_seek_ms << " ms is not below "
      << max_ratio << " x baseline " << baseline_seek_ms << " ms";
    log.Fail(s.str());
  }
}

const PublishedDrive& PublishedToshibaMK156F() {
  // Table 1: 815 cylinders, 10 tracks, 34 sectors/track, 3600 RPM;
  // seek(d) = 17.503 + 0.03 d ms for d >= 315.
  static const PublishedDrive d{"Toshiba MK156F", 815, 10, 34, 3600, 17.503,
                                0.03};
  return d;
}

const PublishedDrive& PublishedFujitsuM2266() {
  // Table 1: 1658 cylinders, 15 tracks, 85 sectors/track, 3600 RPM;
  // seek(d) = 7.44 + 0.0114 d ms for d > 225.
  static const PublishedDrive d{"Fujitsu M2266", 1658, 15, 85, 3600, 7.44,
                                0.0114};
  return d;
}

void CheckGeometry(const disk::Geometry& g, const PublishedDrive& p,
                   CheckLog& log) {
  if (g.cylinders != p.cylinders ||
      g.tracks_per_cylinder != p.tracks_per_cylinder ||
      g.sectors_per_track != p.sectors_per_track || g.rpm != p.rpm) {
    log.Fail(std::string("simulated drive geometry differs from the "
                         "published ") +
             p.name);
  }
}

void CheckPhysics(const core::SliceMetrics& m, const PublishedDrive& p,
                  std::int32_t block_sectors, const std::string& what,
                  CheckLog& log) {
  const double rot_limit = p.revolution_ms() + p.transfer_ms(block_sectors);
  if (!(m.mean_seek_ms >= 0.0 && m.mean_seek_ms <= p.full_stroke_ms())) {
    log.Fail(what + ": mean seek " + std::to_string(m.mean_seek_ms) +
             " ms exceeds the full-stroke seek " +
             std::to_string(p.full_stroke_ms()) + " ms");
  }
  if (!(m.rot_plus_transfer_ms >= 0.0 &&
        m.rot_plus_transfer_ms <= rot_limit)) {
    log.Fail(what + ": mean rotation + transfer " +
             std::to_string(m.rot_plus_transfer_ms) + " ms exceeds " +
             std::to_string(rot_limit) + " ms");
  }
}

}  // namespace abr::perfbench
