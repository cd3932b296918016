#ifndef ABR_PERFBENCH_CHECKS_H_
#define ABR_PERFBENCH_CHECKS_H_

// Output checks of the benchmark. Each check takes plain data so that the
// self-test (selftest.cc) can feed it a deliberately wrong input; none of
// them derives its expectation from the simulator code it checks.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analyzer/counter.h"
#include "core/metrics.h"
#include "disk/geometry.h"
#include "driver/block_table.h"
#include "util/types.h"

namespace abr::perfbench {

/// Collects check failures; a run is correct only while this stays empty.
class CheckLog {
 public:
  /// A quiet log (the self-test's) does not echo failures to stderr.
  explicit CheckLog(bool quiet = false) : quiet_(quiet) {}
  void Fail(const std::string& what);
  /// Appends another log's failures (already echoed by that log).
  void Merge(const CheckLog& other);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  bool quiet_;
  std::vector<std::string> failures_;
};

// --- Two independent paths ------------------------------------------------

/// Compares every simulated field of two days bit for bit. The host
/// wall-clock fields (barrier_stall_wall, barrier_merge_wall) are skipped.
/// On a difference, names the first differing field in `why`.
bool SameDay(const core::DayMetrics& a, const core::DayMetrics& b,
             std::string* why);

/// SameDay over two day sequences of equal length.
void CheckSameDays(const std::vector<core::DayMetrics>& a,
                   const std::vector<core::DayMetrics>& b,
                   const std::string& what, CheckLog& log);

/// One block-table snapshot: entries sorted by original address.
using Mapping = std::vector<driver::BlockTableEntry>;
Mapping SnapshotMapping(const driver::BlockTable& table);

void CheckSameMappings(const std::vector<Mapping>& a,
                       const std::vector<Mapping>& b, const std::string& what,
                       CheckLog& log);

// --- Conservation ---------------------------------------------------------

/// File-system blocks (numbered from the start of the virtual disk, with
/// `block_sectors` sectors each) that straddle the boundary where the
/// hidden reserved cylinders sit: the reserved region starts at cylinder
/// (cylinders - reserved) / 2 of the physical drive, and virtual sectors
/// from that cylinder on shift past it. Computed from the geometry alone.
std::vector<BlockNo> StraddlingBlocks(const disk::Geometry& physical,
                                      std::int32_t reserved_cylinders,
                                      std::int32_t block_sectors);

/// One FS day: every recorded external request completes once, except
/// that a request for a straddling block completes as two pieces.
void CheckFsConservation(std::int64_t completed, std::int64_t recorded,
                         std::int64_t straddle_refs,
                         std::int64_t monitor_drops, const std::string& what,
                         CheckLog& log);

/// One array day: completed reads/writes equal those in the generated
/// trace, plus the references to member blocks that straddle a member's
/// hidden region (each completes as two pieces, as on a single drive).
struct IoCount {
  std::int64_t reads = 0;
  std::int64_t writes = 0;
};
void CheckArrayConservation(IoCount completed, IoCount generated,
                            IoCount straddle_refs, const std::string& what,
                            CheckLog& log);

// --- Space-Saving bound ---------------------------------------------------

/// Every hot-list estimate lies in [exact, exact + total / entries], where
/// `exact` is the benchmark's own count of the block's references in the
/// period.
void CheckSpaceSavingBound(
    const std::vector<analyzer::HotBlock>& hot,
    const std::unordered_map<std::uint64_t, std::int64_t>& exact,
    std::int64_t total, std::int64_t entries, const std::string& what,
    CheckLog& log);

// --- Placement ------------------------------------------------------------

/// Physical sector range of the hidden cylinders, from the geometry.
struct ReservedArea {
  SectorNo first = 0;
  SectorNo end = 0;  // exclusive
  std::int32_t block_sectors = 0;
  std::int32_t capacity = 0;  // block-table entries
};
ReservedArea ReservedAreaOf(const disk::Geometry& physical,
                            std::int32_t reserved_cylinders,
                            std::int32_t block_sectors,
                            std::int32_t table_capacity);

/// Every relocated block lies inside the reserved cylinders, no two
/// entries overlap a slot, and the table is within its capacity.
void CheckPlacement(const Mapping& mapping, const ReservedArea& area,
                    const std::string& what, CheckLog& log);

// --- Method and Table 1 physics -------------------------------------------

/// On-day mean seek must be at most `max_ratio` of the baseline's.
void CheckSeekReduction(double on_seek_ms, double baseline_seek_ms,
                        double max_ratio, const std::string& what,
                        CheckLog& log);

/// A drive as published in the paper's Table 1.
struct PublishedDrive {
  const char* name;
  std::int32_t cylinders;
  std::int32_t tracks_per_cylinder;
  std::int32_t sectors_per_track;
  std::int32_t rpm;
  // Long-seek line of the seek-time function: a + b * d ms.
  double long_seek_base_ms;
  double long_seek_per_cyl_ms;

  double full_stroke_ms() const {
    return long_seek_base_ms + long_seek_per_cyl_ms * (cylinders - 1);
  }
  double revolution_ms() const { return 60000.0 / rpm; }
  double transfer_ms(std::int32_t sectors) const {
    return revolution_ms() * sectors / sectors_per_track;
  }
};
const PublishedDrive& PublishedToshibaMK156F();
const PublishedDrive& PublishedFujitsuM2266();

/// The simulated drive must match the published geometry.
void CheckGeometry(const disk::Geometry& g, const PublishedDrive& p,
                   CheckLog& log);

/// Mean seek <= full-stroke seek; mean rotation + transfer <= one
/// revolution plus one block's transfer.
void CheckPhysics(const core::SliceMetrics& m, const PublishedDrive& p,
                  std::int32_t block_sectors, const std::string& what,
                  CheckLog& log);

/// Runs every check against one wrong input (and its correct twin);
/// returns the number of checks that failed to tell them apart.
int RunSelfTest(bool verbose);

}  // namespace abr::perfbench

#endif  // ABR_PERFBENCH_CHECKS_H_
