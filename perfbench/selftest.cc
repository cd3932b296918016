// Self-test of the benchmark's checks: each check gets one correct input,
// which it must accept, and one deliberately wrong input, which it must
// reject. Runs at the end of every benchmark run and alone with
// --self-test.

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "checks.h"

namespace abr::perfbench {
namespace {

core::DayMetrics SampleDay() {
  core::DayMetrics d;
  d.all.mean_seek_ms = 2.8;
  d.all.mean_service_ms = 18.3;
  d.all.mean_wait_ms = 94.2;
  d.all.rot_plus_transfer_ms = 15.5;
  d.all.count = 3;
  d.reads = d.all;
  for (Micros t : {4100, 17800, 33000}) {
    d.service_all.Add(t);
    d.service_reads.Add(t);
  }
  d.arrange.admitted = 1018;
  d.util.external_busy = 54900;
  d.elapsed = 15 * kHour;
  d.barriers = 4;
  return d;
}

Mapping SampleMapping() {
  // Toshiba MK156F with 48 reserved cylinders: sectors [130220, 146540).
  return {{1000, 130500, false}, {2000, 130516, true}, {3000, 146000, false}};
}

}  // namespace

int RunSelfTest(bool verbose) {
  int missed = 0;
  // Runs the correct and the wrong input, each into a fresh quiet log; the
  // check passes when it accepts the first and rejects the second.
  const auto expect = [&](const char* name,
                          const std::function<void(CheckLog&)>& good,
                          const std::function<void(CheckLog&)>& bad) {
    CheckLog g(/*quiet=*/true), b(/*quiet=*/true);
    good(g);
    bad(b);
    const bool ok = g.ok() && !b.ok();
    if (!ok) ++missed;
    if (verbose) {
      std::printf("%-44s %s%s\n", name, ok ? "ok" : "MISSED",
                  ok ? ("  (rejects: " + b.failures().front() + ")").c_str()
                     : "");
    }
  };

  const core::DayMetrics day = SampleDay();
  expect(
      "paths: DayMetrics field off by one ulp",
      [&](CheckLog& log) {
        core::DayMetrics twin = day;
        twin.barrier_stall_wall = 1.5;  // host time: never compared
        CheckSameDays({day}, {twin}, "self-test", log);
      },
      [&](CheckLog& log) {
        core::DayMetrics twin = day;
        twin.all.mean_seek_ms = std::nextafter(twin.all.mean_seek_ms, 1e9);
        CheckSameDays({day}, {twin}, "self-test", log);
      });
  expect(
      "paths: one service-histogram sample moved",
      [&](CheckLog& log) { CheckSameDays({day}, {day}, "self-test", log); },
      [&](CheckLog& log) {
        core::DayMetrics twin = SampleDay();
        twin.service_all = stats::TimeHistogram();
        for (Micros t : {4100, 17800, 32000}) twin.service_all.Add(t);
        CheckSameDays({day}, {twin}, "self-test", log);
      });
  expect(
      "paths: block-table mapping differs",
      [&](CheckLog& log) {
        CheckSameMappings({SampleMapping()}, {SampleMapping()}, "self-test",
                          log);
      },
      [&](CheckLog& log) {
        Mapping m = SampleMapping();
        m[1].relocated += 16;
        CheckSameMappings({SampleMapping()}, {m}, "self-test", log);
      });

  const disk::Geometry toshiba{815, 10, 34, 3600, 512};
  const disk::Geometry fujitsu{1658, 15, 85, 3600, 512};
  expect(
      "conservation: straddle taken from the geometry",
      [&](CheckLog& log) {
        // Both drives centre the hidden cylinders on a boundary that is not
        // block-aligned: virtual blocks 8138 (Toshiba) and 62873 (Fujitsu)
        // straddle it and complete as two pieces.
        if (StraddlingBlocks(toshiba, 48, 16) != std::vector<BlockNo>{8138} ||
            StraddlingBlocks(fujitsu, 80, 16) != std::vector<BlockNo>{62873}) {
          log.Fail("straddling block computed wrongly");
        }
        CheckFsConservation(52373, 52372, 1, 0, "st", log);
      },
      [&](CheckLog& log) {
        CheckFsConservation(52373, 52372, 0, 0, "st", log);
      });
  expect(
      "conservation: FS completion dropped",
      [&](CheckLog& log) { CheckFsConservation(101, 99, 2, 0, "st", log); },
      [&](CheckLog& log) { CheckFsConservation(100, 99, 2, 0, "st", log); });
  expect(
      "conservation: FS monitor drop",
      [&](CheckLog& log) { CheckFsConservation(99, 99, 0, 0, "st", log); },
      [&](CheckLog& log) { CheckFsConservation(99, 99, 0, 1, "st", log); });
  expect(
      "conservation: array write completion dropped",
      [&](CheckLog& log) {
        CheckArrayConservation({72, 30}, {70, 30}, {2, 0}, "st", log);
      },
      [&](CheckLog& log) {
        CheckArrayConservation({72, 29}, {70, 30}, {2, 0}, "st", log);
      });

  const std::unordered_map<std::uint64_t, std::int64_t> exact = {
      {analyzer::PackBlockId({0, 7}), 50}, {analyzer::PackBlockId({0, 9}), 30}};
  const std::vector<analyzer::HotBlock> hot = {{{0, 7}, 50}, {{0, 9}, 31}};
  expect(
      "space-saving: estimate below exact count",
      [&](CheckLog& log) {
        CheckSpaceSavingBound(hot, exact, 80, 40, "st", log);
      },
      [&](CheckLog& log) {
        std::vector<analyzer::HotBlock> h = hot;
        h[1].count = 29;
        CheckSpaceSavingBound(h, exact, 80, 40, "st", log);
      });
  expect(
      "space-saving: estimate above exact + total/entries",
      [&](CheckLog& log) {
        CheckSpaceSavingBound(hot, exact, 80, 40, "st", log);
      },
      [&](CheckLog& log) {
        std::vector<analyzer::HotBlock> h = hot;
        h[1].count = 33;  // slack is 80 / 40 = 2
        CheckSpaceSavingBound(h, exact, 80, 40, "st", log);
      });
  expect(
      "space-saving: reference total differs",
      [&](CheckLog& log) {
        CheckSpaceSavingBound(hot, exact, 80, 40, "st", log);
      },
      [&](CheckLog& log) {
        CheckSpaceSavingBound(hot, exact, 81, 40, "st", log);
      });

  const ReservedArea area = ReservedAreaOf(toshiba, 48, 16, 3);
  expect(
      "placement: duplicated slot",
      [&](CheckLog& log) {
        CheckPlacement(SampleMapping(), area, "st", log);
      },
      [&](CheckLog& log) {
        Mapping m = SampleMapping();
        m[2].relocated = m[0].relocated;
        CheckPlacement(m, area, "st", log);
      });
  expect(
      "placement: overlapping slots",
      [&](CheckLog& log) {
        CheckPlacement(SampleMapping(), area, "st", log);
      },
      [&](CheckLog& log) {
        Mapping m = SampleMapping();
        m[1].relocated = m[0].relocated + 8;
        CheckPlacement(m, area, "st", log);
      });
  expect(
      "placement: block outside the reserved cylinders",
      [&](CheckLog& log) {
        CheckPlacement(SampleMapping(), area, "st", log);
      },
      [&](CheckLog& log) {
        Mapping m = SampleMapping();
        m[2].relocated = 146530;  // ends past sector 146540
        CheckPlacement(m, area, "st", log);
      });
  expect(
      "placement: more entries than table capacity",
      [&](CheckLog& log) {
        CheckPlacement(SampleMapping(), area, "st", log);
      },
      [&](CheckLog& log) {
        Mapping m = SampleMapping();
        m.push_back({4000, 131000, false});
        CheckPlacement(m, area, "st", log);
      });

  expect(
      "method: on-day seek not below off-day seek",
      [&](CheckLog& log) { CheckSeekReduction(2.80, 10.64, 0.5, "st", log); },
      [&](CheckLog& log) {
        CheckSeekReduction(10.64, 10.64, 0.5, "st", log);
      });

  const PublishedDrive& pt = PublishedToshibaMK156F();
  expect(
      "physics: published Table 1 values",
      [&](CheckLog& log) {
        if (std::fabs(pt.full_stroke_ms() - 41.923) > 1e-9 ||
            std::fabs(PublishedFujitsuM2266().full_stroke_ms() - 26.3298) >
                1e-9) {
          log.Fail("full-stroke seek computed wrongly");
        }
        CheckGeometry(toshiba, pt, log);
      },
      [&](CheckLog& log) { CheckGeometry(fujitsu, pt, log); });
  expect(
      "physics: mean seek above full stroke",
      [&](CheckLog& log) { CheckPhysics(day.all, pt, 16, "st", log); },
      [&](CheckLog& log) {
        core::SliceMetrics m = day.all;
        m.mean_seek_ms = 42.0;
        CheckPhysics(m, pt, 16, "st", log);
      });
  expect(
      "physics: rotation + transfer above the limit",
      [&](CheckLog& log) { CheckPhysics(day.all, pt, 16, "st", log); },
      [&](CheckLog& log) {
        core::SliceMetrics m = day.all;
        m.rot_plus_transfer_ms = 16.667 + 7.85;  // limit 16.667 + 7.843
        CheckPhysics(m, pt, 16, "st", log);
      });

  if (verbose) {
    std::printf("%s\n", missed == 0 ? "self-test: every check rejects its "
                                      "wrong input"
                                    : "self-test: FAILED");
  }
  return missed;
}

}  // namespace abr::perfbench
