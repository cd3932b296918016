#ifndef ABR_ARRAY_ARRAY_DEVICE_H_
#define ABR_ARRAY_ARRAY_DEVICE_H_

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "disk/disk_label.h"
#include "disk/drive_spec.h"
#include "analyzer/counter.h"
#include "array/record_log.h"
#include "driver/adaptive_driver.h"
#include "driver/perf_monitor.h"
#include "fault/crash_table_store.h"
#include "fault/fault_plan.h"
#include "fault/faulty_disk.h"
#include "placement/arranger.h"
#include "placement/policy.h"
#include "sim/disk_system.h"
#include "sim/stripe_map.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/types.h"
#include "workload/trace.h"

namespace abr::array {

/// How the member disks compose into one virtual device.
enum class RaidLevel {
  kRaid0,  // chunked striping: capacity scales, no redundancy
  kRaid1,  // mirroring: every member holds the full device
};

const char* RaidLevelName(RaidLevel level);

/// Availability state of one member.
enum class MemberState {
  kOnline,  // serving traffic, tables in lockstep (RAID1)
  kDead,    // crashed; requests routed elsewhere or lost
  kResync,  // reattached, catching up divergent regions; takes writes
};

const char* MemberStateName(MemberState state);

/// Receives every *external* completion from every member, tagged with the
/// member index. Only usable with threads == 1 (the crash harness): with a
/// worker pool the per-member streams interleave nondeterministically and
/// the array refuses to start.
class ArrayCompletionSink {
 public:
  virtual ~ArrayCompletionSink() = default;
  virtual void OnMemberIoComplete(std::int32_t member,
                                  const sim::CompletedIo& done) = 0;
};

/// Configuration of the multi-disk array layer.
struct ArrayConfig {
  RaidLevel level = RaidLevel::kRaid1;

  /// Member drives (identical). RAID1 needs at least 2.
  std::int32_t members = 2;

  /// Worker threads advancing members in parallel. Results are byte-
  /// identical for every value: all cross-member decisions (routing,
  /// dirty-region merging, resync copies, remaps) happen on the
  /// coordinator at epoch barriers, in member order.
  std::int32_t threads = 1;

  /// RAID0 stripe unit in blocks: virtual blocks [k*chunk, (k+1)*chunk)
  /// land contiguously on one member before the stripe advances.
  std::int64_t chunk_blocks = 4;

  /// Barrier horizon (see ShardedSystemConfig::epoch). With
  /// adaptive_epoch this stays the base grid: adaptive windows always
  /// cover a whole number of these grids.
  Micros epoch = 2 * kMinute;

  /// Lookahead-adaptive barriers (see ShardedSystemConfig::adaptive_epoch).
  /// Quiet RAID0 stretches fuse up to max_epoch_grids grids into one
  /// parallel window; any window that could contain a cross-member event
  /// (a member fault/crash point, active resync or scrub, a pending
  /// remap) falls back to single-grid stepping, and RAID1 always steps
  /// single-grid because its read routing reads live member head
  /// positions at submit time. Output is bit-identical to
  /// adaptive_epoch = false for every member/thread count.
  bool adaptive_epoch = false;

  /// Upper bound on grids fused into one adaptive window.
  std::int32_t max_epoch_grids = 32;

  /// Member drive model.
  disk::DriveSpec drive = disk::DriveSpec::ToshibaMK156F();

  /// Hidden reserved cylinders per member.
  std::int32_t reserved_cylinders = 48;

  /// Hot blocks each member's arranger moves per pass. The member block
  /// tables are sized rearrange_blocks + spare_slots.
  std::int32_t rearrange_blocks = 1018;

  /// Reserved-area slots set aside for persistent-error remaps (never used
  /// by the arranger).
  std::int32_t spare_slots = 8;

  /// Dirty-region log granule, in blocks. Writes applied while a member is
  /// dead are tracked at this granularity; resync copies only dirty
  /// granules.
  std::int64_t resync_granule_blocks = 64;

  /// Cold blocks queued per member per barrier for background scrub
  /// verification; 0 disables scrubbing.
  std::int32_t scrub_batch = 0;

  /// Per-member driver tuning. block_table_capacity and spare_slots are
  /// overwritten from the fields above.
  driver::DriverConfig driver;

  /// Placement policy for the per-member arrangers.
  placement::PolicyKind policy = placement::PolicyKind::kOrganPipe;

  /// Arranger mode. The crash harness forces incremental = false: the
  /// full-rebuild oracle makes an executed pass's end table a pure
  /// function of its ranked list, which is what lets a killed-and-resynced
  /// run converge bit-identically with its uninterrupted twin.
  placement::ArrangerConfig arranger;

  /// Per-member fault plans; empty (no faults) or exactly `members` long.
  std::vector<fault::FaultPlan> fault_plans;

  /// Seeds the members' fault RNGs.
  std::uint64_t fault_seed = 0x51ED2A17ULL;
};

/// One virtual block device composed of N member stacks (FaultyDisk +
/// crash-accurate table store + AdaptiveDriver), in either a RAID0 chunked
/// stripe or a RAID1 mirror.
///
/// RAID1 invariant: every member sees the same submission stream of writes
/// and the same ranked hot-block list, and rearrangement passes only run
/// when all members are online — so the member block tables stay in
/// lockstep and any online member can serve any read. Reads pick the
/// member whose head is predicted closest to the target cylinder.
///
/// Availability: a member whose crash point fires goes kDead at the next
/// barrier; acked writes live on the surviving mirrors. While it is dead,
/// every write applied to a survivor is folded into the victim's
/// dirty-region log (granules). ReattachMember() rebuilds the member's
/// driver from a survivor's durable table image and enters kResync: new
/// writes fan to it immediately, while a background pump — running through
/// the source member's idle-sink path so it yields to user traffic —
/// verifies and copies only the dirty granules. Scrubbing walks cold
/// blocks through the same idle path; persistent errors found there are
/// remapped into spare reserved-area slots via the block-table redirection
/// ioctl, on every member in lockstep.
///
/// Time runs on the same conservative epoch-barrier protocol as
/// ShardedSystem; all maintenance (death detection, dirty merging, resync
/// copies, remaps, scrub refills) happens at barriers in member order.
///
/// Submissions go to one shared, append-only log (RecordLog). A RAID1
/// record is routed by the coordinator when it is submitted (reads pick a
/// member by live head position) and tagged with its members. So is a
/// RAID0 record submitted between steps or with threads == 1; one
/// submitted during a pooled step is routed by address by each member's
/// own worker as it steps. A RAID0 caller may keep submitting while a
/// step runs (BeginStep ... SubmitBatch ... EndStep): the members step
/// grid boundary b only once the log holds a record past b or the step is
/// sealed, so they service early grids while the caller is still
/// generating later ones, and the outcome equals submitting everything
/// first.
class ArrayDevice {
 public:
  explicit ArrayDevice(ArrayConfig config);
  ~ArrayDevice();

  ArrayDevice(const ArrayDevice&) = delete;
  ArrayDevice& operator=(const ArrayDevice&) = delete;

  /// Builds the member stacks and attaches the drivers.
  Status Start();

  /// Registers the harness completion sink. Must be called before Start();
  /// requires threads == 1.
  void set_client_sink(ArrayCompletionSink* sink) { client_sink_ = sink; }

  /// Virtual device size in blocks.
  std::int64_t device_blocks() const { return device_blocks_; }

  /// Blocks a single member contributes (RAID1: the whole device).
  std::int64_t member_blocks() const { return member_blocks_; }

  std::int32_t members() const { return config_.members; }
  RaidLevel level() const { return config_.level; }
  std::int32_t block_sectors() const { return block_sectors_; }
  const disk::SeekModel& seek_model() const;

  /// Submits logical requests (device must be 0, block in
  /// [0, device_blocks)); requests must arrive time-ordered. Between steps
  /// any level may submit, and a RAID0 record's reference and
  /// outstanding-write counts are taken here. During a step only RAID0 may
  /// (FailedPrecondition otherwise), every record must be timed at or
  /// before the step's target (InvalidArgument otherwise), and with a
  /// worker pool the owning member's worker takes the counts.
  Status Submit(const workload::TraceRecord& record) {
    return SubmitBatch(&record, 1);
  }
  Status SubmitBatch(const workload::TraceRecord* records, std::size_t count);

  /// Advances all members to `t` in barrier windows (fixed single-grid
  /// epochs, or lookahead-fused multiples of the grid with
  /// adaptive_epoch), running maintenance at each barrier: a BeginStep /
  /// EndStep pair per window. Members replay every grid boundary inside a
  /// window, so the member-side timelines are grid-identical in both
  /// modes.
  Status AdvanceTo(Micros t);

  /// One barrier window, split so a RAID0 caller can submit the window's
  /// records while the members step it. BeginStep plans the window
  /// (PlanStepEnd(t)) and dispatches the members; each steps grid boundary
  /// b once a record timed after b is submitted, or at EndStep. EndStep
  /// seals the window, joins the members and runs barrier maintenance.
  /// With threads == 1 the members step inside EndStep — same results.
  /// Drain, RearrangeAll, CleanAll, AdvanceTo, ReattachMember and a second
  /// BeginStep fail with FailedPrecondition while a step is active, as
  /// does EndStep without one.
  Status BeginStep(Micros t);
  Status EndStep();
  bool step_active() const { return step_active_; }

  /// Host wall-clock seconds the coordinator spent waiting in EndStep for
  /// the members after its last submit, and running barrier maintenance
  /// (host timing — never byte-compared output).
  double barrier_stall_wall() const { return stall_wall_; }
  double barrier_merge_wall() const { return merge_wall_; }

  /// Where the next barrier window starting at the current clock would
  /// end if asked to advance to `limit`. Pure function of simulation
  /// state — identical for every member/thread count.
  Micros PlanStepEnd(Micros limit) const;

  /// Latest simulated time T such that routing every external submission
  /// timed before T *now* (instead of chunk-by-chunk between barriers) is
  /// bit-identical: extension-safe RAID0 with no member fault/crash event
  /// before T. Returns the current clock when no batching ahead is safe
  /// (fixed mode, RAID1, degraded or busy arrays). Like PlanStepEnd and
  /// now(), it reads member state: call it between steps.
  Micros PlanSubmitHorizon(Micros limit) const;

  /// Barrier windows stepped by AdvanceTo so far. Deterministic.
  std::int64_t barriers() const { return barriers_; }

  const ArrayConfig& config() const { return config_; }

  /// Runs every member dry (plus one maintenance barrier) and returns the
  /// latest member completion time.
  StatusOr<Micros> Drain();

  /// Latest member clock.
  Micros now() const;

  /// One rearrangement pass on every member. The ranked list is built from
  /// the array-level reference counts accumulated since the last pass
  /// (RAID1: one shared list; RAID0: per member), and the counts are reset
  /// whether or not the pass runs. Members rank on these exact submission
  /// counts, not on their analyzers' Space-Saving estimates. The pass
  /// itself is skipped — counted in passes_skipped_degraded() — unless
  /// every member is online: executing it on a partial mirror would break
  /// table lockstep.
  StatusOr<placement::ArrangeResult> RearrangeAll();

  /// DKIOCBCLEAN on every member (skipped, like RearrangeAll, unless all
  /// members are online). Also resets the reference counts.
  StatusOr<placement::ArrangeResult> CleanAll();

  /// The ranked (count desc, block asc) list, in member-local blocks, that
  /// the next RearrangeAll would hand member `member` — exact submission
  /// counts, at most rearrange_blocks long. Reads without resetting;
  /// between steps only, like lost_requests().
  std::vector<analyzer::HotBlock> MemberHotList(std::int32_t member) const;

  /// Folds every member's performance snapshot (including generations
  /// stranded by crashes) in member order.
  driver::PerfSnapshot ReadStatsMerged(bool clear = true);

  /// Per-member fault counters accumulated across driver generations.
  driver::FaultCounters MemberFaults(std::int32_t member) const;

  /// Brings a dead RAID1 member back: mirrors a survivor's durable table
  /// image into its store, clears the crash latch, rebuilds the driver
  /// with crash recovery, and starts the resync pump over the member's
  /// dirty-region log. The member takes new writes immediately (kResync)
  /// but serves no reads until the pump drains.
  Status ReattachMember(std::int32_t member);

  MemberState member_state(std::int32_t member) const {
    return members_[member]->state;
  }
  std::int32_t online_members() const;
  bool degraded() const;  // any member not online
  bool failed() const;    // no redundancy left: data has been lost

  bool resync_active() const { return resync_.target >= 0; }
  std::int64_t resync_granules_copied() const { return resync_copied_; }
  std::int64_t resync_granules_pending() const;
  std::int64_t dirty_granules(std::int32_t member) const {
    return static_cast<std::int64_t>(members_[member]->dirty.size());
  }
  std::int64_t resyncs_completed() const { return resyncs_completed_; }
  std::int64_t passes_skipped_degraded() const {
    return passes_skipped_degraded_;
  }
  std::int64_t lost_requests() const;  // between steps only
  std::int32_t spares_used() const { return spare_cursor_; }

  /// Bitmask of members that currently receive writes (online + resync).
  std::uint64_t LiveWriteMask() const;

  /// Member internals, for tests and the crash harness.
  driver::AdaptiveDriver& member_driver(std::int32_t member) {
    return *members_[member]->driver;
  }
  const driver::AdaptiveDriver& member_driver(std::int32_t member) const {
    return *members_[member]->driver;
  }
  fault::FaultyDisk& member_disk(std::int32_t member) {
    return *members_[member]->disk;
  }

  /// First error the array ran into (sticky), empty when healthy.
  const std::string& first_error() const { return first_error_; }

 private:
  /// One member stack. Implements the driver's completion sink (to track
  /// outstanding writes and forward to the harness), the idle sink (resync
  /// reads and scrub verifies run in idle windows), and the disk's write
  /// observer (per-epoch write lanes feeding the dirty-region log).
  struct Member : sim::CompletionSink,
                  driver::IdleSink,
                  fault::WriteObserver {
    Member(ArrayDevice* device, std::int32_t index)
        : device(device), index(index) {}

    void OnIoComplete(const sim::CompletedIo& done) override;
    void OnIdle(Micros horizon) override;
    bool wants_idle() const override;
    void OnWriteServiced(SectorNo sector, std::int64_t count) override;

    ArrayDevice* device;
    std::int32_t index;

    std::unique_ptr<fault::FaultyDisk> disk;
    fault::CrashTableStore store;
    std::unique_ptr<placement::PlacementPolicy> policy;
    std::unique_ptr<driver::AdaptiveDriver> driver;
    MemberState state = MemberState::kOnline;

    // Step machinery: this member's read position in the shared log, and
    // reused staging for handing one grid's run to the driver at once.
    RecordLog::Cursor cursor;
    std::vector<driver::AdaptiveDriver::BlockRequest> submit_batch;
    Status step_status;
    StatusOr<placement::ArrangeResult> pass_result =
        placement::ArrangeResult{};

    // Physical extents written this epoch (external + internal), cleared
    // at every barrier after folding into the dead members' dirty logs.
    std::vector<std::pair<SectorNo, std::int64_t>> write_lane;

    // Logical writes routed here and not yet completed, per local block,
    // and how many blocks have one. Written by this member's step thread,
    // read by the coordinator at barriers.
    std::vector<std::int32_t> outstanding_writes;
    std::int64_t outstanding_blocks = 0;

    // RAID0 requests routed here while the member was dead.
    std::int64_t lost = 0;

    // Dirty-region log: granules whose payload may diverge from the
    // mirror set, accumulated while this member is dead, drained by
    // resync. Ordered so resync sweeps the platter in address order.
    std::set<std::int64_t> dirty;

    // RAID0 per-member reference counts (local block space).
    std::vector<std::int64_t> refs;

    // Scrub: (local block, mapped sector) queue refilled at barriers;
    // blocks that hit a persistent error, collected for remapping.
    std::deque<std::pair<BlockNo, SectorNo>> scrub_queue;
    bool scrub_inflight = false;
    std::vector<BlockNo> scrub_bad;
    std::int64_t scrub_cursor = 0;  // next local block to consider

    // Stats stranded by dead driver generations.
    driver::PerfSnapshot carry;
    driver::FaultCounters faults_total;
    bool carry_valid = false;
  };

  /// Resync pump state (coordinator-owned; the read-side fields are
  /// touched by the source member's step thread inside a step and by the
  /// coordinator at barriers, never both at once).
  struct Resync {
    std::int32_t target = -1;
    std::int32_t source = -1;
    std::deque<std::int64_t> reads;       // granules awaiting verify-read
    bool read_inflight = false;
    std::vector<std::int64_t> read_done;  // verified, copy at next barrier
    std::int64_t writes_inflight = 0;     // IoctlWriteExtent on the target
  };

  Status Validate() const;
  Status BuildMember(std::int32_t index);
  Status BuildMemberDriver(Member& m, bool after_crash);
  void RouteRaid1(const workload::TraceRecord& record);
  std::int32_t PickReadMember(BlockNo block) const;
  /// Reference, outstanding-write and lost counts of one RAID0 record.
  void CountRaid0(Member& m, BlockNo local, sched::IoType type);
  /// Moves member `m`'s log records timed at or before `boundary` into its
  /// submit batch (none when it is dead), routing and counting the RAID0
  /// ones the coordinator left unrouted. Waits until the log holds a
  /// record past `boundary` or is sealed.
  void CollectRun(Member& m, Micros boundary);
  /// Hands the collected run to the member's driver (unless it halted).
  Status SubmitRun(Member& m);
  /// Collects and submits the run up to `target`, then advances to it.
  void StepMember(Member& m, Micros target);
  /// Member worker body for the window (from, target].
  void StepWindow(Member& m, Micros from, Micros target);
  template <typename Fn>
  void ForEachMember(Fn&& fn);
  std::vector<analyzer::HotBlock> RankedFrom(
      const std::vector<std::int64_t>& refs) const;

  /// True when a multi-grid window is behaviorally equivalent to
  /// single-grid stepping: RAID0 (address-only routing), every member
  /// online and uncrashed, and no barrier-granular machinery (scrub,
  /// resync, pending remaps) armed — the skipped intermediate
  /// MaintainAtBarrier calls are then provably no-ops.
  bool ExtensionSafe() const;

  /// Earliest possible cross-member fault/crash event over the live
  /// members (simulated time; disk::kNoFaultEvent when none remain).
  Micros FaultEventBound() const;

  /// Barrier maintenance, in member order: death detection, write-lane
  /// folding, resync copies, remap retries, scrub refills.
  void MaintainAtBarrier();
  void HandleDeath(Member& m);
  void FoldWriteLanes();
  void MarkDirtyExtent(Member& dead, SectorNo sector, std::int64_t count);
  void MarkDirtyBlock(Member& dead, BlockNo block);
  void PumpResyncAtBarrier();
  void CopyGranule(std::int64_t granule);
  void ProcessScrubAtBarrier();
  Status RemapBlock(BlockNo block, std::int32_t bad_member);
  void CollectStats(Member& m);
  void RecordError(const std::string& what);

  std::int64_t GranuleOf(SectorNo sector) const {
    return sector / granule_sectors_;
  }
  bool OutstandingOverlapsGranule(const Member& m, std::int64_t granule) const;
  SectorNo OriginalSectorOf(BlockNo local_block) const;  // -1 if straddling

  ArrayConfig config_;
  ArrayCompletionSink* client_sink_ = nullptr;

  disk::DiskLabel label_;
  std::int32_t block_sectors_ = 0;
  std::int64_t member_blocks_ = 0;
  std::int64_t device_blocks_ = 0;
  std::int64_t granule_sectors_ = 0;
  std::unique_ptr<sim::StripeMap> stripe_;  // RAID0 only

  std::vector<std::unique_ptr<Member>> members_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::future<void>> step_futures_;

  RecordLog log_;
  std::vector<RecordLog::Cursor*> cursors_;  // every member's, for Release

  std::vector<std::int64_t> refs_;  // RAID1 shared reference counts

  Resync resync_;
  // Remaps awaiting their preconditions: (local block, member that hit
  // the persistent error). Retried every barrier.
  std::vector<std::pair<BlockNo, std::int32_t>> pending_remaps_;

  bool started_ = false;
  bool step_active_ = false;
  Micros step_target_ = 0;
  double stall_wall_ = 0;
  double merge_wall_ = 0;
  Micros advanced_to_ = 0;
  std::int64_t barriers_ = 0;
  Micros last_submit_ = 0;
  std::int32_t spare_cursor_ = 0;
  std::int64_t resync_copied_ = 0;
  std::int64_t resyncs_completed_ = 0;
  std::int64_t passes_skipped_degraded_ = 0;
  std::int64_t lost_requests_ = 0;
  std::string first_error_;
};

}  // namespace abr::array

#endif  // ABR_ARRAY_ARRAY_DEVICE_H_
