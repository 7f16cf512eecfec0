#include "uarch/timing.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "harness/json.hpp"
#include "hwcost/lut_model.hpp"
#include "isa/opcode.hpp"
#include "sim/trace.hpp"

namespace t1000 {

std::string_view stall_cause_name(StallCause cause) {
  switch (cause) {
    case StallCause::kFetchBranch: return "fetch_branch";
    case StallCause::kFetchMem: return "fetch_mem";
    case StallCause::kFrontend: return "frontend";
    case StallCause::kRuuFull: return "ruu_full";
    case StallCause::kMshrFull: return "mshr_full";
    case StallCause::kOperandWait: return "operand_wait";
    case StallCause::kExtReconfig: return "ext_reconfig";
    case StallCause::kExecMem: return "exec_mem";
    case StallCause::kExec: return "exec";
    case StallCause::kDrain: return "drain";
  }
  return "unknown";
}

void StallBreakdown::accumulate(const StallBreakdown& other) {
  cycles += other.cycles;
  commit_cycles += other.commit_cycles;
  for (int i = 0; i < kNumStallCauses; ++i) causes[i] += other.causes[i];
}

namespace {

constexpr std::uint64_t kNoDep = ~0ull;
constexpr std::uint64_t kNever = ~0ull;  // no event bounds the next cycle

// Smallest power of two >= v (v >= 1): ring-buffer capacities, so indexing
// is a mask instead of an integer division on the hot path.
std::size_t pow2_ceil(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

struct RuuEntry {
  DecodedStep step;
  std::uint64_t seq = 0;
  std::uint64_t deps[kMaxExtInputs] = {kNoDep, kNoDep, kNoDep, kNoDep};
  int num_deps = 0;
  bool issued = false;
  bool completed = false;
  bool long_miss = false;  // occupies an MSHR while in flight
  std::uint64_t dispatch_cycle = 0;
  std::uint64_t complete_cycle = 0;
  std::uint64_t pfu_ready = 0;  // EXT: earliest issue (reconfiguration)
  // Earliest cycle a failed issue attempt could possibly succeed (producer
  // completion latency, PFU reconfiguration, pipeline fill). 0 = unknown,
  // re-examine every cycle. A scan-skipping memo: an entry with wake > now
  // would have failed try_issue without consuming any FU, so skipping it
  // leaves the issue order and FU allocation untouched. Also a
  // cycle-skipping bound: after a quiet cycle, no pending entry can issue
  // before the smallest wake (run() jumps there). A failure for lack of an
  // FU, port or MSHR leaves wake <= now, which forbids the jump.
  std::uint64_t wake = 0;
};

struct FetchSlot {
  DecodedStep step;
  std::uint64_t ready_cycle = 0;
  bool mispredicted = false;
};

// --- pipeline observers ---
//
// The pipeline is templated over an observer; every observation point is
// guarded by `if constexpr (Obs::kEnabled)`, so with the null observer the
// whole layer is compiled out and the unobserved pipeline is exactly the
// pre-observability machine (BM_TimingSim pins the cost; the differential
// tests pin byte-identical SimStats).

struct NullObserver {
  static constexpr bool kEnabled = false;
  explicit NullObserver(SimObservation*) {}
};

// Trace-group ids (the Chrome format's "pid"): one row group for the RUU
// slots, one for the PFU bank.
constexpr int kPipePid = 1;
constexpr int kPfuPid = 2;

class RecordingObserver final : public PfuListener {
 public:
  static constexpr bool kEnabled = true;

  explicit RecordingObserver(SimObservation* out) : out_(out) {}

  void attach(PfuBank* bank, int ruu_size) {
    bank->set_listener(this);
    slots_ = static_cast<std::size_t>(ruu_size);
    issue_cycle_.assign(slots_, 0);
  }

  // End-of-cycle accounting.
  void on_cycle(int commits) {
    ++out_->stalls.cycles;
    if (commits > 0) ++out_->stalls.commit_cycles;
  }
  void charge(StallCause cause) {
    ++out_->stalls.causes[static_cast<int>(cause)];
  }
  // `n` quiet (non-committing) cycles, all charged to `cause`.
  void charge_quiet(StallCause cause, std::uint64_t n) {
    out_->stalls.cycles += n;
    out_->stalls.causes[static_cast<int>(cause)] += n;
  }

  // The two writers of fetch_stall_until_, distinguished so an empty-window
  // fetch stall can be charged to the right cause.
  void on_fetch_redirect() { fetch_stall_is_branch_ = true; }
  void on_fetch_miss() { fetch_stall_is_branch_ = false; }
  bool fetch_stall_is_branch() const { return fetch_stall_is_branch_; }

  void on_issue(std::uint64_t seq, std::uint64_t now) {
    issue_cycle_[seq % slots_] = now;
  }

  // Lifecycle slices are emitted at commit: the slot row is exclusively
  // occupied from dispatch to commit, and commit precedes dispatch within
  // a cycle, so per-row events are appended in monotone, balanced order.
  void on_commit(const RuuEntry& e, std::uint64_t now) {
    if (!out_->want_trace) return;
    const std::size_t slot = e.seq % slots_;
    const int tid = static_cast<int>(slot);
    if (slot >= used_slots_) used_slots_ = slot + 1;
    Json args = Json::object();
    args["seq"] = Json(static_cast<long long>(e.seq));
    args["pc"] = Json(e.step.info.index);
    out_->trace.begin(std::string(mnemonic(e.step.info.ins.op)),
                      e.dispatch_cycle, kPipePid, tid, std::move(args));
    out_->trace.begin("exec", issue_cycle_[slot], kPipePid, tid);
    out_->trace.end(e.complete_cycle, kPipePid, tid);
    out_->trace.end(now, kPipePid, tid);
  }

  // PfuListener: decode-stage bank traffic.
  void on_pfu_hit(int unit, ConfId, std::uint64_t, std::uint64_t) override {
    ++unit_counters(unit).hits;
  }
  void on_pfu_reconfig(int unit, ConfId conf, ConfId evicted,
                       std::uint64_t start, std::uint64_t ready) override {
    out_->pfu_spans.push_back({unit, conf, evicted, start, ready});
    PfuUnitCounters& c = unit_counters(unit);
    ++c.reconfigurations;
    if (evicted != kInvalidConf) ++c.evictions;
    c.busy_cycles += ready - start;
    if (out_->want_trace) {
      Json args = Json::object();
      args["conf"] = Json(static_cast<int>(conf));
      if (evicted != kInvalidConf) {
        args["evicted"] = Json(static_cast<int>(evicted));
      }
      out_->trace.begin("reconfigure", start, kPfuPid, unit, std::move(args));
      out_->trace.end(ready, kPfuPid, unit);
    }
  }

  void finish() {
    if (!out_->want_trace) return;
    out_->trace.name_process(kPipePid, "pipeline");
    for (std::size_t i = 0; i < used_slots_; ++i) {
      out_->trace.name_thread(kPipePid, static_cast<int>(i),
                              "ruu[" + std::to_string(i) + "]");
    }
    if (!out_->pfu_units.empty()) {
      out_->trace.name_process(kPfuPid, "pfu bank");
      for (std::size_t i = 0; i < out_->pfu_units.size(); ++i) {
        out_->trace.name_thread(kPfuPid, static_cast<int>(i),
                                "pfu[" + std::to_string(i) + "]");
      }
    }
  }

 private:
  PfuUnitCounters& unit_counters(int unit) {
    if (static_cast<std::size_t>(unit) >= out_->pfu_units.size()) {
      out_->pfu_units.resize(static_cast<std::size_t>(unit) + 1);
    }
    return out_->pfu_units[static_cast<std::size_t>(unit)];
  }

  SimObservation* out_;
  std::size_t slots_ = 0;
  std::size_t used_slots_ = 0;
  std::vector<std::uint64_t> issue_cycle_;  // per slot, of the occupant
  bool fetch_stall_is_branch_ = false;
};

// One timing run: the out-of-order machine of the file comment in
// uarch/timing.hpp, fed the committed path by a TraceCursor.
template <class Obs>
class Pipeline {
 public:
  Pipeline(TraceCursor source, const Program& program,
           const ExtInstTable* ext_table, const MachineConfig& config,
           std::uint64_t max_cycles, SimObservation* observation)
      : config_(config),
        source_(std::move(source)),
        program_(program),
        max_cycles_(max_cycles),
        l2_(config.l2),
        imem_(config.il1, &l2_, config.memory_latency, config.itlb),
        dmem_(config.dl1, &l2_, config.memory_latency, config.dtlb),
        pfus_(config.pfu),
        bpred_(config.branch),
        // The RUU and fetch queue are rings indexed by monotonically
        // increasing counters; rounding the storage up to a power of two
        // turns every slot lookup into a mask. Logical capacity is still
        // config.ruu_size / config.fetch_queue_size (ruu_full, fetch),
        // and live entries never collide because the window is bounded by
        // the logical capacity.
        ruu_(pow2_ceil(static_cast<std::size_t>(config.ruu_size))),
        ruu_mask_(ruu_.size() - 1),
        fetch_ring_(
            pow2_ceil(static_cast<std::size_t>(config.fetch_queue_size))),
        fetch_mask_(fetch_ring_.size() - 1),
        store_ring_(ruu_.size()),
        store_mask_(store_ring_.size() - 1),
        obs_(observation) {
    for (int r = 0; r < kNumRegs; ++r) last_writer_[r] = kNoDep;
    pending_.reserve(static_cast<std::size_t>(config.ruu_size));
    if constexpr (Obs::kEnabled) obs_.attach(&pfus_, config_.ruu_size);
    if (config_.pfu.multi_cycle_ext && ext_table != nullptr) {
      // Derive per-configuration latency from mapped logic depth, assuming
      // worst-case (policy-width) operands.
      ext_latency_.reserve(static_cast<std::size_t>(ext_table->size()));
      for (const ExtInstDef& def : ext_table->defs()) {
        const int levels = estimate_luts(def, {18, 18}).levels;
        ext_latency_.push_back(
            std::max(1, (levels + config_.pfu.levels_per_cycle - 1) /
                            config_.pfu.levels_per_cycle));
      }
    }
  }

  // Runs the machine until the trace is exhausted and the pipeline has
  // drained; call once. Throws SimError past the cycle bound.
  //
  // A cycle in which no stage changed state is quiet: the next cycle sees
  // the same machine, so every cycle up to the first one at which some
  // stage can act (next_active_cycle) is quiet too, and the run jumps
  // straight there. Observed runs charge the skipped cycles in bulk
  // (charge_quiet_stretch), so they jump too.
  SimStats run() {
    while (!source_.halted() || fq_head_ != fq_tail_ || head_ != tail_) {
      if (now_ > max_cycles_) throw SimError("timing: cycle bound exceeded");
      const int commits = commit();
      std::uint64_t min_wake = kNever;
      const bool issued = issue(min_wake);
      const bool resolved = resolve_mispredict();
      const bool dispatched = dispatch();
      const bool fetched = fetch();
      if constexpr (Obs::kEnabled) {
        // Attribution runs at end of cycle: every non-committing cycle is
        // charged to exactly one cause (the invariant commit_cycles +
        // sum(causes) == cycles is pinned by tests).
        obs_.on_cycle(commits);
        if (commits == 0) obs_.charge(classify_stall(now_));
      }
      if (commits == 0 && !issued && !resolved && !dispatched && !fetched) {
        const std::uint64_t next =
            std::max(now_ + 1, next_active_cycle(min_wake));
        if constexpr (Obs::kEnabled) charge_quiet_stretch(now_ + 1, next);
        now_ = next;
        continue;
      }
      ++now_;
    }
    stats_.cycles = now_;
    collect();
    if constexpr (Obs::kEnabled) obs_.finish();
    return stats_;
  }

 private:
  RuuEntry& entry(std::uint64_t seq) {
    return ruu_[static_cast<std::size_t>(seq) & ruu_mask_];
  }

  bool ruu_full() const {
    return tail_ - head_ >= static_cast<std::uint64_t>(config_.ruu_size);
  }

  // --- commit ---
  int commit() {
    int n = 0;
    while (n < config_.commit_width && head_ != tail_) {
      RuuEntry& e = entry(head_);
      if (!e.completed || e.complete_cycle > now_) break;
      if constexpr (Obs::kEnabled) obs_.on_commit(e, now_);
      ++stats_.committed;
      ++head_;
      ++n;
    }
    // Drop committed stores from the ordering ring; everything scanning it
    // afterwards only cares about stores still in the window (>= head_).
    while (st_head_ != st_tail_ &&
           store_ring_[static_cast<std::size_t>(st_head_) & store_mask_] <
               head_) {
      ++st_head_;
    }
    return n;
  }

  // --- issue ---
  // When the answer is "not ready" and `earliest` is given, *earliest is a
  // lower bound on the first cycle the dependencies could be satisfied.
  // For an in-flight producer that is its fixed completion cycle. For a
  // producer that has not even issued: the issue scan is oldest-first, so
  // by the time the consumer is examined the producer has already failed
  // (or been skipped) this cycle — it issues at now+1 at the earliest and
  // completes at now+2 at the earliest; the producer's own wake bound
  // tightens that transitively (it cannot issue before p.wake, so it
  // cannot complete before p.wake + 1). `earliest` is only meaningful
  // from that scan context; other callers must pass nullptr.
  bool deps_ready(const RuuEntry& e, std::uint64_t now,
                  std::uint64_t* earliest = nullptr) const {
    bool ready = true;
    std::uint64_t bound = 0;
    for (int i = 0; i < e.num_deps; ++i) {
      const std::uint64_t dep = e.deps[i];
      if (dep < head_) continue;  // producer already committed
      const RuuEntry& p = ruu_[static_cast<std::size_t>(dep) & ruu_mask_];
      if (!p.completed) {
        if (earliest == nullptr) return false;
        ready = false;
        bound = std::max({bound, now + 2, p.wake + 1});
      } else if (p.complete_cycle > now) {
        if (earliest == nullptr) return false;
        ready = false;
        bound = std::max(bound, p.complete_cycle);
      }
    }
    if (!ready && earliest != nullptr) *earliest = bound;
    return ready;
  }

  // True when every older store that overlaps `e` has completed; loads may
  // bypass non-overlapping stores (oracle disambiguation). Only the
  // in-window stores are consulted — the store ring holds the ascending
  // dispatched, uncommitted store seqs, so the scan is proportional to the
  // stores actually in flight instead of the whole window. `earliest`
  // follows the deps_ready contract: a lower bound on the first cycle the
  // blocking store could be out of the way, valid only from the issue scan.
  bool older_stores_done(const RuuEntry& e, std::uint64_t now,
                         std::uint64_t* earliest = nullptr) {
    for (std::uint64_t i = st_head_; i != st_tail_; ++i) {
      const std::uint64_t s =
          store_ring_[static_cast<std::size_t>(i) & store_mask_];
      if (s >= e.seq) break;
      const RuuEntry& p = entry(s);
      const std::uint32_t lo =
          std::max(p.step.info.mem_addr, e.step.info.mem_addr);
      const std::uint32_t hi =
          std::min(p.step.info.mem_addr + p.step.info.mem_size,
                   e.step.info.mem_addr + e.step.info.mem_size);
      if (lo >= hi) continue;  // disjoint
      if (!p.completed || p.complete_cycle > now) {
        if (earliest != nullptr) {
          *earliest = p.completed ? p.complete_cycle
                                  : std::max(now + 2, p.wake + 1);
        }
        return false;
      }
    }
    return true;
  }

  // Long-latency memory operations currently in flight (for the MSHR cap).
  int misses_in_flight(std::uint64_t now) {
    int n = 0;
    for (std::uint64_t s = head_; s != tail_; ++s) {
      const RuuEntry& e = entry(s);
      if (e.issued && e.long_miss && e.complete_cycle > now) ++n;
    }
    return n;
  }

  // Attempts to issue `e` this cycle; the historical oldest-first scan
  // body, verbatim. Returns true when issued (FU counters consumed).
  bool try_issue(RuuEntry& e, int& alus, int& mults, int& ports,
                 int& mshrs_free) {
    if (e.dispatch_cycle >= now_) {
      e.wake = e.dispatch_cycle + 1;
      return false;
    }
    if (!deps_ready(e, now_, &e.wake)) return false;

    int latency = 1;
    switch (e.step.fu) {
      case FuClass::kIntAlu:
      case FuClass::kBranch:
        if (alus == config_.int_alus) return false;
        ++alus;
        break;
      case FuClass::kIntMul:
        if (mults == config_.int_mults) return false;
        ++mults;
        latency = base_latency(Opcode::kMul);
        break;
      case FuClass::kMemRead: {
        if (ports == config_.mem_ports) return false;
        if (mshrs_free <= 0) return false;  // conservative: no free slot
        if (!older_stores_done(e, now_, &e.wake)) return false;
        ++ports;
        latency = dmem_.access(e.step.info.mem_addr, /*is_write=*/false);
        if (latency > config_.dl1.hit_latency) {
          e.long_miss = true;
          --mshrs_free;
        }
        break;
      }
      case FuClass::kMemWrite:
        if (ports == config_.mem_ports) return false;
        if (mshrs_free <= 0) return false;
        ++ports;
        latency = dmem_.access(e.step.info.mem_addr, /*is_write=*/true);
        if (latency > config_.dl1.hit_latency) {
          e.long_miss = true;
          --mshrs_free;
        }
        break;
      case FuClass::kPfu:
        if (e.pfu_ready > now_) {
          e.wake = e.pfu_ready;
          return false;
        }
        if (!ext_latency_.empty()) {
          latency = ext_latency_[e.step.info.ins.conf];
        }
        break;
      case FuClass::kNone:
        break;
    }
    e.issued = true;
    e.completed = true;
    e.complete_cycle = now_ + static_cast<std::uint64_t>(latency);
    if constexpr (Obs::kEnabled) obs_.on_issue(e.seq, now_);
    return true;
  }

  // Returns true when anything issued. min_wake is lowered to the smallest
  // wake among the entries left pending; it bounds the next issue only
  // when nothing issued (the whole list was then scanned).
  bool issue(std::uint64_t& min_wake) {
    if (pending_.empty()) return false;
    int issued = 0;
    int alus = 0;
    int mults = 0;
    int ports = 0;
    int mshrs_free = config_.max_outstanding_misses == 0
                         ? 1 << 30
                         : config_.max_outstanding_misses -
                               misses_in_flight(now_);
    // One oldest-first pass over the not-yet-issued entries. pending_ is
    // kept ascending by stable compaction, so the visit order — and
    // therefore FU allocation — is identical to the historical full-window
    // scan that skipped issued entries. Entries dormant until a known
    // future cycle (wake) are skipped without re-deriving the failure;
    // they would have issued nothing and consumed no FU either way.
    std::size_t keep = 0;
    std::size_t i = 0;
    for (; i < pending_.size() && issued < config_.issue_width; ++i) {
      const std::uint64_t s = pending_[i];
      RuuEntry& e = entry(s);
      if (e.wake <= now_ && try_issue(e, alus, mults, ports, mshrs_free)) {
        ++issued;
      } else {
        min_wake = std::min(min_wake, e.wake);
        pending_[keep++] = s;
      }
    }
    for (; i < pending_.size(); ++i) pending_[keep++] = pending_[i];
    pending_.resize(keep);
    return issued > 0;
  }

  // --- dispatch (decode/rename) ---
  // Returns true when anything dispatched.
  bool dispatch() {
    int n = 0;
    for (; n < config_.decode_width; ++n) {
      if (fq_head_ == fq_tail_ || ruu_full()) break;
      const FetchSlot& slot =
          fetch_ring_[static_cast<std::size_t>(fq_head_) & fetch_mask_];
      if (slot.ready_cycle > now_) break;

      RuuEntry& e = entry(tail_);
      e = RuuEntry{};
      e.step = slot.step;
      e.seq = tail_;
      e.dispatch_cycle = now_;

      for (int i = 0; i < e.step.srcs.count; ++i) {
        const std::uint64_t w = last_writer_[e.step.srcs.reg[i]];
        if (w != kNoDep && w >= head_) e.deps[e.num_deps++] = w;
      }
      if (e.step.dst >= 0) {
        last_writer_[e.step.dst] = tail_;
      }
      if (e.step.dst2 >= 0) {
        last_writer_[e.step.dst2] = tail_;
      }
      if (e.step.is_ext) {
        e.pfu_ready = pfus_.request(e.step.info.ins.conf, now_);
      }
      if (e.step.is_store) {
        store_ring_[static_cast<std::size_t>(st_tail_++) & store_mask_] =
            tail_;
      }
      if (slot.mispredicted) pending_branch_seq_ = tail_;
      pending_.push_back(tail_);
      ++tail_;
      ++fq_head_;
    }
    return n > 0;
  }

  // When a mispredicted branch resolves, schedule the front-end redirect.
  // Returns true when it did.
  bool resolve_mispredict() {
    if (!blocked_on_branch_ || pending_branch_seq_ == kNoDep) return false;
    // Fetch is frozen, so the RUU tail cannot advance and the entry is
    // never recycled before this check sees it complete.
    const RuuEntry& e = entry(pending_branch_seq_);
    if (!e.completed || e.complete_cycle > now_) return false;
    fetch_stall_until_ =
        std::max(fetch_stall_until_,
                 e.complete_cycle +
                     static_cast<std::uint64_t>(config_.branch.mispredict_penalty));
    blocked_on_branch_ = false;
    pending_branch_seq_ = kNoDep;
    if constexpr (Obs::kEnabled) obs_.on_fetch_redirect();
    return true;
  }

  bool fetch_queue_full() const {
    return static_cast<int>(fq_tail_ - fq_head_) >= config_.fetch_queue_size;
  }

  // --- fetch ---
  // Returns true when anything was taken from the source, the off-the-end
  // halt sentinel included (it is consumed without being enqueued).
  bool fetch() {
    if (blocked_on_branch_) return false;  // awaiting a branch redirect
    if (now_ < fetch_stall_until_) return false;
    for (int n = 0; n < config_.fetch_width; ++n) {
      if (source_.halted() || fetch_queue_full()) return n > 0;
      const std::uint32_t pc = source_.next_pc();
      const std::uint32_t line = pc / config_.il1.line_bytes;
      std::uint64_t ready = now_ + 1;
      if (line != current_fetch_line_) {
        const int lat = imem_.access(pc);
        current_fetch_line_ = line;
        current_line_ready_ = now_ + static_cast<std::uint64_t>(lat);
        if (lat > config_.il1.hit_latency) {
          // Miss: the front end stalls until the line arrives.
          fetch_stall_until_ = current_line_ready_;
          if constexpr (Obs::kEnabled) obs_.on_fetch_miss();
        }
      }
      ready = std::max(ready, current_line_ready_);

      const DecodedStep step = source_.step();
      if (step.info.index >= program_.size()) return true;  // off-the-end halt
      bool correct = true;
      if (step.is_ctrl) {
        correct = bpred_.predict_and_update(step.info.ins, step.info.index,
                                            step.info.branch_taken,
                                            step.info.next_index);
      }
      FetchSlot& slot =
          fetch_ring_[static_cast<std::size_t>(fq_tail_++) & fetch_mask_];
      slot.step = step;
      slot.ready_cycle = ready;
      slot.mispredicted = !correct;
      if (!correct) {
        // Fetch halts here until the branch resolves in the back end.
        blocked_on_branch_ = true;
        return true;
      }
      // No fetching past a taken branch or into an I-cache miss stall.
      if (step.info.branch_taken || fetch_stall_until_ > now_) return true;
    }
    return true;
  }

  // After a quiet cycle (no stage changed state), the first later cycle at
  // which some stage can act; every cycle before it is quiet too, because
  // the machine it sees is unchanged. The events that bound it, one per
  // way a stage can next act:
  //   issue    — the smallest wake among pending entries (min_wake);
  //   commit   — the completion of an issued head (an unissued head must
  //              issue first, which min_wake bounds);
  //   redirect — the completion of an issued mispredicted branch;
  //   dispatch — the fetch-queue head's ready cycle, when the RUU has room
  //              (a full RUU must commit first);
  //   fetch    — fetch_stall_until_, when fetch is neither blocked on a
  //              branch, nor out of trace, nor facing a full queue.
  // Clamped to max_cycles_ + 1, so the cycle bound fires where stepping
  // would fire it (also when nothing bounds the jump: a deadlock).
  std::uint64_t next_active_cycle(std::uint64_t min_wake) {
    std::uint64_t next = min_wake;
    if (head_ != tail_) {
      const RuuEntry& h = entry(head_);
      if (h.completed) next = std::min(next, h.complete_cycle);
    }
    if (blocked_on_branch_ && pending_branch_seq_ != kNoDep) {
      const RuuEntry& b = entry(pending_branch_seq_);
      if (b.completed) next = std::min(next, b.complete_cycle);
    }
    if (fq_head_ != fq_tail_ && !ruu_full()) {
      next = std::min(
          next,
          fetch_ring_[static_cast<std::size_t>(fq_head_) & fetch_mask_]
              .ready_cycle);
    }
    if (!blocked_on_branch_ && !source_.halted() && !fetch_queue_full()) {
      next = std::min(next, fetch_stall_until_);
    }
    return max_cycles_ == kNever ? next : std::min(next, max_cycles_ + 1);
  }

  // --- stall-cause classification (observed runs only) ---
  //
  // Called at end of a cycle that committed nothing (or for a cycle of a
  // quiet stretch, see charge_quiet_stretch); charges the cycle to
  // exactly one cause. Commit is in-order, so when the window is non-empty
  // the head entry is what blocks the machine; head-specific causes are
  // tested before the window-shape ones so e.g. a reconfiguration wait is
  // never masked as "window full". With an empty window the front end is
  // responsible.
  StallCause classify_stall(std::uint64_t now) {
    if (head_ != tail_) {
      RuuEntry& e = entry(head_);
      if (!e.issued) {
        // Entries dispatched at `now` can issue at `now + 1` earliest: a
        // pure pipeline fill bubble.
        if (e.dispatch_cycle >= now) return StallCause::kFrontend;
        if (!deps_ready(e, now)) return StallCause::kOperandWait;
        if (e.step.fu == FuClass::kPfu && e.pfu_ready > now) {
          return StallCause::kExtReconfig;
        }
        if (e.step.fu == FuClass::kMemRead && !older_stores_done(e, now)) {
          return StallCause::kOperandWait;
        }
        if ((e.step.fu == FuClass::kMemRead ||
             e.step.fu == FuClass::kMemWrite) &&
            config_.max_outstanding_misses != 0 &&
            misses_in_flight(now) >= config_.max_outstanding_misses) {
          return StallCause::kMshrFull;
        }
        // The head is oldest and therefore first in line for every FU, so
        // a ready-but-unissued head can only be a same-cycle artifact.
        return StallCause::kFrontend;
      }
      // Issued but not committed: complete_cycle > now (a head completed
      // by `now` would have committed this cycle).
      if (ruu_full()) return StallCause::kRuuFull;
      if (e.long_miss) return StallCause::kExecMem;
      return StallCause::kExec;
    }
    // Window empty: the front end owns the cycle.
    if (source_.halted()) return StallCause::kDrain;
    if (fq_head_ != fq_tail_) {
      // Slots waiting on their I-cache line; a slot ready next cycle is
      // just the fetch->dispatch pipeline latency.
      return fetch_ring_[static_cast<std::size_t>(fq_head_) & fetch_mask_]
                     .ready_cycle <= now + 1
                 ? StallCause::kFrontend
                 : StallCause::kFetchMem;
    }
    if (blocked_on_branch_) return StallCause::kFetchBranch;
    if (now < fetch_stall_until_) {
      return obs_.fetch_stall_is_branch() ? StallCause::kFetchBranch
                                          : StallCause::kFetchMem;
    }
    return StallCause::kFrontend;
  }

  // Charges the skipped quiet cycles [from, to) of a jump. The machine is
  // unchanged over them, so classify_stall() gives every one the cause it
  // gives `from`, but for one test. The jump target is bounded by each
  // event that can flip the others: the head's completion or PFU
  // readiness, and the end of a fetch stall. An unissued head's operands
  // and older stores are all committed, and a head blocked on an FU, port
  // or MSHR forbids the jump. The exception is an empty window whose
  // fetch-queue head waits on its line: it turns from fetch_mem to
  // frontend at ready_cycle - 1 ("ready next cycle"), one cycle before
  // the ready_cycle that bounds the jump.
  void charge_quiet_stretch(std::uint64_t from, std::uint64_t to) {
    std::uint64_t flip = to;
    if (head_ == tail_ && fq_head_ != fq_tail_) {
      const std::uint64_t ready =
          fetch_ring_[static_cast<std::size_t>(fq_head_) & fetch_mask_]
              .ready_cycle;
      flip = std::clamp(ready - 1, from, to);
    }
    if (from < flip) obs_.charge_quiet(classify_stall(from), flip - from);
    if (flip < to) obs_.charge_quiet(classify_stall(flip), to - flip);
  }

  void collect() {
    stats_.il1 = imem_.l1().stats();
    stats_.dl1 = dmem_.l1().stats();
    stats_.l2 = l2_.stats();
    stats_.itlb = imem_.tlb().stats();
    stats_.dtlb = dmem_.tlb().stats();
    stats_.pfu = pfus_.stats();
    stats_.branch = bpred_.stats();
  }

  MachineConfig config_;
  TraceCursor source_;
  const Program& program_;
  std::uint64_t max_cycles_;
  Cache l2_;
  MemHierarchy imem_;
  MemHierarchy dmem_;
  PfuBank pfus_;
  BranchPredictor bpred_;

  std::vector<RuuEntry> ruu_;
  std::size_t ruu_mask_;
  // Fetch queue as a power-of-two ring indexed by monotone counters;
  // logical occupancy (fq_tail_ - fq_head_) is capped at
  // config.fetch_queue_size by fetch(), so slots never collide.
  std::vector<FetchSlot> fetch_ring_;
  std::size_t fetch_mask_;
  std::uint64_t fq_head_ = 0;
  std::uint64_t fq_tail_ = 0;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  // Dispatched-but-unissued seqs, ascending (the issue scan's worklist).
  std::vector<std::uint64_t> pending_;
  // Dispatched, uncommitted store seqs, ascending (memory ordering scans),
  // as a power-of-two ring: at most one store per window slot is live.
  std::vector<std::uint64_t> store_ring_;
  std::size_t store_mask_;
  std::uint64_t st_head_ = 0;
  std::uint64_t st_tail_ = 0;
  std::uint64_t last_writer_[kNumRegs] = {};
  std::uint32_t current_fetch_line_ = ~0u;
  std::uint64_t current_line_ready_ = 0;
  std::uint64_t fetch_stall_until_ = 0;
  bool blocked_on_branch_ = false;
  std::uint64_t pending_branch_seq_ = kNoDep;
  std::vector<int> ext_latency_;  // per Conf id; empty = single-cycle
  std::uint64_t now_ = 0;

  Obs obs_;
  SimStats stats_;
};

// The one timing path: replays `trace` through the pipeline instantiated
// for the run's observer. `machine` must already be validated.
SimStats replay(const Program& program, const ExtInstTable* ext_table,
                const CommittedTrace& trace, const MachineConfig& machine,
                std::uint64_t max_cycles, SimObservation* observation) {
  TraceCursor cursor(trace, program);
  if (observation != nullptr) {
    return Pipeline<RecordingObserver>(std::move(cursor), program, ext_table,
                                       machine, max_cycles, observation)
        .run();
  }
  return Pipeline<NullObserver>(std::move(cursor), program, ext_table,
                                machine, max_cycles, nullptr)
      .run();
}

// Steps a recording for `simulate` must admit. Commit retires at most
// commit_width instructions per cycle, so a run that commits more than
// max_cycles * commit_width steps has already tripped the cycle bound; the
// +1 admits the off-the-end halt sentinel, which is fetched but never
// committed. A longer recording could therefore never time successfully,
// and recording fails exactly where the pipeline would. Saturating.
std::uint64_t record_bound(const MachineConfig& machine,
                           std::uint64_t max_cycles) {
  const auto width = static_cast<std::uint64_t>(machine.commit_width);
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  return max_cycles > (max - 1) / width ? max : max_cycles * width + 1;
}

}  // namespace

void validate(const MachineConfig& machine) {
  using M = MachineConfig;
  const auto check = [](const std::string& field, std::int64_t value,
                        std::int64_t min, std::int64_t max) {
    if (value < min || value > max) {
      throw SimError("machine config: " + field + " = " +
                     std::to_string(value) + " is outside [" +
                     std::to_string(min) + ", " + std::to_string(max) + "]");
    }
  };
  check("fetch_width", machine.fetch_width, 1, M::kMaxWidth);
  check("decode_width", machine.decode_width, 1, M::kMaxWidth);
  check("issue_width", machine.issue_width, 1, M::kMaxWidth);
  check("commit_width", machine.commit_width, 1, M::kMaxWidth);
  check("ruu_size", machine.ruu_size, 1, M::kMaxQueue);
  check("fetch_queue_size", machine.fetch_queue_size, 1, M::kMaxQueue);
  check("int_alus", machine.int_alus, 1, M::kMaxWidth);
  check("int_mults", machine.int_mults, 1, M::kMaxWidth);
  check("mem_ports", machine.mem_ports, 1, M::kMaxWidth);
  check("max_outstanding_misses", machine.max_outstanding_misses, 0,
        M::kMaxQueue);
  const auto check_cache = [&](const std::string& name,
                               const CacheConfig& c) {
    check(name + ".line_bytes", c.line_bytes, 1,
          std::numeric_limits<std::uint32_t>::max());
    check(name + ".assoc", c.assoc, 1, M::kMaxAssoc);
    // At least one set, and at most kMaxTable lines.
    check(name + ".size_bytes", c.size_bytes,
          std::int64_t{c.line_bytes} * c.assoc,
          std::int64_t{c.line_bytes} * M::kMaxTable);
    check(name + ".hit_latency", c.hit_latency, 0, M::kMaxLatency);
  };
  check_cache("il1", machine.il1);
  check_cache("dl1", machine.dl1);
  check_cache("l2", machine.l2);
  check("memory_latency", machine.memory_latency, 0, M::kMaxLatency);
  const auto check_tlb = [&](const std::string& name, const TlbConfig& t) {
    check(name + ".entries", t.entries, 1, M::kMaxAssoc);
    check(name + ".page_bytes", t.page_bytes, 1,
          std::numeric_limits<std::uint32_t>::max());
    check(name + ".miss_latency", t.miss_latency, 0, M::kMaxLatency);
  };
  check_tlb("itlb", machine.itlb);
  check_tlb("dtlb", machine.dtlb);
  if (machine.pfu.count != PfuConfig::kUnlimited) {
    check("pfu.count", machine.pfu.count, 0, M::kMaxAssoc);
  }
  check("pfu.reconfig_latency", machine.pfu.reconfig_latency, 0,
        M::kMaxLatency);
  check("pfu.levels_per_cycle", machine.pfu.levels_per_cycle, 1,
        M::kMaxLatency);
  check("branch.bimodal_entries", machine.branch.bimodal_entries, 1,
        M::kMaxTable);
  check("branch.target_entries", machine.branch.target_entries, 1,
        M::kMaxTable);
  check("branch.mispredict_penalty", machine.branch.mispredict_penalty, 0,
        M::kMaxLatency);
}

SimStats simulate(const SimRequest& request) {
  if (request.program == nullptr) {
    throw SimError("simulate: request.program is required");
  }
  validate(request.machine);
  const Program& program = *request.program;
  if (request.trace != nullptr) {
    return replay(program, request.ext_table, *request.trace,
                  request.machine, request.max_cycles, request.observation);
  }
  const CommittedTrace trace =
      record_trace(program, request.ext_table,
                   record_bound(request.machine, request.max_cycles));
  return replay(program, request.ext_table, trace, request.machine,
                request.max_cycles, request.observation);
}

std::vector<BatchLaneResult> simulate_replay_batch(
    const BatchSimRequest& request) {
  if (request.program == nullptr || request.trace == nullptr) {
    throw SimError("simulate_replay_batch: program and trace are required");
  }
  std::vector<BatchLaneResult> results(request.lanes.size());
  for (std::size_t i = 0; i < request.lanes.size(); ++i) {
    const BatchSimRequest::Lane& lane = request.lanes[i];
    try {
      validate(lane.machine);
      results[i].stats =
          replay(*request.program, request.ext_table, *request.trace,
                 lane.machine, lane.max_cycles, lane.observation);
    } catch (...) {
      // Per-lane fault isolation: this lane fails (bad machine, cycle
      // bound, ...); the others still run.
      results[i].error = std::current_exception();
    }
  }
  return results;
}

}  // namespace t1000
