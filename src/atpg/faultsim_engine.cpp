#include "atpg/faultsim_engine.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <cassert>
#include <limits>
#include <thread>

#include "core/excitation.hpp"
#include "logic/laneblock.hpp"
#include "obs/trace.hpp"

namespace obd::atpg {

namespace {

/// Stuck-at patterns as two-vector tests with v1 == v2 (the block kernels
/// read only the second frame).
std::vector<TwoVectorTest> stuck_tests(const std::vector<InputVec>& patterns) {
  std::vector<TwoVectorTest> tests;
  tests.reserve(patterns.size());
  for (const InputVec& p : patterns) tests.push_back({p, p});
  return tests;
}

}  // namespace

std::size_t DetectionMatrix::row_count(std::size_t test) const {
  std::size_t n = 0;
  const std::uint64_t* r = row(test);
  for (std::size_t w = 0; w < words_per_row; ++w)
    n += static_cast<std::size_t>(std::popcount(r[w]));
  return n;
}

void PatternBlock::clear() {
  size_ = 0;
  tests_.clear();
  std::fill(pi1_.begin(), pi1_.end(), 0);
  std::fill(pi2_.begin(), pi2_.end(), 0);
}

void PatternBlock::push(const TwoVectorTest& t) {
  assert(size_ < capacity());
  const auto W = static_cast<std::size_t>(lane_words_);
  const auto word = static_cast<std::size_t>(size_) >> 6;
  const std::uint64_t lane = 1ull << (size_ & 63);
  const std::size_t n_pi = pi1_.size() / W;
  logic::for_each_set_bit(
      t.v1, n_pi, [&](std::size_t pi) { pi1_[pi * W + word] |= lane; });
  logic::for_each_set_bit(
      t.v2, n_pi, [&](std::size_t pi) { pi2_[pi * W + word] |= lane; });
  tests_.push_back(t);
  ++size_;
}

std::vector<PatternBlock> PatternBlock::pack(
    const Circuit& c, const std::vector<TwoVectorTest>& tests,
    int lane_words) {
  std::vector<PatternBlock> blocks;
  for (const auto& t : tests) {
    if (blocks.empty() || blocks.back().full())
      blocks.emplace_back(c, lane_words);
    blocks.back().push(t);
  }
  return blocks;
}

FaultSimEngine::FaultSimEngine(const Circuit& c, EngineOptions opt)
    : c_(c),
      opt_(opt),
      gate_level_(c.gate_levels()),
      po_mask_(c.num_nets(), 0),
      changed_(c.num_nets(), 0),
      queued_(c.num_gates(), 0) {
  if (opt_.lane_words < 1) opt_.lane_words = 1;
  const auto W = static_cast<std::size_t>(opt_.lane_words);
  bad_.assign(c.num_nets() * W, 0);
  eval_tmp_.assign(W, 0);
  force_.assign(W, 0);
  masks_.assign(W, 0);
  net_act_.assign(c.num_nets() * W, 0);
  net_diff_.assign(c.num_nets() * W, 0);
  minterms1_.assign(16 * W, 0);
  minterms2_.assign(16 * W, 0);
  for (NetId po : c.outputs()) po_mask_[static_cast<std::size_t>(po)] = 1;
  int depth = 0;
  for (const int l : gate_level_) depth = std::max(depth, l);
  buckets_.resize(static_cast<std::size_t>(depth) + 1);

  // Touch every engine id before caching slot pointers: slot() may grow
  // the slab, and only the last growth's pointers are stable.
  const EngineMetricIds& ids = EngineMetricIds::get();
  for (obs::MetricId id :
       {ids.propagations, ids.frontier_events, ids.frontier_gate_evals}) {
    metrics_.slot(id);
  }
  propagations_ = metrics_.slot(ids.propagations);
  frontier_events_ = metrics_.slot(ids.frontier_events);
  frontier_gate_evals_ = metrics_.slot(ids.frontier_gate_evals);
}

const EngineMetricIds& EngineMetricIds::get() {
  static const EngineMetricIds ids = [] {
    EngineMetricIds m;
    m.propagations = obs::counter("sim.propagations");
    m.frontier_events = obs::counter("sim.frontier_events");
    m.frontier_gate_evals = obs::counter("sim.frontier_gate_evals");
    return m;
  }();
  return ids;
}

void FaultSimEngine::mark_changed(NetId n) {
  changed_[static_cast<std::size_t>(n)] = 1;
  touched_.push_back(n);
  for (int gi : c_.fanout_of(n)) {
    const auto g = static_cast<std::size_t>(gi);
    if (queued_[g]) continue;
    queued_[g] = 1;
    const int l = gate_level_[g];
    buckets_[static_cast<std::size_t>(l)].push_back(gi);
    if (l < lo_) lo_ = l;
    if (l > hi_) hi_ = l;
  }
}

long long FaultSimEngine::drain(const std::uint64_t* good, std::size_t W,
                                std::uint64_t* diff) {
  const std::uint64_t* ins[8];
  std::uint64_t* const tmp = eval_tmp_.data();
  std::uint64_t* const bad = bad_.data();
  long long events = 0;
  for (int l = lo_; l <= hi_; ++l) {
    std::vector<int>& bucket = buckets_[static_cast<std::size_t>(l)];
    for (const int gi : bucket) {
      queued_[static_cast<std::size_t>(gi)] = 0;
      ++*frontier_gate_evals_;
      const auto& gate = c_.gate(gi);
      for (std::size_t k = 0; k < gate.inputs.size(); ++k) {
        const auto in = static_cast<std::size_t>(gate.inputs[k]);
        ins[k] = (changed_[in] ? bad : good) + in * W;
      }
      logic::gate_eval_lanes(gate.type, ins, tmp, W);
      const auto on = static_cast<std::size_t>(gate.output);
      std::uint64_t d = 0;
      for (std::size_t w = 0; w < W; ++w) d |= tmp[w] ^ good[on * W + w];
      if (!d) continue;  // the change dies at this gate
      if (po_mask_[on])
        for (std::size_t w = 0; w < W; ++w)
          diff[w] |= tmp[w] ^ good[on * W + w];
      for (std::size_t w = 0; w < W; ++w) bad[on * W + w] = tmp[w];
      ++events;
      mark_changed(gate.output);
    }
    bucket.clear();
  }
  lo_ = std::numeric_limits<int>::max();
  hi_ = 0;
  for (NetId t : touched_) changed_[static_cast<std::size_t>(t)] = 0;
  touched_.clear();
  return events;
}

void FaultSimEngine::propagate(const std::uint64_t* good, std::size_t n_words,
                               NetId forced,
                               const std::uint64_t* forced_words,
                               std::uint64_t* diff) {
  const std::size_t W = n_words;
  for (std::size_t w = 0; w < W; ++w) diff[w] = 0;
  const auto fs = static_cast<std::size_t>(forced);
  {
    std::uint64_t seed = 0;
    for (std::size_t w = 0; w < W; ++w)
      seed |= forced_words[w] ^ good[fs * W + w];
    if (!seed) return;  // the forced value is the good value everywhere
  }
  ++*propagations_;
  std::uint64_t* bad = bad_.data();
  for (std::size_t w = 0; w < W; ++w) bad[fs * W + w] = forced_words[w];
  if (po_mask_[fs])
    for (std::size_t w = 0; w < W; ++w)
      diff[w] |= forced_words[w] ^ good[fs * W + w];
  mark_changed(forced);
  *frontier_events_ += 1 + drain(good, W, diff);
}

std::uint64_t FaultSimEngine::forced_diff(
    const std::vector<std::uint64_t>& good, NetId forced,
    std::uint64_t forced_word) {
  std::uint64_t diff = 0;
  propagate(good.data(), 1, forced, &forced_word, &diff);
  return diff;
}

template <typename ActivateFn>
void FaultSimEngine::propagate_per_net(const PatternBlock& b,
                                       std::size_t n_faults,
                                       const std::vector<std::uint8_t>* active,
                                       std::vector<std::uint64_t>& detect,
                                       ActivateFn activate) {
  assert(b.lane_words() == opt_.lane_words);
  const auto W = static_cast<std::size_t>(opt_.lane_words);
  for (std::size_t w = 0; w < W; ++w)
    masks_[w] = b.lane_mask(static_cast<int>(w));
  // 1. Each active fault's activation words go straight into its detect
  // slot and are OR-ed into its net's union.
  detect.assign(n_faults * W, 0);
  fault_net_.assign(n_faults, logic::kNoNet);
  for (std::size_t i = 0; i < n_faults; ++i) {
    if (active && !(*active)[i]) continue;
    std::uint64_t* act = detect.data() + i * W;
    const NetId net = activate(i, act);
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < W; ++w) any |= act[w];
    if (!any) continue;
    fault_net_[i] = net;
    std::uint64_t* u = net_act_.data() + static_cast<std::size_t>(net) * W;
    std::uint64_t seen = 0;
    for (std::size_t w = 0; w < W; ++w) {
      seen |= u[w];
      u[w] |= act[w];
    }
    if (!seen) excited_nets_.push_back(net);
  }
  // 2. One propagation per excited net, flipping the union's lanes.
  // Activated lanes of every fault on a net carry the same faulty value
  // (the complement of good2), and logic is lane-independent, so each
  // lane's PO diff is exactly that of any single fault activating it.
  for (const NetId net : excited_nets_) {
    const auto s = static_cast<std::size_t>(net) * W;
    for (std::size_t w = 0; w < W; ++w) {
      force_[w] = good2_[s + w] ^ net_act_[s + w];
      net_act_[s + w] = 0;
    }
    propagate(good2_.data(), W, net, force_.data(), net_diff_.data() + s);
  }
  excited_nets_.clear();
  // 3. A fault detects where its net's diff meets its own activation.
  for (std::size_t i = 0; i < n_faults; ++i) {
    if (fault_net_[i] == logic::kNoNet) continue;
    const auto s = static_cast<std::size_t>(fault_net_[i]) * W;
    for (std::size_t w = 0; w < W; ++w) detect[i * W + w] &= net_diff_[s + w];
  }
}

void FaultSimEngine::block_stuck(const PatternBlock& b,
                                 const std::vector<StuckFault>& faults,
                                 std::vector<std::uint64_t>& detect,
                                 const std::vector<std::uint8_t>* active) {
  const auto W = static_cast<std::size_t>(opt_.lane_words);
  c_.eval_wide_into(b.pi2(), W, good2_);
  propagate_per_net(b, faults.size(), active, detect,
                    [&](std::size_t i, std::uint64_t* act) {
                      const StuckFault& f = faults[i];
                      const std::uint64_t v = f.value ? ~0ull : 0ull;
                      const std::uint64_t* g =
                          good2_.data() + static_cast<std::size_t>(f.net) * W;
                      for (std::size_t w = 0; w < W; ++w)
                        act[w] = (g[w] ^ v) & masks_[w];
                      return f.net;
                    });
}

void FaultSimEngine::block_transition(const PatternBlock& b,
                                      const std::vector<TransitionFault>& faults,
                                      std::vector<std::uint64_t>& detect,
                                      const std::vector<std::uint8_t>* active) {
  const auto W = static_cast<std::size_t>(opt_.lane_words);
  c_.eval_wide_into(b.pi1(), W, good1_);
  c_.eval_wide_into(b.pi2(), W, good2_);
  // The slow output holds its frame-1 value during capture: excited lanes
  // are exactly those where that differs from the frame-2 value.
  propagate_per_net(b, faults.size(), active, detect,
                    [&](std::size_t i, std::uint64_t* act) {
                      const TransitionFault& f = faults[i];
                      const auto s = static_cast<std::size_t>(f.net) * W;
                      for (std::size_t w = 0; w < W; ++w) {
                        const std::uint64_t o1 = good1_[s + w];
                        const std::uint64_t o2 = good2_[s + w];
                        act[w] = (f.slow_to_rise ? (~o1 & o2) : (o1 & ~o2)) &
                                 masks_[w];
                      }
                      return f.net;
                    });
}

const std::array<std::uint16_t, 16>& FaultSimEngine::obd_table(
    logic::GateType t, const cells::TransistorRef& tr) {
  const auto key = std::make_tuple(static_cast<int>(t), tr.pmos, tr.input);
  auto it = obd_tables_.find(key);
  if (it != obd_tables_.end()) return it->second;
  std::array<std::uint16_t, 16> table{};
  const auto topo = logic::gate_topology(t);
  if (topo.has_value()) {
    const int n_vec = 1 << topo->num_inputs;
    for (int v1 = 0; v1 < n_vec; ++v1)
      for (int v2 = 0; v2 < n_vec; ++v2)
        if (core::excites_obd(*topo, tr,
                              cells::TwoVector{static_cast<std::uint32_t>(v1),
                                               static_cast<std::uint32_t>(v2)}))
          table[static_cast<std::size_t>(v1)] |=
              static_cast<std::uint16_t>(1u << v2);
  }
  return obd_tables_.emplace(key, table).first->second;
}

namespace {

/// Minterm words of gate `g`'s inputs under the lane-strided valuation
/// `good` (W words per net): mt[v * W + w] has the lanes of word w whose
/// local input vector is v (input k = bit k), for all 2^n vectors.
void load_minterms(const std::vector<std::uint64_t>& good, std::size_t W,
                   const logic::Gate& g, std::uint64_t* mt) {
  for (std::size_t w = 0; w < W; ++w) mt[w] = ~0ull;
  // Doubling: after input k, minterms [0, 2^(k+1)) are split on input k.
  std::size_t n = 1;
  for (const NetId in : g.inputs) {
    const std::uint64_t* x = good.data() + static_cast<std::size_t>(in) * W;
    for (std::size_t v = 0; v < n; ++v)
      for (std::size_t w = 0; w < W; ++w) {
        mt[(v + n) * W + w] = mt[v * W + w] & x[w];
        mt[v * W + w] &= ~x[w];
      }
    n *= 2;
  }
}

}  // namespace

void FaultSimEngine::block_obd(const PatternBlock& b,
                               const std::vector<ObdFaultSite>& faults,
                               std::vector<std::uint64_t>& detect,
                               const std::vector<std::uint8_t>* active) {
  const auto W = static_cast<std::size_t>(opt_.lane_words);
  c_.eval_wide_into(b.pi1(), W, good1_);
  c_.eval_wide_into(b.pi2(), W, good2_);
  // A gate's sites are adjacent in enumeration (and collapsed) order, so
  // its minterm words are rebuilt only when the gate changes.
  int minterm_gate = -1;
  propagate_per_net(
      b, faults.size(), active, detect, [&](std::size_t i, std::uint64_t* act) {
        const ObdFaultSite& f = faults[i];
        const auto& g = c_.gate(f.gate_index);
        if (!logic::is_primitive_cmos(g.type)) return g.output;
        const auto& table = obd_table(g.type, f.transistor);
        if (f.gate_index != minterm_gate) {
          load_minterms(good1_, W, g, minterms1_.data());
          load_minterms(good2_, W, g, minterms2_.data());
          minterm_gate = f.gate_index;
        }
        // Excited lanes: OR over the table's (v1, v2) entries of
        // minterm1[v1] & minterm2[v2]. Gross-delay: the excited output keeps
        // its frame-1 value, which changes the net only where it switches.
        // OBD excitation already requires that switch; masking with it
        // keeps the per-net union a pure flip whatever the table holds.
        const std::size_t n_vec = std::size_t{1} << g.inputs.size();
        const auto out = static_cast<std::size_t>(g.output) * W;
        for (std::size_t w = 0; w < W; ++w) {
          std::uint64_t exc = 0;
          for (std::size_t v1 = 0; v1 < n_vec; ++v1) {
            std::uint32_t row = table[v1];
            if (!row) continue;
            std::uint64_t m2 = 0;
            for (; row; row &= row - 1)
              m2 |= minterms2_[static_cast<std::size_t>(std::countr_zero(row)) *
                                   W + w];
            exc |= minterms1_[v1 * W + w] & m2;
          }
          act[w] = exc & (good1_[out + w] ^ good2_[out + w]) & masks_[w];
        }
        return g.output;
      });
}

template <typename Fault>
FaultSimEngine::Campaign FaultSimEngine::run_campaign(
    const std::vector<TwoVectorTest>& tests, const std::vector<Fault>& faults,
    bool drop_detected, BlockKernel<Fault> kernel) {
  Campaign result;
  result.first_test.assign(faults.size(), -1);
  std::vector<std::uint8_t> active(faults.size(), 1);
  std::vector<std::uint64_t> detect;
  const auto W = static_cast<std::size_t>(opt_.lane_words);
  PatternBlock block(c_, opt_.lane_words);
  int base = 0;
  for (std::size_t t = 0; t <= tests.size(); ++t) {
    if (t < tests.size()) {
      block.push(tests[t]);
      if (!block.full() && t + 1 < tests.size()) continue;
    }
    if (block.size() == 0) break;
    for (std::uint8_t a : active) result.fault_block_evals += a;
    (this->*kernel)(block, faults, detect, &active);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      bool hit = false;
      for (std::size_t w = 0; w < W; ++w) {
        const std::uint64_t word = detect[i * W + w];
        if (!word) continue;
        hit = true;
        // Words ascend in lane (= test) order, so the first nonzero word's
        // lowest bit is the true first detection in the block.
        if (result.first_test[i] < 0) {
          result.first_test[i] = base + static_cast<int>(w) * 64 +
                                 std::countr_zero(word);
          ++result.detected;
        }
        break;
      }
      if (hit && drop_detected) active[i] = 0;
    }
    base += block.size();
    block.clear();
  }
  return result;
}

FaultSimEngine::Campaign FaultSimEngine::campaign_stuck(
    const std::vector<InputVec>& patterns,
    const std::vector<StuckFault>& faults, bool drop_detected) {
  return run_campaign(stuck_tests(patterns), faults, drop_detected,
                      &FaultSimEngine::block_stuck);
}

FaultSimEngine::Campaign FaultSimEngine::campaign_transition(
    const std::vector<TwoVectorTest>& tests,
    const std::vector<TransitionFault>& faults, bool drop_detected) {
  return run_campaign(tests, faults, drop_detected,
                      &FaultSimEngine::block_transition);
}

FaultSimEngine::Campaign FaultSimEngine::campaign_obd(
    const std::vector<TwoVectorTest>& tests,
    const std::vector<ObdFaultSite>& faults, bool drop_detected) {
  return run_campaign(tests, faults, drop_detected,
                      &FaultSimEngine::block_obd);
}

// --- X-aware (3-valued) detection --------------------------------------------

std::vector<bool> FaultSimEngine::definite_obd(
    const XTwoVectorTest& t, const std::vector<ObdFaultSite>& faults) {
  using logic::Words3;
  const std::size_t n_pi = c_.inputs().size();
  std::vector<std::uint64_t> bits(n_pi), care(n_pi);
  for (std::size_t i = 0; i < n_pi; ++i) {
    bits[i] = t.v1.bits.bit(i) ? ~0ull : 0ull;
    care[i] = t.v1.care_mask.bit(i) ? ~0ull : 0ull;
  }
  const std::vector<Words3> good1 = c_.eval3_words(bits, care);
  for (std::size_t i = 0; i < n_pi; ++i) {
    bits[i] = t.v2.bits.bit(i) ? ~0ull : 0ull;
    care[i] = t.v2.care_mask.bit(i) ? ~0ull : 0ull;
  }
  const std::vector<Words3> pi2 = [&] {
    std::vector<Words3> w(n_pi);
    for (std::size_t i = 0; i < n_pi; ++i)
      w[i] = Words3::from_bits_care(bits[i], care[i]);
    return w;
  }();
  const std::vector<Words3> good2 = c_.eval3_words(pi2);

  std::vector<bool> detected(faults.size(), false);
  std::vector<Words3> bad2;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const ObdFaultSite& f = faults[i];
    const auto& g = c_.gate(f.gate_index);
    if (!logic::is_primitive_cmos(g.type)) continue;
    // Excitation must be definite: every gate-local input known, both frames.
    std::uint32_t lv1 = 0, lv2 = 0;
    bool known = true;
    for (std::size_t k = 0; k < g.inputs.size() && known; ++k) {
      const auto in = static_cast<std::size_t>(g.inputs[k]);
      if (!(good1[in].known() & good2[in].known() & 1u)) {
        known = false;
        break;
      }
      lv1 |= static_cast<std::uint32_t>(good1[in].can1 & 1u) << k;
      lv2 |= static_cast<std::uint32_t>(good2[in].can1 & 1u) << k;
    }
    const auto out = static_cast<std::size_t>(g.output);
    if (!known || !(good1[out].known() & 1u)) continue;
    if (!((obd_table(g.type, f.transistor)[lv1] >> lv2) & 1u)) continue;
    const bool old_out = good1[out].can1 & 1u;
    c_.eval3_words_into(pi2, bad2, g.output, Words3::of(old_out));
    for (NetId po : c_.outputs()) {
      const auto s = static_cast<std::size_t>(po);
      if ((good2[s].known() & bad2[s].known() &
           (good2[s].can1 ^ bad2[s].can1) & 1u)) {
        detected[i] = true;
        break;
      }
    }
  }
  return detected;
}

// --- Scheduler ---------------------------------------------------------------

FaultSimScheduler::FaultSimScheduler(const Circuit& c, SimOptions opt)
    : c_(c), opt_(opt) {
  if (opt_.threads < 1) opt_.threads = 1;
  if (opt_.lane_words < 1) opt_.lane_words = 1;
  if (opt_.block_batch < 0) opt_.block_batch = 0;
  // All workers are created up front, on the caller's thread: the first
  // engine construction warms the circuit's lazy topo-order cache, so the
  // shared Circuit is strictly read-only once workers run.
  engines_.reserve(static_cast<std::size_t>(opt_.threads));
  for (int w = 0; w < opt_.threads; ++w)
    engines_.push_back(std::make_unique<FaultSimEngine>(
        c_, EngineOptions{.lane_words = opt_.lane_words}));
}

FaultSimScheduler::~FaultSimScheduler() = default;

obs::Sheet FaultSimScheduler::merged_metrics() const {
  obs::Sheet out;
  for (const auto& e : engines_) out.merge_from(e->metrics());
  return out;
}

SimStats FaultSimScheduler::stats() const {
  const obs::Sheet m = merged_metrics();
  const EngineMetricIds& ids = EngineMetricIds::get();
  SimStats s;
  s.propagations = m.value(ids.propagations);
  s.frontier_events = m.value(ids.frontier_events);
  s.frontier_gate_evals = m.value(ids.frontier_gate_evals);
  return s;
}

namespace {

/// Below this many gates x blocks x lane_words, thread spawn + round
/// barriers cost more than the parallel win (measured on the bench corpus:
/// mul4x4/mul6x6-class shapes regressed to ~0.9x at 2 threads, c880-class
/// and up still profit).
constexpr std::size_t kSerialGateBlockThreshold = 8192;

}  // namespace

int FaultSimScheduler::pattern_workers(std::size_t n_blocks) const {
  const int w = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(opt_.threads), n_blocks));
  // An explicit block_batch amortizes the round barrier over more blocks,
  // so the same gate/block/lane shape becomes worth threading earlier —
  // without the factor, batched campaign rounds on small circuits bounced
  // between the serial and threaded paths.
  const auto batch = static_cast<std::size_t>(std::max(1, opt_.block_batch));
  if (w > 1 && c_.num_gates() * n_blocks *
                       static_cast<std::size_t>(opt_.lane_words) * batch <
                   kSerialGateBlockThreshold)
    return 1;
  return w;
}

std::size_t FaultSimScheduler::resolve_batch(std::size_t n_blocks,
                                             int workers) const {
  if (opt_.block_batch > 0)
    return static_cast<std::size_t>(opt_.block_batch);
  if (workers <= 1) return 1;
  // Amortize the round barrier over a few blocks per worker, but keep at
  // least ~4 reconciliation rounds so fault dropping still prunes the tail.
  const std::size_t per_worker =
      (n_blocks + static_cast<std::size_t>(workers) - 1) /
      static_cast<std::size_t>(workers);
  return std::max<std::size_t>(1, std::min<std::size_t>(4, per_worker / 4));
}

namespace {

/// Runs job(w) on `n` workers: inline when n <= 1, else on n std::threads.
/// When tracing is on, each spawned worker gets a named track and one
/// `span_name` span covering its share of the call; the inline path stays
/// on the caller's track (its enclosing span already covers it).
template <typename Job>
void run_workers(int n, const char* span_name, Job job) {
  if (n <= 1) {
    job(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    pool.emplace_back([job, span_name, w] {
      if (obs::tracing_on()) {
        obs::Recorder::instance().set_thread_name("sim-worker-" +
                                                  std::to_string(w));
      }
      obs::Span span(span_name, "sim");
      job(w);
    });
  }
  for (auto& t : pool) t.join();
}

}  // namespace

template <typename Fault>
DetectionMatrix FaultSimScheduler::build_matrix(
    const std::vector<TwoVectorTest>& tests, const std::vector<Fault>& faults,
    FaultSimEngine::BlockKernel<Fault> kernel) {
  DetectionMatrix m;
  m.n_tests = tests.size();
  m.n_faults = faults.size();
  m.words_per_row = (faults.size() + 63) / 64;
  m.rows.assign(m.n_tests * m.words_per_row, 0);
  m.covered.assign(faults.size(), false);
  if (tests.empty() || faults.empty()) return m;

  // Shard whole blocks: block b owns rows [capacity * b, + size).
  const std::vector<PatternBlock> blocks =
      PatternBlock::pack(c_, tests, opt_.lane_words);
  const auto W = static_cast<std::size_t>(opt_.lane_words);
  const std::size_t capacity = W * 64;
  std::atomic<std::size_t> next{0};
  run_workers(pattern_workers(blocks.size()), "matrix", [&](int w) {
    FaultSimEngine& e = engine(w);
    std::vector<std::uint64_t> detect;
    for (std::size_t b = next.fetch_add(1); b < blocks.size();
         b = next.fetch_add(1)) {
      (e.*kernel)(blocks[b], faults, detect, nullptr);
      const std::size_t base = b * capacity;
      for (std::size_t f = 0; f < faults.size(); ++f) {
        const std::size_t fw = f >> 6;
        const std::uint64_t fbit = 1ull << (f & 63);
        for (std::size_t dw = 0; dw < W; ++dw) {
          std::uint64_t word = detect[f * W + dw];
          const std::size_t wbase = base + dw * 64;
          while (word) {
            const auto lane = static_cast<std::size_t>(std::countr_zero(word));
            word &= word - 1;
            m.rows[(wbase + lane) * m.words_per_row + fw] |= fbit;
          }
        }
      }
    }
  });

  // OR-reduce the rows column-wise: one word per 64 faults instead of a
  // bit probe per (test, fault) pair.
  std::vector<std::uint64_t> any(m.words_per_row, 0);
  for (std::size_t t = 0; t < m.n_tests; ++t) {
    const std::uint64_t* r = m.row(t);
    for (std::size_t w = 0; w < m.words_per_row; ++w) any[w] |= r[w];
  }
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if ((any[f >> 6] >> (f & 63)) & 1u) {
      m.covered[f] = true;
      ++m.covered_count;
    }
  }
  return m;
}

template <typename Fault>
FaultSimEngine::Campaign FaultSimScheduler::run_campaign(
    const std::vector<TwoVectorTest>& tests, const std::vector<Fault>& faults,
    bool drop_detected, FaultSimEngine::BlockKernel<Fault> kernel) {
  FaultSimEngine::Campaign r;
  r.first_test.assign(faults.size(), -1);
  if (tests.empty() || faults.empty()) return r;

  // Rounds of `workers * batch` blocks against a frozen
  // active list, reconciled in block order — bit-identical to the
  // single-threaded drop campaign (first_test is the true first detection
  // either way). Worker w owns the round's contiguous slots
  // [w * batch, (w + 1) * batch); batching amortizes the round barrier on
  // small blocks. Workers are spawned once for the whole campaign; the
  // barrier's completion step (one thread, all workers parked) reconciles
  // each round and re-freezes the active list, so no shared state is
  // touched while blocks simulate.
  const std::vector<PatternBlock> blocks =
      PatternBlock::pack(c_, tests, opt_.lane_words);
  const auto W = static_cast<std::size_t>(opt_.lane_words);
  std::vector<std::uint8_t> active(faults.size(), 1);
  long long n_active = static_cast<long long>(faults.size());
  const int workers = pattern_workers(blocks.size());
  const std::size_t batch = resolve_batch(blocks.size(), workers);
  const std::size_t round_cap = static_cast<std::size_t>(workers) * batch;
  std::vector<std::vector<std::vector<std::uint64_t>>> detect(
      static_cast<std::size_t>(workers),
      std::vector<std::vector<std::uint64_t>>(batch));
  std::size_t start = 0;
  bool stop = false;
  const auto round_blocks = [&] {
    return std::min<std::size_t>(round_cap, blocks.size() - start);
  };
  r.fault_block_evals += n_active * static_cast<long long>(round_blocks());
  std::barrier sync(workers, [&]() noexcept {
    const std::size_t n = round_blocks();
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t b = start + s;
      const int base = static_cast<int>(b * W * 64);
      const auto& det = detect[s / batch][s % batch];
      for (std::size_t f = 0; f < faults.size(); ++f) {
        if (r.first_test[f] >= 0) continue;
        for (std::size_t dw = 0; dw < W; ++dw) {
          const std::uint64_t word = det[f * W + dw];
          if (!word) continue;
          r.first_test[f] =
              base + static_cast<int>(dw) * 64 + std::countr_zero(word);
          ++r.detected;
          break;
        }
      }
    }
    if (drop_detected) {
      for (std::size_t f = 0; f < faults.size(); ++f) {
        if (active[f] && r.first_test[f] >= 0) {
          active[f] = 0;
          --n_active;
        }
      }
    }
    start += n;
    if (obs::tracing_on())
      obs::Recorder::instance().counter("active_faults", n_active);
    stop = start >= blocks.size() || (drop_detected && n_active == 0);
    if (!stop)
      r.fault_block_evals += n_active * static_cast<long long>(round_blocks());
  });
  run_workers(workers, "campaign", [&](int w) {
    auto& mine = detect[static_cast<std::size_t>(w)];
    while (!stop) {
      for (std::size_t j = 0; j < batch; ++j) {
        const std::size_t b =
            start + static_cast<std::size_t>(w) * batch + j;
        if (b < blocks.size())
          (engine(w).*kernel)(blocks[b], faults, mine[j], &active);
      }
      sync.arrive_and_wait();
    }
  });
  return r;
}

DetectionMatrix FaultSimScheduler::matrix_stuck(
    const std::vector<InputVec>& patterns,
    const std::vector<StuckFault>& faults) {
  return build_matrix(stuck_tests(patterns), faults,
                      &FaultSimEngine::block_stuck);
}

DetectionMatrix FaultSimScheduler::matrix_transition(
    const std::vector<TwoVectorTest>& tests,
    const std::vector<TransitionFault>& faults) {
  return build_matrix(tests, faults, &FaultSimEngine::block_transition);
}

DetectionMatrix FaultSimScheduler::matrix_obd(
    const std::vector<TwoVectorTest>& tests,
    const std::vector<ObdFaultSite>& faults) {
  return build_matrix(tests, faults, &FaultSimEngine::block_obd);
}

FaultSimEngine::Campaign FaultSimScheduler::campaign_stuck(
    const std::vector<InputVec>& patterns,
    const std::vector<StuckFault>& faults, bool drop_detected) {
  return run_campaign(stuck_tests(patterns), faults, drop_detected,
                      &FaultSimEngine::block_stuck);
}

FaultSimEngine::Campaign FaultSimScheduler::campaign_transition(
    const std::vector<TwoVectorTest>& tests,
    const std::vector<TransitionFault>& faults, bool drop_detected) {
  return run_campaign(tests, faults, drop_detected,
                      &FaultSimEngine::block_transition);
}

FaultSimEngine::Campaign FaultSimScheduler::campaign_obd(
    const std::vector<TwoVectorTest>& tests,
    const std::vector<ObdFaultSite>& faults, bool drop_detected) {
  return run_campaign(tests, faults, drop_detected,
                      &FaultSimEngine::block_obd);
}

}  // namespace obd::atpg
