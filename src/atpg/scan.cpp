#include "atpg/scan.hpp"

#include <chrono>

#include "atpg/faultsim.hpp"
#include "core/excitation.hpp"
#include "util/prng.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;
using logic::SequentialCircuit;

std::vector<NetConstraint> pin_gate_inputs(const Circuit& c, int gate_idx,
                                           std::uint32_t bits) {
  const auto& g = c.gate(gate_idx);
  std::vector<NetConstraint> out;
  for (std::size_t k = 0; k < g.inputs.size(); ++k)
    out.push_back({g.inputs[k], ((bits >> k) & 1u) != 0});
  return out;
}

/// The circuit a mode's searches run on: the scan view for enhanced scan,
/// the two-frame unroll for the LOC styles.
Circuit search_circuit(const SequentialCircuit& seq, ScanMode mode) {
  if (mode == ScanMode::kEnhanced) return seq.scan_view();
  return seq.unroll_two_frames(
      /*share_pis=*/mode == ScanMode::kLaunchOnCaptureHeldPi);
}

/// `ws` is a workspace over the scan view.
ScanObdResult generate_enhanced(const SequentialCircuit& seq,
                                PodemWorkspace& ws, const ObdFaultSite& site,
                                const PodemOptions& opt) {
  ScanObdResult result;
  // scan_view preserves gate order, so the fault index carries over.
  const TwoFrameResult r = generate_obd_test(ws, site, opt);
  result.status = r.status;
  result.backtracks = r.backtracks;
  result.implications = r.implications;
  if (r.status != PodemStatus::kFound) return result;
  const std::size_t n_pi = seq.core().inputs().size();
  const std::size_t n_ff = seq.flops().size();
  result.test.pi1 = r.test.v1.slice(0, n_pi);
  result.test.state1 = r.test.v1.slice(n_pi, n_ff);
  result.test.pi2 = r.test.v2.slice(0, n_pi);
  result.test.state2 = r.test.v2.slice(n_pi, n_ff);
  result.test.state2_loaded = true;
  return result;
}

/// `ws` is a workspace over the two-frame unroll.
ScanObdResult generate_loc(const SequentialCircuit& seq, PodemWorkspace& ws,
                           const ObdFaultSite& site, bool held_pi,
                           const PodemOptions& opt) {
  ScanObdResult result;
  const Circuit& u = ws.circuit();
  const int g1 = seq.frame1_gate_index(site.gate_index);
  const int g2 = seq.frame2_gate_index(site.gate_index);
  const auto& core_gate = seq.core().gate(site.gate_index);
  const auto topo = logic::gate_topology(core_gate.type);
  if (!topo.has_value()) return result;

  bool any_aborted = false;
  for (const auto& tv : core::obd_excitations(*topo, site.transistor)) {
    std::vector<NetConstraint> constraints = pin_gate_inputs(u, g1, tv.v1);
    const auto pins2 = pin_gate_inputs(u, g2, tv.v2);
    constraints.insert(constraints.end(), pins2.begin(), pins2.end());
    const bool old_out = topo->output(tv.v1);
    const PodemResult r = podem_constrained_fault(
        ws, constraints, u.gate(g2).output, old_out, opt);
    result.backtracks += r.backtracks;
    result.implications += r.implications;
    if (r.status == PodemStatus::kAborted) any_aborted = true;
    if (r.status != PodemStatus::kFound) continue;

    const std::size_t n_pi = seq.core().inputs().size();
    const std::size_t n_ff = seq.flops().size();
    result.test.pi1 = r.vector.bits.slice(0, n_pi);
    result.test.state1 = r.vector.bits.slice(n_pi, n_ff);
    result.test.pi2 = held_pi ? result.test.pi1
                              : r.vector.bits.slice(n_pi + n_ff, n_pi);
    // Frame-2 present state = the machine's own launch response; read it
    // off the unrolled circuit's frame-1 next-state nets instead of
    // rebuilding a scan view (seq.step constructs one per call).
    const std::vector<bool> uvals = u.eval(r.vector.bits);
    for (std::size_t j = 0; j < n_ff; ++j) {
      const std::string& d_name = seq.core().net_name(seq.flops()[j].d);
      logic::NetId d1 = u.find_net(d_name + "@1");
      // A flop fed directly by a PI carries the shared "@12" suffix when
      // the frames share inputs.
      if (d1 == logic::kNoNet) d1 = u.find_net(d_name + "@12");
      // Both lookups missing is unreachable for a circuit unroll just
      // built, but an undriven-net 0 beats an out-of-bounds read.
      if (d1 == logic::kNoNet) continue;
      result.test.state2.set_bit(j, uvals[static_cast<std::size_t>(d1)]);
    }
    result.test.state2_loaded = false;
    result.status = PodemStatus::kFound;
    return result;
  }
  result.status =
      any_aborted ? PodemStatus::kAborted : PodemStatus::kUntestable;
  return result;
}

/// `ws` is a workspace over search_circuit(seq, mode).
ScanObdResult generate_in(const SequentialCircuit& seq, PodemWorkspace& ws,
                          const ObdFaultSite& site, ScanMode mode,
                          const PodemOptions& opt) {
  switch (mode) {
    case ScanMode::kEnhanced:
      return generate_enhanced(seq, ws, site, opt);
    case ScanMode::kLaunchOnCapture:
      return generate_loc(seq, ws, site, /*held_pi=*/false, opt);
    case ScanMode::kLaunchOnCaptureHeldPi:
      return generate_loc(seq, ws, site, /*held_pi=*/true, opt);
  }
  return {};
}

}  // namespace

const char* to_string(ScanMode m) {
  switch (m) {
    case ScanMode::kEnhanced: return "enhanced-scan";
    case ScanMode::kLaunchOnCapture: return "launch-on-capture";
    case ScanMode::kLaunchOnCaptureHeldPi: return "LOC-held-PI";
  }
  return "?";
}

ScanObdResult generate_scan_obd_test(const SequentialCircuit& seq,
                                     const ObdFaultSite& site, ScanMode mode,
                                     const PodemOptions& opt) {
  const Circuit sc = search_circuit(seq, mode);
  PodemWorkspace ws(sc);
  return generate_in(seq, ws, site, mode, opt);
}

bool verify_scan_obd_test(const SequentialCircuit& seq,
                          const ObdFaultSite& site, const ScanObdTest& test) {
  const Circuit sv = seq.scan_view();
  const std::size_t n_pi = seq.core().inputs().size();

  // Frame-1 (launch) settled values.
  const InputVec in1 = test.pi1 | (test.state1 << n_pi);
  const std::vector<bool> vals1 = sv.eval(in1);

  // Frame-2 present state: loaded (enhanced) or the machine's own response.
  const InputVec state2 =
      test.state2_loaded ? test.state2
                         : seq.step(test.pi1, test.state1).next_state;
  const InputVec in2 = test.pi2 | (state2 << n_pi);
  const std::vector<bool> vals2 = sv.eval(in2);

  // Gate-local excitation across the launch->capture boundary.
  const auto& gate = sv.gate(site.gate_index);
  const auto topo = logic::gate_topology(gate.type);
  if (!topo.has_value()) return false;
  const std::uint32_t lv1 = sv.gate_input_bits(site.gate_index, vals1);
  const std::uint32_t lv2 = sv.gate_input_bits(site.gate_index, vals2);
  if (!core::excites_obd(*topo, site.transistor, cells::TwoVector{lv1, lv2}))
    return false;

  // Gross-delay: the gate output holds its frame-1 value during capture.
  // Observation: POs plus the captured next-state (both are scan_view POs).
  const bool old_out = topo->output(lv1);
  return forced_outputs_differ(sv, in2, gate.output, old_out);
}

std::vector<ScanObdTest> random_broadside_tests(const SequentialCircuit& seq,
                                                ScanMode mode, int count,
                                                std::uint64_t seed) {
  return random_broadside_tests(seq, seq.scan_view(), mode, count, seed);
}

std::vector<ScanObdTest> random_broadside_tests(const SequentialCircuit& seq,
                                                const Circuit& sv,
                                                ScanMode mode, int count,
                                                std::uint64_t seed) {
  const std::size_t n_pi = seq.core().inputs().size();
  const std::size_t n_ff = seq.flops().size();
  // step() rebuilds the scan view on every call; derive good-machine
  // next-states through the prebuilt view instead (its POs are the core
  // POs followed by the next-state nets).
  const std::size_t n_po = seq.core().outputs().size();
  util::Prng prng(seed);
  std::vector<ScanObdTest> tests;
  tests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    ScanObdTest t;
    t.pi1 = InputVec::random(n_pi, prng);
    t.state1 = InputVec::random(n_ff, prng);
    t.pi2 = mode == ScanMode::kLaunchOnCaptureHeldPi
                ? t.pi1
                : InputVec::random(n_pi, prng);
    t.state2_loaded = mode == ScanMode::kEnhanced;
    t.state2 = t.state2_loaded
                   ? InputVec::random(n_ff, prng)
                   : sv.eval_outputs(t.pi1 | (t.state1 << n_pi)) >> n_po;
    tests.push_back(t);
  }
  return tests;
}

TwoVectorTest scan_view_vectors(const SequentialCircuit& seq,
                                const ScanObdTest& t) {
  const std::size_t n_pi = seq.core().inputs().size();
  return {t.pi1 | (t.state1 << n_pi), t.pi2 | (t.state2 << n_pi)};
}

ScanCampaign run_scan_obd_atpg(const SequentialCircuit& seq,
                               const std::vector<ObdFaultSite>& faults,
                               ScanMode mode, const PodemOptions& opt) {
  ScanCampaign c;
  std::vector<std::uint8_t> skip(faults.size(), 0);
  if (opt.random_phase > 0 && !faults.empty()) {
    // Broadside random-pattern phase over the scan view, with fault
    // dropping. Fault indices carry over: scan_view preserves gate order.
    const auto t0 = std::chrono::steady_clock::now();
    const Circuit sv = seq.scan_view();
    const std::vector<ScanObdTest> random_tests = random_broadside_tests(
        seq, sv, mode, opt.random_phase, opt.random_phase_seed);
    std::vector<TwoVectorTest> vectors;
    vectors.reserve(random_tests.size());
    for (const auto& t : random_tests)
      vectors.push_back(scan_view_vectors(seq, t));
    FaultSimScheduler sched(sv, opt.sim);
    const FaultSimEngine::Campaign campaign =
        sched.campaign_obd(vectors, faults, /*drop_detected=*/true);
    c.fault_block_evals = campaign.fault_block_evals;
    const PrepassMarks marks =
        mark_first_detections(campaign, random_tests.size());
    skip = marks.skip;
    c.found += marks.found;
    c.random_found += marks.found;
    for (std::size_t t = 0; t < random_tests.size(); ++t)
      if (marks.useful[t]) c.tests.push_back(random_tests[t]);
    c.random_tests = static_cast<int>(c.tests.size());
    c.random_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  }
  // One search circuit and one workspace serve every fault.
  const Circuit sc = search_circuit(seq, mode);
  PodemWorkspace ws(sc);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (skip[i]) continue;
    const ScanObdResult r = generate_in(seq, ws, faults[i], mode, opt);
    c.backtracks += r.backtracks;
    c.implications += r.implications;
    switch (r.status) {
      case PodemStatus::kFound:
        ++c.found;
        c.tests.push_back(r.test);
        break;
      case PodemStatus::kUntestable:
        ++c.untestable;
        break;
      case PodemStatus::kAborted:
        ++c.aborted;
        break;
    }
  }
  return c;
}

}  // namespace obd::atpg
