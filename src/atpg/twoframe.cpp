#include "atpg/twoframe.hpp"

#include "atpg/faultsim.hpp"
#include "atpg/faultsim_engine.hpp"
#include "core/excitation.hpp"

namespace obd::atpg {
namespace {

std::vector<NetConstraint> pin_gate_inputs(const Circuit& c, int gate_idx,
                                           std::uint32_t bits) {
  const auto& g = c.gate(gate_idx);
  std::vector<NetConstraint> out;
  out.reserve(g.inputs.size());
  for (std::size_t k = 0; k < g.inputs.size(); ++k)
    out.push_back({g.inputs[k], ((bits >> k) & 1u) != 0});
  return out;
}

}  // namespace

TwoFrameResult generate_obd_test(PodemWorkspace& ws, const ObdFaultSite& site,
                                 const PodemOptions& opt) {
  const Circuit& c = ws.circuit();
  TwoFrameResult result;
  const auto& g = c.gate(site.gate_index);
  const auto topo = logic::gate_topology(g.type);
  if (!topo.has_value()) return result;  // composite gate: no OBD site

  bool any_aborted = false;
  AbortReason abort_reason = AbortReason::kNone;
  auto note_abort = [&](const PodemResult& r) {
    if (r.status != PodemStatus::kAborted) return;
    any_aborted = true;
    if (abort_reason != AbortReason::kTime) abort_reason = r.reason;
  };
  for (const auto& tv : core::obd_excitations(*topo, site.transistor)) {
    // Frame 2: pin the gate inputs to the excitation's final vector; the
    // faulty circuit sees the gate output frozen at its frame-1 value.
    const bool old_out = topo->output(tv.v1);
    PodemResult f2 = podem_constrained_fault(
        ws, pin_gate_inputs(c, site.gate_index, tv.v2), g.output, old_out, opt);
    result.backtracks += f2.backtracks;
    result.implications += f2.implications;
    note_abort(f2);
    if (f2.status != PodemStatus::kFound) continue;

    // Frame 1: justify the excitation's initial vector.
    PodemResult f1 =
        podem_justify(ws, pin_gate_inputs(c, site.gate_index, tv.v1), opt);
    result.backtracks += f1.backtracks;
    result.implications += f1.implications;
    note_abort(f1);
    if (f1.status != PodemStatus::kFound) continue;

    result.status = PodemStatus::kFound;
    result.test = TwoVectorTest{f1.vector.bits, f2.vector.bits};
    result.x_test = XTwoVectorTest{f1.vector, f2.vector};
    return result;
  }
  result.status = any_aborted ? PodemStatus::kAborted : PodemStatus::kUntestable;
  if (result.status == PodemStatus::kAborted) result.reason = abort_reason;
  return result;
}

TwoFrameResult generate_transition_test(PodemWorkspace& ws,
                                        const TransitionFault& fault,
                                        const PodemOptions& opt) {
  TwoFrameResult result;
  // Frame 2: output must reach its final value while the faulty circuit
  // holds the old one; no input-specific constraint (classical model).
  const bool final_value = fault.slow_to_rise;
  PodemResult f2 =
      podem_constrained_fault(ws, {{fault.net, final_value}}, fault.net,
                              !final_value, opt);
  result.backtracks += f2.backtracks;
  result.implications += f2.implications;
  if (f2.status != PodemStatus::kFound) {
    result.status = f2.status;
    result.reason = f2.reason;
    return result;
  }
  PodemResult f1 = podem_justify(ws, {{fault.net, !final_value}}, opt);
  result.backtracks += f1.backtracks;
  result.implications += f1.implications;
  if (f1.status != PodemStatus::kFound) {
    result.status = f1.status;
    result.reason = f1.reason;
    return result;
  }
  result.status = PodemStatus::kFound;
  result.test = TwoVectorTest{f1.vector.bits, f2.vector.bits};
  result.x_test = XTwoVectorTest{f1.vector, f2.vector};
  return result;
}

TwoFrameResult generate_obd_test(const Circuit& c, const ObdFaultSite& site,
                                 const PodemOptions& opt) {
  PodemWorkspace ws(c);
  return generate_obd_test(ws, site, opt);
}

TwoFrameResult generate_transition_test(const Circuit& c,
                                        const TransitionFault& fault,
                                        const PodemOptions& opt) {
  PodemWorkspace ws(c);
  return generate_transition_test(ws, fault, opt);
}

namespace {

/// Random-pattern phase: block-simulate `tests` with fault dropping (sharded
/// over opt.sim.threads workers); faults caught there skip the deterministic
/// search, and each random test that is the *first* detector of some fault
/// joins the run's test set. `campaign` maps (scheduler, tests) to a
/// fault-dropping campaign.
template <typename Fault, typename CampaignFn>
std::vector<std::uint8_t> random_phase_prepass(
    const Circuit& c, const std::vector<Fault>& faults,
    const std::vector<TwoVectorTest>& tests, const PodemOptions& opt,
    AtpgRun& run, CampaignFn campaign) {
  if (tests.empty() || faults.empty())
    return std::vector<std::uint8_t>(faults.size(), 0);
  FaultSimScheduler sched(c, opt.sim);
  const PrepassMarks marks =
      mark_first_detections(campaign(sched, tests), tests.size());
  run.found += marks.found;
  const InputVec pi_mask = InputVec::mask(c.inputs().size());
  for (std::size_t t = 0; t < tests.size(); ++t) {
    if (!marks.useful[t]) continue;
    run.tests.push_back(tests[t]);
    run.x_tests.push_back(XTwoVectorTest{{tests[t].v1, pi_mask},
                                         {tests[t].v2, pi_mask}});
  }
  return marks.skip;
}

std::vector<TwoVectorTest> random_phase_tests(const Circuit& c,
                                              const PodemOptions& opt) {
  if (opt.random_phase <= 0) return {};
  return random_pairs(static_cast<int>(c.inputs().size()), opt.random_phase,
                      opt.random_phase_seed);
}

template <typename Fault, typename Gen>
AtpgRun run_all(const std::vector<Fault>& faults,
                std::vector<std::uint8_t> skip, AtpgRun run, Gen gen) {
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (skip[i]) continue;
    const TwoFrameResult r = gen(faults[i]);
    run.total_backtracks += r.backtracks;
    run.total_implications += r.implications;
    switch (r.status) {
      case PodemStatus::kFound:
        ++run.found;
        run.tests.push_back(r.test);
        run.x_tests.push_back(r.x_test);
        break;
      case PodemStatus::kUntestable:
        ++run.untestable;
        run.untestable_faults.push_back(i);
        break;
      case PodemStatus::kAborted:
        ++run.aborted;
        break;
    }
  }
  return run;
}

}  // namespace

AtpgRun run_obd_atpg(const Circuit& c, const std::vector<ObdFaultSite>& faults,
                     const PodemOptions& opt) {
  AtpgRun run;
  auto skip = random_phase_prepass(
      c, faults, random_phase_tests(c, opt), opt, run,
      [&](FaultSimScheduler& s, const std::vector<TwoVectorTest>& tests) {
        return s.campaign_obd(tests, faults);
      });
  PodemWorkspace ws(c);
  return run_all(faults, std::move(skip), std::move(run),
                 [&](const ObdFaultSite& f) {
                   return generate_obd_test(ws, f, opt);
                 });
}

AtpgRun run_transition_atpg(const Circuit& c,
                            const std::vector<TransitionFault>& faults,
                            const PodemOptions& opt) {
  AtpgRun run;
  auto skip = random_phase_prepass(
      c, faults, random_phase_tests(c, opt), opt, run,
      [&](FaultSimScheduler& s, const std::vector<TwoVectorTest>& tests) {
        return s.campaign_transition(tests, faults);
      });
  PodemWorkspace ws(c);
  return run_all(faults, std::move(skip), std::move(run),
                 [&](const TransitionFault& f) {
                   return generate_transition_test(ws, f, opt);
                 });
}

AtpgRun run_stuck_at_atpg(const Circuit& c,
                          const std::vector<StuckFault>& faults,
                          const PodemOptions& opt) {
  AtpgRun run;
  // Single-vector patterns: the v2 halves of the shared pair generator.
  auto tests = random_phase_tests(c, opt);
  for (auto& t : tests) t.v1 = t.v2;
  auto skip = random_phase_prepass(
      c, faults, tests, opt, run,
      [&](FaultSimScheduler& s, const std::vector<TwoVectorTest>& ts) {
        std::vector<InputVec> patterns(ts.size());
        for (std::size_t i = 0; i < ts.size(); ++i) patterns[i] = ts[i].v2;
        return s.campaign_stuck(patterns, faults);
      });
  PodemWorkspace ws(c);
  return run_all(faults, std::move(skip), std::move(run),
                 [&](const StuckFault& f) {
                   const PodemResult r = podem_stuck_at(ws, f, opt);
                   TwoFrameResult t;
                   t.status = r.status;
                   t.reason = r.reason;
                   t.backtracks = r.backtracks;
                   t.implications = r.implications;
                   t.test = TwoVectorTest{r.vector.bits, r.vector.bits};
                   t.x_test = XTwoVectorTest{r.vector, r.vector};
                   return t;
                 });
}

}  // namespace obd::atpg
