#include "atpg/podem.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

namespace obd::atpg {

using logic::Gate;
using logic::Tri;

PodemWorkspace::PodemWorkspace(const Circuit& c)
    : c_(c),
      level_(c.gate_levels()),
      queued_(c.num_gates(), 0),
      pi_of_net_(c.num_nets(), -1),
      all_x_(c.eval3(std::vector<Tri>(c.inputs().size(), Tri::kX))),
      good_(all_x_),
      faulty_(all_x_),
      seen_(c.num_gates(), 0) {
  int depth = 0;
  for (int l : level_) depth = std::max(depth, l);
  buckets_.resize(static_cast<std::size_t>(depth) + 1);
  for (std::size_t i = 0; i < c.inputs().size(); ++i)
    pi_of_net_[static_cast<std::size_t>(c.inputs()[i])] = static_cast<int>(i);
}

namespace detail {

/// One search over a workspace at rest in its all-X state. A fault is
/// seeded by writing the forced net's faulty value and implying it through
/// its fanout, the same level-ordered walk every decision takes; the seed's
/// trail entries sit below the first decision's mark, so backtracking never
/// undoes them. After that every decision, flip, or pop touches one PI and
/// re-implies only the gates its change reaches (through
/// Circuit::fanout_of, in level order), logging each overwritten (good,
/// faulty) pair on the trail. A decision remembers the trail length it
/// started at, so undoing it is popping the trail back to that mark — no
/// re-simulation. The values at every step are exactly what a full
/// re-evaluation would give, so the decisions, verdicts, and effort
/// counters are too. The search ends by rewinding the whole trail, which
/// leaves the workspace back at rest.
class PodemEngine {
 public:
  PodemEngine(PodemWorkspace& ws, const std::vector<NetConstraint>& constraints,
              std::optional<StuckFault> fault, bool require_propagation,
              const PodemOptions& opt)
      : ws_(ws),
        c_(ws.c_),
        constraints_(constraints),
        fault_(fault),
        require_propagation_(require_propagation),
        opt_(opt) {
    if (opt_.time_budget_s > 0.0)
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(opt_.time_budget_s));
    ws_.decisions_.clear();
    ws_.cone_.clear();
    if (fault_ && require_propagation_) collect_fault_cone();
  }

  PodemResult run() {
    PodemResult result;
    ++implications_;
    if (fault_) seed_fault();
    for (;;) {
      if (conflicted()) {
        if (!backtrack()) {
          result.status = aborted_ ? PodemStatus::kAborted
                                   : PodemStatus::kUntestable;
          break;
        }
        continue;
      }
      if (satisfied()) {
        result.status = PodemStatus::kFound;
        result.vector = make_vector();
        break;
      }
      const auto obj = pick_objective();
      if (!obj) {
        // No way to make progress from this state: treat as a conflict.
        if (!backtrack()) {
          result.status = aborted_ ? PodemStatus::kAborted
                                   : PodemStatus::kUntestable;
          break;
        }
        continue;
      }
      const auto pi_choice = backtrace(obj->first, obj->second);
      if (!pi_choice) {
        if (!backtrack()) {
          result.status = aborted_ ? PodemStatus::kAborted
                                   : PodemStatus::kUntestable;
          break;
        }
        continue;
      }
      ws_.decisions_.push_back(PodemWorkspace::Decision{
          pi_choice->first, pi_choice->second, false, ws_.trail_.size()});
      assign(pi_choice->first, logic::tri_of(pi_choice->second));
    }
    undo_to(0);
    if (result.status == PodemStatus::kAborted) result.reason = reason_;
    result.backtracks = backtracks_;
    result.implications = implications_;
    return result;
  }

 private:
  /// Gates in the fault net's transitive fanout, by ascending index: the
  /// only gates that can ever hold a differing input.
  void collect_fault_cone() {
    std::vector<int>& cone = ws_.cone_;
    std::vector<NetId>& stack = ws_.stack_;
    stack.assign(1, fault_->net);
    while (!stack.empty()) {
      const NetId n = stack.back();
      stack.pop_back();
      for (int gi : c_.fanout_of(n)) {
        if (ws_.seen_[static_cast<std::size_t>(gi)]) continue;
        ws_.seen_[static_cast<std::size_t>(gi)] = 1;
        cone.push_back(gi);
        stack.push_back(c_.gate(gi).output);
      }
    }
    for (const int gi : cone) ws_.seen_[static_cast<std::size_t>(gi)] = 0;
    std::sort(cone.begin(), cone.end());
  }

  /// Writes the fault into the faulty copy of the all-X state and implies
  /// it through its fanout: what a full faulty evaluation from all-X PIs
  /// would give, touching only the nets that differ.
  void seed_fault() {
    const NetId n = fault_->net;
    set_net(n, good_of(n), logic::tri_of(fault_->value));
    drain();
  }

  /// Sets PI `i` and implies the change through its fanout: one
  /// implication. The faulty copy of a faulted PI stays pinned.
  void assign(std::size_t i, Tri v) {
    ++implications_;
    const NetId n = c_.inputs()[i];
    set_net(n, v, fault_ && n == fault_->net ? faulty_of(n) : v);
    drain();
  }

  /// Re-evaluates the queued gates in level order.
  void drain() {
    for (int l = lo_; l <= hi_; ++l) {
      std::vector<int>& bucket = ws_.buckets_[static_cast<std::size_t>(l)];
      // Fanout gates sit at strictly higher levels, so this bucket does
      // not grow while it is being drained.
      for (const int gi : bucket) {
        ws_.queued_[static_cast<std::size_t>(gi)] = 0;
        eval_gate(gi);
      }
      bucket.clear();
    }
    lo_ = std::numeric_limits<int>::max();
    hi_ = 0;
  }

  void eval_gate(int gi) {
    const Gate& g = c_.gate(gi);
    Tri gin[8];
    Tri fin[8];
    bool same = true;
    for (std::size_t k = 0; k < g.inputs.size(); ++k) {
      gin[k] = good_of(g.inputs[k]);
      fin[k] = faulty_of(g.inputs[k]);
      same = same && gin[k] == fin[k];
    }
    const Tri gv = logic::gate_eval3(g.type, gin);
    Tri fv = gv;
    if (fault_ && g.output == fault_->net) fv = logic::tri_of(fault_->value);
    else if (!same) fv = logic::gate_eval3(g.type, fin);
    set_net(g.output, gv, fv);
  }

  /// Writes a net's (good, faulty) pair, logging the old one and queueing
  /// the readers when either value changes.
  void set_net(NetId n, Tri g, Tri f) {
    const auto idx = static_cast<std::size_t>(n);
    Tri& good = ws_.good_[idx];
    Tri& faulty = ws_.faulty_[idx];
    if (good == g && faulty == f) return;
    ws_.trail_.push_back(PodemWorkspace::TrailEntry{n, good, faulty});
    good = g;
    faulty = f;
    for (int gi : c_.fanout_of(n)) {
      if (ws_.queued_[static_cast<std::size_t>(gi)]) continue;
      ws_.queued_[static_cast<std::size_t>(gi)] = 1;
      const int l = ws_.level_[static_cast<std::size_t>(gi)];
      ws_.buckets_[static_cast<std::size_t>(l)].push_back(gi);
      lo_ = std::min(lo_, l);
      hi_ = std::max(hi_, l);
    }
  }

  /// Restores every net written since the trail had `mark` entries.
  void undo_to(std::size_t mark) {
    std::vector<PodemWorkspace::TrailEntry>& trail = ws_.trail_;
    while (trail.size() > mark) {
      const PodemWorkspace::TrailEntry& e = trail.back();
      ws_.good_[static_cast<std::size_t>(e.net)] = e.good;
      ws_.faulty_[static_cast<std::size_t>(e.net)] = e.faulty;
      trail.pop_back();
    }
  }

  Tri good_of(NetId n) const { return ws_.good_[static_cast<std::size_t>(n)]; }
  Tri faulty_of(NetId n) const {
    return ws_.faulty_[static_cast<std::size_t>(n)];
  }

  /// Determined differing value (a D or D') on the net.
  bool diff(NetId n) const {
    const Tri g = good_of(n);
    const Tri f = faulty_of(n);
    return g != Tri::kX && f != Tri::kX && g != f;
  }

  bool activated() const {
    return fault_ && good_of(fault_->net) != Tri::kX &&
           good_of(fault_->net) != logic::tri_of(fault_->value);
  }

  bool po_diff() const {
    for (NetId po : c_.outputs())
      if (diff(po)) return true;
    return false;
  }

  /// D-frontier: gates with a differing input whose output is not yet
  /// fully determined-equal, by ascending gate index.
  const std::vector<int>& d_frontier() {
    std::vector<int>& out = ws_.frontier_;
    out.clear();
    for (const int gi : ws_.cone_) {
      const Gate& g = c_.gate(gi);
      if (diff(g.output)) continue;
      const bool blocked = good_of(g.output) != Tri::kX &&
                           faulty_of(g.output) != Tri::kX;
      if (blocked) continue;
      for (NetId in : g.inputs)
        if (diff(in)) {
          out.push_back(gi);
          break;
        }
    }
    return out;
  }

  bool conflicted() {
    for (const auto& k : constraints_) {
      const Tri v = good_of(k.net);
      if (v != Tri::kX && v != logic::tri_of(k.value)) return true;
    }
    if (fault_) {
      const Tri v = good_of(fault_->net);
      if (v != Tri::kX && v == logic::tri_of(fault_->value))
        return true;  // activation impossible
      if (require_propagation_ && activated() && !po_diff() &&
          d_frontier().empty())
        return true;  // difference can no longer reach a PO
    }
    return false;
  }

  bool satisfied() const {
    for (const auto& k : constraints_)
      if (good_of(k.net) != logic::tri_of(k.value)) return false;
    if (fault_) {
      if (!activated()) return false;
      if (require_propagation_ && !po_diff()) return false;
    }
    return true;
  }

  /// Next (net, value) goal.
  std::optional<std::pair<NetId, bool>> pick_objective() {
    for (const auto& k : constraints_)
      if (good_of(k.net) == Tri::kX) return std::make_pair(k.net, k.value);
    if (fault_ && good_of(fault_->net) == Tri::kX)
      return std::make_pair(fault_->net, !fault_->value);
    if (fault_ && require_propagation_ && !po_diff()) {
      for (int gi : d_frontier()) {
        const Gate& g = c_.gate(gi);
        for (std::size_t k = 0; k < g.inputs.size(); ++k) {
          const NetId in = g.inputs[k];
          if (good_of(in) != Tri::kX) continue;
          // Pick a value for this input that keeps the difference alive.
          for (bool v : {true, false}) {
            if (transparent_with(gi, k, v)) return std::make_pair(in, v);
          }
        }
      }
    }
    return std::nullopt;
  }

  /// Could gate `gi` still produce a differing output if input slot k is
  /// set to v? (3-valued check on both circuits.)
  bool transparent_with(int gi, std::size_t slot, bool v) const {
    const Gate& g = c_.gate(gi);
    Tri gin[8];
    Tri fin[8];
    for (std::size_t k = 0; k < g.inputs.size(); ++k) {
      gin[k] = good_of(g.inputs[k]);
      fin[k] = faulty_of(g.inputs[k]);
      if (k == slot) {
        gin[k] = logic::tri_of(v);
        fin[k] = logic::tri_of(v);
      }
    }
    const Tri og = logic::gate_eval3(g.type, gin);
    const Tri of = logic::gate_eval3(g.type, fin);
    // Blocked only when both sides are determined and equal.
    return !(og != Tri::kX && of != Tri::kX && og == of);
  }

  /// Walks the objective back to an unassigned PI.
  std::optional<std::pair<std::size_t, bool>> backtrace(NetId net,
                                                        bool value) const {
    NetId n = net;
    bool v = value;
    for (int guard = 0; guard < 10000; ++guard) {
      const int drv = c_.driver_of(n);
      if (drv < 0) {
        // PI (or floating net: then it is not a PI and cannot be set).
        const int pi = ws_.pi_of_net_[static_cast<std::size_t>(n)];
        if (pi < 0) return std::nullopt;
        return std::make_pair(static_cast<std::size_t>(pi), v);
      }
      const Gate& g = c_.gate(drv);
      // Choose an undetermined input and a value that can still produce v.
      bool advanced = false;
      for (std::size_t k = 0; k < g.inputs.size() && !advanced; ++k) {
        if (good_of(g.inputs[k]) != Tri::kX) continue;
        for (bool cand : {false, true}) {
          if (can_output(drv, k, cand, v)) {
            n = g.inputs[k];
            v = cand;
            advanced = true;
            break;
          }
        }
      }
      if (!advanced) return std::nullopt;
    }
    return std::nullopt;
  }

  /// With input slot `k` of gate `gi` set to `cand` (and other X inputs
  /// free), can the gate output be `target`?
  bool can_output(int gi, std::size_t slot, bool cand, bool target) const {
    const Gate& g = c_.gate(gi);
    // Enumerate completions of X inputs.
    std::uint32_t fixed = 0;
    std::uint32_t x_mask = 0;
    for (std::size_t k = 0; k < g.inputs.size(); ++k) {
      const Tri t = (k == slot) ? logic::tri_of(cand) : good_of(g.inputs[k]);
      if (t == Tri::k1) fixed |= (1u << k);
      else if (t == Tri::kX) x_mask |= (1u << k);
    }
    for (std::uint32_t sub = x_mask;; sub = (sub - 1) & x_mask) {
      if (logic::gate_eval(g.type, fixed | sub) == target) return true;
      if (sub == 0) break;
    }
    return false;
  }

  /// Flips the deepest unflipped decision (popping flipped ones above it).
  /// Undo is a trail rewind; the flip is one implication. Exhausting the
  /// tree counts one more implication, the reset to the all-X state.
  bool backtrack() {
    std::vector<PodemWorkspace::Decision>& decisions = ws_.decisions_;
    while (!decisions.empty()) {
      PodemWorkspace::Decision& d = decisions.back();
      undo_to(d.mark);
      if (!d.flipped) {
        d.flipped = true;
        ++backtracks_;
        if (backtracks_ > opt_.max_backtracks) {
          aborted_ = true;
          reason_ = AbortReason::kBacktracks;
          return false;
        }
        // One clock read per backtrack: an abort must not wait for the
        // search to end, and the read is cheap next to the flip's
        // implication through the PI's fanout cone.
        if (deadline_ && std::chrono::steady_clock::now() > *deadline_) {
          aborted_ = true;
          reason_ = AbortReason::kTime;
          return false;
        }
        assign(d.pi, logic::tri_of(!d.value));
        return true;
      }
      decisions.pop_back();
    }
    ++implications_;
    return false;
  }

  TestVector make_vector() const {
    TestVector v;
    for (std::size_t i = 0; i < c_.inputs().size(); ++i) {
      // A PI's good value is exactly its assignment (X when undecided).
      const Tri t = good_of(c_.inputs()[i]);
      if (t == Tri::kX) {
        if (opt_.fill_value) v.bits.set_bit(i);
      } else {
        v.care_mask.set_bit(i);
        if (t == Tri::k1) v.bits.set_bit(i);
      }
    }
    return v;
  }

  PodemWorkspace& ws_;
  const Circuit& c_;
  const std::vector<NetConstraint>& constraints_;
  std::optional<StuckFault> fault_;
  bool require_propagation_;
  const PodemOptions& opt_;
  int lo_ = std::numeric_limits<int>::max();  ///< lowest non-empty bucket
  int hi_ = 0;                                ///< highest non-empty bucket
  long backtracks_ = 0;
  long implications_ = 0;
  bool aborted_ = false;
  AbortReason reason_ = AbortReason::kNone;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
};

}  // namespace detail

PodemResult podem_stuck_at(PodemWorkspace& ws, const StuckFault& fault,
                           const PodemOptions& opt) {
  const std::vector<NetConstraint> none;
  return detail::PodemEngine(ws, none, fault, /*require_propagation=*/true,
                             opt)
      .run();
}

PodemResult podem_justify(PodemWorkspace& ws,
                          const std::vector<NetConstraint>& constraints,
                          const PodemOptions& opt) {
  return detail::PodemEngine(ws, constraints, std::nullopt, false, opt).run();
}

PodemResult podem_constrained_fault(
    PodemWorkspace& ws, const std::vector<NetConstraint>& constraints,
    NetId forced, bool forced_value, const PodemOptions& opt) {
  return detail::PodemEngine(ws, constraints, StuckFault{forced, forced_value},
                             /*require_propagation=*/true, opt)
      .run();
}

PodemResult podem_stuck_at(const Circuit& c, const StuckFault& fault,
                           const PodemOptions& opt) {
  PodemWorkspace ws(c);
  return podem_stuck_at(ws, fault, opt);
}

PodemResult podem_justify(const Circuit& c,
                          const std::vector<NetConstraint>& constraints,
                          const PodemOptions& opt) {
  PodemWorkspace ws(c);
  return podem_justify(ws, constraints, opt);
}

PodemResult podem_constrained_fault(
    const Circuit& c, const std::vector<NetConstraint>& constraints,
    NetId forced, bool forced_value, const PodemOptions& opt) {
  PodemWorkspace ws(c);
  return podem_constrained_fault(ws, constraints, forced, forced_value, opt);
}

}  // namespace obd::atpg
