// Scan-based OBD test generation for sequential circuits (paper Sec. 5).
//
// Three application styles, in decreasing hardware cost / increasing
// constraint:
//  - enhanced scan: both vectors fully controllable (two scan registers);
//    any combinational (V1, V2) pair applies;
//  - launch-on-capture (LOC): V1's state is scan-loaded, V2's state is the
//    circuit's own next-state response; PIs may change between frames;
//  - LOC with held PIs: additionally PI2 == PI1 (slow tester).
//
// LOC coupling is handled exactly by running the constrained PODEM on the
// two-frame unrolled circuit, with the OBD excitation pinned on the
// frame-1/frame-2 twins of the defective gate.
#pragma once

#include "atpg/twoframe.hpp"
#include "logic/sequential.hpp"

namespace obd::atpg {

enum class ScanMode {
  kEnhanced,
  kLaunchOnCapture,
  kLaunchOnCaptureHeldPi,
};

const char* to_string(ScanMode m);

/// A scan test: state to scan in, PI vectors for the two cycles. All fields
/// are wide InputVecs, so scan chains longer than 64 flops apply unchanged.
struct ScanObdTest {
  InputVec state1;
  InputVec pi1;
  InputVec pi2;
  /// Frame-2 state. For enhanced scan this is independently loaded; for the
  /// LOC modes it is derived (the machine's own next state) and recorded
  /// here for reporting only.
  InputVec state2;
  /// True when state2 was independently loaded (enhanced scan).
  bool state2_loaded = false;
};

struct ScanObdResult {
  PodemStatus status = PodemStatus::kUntestable;
  ScanObdTest test;
  long backtracks = 0;
  long implications = 0;
};

/// Generates a scan OBD test for a fault on core gate `site.gate_index`.
/// Builds the mode's search circuit (scan view or two-frame unroll) per
/// call; run_scan_obd_atpg builds it once for the whole fault list.
ScanObdResult generate_scan_obd_test(const logic::SequentialCircuit& seq,
                                     const ObdFaultSite& site, ScanMode mode,
                                     const PodemOptions& opt = {});

/// Checks a scan test end to end by cycle-accurate simulation: loads
/// state1, runs the launch and capture cycles in both good and faulty
/// machines (gross-delay fault semantics on the capture cycle), and
/// compares POs + captured state.
bool verify_scan_obd_test(const logic::SequentialCircuit& seq,
                          const ObdFaultSite& site, const ScanObdTest& test);

/// `count` random broadside (launch/capture) scan tests for `mode`,
/// deterministic in `seed`: random state1/pi1 (and pi2 unless held); state2
/// is the machine's own response for the LOC modes and independently random
/// for enhanced scan. These are exactly the tests the random-pattern
/// prepass of run_scan_obd_atpg fault-simulates.
std::vector<ScanObdTest> random_broadside_tests(
    const logic::SequentialCircuit& seq, ScanMode mode, int count,
    std::uint64_t seed);

/// As above, reusing a prebuilt seq.scan_view() for the LOC next-state
/// derivation instead of reconstructing it.
std::vector<ScanObdTest> random_broadside_tests(
    const logic::SequentialCircuit& seq, const logic::Circuit& scan_view,
    ScanMode mode, int count, std::uint64_t seed);

/// The scan-view two-vector image of a scan test: v1 = {pi1, state1},
/// v2 = {pi2, state2} over the scan view's PI order (PIs, then flops).
TwoVectorTest scan_view_vectors(const logic::SequentialCircuit& seq,
                                const ScanObdTest& t);

/// Per-mode campaign over a fault list.
struct ScanCampaign {
  int found = 0;
  int untestable = 0;
  int aborted = 0;
  /// Of `found`, how many came from the random-pattern prepass.
  int random_found = 0;
  /// Prepass tests kept because they first-detected some fault (they are
  /// the first `random_tests` entries of `tests`).
  int random_tests = 0;
  /// Scheduler work metric of the prepass (Campaign::fault_block_evals).
  long long fault_block_evals = 0;
  /// Wall-clock seconds spent in the random prepass (generation + fault
  /// simulation); campaign drivers report it separately from PODEM time.
  double random_seconds = 0.0;
  /// PODEM effort summed over the deterministic searches.
  long backtracks = 0;
  long implications = 0;
  std::vector<ScanObdTest> tests;
};

/// With opt.random_phase > 0, a broadside random-pattern phase runs first:
/// the faults are block-simulated over the scan view against
/// random_broadside_tests() with fault dropping (opt.sim workers/lanes),
/// detected faults skip the deterministic search, and each random test that
/// first-detects some fault joins the campaign's test list. Core fault
/// indices carry over to the scan view (gate order is preserved), and the
/// engine's gross-delay semantics on the scan view match
/// verify_scan_obd_test exactly.
ScanCampaign run_scan_obd_atpg(const logic::SequentialCircuit& seq,
                               const std::vector<ObdFaultSite>& faults,
                               ScanMode mode, const PodemOptions& opt = {});

}  // namespace obd::atpg
