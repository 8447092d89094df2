// Seeded c6288-style array multiplier generator for the stuck_mult
// workload: an n x n unsigned multiplier built from AND partial products
// and rows of ripple-carry adders (half adder at each row's low end, full
// adders elsewhere), emitted as ISCAS `.bench` text.
//
// The seed changes the netlist without changing its size or function:
// exactly half of the full adders use the NAND carry form instead of the
// AND/OR form, which half is a seeded choice, and the gate lines are
// written in a seeded order. Gate count and fault count are therefore the
// same for every seed, so run-to-run timing differences are not size
// differences.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "logic/circuit.hpp"

namespace campaign_bench {

/// `.bench` text of an n x n array multiplier (PIs A0..A{n-1}, B0..B{n-1};
/// POs P0..P{2n-1}, LSB first). n must be in [2, 32].
std::string array_multiplier_bench(int n, std::uint64_t seed);

/// FNV-1a over bytes: the netlist content hash recorded per seed.
std::uint64_t fnv1a64(std::string_view bytes);

/// Checks the product outputs of a parsed multiplier against integer
/// multiplication on edge-case and seeded random operands. Returns an
/// empty string when every product matches, else a diagnostic.
std::string check_multiplier(const obd::logic::Circuit& c, int n,
                             std::uint64_t seed);

}  // namespace campaign_bench
