#include "multiplier.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "logic/inputvec.hpp"

namespace campaign_bench {
namespace {

/// SplitMix64: a fixed, portable sequence (std:: distributions are not),
/// so a seed names the same netlist on every platform.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t& state) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[splitmix64(state) % i]);
}

class Netlist {
 public:
  void gate(const std::string& out, const char* fn, const std::string& a,
            const std::string& b) {
    lines_.push_back(out + " = " + fn + "(" + a + ", " + b + ")");
  }
  /// Half adder; returns {sum, carry}.
  std::pair<std::string, std::string> half(const std::string& cell,
                                           const std::string& a,
                                           const std::string& b) {
    gate(cell + "_s", "XOR", a, b);
    gate(cell + "_c", "AND", a, b);
    return {cell + "_s", cell + "_c"};
  }
  /// Full adder, carry = ab + (a^b)cin as AND/OR or as three NANDs.
  std::pair<std::string, std::string> full(const std::string& cell,
                                           const std::string& a,
                                           const std::string& b,
                                           const std::string& cin,
                                           bool nand_carry) {
    gate(cell + "_t", "XOR", a, b);
    gate(cell + "_s", "XOR", cell + "_t", cin);
    gate(cell + "_g", nand_carry ? "NAND" : "AND", a, b);
    gate(cell + "_p", nand_carry ? "NAND" : "AND", cell + "_t", cin);
    gate(cell + "_c", nand_carry ? "NAND" : "OR", cell + "_g", cell + "_p");
    return {cell + "_s", cell + "_c"};
  }
  std::vector<std::string>& lines() { return lines_; }

 private:
  std::vector<std::string> lines_;
};

std::string pp(int i, int j) {
  return "pp_" + std::to_string(i) + "_" + std::to_string(j);
}

}  // namespace

std::string array_multiplier_bench(int n, std::uint64_t seed) {
  if (n < 2 || n > 32)
    throw std::invalid_argument("array_multiplier_bench: n must be 2..32");
  std::uint64_t state = seed;

  // Row 1 has n - 2 full adders (its top cell has no carry-in from a
  // previous row); rows 2..n-1 have n - 1 each. Exactly half take the
  // NAND carry form.
  const std::size_t n_fa = static_cast<std::size_t>((n - 2) * n);
  std::vector<char> nand_form(n_fa, 0);
  for (std::size_t k = 0; k < n_fa / 2; ++k) nand_form[k] = 1;
  shuffle(nand_form, state);
  std::size_t fa = 0;

  Netlist net;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      net.gate(pp(i, j), "AND", "A" + std::to_string(i), "B" + std::to_string(j));

  std::vector<std::string> sum(n), product;
  for (int i = 0; i < n; ++i) sum[i] = pp(i, 0);
  product.push_back(sum[0]);
  std::string top;  // carry out of the previous row ("" before row 1)
  for (int j = 1; j < n; ++j) {
    std::vector<std::string> next(n);
    std::string carry;
    for (int i = 0; i < n; ++i) {
      const std::string cell = "r" + std::to_string(j) + "c" + std::to_string(i);
      const std::string x = i + 1 < n ? sum[i + 1] : top;
      std::pair<std::string, std::string> sc;
      if (i == 0) sc = net.half(cell, x, pp(i, j));
      else if (x.empty()) sc = net.half(cell, pp(i, j), carry);
      else sc = net.full(cell, x, pp(i, j), carry, nand_form[fa++] != 0);
      next[i] = sc.first;
      carry = sc.second;
    }
    top = carry;
    sum = std::move(next);
    product.push_back(sum[0]);
  }
  for (int i = 1; i < n; ++i) product.push_back(sum[i]);
  product.push_back(top);

  std::vector<std::string>& lines = net.lines();
  shuffle(lines, state);
  std::string text = "# " + std::to_string(n) + "x" + std::to_string(n) +
                     " array multiplier, seed " + std::to_string(seed) + "\n";
  for (const char* side : {"A", "B"})
    for (int i = 0; i < n; ++i)
      text += std::string("INPUT(") + side + std::to_string(i) + ")\n";
  for (const std::string& p : product) text += "OUTPUT(" + p + ")\n";
  for (const std::string& l : lines) text += l + "\n";
  return text;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string check_multiplier(const obd::logic::Circuit& c, int n,
                             std::uint64_t seed) {
  if (c.inputs().size() != static_cast<std::size_t>(2 * n) ||
      c.outputs().size() != static_cast<std::size_t>(2 * n))
    return "multiplier has " + std::to_string(c.inputs().size()) + " PIs and " +
           std::to_string(c.outputs().size()) + " POs";
  const std::uint64_t mask = (1ull << n) - 1;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> operands = {
      {0, 0}, {mask, mask}, {1, mask}, {mask, 1}, {mask, 0}};
  std::uint64_t state = seed ^ 0x6d756c7469706c79ull;
  for (int k = 0; k < 64; ++k) {
    const std::uint64_t a = splitmix64(state) & mask;
    operands.emplace_back(a, splitmix64(state) & mask);
  }
  for (const auto& [a, b] : operands) {
    obd::logic::InputVec v;
    for (int i = 0; i < n; ++i) {
      v.set_bit(static_cast<std::size_t>(i), (a >> i) & 1u);
      v.set_bit(static_cast<std::size_t>(n + i), (b >> i) & 1u);
    }
    const std::uint64_t got = c.eval_outputs(v).word(0);
    const std::uint64_t want = a * b;
    const std::uint64_t pmask = 2 * n == 64 ? ~0ull : ((1ull << (2 * n)) - 1);
    if ((got & pmask) != (want & pmask))
      return std::to_string(a) + " * " + std::to_string(b) + " gave " +
             std::to_string(got & pmask) + ", want " + std::to_string(want);
  }
  return {};
}

}  // namespace campaign_bench
