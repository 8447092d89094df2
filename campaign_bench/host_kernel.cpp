#include "host_kernel.hpp"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace campaign_bench {
namespace {

/// 64-pattern blocks simulated per run: ~50 ms on the reference host.
constexpr int kBlocks = 1500;

enum Op { kInput, kAnd, kNand, kOr, kNor, kXor, kXnor, kNot, kBuf };

struct Node {
  Op op = kInput;
  std::vector<int> in;
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\r')) s.remove_suffix(1);
  return s;
}

Op op_of(std::string_view fn) {
  if (fn == "AND") return kAnd;
  if (fn == "NAND") return kNand;
  if (fn == "OR") return kOr;
  if (fn == "NOR") return kNor;
  if (fn == "XOR") return kXor;
  if (fn == "XNOR") return kXnor;
  if (fn == "NOT") return kNot;
  return kBuf;
}

/// Parses, levelizes and simulates `text`; returns a hash of the outputs.
std::uint64_t kernel(const std::string& text) {
  std::unordered_map<std::string, int> ids;
  std::vector<Node> nodes;
  std::vector<int> inputs, outputs;
  auto id = [&](std::string_view name) {
    const auto [it, added] =
        ids.emplace(std::string(name), static_cast<int>(nodes.size()));
    if (added) nodes.emplace_back();
    return it->second;
  };

  std::string_view rest(text);
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    const std::string_view line = trim(rest.substr(0, eol));
    rest.remove_prefix(eol == std::string_view::npos ? rest.size() : eol + 1);
    const std::size_t lp = line.find('('), rp = line.rfind(')');
    if (line.empty() || line.front() == '#' || lp == std::string_view::npos ||
        rp == std::string_view::npos)
      continue;
    const std::string_view args = line.substr(lp + 1, rp - lp - 1);
    if (line.substr(0, 5) == "INPUT") {
      inputs.push_back(id(trim(args)));
      continue;
    }
    if (line.substr(0, 6) == "OUTPUT") {
      outputs.push_back(id(trim(args)));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq > lp) continue;
    const int out = id(trim(line.substr(0, eq)));
    std::vector<int> in;
    for (std::string_view a = args; !a.empty();) {
      const std::size_t comma = a.find(',');
      in.push_back(id(trim(a.substr(0, comma))));
      a.remove_prefix(comma == std::string_view::npos ? a.size() : comma + 1);
    }
    nodes[out].op = op_of(trim(line.substr(eq + 1, lp - eq - 1)));
    nodes[out].in = std::move(in);
  }

  // Levelize: depth-first, inputs before the gates that read them.
  std::vector<int> order, stack;
  std::vector<char> done(nodes.size(), 0);
  order.reserve(nodes.size());
  for (int root = 0; root < static_cast<int>(nodes.size()); ++root) {
    if (done[root]) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const int g = stack.back();
      bool ready = true;
      for (const int i : nodes[g].in)
        if (!done[i]) {
          stack.push_back(i);
          ready = false;
        }
      if (!ready) continue;
      stack.pop_back();
      if (!done[g]) {
        done[g] = 1;
        order.push_back(g);
      }
    }
  }

  std::vector<std::uint64_t> v(nodes.size(), 0);
  std::uint64_t state = 0x9e3779b97f4a7c15ull, hash = 1469598103934665603ull;
  for (int b = 0; b < kBlocks; ++b) {
    for (const int i : inputs) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      v[i] = state;
    }
    for (const int g : order) {
      const Node& n = nodes[g];
      if (n.op == kInput || n.in.empty()) continue;
      std::uint64_t x = v[n.in[0]];
      for (std::size_t k = 1; k < n.in.size(); ++k) {
        const std::uint64_t y = v[n.in[k]];
        switch (n.op) {
          case kAnd: case kNand: x &= y; break;
          case kOr: case kNor: x |= y; break;
          default: x ^= y; break;
        }
      }
      const bool invert = n.op == kNand || n.op == kNor || n.op == kXnor || n.op == kNot;
      v[g] = invert ? ~x : x;
    }
    for (const int o : outputs) hash = (hash ^ v[o]) * 1099511628211ull;
  }
  return hash;
}

}  // namespace

HostKernel::HostKernel(std::string bench_text) : text_(std::move(bench_text)) {}

double HostKernel::run() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t h = kernel(text_);
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (!ran_) first_ = h;
  stable_ = stable_ && h == first_;
  ran_ = true;
  return s;
}

}  // namespace campaign_bench
