#include "io/bench.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.hpp"

namespace obd::io {
namespace {

using logic::Circuit;
using logic::GateType;
using logic::NetId;

std::string upper(std::string_view s) {
  std::string u(s);
  for (char& ch : u) ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  return u;
}

/// One `.bench` statement, syntax-checked but not yet elaborated.
struct Statement {
  enum Kind { kInput, kOutput, kGate, kDff } kind;
  int line = 0;
  std::string lhs;                ///< net defined (or listed, for IN/OUT)
  std::string func;               ///< uppercased function name (gates only)
  std::vector<std::string> args;  ///< argument nets
};

bool valid_net_name(std::string_view s) {
  return !s.empty() &&
         s.find_first_of(" \t,()=#") == std::string_view::npos;
}

/// Splits "LHS = FUNC(a, b)" / "INPUT(x)" into fields. Returns empty
/// string on success, else a syntax message.
std::string split_statement(const std::string& line, Statement& st) {
  const auto eq = line.find('=');
  const auto open = line.find('(');
  const auto close = line.rfind(')');
  if (open == std::string::npos || close == std::string::npos || close < open)
    return "expected '<net> = <FUNC>(<nets>)' or INPUT(...)/OUTPUT(...)";
  if (!util::trim(std::string_view(line).substr(close + 1)).empty())
    return "trailing text after ')'";
  std::string head = std::string(util::trim(line.substr(0, open)));
  const std::string inner = line.substr(open + 1, close - open - 1);
  if (eq == std::string::npos || eq > open) {
    // INPUT(x) / OUTPUT(x)
    const std::string kw = upper(head);
    if (kw == "INPUT")
      st.kind = Statement::kInput;
    else if (kw == "OUTPUT")
      st.kind = Statement::kOutput;
    else
      return "unknown directive '" + head + "'";
    st.lhs = std::string(util::trim(inner));
    if (!valid_net_name(st.lhs)) return "bad net name in " + kw + "()";
    return "";
  }
  st.lhs = std::string(util::trim(line.substr(0, eq)));
  if (!valid_net_name(st.lhs)) return "bad net name before '='";
  st.func = upper(util::trim(line.substr(eq + 1, open - eq - 1)));
  if (st.func.empty()) return "missing gate function after '='";
  for (const auto& a : util::split(inner, ',')) {
    const auto t = util::trim(a);
    if (!valid_net_name(t)) return "bad net name in gate argument list";
    st.args.emplace_back(t);
  }
  if (st.args.empty()) return "gate needs at least one argument";
  st.kind = st.func == "DFF" ? Statement::kDff : Statement::kGate;
  return "";
}

/// Helper-net factory: "<base>_bN", unique against every declared name and
/// every net created so far.
class FreshNets {
 public:
  FreshNets(Circuit& c, const std::unordered_set<std::string>& declared)
      : c_(c), declared_(declared) {}

  NetId make(const std::string& base) {
    for (;;) {
      std::string name = base + "_b" + std::to_string(counter_++);
      if (declared_.count(name) || c_.find_net(name) != logic::kNoNet) continue;
      return c_.net(name);
    }
  }

 private:
  Circuit& c_;
  const std::unordered_set<std::string>& declared_;
  int counter_ = 0;
};

/// Balanced binary reduction with `pair_type` gates into helper nets;
/// returns the root net. `ins` must be non-empty; a single input is
/// returned untouched.
NetId reduce_tree(Circuit& c, FreshNets& fresh, GateType pair_type,
                  std::vector<NetId> ins, const std::string& base) {
  while (ins.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < ins.size(); i += 2) {
      const NetId o = fresh.make(base);
      c.add_gate(pair_type, c.net_name(o), {ins[i], ins[i + 1]}, o);
      next.push_back(o);
    }
    if (ins.size() & 1) next.push_back(ins.back());
    ins.swap(next);
  }
  return ins[0];
}

/// Widest native primitive for an inverting-root function, or the pair
/// gate for the tree below it.
GateType nand_of(std::size_t n) {
  return n == 2 ? GateType::kNand2
                : n == 3 ? GateType::kNand3 : GateType::kNand4;
}
GateType nor_of(std::size_t n) {
  return n == 2 ? GateType::kNor2
                : n == 3 ? GateType::kNor3 : GateType::kNor4;
}

/// Elaborates one combinational `.bench` gate onto `out`, decomposing
/// fan-in beyond the stdcell arities. The root gate keeps the statement's
/// function (on the widest native primitive) so the named output net still
/// carries that gate's fault sites.
void build_gate(Circuit& c, FreshNets& fresh, const std::string& func,
                const std::vector<NetId>& ins, NetId out) {
  // A copy, not a reference: reduce_tree adds fresh nets, which can
  // reallocate the circuit's net-name storage.
  const std::string name = c.net_name(out);
  const std::size_t n = ins.size();
  auto halves = [&](GateType pair_type) {
    // Two balanced sub-trees feeding a 2-input root.
    const std::size_t mid = n / 2;
    std::vector<NetId> lo(ins.begin(), ins.begin() + static_cast<std::ptrdiff_t>(mid));
    std::vector<NetId> hi(ins.begin() + static_cast<std::ptrdiff_t>(mid), ins.end());
    return std::pair{reduce_tree(c, fresh, pair_type, std::move(lo), name),
                     reduce_tree(c, fresh, pair_type, std::move(hi), name)};
  };
  if (func == "NOT" || (n == 1 && (func == "NAND" || func == "NOR" ||
                                   func == "XNOR"))) {
    c.add_gate(GateType::kInv, name, {ins[0]}, out);
  } else if (func == "BUFF" || func == "BUF" || n == 1) {
    // Single-input AND/OR/XOR degenerate to a buffer.
    c.add_gate(GateType::kBuf, name, {ins[0]}, out);
  } else if (func == "AND") {
    const auto [l, r] = halves(GateType::kAnd2);
    c.add_gate(GateType::kAnd2, name, {l, r}, out);
  } else if (func == "OR") {
    const auto [l, r] = halves(GateType::kOr2);
    c.add_gate(GateType::kOr2, name, {l, r}, out);
  } else if (func == "NAND") {
    if (n <= 4) {
      c.add_gate(nand_of(n), name, ins, out);
    } else {
      const auto [l, r] = halves(GateType::kAnd2);
      c.add_gate(GateType::kNand2, name, {l, r}, out);
    }
  } else if (func == "NOR") {
    if (n <= 4) {
      c.add_gate(nor_of(n), name, ins, out);
    } else {
      const auto [l, r] = halves(GateType::kOr2);
      c.add_gate(GateType::kNor2, name, {l, r}, out);
    }
  } else if (func == "XOR") {
    const auto [l, r] = halves(GateType::kXor2);
    c.add_gate(GateType::kXor2, name, {l, r}, out);
  } else {  // XNOR (validated upstream)
    const auto [l, r] = halves(GateType::kXor2);
    c.add_gate(GateType::kXnor2, name, {l, r}, out);
  }
}

bool known_func(const std::string& f) {
  static const std::unordered_set<std::string> kFuncs = {
      "AND", "NAND", "OR", "NOR", "NOT", "BUFF", "BUF", "XOR", "XNOR", "DFF"};
  return kFuncs.count(f) > 0;
}

}  // namespace

BenchParseResult parse_bench(const std::string& text, const std::string& name) {
  BenchParseResult result;
  auto fail = [&result](int line, const std::string& msg) {
    result.error = "line " + std::to_string(line) + ": " + msg;
    return result;
  };

  // Pass 1: syntax. Collect statements; remember where each net is defined
  // (INPUT or left-hand side) and first used, for the reference checks.
  std::vector<Statement> stmts;
  {
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      if (util::trim(line).empty()) continue;
      Statement st;
      st.line = line_no;
      const std::string err = split_statement(line, st);
      if (!err.empty()) return fail(line_no, err);
      if (st.kind == Statement::kGate && !known_func(st.func))
        return fail(line_no, "unknown gate function '" + st.func + "'");
      if (st.kind == Statement::kDff && st.args.size() != 1)
        return fail(line_no, "DFF takes exactly one input");
      if (st.kind == Statement::kGate &&
          (st.func == "NOT" || st.func == "BUFF" || st.func == "BUF") &&
          st.args.size() != 1)
        return fail(line_no, st.func + " takes exactly one input");
      stmts.push_back(std::move(st));
    }
  }

  // Pass 2: reference checks over the whole file (definitions may follow
  // uses, as in every published ISCAS netlist).
  std::unordered_map<std::string, int> defined_at;  // INPUT or lhs
  std::unordered_map<std::string, int> output_at;
  std::unordered_set<std::string> is_input;
  std::unordered_set<std::string> declared;
  for (const auto& st : stmts) {
    if (st.kind == Statement::kOutput) {
      const auto [it, fresh] = output_at.emplace(st.lhs, st.line);
      if (!fresh)
        return fail(st.line, "duplicate OUTPUT('" + st.lhs +
                                 "'), first declared on line " +
                                 std::to_string(it->second));
      continue;
    }
    declared.insert(st.lhs);
    for (const auto& a : st.args) declared.insert(a);
    const auto [it, fresh] = defined_at.emplace(st.lhs, st.line);
    if (st.kind == Statement::kInput) {
      if (!fresh)
        return fail(st.line, is_input.count(st.lhs)
                                 ? "duplicate INPUT('" + st.lhs + "')"
                                 : "INPUT('" + st.lhs +
                                       "') already driven by the gate on line " +
                                       std::to_string(it->second));
      is_input.insert(st.lhs);
    } else if (!fresh) {
      return fail(st.line,
                  is_input.count(st.lhs)
                      ? "gate drives INPUT('" + st.lhs + "') declared on line " +
                            std::to_string(it->second)
                      : "net '" + st.lhs + "' already driven on line " +
                            std::to_string(it->second));
    }
  }
  for (const auto& st : stmts) {
    if (st.kind == Statement::kInput) continue;
    if (st.kind == Statement::kOutput) {
      if (!defined_at.count(st.lhs))
        return fail(st.line, "OUTPUT net '" + st.lhs + "' is never defined");
      continue;
    }
    for (const auto& a : st.args)
      if (!defined_at.count(a))
        return fail(st.line, "net '" + a + "' is used but never defined");
  }

  // Pass 3: elaborate. PIs in INPUT order, gates in file order, POs in
  // OUTPUT order, flops in DFF order.
  Circuit c(name);
  for (const auto& st : stmts)
    if (st.kind == Statement::kInput) c.add_input(st.lhs);
  FreshNets fresh(c, declared);
  for (const auto& st : stmts) {
    if (st.kind != Statement::kGate) continue;
    std::vector<NetId> ins;
    ins.reserve(st.args.size());
    for (const auto& a : st.args) ins.push_back(c.net(a));
    build_gate(c, fresh, st.func, ins, c.net(st.lhs));
  }
  for (const auto& st : stmts)
    if (st.kind == Statement::kOutput) c.mark_output(c.net(st.lhs));

  const std::string diag = c.validate();
  if (!diag.empty()) {
    if (diag.find("cycle") != std::string::npos) {
      // Attribute the cycle to the first statement whose gate never became
      // topologically ready.
      std::vector<std::uint8_t> in_topo(c.num_gates(), 0);
      for (int g : c.topo_order()) in_topo[static_cast<std::size_t>(g)] = 1;
      for (const auto& st : stmts) {
        if (st.kind != Statement::kGate) continue;
        const int g = c.driver_of(c.net(st.lhs));
        if (g >= 0 && !in_topo[static_cast<std::size_t>(g)])
          return fail(st.line, "combinational cycle through net '" + st.lhs + "'");
      }
    }
    result.error = diag;
    return result;
  }

  logic::SequentialCircuit seq(std::move(c));
  for (const auto& st : stmts)
    if (st.kind == Statement::kDff)
      seq.add_flop(st.lhs, seq.core().net(st.lhs), seq.core().net(st.args[0]));
  const std::string seq_diag = seq.validate();
  if (!seq_diag.empty()) {
    result.error = seq_diag;
    return result;
  }
  result.ok = true;
  result.seq = std::move(seq);
  return result;
}

BenchParseResult load_bench_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    BenchParseResult r;
    r.error = "cannot open '" + path + "'";
    return r;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  auto stem = path;
  if (const auto slash = stem.find_last_of('/'); slash != std::string::npos)
    stem.erase(0, slash + 1);
  if (const auto dot = stem.find_last_of('.'); dot != std::string::npos)
    stem.erase(dot);
  return parse_bench(ss.str(), stem);
}

namespace {

/// `.bench` function name of a directly expressible gate; nullptr for the
/// AOI/OAI cells, which write_bench lowers to helper lines.
const char* bench_func(GateType t) {
  switch (t) {
    case GateType::kBuf: return "BUFF";
    case GateType::kInv: return "NOT";
    case GateType::kNand2:
    case GateType::kNand3:
    case GateType::kNand4: return "NAND";
    case GateType::kNor2:
    case GateType::kNor3:
    case GateType::kNor4: return "NOR";
    case GateType::kAnd2: return "AND";
    case GateType::kOr2: return "OR";
    case GateType::kXor2: return "XOR";
    case GateType::kXnor2: return "XNOR";
    default: return nullptr;
  }
}

void write_gate_line(std::string& out, const Circuit& c, const char* func,
                     const std::string& lhs, const std::vector<NetId>& ins) {
  out += lhs + " = " + func + "(";
  for (std::size_t k = 0; k < ins.size(); ++k) {
    if (k) out += ", ";
    out += c.net_name(ins[k]);
  }
  out += ")\n";
}

std::string helper_name(const Circuit& c, const std::string& base, int& k) {
  for (;;) {
    std::string name = base + "_w" + std::to_string(k++);
    if (c.find_net(name) == logic::kNoNet) return name;
  }
}

}  // namespace

std::string write_bench(const logic::SequentialCircuit& seq) {
  const Circuit& c = seq.core();
  std::string out = "# " + c.name() + "\n";
  for (NetId n : c.inputs()) out += "INPUT(" + c.net_name(n) + ")\n";
  for (NetId n : c.outputs()) out += "OUTPUT(" + c.net_name(n) + ")\n";
  for (const auto& f : seq.flops())
    out += c.net_name(f.q) + " = DFF(" + c.net_name(f.d) + ")\n";
  int fresh = 0;
  for (const auto& g : c.gates()) {
    const std::string& lhs = c.net_name(g.output);
    if (const char* func = bench_func(g.type)) {
      write_gate_line(out, c, func, lhs, g.inputs);
      continue;
    }
    // AOI/OAI have no .bench spelling: emit the equivalent two-level form.
    switch (g.type) {
      case GateType::kAoi21: {
        const std::string t = helper_name(c, lhs, fresh);
        out += t + " = AND(" + c.net_name(g.inputs[0]) + ", " +
               c.net_name(g.inputs[1]) + ")\n";
        out += lhs + " = NOR(" + t + ", " + c.net_name(g.inputs[2]) + ")\n";
        break;
      }
      case GateType::kAoi22: {
        const std::string t1 = helper_name(c, lhs, fresh);
        const std::string t2 = helper_name(c, lhs, fresh);
        out += t1 + " = AND(" + c.net_name(g.inputs[0]) + ", " +
               c.net_name(g.inputs[1]) + ")\n";
        out += t2 + " = AND(" + c.net_name(g.inputs[2]) + ", " +
               c.net_name(g.inputs[3]) + ")\n";
        out += lhs + " = NOR(" + t1 + ", " + t2 + ")\n";
        break;
      }
      default: {  // kOai21
        const std::string t = helper_name(c, lhs, fresh);
        out += t + " = OR(" + c.net_name(g.inputs[0]) + ", " +
               c.net_name(g.inputs[1]) + ")\n";
        out += lhs + " = NAND(" + t + ", " + c.net_name(g.inputs[2]) + ")\n";
        break;
      }
    }
  }
  return out;
}

std::string write_bench(const logic::Circuit& c) {
  return write_bench(logic::SequentialCircuit(c));
}

}  // namespace obd::io
