#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rqfp/gate.hpp"

namespace rcgp::rqfp {

/// Port index space of an RQFP netlist (matches the paper's CGP encoding,
/// Fig. 3): port 0 is the constant-1 input; ports 1..n_pi are the primary
/// inputs; gate g's output k is port n_pi + 1 + 3*g + k.
using Port = std::uint32_t;

inline constexpr Port kConstPort = 0;

/// Feed-forward netlist of RQFP logic gates.
///
/// Invariants (checked by `validate`):
///  * every gate input references the constant port, a PI port, or an
///    output port of a *preceding* gate (feed-forward / acyclic);
///  * single fan-out: every non-constant port is consumed at most once,
///    counting both gate inputs and primary-output bindings (constant-1 has
///    unlimited fan-out: it is supplied by the excitation current).
class Netlist {
public:
  struct Gate {
    std::array<Port, 3> in{kConstPort, kConstPort, kConstPort};
    InvConfig config;

    bool operator==(const Gate&) const = default;
  };

  Netlist() = default;
  explicit Netlist(unsigned num_pis) : num_pis_(num_pis) {}

  unsigned num_pis() const { return num_pis_; }
  unsigned num_pos() const { return static_cast<unsigned>(pos_.size()); }
  unsigned num_gates() const { return static_cast<unsigned>(gates_.size()); }

  /// Appends a gate; inputs must already exist. Returns the gate index.
  std::uint32_t add_gate(const std::array<Port, 3>& inputs, InvConfig config);
  std::uint32_t add_po(Port p, const std::string& name = "");
  void set_po(std::uint32_t index, Port p) { pos_[index] = p; }

  const Gate& gate(std::uint32_t g) const { return gates_[g]; }
  Gate& gate(std::uint32_t g) { return gates_[g]; }
  std::span<const Gate> gates() const { return gates_; }
  Port po_at(std::uint32_t i) const { return pos_[i]; }
  const std::string& po_name(std::uint32_t i) const { return po_names_[i]; }
  void set_pi_names(std::vector<std::string> names) {
    pi_names_ = std::move(names);
  }
  const std::string& pi_name(std::uint32_t i) const { return pi_names_[i]; }
  bool has_pi_names() const { return !pi_names_.empty(); }

  // ---- port arithmetic ----
  bool is_const_port(Port p) const { return p == kConstPort; }
  bool is_pi_port(Port p) const { return p >= 1 && p <= num_pis_; }
  bool is_gate_port(Port p) const { return p > num_pis_; }
  std::uint32_t gate_of_port(Port p) const {
    return (p - num_pis_ - 1) / 3;
  }
  unsigned slot_of_port(Port p) const { return (p - num_pis_ - 1) % 3; }
  Port port_of(std::uint32_t gate, unsigned output) const {
    return num_pis_ + 1 + 3 * gate + output;
  }
  Port first_free_port() const { return port_of(num_gates(), 0); }
  /// PI index (0-based) of a PI port.
  unsigned pi_of_port(Port p) const { return p - 1; }

  /// Number of consumers of each port (gate inputs + PO bindings); index =
  /// port number.
  std::vector<std::uint32_t> port_fanout() const;

  /// Empty string when valid, otherwise a description of the first
  /// violated invariant.
  std::string validate() const;

  /// Gate output ports consumed by no gate input and no PO: the garbage
  /// outputs n_g of the paper.
  std::uint32_t count_garbage_outputs() const;

  /// ASAP clock level of each gate (PIs and constant at level 0; a gate is
  /// one level after its latest input).
  std::vector<std::uint32_t> gate_levels() const;
  /// Allocation-free variant: writes the levels into `out`, reusing its
  /// capacity (the cost hot path calls this once per evaluation).
  void gate_levels(std::vector<std::uint32_t>& out) const;
  /// Circuit depth n_d = latest PO driver level (0 if no gate drives POs).
  std::uint32_t depth() const;
  /// Depth from precomputed gate levels (as returned by `gate_levels`), so
  /// callers that already hold the level vector skip the recomputation.
  std::uint32_t depth(std::span<const std::uint32_t> level) const;

  bool operator==(const Netlist&) const = default;

  /// Gates that are transitively useless (no output reaches a PO through
  /// consumed edges) — the nodes the paper's "shrink" step removes.
  std::vector<bool> live_gates() const;

  /// Copy with dead gates removed and ports renumbered. PO bindings and
  /// names are preserved.
  Netlist remove_dead_gates() const;

private:
  unsigned num_pis_ = 0;
  std::vector<Gate> gates_;
  std::vector<Port> pos_;
  std::vector<std::string> po_names_;
  std::vector<std::string> pi_names_;
};

} // namespace rcgp::rqfp
