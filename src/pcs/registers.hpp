// Status registers of the PCS routing control unit (paper Fig. 3).
//
// For every wave switch S_i and every node, the unit tracks per output
// channel: free/reserved/busy/faulty status (a control channel and its
// paired data channel are reserved together, so a single status covers the
// pair), the direct and reverse mappings between input and output channels
// of the circuits/probes crossing the node, and the Ack-Returned bit.
//
// Each bank also keeps the status and Ack-Returned bits as 32-bit port
// masks (bit p = output port p): free, reserved, busy and ack-returned; a
// faulty port is in none of the first three. The probe's MB-m step reads
// only these words (pcs/mbm.hpp). Every mutator updates the masks with the
// per-channel registers, and a snapshot load rebuilds them from those
// registers, so the masks are derived state and never serialized.
//
// Layout: like the unit's fixed-size register arrays, the RegisterFile
// holds every channel's registers in one [node][switch][port] array and
// one SwitchRegisters record (masks, version, and a pointer to its
// num_ports channels) per (node, switch) bank, in a second array: two
// allocations for the whole network, none per bank.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/types.hpp"

namespace wavesim::snap {
class Archive;
}  // namespace wavesim::snap

namespace wavesim::pcs {

/// Most output ports a node may have: status, history and view masks
/// keep one bit per port in 32-bit words.
inline constexpr std::int32_t kMaxPorts = 32;

/// Pseudo-port used in mappings for circuits that start (input side) or
/// terminate (output side) at this node.
inline constexpr PortId kLocalEndpoint = -2;

enum class ChannelStatus : std::uint8_t {
  kFree,
  kReservedByProbe,  ///< a probe holds the pair while searching
  kBusyCircuit,      ///< an established (or establishing-won) circuit owns it
  kFaulty,           ///< static fault; never selectable
};

const char* to_string(ChannelStatus status) noexcept;

/// Registers of one output channel pair.
struct OutChannel {
  ChannelStatus status = ChannelStatus::kFree;
  ProbeId probe = kInvalidProbe;
  CircuitId circuit = kInvalidCircuit;
  bool ack_returned = false;
  PortId in_port = kInvalidPort;  ///< reverse mapping
};

/// Registers of one (node, wave switch) pair: the bank's masks and
/// version, over num_ports channels held by the owning RegisterFile.
class SwitchRegisters {
 public:
  /// A bank over `num_ports` channels at `channels`; built by
  /// RegisterFile, which owns the channel array.
  SwitchRegisters(OutChannel* channels, std::int32_t num_ports);
  // A copy would alias the channels but not the masks.
  SwitchRegisters(const SwitchRegisters&) = delete;
  SwitchRegisters& operator=(const SwitchRegisters&) = delete;
  SwitchRegisters(SwitchRegisters&&) noexcept = default;

  std::int32_t num_ports() const noexcept { return num_ports_; }

  // Hot-path queries (probe stepping reads these per port per cycle);
  // inline, bounds-checked.
  ChannelStatus status(PortId out_port) const { return at(out_port).status; }
  ProbeId reserving_probe(PortId out_port) const { return at(out_port).probe; }
  CircuitId owning_circuit(PortId out_port) const {
    return at(out_port).circuit;
  }
  bool ack_returned(PortId out_port) const {
    return at(out_port).ack_returned;
  }

  /// Port masks of the status and Ack-Returned registers (bit p = port p).
  std::uint32_t free_mask() const noexcept { return free_; }
  std::uint32_t reserved_mask() const noexcept { return reserved_; }
  std::uint32_t busy_mask() const noexcept { return busy_; }
  std::uint32_t ack_mask() const noexcept { return acked_; }

  /// Mutation counter: bumped by every call below that changes a channel,
  /// so an unchanged value means an unchanged bank (a parked Force probe
  /// reuses its wait decision while it holds). Never decreases.
  std::uint64_t version() const noexcept { return version_; }

  /// Reserve the (control, data) channel pair for a searching probe.
  void reserve(PortId out_port, ProbeId probe, PortId in_port);
  /// Probe backtracked: release the reservation.
  void release_reservation(PortId out_port);
  /// Probe succeeded: the pair now belongs to `circuit` (still awaiting ack).
  void commit(PortId out_port, CircuitId circuit);
  /// Ack passed through on its way back to the source.
  void mark_ack_returned(PortId out_port);
  /// Teardown: the pair is free again.
  void release_circuit(PortId out_port);
  void mark_faulty(PortId out_port);
  /// Link recovery (dynamic faults): the channel pair is selectable again.
  void clear_faulty(PortId out_port);

  /// Mapping queries (paper: Direct / Reverse Channel Mappings). Input and
  /// output are ports of this node; kLocalEndpoint marks circuit ends.
  PortId direct_map(PortId in_port) const;   ///< in  -> out
  PortId reverse_map(PortId out_port) const; ///< out -> in

  /// Count of channels in each status (diagnostics / tests).
  std::int32_t count(ChannelStatus status) const;

  /// Serialize every output channel's registers (snapshot/restore).
  void snap(snap::Archive& ar);

 private:
  PortId checked(PortId out_port) const {
    if (out_port < 0 || out_port >= num_ports_) {
      throw std::out_of_range("SwitchRegisters: port out of range");
    }
    return out_port;
  }
  const OutChannel& at(PortId out_port) const {
    return out_[checked(out_port)];
  }
  OutChannel& at(PortId out_port);
  /// Recompute every port mask from the per-channel registers.
  void rebuild_masks() noexcept;

  /// This bank's slice of RegisterFile::channels_.
  OutChannel* out_;
  std::int32_t num_ports_;
  /// Port masks derived from out_: not written, rebuilt when snap() reads.
  std::uint32_t free_ = 0;
  std::uint32_t reserved_ = 0;
  std::uint32_t busy_ = 0;
  std::uint32_t acked_ = 0;
  std::uint64_t version_ = 0;  // [snap: skip] host-side change detector; a restore discards every decision cached against it
};

/// All PCS registers of the network: [node][switch_index].
class RegisterFile {
 public:
  RegisterFile(std::int32_t num_nodes, std::int32_t num_ports,
               std::int32_t num_switches);

  std::int32_t num_switches() const noexcept { return num_switches_; }
  SwitchRegisters& at(NodeId node, std::int32_t switch_index) {
    return banks_.at(bank_index(node, switch_index));
  }
  const SwitchRegisters& at(NodeId node, std::int32_t switch_index) const {
    return banks_.at(bank_index(node, switch_index));
  }

  /// Serialize all (node, switch) register banks (snapshot/restore).
  void snap(snap::Archive& ar);

 private:
  std::size_t bank_index(NodeId node, std::int32_t switch_index) const {
    if (switch_index < 0 || switch_index >= num_switches_) {
      throw std::out_of_range("RegisterFile: switch out of range");
    }
    return static_cast<std::size_t>(node) * num_switches_ + switch_index;
  }

  // The control plane runs in the sequential phase only.
  /// [shard: seq] [snap: skip] derived from config at construction
  std::int32_t num_switches_;
  /// [node][switch][port], node-major. [shard: seq] [snap: skip]
  /// structural backing store; each bank's snap() serializes its slice.
  std::vector<OutChannel> channels_;
  /// [node][switch], node-major; bank b addresses channels_ from
  /// b * num_ports. [shard: seq]
  std::vector<SwitchRegisters> banks_;
};

}  // namespace wavesim::pcs
