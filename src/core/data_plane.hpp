// Circuit data plane: wave-pipelined transfers over established circuits.
//
// Once a circuit is established there is no link-level flow control and no
// per-hop buffering (paper section 2): flits stream across switches
// S_1..S_k at the wave clock. We model a circuit as a fixed-latency pipe of
// `hops / wave_clock_factor` base cycles carrying `circuit_flits_per_cycle`
// flits per base cycle, governed by the end-to-end window protocol between
// the injection buffer and the delivery buffer: at most `window` flits may
// be unacknowledged, acks returning over the circuit's reverse control
// path with the same pipe latency.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/circuit.hpp"
#include "sim/types.hpp"

namespace wavesim::snap {
class Archive;
}  // namespace wavesim::snap

namespace wavesim::core {

struct DataPlaneParams {
  double flits_per_cycle = 4.0;  ///< circuit bandwidth in flits / base cycle
  double wave_clock_factor = 4.0;
  std::int32_t window = 32;      ///< end-to-end window, flits
};

/// A message transfer completed: the tail flit's ack reached the source
/// (the paper's trigger for clearing the In-use bit).
struct TransferDone {
  MessageId msg = kInvalidMessage;
  CircuitId circuit = kInvalidCircuit;
  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;
  Cycle delivered_at = 0;  ///< last flit reached the destination
  Cycle acked_at = 0;      ///< last ack reached the source
};

class DataPlane {
 public:
  DataPlane(CircuitTable& circuits, const DataPlaneParams& params);

  /// Begin transmitting `length` flits of `msg` on `circuit` (state must
  /// be kEstablished and not in_use; sets in_use). The first flit enters
  /// the pipe no earlier than `now + start_delay` (software messaging
  /// overhead and/or delivery-buffer re-allocation).
  void start_transfer(MessageId msg, CircuitId circuit, std::int32_t length,
                      Cycle now, Cycle start_delay = 0);

  void step(Cycle now);

  /// Transfers completed since the previous call. The buffer is reused:
  /// the reference is valid until the next call.
  const std::vector<TransferDone>& take_completed();

  /// The circuit died (dynamic link failure): drop its in-flight transfer,
  /// if any, and return the carried message so the source can resend it
  /// over the wormhole plane (kInvalidMessage when the circuit was idle).
  /// Flits already delivered are lost with the circuit; the message only
  /// counts as delivered when some path carries it end to end.
  MessageId abort_transfer(CircuitId circuit);

  std::size_t active_transfers() const noexcept { return transfers_.size(); }
  std::uint64_t flits_delivered() const noexcept { return flits_delivered_; }
  std::uint64_t transfers_aborted() const noexcept { return transfers_aborted_; }

  /// Pipe latency in base cycles for a circuit of `hops` hops.
  Cycle pipe_latency(std::int32_t hops) const;

  /// Serialize in-flight transfers, undrained completions, and counters
  /// (snapshot/restore).
  void snap(snap::Archive& ar);

 private:
  struct Transfer {
    MessageId msg = kInvalidMessage;
    CircuitId circuit = kInvalidCircuit;
    std::int32_t length = 0;
    std::int32_t sent = 0;    ///< flits injected so far
    std::int32_t acked = 0;   ///< flit acks received at the source
    double send_credit = 0.0; ///< fractional-bandwidth accumulator
    Cycle started = 0;
    Cycle not_before = 0;     ///< start delay (software / re-allocation)
    Cycle pipe = 1;           ///< one-way latency in base cycles
    Cycle last_delivery = 0;
    /// (cycle flit arrives at dest) for in-flight flits; FIFO popped by
    /// advancing `deliveries_head` (no O(n) front erase on the hot path).
    std::vector<Cycle> deliveries;
    std::size_t deliveries_head = 0;
  };

  CircuitTable& circuits_;
  DataPlaneParams params_;  // [snap: skip] config, fixed at construction
  std::map<MessageId, Transfer> transfers_;
  std::vector<TransferDone> completed_;
  /// The buffer take_completed() last returned, swapped back in on the
  /// next call so neither vector reallocates in steady state.
  std::vector<TransferDone> drained_;  // [snap: skip] already dispatched
  std::uint64_t flits_delivered_ = 0;
  std::uint64_t transfers_aborted_ = 0;
};

}  // namespace wavesim::core
