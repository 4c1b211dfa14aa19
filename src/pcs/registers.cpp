#include "pcs/registers.hpp"

#include <stdexcept>

#include "snap/archive.hpp"

namespace wavesim::pcs {

const char* to_string(ChannelStatus status) noexcept {
  switch (status) {
    case ChannelStatus::kFree: return "free";
    case ChannelStatus::kReservedByProbe: return "reserved";
    case ChannelStatus::kBusyCircuit: return "busy";
    case ChannelStatus::kFaulty: return "faulty";
  }
  return "?";
}

SwitchRegisters::SwitchRegisters(OutChannel* channels, std::int32_t num_ports)
    : out_(channels), num_ports_(num_ports) {
  rebuild_masks();
}

void SwitchRegisters::rebuild_masks() noexcept {
  free_ = reserved_ = busy_ = acked_ = 0;
  for (PortId p = 0; p < num_ports(); ++p) {
    const OutChannel& ch = out_[p];
    const std::uint32_t bit = 1u << p;
    if (ch.status == ChannelStatus::kFree) free_ |= bit;
    if (ch.status == ChannelStatus::kReservedByProbe) reserved_ |= bit;
    if (ch.status == ChannelStatus::kBusyCircuit) busy_ |= bit;
    if (ch.ack_returned) acked_ |= bit;
  }
}

OutChannel& SwitchRegisters::at(PortId out_port) {
  ++version_;  // only the mutators below take a writable channel
  return out_[checked(out_port)];
}

void SwitchRegisters::reserve(PortId out_port, ProbeId probe, PortId in_port) {
  OutChannel& ch = at(out_port);
  if (ch.status != ChannelStatus::kFree) {
    throw std::logic_error("SwitchRegisters::reserve on non-free channel");
  }
  ch.status = ChannelStatus::kReservedByProbe;
  ch.probe = probe;
  ch.circuit = kInvalidCircuit;
  ch.ack_returned = false;
  ch.in_port = in_port;
  free_ &= ~(1u << out_port);
  reserved_ |= 1u << out_port;
  acked_ &= ~(1u << out_port);
}

void SwitchRegisters::release_reservation(PortId out_port) {
  OutChannel& ch = at(out_port);
  if (ch.status != ChannelStatus::kReservedByProbe) {
    throw std::logic_error("release_reservation on non-reserved channel");
  }
  ch = OutChannel{};
  reserved_ &= ~(1u << out_port);
  free_ |= 1u << out_port;
}

void SwitchRegisters::commit(PortId out_port, CircuitId circuit) {
  OutChannel& ch = at(out_port);
  if (ch.status != ChannelStatus::kReservedByProbe) {
    throw std::logic_error("commit on non-reserved channel");
  }
  ch.status = ChannelStatus::kBusyCircuit;
  ch.probe = kInvalidProbe;
  ch.circuit = circuit;
  reserved_ &= ~(1u << out_port);
  busy_ |= 1u << out_port;
}

void SwitchRegisters::mark_ack_returned(PortId out_port) {
  OutChannel& ch = at(out_port);
  if (ch.status != ChannelStatus::kBusyCircuit) {
    throw std::logic_error("mark_ack_returned on non-circuit channel");
  }
  ch.ack_returned = true;
  acked_ |= 1u << out_port;
}

void SwitchRegisters::release_circuit(PortId out_port) {
  OutChannel& ch = at(out_port);
  if (ch.status != ChannelStatus::kBusyCircuit) {
    throw std::logic_error("release_circuit on non-circuit channel");
  }
  ch = OutChannel{};
  busy_ &= ~(1u << out_port);
  acked_ &= ~(1u << out_port);
  free_ |= 1u << out_port;
}

void SwitchRegisters::mark_faulty(PortId out_port) {
  OutChannel& ch = at(out_port);
  if (ch.status != ChannelStatus::kFree) {
    throw std::logic_error("mark_faulty on non-free channel");
  }
  ch = OutChannel{};
  ch.status = ChannelStatus::kFaulty;
  free_ &= ~(1u << out_port);
}

void SwitchRegisters::clear_faulty(PortId out_port) {
  OutChannel& ch = at(out_port);
  if (ch.status != ChannelStatus::kFaulty) {
    throw std::logic_error("clear_faulty on non-faulty channel");
  }
  ch = OutChannel{};
  free_ |= 1u << out_port;
}

PortId SwitchRegisters::direct_map(PortId in_port) const {
  for (PortId p = 0; p < num_ports(); ++p) {
    const OutChannel& ch = out_[p];
    if (ch.status != ChannelStatus::kFree &&
        ch.status != ChannelStatus::kFaulty && ch.in_port == in_port) {
      return p;
    }
  }
  return kInvalidPort;
}

PortId SwitchRegisters::reverse_map(PortId out_port) const {
  const OutChannel& ch = at(out_port);
  if (ch.status == ChannelStatus::kFree || ch.status == ChannelStatus::kFaulty) {
    return kInvalidPort;
  }
  return ch.in_port;
}

std::int32_t SwitchRegisters::count(ChannelStatus status_value) const {
  std::int32_t n = 0;
  for (PortId p = 0; p < num_ports_; ++p) {
    n += out_[p].status == status_value ? 1 : 0;
  }
  return n;
}

RegisterFile::RegisterFile(std::int32_t num_nodes, std::int32_t num_ports,
                           std::int32_t num_switches)
    : num_switches_(num_switches) {
  if (num_nodes < 1 || num_switches < 1 || num_ports < 1 ||
      num_ports > kMaxPorts) {
    throw std::invalid_argument("RegisterFile: bad dimensions");
  }
  const std::size_t banks = static_cast<std::size_t>(num_nodes) * num_switches;
  channels_.resize(banks * static_cast<std::size_t>(num_ports));
  banks_.reserve(banks);
  for (std::size_t b = 0; b < banks; ++b) {
    banks_.emplace_back(channels_.data() + b * num_ports, num_ports);
  }
}

void SwitchRegisters::snap(snap::Archive& ar) {
  for (PortId p = 0; p < num_ports_; ++p) {
    OutChannel& ch = out_[p];
    ar.pod(ch.status);
    ar.pod(ch.probe);
    ar.pod(ch.circuit);
    ar.pod(ch.ack_returned);
    ar.pod(ch.in_port);
  }
  if (ar.reading()) rebuild_masks();
}

void RegisterFile::snap(snap::Archive& ar) {
  for (SwitchRegisters& regs : banks_) regs.snap(ar);
}

}  // namespace wavesim::pcs
