#include "net/packet_buffer.hpp"

#include <sstream>

namespace rrnet::net {

/// The calling thread's PacketBuffer arena. A dedicated pool (rather than
/// the size-class pools) keeps buffer churn — the single hottest
/// allocation in a flood — a branch-free pop/push on a uniform free list.
/// Exposed (read-mostly) so the sim layer can report occupancy metrics.
util::PayloadPool& packet_buffer_pool() noexcept {
  thread_local util::PayloadPool pool;
  return pool;
}

PacketBuffer* PacketBuffer::create(PacketInit&& init) {
  void* slot = packet_buffer_pool().allocate(sizeof(PacketBuffer));
  return ::new (slot) PacketBuffer(std::move(init));
}

void PacketBuffer::destroy(const PacketBuffer* buffer) noexcept {
  buffer->~PacketBuffer();
  util::PayloadPool::release(const_cast<PacketBuffer*>(buffer));
}

std::uint32_t PacketBuffer::header_bytes() const noexcept {
  switch (type_) {
    case PacketType::Data: return 20;
    case PacketType::PathDiscovery: return 24;
    case PacketType::PathReply: return 24;
    case PacketType::NetAck: return 16;
    case PacketType::RouteRequest: return 24;
    case PacketType::RouteReply: return 20;
    case PacketType::RouteError: return 12;
    case PacketType::RouteUpdate: return 8;  // + 10 bytes per entry (payload)
  }
  return 20;
}

PacketRef make_packet(PacketInit init) {
  HopState hop;
  hop.actual_hops = init.actual_hops;
  hop.expected_hops = init.expected_hops;
  hop.ttl = init.ttl;
  hop.prev_hop = init.prev_hop;
  return PacketRef(PacketBuffer::create(std::move(init)), hop);
}

PacketInit PacketRef::to_init() const {
  PacketInit init;
  init.type = buffer_->type();
  init.origin = buffer_->origin();
  init.target = buffer_->target();
  init.sequence = buffer_->sequence();
  init.uid = buffer_->uid();
  init.payload_bytes = buffer_->payload_bytes();
  init.created_at = buffer_->created_at();
  init.rreq_id = buffer_->rreq_id();
  init.origin_seqno = buffer_->origin_seqno();
  init.target_seqno = buffer_->target_seqno();
  init.unreachable = buffer_->unreachable();
  init.acked_type = buffer_->acked_type();
  init.extension = buffer_->extension();
  init.actual_hops = hop_.actual_hops;
  init.expected_hops = hop_.expected_hops;
  init.ttl = hop_.ttl;
  init.prev_hop = hop_.prev_hop;
  return init;
}

std::string PacketRef::describe() const {
  std::ostringstream oss;
  oss << to_string(type()) << "(origin=" << origin() << " target=" << target()
      << " seq=" << sequence() << " hops=" << actual_hops() << " uid=" << uid()
      << ")";
  return oss.str();
}

}  // namespace rrnet::net
