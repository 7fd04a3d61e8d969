// The zero-copy cross-layer message path.
//
// A logical packet is allocated exactly once, at origination, as a pooled
// net::PacketBuffer: the immutable origin header (type, origin, target,
// sequence, uid, sizes, AODV fields, typed extension) plus an intrusive
// NON-atomic reference count. Every layer crossing — protocol relay,
// net->MAC queue, MAC->PHY airframe, PHY delivery fan-out — moves a
// 24-byte net::PacketRef instead of copying the ~100-byte packet: the ref
// holds the buffer pointer plus its own HopState trailer (ttl, hop counts,
// prev_hop), which is the only state that legitimately differs between
// concurrent in-flight copies of the same packet.
//
// Ownership/refcount rules:
//  * PacketRef is the ONLY owner type. Copying a ref bumps the count
//    (non-atomically); destroying the last ref returns the buffer to the
//    thread-local PayloadPool it came from.
//  * The refcount is non-atomic by design: replication workers are
//    shared-nothing (each owns its scheduler, network, and pools), so a
//    buffer is created, relayed, and released on one thread. This is what
//    keeps the serial==parallel bit-identity guarantee free of fences.
//  * The header is immutable after make_packet(). A relay that must change
//    header fields (DSR's per-hop route accumulation) rebuilds via
//    to_init() + make_packet(), paying one pool allocation — exactly the
//    cases that semantically ARE new packets.
//
// Protocol-specific payloads ride in a typed extension slot: a
// PacketExtension subclass tagged with an ExtensionKind, reached through
// extension_as<T>() (kind-checked downcast from the typed base — no void*
// anywhere on the path).
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "des/time.hpp"
#include "net/packet.hpp"
#include "util/pool.hpp"

namespace rrnet::net {

/// Discriminator for the typed extension slot. One entry per concrete
/// PacketExtension subclass (the set is closed and small: protocols that
/// need a new payload add a kind here and a subclass in their own header).
enum class ExtensionKind : std::uint8_t {
  SourceRoute,  ///< DSR: accumulated/complete node list
  RouteTable,   ///< DSDV: full table dump
};

class ExtensionRef;

/// Base of all packet extensions: an ExtensionKind tag plus an intrusive
/// non-atomic refcount (same threading rules as PacketBuffer). Concrete
/// subclasses live in the protocol headers that own them and expose a
/// `static constexpr ExtensionKind kKind` for extension_as<T>().
class PacketExtension : public util::PoolAllocated {
 public:
  explicit PacketExtension(ExtensionKind kind) noexcept : kind_(kind) {}
  virtual ~PacketExtension() = default;
  PacketExtension(const PacketExtension&) = delete;
  PacketExtension& operator=(const PacketExtension&) = delete;

  [[nodiscard]] ExtensionKind kind() const noexcept { return kind_; }

 private:
  friend class ExtensionRef;
  mutable std::uint32_t refs_ = 0;
  ExtensionKind kind_;
};

/// Intrusive handle to a PacketExtension. make_extension<T>() is the only
/// creation path; the referenced extension is immutable once attached.
class ExtensionRef {
 public:
  ExtensionRef() noexcept = default;
  ExtensionRef(const ExtensionRef& other) noexcept : ext_(other.ext_) {
    if (ext_ != nullptr) ++ext_->refs_;
  }
  ExtensionRef(ExtensionRef&& other) noexcept : ext_(other.ext_) {
    other.ext_ = nullptr;
  }
  ExtensionRef& operator=(const ExtensionRef& other) noexcept {
    ExtensionRef(other).swap(*this);
    return *this;
  }
  ExtensionRef& operator=(ExtensionRef&& other) noexcept {
    ExtensionRef(std::move(other)).swap(*this);
    return *this;
  }
  ~ExtensionRef() { reset(); }

  void reset() noexcept {
    if (ext_ != nullptr && --ext_->refs_ == 0) delete ext_;
    ext_ = nullptr;
  }
  void swap(ExtensionRef& other) noexcept { std::swap(ext_, other.ext_); }

  [[nodiscard]] const PacketExtension* get() const noexcept { return ext_; }
  explicit operator bool() const noexcept { return ext_ != nullptr; }

  template <typename T, typename... Args>
  friend ExtensionRef make_extension(Args&&... args);

 private:
  struct Adopt {};
  ExtensionRef(const PacketExtension* ext, Adopt) noexcept : ext_(ext) {
    ++ext_->refs_;
  }

  const PacketExtension* ext_ = nullptr;
};

/// Build an immutable extension of concrete type T (a PacketExtension
/// subclass). The object routes through the size-class pools via
/// PoolAllocated, so steady-state extension churn stays off the heap.
template <typename T, typename... Args>
[[nodiscard]] ExtensionRef make_extension(Args&&... args) {
  static_assert(std::is_base_of_v<PacketExtension, T>);
  return ExtensionRef(new T(std::forward<Args>(args)...),
                      ExtensionRef::Adopt{});
}

/// The flat origination aggregate: the complete on-air packet (immutable
/// header fields AND the initial per-hop trailer) as one inspectable
/// struct. Protocols fill it in and hand it to make_packet(), which splits
/// it into the shared buffer and the ref's trailer. Field meanings match
/// the paper's packet formats; fields a protocol does not use stay at
/// their defaults and do not count toward the on-air size.
struct PacketInit {
  PacketType type = PacketType::Data;
  std::uint32_t origin = kNoNode;   ///< node that created the packet
  std::uint32_t target = kNoNode;   ///< final destination (kNoNode = flood)
  std::uint32_t sequence = 0;       ///< per-origin sequence number
  std::uint64_t uid = 0;            ///< globally unique (tracing, dedup)
  std::uint16_t actual_hops = 0;    ///< initial trailer: hops traveled
  std::uint16_t expected_hops = 0;  ///< initial trailer: RR expected hops
  std::uint8_t ttl = 64;            ///< initial trailer: relays remaining
  std::uint32_t prev_hop = kNoNode; ///< initial trailer: last transmitter
  std::uint32_t payload_bytes = 0;  ///< application payload size
  des::Time created_at = 0.0;       ///< origination time (end-to-end delay)

  // AODV-only fields.
  std::uint32_t rreq_id = 0;        ///< per-origin route-request id
  std::uint32_t origin_seqno = 0;   ///< origin's AODV sequence number
  std::uint32_t target_seqno = 0;   ///< last known target AODV sequence number
  std::uint32_t unreachable = kNoNode;  ///< RERR: destination that broke

  /// NetAck-only: packet type being acknowledged (the ack references the
  /// acked packet's (origin, sequence, type) flood key).
  PacketType acked_type = PacketType::Data;

  /// Typed protocol extension; its on-air size must be reflected in
  /// payload_bytes by the protocol that attaches it.
  ExtensionRef extension;
};

class PacketRef;
PacketRef make_packet(PacketInit init);

/// The shared, immutable part of an in-flight packet. Created only by
/// make_packet(); reached only through PacketRef. Pooled per-thread and
/// ref-counted non-atomically (see the file comment for the rules).
class PacketBuffer {
 public:
  PacketBuffer(const PacketBuffer&) = delete;
  PacketBuffer& operator=(const PacketBuffer&) = delete;

  [[nodiscard]] PacketType type() const noexcept { return type_; }
  [[nodiscard]] std::uint32_t origin() const noexcept { return origin_; }
  [[nodiscard]] std::uint32_t target() const noexcept { return target_; }
  [[nodiscard]] std::uint32_t sequence() const noexcept { return sequence_; }
  [[nodiscard]] std::uint64_t uid() const noexcept { return uid_; }
  [[nodiscard]] std::uint32_t payload_bytes() const noexcept {
    return payload_bytes_;
  }
  [[nodiscard]] des::Time created_at() const noexcept { return created_at_; }
  [[nodiscard]] std::uint32_t rreq_id() const noexcept { return rreq_id_; }
  [[nodiscard]] std::uint32_t origin_seqno() const noexcept {
    return origin_seqno_;
  }
  [[nodiscard]] std::uint32_t target_seqno() const noexcept {
    return target_seqno_;
  }
  [[nodiscard]] std::uint32_t unreachable() const noexcept {
    return unreachable_;
  }
  [[nodiscard]] PacketType acked_type() const noexcept { return acked_type_; }

  [[nodiscard]] bool has_extension() const noexcept {
    return static_cast<bool>(extension_);
  }
  [[nodiscard]] const ExtensionRef& extension() const noexcept {
    return extension_;
  }
  /// Kind-checked typed access to the extension; nullptr when absent or of
  /// a different kind.
  template <typename T>
  [[nodiscard]] const T* extension_as() const noexcept {
    const PacketExtension* ext = extension_.get();
    return (ext != nullptr && ext->kind() == T::kKind)
               ? static_cast<const T*>(ext)
               : nullptr;
  }

  /// On-air network header size for this packet type (bytes).
  [[nodiscard]] std::uint32_t header_bytes() const noexcept;
  /// Full network-layer size: header + payload.
  [[nodiscard]] std::uint32_t size_bytes() const noexcept {
    return header_bytes() + payload_bytes_;
  }
  [[nodiscard]] std::uint64_t flood_key() const noexcept {
    return flood_key_of(origin_, sequence_, type_);
  }

  /// Live reference count (tests / leak audits).
  [[nodiscard]] std::uint32_t ref_count() const noexcept { return refs_; }

 private:
  friend class PacketRef;
  friend PacketRef make_packet(PacketInit init);

  explicit PacketBuffer(PacketInit&& init) noexcept
      : type_(init.type),
        acked_type_(init.acked_type),
        origin_(init.origin),
        target_(init.target),
        sequence_(init.sequence),
        uid_(init.uid),
        payload_bytes_(init.payload_bytes),
        created_at_(init.created_at),
        rreq_id_(init.rreq_id),
        origin_seqno_(init.origin_seqno),
        target_seqno_(init.target_seqno),
        unreachable_(init.unreachable),
        extension_(std::move(init.extension)) {}

  static PacketBuffer* create(PacketInit&& init);
  static void destroy(const PacketBuffer* buffer) noexcept;

  void ref() const noexcept { ++refs_; }
  void unref() const noexcept {
    if (--refs_ == 0) destroy(this);
  }

  PacketType type_;
  PacketType acked_type_;
  std::uint32_t origin_;
  std::uint32_t target_;
  std::uint32_t sequence_;
  std::uint64_t uid_;
  std::uint32_t payload_bytes_;
  des::Time created_at_;
  std::uint32_t rreq_id_;
  std::uint32_t origin_seqno_;
  std::uint32_t target_seqno_;
  std::uint32_t unreachable_;
  ExtensionRef extension_;
  mutable std::uint32_t refs_ = 0;
};

/// The handle every layer passes around: shared buffer pointer + this
/// copy's own per-hop trailer. 24 bytes, nothrow-movable, cheap to copy
/// (one non-atomic increment) — sized to sit inside InlineFunction capture
/// budgets so relays and elections never box packets again.
class PacketRef {
 public:
  PacketRef() noexcept = default;
  PacketRef(const PacketRef& other) noexcept
      : buffer_(other.buffer_), hop_(other.hop_) {
    if (buffer_ != nullptr) buffer_->ref();
  }
  PacketRef(PacketRef&& other) noexcept
      : buffer_(other.buffer_), hop_(other.hop_) {
    other.buffer_ = nullptr;
  }
  PacketRef& operator=(const PacketRef& other) noexcept {
    PacketRef(other).swap(*this);
    return *this;
  }
  PacketRef& operator=(PacketRef&& other) noexcept {
    PacketRef(std::move(other)).swap(*this);
    return *this;
  }
  ~PacketRef() {
    if (buffer_ != nullptr) buffer_->unref();
  }

  void reset() noexcept {
    if (buffer_ != nullptr) buffer_->unref();
    buffer_ = nullptr;
    hop_ = HopState{};
  }
  void swap(PacketRef& other) noexcept {
    std::swap(buffer_, other.buffer_);
    std::swap(hop_, other.hop_);
  }

  explicit operator bool() const noexcept { return buffer_ != nullptr; }

  // ---- immutable header (shared buffer) ----
  [[nodiscard]] PacketType type() const noexcept { return buffer_->type(); }
  [[nodiscard]] std::uint32_t origin() const noexcept {
    return buffer_->origin();
  }
  [[nodiscard]] std::uint32_t target() const noexcept {
    return buffer_->target();
  }
  [[nodiscard]] std::uint32_t sequence() const noexcept {
    return buffer_->sequence();
  }
  [[nodiscard]] std::uint64_t uid() const noexcept { return buffer_->uid(); }
  [[nodiscard]] std::uint32_t payload_bytes() const noexcept {
    return buffer_->payload_bytes();
  }
  [[nodiscard]] des::Time created_at() const noexcept {
    return buffer_->created_at();
  }
  [[nodiscard]] std::uint32_t rreq_id() const noexcept {
    return buffer_->rreq_id();
  }
  [[nodiscard]] std::uint32_t origin_seqno() const noexcept {
    return buffer_->origin_seqno();
  }
  [[nodiscard]] std::uint32_t target_seqno() const noexcept {
    return buffer_->target_seqno();
  }
  [[nodiscard]] std::uint32_t unreachable() const noexcept {
    return buffer_->unreachable();
  }
  [[nodiscard]] PacketType acked_type() const noexcept {
    return buffer_->acked_type();
  }
  [[nodiscard]] bool has_extension() const noexcept {
    return buffer_->has_extension();
  }
  template <typename T>
  [[nodiscard]] const T* extension_as() const noexcept {
    return buffer_->extension_as<T>();
  }
  [[nodiscard]] std::uint32_t header_bytes() const noexcept {
    return buffer_->header_bytes();
  }
  [[nodiscard]] std::uint32_t size_bytes() const noexcept {
    return buffer_->size_bytes();
  }
  [[nodiscard]] std::uint64_t flood_key() const noexcept {
    return buffer_->flood_key();
  }
  [[nodiscard]] const PacketBuffer& buffer() const noexcept { return *buffer_; }

  // ---- per-hop trailer (this copy only) ----
  [[nodiscard]] HopState& hop() noexcept { return hop_; }
  [[nodiscard]] const HopState& hop() const noexcept { return hop_; }
  [[nodiscard]] std::uint16_t actual_hops() const noexcept {
    return hop_.actual_hops;
  }
  [[nodiscard]] std::uint16_t expected_hops() const noexcept {
    return hop_.expected_hops;
  }
  [[nodiscard]] std::uint8_t ttl() const noexcept { return hop_.ttl; }
  [[nodiscard]] std::uint32_t prev_hop() const noexcept {
    return hop_.prev_hop;
  }

  /// Flatten back into an origination aggregate (header + current trailer).
  /// The escape hatch for relays that must change immutable header fields
  /// (DSR route accumulation, requeue-after-link-break): edit the init and
  /// make_packet() a fresh buffer.
  [[nodiscard]] PacketInit to_init() const;

  [[nodiscard]] std::string describe() const;

  friend PacketRef make_packet(PacketInit init);

 private:
  PacketRef(PacketBuffer* buffer, HopState hop) noexcept
      : buffer_(buffer), hop_(hop) {
    buffer_->ref();
  }

  PacketBuffer* buffer_ = nullptr;
  HopState hop_;
};

/// Originate a packet: one pooled buffer allocation, shared by every copy
/// of the returned ref for the packet's whole network lifetime.
[[nodiscard]] PacketRef make_packet(PacketInit init);

/// The calling thread's dedicated PacketBuffer arena (introspection: the
/// sim layer snapshots its occupancy/alloc counters into run metrics).
[[nodiscard]] util::PayloadPool& packet_buffer_pool() noexcept;

static_assert(sizeof(PacketRef) <= 24,
              "PacketRef must stay small enough for InlineFunction captures");
static_assert(std::is_nothrow_move_constructible_v<PacketRef>);

}  // namespace rrnet::net
